"""Host-speed sampling, so that timings survive a host whose speed wanders.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the same job's
wall time moved by up to 1.7x from one few-second stretch to the next, and
the host's own load causes that, not the job.  While a job runs, a SIGALRM handler runs a small fixed loop
(``CHUNK_ITERATIONS`` of scalar float math, tuple keys, dict lookups and
float formatting, the interpreter work that dominates tamecube's kernels
and CLI) every ``INTERVAL_S`` and records how long the loop took.  The
benchmark subtracts the handler's own time from the job's time and scales
the rest by ``REF_NOMINAL_S`` over the loop's time at those moments: a
job that ran while the host was 1.5x slow is reported 1.5x shorter.  The
loop does not touch tamecube, so a change to tamecube moves only the job's
own time.  The result is in reference seconds: seconds on a host where the
loop takes ``REF_NOMINAL_S``.
"""

from __future__ import annotations

import gc
import math
import signal

from spans import now

INTERVAL_S = 0.1
CHUNK_ITERATIONS = 6000
REF_NOMINAL_S = 0.005  # the loop's time on the machine the baseline was taken on, rounded


def _chunk() -> None:
    memo: dict = {}
    parts = []
    for i in range(1, CHUNK_ITERATIONS):
        t = (i % 997) / 997.0 + 1e-3
        key = (t, i & 7)
        v = memo.get(key)
        if v is None:
            a, b = math.exp(-1.0 / t), math.exp(-1.0 / (1.001 - t))
            v = memo[key] = a / (a + b)
        if i % 4 == 0:
            parts.append(f"{v:.17g}")
    ",".join(parts)


class Sampler:
    """Times the loop every INTERVAL_S while started, and on demand."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()  # the heap the job left behind must not change the figure
        try:
            t0 = now()
            _chunk()
            self.samples.append((t0, now() - t0))
        finally:
            if was_enabled:
                gc.enable()

    def on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(samples: list[tuple[float, float]], t_a: float, t_b: float) -> tuple[float, float]:
    """(seconds in [t_a, t_b) not spent sampling, the same in reference seconds).

    The host's speed over the interval is the mean of REF_NOMINAL_S over the
    loop times sampled in it, counting one sample interval either side so
    that short intervals have some.
    """
    inside = [d for t, d in samples if t_a <= t < t_b]
    near = [d for t, d in samples if t_a - INTERVAL_S <= t < t_b + INTERVAL_S]
    if not near:
        raise ValueError("no host-speed sample near the interval")
    own = (t_b - t_a) - sum(inside)
    return own, own * sum(REF_NOMINAL_S / d for d in near) / len(near)
