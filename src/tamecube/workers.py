"""Forked workers, one per CPU, shared by the ``verify`` and ``sample`` commands.

A job of ``parts`` independent parts runs on ``w = count(parts)`` workers,
the smaller of ``parts`` and the number of CPUs this process may use: the
calling process and ``w - 1`` children from ``os.fork``.  With no
``os.fork`` or another live Python thread, ``w`` is 1.  A fork that fails
for want of a process leaves the parts of the workers not forked to the
caller.  A child pickles its result, or the exception that stopped it, to
its own pipe, which the caller reads, and leaves by ``os._exit``, so none
of the caller's code runs on in it.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable, Iterator


def count(parts: int) -> int:
    """How many processes share ``parts`` parts: one per CPU this process may
    use, at most one per part, and only the caller where forking is unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(parts, cpus)


def fork(children: dict[int, int], w: int, work: Callable[[int], object]) -> None:
    """Fork workers 1 to ``w - 1``, each into ``children`` as its pid and the
    read end of its result pipe; stop at the first fork that fails.  Worker
    ``i`` returns ``work(i)`` as its result and never returns here."""
    for i in range(1, w):
        result, out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(result)
            os.close(out)
            return
        if pid == 0:
            _child(out, (result, *children.values()), lambda: work(i))
        os.close(out)
        children[pid] = result


def _child(out: int, inherited: tuple[int, ...], work: Callable[[], object]) -> None:
    """A forked worker: close the caller's pipe ends ``inherited``, pickle the
    result of ``work``, or the exception that stopped it, to ``out``, and
    leave by ``os._exit``."""
    try:
        try:
            for fd in inherited:
                os.close(fd)
            payload = work()
        except BaseException as exc:
            payload = exc
        with os.fdopen(out, "wb") as f:
            pickle.dump(payload, f)
    finally:
        os._exit(0)


def results(children: dict[int, int]) -> Iterator[object]:
    """Each child's result in fork order, None for a child that ended without
    one; a child's exception is raised here."""
    for result in children.values():
        try:
            with open(result, "rb", closefd=False) as f:
                payload = pickle.load(f)
        except (EOFError, pickle.UnpicklingError):
            payload = None
        if isinstance(payload, BaseException):
            raise payload
        yield payload


def reap(children: dict[int, int]) -> None:
    """Close each child's result pipe and wait for it to end."""
    for pid, result in children.items():
        os.close(result)
        os.waitpid(pid, 0)
