"""Output checks for the benchmark workloads.

Every check returns a list of failure messages; an empty list is a pass.
The checks take plain data (exit codes, report text, CSV text, numbers),
so the benchmark's tests can feed them perturbed inputs and see them
fail.  None of them calls into tamecube: the distance to the
walls-plus-top complex is computed here independently.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

TOL = 1e-9

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def mask_timestamp(report_text: str) -> str:
    return _TIMESTAMP.sub('"timestamp": ""', report_text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_report(rc: int, text: str) -> list[str]:
    """``verify`` exited 0 and its report says every property passed."""
    errors = [] if rc == 0 else [f"verify exited with code {rc}"]
    try:
        report = json.loads(text)
    except ValueError:
        return errors + ["verify report is not JSON"]
    results = report.get("results") or []
    if not results:
        errors.append("verify report has no results")
    if report.get("passed") is not True or report.get("failures") != 0:
        errors.append(f"verify report not passed (failures={report.get('failures')!r})")
    bad = [r.get("name") for r in results if r.get("passed") is not True]
    if bad:
        errors.append(f"failed properties: {bad}")
    if "timestamp" not in report:
        errors.append("verify report has no timestamp")
    return errors


def same_report(first: str, other: str) -> list[str]:
    """Two reports are byte-identical apart from the timestamp value."""
    if mask_timestamp(first) == mask_timestamp(other):
        return []
    return ["verify reports differ beyond the timestamp"]


def within_tol(worsts: dict[str, float], tol: float = TOL) -> list[str]:
    """Each named worst violation is at most tol (NaN fails)."""
    return [
        f"{name} worst {value:.3e} exceeds {tol:.1e}"
        for name, value in sorted(worsts.items())
        if not value <= tol
    ]


def csv_shape(text: str, n: int, m: int, grid: int) -> list[str]:
    """Header plus grid**n rows of n inputs and m outputs, newline-terminated."""
    errors = []
    header = ",".join([f"t{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, m + 1)])
    if not text.startswith(header + "\n"):
        errors.append("CSV header mismatch")
    rows = grid**n + 1
    if not text.endswith("\n") or text.count("\n") != rows:
        errors.append(f"CSV has {text.count(chr(10))} lines, expected {rows} (grid**n + 1)")
    if text.count(",") != (n + m - 1) * rows:
        errors.append("CSV field count mismatch")
    return errors


def dist_to_walls_and_top(Y: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row to J: the faces y_k in {0, 1} (k < n) and y_n = 1."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[1]
    out_sq = np.maximum(np.maximum(-Y, Y - 1.0), 0.0) ** 2
    faces = [(n - 1, 1.0)] + [(k, v) for k in range(n - 1) for v in (0.0, 1.0)]
    d2 = [out_sq.sum(axis=1) - out_sq[:, k] + (Y[:, k] - v) ** 2 for k, v in faces]
    return np.sqrt(np.min(d2, axis=0))


def rows_on_j(Y: np.ndarray, tol: float = TOL) -> list[str]:
    """Every output row lies within tol of the walls-plus-top complex."""
    if len(Y) == 0:
        return ["no retraction rows to check"]
    worst = float(np.max(dist_to_walls_and_top(Y)))
    if math.isnan(worst) or worst > tol:
        return [f"retraction rows lie {worst:.3e} from J (tol {tol:.1e})"]
    return []


def csv_outputs(text: str, n: int, last_input: float | None = None) -> np.ndarray:
    """Output columns of a sample CSV, optionally only rows whose last input equals last_input."""
    lines = text.splitlines()[1:]
    if last_input is not None:
        lines = [ln for ln in lines if float(ln.split(",", n)[n - 1]) == last_input]
    if not lines:
        return np.zeros((0, 0))
    return np.array([ln.split(",")[n:] for ln in lines], dtype=float)


def counts_match(first: dict, other: dict) -> list[str]:
    """Count metrics repeat exactly between runs of the same inputs."""
    diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    return [f"count {k} changed: {first.get(k)!r} -> {other.get(k)!r}" for k in diff]
