"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workload replace --seeds 1-10 [--out summary.json]

Run from the repository root.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread:
the distance between the quartiles as a share of the median, which is the
figure to compare with the metric's bound in BENCHMARK.json.  With
``--out`` the raw results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        runs.append({"seed": seed, "exit": proc.returncode, "result": result, "log": lines[:-1]})
        brief = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
        ok = result and result["correct"]
        extra = " | ".join(ln for ln in lines[:-1] if not ln.startswith("machine "))
        print(f"seed {seed}: correct={bool(ok)} {brief} {extra}", flush=True)

    names = sorted({k for r in runs if r["result"] for k in r["result"]["metrics"]})
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"] and name in r["result"]["metrics"]]
        summary[name] = summarise(values)
        s = summary[name]
        spread = f"{s['spread']:.4f}" if s["spread"] is not None else "n/a"
        bound = bounds.get(name)
        print(f"{name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}"
              + (f" (bound {bound}, a third is {bound / 3:.4f})" if bound else ""))
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "runs": runs, "summary": summary}, indent=1), encoding="utf-8")
    return 0 if all(r["result"] and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
