#!/usr/bin/env python3
"""Repeats perfbench/run.py over seeds and summarises the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--out perfbench/results/NAME.json]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound
in BENCHMARK.json. --out writes the summary plus every run's full report,
calibration included: a point of the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {}
    reports: list = []
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            with tempfile.NamedTemporaryFile(suffix=".json", dir=".") as report:
                run = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                      "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                      "--trace", str(args.trace), "--report", report.name],
                                     capture_output=True, text=True)
                result = json.loads(run.stdout.strip().splitlines()[-1])
                full = json.loads(Path(report.name).read_text())
            reports.append(full)
            if run.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: FAILED {full['problems']}", file=sys.stderr)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "runs": len(vals)}
            bound = bounds.get(metric)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else
                                              ("  within bound" if spread < bound else "  TOO WIDE"))
            print(f"  {name:18s} {metric:28s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:6.3f}" + (f" (bound {bound})" if bound else "") + flag)
    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "seeds": args.seeds,
                                              "summary": summary, "runs": reports}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
