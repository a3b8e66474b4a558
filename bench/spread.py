"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--seconds N]
                            [--trace 0|1] [--out FILE]

For every workload it runs ``bench/run.py`` once per seed, one run at a
time, and prints each metric's median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  ``--out`` also writes every run's values as JSON, which
is how ``bench/baseline.json`` was recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median,) * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(workload, seed, result["correct"],
                  f"{result['failed']}/{result['attempted']}",
                  " ".join(f"{k}={m['value']:.6g}"
                           for k, m in result["metrics"].items()), flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        for k, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {workload} {k}: median {m['median']:.6g} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}")
        report[workload] = {"seeds": [r["seed"] for r in runs],
                            "correct": all(r["correct"] for r in runs),
                            "metrics": metrics}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
