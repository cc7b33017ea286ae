"""Rerun workloads and report how steady the benchmark's figures are.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--traced 2]

Each workload runs `--runs` times through run.py, each time with the
next seed and with BENCHMARK.json's run length. For every end-to-end
metric the report gives the median and quartiles (statistics.quantiles,
n=4) and the spread: the distance between the quartiles as a share of
the median, beside the bound in BENCHMARK.json and a third of it, the
target for a steady benchmark.
It also gives the share of failed operations of every run. With
`--traced K` the traced run repeats K times on the first seed, and the
report shows whether its counts repeat exactly. The exit code is 0 only
when every spread is below a third of its bound and the counts repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1]), elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seconds = spec["run_seconds"]
    steady = True
    for workload in args.workload or names:
        results = []
        for k in range(args.runs):
            result, elapsed = run(workload, args.first_seed + k, seconds, 0)
            results.append(result)
            print(f"{workload} seed {args.first_seed + k}: {elapsed:.1f} s, "
                  f"correct {result['correct']}, failed {result['failed']}/{result['attempted']}",
                  flush=True)
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            median, q1, q3, s = spread([r["metrics"][name]["value"] for r in results])
            mark = "" if s < bound / 3 else "  <- above bound/3"
            steady = steady and bool(not mark)
            print(f"  {name:26s} {median:12.5g} {q1:12.5g} {q3:12.5g} {s:8.2%} {bound:6.0%}{mark}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"  failed share of attempted: {shares}; all correct: {all(r['correct'] for r in results)}")
        if args.traced:
            traced = [run(workload, args.first_seed, seconds, 1)[0] for _ in range(args.traced)]
            counts = {n: [t["metrics"][n]["value"] for t in traced]
                      for n, u in units.items() if u == "count"}
            exact = all(len(set(v)) == 1 for v in counts.values())
            steady = steady and exact
            print(f"  traced counts over {args.traced} runs at seed {args.first_seed}: "
                  f"{'repeat exactly' if exact else 'DIFFER'} {counts}")
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
