"""Run one workload of the adwynn benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` the workload plays
its inputs three times over about S seconds and the last line of
standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` a fixed traced run prints the
per-layer metrics instead.
Both also print how many operations were attempted and how many
failed, and whether every output passed the reference checks. Details
of failed operations and checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adwynn" / "cli.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = workloads.Bench(ROOT, work, args.seed)
    measure, traced = workloads.WORKLOADS[args.workload]
    try:
        values = traced(bench) if args.trace else measure(bench, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.stop_children()
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"benchmark: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for error in bench.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
