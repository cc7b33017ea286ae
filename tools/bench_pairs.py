"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py --out BENCH_6.json [--base HEAD]
        [--workload session-mm --workload mc-study] [--pairs 10]
        [--seed 1001] [--seconds 45] [--trace-seed 77]

The base is the commit ``--base`` (default HEAD, the parent of an
uncommitted change; pass HEAD~1 once the change is committed), unpacked
with ``git archive`` into ``.bench_build/<sha>``; the change is the
working tree of the checkout this script sits in.  For each
workload, pair i runs ``perfbench/run.py --seed <seed + i>`` once in
each tree, base first in even pairs and change first in odd ones, so
that the host's drift does not favour one side.  Each tree runs its own
``perfbench/``; this script only drives it and summarises what it prints.
With ``--trace-seed`` each side also makes one traced run (``--trace 1``)
per workload on that seed.

The output file holds every run's result line, and for each
end-to-end metric of BENCHMARK.json the median and quartiles per side,
the number of pairs the change won, and its median gain beside the
base's interquartile spread; also the machine facts (cores, Python,
numpy).  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def build_base(rev: str) -> tuple[str, Path]:
    """Unpack the commit rev under .bench_build/ and return its sha and tree."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / sha
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    return sha, tree


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its result line, or the failure."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:], "started": started}
    result["started"] = started
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, wins and the gain."""
    ok = [p for p in pairs if "metrics" in p["base"] and "metrics" in p["change"]]
    if not ok:
        return {}
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        base = [p["base"]["metrics"][name]["value"] for p in ok]
        change = [p["change"]["metrics"][name]["value"] for p in ok]
        b, c = quartiles(base), quartiles(change)
        out[name] = {
            "better": metric["better"],
            "base": b,
            "change": c,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
            "pairs": len(ok),
            "median_gain": sign * (c["median"] - b["median"]),
            "base_iqr": b["q3"] - b["q1"],
            "ratio": c["median"] / b["median"] if b["median"] else None,
        }
    return out


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    base_sha, base_tree = build_base(args.base)
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    sides = {"base": base_tree, "change": ROOT}
    record = {
        "schema": "adwynn.bench_pairs.v1",
        "base": {"rev": base_sha},
        "change": {"rev": _git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "machine": machine(),
        "settings": {
            "pairs": args.pairs, "first_seed": args.seed, "seconds": args.seconds,
            "trace_seed": args.trace_seed,
            "order": "base first in even pairs, change first in odd pairs",
        },
        "workloads": {},
    }
    try:
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, args.seconds, 0)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side].get('metrics', pair[side]))}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            entry = {"pairs": pairs, "summary": summarise(pairs, spec["end_to_end"])}
            if args.trace_seed is not None:
                entry["traced"] = {
                    side: run_once(tree, workload, args.trace_seed, args.seconds, 1)
                    for side, tree in sides.items()
                }
            record["workloads"][workload] = entry
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
