"""Run the program under test in this process, optionally traced.

    python3 perfbench/launch.py [--spans FILE] cli <adwynn arguments ...>
    python3 perfbench/launch.py [--spans FILE] study <config.json> <checks.npz>

``cli`` is exactly the ``adwynn`` console command. ``study`` runs the
library's Monte Carlo study on a configuration file the way ``adwynn
mc`` does, keeps the paths, runs the window-mass and cluster
diagnostics on each, prints ``DONE <perf_counter>`` when that work is
finished, and then saves what the benchmark's checks need. With
``--spans`` the package's entry points are wrapped (see tracer.py) and
the spans are written to FILE when the process ends.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WINDOW_EPSILON = 0.1  # the acceptance suite's mass-bound epsilon


def study(config_path: str, checks_path: str) -> int:
    import numpy as np
    from adwynn import analysis, cli

    cfg = cli.load_config(config_path)
    checkpoints = [int(c) for c in cfg.mc_checkpoints]
    report = analysis.run_study(
        cfg.scenario(max(checkpoints)),
        cfg.mc_replicates,
        checkpoints,
        cfg.seed,
        workers=cfg.mc_workers,
        keep_paths=cfg.mc_keep_paths,
    )
    prefix = Path(cfg.out_dir) / cfg.prefix
    cli.write_json(Path(f"{prefix}_mc.json"), report.to_jsonable())
    header, rows = report.csv_rows()
    cli.write_csv(Path(f"{prefix}_mc.csv"), header, rows)

    paths = report.kept_paths
    diagnostics = []
    if paths:
        b = cfg.bundle
        cal = analysis.calibrate_window_diameter(
            b.model,
            b.parameter_space,
            b.design_space.grid(),
            b.parameter_space.sample_grid(5),
            epsilon=WINDOW_EPSILON,
        )
        for traj in paths:
            curve = analysis.window_mass_curve(traj, cal.d, n_from=2)
            clusters = analysis.extract_clusters(traj, traj.n, cal.d / 3.0)
            diagnostics.append((curve, clusters))
    print("DONE", repr(time.perf_counter()), flush=True)

    if not paths:
        np.savez(checks_path, kept=0)
        return 0
    ranges = np.full((len(paths), max(c.found for _, c in diagnostics), 2), np.nan)
    for i, (_, clusters) in enumerate(diagnostics):
        for j, c in enumerate(clusters.clusters):
            ranges[i, j] = (c.point_min[0], c.point_max[0])
    np.savez(
        checks_path,
        kept=len(paths),
        points=np.stack([t.points[:, 0] for t in paths]),
        responses=np.stack([t.responses for t in paths]),
        n_start=np.array([t.n_start for t in paths]),
        rec_n=np.stack([[r.n for r in t.records] for t in paths]),
        x_next=np.stack([[r.x_next[0] for r in t.records] for t in paths]),
        theta=np.stack([[r.theta for r in t.records] for t in paths]),
        logdet=np.stack([[r.logdet for r in t.records] for t in paths]),
        max_d=np.stack([[r.max_d for r in t.records] for t in paths]),
        y_next=np.stack([[r.y_next for r in t.records] for t in paths]),
        theta_hat=np.stack([t.final_fit.theta_hat for t in paths]),
        sse_value=np.array([t.final_fit.sse_value for t in paths]),
        window_stages=np.array(sorted(diagnostics[0][0])),
        window_masses=np.stack([[c[k] for k in sorted(c)] for c, _ in diagnostics]),
        clusters_found=np.array([c.found for _, c in diagnostics]),
        cluster_ranges=ranges,
    )
    return 0


def main(argv: list[str]) -> int:
    tracer = spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
        import tracer as tracing  # beside this script, so on sys.path

        tracer = tracing.install()
    try:
        if argv[:1] == ["cli"]:
            from adwynn.cli import main as adwynn_main

            return adwynn_main(argv[1:])
        if argv[:1] == ["study"] and len(argv) == 3:
            return study(argv[1], argv[2])
        print(__doc__, file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
