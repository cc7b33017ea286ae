"""Print sha256 digests of every output file for a fixed (config, seed).

    python3 tools/output_digests.py [--keep DIR]

Runs the ``adwynn`` commands of the checkout this script sits in on the
acceptance suite's determinism config (criterion 9: Michaelis-Menten,
theta_bar = (1, 1), sigma = 0.1, n_max = 60, 3 replicates at
checkpoints 30 and 40, seed 31415):

- ``simulate``, and ``diagnose`` on its trajectory;
- ``mc`` with 1 and with 2 workers, and with 1 replicate;
- ``mc`` at checkpoints (n_start, 30, 40), n_start being the starting
  design size of the ``simulate`` run: its statistics come from the
  loop's fit at the starting design, at a stage below the run's last
  and at the last;
- ``mc`` under ``non_ah`` noise (no limiting sigma), with 3 replicates
  and with 1;
- ``mc`` for the single-parameter exponential (p = 1) at theta_bar = 1
  and for the quadratic ``polynomial`` (p = 3) at theta_bar =
  (0.5, -1, 0.8), both at sigma = 0.1, so that the chi-square statistics
  take an odd number of degrees of freedom;
- ``oracle`` for Michaelis-Menten at theta = (1, 1), for exponential
  decay at theta = (1.2, 0.9), and for the single-parameter exponential
  at theta = 1;
- ``simulate`` for the quadratic ``polynomial`` (p = 3) at
  theta_bar = (0.5, -1, 0.8), sigma = 0.1, n_max = 60, on the default
  grid and on a 100-point grid, where the starting design's first p
  points come from scoring all C(100, 3) point triples;
- ``oracle`` for Michaelis-Menten at theta = (1.983492724500072,
  0.9554027985388369) with ``--tol 0``, where the exchange stops short (exit 1);
- ``simulate`` for Michaelis-Menten on x in [0, 3] with theta2 in [0, 3],
  at theta_bar = (1, 0.02), sigma = 0.1, n_max = 300 and seed 0: at
  theta2 = 0 the regressor at x = 0 is 0/0, so the run stops with exit 1
  and writes no trajectory;
- three scripted ``session`` runs answered with zero-noise responses at
  theta_bar: one complete, one that sends QUIT after 5 adaptive
  observations, and one that sends QUIT after one starting observation.
- two bad inputs, which must exit 2 and write nothing: ``simulate``
  with ``$.noise.sigma`` set to ``true``, and ``diagnose`` on a copy of
  the ``simulate`` trajectory whose ``design_space.lower`` is ``["0.1"]``.

Each output file and each session's stdout gets a line
``<sha256>  <name>``, and each command a line ``exit <code>  <run>``.
Running the script in two checkouts and diffing the outputs shows
whether a change keeps every output byte-identical.  With ``--keep DIR``
the output files, and each session's stdout as ``<run>_stdout.txt``,
are also copied to DIR, so that ``tools/compare_outputs.py`` can compare
two checkouts' outputs by value where their digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = {
    "model": {"name": "michaelis_menten"},
    "theta_bar": [1.0, 1.0],
    "noise": {"variant": "iid_gaussian", "sigma": 0.1},
    "wynn": {"n_max": 60},
    "mc": {"replicates": 3, "checkpoints": [30, 40], "workers": 1},
    "seed": 31415,
}
NON_AH_NOISE = {"variant": "non_ah", "sigma_odd": 0.05, "sigma_even": 0.1}
EXPDECAY = {"model": {"name": "exponential_decay"}, "theta_bar": [1.2, 0.9]}
EXP1 = {"model": {"name": "one_param_exponential"}, "theta_bar": [1.0]}
QUADRATIC = {"model": {"name": "polynomial", "params": {"degree": 2}},
             "theta_bar": [0.5, -1.0, 0.8]}
QUADRATIC_100 = {**QUADRATIC, "model": {"name": "polynomial",
                                        "params": {"degree": 2, "grid_resolution": 100}}}
MM_CYCLE = {"oracle": {"theta": [1.983492724500072, 0.9554027985388369]}}
MM_CORNER = {"model": {"name": "michaelis_menten",
                       "params": {"x_bounds": [0.0, 3.0],
                                  "theta_bounds": [[0.2, 3.0], [0.0, 3.0]]}},
             "theta_bar": [1.0, 0.02], "wynn": {"n_max": 300}, "seed": 0}
QUIT_AFTER_ADAPTIVE = 5


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _adwynn(args: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "adwynn.cli", *args], env=_env(), **kwargs)


def _mu(x: float) -> float:
    t1, t2 = CONFIG["theta_bar"]
    return t1 * x / (t2 + x)


def _session(cfg: Path, prefix: str, quit_when) -> tuple[int, bytes]:
    """Answer every SUGGEST with the noiseless response until ``quit_when``
    (observations so far, estimates seen) says to send QUIT."""
    proc = _adwynn(["session", "--config", str(cfg), "--prefix", prefix],
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    transcript = []
    observed = estimates = 0
    for line in proc.stdout:
        transcript.append(line)
        if line.startswith(b"ESTIMATE"):
            estimates += 1
        elif line.startswith(b"SUGGEST"):
            if quit_when(observed, estimates):
                proc.stdin.write(b"QUIT\n")
            else:
                proc.stdin.write(b"OBSERVE %r\n" % _mu(float(line.split()[2])))
                observed += 1
            proc.stdin.flush()
    proc.stdin.close()
    return proc.wait(), b"".join(transcript)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sha256 digests of every adwynn output")
    parser.add_argument("--keep", metavar="DIR", help="also copy the outputs into DIR")
    args = parser.parse_args(argv)
    lines = []
    transcripts = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cfg = out / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "output": {"dir": str(out), "prefix": "x"}}))
        configs = [cfg]

        def variant(name: str, **overrides) -> Path:
            path = out / f"cfg_{name}.json"
            path.write_text(json.dumps({**json.loads(cfg.read_text()), **overrides}))
            configs.append(path)
            return path

        cfg_non_ah = variant("non_ah", noise=NON_AH_NOISE)
        cfg_exp1 = variant("exp1", **EXP1)
        cfg_quadratic = variant("quadratic", **QUADRATIC)

        def run(name: str, args: list[str]) -> None:
            rc = _adwynn(args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).wait()
            lines.append(f"exit {rc}  {name}")

        run("simulate", ["simulate", "--config", str(cfg), "--prefix", "simulate"])
        run("diagnose", ["diagnose", str(out / "simulate_trajectory.json"), "--d", "0.3",
                         "--cell-diameter", "0.1", "--out-dir", str(out), "--prefix", "diagnose"])
        for workers in (1, 2):
            run(f"mc_w{workers}", ["mc", "--config", str(cfg), "--prefix", f"mc_w{workers}",
                                   "--workers", str(workers)])
        run("mc_r1", ["mc", "--config", str(cfg), "--prefix", "mc_r1", "--replicates", "1"])
        n_start = json.loads((out / "simulate_trajectory.json").read_text())["n_start"]
        cfg_stages = variant(
            "stages", mc={**CONFIG["mc"], "checkpoints": [n_start, *CONFIG["mc"]["checkpoints"]]}
        )
        run("mc_stages", ["mc", "--config", str(cfg_stages), "--prefix", "mc_stages"])
        run("mc_non_ah", ["mc", "--config", str(cfg_non_ah), "--prefix", "mc_non_ah"])
        run("mc_non_ah_r1", ["mc", "--config", str(cfg_non_ah), "--prefix", "mc_non_ah_r1",
                             "--replicates", "1"])
        run("mc_exp1", ["mc", "--config", str(cfg_exp1), "--prefix", "mc_exp1"])
        run("mc_quadratic", ["mc", "--config", str(cfg_quadratic), "--prefix", "mc_quadratic"])
        run("oracle", ["oracle", "--config", str(cfg), "--prefix", "oracle"])
        run("oracle_expdecay", ["oracle", "--config", str(variant("expdecay", **EXPDECAY)),
                                "--prefix", "oracle_expdecay"])
        run("oracle_exp1", ["oracle", "--config", str(cfg_exp1), "--prefix", "oracle_exp1"])
        run("simulate_quadratic", ["simulate", "--config", str(cfg_quadratic),
                                   "--prefix", "simulate_quadratic"])
        run("simulate_quadratic_100", ["simulate", "--config",
                                       str(variant("quadratic_100", **QUADRATIC_100)),
                                       "--prefix", "simulate_quadratic_100"])
        run("oracle_mm_tol0", ["oracle", "--config", str(variant("mm_cycle", **MM_CYCLE)),
                               "--prefix", "oracle_mm_tol0", "--tol", "0"])
        run("simulate_corner", ["simulate", "--config", str(variant("mm_corner", **MM_CORNER)),
                                "--prefix", "simulate_corner"])
        sessions = {
            "session_complete": lambda obs, est: False,
            # one ESTIMATE after the starting design, then one per adaptive step
            "session_quit_loop": lambda obs, est: est > QUIT_AFTER_ADAPTIVE,
            "session_quit_start": lambda obs, est: obs >= 1,
        }
        for name, quit_when in sessions.items():
            rc, stdout = _session(cfg, name, quit_when)
            transcripts[name] = stdout
            lines.append(f"exit {rc}  {name}")
            lines.append(f"{hashlib.sha256(stdout).hexdigest()}  {name}/stdout")
        with tempfile.TemporaryDirectory() as scrap:  # what a bad input writes is not digested
            bad_noise = {**CONFIG["noise"], "sigma": True}
            cfg_sigma_true = variant("sigma_true", noise=bad_noise)
            run("simulate_sigma_true",
                ["simulate", "--config", str(cfg_sigma_true), "--out-dir", scrap])
            bad_file = Path(scrap) / "lower_string_trajectory.json"
            trajectory = json.loads((out / "simulate_trajectory.json").read_text())
            trajectory["design_space"]["lower"] = ["0.1"]
            bad_file.write_text(json.dumps(trajectory))
            run("diagnose_lower_string", ["diagnose", str(bad_file), "--d", "0.3",
                                          "--cell-diameter", "0.1", "--out-dir", scrap])
        for path in sorted(out.iterdir()):
            if path not in configs:
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
        if args.keep:
            keep = Path(args.keep)
            keep.mkdir(parents=True, exist_ok=True)
            for path in out.iterdir():
                if path not in configs:
                    shutil.copyfile(path, keep / path.name)
            for name, stdout in transcripts.items():
                (keep / f"{name}_stdout.txt").write_bytes(stdout)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
