"""Command-line interface.

One JSON configuration document drives every command; selected flags
override individual scalars.  Exit codes: 0 success, 1 runtime or
convergence failure, 2 usage or configuration error.  All outputs are
deterministic given (config, seed): dictionaries are built in fixed
order and floats are written with shortest round-trip formatting.

The interactive session speaks a line protocol on stdin/stdout::

    SUGGEST <n> <x components>     (artifact -> user)
    OBSERVE <decimal>              (user -> artifact)
    ESTIMATE <theta components>    (artifact -> user, after each refit)
    QUIT                           (user -> artifact, finalize)
    ERR <reason>                   (artifact -> user, then re-prompt)

A file of OBSERVE lines therefore doubles as the replay format.  Each
ESTIMATE is written in the same write as the next SUGGEST, and the last
one before the command returns, so each step wakes the user once.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .adaptive import (
    EndRun,
    ReplaySource,
    Scenario,
    Trajectory,
    WynnConfig,
    run,
    simulate_trajectory,
)
from .design import equivalence_gap, info_matrix, pd_inverse_logdet, solve_locally_d_optimal
from .errors import AdwynnError, ConfigError, DomainError
from .estimator import LSAdaptiveEstimator
from .model import ModelBundle, builtin_bundle, check_value, read_value
from .noise import ErrorSpec, make_error_spec

JSON_KW = {"indent": 2, "ensure_ascii": True}


# --------------------------------------------------------------------------
# Configuration loading
# --------------------------------------------------------------------------


def _at_least(value, floor, where: str):
    """``value`` if it is finite and at least ``floor`` (NaN is not);
    else ConfigError naming ``where``."""
    if not floor <= value < math.inf:
        raise ConfigError(f"{where} must be finite and >= {floor}, got {value!r}")
    return value


def _count(raw: dict, path: str, floor: int, default=None) -> Optional[int]:
    """The integer at ``path``, at least ``floor``, or ``default`` if absent."""
    value = read_value(raw, path, int, default)
    return value if value is None else _at_least(value, floor, path)


def _section(raw: dict, path: str, keys) -> None:
    """Check that the object at ``path``, if there is one, holds only ``keys``."""
    for key in read_value(raw, path, dict, {}):
        if key not in keys:
            raise ConfigError(f"unknown key {path}.{key}")


_TOP_KEYS = (
    "model", "theta_bar", "noise", "source", "wynn", "fit", "oracle", "mc", "seed", "output",
)


class RunConfig:
    """Validated configuration; see docs/formats.md for the schema.  Every
    value is read by ``read_value``, whose DomainError, naming the key,
    becomes a ConfigError here."""

    def __init__(self, raw: dict):
        try:
            self._load(raw)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    def _load(self, raw: dict) -> None:
        _section(raw, "$", _TOP_KEYS)
        _section(raw, "$.model", ("name", "params"))
        name = read_value(raw, "$.model.name", str)
        params = read_value(raw, "$.model.params", dict, {})
        try:
            self.bundle: ModelBundle = builtin_bundle(name, **params)
        except AdwynnError as exc:
            raise ConfigError(f"$.model: {exc}") from None
        p = self.bundle.model.p

        self.seed = read_value(raw, "$.seed", int, 0)

        _section(raw, "$.fit", ())  # every key of $.fit is retired: the fit's settings are fixed
        _section(raw, "$.wynn", ("n_max",))
        self.n_max = read_value(raw, "$.wynn.n_max", int, None)

        self.theta_bar = read_value(raw, "$.theta_bar", (p,), None)
        if self.theta_bar is not None and not self.bundle.parameter_space.contains(self.theta_bar):
            raise ConfigError("$.theta_bar lies outside the parameter space")

        self.noise: Optional[ErrorSpec] = None
        noise_cfg = read_value(raw, "$.noise", dict, None)
        if noise_cfg is not None:
            variant = read_value(raw, "$.noise.variant", str)
            params = {k: v for k, v in noise_cfg.items() if k != "variant"}
            try:
                self.noise = make_error_spec(variant, **params)
            except AdwynnError as exc:
                raise ConfigError(f"$.noise: {exc}") from None

        _section(raw, "$.source", ("kind", "replay_file"))
        self.source_kind = read_value(raw, "$.source.kind", str, "simulated")
        if self.source_kind not in ("simulated", "replay"):
            raise ConfigError("$.source.kind must be 'simulated' or 'replay'")
        self.replay_file = read_value(raw, "$.source.replay_file", str, None)

        _section(raw, "$.oracle", ("theta", "tol"))
        self.oracle_theta = read_value(raw, "$.oracle.theta", (p,), None)
        self.oracle_tol = _at_least(read_value(raw, "$.oracle.tol", float, 1e-5), 0, "$.oracle.tol")

        _section(raw, "$.mc", ("replicates", "checkpoints", "workers", "keep_paths"))
        self.mc_replicates = _count(raw, "$.mc.replicates", 1)
        self.mc_workers = _count(raw, "$.mc.workers", 1)
        self.mc_keep_paths = _count(raw, "$.mc.keep_paths", 0, default=0)
        self.mc_checkpoints = read_value(raw, "$.mc.checkpoints", list, None)
        if self.mc_checkpoints is not None:
            for i, c in enumerate(self.mc_checkpoints):
                where = f"$.mc.checkpoints[{i}]"
                _at_least(check_value(c, where, int), 1, where)
            if not self.mc_checkpoints or len(set(self.mc_checkpoints)) < len(self.mc_checkpoints):
                raise ConfigError("$.mc.checkpoints must be a nonempty list of distinct stages, "
                                  f"got {self.mc_checkpoints}")

        _section(raw, "$.output", ("dir", "prefix"))
        self.out_dir = read_value(raw, "$.output.dir", str, ".")
        self.prefix = read_value(raw, "$.output.prefix", str, "adwynn")

    def wynn_config(self, n_max_override: Optional[int] = None) -> WynnConfig:
        if n_max_override is not None:
            return WynnConfig(n_max=_at_least(n_max_override, 1, "--n-max"))
        if self.n_max is None:
            raise ConfigError("missing required key $.wynn.n_max")
        try:
            return WynnConfig(n_max=self.n_max)
        except DomainError as exc:
            raise ConfigError(f"$.wynn: {exc}") from None

    def scenario(self, n_max_override: Optional[int] = None) -> Scenario:
        if self.theta_bar is None:
            raise ConfigError("missing required key $.theta_bar (simulation mode)")
        if self.noise is None:
            raise ConfigError("missing required key $.noise (simulation mode)")
        return Scenario(
            model=self.bundle.model,
            design_space=self.bundle.design_space,
            parameter_space=self.bundle.parameter_space,
            theta_bar=self.theta_bar,
            noise=self.noise,
            config=self.wynn_config(n_max_override),
        )


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal beyond the interpreter's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return RunConfig(raw)


# --------------------------------------------------------------------------
# Output writers
# --------------------------------------------------------------------------


def _out_path(cfg: RunConfig, args, suffix: str) -> Path:
    out_dir = Path(getattr(args, "out_dir", None) or cfg.out_dir)
    prefix = getattr(args, "prefix", None) or cfg.prefix
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{prefix}_{suffix}"


def _nonfinite_to_null(obj):
    """obj with every non-finite float replaced by None, so it encodes as strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nonfinite_to_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_to_null(v) for v in obj]
    return obj


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_nonfinite_to_null(obj), fh, allow_nan=False, **JSON_KW)
        fh.write("\n")


def write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_files(trajectory: Trajectory, cfg: RunConfig, args) -> tuple[Path, Path]:
    jpath = _out_path(cfg, args, "trajectory.json")
    cpath = _out_path(cfg, args, "trajectory.csv")
    write_json(jpath, trajectory.to_jsonable())
    header, rows = trajectory.csv_rows()
    write_csv(cpath, header, rows)
    return jpath, cpath


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    if cfg.source_kind == "replay":
        if not cfg.replay_file:
            raise ConfigError("$.source.replay_file is required for replay runs")
        source = ReplaySource(read_replay_file(cfg.replay_file))
        b = cfg.bundle
        wynn = cfg.wynn_config(args.n_max)
        trajectory = run(b.model, b.design_space, b.parameter_space, wynn, source, seed)
    else:
        trajectory = simulate_trajectory(cfg.scenario(args.n_max), seed)
    jpath, cpath = write_trajectory_files(trajectory, cfg, args)
    print(f"wrote {jpath} and {cpath}")
    return 0


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    theta = cfg.oracle_theta if cfg.oracle_theta is not None else cfg.theta_bar
    if theta is None:
        raise ConfigError("oracle needs $.oracle.theta or $.theta_bar")
    tol = _at_least(args.tol, 0, "--tol") if args.tol is not None else cfg.oracle_tol
    grid = cfg.bundle.design_space.grid()
    design = solve_locally_d_optimal(cfg.bundle.model, theta, grid, tol=tol)
    gap = equivalence_gap(design, theta, cfg.bundle.model, grid)
    obj = design.to_jsonable()
    obj.update(
        {
            "schema": "adwynn.design.v1",
            "model": cfg.bundle.model.name,
            "theta": [float(v) for v in theta],
            "equivalence_gap": gap,
            "logdet": pd_inverse_logdet(info_matrix(design, theta, cfg.bundle.model))[1],
            "tol": tol,
        }
    )
    path = _out_path(cfg, args, "design.json")
    write_json(path, obj)
    print(f"wrote {path}")
    return 0


def cmd_mc(args) -> int:
    from . import analysis  # imported by the commands that use it, so a session skips it

    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    replicates = cfg.mc_replicates
    if args.replicates is not None:
        replicates = _at_least(args.replicates, 1, "--replicates")
    if replicates is None:
        raise ConfigError("missing required key $.mc.replicates")
    checkpoints, where = cfg.mc_checkpoints, "$.mc.checkpoints"
    if checkpoints is None:
        if cfg.n_max is None:
            raise ConfigError("missing $.mc.checkpoints (or $.wynn.n_max)")
        checkpoints, where = [cfg.n_max], "$.wynn.n_max"
    workers = cfg.mc_workers
    if args.workers is not None:
        workers = _at_least(args.workers, 1, "--workers")
    if workers is None:
        workers = os.cpu_count() or 1
    scenario = cfg.scenario(max(checkpoints))
    try:
        report = analysis.run_study(scenario, replicates, checkpoints, int(seed),
                                    workers=workers, keep_paths=cfg.mc_keep_paths)
    except ConfigError as exc:  # a checkpoint below the starting design
        raise ConfigError(f"{where}: {exc}") from None
    jpath = _out_path(cfg, args, "mc.json")
    cpath = _out_path(cfg, args, "mc.csv")
    write_json(jpath, report.to_jsonable())
    header, rows = report.csv_rows()
    write_csv(cpath, header, rows)
    print(f"wrote {jpath} and {cpath}")
    return 0


def cmd_diagnose(args) -> int:
    from . import analysis

    for flag, value in (
        ("--d", args.d), ("--cell-diameter", args.cell_diameter), ("--epsilon", args.epsilon)
    ):
        if not 0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and positive, got {value!r}")
    try:
        trajectory = Trajectory.from_jsonable(json.loads(Path(args.trajectory).read_text()))
    except (OSError, ValueError, DomainError) as exc:
        raise ConfigError(f"cannot parse trajectory file {args.trajectory}: {exc}") from None
    if trajectory.n < trajectory.p:
        raise ConfigError(
            f"trajectory file {args.trajectory} holds {trajectory.n} observations, "
            f"fewer than p = {trajectory.p}"
        )
    if args.n is not None and not trajectory.p <= args.n <= trajectory.n:
        raise ConfigError(
            f"--n must lie between p = {trajectory.p} and the trajectory length "
            f"{trajectory.n}, got {args.n}"
        )
    n = args.n if args.n is not None else trajectory.n
    diag = analysis.extract_clusters(trajectory, n, args.cell_diameter)
    curve = analysis.window_mass_curve(trajectory, args.d, n_from=1)
    p = diag.requested
    bound = 1.0 / p + args.epsilon
    # first stage after which the mass bound holds for good
    violations = [m for m, v in curve.items() if v > bound]
    n0 = (max(violations) + 1) if violations else min(curve)
    if violations and max(violations) == max(curve):
        n0 = None  # still violated at the final stage
    diag = dataclasses.replace(diag, window_diameter=args.d, window_masses=curve, n0=n0)
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.prefix or 'adwynn'}_diagnostics.json"
    write_json(path, diag.to_jsonable())
    print(f"wrote {path}")
    return 0


def _parse_observe(line: str) -> float:
    """The response on an 'OBSERVE <decimal>' line; ValueError says what is wrong.
    The sum of squares of responses beyond 1e150 in magnitude would overflow."""
    parts = line.split()
    if not parts:
        raise ValueError("empty line")
    if parts[0] != "OBSERVE" or len(parts) != 2:
        raise ValueError(f"expected 'OBSERVE <decimal>' or 'QUIT', got {parts[0]!r}")
    try:
        y = float(parts[1])
    except ValueError:
        raise ValueError(f"not a decimal: {parts[1]!r}") from None
    if not abs(y) <= 1e150:
        raise ValueError("observation must be finite and at most 1e150 in magnitude")
    return y


class SessionSource:
    """Interactive response source speaking the line protocol.  A held
    line is written with the next emitted one, in one write and flush."""

    def __init__(self, fin, fout):
        self.fin = fin
        self.fout = fout
        self._held = ""

    def hold(self, line: str) -> None:
        self._held += line + "\n"

    def _emit(self, line: str) -> None:
        self.hold(line)
        self.flush()

    def flush(self) -> None:
        """Write the held lines, if any."""
        if self._held:
            self.fout.write(self._held)
            self.fout.flush()
            self._held = ""

    def observe(self, x, step: int) -> float:
        prompt = "SUGGEST " + str(step) + " " + " ".join(repr(float(v)) for v in np.atleast_1d(x))
        self._emit(prompt)
        while True:
            line = self.fin.readline()
            if line == "" or line.strip() == "QUIT":  # EOF or QUIT
                raise EndRun
            try:
                return _parse_observe(line)
            except ValueError as exc:
                self.hold(f"ERR {exc}")
                self._emit(prompt)


class _AnnouncingEstimator(LSAdaptiveEstimator):
    """Least squares that holds an ESTIMATE line after each refit, for the
    source to write with its next line."""

    def __init__(self, model, space, source: SessionSource):
        super().__init__(model, space)
        self._source = source

    def estimate(self):
        fit = super().estimate()
        self._source.hold("ESTIMATE " + " ".join(repr(float(v)) for v in fit.theta_hat))
        return fit


def cmd_session(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    config = cfg.wynn_config(args.n_max)
    b = cfg.bundle
    source = SessionSource(sys.stdin, sys.stdout)
    estimator = _AnnouncingEstimator(b.model, b.parameter_space, source)
    try:
        trajectory = run(b.model, b.design_space, b.parameter_space, config, source, seed,
                         estimator)
    finally:
        source.flush()  # the last ESTIMATE
    jpath, cpath = write_trajectory_files(trajectory, cfg, args)
    print(f"wrote {jpath} and {cpath}", file=sys.stderr)
    return 0 if trajectory.n == config.n_max else 1


def read_replay_file(path: str) -> list[float]:
    """Parse a replay file: one OBSERVE line per response."""
    values = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read replay file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.split()[0] == "QUIT":
            break
        try:
            values.append(_parse_observe(line))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adwynn",
        description="Sequential adaptive D-optimal design: simulate, verify, interact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None, help="override $.seed")
        p.add_argument("--out-dir", default=None, help="override $.output.dir")
        p.add_argument("--prefix", default=None, help="override $.output.prefix")

    p_sim = sub.add_parser("simulate", help="run one adaptive trajectory")
    common(p_sim)
    p_sim.add_argument("--n-max", type=int, default=None, help="override $.wynn.n_max")
    p_sim.set_defaults(func=cmd_simulate)

    p_oracle = sub.add_parser("oracle", help="solve the locally D-optimal design")
    common(p_oracle)
    p_oracle.add_argument("--tol", type=float, default=None, help="override $.oracle.tol")
    p_oracle.set_defaults(func=cmd_oracle)

    p_mc = sub.add_parser("mc", help="Monte Carlo consistency/normality study")
    common(p_mc)
    p_mc.add_argument("--replicates", type=int, default=None, help="override $.mc.replicates")
    p_mc.add_argument("--workers", type=int, default=None, help="override $.mc.workers")
    p_mc.set_defaults(func=cmd_mc)

    p_diag = sub.add_parser("diagnose", help="design-mass diagnostics of a trajectory")
    p_diag.add_argument("trajectory", help="trajectory JSON file")
    p_diag.add_argument("--d", type=float, required=True, help="window diameter")
    p_diag.add_argument("--cell-diameter", type=float, required=True)
    p_diag.add_argument("--epsilon", type=float, default=0.1)
    p_diag.add_argument("--n", type=int, default=None, help="stage (default: final)")
    p_diag.add_argument("--out-dir", default=None)
    p_diag.add_argument("--prefix", default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sess = sub.add_parser("session", help="interactive suggest/observe loop")
    common(p_sess)
    p_sess.add_argument("--n-max", type=int, default=None, help="override $.wynn.n_max")
    p_sess.set_defaults(func=cmd_session)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a model evaluated where it is not finite (0/0, say) is reported once,
        # by the checks that name the point, not by numpy's warnings as well
        with np.errstate(divide="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AdwynnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a grid_resolution too large to allocate the scan grid
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
