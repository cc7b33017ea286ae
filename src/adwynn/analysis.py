"""Monte Carlo verification and design-mass diagnostics.

``run_study`` simulates independent adaptive runs and summarizes them
at checkpoints:

- quantiles of the estimation error; strong consistency shows up as
  stochastically shrinking error;
- the standardized error
  T_n = sqrt(n) / sigma * M^{1/2}(design_n, theta_hat) (theta_hat - theta_bar),
  compared against the standard normal coordinate-wise, its squared
  norm against chi-square, and 95% ellipsoid coverage.  The normality
  result assumes an interior true parameter and noise whose conditional
  variance settles to a limit; the study computes these statistics
  without checking either hypothesis, and with no limiting variance it
  reports only the plug-in standardization.

The design-mass diagnostics quantify how the adaptive point sequence
spreads: no small window keeps more than 1/p + eps of the mass past a
burn-in, and the mass eventually splits into p well-separated clusters.
The probability machinery (normal and chi-square CDFs, KS distances)
is self-contained so reports carry raw distances, not table lookups.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .adaptive import Scenario, Trajectory, simulate_trajectory, starting_design
from .design import (
    Design,
    d_efficiency,
    info_matrix,
    information,
    pd_inverse_logdet,
    regressor_stack,
    solve_locally_d_optimal,
)
from .errors import (
    ConfigError, DomainError, SingularMatrixError, StudyError, require_positive_finite
)
from .model import DesignSpace, FiniteSet, ModelSpec, ParameterSpace
from .noise import make_rng, mix_seed

Array = np.ndarray

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
CHI2_QUANTILE_TOL = 1e-12  # relative, of chi2_quantile's bisection
REFERENCE_TOL = 1e-5  # vertex-exchange tolerance of run_study's reference design
MAX_FAILURE_FRACTION = 0.01  # share of failed replicates above which run_study raises

# MCReport's per-checkpoint statistics, in report order
CHECKPOINT_STATS = (
    "error_quantiles",
    "error_samples",
    "t_known",
    "t_plugin",
    "ks_known",
    "ks_plugin",
    "ks_mstar",
    "ks_chi2",
    "coverage95",
    "defficiency_quantiles",
    "defficiency_samples",
)


# element budget of one block of the mass diagnostics' temporary arrays
_BLOCK_CELLS = 1 << 14


# --------------------------------------------------------------------------
# Probability utilities
# --------------------------------------------------------------------------


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def chi2_cdf(dim: int, x: float) -> float:
    """CDF of the chi-square distribution with an integer ``dim`` >= 1
    degrees of freedom, in closed form: F_1(x) = erf(sqrt(x/2)),
    F_2(x) = 1 - exp(-x/2) and
    F_{k+2}(x) = F_k(x) - exp(-x/2) (x/2)^(k/2) / Gamma(k/2 + 1).
    """
    if dim < 1 or dim != int(dim):
        raise DomainError(f"chi-square degrees of freedom must be an integer >= 1, got {dim!r}")
    if x <= 0:
        return 0.0
    h = 0.5 * x
    if dim % 2:
        k, cdf, term = 1, math.erf(math.sqrt(h)), 2.0 * math.exp(-h) * math.sqrt(h / math.pi)
    else:
        k, cdf, term = 2, -math.expm1(-h), math.exp(-h) * h
    for j in range(k, dim, 2):  # F_j to F_{j+2}
        cdf -= term
        term *= h / (0.5 * j + 1.0)
    return max(cdf, 0.0)  # near x = 0 the difference can round below zero


def chi2_quantile(dim: int, level: float) -> float:
    """Quantile by bisection on the implemented CDF, to CHI2_QUANTILE_TOL relative."""
    if not 0.0 < level < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    lo, hi = 0.0, float(dim)
    while chi2_cdf(dim, hi) < level:
        hi *= 2.0
    while hi - lo > CHI2_QUANTILE_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(dim, mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ks_distance(sample: Array, cdf: Callable[[float], float]) -> float:
    """Exact sup distance between the empirical CDF and ``cdf``."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    if n == 0:
        raise DomainError("KS distance needs a nonempty sample")
    F = np.array([cdf(v) for v in s])
    upper = np.arange(1, n + 1) / n - F
    lower = F - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def matrix_sqrt(M: Array) -> Array:
    """Unique nonnegative-definite symmetric square root."""
    M = np.asarray(M, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(M)
    if eigvals[0] < -1e-10:
        raise SingularMatrixError("matrix square root needs a PSD matrix", float(eigvals[0]))
    root = np.sqrt(np.clip(eigvals, 0.0, None))
    return (eigvecs * root) @ eigvecs.T


def normality_stat(root: Array, delta: Array, sigma: float, n: int) -> Array:
    """Standardized estimation error sqrt(n)/sigma * root delta, with root
    = M^{1/2} (``matrix_sqrt``) and delta = theta_hat - theta_bar."""
    require_positive_finite("sigma", sigma)
    return (math.sqrt(n) / sigma) * (root @ delta)


# --------------------------------------------------------------------------
# Regressor-range constants and window calibration
# --------------------------------------------------------------------------


def sample_unit_directions(p: int, count: int, seed: int) -> Array:
    """Unit vectors: the signed coordinate axes plus seeded random ones."""
    axes = np.vstack([np.eye(p), -np.eye(p)])
    if p == 1 or count <= 2 * p:
        return axes[: max(count, 2)]
    rng = make_rng(seed)
    extra = rng.standard_normal((count - 2 * p, p))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.vstack([axes, extra])


def _gamma_kappa(F_all: Array, direction_sample: Array) -> tuple[float, float]:
    """Sampled regressor range constants of a (thetas, m, p) regressor stack:
    gamma, the largest regressor norm, and kappa, the least over directions
    and thetas of the best squared projection by some grid point (0 flags a
    spanning failure)."""
    directions = np.atleast_2d(np.asarray(direction_sample, dtype=float))
    if directions.shape[0] == 0:
        raise DomainError("direction sample must be nonempty")
    gamma = float(np.sqrt((F_all**2).sum(axis=-1)).max())
    proj = np.einsum("smp,dp->smd", F_all, directions) ** 2
    kappa = float(proj.max(axis=1).min())
    return gamma, kappa


@dataclass(frozen=True)
class WindowCalibration:
    """Numerically calibrated window diameter for the mass-bound check."""

    d: float
    eta: float
    threshold: float
    gamma: float
    kappa: float


def calibrate_window_diameter(
    model: ModelSpec,
    space: ParameterSpace,
    grid: Array,
    theta_sample: Array,
    epsilon: float,
) -> WindowCalibration:
    """Largest window diameter certified by the sampled regressor modulus.

    The selection rule never revisits a window of diameter d when the
    regressor varies by at most eta*kappa/gamma inside it and the
    window already holds slightly more than 1/p of the mass, with
    eta = 1 - (1 + p*epsilon/2)^(-1/2).  The returned d is 0.999 times
    the shortest distance between two grid points whose regressors,
    at some sampled parameter, lie more than that threshold apart; with
    no such pair it is the largest grid-pair distance.  Pairs are
    visited in ascending distance, in blocks, until one violates.
    """
    p = model.p
    if p < 2:
        raise DomainError("the window mass bound applies only for p >= 2")
    require_positive_finite("epsilon", epsilon)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    F = regressor_stack(model, grid, theta_sample)
    gamma, kappa = _gamma_kappa(F, sample_unit_directions(p, 2 * p + 32, seed=1))
    eta = 1.0 - 1.0 / math.sqrt(1.0 + p * epsilon / 2.0)
    threshold = eta * kappa / gamma

    a, b = np.triu_indices(grid.shape[0], 1)
    dist = np.sqrt(((grid[a] - grid[b]) ** 2).sum(axis=-1))
    order = np.argsort(dist, kind="stable")
    block = max(1, _BLOCK_CELLS // (F.shape[0] * F.shape[2]))
    d = float(dist.max(initial=0.0))
    for start in range(0, order.size, block):
        pairs = order[start : start + block]
        # the largest regressor distance over the sampled parameters
        fvar = np.sqrt(((F[:, a[pairs]] - F[:, b[pairs]]) ** 2).sum(axis=-1)).max(axis=0)
        violating = fvar > threshold
        if violating.any():
            d = 0.999 * float(dist[pairs[violating.argmax()]])
            break
    return WindowCalibration(d=d, eta=eta, threshold=threshold, gamma=gamma, kappa=kappa)


# --------------------------------------------------------------------------
# Window mass and cluster extraction
# --------------------------------------------------------------------------


def _window_masses(trajectory: Trajectory, d: float) -> Array:
    """Largest window mass at each stage of the trajectory, in one pass.

    One-dimensional regions use the intervals [v, v + d] anchored at the
    observed values v, each opening at that value's first observation;
    higher dimensions use balls of radius d/2 around the region's grid
    points.  Every window's count is a cumulative sum over the stages,
    taken in blocks that carry the running counts.
    """
    pts, n = trajectory.points, trajectory.n
    if pts.shape[1] == 1:
        centers, opens = np.unique(pts, axis=0, return_index=True)
    else:
        centers, opens = trajectory.design_space.grid(), None
    block = max(1, _BLOCK_CELLS // centers.size)
    running = np.zeros(centers.shape[0], dtype=np.int64)
    masses = np.empty(n)
    for lo in range(1, n + 1, block):
        stages = np.arange(lo, min(lo + block, n + 1))
        x = pts[stages - 1]
        if pts.shape[1] == 1:
            inside = (x >= centers.T) & (x <= centers.T + d)
        else:
            inside = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1) <= (d / 2.0) ** 2
        counts = np.cumsum(inside, axis=0) + running
        running = counts[-1].copy()
        if opens is not None:
            counts *= opens < stages[:, None]
        masses[stages - 1] = counts.max(axis=1) / stages
    return masses


def window_mass_curve(trajectory: Trajectory, d: float, n_from: int = 1) -> dict[int, float]:
    """Largest empirical mass held by any window of diameter <= d, at every
    stage n in [n_from, trajectory length], in one pass.

    One-dimensional regions use exact sliding intervals anchored at the
    observed points; higher dimensions scan balls of radius d/2 around
    the region's grid points.  The counts of every window are accumulated
    over the stages, so the curve costs O(n * windows) in all.  A d that is
    not finite and positive raises DomainError; an n_from past the
    trajectory gives {}.
    """
    require_positive_finite("window diameter d", d)
    n_from = max(1, n_from)
    masses = _window_masses(trajectory, d)[n_from - 1 :]
    return dict(zip(range(n_from, trajectory.n + 1), masses.tolist()))


@dataclass(frozen=True)
class ClusterInfo:
    cell_index: tuple[int, ...]
    mass: float
    count: int
    point_min: tuple[float, ...]
    point_max: tuple[float, ...]


@dataclass(frozen=True)
class MassDiagnostics:
    """Cluster structure of an empirical design, plus optional mass curve."""

    n: int
    cell_diameter: float
    window_diameter: float
    requested: int
    found: int
    clusters: tuple[ClusterInfo, ...]
    separations: tuple[float, ...]
    pi0: Optional[float]
    excluded_mass: float
    window_masses: Optional[dict[int, float]] = None
    n0: Optional[int] = None

    def to_jsonable(self) -> dict:
        return {
            "schema": "adwynn.mass_diagnostics.v1",
            "n": self.n,
            "cell_diameter": self.cell_diameter,
            "window_diameter": self.window_diameter,
            "requested_clusters": self.requested,
            "found_clusters": self.found,
            "clusters": [
                {
                    "cell_index": list(c.cell_index),
                    "mass": c.mass,
                    "count": c.count,
                    "point_min": list(c.point_min),
                    "point_max": list(c.point_max),
                }
                for c in self.clusters
            ],
            "separations": list(self.separations),
            "pi0": self.pi0,
            "excluded_mass": self.excluded_mass,
            "window_masses": None
            if self.window_masses is None
            else {str(k): v for k, v in sorted(self.window_masses.items())},
            "n0": self.n0,
        }


def _cell_index(space: DesignSpace, cell_diameter: float, points: Array) -> Array:
    """Cell of each point in a covering of the region by small cells.

    A box is cut into equal cells of diameter <= cell_diameter, and a
    point's index (one per axis) is truncated toward zero and clamped
    into the box; a finite set's cell is its nearest set point.
    """
    if isinstance(space, FiniteSet):
        d2 = ((space.points[None, :, :] - points[:, None, :]) ** 2).sum(axis=-1)
        return d2.argmin(axis=1)[:, None]
    k = space.dimension
    width_target = cell_diameter / math.sqrt(k)
    counts = np.array([
        max(1, int(math.ceil((space.upper[j] - space.lower[j]) / width_target)))
        for j in range(k)
    ])
    widths = (space.upper - space.lower) / counts
    idx = np.trunc((points - space.lower) / widths)
    return np.clip(idx, 0, counts - 1).astype(np.int64)


def extract_clusters(trajectory: Trajectory, n: int, cell_diameter: float) -> MassDiagnostics:
    """Greedy extraction of p separated mass clusters at stage n.

    Cover the region by cells of diameter <= cell_diameter, repeatedly
    take the cell holding the most not-yet-excluded mass (the
    lexicographically first such cell on ties), then exclude everything
    within cell_diameter of the points taken.  Separations are reported
    as achieved point-set distances.  Finding fewer than p clusters is
    reported, not raised; it usually means n is too small or the cells
    too large.  An n outside [p, trajectory length] or a cell_diameter
    that is not finite and positive raises DomainError.
    """
    p = trajectory.p
    if n < p:
        raise DomainError("need at least p observations to extract p clusters")
    if n > trajectory.n:
        raise DomainError(f"stage n = {n} exceeds the trajectory length {trajectory.n}")
    require_positive_finite("cell_diameter", cell_diameter)
    pts = trajectory.points[:n]
    space = trajectory.design_space
    # points repeat a few grid points: work on each distinct point once
    uniq, inverse, mult = np.unique(pts, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    # np.unique sorts the cells lexicographically, so argmax breaks ties to the first
    cells, cell_of = np.unique(
        _cell_index(space, cell_diameter, uniq), axis=0, return_inverse=True
    )
    cell_of = cell_of.reshape(-1)

    live = np.ones(uniq.shape[0], dtype=bool)  # distinct points not yet excluded
    clusters: list[ClusterInfo] = []
    member_sets: list[Array] = []
    for _ in range(p):
        if not live.any():
            break
        best = int(np.bincount(cell_of[live], weights=mult[live]).argmax())
        members = live & (cell_of == best)
        count = int(mult[members].sum())
        # extremes over the points themselves: np.unique keeps one sign of a zero
        member_pts = pts[members[inverse]]
        member_uniq = uniq[members]
        clusters.append(
            ClusterInfo(
                cell_index=tuple(int(v) for v in cells[best]),
                mass=count / n,
                count=count,
                point_min=tuple(float(v) for v in member_pts.min(axis=0)),
                point_max=tuple(float(v) for v in member_pts.max(axis=0)),
            )
        )
        member_sets.append(member_uniq)
        d2 = ((uniq[:, None, :] - member_uniq[None, :, :]) ** 2).sum(axis=-1).min(axis=1)
        live &= ~(d2 <= cell_diameter**2)

    separations = []
    for i in range(len(member_sets)):
        for j in range(i + 1, len(member_sets)):
            d2 = ((member_sets[i][:, None, :] - member_sets[j][None, :, :]) ** 2).sum(axis=-1)
            separations.append(float(np.sqrt(d2.min())))
    excluded = n - int(mult[live].sum())
    return MassDiagnostics(
        n=n,
        cell_diameter=cell_diameter,
        window_diameter=3.0 * cell_diameter,
        requested=p,
        found=len(clusters),
        clusters=tuple(clusters),
        separations=tuple(separations),
        pi0=min((c.mass for c in clusters), default=None) if len(clusters) >= p else None,
        excluded_mass=float(excluded) / n - sum(c.mass for c in clusters),
    )


# --------------------------------------------------------------------------
# Monte Carlo engine
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MCReport:
    """Replicate-level summary of a Monte Carlo study."""

    replicates: int
    checkpoints: tuple[int, ...]
    master_seed: int
    quantile_levels: tuple[float, ...]
    error_samples: dict[int, Array]
    error_quantiles: dict[int, tuple[float, ...]]
    t_known: dict[int, Optional[Array]]
    t_plugin: dict[int, Array]
    ks_known: dict[int, Optional[tuple[float, ...]]]
    ks_plugin: dict[int, tuple[float, ...]]
    ks_mstar: dict[int, Optional[tuple[float, ...]]]
    ks_chi2: dict[int, Optional[float]]
    coverage95: dict[int, Optional[float]]
    defficiency_samples: dict[int, Array]
    defficiency_quantiles: dict[int, tuple[float, ...]]
    failed: tuple[int, ...]
    failure_messages: tuple[str, ...]
    normality_skipped: bool
    sigma_known: Optional[float]
    kept_paths: tuple[Trajectory, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "schema": "adwynn.mc_report.v1",
            "replicates": self.replicates,
            "checkpoints": list(self.checkpoints),
            "master_seed": self.master_seed,
            "quantile_levels": list(self.quantile_levels),
            "sigma_known": self.sigma_known,
            "normality_skipped": self.normality_skipped,
            "failed_replicates": list(self.failed),
            "failure_messages": list(self.failure_messages),
            "per_checkpoint": {
                str(n): {
                    name: None if v is None else np.asarray(v).tolist()
                    for name in CHECKPOINT_STATS
                    for v in [getattr(self, name)[n]]
                }
                for n in self.checkpoints
            },
        }

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        p = self.t_plugin[self.checkpoints[0]].shape[1]
        header = (
            ["replicate", "n", "failed", "error_norm"]
            + [f"t_known{j}" for j in range(p)]
            + [f"t_plugin{j}" for j in range(p)]
            + ["defficiency"]
        )
        rows = []
        failed = set(self.failed)
        alive = [r for r in range(self.replicates) if r not in failed]
        for n in self.checkpoints:
            for pos, r in enumerate(alive):
                t_k = self.t_known[n]
                rows.append(
                    [repr(r), repr(n), "0", repr(float(self.error_samples[n][pos]))]
                    + [repr(float(v)) for v in (t_k[pos] if t_k is not None else [math.nan] * p)]
                    + [repr(float(v)) for v in self.t_plugin[n][pos]]
                    + [repr(float(self.defficiency_samples[n][pos]))]
                )
            for r in sorted(failed):
                rows.append([repr(r), repr(n), "1"] + ["nan"] * (2 * p + 2))
        return header, rows


def _replicate_worker(args) -> dict:
    scenario, master_seed, index, checkpoints, sigma_known, logdet_ref, mstar_root, keep_path = args
    model, theta_bar = scenario.model, scenario.theta_bar
    seed = mix_seed(master_seed, index)
    try:
        traj = simulate_trajectory(scenario, seed, keep_stages=checkpoints)
        out: dict = {"index": index, "failed": None, "checkpoints": {}}
        for n in checkpoints:
            fit, support, counts, M = traj.stages[n]  # the loop's own fit, design and M
            root = matrix_sqrt(M)
            delta = fit.theta_hat - theta_bar
            sigma_hat = math.sqrt(max(fit.sigma2_hat, 1e-300))
            M_bar = information(np.asarray(model.f(support, theta_bar), dtype=float), counts / n)
            row = {
                "error": float(np.linalg.norm(delta)),
                "t_plugin": normality_stat(root, delta, sigma_hat, n),
                "defficiency": d_efficiency(M_bar, logdet_ref),
            }
            if sigma_known is not None:
                row["t_known"] = normality_stat(root, delta, sigma_known, n)
                row["u_mstar"] = normality_stat(mstar_root, delta, sigma_known, n)
            out["checkpoints"][n] = row
        if keep_path:
            out["trajectory"] = traj
        return out
    except Exception as exc:  # noqa: BLE001 - a replicate must never kill the study
        return {"index": index, "failed": f"{type(exc).__name__}: {exc}"}


def _quantiles(sample: Array) -> tuple[float, ...]:
    return tuple(float(np.quantile(sample, q)) for q in QUANTILE_LEVELS)


def empirical_design(points: Array) -> Design:
    """Design with weights equal to exact multiplicities over n."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    uniq, counts = np.unique(pts, axis=0, return_counts=True)
    return Design(uniq, counts / pts.shape[0])


def run_study(
    scenario: Scenario,
    replicates: int,
    checkpoints: Sequence[int],
    seed: int,
    workers: int = 1,
    keep_paths: int = 0,
) -> MCReport:
    """Simulate independent replicates and reduce them into an MCReport.

    Checkpoint statistics are read off the loop's own fit, design and
    information matrix at each stage; a checkpoint below the starting
    design raises ConfigError before any replicate runs.  Replicates are
    seeded from the master seed by index, so the report does not depend on
    the worker count.  Reduction is ordered by replicate index.  If more than
    ``MAX_FAILURE_FRACTION`` of the replicates fail the study raises
    StudyError.
    """
    checkpoints = tuple(sorted(int(n) for n in checkpoints))
    if not checkpoints:
        raise DomainError("at least one checkpoint is required")
    if replicates < 1:
        raise DomainError("need at least one replicate")
    n_start = starting_design(
        scenario.model, scenario.design_space, scenario.parameter_space
    ).shape[0]
    if checkpoints[0] < n_start:
        raise ConfigError(
            f"checkpoint {checkpoints[0]} precedes the starting design size {n_start}"
        )
    sigma2 = scenario.noise.limit_variance()
    # a zero limiting variance (noiseless runs) admits no standardization
    sigma_known = None if not sigma2 else math.sqrt(sigma2)
    grid = scenario.design_space.grid()
    reference = solve_locally_d_optimal(
        scenario.model, scenario.theta_bar, grid, tol=REFERENCE_TOL
    )
    M_ref = info_matrix(reference, scenario.theta_bar, scenario.model)
    logdet_ref, mstar_root = pd_inverse_logdet(M_ref)[1], matrix_sqrt(M_ref)
    run_scenario = replace(scenario, config=replace(scenario.config, n_max=checkpoints[-1]))
    args = [
        (run_scenario, int(seed), r, checkpoints, sigma_known, logdet_ref, mstar_root,
         r < keep_paths)
        for r in range(replicates)
    ]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_worker, args))
    else:
        results = [_replicate_worker(a) for a in args]

    failed = [r["index"] for r in results if r["failed"] is not None]
    messages = [r["failed"] for r in results if r["failed"] is not None]
    alive = [r for r in results if r["failed"] is None]
    if len(failed) > MAX_FAILURE_FRACTION * replicates:
        raise StudyError(
            f"{len(failed)} of {replicates} replicates failed: {messages[:5]}", failed
        )
    if not alive:
        raise StudyError("all replicates failed", failed)

    p = scenario.model.p
    normality_skipped = len(alive) < 2
    chi_crit = chi2_quantile(p, 0.95)

    def ks_normal(sample: Optional[Array]) -> Optional[tuple[float, ...]]:
        """Per-coordinate KS distances to N(0, 1); None when absent or skipped."""
        if sample is None or normality_skipped:
            return None
        return tuple(ks_distance(sample[:, j], normal_cdf) for j in range(p))

    per_checkpoint = {}
    for n in checkpoints:
        rows = [r["checkpoints"][n] for r in alive]
        errs, t_plugin, d_eff = (
            np.array([row[key] for row in rows]) for key in ("error", "t_plugin", "defficiency")
        )
        t_known = u_mstar = norms2 = None
        if sigma_known is not None:
            t_known = np.array([row["t_known"] for row in rows])
            u_mstar = np.array([row["u_mstar"] for row in rows])
            if not normality_skipped:
                norms2 = (t_known**2).sum(axis=1)
        per_checkpoint[n] = {
            "error_quantiles": _quantiles(errs),
            "error_samples": errs,
            "t_known": t_known,
            "t_plugin": t_plugin,
            "ks_known": ks_normal(t_known),
            "ks_plugin": ks_normal(t_plugin),
            "ks_mstar": ks_normal(u_mstar),
            "ks_chi2": None if norms2 is None else ks_distance(norms2, lambda v: chi2_cdf(p, v)),
            "coverage95": None if norms2 is None else float((norms2 <= chi_crit).mean()),
            "defficiency_quantiles": _quantiles(d_eff),
            "defficiency_samples": d_eff,
        }

    kept = tuple(r["trajectory"] for r in alive if "trajectory" in r)
    return MCReport(
        replicates=replicates,
        checkpoints=checkpoints,
        master_seed=int(seed),
        quantile_levels=QUANTILE_LEVELS,
        failed=tuple(failed),
        failure_messages=tuple(messages),
        normality_skipped=normality_skipped,
        sigma_known=sigma_known,
        kept_paths=kept,
        **{name: {n: per_checkpoint[n][name] for n in checkpoints} for name in CHECKPOINT_STATS},
    )
