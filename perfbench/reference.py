"""Independent reference checks for the benchmark's outputs.

Everything here is computed from the benchmark's own description of the
scenario, with the mean response and regressors written out by hand.
Nothing is imported from the package under test, so a fault in the
package cannot hide itself by agreeing with itself.

Each check returns a list of error strings; an empty list means pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

STEP_RTOL = 1e-9  # x_next, max_d and logdet against the recomputed step
TIE_RTOL = 1e-12  # sensitivities this close count as a tie at the argmax
SSE_RTOL = 1e-9  # reported SSE, and slack for the dense scan
GRAD_RTOL = 1e-6  # KKT residual relative to the gradient's magnitude
DEFF_FLOOR = 0.95
WINDOW_BURN_IN = 50  # the acceptance suite's committed burn-in
WINDOW_EPSILON = 0.1
CLUSTER_RADIUS = 0.1  # a cluster must lie this close to an analytic support point


@dataclass(frozen=True)
class Scenario:
    """A simulated Michaelis–Menten experiment, mu = t1 x / (t2 + x), as
    the benchmark describes it to the program."""

    x_bounds: tuple[float, float]
    grid_size: int
    theta_bounds: tuple[tuple[float, float], ...]
    theta_bar: tuple[float, ...]
    sigma: float

    @property
    def p(self) -> int:
        return len(self.theta_bar)

    def model_config(self) -> dict:
        """The program's `model` section, with every parameter spelled out."""
        return {
            "name": "michaelis_menten",
            "params": {
                "x_bounds": list(self.x_bounds),
                "grid_resolution": self.grid_size,
                "theta_bounds": [list(b) for b in self.theta_bounds],
            },
        }

    def grid(self) -> np.ndarray:
        lo, hi = self.x_bounds
        return lo + (hi - lo) * np.arange(self.grid_size) / (self.grid_size - 1)

    def mu(self, x, theta) -> np.ndarray:
        """Mean response; x (...,) and theta (..., p) broadcast."""
        x = np.asarray(x, dtype=float)
        th = np.asarray(theta, dtype=float)
        return th[..., 0] * x / (th[..., 1] + x)

    def f(self, x, theta) -> np.ndarray:
        """Regressors (gradient of mu in theta), parameter axis last."""
        x = np.asarray(x, dtype=float)
        th = np.asarray(theta, dtype=float)
        den = th[..., 1] + x
        g0, g1 = np.broadcast_arrays(x / den, -th[..., 0] * x / den**2)
        return np.stack([g0, g1], axis=-1)

    def optimal_design(self) -> tuple[np.ndarray, np.ndarray]:
        """Analytic locally D-optimal design at theta_bar: equal weights at
        max(a, b t2 / (b + 2 t2)) and b on the region [a, b]."""
        a, b = self.x_bounds
        t2 = self.theta_bar[1]
        return np.array([max(a, b * t2 / (b + 2.0 * t2)), b]), np.full(2, 0.5)

    def sse_scan(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Smallest SSE over a dense 801 x 801 scan of the parameter box."""
        ux, inverse = np.unique(x, return_inverse=True)
        counts = np.bincount(inverse).astype(float)
        sum_y = np.bincount(inverse, weights=y)
        (l1, h1), (l2, h2) = self.theta_bounds
        t1 = np.linspace(l1, h1, 801)
        t2 = np.linspace(l2, h2, 801)
        # for fixed t2 the SSE is a quadratic in t1
        u = ux[None, :] / (t2[:, None] + ux[None, :])
        b = u @ sum_y
        c = (u * u) @ counts
        sse = float(y @ y) - 2.0 * t1[None, :] * b[:, None] + t1[None, :] ** 2 * c[:, None]
        i2, i1 = np.unravel_index(int(np.argmin(sse)), sse.shape)
        return float(sse[i2, i1]), np.array([t1[i1], t2[i2]])


MICHAELIS_MENTEN = Scenario(
    x_bounds=(0.1, 3.0),
    grid_size=201,
    theta_bounds=((0.2, 3.0), (0.2, 3.0)),
    theta_bar=(1.0, 1.0),
    sigma=0.1,
)


@dataclass
class Traj:
    """One adaptive trajectory as read back from the program's output."""

    points: np.ndarray  # (N,) every design point, starting design first
    responses: np.ndarray  # (N,)
    n_start: int
    rec_n: np.ndarray  # (S,) stage of each step record
    x_next: np.ndarray  # (S,)
    theta: np.ndarray  # (S, p) estimate the step selected with
    logdet: np.ndarray  # (S,)
    max_d: np.ndarray  # (S,)
    y_next: np.ndarray  # (S,)
    theta_hat: np.ndarray  # (p,) final least-squares estimate
    sse_value: float

    @staticmethod
    def from_trajectory_json(obj: dict) -> "Traj":
        records = obj["records"]
        fit = obj["final_fit"]
        return Traj(
            points=np.asarray(obj["points"], dtype=float).reshape(-1),
            responses=np.asarray(obj["responses"], dtype=float),
            n_start=int(obj["n_start"]),
            rec_n=np.array([r["n"] for r in records], dtype=int),
            x_next=np.array([r["x_next"][0] for r in records], dtype=float),
            theta=np.array([r["theta"] for r in records], dtype=float).reshape(len(records), -1),
            logdet=np.array([r["logdet"] for r in records], dtype=float),
            max_d=np.array([r["max_d"] for r in records], dtype=float),
            y_next=np.array([r["y_next"] for r in records], dtype=float),
            theta_hat=np.asarray(fit["theta_hat"], dtype=float),
            sse_value=float(fit["sse_value"]),
        )

    @staticmethod
    def load(path) -> "Traj":
        with open(path) as fh:
            return Traj.from_trajectory_json(json.load(fh))


def _grid_indices(sc: Scenario, x: np.ndarray) -> tuple[np.ndarray, list[str]]:
    lo, hi = sc.x_bounds
    h = (hi - lo) / (sc.grid_size - 1)
    idx = np.rint((x - lo) / h).astype(int)
    inside = (idx >= 0) & (idx < sc.grid_size)
    idx = np.clip(idx, 0, sc.grid_size - 1)
    off = ~inside | (np.abs(sc.grid()[idx] - x) > 1e-9 * max(1.0, abs(hi), abs(lo)))
    errors = [f"design point {x[i]!r} (index {i}) is not on the scan grid" for i in np.flatnonzero(off)[:3]]
    return idx, errors


def check_steps(sc: Scenario, path: Traj) -> list[str]:
    """Recompute every step of the selection rule from the path's own data.

    At stage n the information matrix M(xi_n, theta_n) is rebuilt from the
    first n points, the sensitivity d(x) = f' M^-1 f is evaluated on the
    grid, and the recorded x_next must be its argmax, with max_d and
    logdet equal to 1e-9 relative. The program breaks exact ties toward
    the lowest index, but rounding decides which of two tied points wins,
    so any point within TIE_RTOL of the maximum passes.
    """
    N, S = path.points.size, path.rec_n.size
    errors: list[str] = []
    if S == 0:
        return errors
    if not np.array_equal(path.rec_n, path.n_start + np.arange(S)) or path.n_start + S != N:
        return [f"records do not cover stages {path.n_start}..{N - 1} one by one"]
    if not (np.array_equal(path.x_next, path.points[path.rec_n])
            and np.array_equal(path.y_next, path.responses[path.rec_n])):
        return ["records disagree with the stored points or responses"]
    idx, errors = _grid_indices(sc, path.points)
    if errors:
        return errors
    grid = sc.grid()
    onehot = np.zeros((N + 1, sc.grid_size))
    onehot[np.arange(1, N + 1), idx] = 1.0
    counts = np.cumsum(onehot, axis=0)[path.rec_n]  # (S, m): counts of the first n points
    weights = counts / path.rec_n[:, None]
    F = sc.f(grid[None, :], path.theta[:, None, :])  # (S, m, p)
    M = np.transpose(F * weights[:, :, None], (0, 2, 1)) @ F
    sign, logdet = np.linalg.slogdet(M)
    if np.any(sign <= 0):
        return [f"information matrix not positive definite at stage {path.rec_n[np.argmin(sign)]}"]
    d = np.einsum("smi,smi->sm", F @ np.linalg.inv(M), F)
    best = np.argmax(d, axis=1)
    rows = np.arange(S)
    d_best = d[rows, best]
    chosen = idx[path.rec_n]
    d_chosen = d[rows, chosen]
    bad_x = (chosen != best) & (d_chosen < d_best - TIE_RTOL * np.abs(d_best))
    bad_d = np.abs(path.max_d - d_chosen) > STEP_RTOL * np.abs(d_chosen)
    bad_ld = np.abs(path.logdet - logdet) > STEP_RTOL * np.maximum(1.0, np.abs(logdet))
    for label, bad in (("x_next is not the sensitivity argmax", bad_x),
                       ("max_d differs from the recomputed sensitivity", bad_d),
                       ("logdet differs from the recomputed information matrix", bad_ld)):
        if bad.any():
            s = int(np.flatnonzero(bad)[0])
            errors.append(f"{label} at stage {path.rec_n[s]} ({int(bad.sum())} stages)")
    return errors


def check_least_squares(sc: Scenario, path: Traj) -> list[str]:
    """The final estimate is the least-squares minimum over the box.

    No point of a dense scan may have a lower SSE, and the SSE gradient
    must satisfy the box's KKT conditions: zero in interior coordinates,
    pointing into the box at an active bound.
    """
    x, y, th = path.points, path.responses, path.theta_hat
    errors: list[str] = []
    r = y - sc.mu(x, th)
    sse = float(r @ r)
    if abs(sse - path.sse_value) > SSE_RTOL * max(sse, 1e-300):
        errors.append(f"reported SSE {path.sse_value!r} differs from {sse!r} at theta_hat")
    scan_min, scan_theta = sc.sse_scan(x, y)
    if scan_min < sse - SSE_RTOL * sse:
        errors.append(
            f"scan point {scan_theta.tolist()} has SSE {scan_min!r} below theta_hat's {sse!r}"
        )
    F = sc.f(x, th)
    grad = -2.0 * (F.T @ r)
    tol = GRAD_RTOL * 2.0 * float(np.abs(r) @ np.linalg.norm(F, axis=1))
    lo = np.array([b[0] for b in sc.theta_bounds])
    hi = np.array([b[1] for b in sc.theta_bounds])
    at_lo = np.abs(th - lo) <= 1e-9 * (hi - lo)
    at_hi = np.abs(th - hi) <= 1e-9 * (hi - lo)
    # a descent direction may only point out of the box at an active bound
    kkt = np.where(at_lo, np.minimum(grad, 0.0), np.where(at_hi, np.maximum(grad, 0.0), grad))
    if np.any(np.abs(kkt) > tol):
        errors.append(f"SSE gradient {grad.tolist()} at theta_hat exceeds tolerance {tol:.3g}")
    return errors


def d_efficiency(sc: Scenario, points: np.ndarray) -> float:
    """D-efficiency at theta_bar of the empirical design against the analytic one."""
    theta = np.asarray(sc.theta_bar)
    F = sc.f(points, theta)
    M = F.T @ F / points.size
    support, weights = sc.optimal_design()
    Fs = sc.f(support, theta)
    M_opt = (Fs * weights[:, None]).T @ Fs
    return float((np.linalg.det(M) / np.linalg.det(M_opt)) ** (1.0 / sc.p))


def check_design(sc: Scenario, path: Traj) -> list[str]:
    eff = d_efficiency(sc, path.points)
    if not eff >= DEFF_FLOOR:
        return [f"final design D-efficiency {eff:.4f} below {DEFF_FLOOR}"]
    return []


def check_noise(sc: Scenario, path: Traj) -> list[str]:
    """Simulated responses scatter as N(0, sigma^2) around mu(x, theta_bar).

    Six-sigma bounds on the residual mean and standard deviation.
    """
    resid = path.responses - sc.mu(path.points, np.asarray(sc.theta_bar))
    n = resid.size
    mean, sd = float(resid.mean()), float(resid.std())
    errors = []
    if abs(mean) > 6.0 * sc.sigma / math.sqrt(n):
        errors.append(f"response residual mean {mean:.4g} is not centred")
    if abs(sd / sc.sigma - 1.0) > 6.0 / math.sqrt(2.0 * n):
        errors.append(f"response residual s.d. {sd:.4g} differs from sigma {sc.sigma}")
    return errors


def check_path(sc: Scenario, path: Traj, simulated: bool) -> list[str]:
    """Every per-trajectory check: selection rule, least squares, design, noise."""
    errors = check_steps(sc, path) + check_least_squares(sc, path) + check_design(sc, path)
    if simulated:
        errors += check_noise(sc, path)
    return errors


def check_clusters(sc: Scenario, found: int, cluster_ranges: np.ndarray) -> list[str]:
    """Exactly p clusters, each near its own analytic support point.

    ``cluster_ranges`` is (found, 2): each cluster's smallest and largest point.
    """
    if found != sc.p:
        return [f"found {found} clusters, expected {sc.p}"]
    support, _ = sc.optimal_design()
    near = [
        {j for j, s in enumerate(support) if lo - CLUSTER_RADIUS <= s <= hi + CLUSTER_RADIUS}
        for lo, hi in cluster_ranges
    ]
    if any(len(n) != 1 for n in near) or len(set().union(*near)) != sc.p:
        return [f"clusters {cluster_ranges.tolist()} do not match support {support.tolist()}"]
    return []


def check_window_mass(sc: Scenario, stages: np.ndarray, masses: np.ndarray) -> list[str]:
    """Past the burn-in no window holds more than 1/p + epsilon of the mass."""
    bound = 1.0 / sc.p + WINDOW_EPSILON
    late = masses[stages >= WINDOW_BURN_IN]
    if late.size and late.max() > bound:
        return [f"window mass {late.max():.4f} exceeds {bound} past n = {WINDOW_BURN_IN}"]
    return []
