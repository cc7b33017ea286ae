"""Least-squares estimation over the compact parameter box.

The estimator is the global minimizer of the sum of squared residuals
over the box, approximated by a coarse full-factorial scan refined with
a box-projected, step-halving Gauss-Newton descent.  A purely local
solver would not implement the estimator the asymptotic guarantees are
about, hence the mandatory grid phase.

Every fit runs on the data grouped by distinct design point
(``GroupedData``): the sum of squares is W + sum_x n_x (ybar_x - mu(x))^2,
so its cost grows with the design's support, not with n.

``SequentialLS`` keeps the grid objective incrementally updated so the
adaptive loop can refit after every observation at O(grid) cost per
step instead of O(grid * n).
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryWarning, DomainError, FitFailureError
from .model import ModelSpec, ParameterSpace

Array = np.ndarray


@dataclass(frozen=True)
class DataBatch:
    """Paired design points and responses."""

    xs: Array
    ys: Array

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[:, None]
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2 or xs.shape[0] == 0:
            raise DomainError("data points must form a nonempty (n, k) array")
        if ys.shape != (xs.shape[0],):
            raise DomainError("responses must match the number of points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DomainError("data must be finite")
        xs = xs.copy()
        ys = ys.copy()
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]


class GroupedData:
    """Observations grouped by distinct design point: the empirical design
    together with the mean response at each of its points.

    Per point, in order of first appearance, it keeps the point, its
    count and the running mean of its responses; ``within_ss`` is the
    pooled within-point sum of squares W (Welford updates).  Points are
    the same when their bytes are.  With all points distinct the counts
    are 1, the means are the responses and W is 0.0.
    """

    def __init__(self):
        self._points = np.empty((0, 0), dtype=float)
        self._counts = np.empty(0, dtype=float)
        self._means = np.empty(0, dtype=float)
        self._index: dict[bytes, int] = {}
        self.size = 0
        self.n = 0
        self.within_ss = 0.0

    @classmethod
    def from_arrays(cls, xs: Array, ys: Array) -> "GroupedData":
        """Group (n, k) points and their n responses in one vectorized pass."""
        xs = np.ascontiguousarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keys = xs.view(np.dtype((np.void, xs.dtype.itemsize * xs.shape[1]))).ravel()
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        group = rank[inverse.ravel()]
        data = cls()
        data._points = xs[first[order]]
        data._counts = counts[order].astype(float)
        data._means = np.bincount(group, weights=ys, minlength=order.size) / data._counts
        within = ys - data._means[group]
        data.within_ss = float(within @ within)
        data._index = {p.tobytes(): i for i, p in enumerate(data._points)}
        data.size, data.n = order.size, xs.shape[0]
        return data

    @property
    def points(self) -> Array:
        return self._points[: self.size]

    @property
    def counts(self) -> Array:
        return self._counts[: self.size]

    @property
    def means(self) -> Array:
        return self._means[: self.size]

    def add(self, x: Array, y: float) -> None:
        """Record response y at the (k,) point x."""
        key = x.tobytes()
        i = self._index.get(key)
        if i is None:
            i = self.size
            if i == self._counts.size:
                self._grow(x.size)
            self._points[i] = x
            self._index[key] = i
            self.size += 1
        count = self._counts[i] + 1.0
        delta = y - self._means[i]
        self._means[i] += delta / count
        self._counts[i] = count
        self.within_ss += float(delta * (y - self._means[i]))
        self.n += 1

    def _grow(self, k: int) -> None:
        capacity = max(16, 2 * self._counts.size)
        self._points = np.concatenate(
            [self.points.reshape(self.size, k), np.empty((capacity - self.size, k))]
        )
        self._counts = np.concatenate([self.counts, np.zeros(capacity - self.size)])
        self._means = np.concatenate([self.means, np.zeros(capacity - self.size)])


@dataclass(frozen=True)
class LSFit:
    """Result of a least-squares fit.

    ``grid_minimum`` is the winner of the coarse scan before local
    refinement; ``grid_tie`` flags a non-unique scan minimum, which
    typically means the data under-determine the parameter.
    ``converged`` says the returned descent met a stop test.
    """

    theta_hat: Array
    sse_value: float
    sigma2_hat: float
    converged: bool
    grid_minimum: Array
    grid_tie: bool = False


@dataclass(frozen=True)
class FitConfig:
    grid_points_per_axis: int = 15
    max_iterations: int = 200
    step_tol: float = 1e-10
    max_halvings: int = 40

    def __post_init__(self):
        for name in ("grid_points_per_axis", "max_iterations", "max_halvings"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        if not 0.0 <= self.step_tol < math.inf:
            raise DomainError("step_tol must be finite and >= 0")


def sse(data: DataBatch, theta, model: ModelSpec) -> float:
    """Sum of squared residuals at theta."""
    return _residual(data.xs, data.ys, model, np.asarray(theta, dtype=float))[1]


def sse_gradient(
    data: DataBatch,
    theta,
    model: ModelSpec,
    space: ParameterSpace | None = None,
) -> Array:
    """Gradient of the residual sum of squares: -2 * sum of r_i * f_i.

    Valid on the interior of the parameter box; when ``space`` is given
    and theta touches its boundary a BoundaryWarning is emitted (the
    stationarity interpretation breaks down there).
    """
    if not model.gradient_is_mu_gradient:
        raise DomainError("sse_gradient needs f to be the parameter gradient of mu")
    theta = np.asarray(theta, dtype=float)
    if space is not None and space.on_boundary(theta):
        warnings.warn("theta lies on the parameter-box boundary", BoundaryWarning)
    r = data.ys - np.asarray(model.mu(data.xs, theta), dtype=float)
    F = np.asarray(model.f(data.xs, theta), dtype=float)
    return -2.0 * (F.T @ r)


def _residual(
    xs: Array,
    ys: Array,
    model: ModelSpec,
    theta: Array,
    weights: Array | None = None,
    offset: float = 0.0,
) -> tuple[Array, float]:
    """Residual at theta and the objective offset + sum of weights * r^2."""
    r = ys - np.asarray(model.mu(xs, theta), dtype=float)
    return r, offset + float((r if weights is None else weights * r) @ r)


def _grid_sse(data: GroupedData, model: ModelSpec, theta_grid: Array) -> Array:
    """Objective over the full parameter grid, vectorized; (G,) array."""
    mu = np.asarray(model.mu(data.points[None, :, :], theta_grid[:, None, :]), dtype=float)
    resid = data.means[None, :] - mu
    out = (data.counts * resid**2).sum(axis=1) + data.within_ss
    out[~np.isfinite(out)] = np.inf
    return out


def _grid_winner(values: Array, theta_grid: Array) -> tuple[Array, float, bool]:
    """Scan winner (lowest index among minima), its objective, and the tie flag.

    ``values`` holds no NaN (its producers map non-finite objectives to
    inf), so the grid is non-finite everywhere exactly when its minimum is.
    """
    g_idx = int(np.argmin(values))
    g_min = float(values[g_idx])
    if not math.isfinite(g_min):
        raise FitFailureError("objective is non-finite on the whole parameter grid")
    tie_tol = 1e-9 * (1.0 + abs(g_min))
    return theta_grid[g_idx].copy(), g_min, bool(np.sum(values <= g_min + tie_tol) > 1)


def _solve(G: Array, g: Array) -> list[float]:
    """The Gauss-Newton step: the solution of G x = g, as a list of floats.

    p = 1 divides and p = 2 uses Cramer's rule, in plain floats: numpy's
    per-call overhead would cost more than the arithmetic.  A zero or
    non-finite determinant there, and every p >= 3, go to LAPACK's solve,
    and a G that LAPACK finds singular to its least-squares solution.
    """
    p = g.shape[0]
    if p == 1:
        det = G.item()
        if det != 0.0 and math.isfinite(det):
            return [g.item() / det]
    elif p == 2:
        (a, b), (c, d) = G.tolist()
        det = a * d - b * c
        if det != 0.0 and math.isfinite(det):
            g0, g1 = g.tolist()
            return [(d * g0 - b * g1) / det, (a * g1 - c * g0) / det]
    try:
        return np.linalg.solve(G, g).tolist()
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(G, g, rcond=None)[0].tolist()


def _bounded_step(
    G: Array, g: Array, t: list[float], lower: list[float], upper: list[float]
) -> list[float]:
    """Gauss-Newton step at a point t on the box boundary: a coordinate whose
    bound the descent direction g pushes against is held, the rest solved alone."""
    free = [
        j
        for j, (tj, gj) in enumerate(zip(t, g.tolist()))
        if not ((tj <= lower[j] and gj <= 0.0) or (tj >= upper[j] and gj >= 0.0))
    ]
    step = [0.0] * len(t)
    for j, s in zip(free, _solve(G[np.ix_(free, free)], g[free])):
        step[j] = s
    return step


# A decrement g.step this small against the SSE is rounding noise no halving can realise.
STATIONARY_DECREMENT = 1e-15


def _gauss_newton(
    xs: Array,
    ys: Array,
    model: ModelSpec,
    space: ParameterSpace,
    theta0: Array,
    config: FitConfig,
    trace: list | None = None,
    weights: Array | None = None,
    offset: float = 0.0,
    start: tuple[Array, float] | None = None,
) -> tuple[Array, float, bool]:
    """Box-projected damped Gauss-Newton descent from theta0.

    The objective is ``offset + sum_i weights_i (ys_i - mu(xs_i))^2``:
    raw data by default, or ``GroupedData`` with its means as ys, its
    counts as weights and W as offset.  ``start`` is the residual and
    objective at theta0 (inside the box) when the caller has them; the
    residual of each accepted line-search candidate is reused by the
    next iteration, so an iteration costs one f and one mu per trial.

    Accepts only strictly decreasing steps (step-halving line search),
    so the objective along the accepted iterates is monotone.  Stops
    before the line search once the Gauss-Newton step shows
    stationarity (its norm below ``step_tol``, or its decrement g.step
    negligible against the SSE), or after an accepted move shorter than
    ``step_tol`` (stopping rules after Dennis & Schnabel 1983, ch. 7).
    A coordinate at a bound whose gradient points out of the box is held
    there, and the step is solved on the free coordinates (a projected
    Newton step, Bertsekas 1982), so a minimum on the boundary of the
    box is reached and passes the stationarity tests too.
    Only these stops report convergence; a non-finite step, an exhausted
    line search or ``max_iterations`` report ``converged=False``.

    Only f, mu and the products g and G use numpy.  The rest of an
    iteration is small-p algebra in plain floats, where numpy's per-call
    overhead would cost more than the arithmetic: the step (``_solve``:
    closed forms for p <= 2, LAPACK for p >= 3 and singular G), its
    finiteness, norm and decrement, the clip of each line-search
    candidate to the box and the length of the accepted move.
    """
    weights = np.ones(ys.shape[0]) if weights is None else weights
    # square roots of the weights scale F, so G = F_w^T F_w stays one symmetric product
    root = np.sqrt(weights)
    lower, upper = space.lower.tolist(), space.upper.tolist()
    theta = space.project(theta0)
    t = theta.tolist()
    r, value = start if start is not None else _residual(xs, ys, model, theta, weights, offset)
    if trace is not None:
        trace.append((theta.copy(), value))
    for _ in range(config.max_iterations):
        F = np.asarray(model.f(xs, theta), dtype=float) * root[:, None]
        g = F.T @ (root * r)
        G = F.T @ F
        on_bound = any(map(float.__le__, t, lower)) or any(map(float.__ge__, t, upper))
        step = _bounded_step(G, g, t, lower, upper) if on_bound else _solve(G, g)
        if not all(map(math.isfinite, step)):
            return theta, value, False
        if (
            math.hypot(*step) < config.step_tol
            or sum(map(operator.mul, g.tolist(), step)) <= STATIONARY_DECREMENT * value
        ):
            return theta, value, True
        alpha = 1.0
        accepted = None
        for _ in range(config.max_halvings):
            cand = [
                min(max(tj + alpha * sj, lo), hi)
                for tj, sj, lo, hi in zip(t, step, lower, upper)
            ]
            cand_theta = np.array(cand)
            cand_r, cand_value = _residual(xs, ys, model, cand_theta, weights, offset)
            if cand_value < value:
                accepted = cand
                break
            alpha *= 0.5
        if accepted is None:
            return theta, value, False
        moved = math.hypot(*map(operator.sub, accepted, t))
        theta, t, r, value = cand_theta, accepted, cand_r, cand_value
        if trace is not None:
            trace.append((theta.copy(), value))
        if moved < config.step_tol:
            return theta, value, True
    return theta, value, False


def _descend(
    data: GroupedData,
    model: ModelSpec,
    space: ParameterSpace,
    theta0: Array,
    config: FitConfig,
    trace: list | None = None,
    start: tuple[Array, float] | None = None,
) -> tuple[Array, float, bool]:
    """``_gauss_newton`` on grouped data."""
    return _gauss_newton(
        data.points, data.means, model, space, theta0, config, trace,
        weights=data.counts, offset=data.within_ss, start=start,
    )


# Endpoints whose objectives differ by rounding alone: a change of rounding
# must not flip which one ``fit_ls`` returns.
WARM_START_RTOL = 1e-14


def fit_ls(
    data: DataBatch,
    model: ModelSpec,
    space: ParameterSpace,
    config: FitConfig = FitConfig(),
    warm_start: Array | None = None,
    trace: list | None = None,
) -> LSFit:
    """Global-then-local least squares over the parameter box.

    The coarse phase scans a full-factorial grid (ties broken toward
    the lexicographically smallest grid index); the winner seeds the
    local descent.  A warm start, when given, seeds one extra descent,
    whose endpoint is kept unless the grid-seeded one has an objective
    lower by more than the relative ``WARM_START_RTOL``.
    """
    grouped = GroupedData.from_arrays(data.xs, data.ys)
    theta_grid = space.sample_grid(config.grid_points_per_axis)
    values = _grid_sse(grouped, model, theta_grid)
    grid_minimum, _, grid_tie = _grid_winner(values, theta_grid)

    theta, value, converged = _descend(grouped, model, space, grid_minimum, config, trace)
    if warm_start is not None:
        theta_w, value_w, conv_w = _descend(
            grouped, model, space, np.asarray(warm_start, dtype=float), config
        )
        if value_w - value <= WARM_START_RTOL * value:
            theta, value, converged = theta_w, value_w, conv_w
    return LSFit(
        theta_hat=theta,
        sse_value=value,
        sigma2_hat=value / data.n,
        converged=converged,
        grid_minimum=grid_minimum,
        grid_tie=grid_tie,
    )


class SequentialLS:
    """Incrementally updated least squares for the adaptive loop.

    The coarse-grid objective is maintained as a running sum, so each
    refit costs O(grid) for the scan plus one descent over the grouped
    data, O(support).  The descent is seeded by whichever of the scan
    winner and the previous estimate currently has the smaller objective.
    """

    def __init__(self, model: ModelSpec, space: ParameterSpace, config: FitConfig = FitConfig()):
        self.model = model
        self.space = space
        self.config = config
        self.theta_grid = space.sample_grid(config.grid_points_per_axis)
        self.grid_sse = np.zeros(self.theta_grid.shape[0])
        self.data = GroupedData()
        self.previous: Array | None = None

    def update(self, x, y: float) -> None:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self.data.add(x, y)
        mu = np.asarray(self.model.mu(x, self.theta_grid), dtype=float)
        contrib = (y - mu) ** 2
        contrib[~np.isfinite(contrib)] = np.inf
        self.grid_sse += contrib

    def estimate(self) -> LSFit:
        data = self.data
        if data.n == 0:
            raise FitFailureError("no data to fit")
        grid_minimum, g_min, grid_tie = _grid_winner(self.grid_sse, self.theta_grid)
        seed, start = grid_minimum, None
        if self.previous is not None:
            at_previous = _residual(
                data.points, data.means, self.model, self.previous, data.counts, data.within_ss
            )
            if at_previous[1] < g_min:
                seed, start = self.previous, at_previous
        theta, value, converged = _descend(
            data, self.model, self.space, seed, self.config, start=start
        )
        self.previous = theta
        return LSFit(
            theta_hat=theta,
            sse_value=value,
            sigma2_hat=value / data.n,
            converged=converged,
            grid_minimum=grid_minimum,
            grid_tie=grid_tie,
        )
