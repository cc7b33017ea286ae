"""Least-squares estimation over the compact parameter box.

The estimator is the global minimizer of the sum of squared residuals
over the box, approximated by a coarse full-factorial scan refined with
a box-projected, step-halving Gauss-Newton descent.  A purely local
solver would not implement the estimator the asymptotic guarantees are
about, hence the mandatory grid phase.

Every fit is one descent, seeded by whichever of the scan winner and
the warm start (the previous estimate) has the lower objective, and
``LSAdaptiveEstimator.estimate`` is the one place that runs it: each
refit of the adaptive loop calls it, and a fit from scratch (``fit_ls``)
feeds its data to a fresh estimator and calls it once.

Every fit runs on the data grouped by distinct design point
(``GroupedData``): the sum of squares is W + sum_x n_x (ybar_x - mu(x))^2,
so its cost grows with the design's support, not with n.

``LSAdaptiveEstimator`` keeps the grid objective incrementally updated
so the adaptive loop can refit after every observation at O(grid) cost
per step instead of O(grid * n).  Its ``GroupedData`` is the run's one
empirical design, and it keeps mu and f on the support at its last
estimate, as the descent evaluated them there, adding one point's mu and
f when the support grows.  The loop's information matrix reads the
design and the kept f, and a descent from the warm start makes no model
call for its seed or its first iteration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .design import point_rows
from .errors import DomainError, FitFailureError
from .model import ModelSpec, ParameterSpace, as_theta

Array = np.ndarray


@dataclass(frozen=True)
class DataBatch:
    """Paired design points and responses."""

    xs: Array
    ys: Array

    def __post_init__(self):
        xs = point_rows(self.xs, "data points", distinct=False)
        ys = np.array(self.ys, dtype=float)
        if ys.shape != (xs.shape[0],):
            raise DomainError("responses must match the number of points")
        if not np.all(np.isfinite(ys)):
            raise DomainError("responses must be finite")
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


class GroupedData:
    """Observations grouped by distinct design point: the empirical design
    together with the mean response at each of its points.

    Per point, in order of first appearance, it keeps the point, its
    count and the running mean of its responses; ``within_ss`` is the
    pooled within-point sum of squares W (Welford updates).  Points are
    the same when their bytes are.  With all points distinct the counts
    are 1, the means are the responses and W is 0.0.

    ``points``, ``counts`` and ``means`` are views of the first ``size``
    rows of the storage, rebuilt only when ``size`` is set, so reading
    them in an objective evaluation costs no slicing.
    """

    def __init__(self):
        self._points = np.empty((0, 0), dtype=float)
        self._counts = np.empty(0, dtype=float)
        self._means = np.empty(0, dtype=float)
        self._index: dict[bytes, int] = {}
        self.size = 0
        self.n = 0
        self.within_ss = 0.0

    @property
    def size(self) -> int:
        return self._size

    @size.setter
    def size(self, size: int) -> None:
        self._size = size
        self.points = self._points[:size]
        self.counts = self._counts[:size]
        self.means = self._means[:size]

    def add(self, x: Array, y: float) -> int:
        """Record response y at the (k,) point x; returns the point's index."""
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
        return i

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


# Fixed settings of every fit: the scan's points per parameter axis, and the descent's
# iteration budget, move tolerance and step halvings per line search.
GRID_POINTS_PER_AXIS = 15
MAX_ITERATIONS = 200
STEP_TOL = 1e-10
MAX_HALVINGS = 40


def sse(data: DataBatch, theta, model: ModelSpec) -> float:
    """Sum of squared residuals at theta."""
    r = data.ys - np.asarray(model.mu(data.xs, np.asarray(theta, dtype=float)), dtype=float)
    return float(r @ r)


def sse_gradient(data: DataBatch, theta, model: ModelSpec) -> Array:
    """Gradient of the residual sum of squares: -2 * sum of r_i * f_i."""
    theta = np.asarray(theta, dtype=float)
    r = data.ys - np.asarray(model.mu(data.xs, theta), dtype=float)
    F = np.asarray(model.f(data.xs, theta), dtype=float)
    return -2.0 * (F.T @ r)


def _objective(data: GroupedData, mu: Array) -> tuple[Array, Array, float]:
    """From mu on the support: mu, the residual of the means and the
    objective W + sum n_x r_x^2."""
    r = data.means - mu
    return mu, r, data.within_ss + float((data.counts * r) @ r)


def _residual(data: GroupedData, model: ModelSpec, theta: Array) -> tuple[Array, Array, float]:
    """``_objective`` at theta: one mu call, on the support."""
    return _objective(data, np.asarray(model.mu(data.points, theta), dtype=float))


def _grid_winner(values: Array, theta_grid: Array) -> tuple[Array, float, bool]:
    """Scan winner (lowest index among minima), its objective, and the tie flag.

    ``values`` holds no NaN (``LSAdaptiveEstimator.update`` maps
    non-finite terms to inf), so the grid is non-finite everywhere
    exactly when its minimum is.
    """
    g_idx = int(values.argmin())
    g_min = float(values[g_idx])
    if not math.isfinite(g_min):
        raise FitFailureError("objective is non-finite on the whole parameter grid")
    tie_tol = 1e-9 * (1.0 + abs(g_min))
    return theta_grid[g_idx].copy(), g_min, bool(np.count_nonzero(values <= g_min + tie_tol) > 1)


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
    data: GroupedData,
    model: ModelSpec,
    space: ParameterSpace,
    theta0: Array,
    start: tuple[Array, Array, float] | None = None,
    regressors: Array | None = None,
) -> tuple[Array, float, bool, Array, Array]:
    """Box-projected damped Gauss-Newton descent from theta0 on grouped data.

    The objective is ``W + sum_x n_x (ybar_x - mu(x))^2`` (``_residual``).
    ``start`` is mu on ``data.points``, the residual and the objective at
    theta0 (inside the box) when the caller has them, and ``regressors``
    is f at theta0 there; with both, the first iteration makes no model
    call.  The residual of each accepted line-search candidate is reused
    by the next iteration, so an iteration costs one f, at its iterate,
    and one mu per trial.  Returns theta, its objective, whether the
    descent converged, and mu and f on ``data.points`` at theta; f costs
    one more call only when the descent stops right after a move.

    Accepts only strictly decreasing steps (step-halving line search),
    so the objective along the accepted iterates is monotone.  Stops
    before the line search once the Gauss-Newton step shows
    stationarity (its norm below ``STEP_TOL``, or its decrement g.step
    negligible against the SSE), or after an accepted move shorter than
    ``STEP_TOL`` (stopping rules after Dennis & Schnabel 1983, ch. 7).
    A coordinate at a bound whose gradient points out of the box is held
    there, and the step is solved on the free coordinates (a projected
    Newton step, Bertsekas 1982), so a minimum on the boundary of the
    box is reached and passes the stationarity tests too.
    Only these stops report convergence; a non-finite step, an exhausted
    line search or ``MAX_ITERATIONS`` report ``converged=False``.

    Only f, mu and the products g and G use numpy.  The rest of an
    iteration is small-p algebra in plain floats, where numpy's per-call
    overhead would cost more than the arithmetic: the step (``_solve``:
    closed forms for p <= 2, LAPACK for p >= 3 and singular G), its
    finiteness, norm and decrement, the clip of theta0 and of each
    line-search candidate to the box and the length of the accepted move.
    """
    points = data.points
    # square roots of the counts scale F, so G = F_w^T F_w stays one symmetric product
    root = np.sqrt(data.counts)
    lower, upper = space.lower.tolist(), space.upper.tolist()
    t = [min(max(v, lo), hi) for v, lo, hi in zip(theta0.tolist(), lower, upper)]
    theta = np.array(t)
    mu, r, value = start if start is not None else _residual(data, model, theta)
    f = regressors
    converged = False
    for _ in range(MAX_ITERATIONS):
        if f is None:
            f = np.asarray(model.f(points, theta), dtype=float)
        F = f * root[:, None]
        g = F.T @ (root * r)
        G = F.T @ F
        on_bound = any(map(float.__le__, t, lower)) or any(map(float.__ge__, t, upper))
        step = _bounded_step(G, g, t, lower, upper) if on_bound else _solve(G, g)
        if not all(map(math.isfinite, step)):
            return theta, value, False, mu, f
        if (
            math.hypot(*step) < STEP_TOL
            or sum(map(operator.mul, g.tolist(), step)) <= STATIONARY_DECREMENT * value
        ):
            return theta, value, True, mu, f
        alpha = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS):
            cand = [
                min(max(tj + alpha * sj, lo), hi)
                for tj, sj, lo, hi in zip(t, step, lower, upper)
            ]
            cand_theta = np.array(cand)
            cand_mu, cand_r, cand_value = _residual(data, model, cand_theta)
            if cand_value < value:
                accepted = cand
                break
            alpha *= 0.5
        if accepted is None:
            return theta, value, False, mu, f
        moved = math.hypot(*map(operator.sub, accepted, t))
        theta, t, mu, r, value, f = cand_theta, accepted, cand_mu, cand_r, cand_value, None
        if moved < STEP_TOL:
            converged = True
            break
    return theta, value, converged, mu, np.asarray(model.f(points, theta), dtype=float)


class LSAdaptiveEstimator:
    """Least squares refit after each observation: the one driver of the
    least-squares core.

    ``update`` records one observation in ``data``; ``estimate`` refits
    on all of them.  The coarse-grid objective is maintained as a running
    sum, so each refit costs O(grid) for the scan plus one descent over
    the grouped data, O(support).  The model's mean over the scan is
    computed once per distinct design point (indexed as ``GroupedData``
    indexes the point), so a repeated point costs no mu call; the cache
    holds support x scan floats.

    A refit is one descent, seeded at ``previous``, the last estimate,
    when its objective is below the scan minimum, and at the scan winner
    (ties broken toward the lowest grid index) otherwise.  ``mu`` is mu
    on ``data.points`` at ``previous``: the descent's, extended by one mu
    call at each point added since, so the warm start's objective makes
    no model call.  ``previous`` may be set to a point of the box before
    the first ``update``, as ``fit_ls`` sets its warm start.  ``f`` is f
    on ``data.points`` at ``previous``, kept by the same rules: the warm
    descent's first iteration reads it, and so does the loop's
    information matrix.
    """

    def __init__(self, model: ModelSpec, space: ParameterSpace):
        self.model = model
        self.space = space
        self.theta_grid = space.sample_grid(GRID_POINTS_PER_AXIS)
        self.grid_sse = np.zeros(self.theta_grid.shape[0])
        self.data = GroupedData()
        self.previous: Array | None = None
        self.mu = np.empty(0)
        self.f = np.empty((0, space.p))
        self._scan_mu: list[tuple[Array, bool]] = []  # per point: mu over the scan, all finite

    def update(self, x, y: float) -> None:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        i = self.data.add(x, y)
        if i == len(self._scan_mu):
            mu = np.asarray(self.model.mu(x, self.theta_grid), dtype=float)
            self._scan_mu.append((mu, bool(np.isfinite(mu).all())))
            if self.previous is not None:
                at = np.asarray(self.model.mu(x[None], self.previous), dtype=float)
                self.mu = np.concatenate([self.mu, at])
                at = np.asarray(self.model.f(x[None], self.previous), dtype=float)
                self.f = np.concatenate([self.f, at])
        mu, finite = self._scan_mu[i]
        contrib = (y - mu) ** 2
        if not (finite and math.isfinite(y)):  # finite terms square to finite or +inf
            contrib[~np.isfinite(contrib)] = np.inf
        self.grid_sse += contrib

    def estimate(self) -> LSFit:
        """Refit on every observation so far."""
        data = self.data
        if data.n == 0:
            raise FitFailureError("no data to fit")
        grid_minimum, g_min, grid_tie = _grid_winner(self.grid_sse, self.theta_grid)
        seed, start, regressors = grid_minimum, None, None
        if self.previous is not None:
            at_warm = _objective(data, self.mu)
            if at_warm[2] < g_min:
                seed, start, regressors = self.previous, at_warm, self.f
        theta, value, converged, self.mu, self.f = _gauss_newton(
            data, self.model, self.space, seed, start, regressors
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


def fit_ls(
    data: DataBatch,
    model: ModelSpec,
    space: ParameterSpace,
    warm_start: Array | None = None,
) -> LSFit:
    """Global-then-local least squares over the parameter box.

    The observations of ``data`` go, in order, to an
    ``LSAdaptiveEstimator`` whose ``previous`` is ``warm_start``,
    projected into the box, and its one ``estimate`` is the fit.
    """
    estimator = LSAdaptiveEstimator(model, space)
    if warm_start is not None:
        try:
            warm_start = as_theta(warm_start, space.p)
        except DomainError as exc:
            raise DomainError(f"warm_start: {exc}") from None
        if not np.all(np.isfinite(warm_start)):
            raise DomainError("warm_start must be finite")
        estimator.previous = space.project(warm_start)
    for x, y in zip(data.xs, data.ys.tolist()):
        estimator.update(x, y)
    return estimator.estimate()
