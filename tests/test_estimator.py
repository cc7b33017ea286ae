from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adwynn.estimator as estimator
from adwynn.errors import BoundaryWarning, DomainError
from adwynn.estimator import (
    DataBatch,
    FitConfig,
    GroupedData,
    SequentialLS,
    _gauss_newton,
    _grid_sse,
    _residual,
    _solve,
    fit_ls,
    sse,
    sse_gradient,
)
from adwynn.model import ParameterSpace, builtin_bundle


def _noiseless_batch(bundle, theta_bar, n=10):
    space = bundle.design_space
    lo, hi = float(space.lower[0]), float(space.upper[0])
    xs = np.linspace(lo, hi, n)[:, None]
    ys = np.asarray(bundle.model.mu(xs, np.asarray(theta_bar)))
    return DataBatch(xs, ys)


# ---------------------------------------------------------------- sse


def test_sse_zero_at_truth(mm_bundle):
    batch = _noiseless_batch(mm_bundle, [1.0, 1.0])
    assert sse(batch, [1.0, 1.0], mm_bundle.model) == 0.0


def test_sse_single_point(poly1_bundle):
    batch = DataBatch(np.array([[0.3]]), np.array([1.0]))
    assert sse(batch, [0.0, 0.0], poly1_bundle.model) == pytest.approx(1.0)


def test_sse_matches_fsum_oracle(mm_bundle, rng):
    xs = rng.uniform(0.1, 3.0, size=(30, 1))
    ys = rng.normal(size=30)
    batch = DataBatch(xs, ys)
    theta = np.array([0.9, 1.4])
    value = sse(batch, theta, mm_bundle.model)
    terms = [
        (float(y) - float(mm_bundle.model.mu(x, theta))) ** 2 for x, y in zip(xs, ys)
    ]
    assert value == pytest.approx(math.fsum(terms), rel=1e-12)


# ---------------------------------------------------------------- gradient


def test_gradient_zero_residuals(mm_bundle):
    batch = _noiseless_batch(mm_bundle, [1.0, 1.0])
    g = sse_gradient(batch, [1.0, 1.0], mm_bundle.model)
    assert np.allclose(g, 0.0)


def test_gradient_single_point_example(poly1_bundle):
    batch = DataBatch(np.array([[1.0]]), np.array([0.0]))
    g = sse_gradient(batch, [1.0, 0.0], poly1_bundle.model)
    assert np.allclose(g, [2.0, 2.0])


def test_gradient_matches_central_differences(mm_bundle, rng):
    model = mm_bundle.model
    for _ in range(50):
        xs = rng.uniform(0.1, 3.0, size=(8, 1))
        ys = rng.normal(0.4, 0.3, size=8)
        batch = DataBatch(xs, ys)
        theta = rng.uniform(0.4, 2.5, size=2)
        g = sse_gradient(batch, theta, model)
        fd = np.empty(2)
        for j in range(2):
            h = 1e-6 * max(1.0, abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (sse(batch, tp, model) - sse(batch, tm, model)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) / scale <= 1e-5


def test_gradient_boundary_warning(mm_bundle):
    batch = _noiseless_batch(mm_bundle, [1.0, 1.0])
    with pytest.warns(BoundaryWarning):
        sse_gradient(batch, [0.2, 1.0], mm_bundle.model, space=mm_bundle.parameter_space)


def test_gradient_requires_gradient_flag(mm_bundle):
    from dataclasses import replace

    model = replace(mm_bundle.model, gradient_is_mu_gradient=False)
    batch = _noiseless_batch(mm_bundle, [1.0, 1.0])
    with pytest.raises(DomainError):
        sse_gradient(batch, [1.0, 1.0], model)


# ---------------------------------------------------------------- fit_ls


@pytest.mark.parametrize(
    "name,kwargs,theta_bar",
    [
        ("michaelis_menten", {}, [1.0, 1.0]),
        ("exponential_decay", {}, [1.2, 0.9]),
        ("polynomial", {"degree": 1}, [0.5, -1.0]),
        ("one_param_exponential", {}, [1.1]),
    ],
)
def test_noiseless_recovery(name, kwargs, theta_bar):
    bundle = builtin_bundle(name, **kwargs)
    batch = _noiseless_batch(bundle, theta_bar)
    fit = fit_ls(batch, bundle.model, bundle.parameter_space)
    assert np.linalg.norm(fit.theta_hat - np.asarray(theta_bar)) <= 1e-6
    assert fit.sse_value <= 1e-12
    assert fit.sigma2_hat == pytest.approx(fit.sse_value / batch.n)


def test_underdetermined_single_point(poly1_bundle):
    # one observation at x = 0 pins only the intercept
    batch = DataBatch(np.array([[0.0]]), np.array([0.0]))
    fit = fit_ls(batch, poly1_bundle.model, poly1_bundle.parameter_space)
    assert fit.grid_tie
    # exhaustive grid scan oracle: never worse than any coarse grid point
    grid = poly1_bundle.parameter_space.sample_grid(15)
    values = [sse(batch, t, poly1_bundle.model) for t in grid]
    assert fit.sse_value <= min(values) + 1e-15


def test_boundary_truth_recovered(mm_bundle):
    theta_bar = np.array([3.0, 3.0])  # upper corner of the parameter box
    batch = _noiseless_batch(mm_bundle, theta_bar)
    fit = fit_ls(batch, mm_bundle.model, mm_bundle.parameter_space)
    assert np.linalg.norm(fit.theta_hat - theta_bar) <= 1e-6
    assert mm_bundle.parameter_space.on_boundary(fit.theta_hat, tol=1e-6)
    # dense grid scan oracle
    dense = mm_bundle.parameter_space.sample_grid(40)
    dense_best = min(sse(batch, t, mm_bundle.model) for t in dense)
    assert fit.sse_value <= dense_best + 1e-15


def test_descent_is_monotone(mm_bundle, rng):
    xs = rng.uniform(0.1, 3.0, size=(20, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 1.0]))) + rng.normal(
        0, 0.2, size=20
    )
    trace: list = []
    fit_ls(DataBatch(xs, ys), mm_bundle.model, mm_bundle.parameter_space, trace=trace)
    values = [v for _, v in trace]
    assert all(b < a or b == pytest.approx(a) for a, b in zip(values, values[1:]))
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_fit_never_worse_than_grid(mm_bundle, rng):
    for _ in range(5):
        xs = rng.uniform(0.1, 3.0, size=(12, 1))
        ys = np.asarray(mm_bundle.model.mu(xs, np.array([0.8, 2.0]))) + rng.normal(
            0, 0.3, size=12
        )
        batch = DataBatch(xs, ys)
        fit = fit_ls(batch, mm_bundle.model, mm_bundle.parameter_space)
        assert fit.sse_value <= sse(batch, fit.grid_minimum, mm_bundle.model) + 1e-12


def test_response_shift_moves_intercept_only(poly1_bundle, rng):
    xs = rng.uniform(-1.0, 1.0, size=(15, 1))
    ys = 0.3 + 0.7 * xs[:, 0] + rng.normal(0, 0.05, size=15)
    c = 0.25
    fit1 = fit_ls(DataBatch(xs, ys), poly1_bundle.model, poly1_bundle.parameter_space)
    fit2 = fit_ls(DataBatch(xs, ys + c), poly1_bundle.model, poly1_bundle.parameter_space)
    assert fit2.theta_hat[0] - fit1.theta_hat[0] == pytest.approx(c, abs=1e-8)
    assert fit2.theta_hat[1] == pytest.approx(fit1.theta_hat[1], abs=1e-8)


def test_warm_start_only_helps(mm_bundle, rng):
    xs = rng.uniform(0.1, 3.0, size=(10, 1))
    theta_bar = np.array([1.0, 1.0])
    ys = np.asarray(mm_bundle.model.mu(xs, theta_bar)) + rng.normal(0, 0.1, size=10)
    batch = DataBatch(xs, ys)
    plain = fit_ls(batch, mm_bundle.model, mm_bundle.parameter_space)
    warm = fit_ls(
        batch, mm_bundle.model, mm_bundle.parameter_space, warm_start=theta_bar
    )
    assert warm.sse_value <= plain.sse_value + 1e-12


def test_fit_failure_on_nonfinite():
    from adwynn.errors import FitFailureError
    from adwynn.model import ModelSpec

    def bad_mu(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return np.full(np.broadcast_shapes(x0.shape, th[..., 0].shape), np.nan)

    def bad_f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return np.full(np.broadcast_shapes(x0.shape, th[..., 0].shape) + (1,), np.nan)

    model = ModelSpec("bad", 1, bad_mu, bad_f)
    batch = DataBatch(np.array([[0.5]]), np.array([1.0]))
    with pytest.raises(FitFailureError):
        fit_ls(batch, model, ParameterSpace([0.0], [1.0]))


# ---------------------------------------------------------------- SequentialLS


def test_sequential_matches_batch_fit(mm_bundle, rng):
    xs = rng.uniform(0.1, 3.0, size=(25, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.2, 0.8]))) + rng.normal(
        0, 0.1, size=25
    )
    seq = SequentialLS(mm_bundle.model, mm_bundle.parameter_space)
    for x, y in zip(xs, ys):
        seq.update(x, float(y))
    fit_seq = seq.estimate()
    fit_batch = fit_ls(DataBatch(xs, ys), mm_bundle.model, mm_bundle.parameter_space)
    assert np.linalg.norm(fit_seq.theta_hat - fit_batch.theta_hat) <= 1e-9
    assert fit_seq.sse_value == pytest.approx(fit_batch.sse_value, rel=1e-12)


def test_sequential_incremental_grid_sums(mm_bundle, rng):
    seq = SequentialLS(mm_bundle.model, mm_bundle.parameter_space, FitConfig())
    xs = rng.uniform(0.1, 3.0, size=(40, 1))
    ys = rng.normal(0.5, 0.2, size=40)
    for x, y in zip(xs, ys):
        seq.update(x, float(y))
    batch = DataBatch(xs, ys)
    for g_idx in (0, 57, 224):
        theta = seq.theta_grid[g_idx]
        assert seq.grid_sse[g_idx] == pytest.approx(
            sse(batch, theta, mm_bundle.model), rel=1e-10
        )


def test_sequential_warm_start_is_used(mm_bundle):
    batch_theta = np.array([1.0, 1.0])
    seq = SequentialLS(mm_bundle.model, mm_bundle.parameter_space)
    xs = np.linspace(0.1, 3.0, 12)[:, None]
    ys = np.asarray(mm_bundle.model.mu(xs, batch_theta))
    for x, y in zip(xs, ys):
        seq.update(x, float(y))
    first = seq.estimate()
    assert seq.previous is not None
    seq.update(np.array([1.5]), float(mm_bundle.model.mu(np.array([1.5]), batch_theta)))
    second = seq.estimate()
    assert np.linalg.norm(second.theta_hat - batch_theta) <= 1e-6
    assert np.linalg.norm(first.theta_hat - batch_theta) <= 1e-6


# ---------------------------------------------------------------- stopping rule


class _CountingModel:
    """Wraps a ModelSpec so the calls of mu and f can be counted."""

    def __init__(self, model):
        self.mu_calls = 0
        self.f_calls = 0

        def mu(x, theta):
            self.mu_calls += 1
            return model.mu(x, theta)

        def f(x, theta):
            self.f_calls += 1
            return model.f(x, theta)

        self.spec = replace(model, mu=mu, f=f)

    def reset(self):
        self.mu_calls = self.f_calls = 0


def _mm_noisy_batch(mm_bundle, rng, n=60, sigma=0.1):
    xs = rng.uniform(0.1, 3.0, size=(n, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 1.0]))) + rng.normal(0, sigma, n)
    return xs, ys


def test_descent_from_optimum_stops_at_once(mm_bundle, rng):
    xs, ys = _mm_noisy_batch(mm_bundle, rng)
    fit = fit_ls(DataBatch(xs, ys), mm_bundle.model, mm_bundle.parameter_space)
    assert fit.converged
    counting = _CountingModel(mm_bundle.model)
    theta, value, converged = _gauss_newton(
        xs, ys, counting.spec, mm_bundle.parameter_space, fit.theta_hat, FitConfig()
    )
    # one SSE at the seed and one residual for the step; no line search
    assert counting.mu_calls <= 2
    assert converged
    assert np.array_equal(theta, fit.theta_hat)
    assert value == fit.sse_value


def test_sequential_refits_are_cheap_along_a_run(mm_bundle):
    from adwynn.adaptive import Scenario, WynnConfig, simulate_trajectory
    from adwynn.noise import IIDGaussian

    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=2000),
    )
    traj = simulate_trajectory(scenario, seed=20)
    assert traj.final_fit.converged
    # replay the run's data: the refits see exactly the loop's data and warm starts
    counting = _CountingModel(mm_bundle.model)
    seq = SequentialLS(counting.spec, mm_bundle.parameter_space)
    sse_evals = mu_calls = refits = unconverged = 0
    for i, (x, y) in enumerate(zip(traj.points, traj.responses)):
        seq.update(x, float(y))
        if i + 1 < traj.n_start:
            continue
        counting.reset()
        fit = seq.estimate()
        # an accepted trial's residual feeds the next iteration's f, so mu beyond f
        # counts the rejected line-search trials and a scan-winner seed's SSE
        sse_evals += counting.mu_calls - counting.f_calls
        mu_calls += counting.mu_calls
        refits += 1
        unconverged += not fit.converged
        assert np.array_equal(fit.theta_hat, traj.estimates[i + 1 - traj.n_start])
    assert refits == 2000 - traj.n_start + 1
    assert sse_evals / refits <= 6.0
    # the seed's objective is computed once, for the choice of seed (3.12 measured)
    assert mu_calls / refits <= 3.5
    assert unconverged == 0


def _bad_gradient(value, column):
    """Column(s) of f set to value: inf or nan enters G and g."""

    def wrap(model):
        def f(x, theta):
            F = np.array(model.f(x, theta), dtype=float)
            F[..., column] = value
            return F

        return replace(model, f=f)

    return wrap


_nan_gradient = _bad_gradient(math.nan, slice(None))


def _uphill_gradient(model):
    """f negated: the Gauss-Newton step then points uphill."""

    def f(x, theta):
        return -np.asarray(model.f(x, theta), dtype=float)

    return replace(model, f=f)


@pytest.mark.parametrize(
    "broken,config",
    [
        (_nan_gradient, FitConfig()),
        (_uphill_gradient, FitConfig()),
        (lambda model: model, FitConfig(max_iterations=1)),
        (_bad_gradient(math.inf, 0), FitConfig()),
        (_bad_gradient(-math.inf, 1), FitConfig()),
        (_bad_gradient(math.nan, 1), FitConfig()),
    ],
    ids=["nonfinite-step", "line-search-exhausted", "max-iterations",
         "inf-in-G", "minus-inf-in-G", "nan-in-G"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_stop_is_not_converged(poly1_bundle, rng, broken, config):
    xs = rng.uniform(-1.0, 1.0, size=(20, 1))
    ys = 0.5 - 1.0 * xs[:, 0] + rng.normal(0, 0.1, 20)
    # a start near the optimum keeps every uphill candidate inside the box
    theta0 = np.array([0.45, -0.95])
    model = broken(poly1_bundle.model)
    theta, value, converged = _gauss_newton(
        xs, ys, model, poly1_bundle.parameter_space, theta0, config
    )
    assert not converged
    assert value <= sse(DataBatch(xs, ys), theta0, poly1_bundle.model)


def test_fit_matches_profiled_reference(mm_bundle, rng):
    """theta_hat against an independent minimizer: a dense scan in theta2 of
    the SSE profiled over theta1 (mu is linear in theta1), refined by
    bisection on the profile's derivative, then the KKT check at theta_hat.

    A line search that compares SSE values cannot place theta_hat closer
    than the SSE resolves: along the flat valley of these designs a move
    of 1e-8 changes the SSE by about one rounding error.  So theta_hat is
    held to the reference's SSE within 1e-14 relative, and to its
    position within 2e-7, just above the worst distance (9.3e-8) seen
    over forty such batches."""
    space = mm_bundle.parameter_space
    for _ in range(5):
        xs, ys = _mm_noisy_batch(mm_bundle, rng, n=80, sigma=0.2)
        x = xs[:, 0]
        batch = DataBatch(xs, ys)
        fit = fit_ls(batch, mm_bundle.model, space)
        assert fit.converged

        def profile(t2):
            h = x / (t2 + x)
            t1 = float(np.clip((h @ ys) / (h @ h), space.lower[0], space.upper[0]))
            r = ys - t1 * h
            # envelope theorem: the theta2 partial of the SSE at the profiled theta1
            return t1, float(r @ r), float(2.0 * t1 * (r @ (x / (t2 + x) ** 2)))

        t2_grid = np.linspace(space.lower[1], space.upper[1], 2001)
        values = [profile(t)[1] for t in t2_grid]
        k = int(np.argmin(values))
        assert 0 < k < len(t2_grid) - 1  # interior optimum for these data
        lo, hi = t2_grid[k - 1], t2_grid[k + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if profile(mid)[2] < 0:
                lo = mid
            else:
                hi = mid
        theta_ref = np.array([profile(0.5 * (lo + hi))[0], 0.5 * (lo + hi)])
        sse_ref = sse(batch, theta_ref, mm_bundle.model)
        assert fit.sse_value <= min(values) * (1 + 1e-12)
        assert fit.sse_value - sse_ref <= 1e-14 * sse_ref
        assert np.linalg.norm(fit.theta_hat - theta_ref) <= 2e-7
        # KKT in the Gauss-Newton metric: the decrement g.G^-1.g left at theta_hat
        F = np.asarray(mm_bundle.model.f(xs, fit.theta_hat))
        g = F.T @ (ys - np.asarray(mm_bundle.model.mu(xs, fit.theta_hat)))
        assert g @ np.linalg.solve(F.T @ F, g) <= 1e-14 * fit.sse_value


def test_boundary_minimum_is_reached_and_converged(poly1_bundle, mm_bundle, rng):
    """Minima on the box boundary: the held coordinate stays at its bound,
    the free one reaches its constrained optimum, and the descent stops on
    the stationarity test instead of an exhausted line search."""
    poly_space = poly1_bundle.parameter_space
    xs = rng.uniform(-1.0, 1.0, size=(30, 1))
    ys = 0.5 + 3.0 * xs[:, 0] + rng.normal(0, 0.1, 30)  # slope 3 > box bound 2
    counting = _CountingModel(poly1_bundle.model)
    fit = fit_ls(DataBatch(xs, ys), counting.spec, poly_space)
    assert fit.converged
    assert fit.theta_hat[1] == poly_space.upper[1]
    # with the slope held at 2 the intercept's optimum is the mean residual
    assert fit.theta_hat[0] == pytest.approx(np.mean(ys - 2.0 * xs[:, 0]), abs=1e-12)
    assert counting.mu_calls - counting.f_calls <= 10  # no 40-halving line search

    mm_space = mm_bundle.parameter_space
    xs = rng.uniform(0.1, 3.0, size=(40, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 0.1]))) + rng.normal(0, 0.05, 40)
    batch = DataBatch(xs, ys)
    fit = fit_ls(batch, mm_bundle.model, mm_space)
    assert fit.converged
    assert fit.theta_hat[1] == mm_space.lower[1]  # theta2 = 0.1 lies below the box
    # mu is linear in theta1: its optimum at the held theta2 in closed form
    h = xs[:, 0] / (mm_space.lower[1] + xs[:, 0])
    assert fit.theta_hat[0] == pytest.approx((h @ ys) / (h @ h), abs=1e-12)
    dense = mm_space.sample_grid(60)
    assert fit.sse_value <= min(sse(batch, t, mm_bundle.model) for t in dense)


# ---------------------------------------------------------------- grouped data


def _repeated_batch(bundle, rng, n=300, support=7, sigma=0.1):
    """n observations on `support` distinct points of the default region."""
    lo, hi = float(bundle.design_space.lower[0]), float(bundle.design_space.upper[0])
    xs = rng.choice(np.linspace(lo, hi, support), size=n)[:, None]
    theta = bundle.parameter_space.center()
    ys = np.asarray(bundle.model.mu(xs, theta)) + rng.normal(0, sigma, n)
    return xs, ys


def test_grouped_data_statistics(mm_bundle, rng):
    xs, ys = _repeated_batch(mm_bundle, rng)
    incremental = GroupedData()
    for x, y in zip(xs, ys):
        incremental.add(x, float(y))
    batch = GroupedData.from_arrays(xs, ys)
    # points in order of first appearance
    _, first = np.unique(xs[:, 0], return_index=True)
    expected_points = xs[np.sort(first)]
    for data in (incremental, batch):
        assert data.n == xs.shape[0] and data.size == expected_points.shape[0]
        assert np.array_equal(data.points, expected_points)
        for point, count, mean in zip(data.points, data.counts, data.means):
            group = ys[xs[:, 0] == point[0]]
            assert count == group.size
            assert mean == pytest.approx(group.mean(), rel=1e-13)
        within = sum(((ys[xs[:, 0] == p[0]] - ys[xs[:, 0] == p[0]].mean()) ** 2).sum()
                     for p in data.points)
        assert data.within_ss == pytest.approx(within, rel=1e-12)
    # a grouped batch keeps growing like one built point by point
    batch.add(np.array([0.123]), 1.5)
    batch.add(xs[0], 2.0)
    assert batch.size == incremental.size + 1 and batch.n == incremental.n + 2
    assert batch.points[-1, 0] == 0.123 and batch.means[-1] == 1.5


def test_grouped_data_of_distinct_points_is_the_data(mm_bundle, rng):
    xs = rng.uniform(0.1, 3.0, size=(50, 1))
    ys = rng.normal(0.5, 0.2, size=50)
    incremental = GroupedData()
    for x, y in zip(xs, ys):
        incremental.add(x, float(y))
    for data in (incremental, GroupedData.from_arrays(xs, ys)):
        assert np.array_equal(data.points, xs) and np.array_equal(data.means, ys)
        assert np.all(data.counts == 1.0) and data.within_ss == 0.0


def test_grouped_objective_equals_raw_sse(mm_bundle, rng):
    theta_grid = mm_bundle.parameter_space.sample_grid(7)
    xs, ys = _repeated_batch(mm_bundle, rng)
    data = GroupedData.from_arrays(xs, ys)
    raw = ((ys[None, :] - mm_bundle.model.mu(xs[None], theta_grid[:, None, :])) ** 2).sum(axis=1)
    np.testing.assert_allclose(_grid_sse(data, mm_bundle.model, theta_grid), raw, rtol=1e-12)
    for theta in theta_grid[::5]:
        _, value = _residual(
            data.points, data.means, mm_bundle.model, theta, data.counts, data.within_ss
        )
        assert value == pytest.approx(sse(DataBatch(xs, ys), theta, mm_bundle.model), rel=1e-12)
    # all points distinct: the grouped scan is the raw one, bit for bit
    xs = rng.uniform(0.1, 3.0, size=(40, 1))
    data = GroupedData.from_arrays(xs, ys[:40])
    raw = ((ys[None, :40] - mm_bundle.model.mu(xs[None], theta_grid[:, None, :])) ** 2).sum(axis=1)
    assert np.array_equal(_grid_sse(data, mm_bundle.model, theta_grid), raw)


@pytest.mark.parametrize("name,kwargs", [("michaelis_menten", {}), ("exponential_decay", {})])
def test_fit_on_grouped_data_matches_raw_descent(name, kwargs, rng):
    bundle = builtin_bundle(name, **kwargs)
    space = bundle.parameter_space
    for n, support in ((2000, None), (400, 9)):
        if support is None:  # distinct points: the same bits as the raw descent
            xs = rng.uniform(float(bundle.design_space.lower[0]),
                             float(bundle.design_space.upper[0]), size=(n, 1))
            ys = np.asarray(bundle.model.mu(xs, space.center())) + rng.normal(0, 0.1, n)
        else:
            xs, ys = _repeated_batch(bundle, rng, n=n, support=support)
        fit = fit_ls(DataBatch(xs, ys), bundle.model, space)
        theta, value, converged = _gauss_newton(xs, ys, bundle.model, space,
                                                fit.grid_minimum, FitConfig())
        assert converged == fit.converged
        if support is None:
            assert np.array_equal(fit.theta_hat, theta) and fit.sse_value == value
        else:
            assert np.linalg.norm(fit.theta_hat - theta) <= 1e-7
            assert fit.sse_value == pytest.approx(value, rel=1e-12)


def test_descent_from_a_known_start_skips_its_evaluation(mm_bundle, rng):
    xs, ys = _repeated_batch(mm_bundle, rng)
    data = GroupedData.from_arrays(xs, ys)
    counting = _CountingModel(mm_bundle.model)
    args = (data.points, data.means, counting.spec, mm_bundle.parameter_space,
            np.array([1.5, 1.5]), FitConfig())
    weighted = {"weights": data.counts, "offset": data.within_ss}
    plain = _gauss_newton(*args, **weighted)
    plain_calls = counting.mu_calls
    counting.reset()
    start = _residual(data.points, data.means, mm_bundle.model, args[4], **weighted)
    known = _gauss_newton(*args, start=start, **weighted)
    assert counting.mu_calls == plain_calls - 1
    assert np.array_equal(plain[0], known[0]) and plain[1:] == known[1:]


# ---------------------------------------------------------------- small-p kernel


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1, 2]),
    log_cond=st.floats(0.0, 10.0),
    angle=st.floats(0.0, math.pi),
    log_scale=st.floats(-6.0, 6.0),
    g=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).filter(lambda v: any(v)),
)
def test_closed_form_solve_matches_lapack(p, log_cond, angle, log_scale, g):
    """The p = 1 division and the p = 2 Cramer's rule against LAPACK, on SPD
    matrices with condition numbers up to 1e10.  Each solves the system to a
    backward error within 1e-12.  Two stable solvers differ by up to a few
    cond * eps in the solution (1.6 cond * eps seen over 20 000 random
    matrices), so the solutions are held to 1e-12 relative where that is
    larger, and to 4 cond * eps beyond."""
    c, s = math.cos(angle), math.sin(angle)
    Q = np.array([[c, -s], [s, c]])
    G = 10.0**log_scale * (Q * np.array([1.0, 10.0**-log_cond])) @ Q.T
    G = (0.5 * (G + G.T))[:p, :p]
    g = np.array(g[:p])
    if p == 1 and g[0] == 0.0:
        g[0] = 1.0
    x = np.array(_solve(G, g))
    reference = np.linalg.solve(G, g)
    cond = np.linalg.cond(G)
    eps = np.finfo(float).eps
    scale = np.linalg.norm(reference)
    assert np.linalg.norm(x - reference) <= max(1e-12, 4.0 * cond * eps) * scale
    assert np.linalg.norm(G @ x - g) <= 1e-12 * np.linalg.norm(G, 2) * np.linalg.norm(x)


@pytest.mark.parametrize(
    "G,g,expected",
    [
        ([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0], [0.2, 0.4]),  # minimum-norm solution
        ([[0.0]], [1.0], [0.0]),
    ],
    ids=["p2", "p1"],
)
def test_singular_system_takes_the_lstsq_fallback(monkeypatch, G, g, expected):
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    x = _solve(np.array(G), np.array(g))
    assert len(calls) == 1
    assert x == pytest.approx(expected, abs=1e-15)


def test_line_search_clip_lands_exactly_on_the_bound(poly1_bundle, mm_bundle, rng):
    """The boundary-minimum cases above, descended from the box's centre:
    every iterate lies in the box, and a candidate beyond a bound is clipped
    onto it exactly, where the coordinate then stays."""
    poly_xs = rng.uniform(-1.0, 1.0, size=(30, 1))
    poly_ys = 0.5 + 3.0 * poly_xs[:, 0] + rng.normal(0, 0.1, 30)
    mm_xs = rng.uniform(0.1, 3.0, size=(40, 1))
    mm_ys = np.asarray(mm_bundle.model.mu(mm_xs, np.array([1.0, 0.1]))) + rng.normal(0, 0.05, 40)
    cases = [
        (poly1_bundle, poly_xs, poly_ys, 1, poly1_bundle.parameter_space.upper[1]),
        (mm_bundle, mm_xs, mm_ys, 1, mm_bundle.parameter_space.lower[1]),
    ]
    for bundle, xs, ys, j, bound in cases:
        space = bundle.parameter_space
        trace = []
        _, _, converged = _gauss_newton(
            xs, ys, bundle.model, space, space.center(), FitConfig(), trace
        )
        assert converged
        path = np.array([theta for theta, _ in trace])
        assert np.all(path >= space.lower) and np.all(path <= space.upper)
        first = int(np.argmax(path[:, j] == bound))
        assert first > 0 and np.all(path[first:, j] == bound)


@pytest.mark.parametrize(
    "grid_over_warm,warm_kept",
    [(math.nextafter(1.0, 2.0), True), (1.0, True), (1.0 + 1e-12, False)],
    ids=["one-ulp", "equal", "grid-lower"],
)
def test_fit_keeps_the_warm_start_on_a_rounding_tie(mm_bundle, rng, monkeypatch,
                                                   grid_over_warm, warm_kept):
    """The warm-start endpoint is returned unless the grid-seeded one is lower
    by more than a relative WARM_START_RTOL."""
    xs, ys = _mm_noisy_batch(mm_bundle, rng)
    warm_value = 0.6118268606720063
    grid_end = (np.array([1.0, 1.0]), warm_value / grid_over_warm, True)
    warm_end = (np.array([1.0 + 1e-8, 1.0]), warm_value, False)
    endpoints = iter([grid_end, warm_end])
    monkeypatch.setattr(estimator, "_descend", lambda *args, **kwargs: next(endpoints))
    fit = fit_ls(DataBatch(xs, ys), mm_bundle.model, mm_bundle.parameter_space,
                 warm_start=np.array([1.0, 1.0]))
    kept = warm_end if warm_kept else grid_end
    assert np.array_equal(fit.theta_hat, kept[0])
    assert (fit.sse_value, fit.converged) == kept[1:]
