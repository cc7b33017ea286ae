from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adwynn.estimator as estimator
from adwynn.errors import DomainError
from adwynn.estimator import (
    DataBatch,
    GroupedData,
    LSAdaptiveEstimator,
    LSFit,
    _gauss_newton,
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


def _grouped(xs, ys):
    """Group (n, k) points and their n responses, one ``add`` each, in order."""
    data = GroupedData()
    for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float).tolist()):
        data.add(x, y)
    return data


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
    assert fit.sigma2_hat == pytest.approx(fit.sse_value / batch.ys.shape[0])


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
    """The SSE falls strictly along the iterates of the fit and of descents
    from the box's corners, read off the f calls: the descent calls f once
    at each iterate.  From some corner the line search halves a step (more
    trials than iterations)."""
    xs = rng.uniform(0.1, 3.0, size=(20, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 1.0]))) + rng.normal(
        0, 0.2, size=20
    )
    batch, space = DataBatch(xs, ys), mm_bundle.parameter_space
    counting = _CountingModel(mm_bundle.model)
    runs = [(fit_ls(batch, counting.spec, space).sse_value, counting)]
    for corner in itertools.product(*zip(space.lower, space.upper)):
        counting = _CountingModel(mm_bundle.model)
        descent = _gauss_newton(_grouped(xs, ys), counting.spec, space, np.array(corner))
        runs.append((descent[1], counting))
    # fit_ls's scan makes mu calls of its own, so the halving is read off the corners
    assert any(c.mu_calls > c.f_calls + 1 for _, c in runs[1:])
    for final, counting in runs:
        values = [sse(batch, theta, mm_bundle.model) for theta in counting.f_thetas]
        assert len(values) >= 2
        assert all(b < a for a, b in zip(values, values[1:]))
        assert final <= values[-1]


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
    """The fit is never worse than its better seed: the warm start or the scan winner."""
    space = mm_bundle.parameter_space
    theta_bar = np.array([1.0, 1.0])
    for warm_start in (theta_bar, np.array([2.9, 0.2]), np.array([0.3, 2.5])):
        xs = rng.uniform(0.1, 3.0, size=(10, 1))
        ys = np.asarray(mm_bundle.model.mu(xs, theta_bar)) + rng.normal(0, 0.1, size=10)
        batch = DataBatch(xs, ys)
        fit = fit_ls(batch, mm_bundle.model, space, warm_start=warm_start)
        scan_minimum = min(sse(batch, t, mm_bundle.model) for t in space.sample_grid(15))
        best_seed = min(sse(batch, warm_start, mm_bundle.model), scan_minimum)
        assert fit.sse_value <= best_seed * (1 + 1e-12)


@pytest.mark.parametrize(
    "warm_start,message",
    [
        (np.array([1.0, 1.0, 1.0]), "warm_start: expected a parameter in R^2"),
        (np.array([1.0, np.nan]), "warm_start must be finite"),
        (np.array([np.inf, 1.0]), "warm_start must be finite"),
    ],
    ids=["wrong-shape", "nan", "inf"],
)
def test_bad_warm_start_fails_at_the_boundary(mm_bundle, rng, warm_start, message):
    xs, ys = _mm_noisy_batch(mm_bundle, rng, n=10)
    with pytest.raises(DomainError, match=re.escape(message)):
        fit_ls(DataBatch(xs, ys), mm_bundle.model, mm_bundle.parameter_space,
               warm_start=warm_start)


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


# ---------------------------------------------------------------- LSAdaptiveEstimator


@pytest.mark.parametrize("warm", [None, "inside", "outside"])
@pytest.mark.parametrize("points", ["distinct", "repeated"])
def test_sequential_matches_batch_fit(mm_bundle, rng, points, warm):
    """fit_ls is the one estimate of an estimator fed the same data in order,
    its warm start (projected into the box) set as the last estimate: every
    field of the fit equal, bit for bit.  The data put the minimum on the
    box's lower theta2 bound; the warm starts lie near the fit's estimate,
    one of them below that bound, which it projects back onto, and each
    seeds the descent."""
    space = mm_bundle.parameter_space
    if points == "distinct":
        xs = rng.uniform(0.1, 3.0, size=(40, 1))
    else:
        xs = rng.choice(np.linspace(0.1, 3.0, 7), size=80)[:, None]
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 0.1]))) + rng.normal(
        0, 0.05, xs.shape[0]
    )
    batch = DataBatch(xs, ys)
    warm_start = None
    if warm is not None:
        shift = np.array([0.01, -1.0 if warm == "outside" else 0.0])
        warm_start = fit_ls(batch, mm_bundle.model, space).theta_hat + shift
    seq = LSAdaptiveEstimator(mm_bundle.model, space)
    if warm_start is not None:
        seq.previous = space.project(warm_start)
    for x, y in zip(xs, ys):
        seq.update(x, float(y))
    if warm_start is not None:
        assert _residual(seq.data, mm_bundle.model, seq.previous)[2] < seq.grid_sse.min()
    fit_seq = seq.estimate()
    fit_batch = fit_ls(batch, mm_bundle.model, space, warm_start=warm_start)
    for field in dataclasses.fields(LSFit):
        assert np.array_equal(getattr(fit_seq, field.name), getattr(fit_batch, field.name))


def test_sequential_incremental_grid_sums(mm_bundle, rng):
    seq = LSAdaptiveEstimator(mm_bundle.model, mm_bundle.parameter_space)
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
    seq = LSAdaptiveEstimator(mm_bundle.model, mm_bundle.parameter_space)
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
    """Wraps a ModelSpec so the calls of mu and f can be counted; ``mu_thetas``
    and ``f_thetas`` hold the parameter of each call."""

    def __init__(self, model):
        self.mu_calls = 0
        self.f_calls = 0
        self.mu_thetas = []
        self.f_thetas = []

        def mu(x, theta):
            self.mu_calls += 1
            self.mu_thetas.append(np.array(theta, dtype=float))
            return model.mu(x, theta)

        def f(x, theta):
            self.f_calls += 1
            self.f_thetas.append(np.array(theta, dtype=float))
            return model.f(x, theta)

        self.spec = replace(model, mu=mu, f=f)

    def reset(self):
        self.mu_calls = self.f_calls = 0
        self.mu_thetas.clear()
        self.f_thetas.clear()


def _mm_noisy_batch(mm_bundle, rng, n=60, sigma=0.1):
    xs = rng.uniform(0.1, 3.0, size=(n, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 1.0]))) + rng.normal(0, sigma, n)
    return xs, ys


def test_descent_from_optimum_stops_at_once(mm_bundle, rng):
    xs, ys = _mm_noisy_batch(mm_bundle, rng)
    fit = fit_ls(DataBatch(xs, ys), mm_bundle.model, mm_bundle.parameter_space)
    assert fit.converged
    counting = _CountingModel(mm_bundle.model)
    theta, value, converged, _, _ = _gauss_newton(
        _grouped(xs, ys), counting.spec, mm_bundle.parameter_space, fit.theta_hat
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
    seq = LSAdaptiveEstimator(counting.spec, mm_bundle.parameter_space)
    sse_evals = mu_calls = refits = unconverged = 0
    for i, (x, y) in enumerate(zip(traj.points, traj.responses)):
        seq.update(x, float(y))
        if i + 1 < traj.n_start:
            continue
        counting.reset()
        fit = seq.estimate()
        # an accepted trial's residual feeds the next iteration's f, so mu beyond f
        # counts the rejected line-search trials and a scan-winner seed's SSE, less
        # one for the last iteration, which makes no trial (-1.00 measured)
        sse_evals += counting.mu_calls - counting.f_calls
        mu_calls += counting.mu_calls
        refits += 1
        unconverged += not fit.converged
        assert np.array_equal(fit.theta_hat, traj.estimates[i + 1 - traj.n_start])
    assert refits == 2000 - traj.n_start + 1
    assert sse_evals / refits <= 6.0
    # a warm start's objective reads the kept mu, so mu runs once per trial
    # and at a scan-winner seed (2.12 measured; 3.12 when each seed's objective
    # made a call)
    assert mu_calls / refits <= 3.5
    assert unconverged == 0


@pytest.mark.parametrize("name", ["michaelis_menten", "exponential_decay"])
def test_a_warm_refit_calls_f_per_later_iteration_and_mu_per_trial(name, monkeypatch):
    """The loop's refits, replayed.  A refit seeded at the warm start
    makes no model call for its seed or its first iteration.  Its iterations
    are counted by the steps it solves, and its line-search trials are
    rebuilt from those steps by the halving rule: the mu calls are exactly
    the trials, and the f calls exactly the iterates after the first.  An
    observation at a new point makes one mu call and one f call at the last
    estimate, on that point alone, besides the scan's mu; a repeated point
    makes none; and the kept mu and f are mu and f on the support at the
    last estimate."""
    bundle = builtin_bundle(name)
    model, space = bundle.model, bundle.parameter_space
    from adwynn.adaptive import Scenario, WynnConfig, simulate_trajectory
    from adwynn.noise import IIDGaussian

    traj = simulate_trajectory(Scenario(model, bundle.design_space, space, space.center(),
                                        IIDGaussian(0.1), WynnConfig(n_max=150)), 7)
    steps, nested = [], []
    solve, bounded_step = estimator._solve, estimator._bounded_step

    def recorded_bounded_step(*args):
        nested.append(True)
        steps.append(bounded_step(*args))
        nested.pop()
        return steps[-1]

    def recorded_solve(G, g):
        step = solve(G, g)
        if not nested:
            steps.append(step)
        return step

    monkeypatch.setattr(estimator, "_solve", recorded_solve)
    monkeypatch.setattr(estimator, "_bounded_step", recorded_bounded_step)
    counting = _CountingModel(model)
    seq = LSAdaptiveEstimator(counting.spec, space)
    lower, upper = space.lower.tolist(), space.upper.tolist()

    def objective(theta):
        return _residual(seq.data, model, np.array(theta))[2]

    warm_refits = 0
    for i, (x, y) in enumerate(zip(traj.points, traj.responses.tolist()), 1):
        counting.reset()
        support = seq.data.size
        seq.update(x, y)
        grew = seq.data.size > support
        assert counting.mu_calls == grew * (1 + (seq.previous is not None))
        assert counting.f_calls == grew * (seq.previous is not None)
        if seq.previous is not None:
            assert [theta.tolist() for theta in counting.mu_thetas[1:]] == (
                [seq.previous.tolist()] if grew else [])
            assert [theta.tolist() for theta in counting.f_thetas] == (
                [seq.previous.tolist()] if grew else [])
            assert np.array_equal(seq.mu, np.asarray(model.mu(seq.data.points, seq.previous)))
            assert np.array_equal(seq.f, np.asarray(model.f(seq.data.points, seq.previous)))
        if i < traj.n_start:
            continue
        previous = seq.previous
        warm = previous is not None and objective(previous) < seq.grid_sse.min()
        counting.reset()
        steps.clear()
        fit = seq.estimate()
        assert np.array_equal(fit.theta_hat, traj.estimates[i - traj.n_start])
        if warm:
            warm_refits += 1
            t, value, trial, iterates = previous.tolist(), objective(previous), 0, []
            for step in steps:
                if trial == counting.mu_calls:  # a stop before the line search
                    break
                for halvings in range(estimator.MAX_HALVINGS):
                    cand = [min(max(tj + 0.5**halvings * sj, lo), hi)
                            for tj, sj, lo, hi in zip(t, step, lower, upper)]
                    assert counting.mu_thetas[trial].tolist() == cand
                    trial += 1
                    if objective(cand) < value:
                        t, value = cand, objective(cand)
                        iterates.append(cand)
                        break
            assert trial == counting.mu_calls
            assert counting.f_calls == len(steps) - 1
            assert [theta.tolist() for theta in counting.f_thetas] == iterates[:len(steps) - 1]
        assert np.array_equal(seq.mu, np.asarray(model.mu(seq.data.points, fit.theta_hat)))
        assert np.array_equal(seq.f, np.asarray(model.f(seq.data.points, fit.theta_hat)))
    assert warm_refits >= 0.9 * len(traj.estimates)


def test_update_keeps_non_finite_scan_terms_infinite():
    """A model whose mean is NaN at some scan parameters: the grid objective
    is inf there after the first observation at a point and after a repeat
    (whose scan mean is cached), and finite everywhere else."""
    bundle = builtin_bundle("michaelis_menten")

    def mu(x, theta):
        value = np.asarray(bundle.model.mu(x, theta), dtype=float)
        return np.where(np.asarray(theta)[..., 1] > 2.5, np.nan, value)

    seq = LSAdaptiveEstimator(replace(bundle.model, mu=mu), bundle.parameter_space)
    undefined = seq.theta_grid[:, 1] > 2.5
    assert undefined.any() and not undefined.all()
    for x, y in ((1.0, 0.5), (1.0, 0.6), (2.0, 0.7)):
        seq.update(np.array([x]), y)
        assert np.all(seq.grid_sse[undefined] == np.inf)
        assert np.all(np.isfinite(seq.grid_sse[~undefined]))


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
    "broken,max_iterations",
    [
        (_nan_gradient, estimator.MAX_ITERATIONS),
        (_uphill_gradient, estimator.MAX_ITERATIONS),
        (lambda model: model, 1),
        (_bad_gradient(math.inf, 0), estimator.MAX_ITERATIONS),
        (_bad_gradient(-math.inf, 1), estimator.MAX_ITERATIONS),
        (_bad_gradient(math.nan, 1), estimator.MAX_ITERATIONS),
    ],
    ids=["nonfinite-step", "line-search-exhausted", "max-iterations",
         "inf-in-G", "minus-inf-in-G", "nan-in-G"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_stop_is_not_converged(poly1_bundle, rng, monkeypatch, broken, max_iterations):
    monkeypatch.setattr(estimator, "MAX_ITERATIONS", max_iterations)
    xs = rng.uniform(-1.0, 1.0, size=(20, 1))
    ys = 0.5 - 1.0 * xs[:, 0] + rng.normal(0, 0.1, 20)
    # a start near the optimum keeps every uphill candidate inside the box
    theta0 = np.array([0.45, -0.95])
    model = broken(poly1_bundle.model)
    data = _grouped(xs, ys)
    theta, value, converged, mu, f = _gauss_newton(data, model, poly1_bundle.parameter_space,
                                                   theta0)
    assert not converged
    assert value <= sse(DataBatch(xs, ys), theta0, poly1_bundle.model)
    # at every stop, the returned mu and f are those at the returned theta
    assert np.array_equal(mu, model.mu(data.points, theta))
    assert np.array_equal(f, model.f(data.points, theta), equal_nan=True)


def test_a_descent_cut_after_a_move_returns_f_at_its_last_iterate(mm_bundle, rng,
                                                                  monkeypatch):
    """A descent that stops right after a move, here cut by MAX_ITERATIONS
    = 1, calls f once more, at the iterate it returns, and returns that f."""
    monkeypatch.setattr(estimator, "MAX_ITERATIONS", 1)
    xs, ys = _mm_noisy_batch(mm_bundle, rng)
    data, space = _grouped(xs, ys), mm_bundle.parameter_space
    counting = _CountingModel(mm_bundle.model)
    theta0 = space.center()
    theta, _, converged, mu, f = _gauss_newton(data, counting.spec, space, theta0)
    assert not converged and not np.array_equal(theta, theta0)
    assert [t.tolist() for t in counting.f_thetas] == [theta0.tolist(), theta.tolist()]
    assert np.array_equal(mu, mm_bundle.model.mu(data.points, theta))
    assert np.array_equal(f, mm_bundle.model.f(data.points, theta))


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


def test_boundary_minimum_is_reached_and_converged(poly1_bundle, mm_bundle, rng, monkeypatch):
    """Minima on the box boundary: the held coordinate stays at its bound,
    the free one reaches its constrained optimum, and the descent stops on
    the stationarity test instead of an exhausted line search.  The model
    calls are counted inside the descent only: the scan's come before it."""
    poly_space = poly1_bundle.parameter_space
    xs = rng.uniform(-1.0, 1.0, size=(30, 1))
    ys = 0.5 + 3.0 * xs[:, 0] + rng.normal(0, 0.1, 30)  # slope 3 > box bound 2
    counting = _CountingModel(poly1_bundle.model)
    descend = estimator._gauss_newton

    def counted_descent(*args):
        counting.reset()
        return descend(*args)

    monkeypatch.setattr(estimator, "_gauss_newton", counted_descent)
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
    batch = _grouped(xs, ys)
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
    for data in (incremental, _grouped(xs, ys)):
        assert np.array_equal(data.points, xs) and np.array_equal(data.means, ys)
        assert np.all(data.counts == 1.0) and data.within_ss == 0.0


def test_grouped_objective_equals_raw_sse(mm_bundle, rng):
    """On repeated points, the estimator's scan, kept with one mu call per
    distinct point, and the grouped objective both equal the raw SSE."""
    xs, ys = _repeated_batch(mm_bundle, rng)
    seq = LSAdaptiveEstimator(mm_bundle.model, mm_bundle.parameter_space)
    for x, y in zip(xs, ys.tolist()):
        seq.update(x, y)
    theta_grid = seq.theta_grid
    raw = ((ys[None, :] - mm_bundle.model.mu(xs[None], theta_grid[:, None, :])) ** 2).sum(axis=1)
    np.testing.assert_allclose(seq.grid_sse, raw, rtol=1e-12)
    for theta in theta_grid[::25]:
        _, _, value = _residual(seq.data, mm_bundle.model, theta)
        assert value == pytest.approx(sse(DataBatch(xs, ys), theta, mm_bundle.model), rel=1e-12)


def _ungrouped(xs, ys):
    """The data as GroupedData with one group per observation, repeats included:
    the descent then runs on the raw residuals."""
    data = GroupedData()
    data._points, data._means = np.array(xs, dtype=float), np.array(ys, dtype=float)
    data._counts = np.ones(ys.shape[0])
    data.size = data.n = ys.shape[0]
    return data


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
        theta, value, converged, _, _ = _gauss_newton(_ungrouped(xs, ys), bundle.model, space,
                                                      fit.grid_minimum)
        assert converged == fit.converged
        if support is None:
            assert np.array_equal(fit.theta_hat, theta) and fit.sse_value == value
        else:
            assert np.linalg.norm(fit.theta_hat - theta) <= 1e-7
            assert fit.sse_value == pytest.approx(value, rel=1e-12)


def test_descent_from_a_known_start_skips_its_evaluation(mm_bundle, rng):
    xs, ys = _repeated_batch(mm_bundle, rng)
    data = _grouped(xs, ys)
    counting = _CountingModel(mm_bundle.model)
    args = (data, counting.spec, mm_bundle.parameter_space, np.array([1.5, 1.5]))
    plain = _gauss_newton(*args)
    plain_calls = counting.mu_calls
    counting.reset()
    start = _residual(data, mm_bundle.model, args[3])
    known = _gauss_newton(*args, start=start)
    assert counting.mu_calls == plain_calls - 1
    assert np.array_equal(plain[0], known[0]) and plain[1:3] == known[1:3]
    assert np.array_equal(plain[3], known[3]) and np.array_equal(plain[4], known[4])


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
        counting = _CountingModel(bundle.model)  # f is called once per iterate
        _, _, converged, _, _ = _gauss_newton(
            _grouped(xs, ys), counting.spec, space, space.center()
        )
        assert converged
        path = np.array(counting.f_thetas)
        assert np.all(path >= space.lower) and np.all(path <= space.upper)
        first = int(np.argmax(path[:, j] == bound))
        assert first > 0 and np.all(path[first:, j] == bound)


@pytest.mark.parametrize(
    "shift,warm_wins",
    [(None, False), ((0.0, 0.0), True), ((1.5, 0.7), False), ((0.0, -1.0), True)],
    ids=["no-warm-start", "warm-below-scan", "warm-above-scan", "warm-outside-box"],
)
def test_fit_runs_one_descent_from_the_better_seed(mm_bundle, rng, monkeypatch,
                                                   shift, warm_wins):
    """fit_ls descends once: from the warm start (projected into the box) when
    its objective is below the scan minimum, handed mu and f there, and from
    the scan winner otherwise.  The data put the minimum on the box's lower
    theta2 bound, so the warm start shifted below that bound projects back
    onto the minimum."""
    space = mm_bundle.parameter_space
    xs = rng.uniform(0.1, 3.0, size=(40, 1))
    ys = np.asarray(mm_bundle.model.mu(xs, np.array([1.0, 0.1]))) + rng.normal(0, 0.05, 40)
    batch = DataBatch(xs, ys)
    optimum = fit_ls(batch, mm_bundle.model, space).theta_hat
    warm_start = None if shift is None else optimum + np.array(shift)
    calls = []
    descend = estimator._gauss_newton

    def recording(data, model, space, theta0, start=None, regressors=None):
        calls.append((np.array(theta0), start, regressors))
        calls.append(descend(data, model, space, theta0, start, regressors))
        return calls[-1]

    monkeypatch.setattr(estimator, "_gauss_newton", recording)
    fit = fit_ls(batch, mm_bundle.model, space, warm_start=warm_start)
    assert len(calls) == 2
    (seed, start, regressors), (theta, value, converged, _, _) = calls
    scan_minimum = min(sse(batch, t, mm_bundle.model) for t in space.sample_grid(15))
    if warm_start is not None:
        projected = space.project(warm_start)
        at_warm = sse(batch, projected, mm_bundle.model)
        # each case lies clearly on one side of the rule, so rounding cannot decide it
        assert abs(at_warm - scan_minimum) > 1e-6 * scan_minimum
        assert (at_warm < scan_minimum) == warm_wins
    if warm_wins:
        assert np.array_equal(seed, space.project(warm_start))
        # the seed's objective was computed for the choice and is handed on, with f there
        assert start is not None and start[2] == pytest.approx(at_warm, rel=1e-12)
        assert np.array_equal(regressors, mm_bundle.model.f(batch.xs, projected))
    else:
        assert np.array_equal(seed, fit.grid_minimum) and start is regressors is None
    assert np.array_equal(fit.theta_hat, theta)
    assert (fit.sse_value, fit.converged) == (value, converged)


_MODELS = [
    ("michaelis_menten", {}),
    ("exponential_decay", {}),
    ("polynomial", {"degree": 1}),
    ("polynomial", {"degree": 2}),
    ("one_param_exponential", {}),
]


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(_MODELS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    support=st.sampled_from([None, 3]),
    sigma=st.sampled_from([0.05, 0.5]),
    warm=st.sampled_from(["none", "inside", "outside"]),
)
def test_fit_invariants(model, seed, n, support, sigma, warm):
    """On random data, with and without a warm start: the returned objective is
    the SSE at theta_hat, never above the scan minimum, and theta_hat lies in
    the box."""
    bundle = builtin_bundle(model[0], **model[1])
    space = bundle.parameter_space
    rng = np.random.default_rng(seed)
    lo, hi = float(bundle.design_space.lower[0]), float(bundle.design_space.upper[0])
    if support is None:
        xs = rng.uniform(lo, hi, size=(n, 1))
    else:
        xs = rng.choice(np.linspace(lo, hi, support), size=n)[:, None]
    theta_true = rng.uniform(space.lower, space.upper)
    ys = np.asarray(bundle.model.mu(xs, theta_true)) + rng.normal(0, sigma, n)
    batch = DataBatch(xs, ys)
    warm_start = {
        "none": None,
        "inside": rng.uniform(space.lower, space.upper),
        "outside": space.upper + rng.uniform(0.0, 1.0, space.p),
    }[warm]
    fit = fit_ls(batch, bundle.model, space, warm_start=warm_start)
    assert fit.sse_value == pytest.approx(sse(batch, fit.theta_hat, bundle.model), rel=1e-12)
    scan_minimum = min(sse(batch, t, bundle.model) for t in space.sample_grid(15))
    assert fit.sse_value <= scan_minimum * (1 + 1e-12)
    assert np.all(fit.theta_hat >= space.lower) and np.all(fit.theta_hat <= space.upper)


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(_MODELS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    support=st.sampled_from([None, 3]),
    warm=st.sampled_from(["none", "inside", "outside"]),
)
def test_kept_mu_is_mu_on_the_support_at_the_last_estimate(model, seed, n, support, warm):
    """Random observation sequences, refit after a random subset of them
    and at the end, with and without a last estimate set before the first
    observation (as fit_ls sets its warm start): before every estimate the
    kept mu and f are mu and f on the support at the last estimate, bit for
    bit, and empty while there is none."""
    bundle = builtin_bundle(model[0], **model[1])
    space = bundle.parameter_space
    rng = np.random.default_rng(seed)
    lo, hi = float(bundle.design_space.lower[0]), float(bundle.design_space.upper[0])
    if support is None:
        xs = rng.uniform(lo, hi, size=(n, 1))
    else:
        xs = rng.choice(np.linspace(lo, hi, support), size=n)[:, None]
    ys = np.asarray(bundle.model.mu(xs, rng.uniform(space.lower, space.upper))) + rng.normal(
        0, 0.1, n
    )
    seq = LSAdaptiveEstimator(bundle.model, space)
    seq.previous = {
        "none": None,
        "inside": rng.uniform(space.lower, space.upper),
        "outside": space.project(space.upper + rng.uniform(0.0, 1.0, space.p)),
    }[warm]
    refits = rng.random(n) < 0.5
    refits[-1] = True
    for x, y, refit in zip(xs, ys.tolist(), refits):
        seq.update(x, y)
        if not refit:
            continue
        if seq.previous is None:
            assert seq.mu.shape == (0,) and seq.f.shape == (0, space.p)
        else:
            kept = np.asarray(bundle.model.mu(seq.data.points, seq.previous), dtype=float)
            assert np.array_equal(seq.mu, kept)
            kept = np.asarray(bundle.model.f(seq.data.points, seq.previous), dtype=float)
            assert np.array_equal(seq.f, kept)
        seq.estimate()
