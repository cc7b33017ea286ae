from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwynn.adaptive import (
    PD_FLOOR,
    THETA_CHECK_POINTS_PER_AXIS,
    EndRun,
    ReplaySource,
    Scenario,
    SimulatedSource,
    Trajectory,
    WynnConfig,
    WynnState,
    build_initial_design,
    run,
    simulate_trajectory,
    wynn_step,
)
from adwynn.analysis import empirical_design
from adwynn.design import (
    Design,
    info_matrix,
    information,
    rank_one_update,
    sensitivity_profile,
)
from adwynn.errors import (
    AcquisitionError,
    ConfigError,
    DomainError,
    InitializationError,
    SingularMatrixError,
)
from adwynn.estimator import DataBatch, GroupedData, LSAdaptiveEstimator, LSFit, fit_ls
from adwynn.model import Box, ModelSpec, ParameterSpace, builtin_bundle
from adwynn.noise import Heteroscedastic, IIDGaussian, NonAH, make_rng, mix_seed


class FixedEstimator(LSAdaptiveEstimator):
    """Groups the data as least squares does, but always reports the same parameter."""

    def __init__(self, bundle, theta):
        super().__init__(bundle.model, bundle.parameter_space)
        self.theta = np.asarray(theta, dtype=float)

    def estimate(self, warm_regressors=None):
        return LSFit(
            theta_hat=self.theta.copy(),
            sse_value=math.nan,
            sigma2_hat=math.nan,
            converged=False,
            grid_minimum=self.theta.copy(),
        )


def _zero_noise_scenario(bundle, theta_bar, n_max):
    return Scenario(
        bundle.model,
        bundle.design_space,
        bundle.parameter_space,
        np.asarray(theta_bar, dtype=float),
        IIDGaussian(0.0),
        WynnConfig(n_max=n_max),
    )


# ---------------------------------------------------------------- initial design


def test_initial_design_polynomial_endpoints(poly1_bundle):
    grid = poly1_bundle.design_space.grid()
    sample = poly1_bundle.parameter_space.sample_grid(3)
    pts = build_initial_design(poly1_bundle.model, poly1_bundle.parameter_space, grid, sample)
    assert sorted(pts.ravel().tolist()) == [-1.0, 1.0]
    M = info_matrix(empirical_design(pts), np.zeros(2), poly1_bundle.model)
    assert np.linalg.eigvalsh(M)[0] == pytest.approx(1.0)


def test_initial_design_certified_for_michaelis_menten(mm_bundle):
    grid = mm_bundle.design_space.grid()
    sample = mm_bundle.parameter_space.sample_grid(5)
    pts = build_initial_design(mm_bundle.model, mm_bundle.parameter_space, grid, sample)
    assert pts.shape[0] >= 2
    design = empirical_design(pts)
    # exhaustive recheck over the certification sample
    for theta in sample:
        M = info_matrix(design, theta, mm_bundle.model)
        assert np.linalg.eigvalsh(M)[0] > 1e-8


def test_initial_design_p1_maximizes_worst_case(exp1_bundle):
    grid = exp1_bundle.design_space.grid()
    sample = exp1_bundle.parameter_space.sample_grid(5)
    pts = build_initial_design(exp1_bundle.model, exp1_bundle.parameter_space, grid, sample)
    assert pts.shape == (1, 1)
    # brute-force oracle: argmax over the grid of the worst-case squared regressor
    F = np.stack([np.asarray(exp1_bundle.model.f(grid, th))[:, 0] for th in sample])
    worst = (F**2).min(axis=0)
    assert pts[0, 0] == grid[int(np.argmax(worst)), 0]


def test_initial_design_needs_enough_grid_points(poly1_bundle):
    with pytest.raises(InitializationError):
        build_initial_design(
            poly1_bundle.model,
            poly1_bundle.parameter_space,
            np.array([[0.5]]),
            np.zeros((1, 2)),
        )


def _shifted_parabola() -> ModelSpec:
    """mu = t1 (x - t2)^2, whose regressor vanishes at x = t2."""

    def mu(x, theta):
        th = np.asarray(theta, dtype=float)
        return th[..., 0] * (np.asarray(x, dtype=float)[..., 0] - th[..., 1]) ** 2

    def f(x, theta):
        th = np.asarray(theta, dtype=float)
        u = np.asarray(x, dtype=float)[..., 0] - th[..., 1]
        return np.stack(np.broadcast_arrays(u**2, -2.0 * th[..., 0] * u), axis=-1)

    return ModelSpec("shifted_parabola", 2, mu, f)


def test_initial_design_extends_until_certified():
    """The best pair at the centre (t2 = 0), x = -1 and 1, is singular at
    t2 = -1 and t2 = 1, so points are added until every sampled parameter
    clears the floor, and the last one added is the one that clears it."""
    model = _shifted_parabola()
    space = ParameterSpace([1.0, -1.0], [2.0, 1.0])
    sample = space.sample_grid(3)
    pts = build_initial_design(model, space, np.linspace(-1.0, 1.0, 21)[:, None], sample)

    def worst(points):
        design = empirical_design(points)
        return min(np.linalg.eigvalsh(info_matrix(design, th, model))[0] for th in sample)

    assert pts[:2].ravel().tolist() == [-1.0, 1.0] and pts.shape[0] > 2
    assert worst(pts[:-1]) <= PD_FLOOR < worst(pts)


def test_initial_design_budget_exhausted_names_pd_floor():
    """At t1 = 0 the Michaelis-Menten regressor is (x/(t2 + x), 0), so no design
    clears the floor: the search stops after the 2 start points and its budget
    of 10 * p * 4 added points."""
    bundle = builtin_bundle("michaelis_menten", theta_bounds=[[0.0, 3.0], [0.2, 3.0]])
    space = bundle.parameter_space
    with pytest.raises(InitializationError, match=r"pd_floor 1\.0e-08 after 82 points"):
        build_initial_design(bundle.model, space, bundle.design_space.grid(), space.sample_grid(2))


def _nan_at_the_centre() -> ModelSpec:
    """The line t1 + t2 x, with its mean and regressors NaN at theta = (0.5, 0.5)."""

    def at_centre(theta):
        return np.all(np.asarray(theta, dtype=float) == 0.5, axis=-1)

    def mu(x, theta):
        th = np.asarray(theta, dtype=float)
        line = th[..., 0] + th[..., 1] * np.asarray(x, dtype=float)[..., 0]
        return np.where(at_centre(th), np.nan, line)

    def f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        ones = np.where(at_centre(theta), np.nan, 1.0) + 0.0 * x0
        return np.stack(np.broadcast_arrays(ones, x0 * ones), axis=-1)

    return ModelSpec("nan_at_centre", 2, mu, f)


def test_start_rejects_regressors_that_are_not_finite():
    """Regressors NaN at the box's centre fail the start, naming the model,
    the point and theta, whether or not the certification sample holds the
    centre; past the start they would surface only as a fit error."""
    model, space = _nan_at_the_centre(), ParameterSpace([0.0, 0.0], [1.0, 1.0])
    region = Box([-1.0], [1.0], (11,))
    message = (r"model nan_at_centre: regressors are not finite at x = \[-1\.0\], "
               r"theta = \[0\.5, 0\.5\]")
    for sample in (space.sample_grid(5), space.sample_grid(2)):
        with pytest.raises(DomainError, match=message):
            build_initial_design(model, space, region.grid(), sample)
    with pytest.raises(DomainError, match=message):
        run(model, region, space, WynnConfig(n_max=20), ReplaySource([0.0] * 20), seed=0)


@pytest.mark.parametrize(
    "grid_resolution,start",
    [(201, [-1.0, 1.0, 0.0]), (11, [-1.0, 0.0, 1.0])],
    ids=["greedy-start", "exhaustive-start"],
)
def test_quadratic_run_from_a_certified_start(grid_resolution, start):
    """The loop at p = 3.  C(201, 3) start triples exceed the exhaustive search's
    cap, so the start is built greedily; C(11, 3) are searched exhaustively.
    Zero noise ends the run at theta_bar."""
    bundle = builtin_bundle("polynomial", degree=2, grid_resolution=grid_resolution)
    theta_bar = [0.5, -1.0, 0.8]
    scenario = _zero_noise_scenario(bundle, theta_bar, 40)
    traj = simulate_trajectory(scenario, seed=3, keep_stages=range(1, 41))
    assert traj.points[: traj.n_start].ravel().tolist() == start
    design = empirical_design(traj.points[: traj.n_start])
    for theta in bundle.parameter_space.sample_grid(THETA_CHECK_POINTS_PER_AXIS):
        assert np.linalg.eigvalsh(info_matrix(design, theta, bundle.model))[0] > PD_FLOOR
    assert sorted(traj.stages) == list(range(traj.n_start, 41))
    for _, _, _, M in traj.stages.values():
        assert np.linalg.eigvalsh(M)[0] > PD_FLOOR
    assert np.allclose(traj.final_fit.theta_hat, theta_bar, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------- wynn_step


def _manual_state(bundle, points, responses, theta):
    """A state observed at the grid rows nearest ``points``: the loop
    observes only grid rows."""
    state = WynnState(bundle.model, bundle.design_space, FixedEstimator(bundle, theta))
    for x, y in zip(points, responses):
        row = np.abs(state.grid - np.asarray(x, dtype=float)).sum(axis=1).argmin()
        state._append(state.grid[row].copy(), float(y))
    state.n_start = state.n
    state._refresh()
    return state


def test_step_argmax_breaks_tie_to_lowest_grid_index(poly1_bundle):
    # equal design on {-1, 0, 1}: d(x) = 1 + 1.5 x^2 ties at the two endpoints
    state = _manual_state(poly1_bundle, [[-1.0], [0.0], [1.0]], [0.0, 0.0, 0.0], [0.0, 0.0])
    wynn_step(state, ReplaySource([0.25]))
    assert state.n == 4
    assert np.array_equal(state.points[-1], [-1.0])
    assert state.max_d == [pytest.approx(2.5)]
    assert state.responses[-1] == 0.25


def test_step_breaks_a_rounding_tie_to_lowest_grid_index(mm_bundle):
    # from the saturated start {0.767, 3} (grid indices 46 and 200) d = p at
    # both points in exact arithmetic; at this seed rounding puts d(3) above
    # d(0.767) by about 9e-16 relative, and the step still takes index 46
    grid = mm_bundle.design_space.grid()
    scenario = Scenario(
        mm_bundle.model, mm_bundle.design_space, mm_bundle.parameter_space,
        np.array([1.0, 1.0]), IIDGaussian(0.1), WynnConfig(n_max=3),
    )
    traj = simulate_trajectory(scenario, mix_seed(2024, 98), keep_stages=(2,))
    fit, support, _, M = traj.stages[2]
    d = sensitivity_profile(grid, M, fit.theta_hat, mm_bundle.model)
    assert np.array_equal(support[:, 0], grid[[46, 200], 0])
    assert d[46] < d[200] == d.max() and d[200] - d[46] <= 1e-15 * d[200]
    assert traj.points[2, 0] == grid[46, 0] and traj.max_d[0] == d[46]


def test_step_argmax_certificate_on_grid(exp1_bundle):
    state = _manual_state(exp1_bundle, [[0.5], [2.0]], [0.6, 0.1], [1.0])
    wynn_step(state, ReplaySource([0.3]))
    # grid scan oracle at the pre-step design and estimate
    design = empirical_design(np.array(state.points[:2]))
    M = info_matrix(design, np.array([1.0]), exp1_bundle.model)
    grid = exp1_bundle.design_space.grid()
    prof = sensitivity_profile(grid, M, np.array([1.0]), exp1_bundle.model)
    assert state.max_d[-1] == pytest.approx(float(prof.max()), rel=1e-12)
    assert state.points[-1][0] == grid[int(np.argmax(prof)), 0]


def test_step_requires_positive_definite_matrix(poly1_bundle):
    state = _manual_state(poly1_bundle, [[0.5], [0.5]], [0.0, 0.0], [0.0, 0.0])
    # both observations at one point: rank-one information matrix
    with pytest.raises(SingularMatrixError):
        wynn_step(state, ReplaySource([0.0]))


def test_step_rejects_non_finite_information_matrix(poly1_bundle):
    # a NaN entry once slipped past the floor check and the NaN sensitivity's
    # argmax silently selected the first grid point
    state = _manual_state(poly1_bundle, [[-1.0], [1.0]], [0.0, 0.0], [0.0, 0.0])
    state.M = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        wynn_step(state, ReplaySource([0.0]))
    assert state.logdet == state.max_d == [] and state.n == 2


def test_step_rejects_regressors_that_are_not_finite_at_the_estimate():
    # f(0, theta) is 0/0 at theta2 = 0: a NaN sensitivity would send the step to
    # grid index 0 and record max_d as NaN
    bundle = builtin_bundle(
        "michaelis_menten", x_bounds=[0.0, 3.0], theta_bounds=[[0.2, 3.0], [0.0, 3.0]]
    )
    state = _manual_state(bundle, [[1.0], [3.0]], [0.5, 0.7], [1.0, 0.0])
    with pytest.raises(DomainError, match=r"at x = \[0\.0\], theta = \[1\.0, 0\.0\]"):
        wynn_step(state, ReplaySource([0.0]))
    assert state.logdet == state.max_d == [] and state.n == 2


def test_zero_noise_estimates_freeze(mm_bundle):
    traj = simulate_trajectory(_zero_noise_scenario(mm_bundle, [1.0, 1.0], 15), seed=3)
    for theta in traj.estimates:
        assert np.linalg.norm(theta - np.array([1.0, 1.0])) <= 1e-6


# ---------------------------------------------------------------- run


def test_run_with_n_max_equal_n_start(mm_bundle):
    scenario = _zero_noise_scenario(mm_bundle, [1.0, 1.0], 2)
    traj = simulate_trajectory(scenario, seed=11)
    assert traj.n_start == 2
    assert len(traj.records) == 0
    assert traj.final_fit is not None
    assert len(traj.estimates) == 1


def test_run_rejects_too_small_n_max(mm_bundle):
    scenario = _zero_noise_scenario(mm_bundle, [1.0, 1.0], 1)
    with pytest.raises(ConfigError):
        simulate_trajectory(scenario, seed=11)


def test_record_count_matches_contract(mm_bundle):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=40),
    )
    traj = simulate_trajectory(scenario, seed=5)
    assert len(traj.records) == 40 - traj.n_start
    assert traj.points.shape == (40, 1)
    assert traj.estimates.shape == (40 - traj.n_start + 1, 2)


def test_run_is_deterministic_per_seed(mm_bundle):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=30),
    )
    t1 = simulate_trajectory(scenario, seed=123)
    t2 = simulate_trajectory(scenario, seed=123)
    s1 = json.dumps(t1.to_jsonable(), sort_keys=True)
    s2 = json.dumps(t2.to_jsonable(), sort_keys=True)
    assert s1 == s2
    t3 = simulate_trajectory(scenario, seed=124)
    assert json.dumps(t3.to_jsonable(), sort_keys=True) != s1


class _EndAfter:
    """Replays the first responses of a simulated source, then ends the run."""

    def __init__(self, source, count):
        self._source, self._left = source, count

    def observe(self, x, step):
        if self._left == 0:
            raise EndRun
        self._left -= 1
        return self._source.observe(x, step)


def test_trajectory_json_roundtrip(mm_bundle):
    """A complete run, and runs ended before and after the starting design
    completes: the records are the columns, and the file reads back to the
    same trajectory."""
    scenario = _zero_noise_scenario(mm_bundle, [1.2, 0.7], 10)
    for observed, steps in ((10, 8), (1, 0), (7, 5)):  # the starting design has 2 points
        source = SimulatedSource(mm_bundle.model, scenario.theta_bar, scenario.noise, make_rng(9))
        traj = run(mm_bundle.model, mm_bundle.design_space, mm_bundle.parameter_space,
                   scenario.config, _EndAfter(source, observed), seed=9)
        assert traj.n == observed and len(traj.logdet) == len(traj.max_d) == steps
        assert len(traj.estimates) == (steps + 1 if traj.n_start else 0)
        assert [astuple(r) for r in traj.records] == [
            (n, tuple(traj.points[n]), tuple(traj.estimates[i]),
             traj.logdet[i], traj.max_d[i], traj.responses[n])
            for i, n in enumerate(range(traj.n_start, traj.n_start + steps))
        ]
        obj = json.loads(json.dumps(traj.to_jsonable()))
        back = Trajectory.from_jsonable(obj)
        assert back.to_jsonable() == obj
        assert back.records == traj.records
        assert back.estimates.shape == traj.estimates.shape == (len(traj.estimates), 2)


def test_csv_rows_match_records(mm_bundle):
    scenario = _zero_noise_scenario(mm_bundle, [1.0, 1.0], 8)
    traj = simulate_trajectory(scenario, seed=2)
    header, rows = traj.csv_rows()
    assert header == ["n", "x0", "y", "theta0", "theta1", "logdet", "max_d"]
    assert len(rows) == len(traj.records)
    assert float(rows[0][1]) == traj.records[0].x_next[0]


def test_replay_exhaustion_raises(mm_bundle):
    source = ReplaySource([0.1, 0.2, 0.3])
    with pytest.raises(AcquisitionError):
        run(
            mm_bundle.model,
            mm_bundle.design_space,
            mm_bundle.parameter_space,
            WynnConfig(n_max=10),
            source,
            seed=0,
        )


def test_loop_estimator_choice_does_not_break_ls(mm_bundle):
    # drive the selection with a deliberately wrong fixed estimate; the
    # least-squares fit on the collected data still recovers the truth
    theta_bar = np.array([1.0, 1.0])
    source = SimulatedSource(mm_bundle.model, theta_bar, IIDGaussian(0.0), make_rng(4))
    traj = run(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        WynnConfig(n_max=15),
        source,
        seed=4,
        estimator=FixedEstimator(mm_bundle, [2.5, 0.3]),
    )
    assert np.allclose(traj.estimates, 2.5 * np.ones_like(traj.estimates) * [1, 0.12], atol=3)
    assert np.array_equal(traj.final_fit.theta_hat, [2.5, 0.3])  # the loop's own last fit
    fit = fit_ls(
        DataBatch(traj.points, traj.responses),
        mm_bundle.model,
        mm_bundle.parameter_space,
    )
    assert np.linalg.norm(fit.theta_hat - theta_bar) <= 1e-6


@pytest.mark.parametrize(
    "spec", [NonAH(0.05, 0.2), Heteroscedastic(sigma=0.1, decay=5.0)], ids=["non_ah", "hetero"]
)
def test_simulated_noise_follows_observation_step(mm_bundle, spec):
    # the i-th response (0-based) carries the error the spec draws at step i + 1;
    # mu + e repeats the source's own sum, so the check holds to the bit
    theta_bar = np.array([1.0, 1.0])
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        theta_bar,
        spec,
        WynnConfig(n_max=40),
    )
    traj = simulate_trajectory(scenario, seed=12)
    rng = make_rng(12)
    for i, (x, y) in enumerate(zip(traj.points, traj.responses)):
        mu = float(mm_bundle.model.mu(x, theta_bar))
        assert y == mu + float(spec.draw(i + 1, rng))


def test_scenario_validates_theta_bar(mm_bundle):
    with pytest.raises(DomainError):
        Scenario(
            mm_bundle.model,
            mm_bundle.design_space,
            mm_bundle.parameter_space,
            np.array([99.0, 1.0]),
            IIDGaussian(0.1),
            WynnConfig(n_max=10),
        )


# ---------------------------------------------------------------- invariants


def test_trajectory_invariants_along_run(mm_bundle):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=300),
    )
    traj = simulate_trajectory(scenario, seed=71)
    grid = mm_bundle.design_space.grid()
    model = mm_bundle.model
    for rec in traj.records[:: 7]:
        n = rec.n
        theta_n = np.asarray(rec.theta)
        design = empirical_design(traj.points[:n])
        # weights are exact multiplicities over n
        uniq, counts = np.unique(traj.points[:n], axis=0, return_counts=True)
        assert np.array_equal(design.weights, counts / n)
        M = info_matrix(design, theta_n, model)
        # positive definite above the floor, logdet recorded faithfully
        assert np.linalg.eigvalsh(M)[0] > PD_FLOOR
        assert rec.logdet == pytest.approx(
            float(np.linalg.slogdet(M)[1]), abs=1e-9
        )
        prof = sensitivity_profile(grid, M, theta_n, model)
        # argmax certificate and the floor max d >= p
        assert rec.max_d == pytest.approx(float(prof.max()), rel=1e-12)
        assert rec.max_d >= 2.0 - 1e-9
        idx = int(np.argmax(prof))
        assert rec.x_next[0] == grid[idx, 0]
        # average sensitivity over the design's own support equals p
        d_sup = sensitivity_profile(design.support, M, theta_n, model)
        assert float(design.weights @ d_sup) == pytest.approx(2.0, abs=1e-8)


def test_trajectory_matches_lapack_recomputation(mm_bundle):
    """Every step of a 500-observation acceptance-scenario trajectory against
    the stage's M rebuilt from its points and estimate and inverted by
    LAPACK's eigh: the recorded logdet and max_d agree to 1e-12 relative,
    and x_next maximizes the einsum sensitivity, rivals within 1e-12
    relative counting as ties."""
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=500),
    )
    traj = simulate_trajectory(scenario, seed=20)
    grid = mm_bundle.design_space.grid()
    model = mm_bundle.model
    assert len(traj.records) == 500 - traj.n_start
    for rec in traj.records:
        theta = np.asarray(rec.theta)
        support, counts = np.unique(traj.points[: rec.n], axis=0, return_counts=True)
        F = np.asarray(model.f(support, theta))
        M = (F * (counts / rec.n)[:, None]).T @ F
        eigvals, eigvecs = np.linalg.eigh(M)
        F_grid = np.asarray(model.f(grid, theta))
        d = np.einsum("ij,jk,ik->i", F_grid, (eigvecs / eigvals) @ eigvecs.T, F_grid)
        assert rec.logdet == pytest.approx(float(np.log(eigvals).sum()), rel=1e-12)
        assert rec.max_d == pytest.approx(float(d.max()), rel=1e-12)
        (chosen,) = np.flatnonzero(grid[:, 0] == rec.x_next[0])
        assert d[chosen] >= d.max() * (1.0 - 1e-12)


def test_rank_one_update_tracks_run_at_fixed_theta(mm_bundle):
    scenario = _zero_noise_scenario(mm_bundle, [1.0, 1.0], 60)
    traj = simulate_trajectory(scenario, seed=13)
    theta = np.array([0.9, 1.6])  # any fixed parameter works for the identity
    model = mm_bundle.model
    n0 = traj.n_start
    M = info_matrix(empirical_design(traj.points[:n0]), theta, model)
    for n in range(n0, traj.n):
        f = np.asarray(model.f(traj.points[n], theta))
        M = rank_one_update(M, f, n)
        M_scratch = info_matrix(empirical_design(traj.points[: n + 1]), theta, model)
        assert np.max(np.abs(M - M_scratch)) <= 1e-10


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(
        ["michaelis_menten", "exponential_decay", "polynomial", "one_param_exponential"]
    ),
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.0, 0.05, 0.3]),
    corner=st.floats(0.0, 1.0),
)
def test_information_matrix_stays_positive_definite(name, seed, sigma, corner):
    """Along short runs of every built-in model, with theta_bar anywhere on
    the diagonal of the parameter box, M(xi_n, theta_n) at every stage and
    at the final estimate has its smallest eigenvalue above the floor."""
    bundle = builtin_bundle(name)
    space = bundle.parameter_space
    theta_bar = space.lower + corner * (space.upper - space.lower)
    scenario = Scenario(
        bundle.model,
        bundle.design_space,
        space,
        theta_bar,
        IIDGaussian(sigma),
        WynnConfig(n_max=30),
    )
    traj = simulate_trajectory(scenario, seed)
    stages = range(traj.n_start, traj.n + 1)
    assert len(stages) == len(traj.estimates)
    for n, theta in zip(stages, traj.estimates):
        M = info_matrix(empirical_design(traj.points[:n]), theta, bundle.model)
        assert np.linalg.eigvalsh(M)[0] > PD_FLOOR
    final = info_matrix(empirical_design(traj.points), traj.final_fit.theta_hat, bundle.model)
    assert np.linalg.eigvalsh(final)[0] > PD_FLOOR


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(
        ["michaelis_menten", "exponential_decay", "polynomial", "one_param_exponential"]
    ),
    seed=st.integers(0, 2**32 - 1),
    keep=st.sets(st.integers(1, 30), max_size=8),
)
def test_shared_design_invariants_at_every_kept_stage(name, seed, keep):
    """The run makes one GroupedData, which takes one add per observation; at
    each kept stage its counts are the multiplicities of the first n points
    (so they sum to n and the weights to 1), and the stage's M is positive
    definite and equals the information matrix of the empirical design: byte
    for byte when that design lists the support in the loop's order."""
    bundle = builtin_bundle(name)
    space = bundle.parameter_space
    scenario = Scenario(
        bundle.model, bundle.design_space, space, space.center(), IIDGaussian(0.1),
        WynnConfig(n_max=30),
    )
    created, adds, at_refresh = [], [], {}
    init, add, refresh = GroupedData.__init__, GroupedData.add, WynnState._refresh

    def counted_init(self):
        created.append(self)
        init(self)

    def counted_add(self, x, y):
        adds.append(self)
        return add(self, x, y)

    def recorded_refresh(self):
        refresh(self)
        at_refresh[self.n] = (len(adds), self.M.copy(), self.design is self.estimator.data)

    with mock.patch.object(GroupedData, "__init__", counted_init), mock.patch.object(
        GroupedData, "add", counted_add
    ), mock.patch.object(WynnState, "_refresh", recorded_refresh):
        traj = simulate_trajectory(scenario, seed, keep_stages=keep)
    assert len(created) == 1 and len(adds) == traj.n
    assert all(data is created[0] for data in adds)
    assert set(traj.stages) == {n for n in keep if n >= traj.n_start}
    for n, (fit, support, counts, M_kept) in traj.stages.items():
        n_adds, M, shared = at_refresh[n]
        assert n_adds == n and shared
        assert np.array_equal(M_kept, M)
        assert counts.sum() == n
        assert abs((counts / n).sum() - 1.0) <= 1e-12
        distinct, multiplicity = np.unique(traj.points[:n], axis=0, return_counts=True)
        assert sorted(zip(map(tuple, support), counts)) == sorted(
            zip(map(tuple, distinct), multiplicity)
        )
        assert np.linalg.eigvalsh(M)[0] > PD_FLOOR
        theta = fit.theta_hat
        assert np.array_equal(theta, traj.estimates[n - traj.n_start])
        expected = info_matrix(empirical_design(traj.points[:n]), theta, bundle.model)
        assert np.max(np.abs(M - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
        assert np.array_equal(M, info_matrix(Design(support, counts / n), theta, bundle.model))


def _check_regressor_reuse(scenario, seed):
    """At every stage of the run, the kept F is f on the grid at the stage's
    estimate, the estimator's kept mu is mu on the support there and M is
    the information of f on the support there, byte for byte; from the
    first fit on, f runs on the grid once per stage; and a fresh estimator
    that is handed no regressors, and whose kept mu is cleared before each
    fit, replays every fit exactly."""
    model, grid = scenario.model, scenario.design_space.grid()
    on_grid, stages = [], []

    def f(x, theta):
        on_grid.append(np.shape(x) == grid.shape and np.array_equal(x, grid))
        return model.f(x, theta)

    refresh = WynnState._refresh

    def recorded_refresh(self):
        first_call = len(on_grid)
        refresh(self)
        stages.append((first_call, self.n, self.fit, self.F.copy(), self.M.copy(),
                       self.design.points.copy(), self.design.counts.copy(), self.rows.copy(),
                       self.estimator.mu.copy()))

    counted = dataclasses.replace(scenario, model=dataclasses.replace(model, f=f))
    with mock.patch.object(WynnState, "_refresh", recorded_refresh):
        traj = simulate_trajectory(counted, seed)
    assert [stage[1] for stage in stages] == list(range(traj.n_start, traj.n + 1))
    assert sum(on_grid[stages[0][0]:]) == len(stages)
    for _, n, fit, F, M, support, counts, rows, mu in stages:
        theta = fit.theta_hat
        assert rows.dtype == np.intp and np.array_equal(grid[rows], support)
        assert np.array_equal(mu, np.asarray(model.mu(support, theta), dtype=float))
        assert np.array_equal(F, np.asarray(model.f(grid, theta), dtype=float))
        F_support = np.asarray(model.f(support, theta), dtype=float)
        assert np.array_equal(M, information(F_support, counts / n))

    replay = LSAdaptiveEstimator(model, scenario.parameter_space)
    fits = []
    for n, (x, y) in enumerate(zip(traj.points, traj.responses.tolist()), 1):
        replay.update(x, y)
        if n >= traj.n_start:
            replay.mu = None
            fits.append(replay.estimate())
    assert len(fits) == len(stages)
    for replayed, (_, _, fit, *_) in zip(fits, stages):
        assert np.array_equal(replayed.theta_hat, fit.theta_hat)
        assert (replayed.sse_value, replayed.converged) == (fit.sse_value, fit.converged)
    assert np.array_equal(np.array([fit.theta_hat for fit in fits]), traj.estimates)


@pytest.mark.parametrize(
    "name", ["michaelis_menten", "exponential_decay", "polynomial", "one_param_exponential"]
)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_regressors_at_each_estimate_are_reused_bit_for_bit(name, seed):
    bundle = builtin_bundle(name)
    space = bundle.parameter_space
    _check_regressor_reuse(Scenario(
        bundle.model, bundle.design_space, space, space.center(), IIDGaussian(0.1),
        WynnConfig(n_max=40),
    ), seed)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_regressors_are_reused_bit_for_bit_on_two_dimensional_regions(exp_lin_scenario, seed):
    _check_regressor_reuse(dataclasses.replace(exp_lin_scenario, config=WynnConfig(n_max=60)),
                           seed)
