from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwynn.adaptive import (
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
    info_matrix,
    min_eigenvalue,
    rank_one_update,
    sensitivity_profile,
)
from adwynn.errors import AcquisitionError, ConfigError, DomainError, SingularMatrixError
from adwynn.estimator import DataBatch, fit_ls
from adwynn.model import builtin_bundle
from adwynn.noise import IIDGaussian, make_rng


class FixedEstimator:
    """Ignores the data; always reports the same parameter."""

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float)

    def update(self, x, y):
        pass

    def estimate(self):
        return self.theta.copy()


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
    assert min_eigenvalue(M) == pytest.approx(1.0)


def test_initial_design_certified_for_michaelis_menten(mm_bundle):
    grid = mm_bundle.design_space.grid()
    sample = mm_bundle.parameter_space.sample_grid(5)
    pts = build_initial_design(mm_bundle.model, mm_bundle.parameter_space, grid, sample)
    assert pts.shape[0] >= 2
    design = empirical_design(pts)
    # exhaustive recheck over the certification sample
    for theta in sample:
        M = info_matrix(design, theta, mm_bundle.model)
        assert min_eigenvalue(M) > 1e-8


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
    from adwynn.errors import InitializationError

    with pytest.raises(InitializationError):
        build_initial_design(
            poly1_bundle.model,
            poly1_bundle.parameter_space,
            np.array([[0.5]]),
            np.zeros((1, 2)),
        )


# ---------------------------------------------------------------- wynn_step


def _manual_state(bundle, points, responses, theta):
    config = WynnConfig(n_max=len(points) + 5)
    state = WynnState(
        bundle.model,
        bundle.design_space,
        bundle.parameter_space,
        config,
        FixedEstimator(theta),
    )
    for x, y in zip(points, responses):
        state._append(np.atleast_1d(np.asarray(x, dtype=float)), float(y))
    state.n_start = state.n
    state._refresh(force=True)
    return state


def test_step_argmax_breaks_tie_to_lowest_grid_index(poly1_bundle):
    # equal design on {-1, 0, 1}: d(x) = 1 + 1.5 x^2 ties at the two endpoints
    state = _manual_state(poly1_bundle, [[-1.0], [0.0], [1.0]], [0.0, 0.0, 0.0], [0.0, 0.0])
    wynn_step(state, ReplaySource([0.25]))
    rec = state.records[-1]
    assert rec.x_next == (-1.0,)
    assert rec.max_d == pytest.approx(2.5)
    assert rec.y_next == 0.25
    assert rec.n == 3


def test_step_argmax_certificate_on_grid(exp1_bundle):
    state = _manual_state(exp1_bundle, [[0.5], [2.0]], [0.6, 0.1], [1.0])
    wynn_step(state, ReplaySource([0.3]))
    rec = state.records[-1]
    # grid scan oracle at the pre-step design and estimate
    design = empirical_design(state.xs[:2])
    M = info_matrix(design, np.array([1.0]), exp1_bundle.model)
    grid = exp1_bundle.design_space.grid()
    prof = sensitivity_profile(grid, M, np.array([1.0]), exp1_bundle.model)
    assert rec.max_d == pytest.approx(float(prof.max()), rel=1e-12)
    assert rec.x_next[0] == grid[int(np.argmax(prof)), 0]


def test_step_requires_positive_definite_matrix(poly1_bundle):
    state = _manual_state(poly1_bundle, [[0.5], [0.5]], [0.0, 0.0], [0.0, 0.0])
    # both observations at one point: rank-one information matrix
    with pytest.raises(SingularMatrixError):
        wynn_step(state, ReplaySource([0.0]))


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


def test_trajectory_json_roundtrip(mm_bundle):
    scenario = _zero_noise_scenario(mm_bundle, [1.2, 0.7], 10)
    traj = simulate_trajectory(scenario, seed=9)
    back = Trajectory.from_jsonable(json.loads(json.dumps(traj.to_jsonable())))
    assert back.n == traj.n
    assert np.array_equal(back.points, traj.points)
    assert np.array_equal(back.estimates, traj.estimates)
    assert back.records == traj.records
    assert back.final_fit.sse_value == traj.final_fit.sse_value


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
        estimator=FixedEstimator([2.5, 0.3]),
    )
    assert np.allclose(traj.estimates, 2.5 * np.ones_like(traj.estimates) * [1, 0.12], atol=3)
    fit = fit_ls(
        DataBatch(traj.points, traj.responses),
        mm_bundle.model,
        mm_bundle.parameter_space,
    )
    assert np.linalg.norm(fit.theta_hat - theta_bar) <= 1e-6


def test_refresh_every_k_reuses_estimates(mm_bundle):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=14, refresh_every=3),
    )
    traj = simulate_trajectory(scenario, seed=6)
    est = traj.estimates
    # between refreshes the estimate is carried over unchanged
    repeats = sum(np.array_equal(est[i], est[i - 1]) for i in range(1, len(est)))
    assert repeats >= (len(est) - 1) // 2


def test_unknown_estimator_selector_rejected(mm_bundle):
    scenario = _zero_noise_scenario(mm_bundle, [1.0, 1.0], 5)
    from dataclasses import replace

    bad = replace(scenario, config=WynnConfig(n_max=5, estimator="mle"))
    with pytest.raises(DomainError):
        simulate_trajectory(bad, seed=1)


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


def test_polish_only_improves(mm_bundle):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.05),
        WynnConfig(n_max=12, polish=True),
    )
    traj = simulate_trajectory(scenario, seed=8)
    grid = mm_bundle.design_space.grid()
    for rec in traj.records:
        n = rec.n
        design = empirical_design(traj.points[:n])
        M = info_matrix(design, np.asarray(rec.theta), mm_bundle.model)
        prof = sensitivity_profile(grid, M, np.asarray(rec.theta), mm_bundle.model)
        assert rec.max_d >= float(prof.max()) - 1e-12


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
        assert min_eigenvalue(M) > scenario.config.pd_floor
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
        assert min_eigenvalue(M) > scenario.config.pd_floor
    final = info_matrix(empirical_design(traj.points), traj.final_fit.theta_hat, bundle.model)
    assert min_eigenvalue(final) > scenario.config.pd_floor
