"""The loop, the oracle, the study and the mass diagnostics on a 2-D box
and on a finite set, with the p = 3 model of ``conftest.py``."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwynn import adaptive
from adwynn.adaptive import Trajectory, WynnConfig, simulate_trajectory
from adwynn.analysis import (
    calibrate_window_diameter,
    extract_clusters,
    run_study,
    window_mass_curve,
)
from adwynn.design import WEIGHT_SUM_TOL, equivalence_gap, regressor_stack, solve_locally_d_optimal

CHECKPOINTS = (100, 300)


@pytest.fixture(scope="module")
def trajectory(exp_lin_scenario):
    return simulate_trajectory(exp_lin_scenario, seed=5)


def test_regressor_is_the_gradient_of_the_mean(exp_lin_scenario):
    model, grid = exp_lin_scenario.model, exp_lin_scenario.design_space.grid()
    theta, h = np.array([1.3, 0.7, 1.9]), 1e-6
    numeric = np.stack(
        [(model.mu(grid, theta + h * e) - model.mu(grid, theta - h * e)) / (2 * h)
         for e in np.eye(3)],
        axis=-1,
    )
    assert np.allclose(model.f(grid, theta), numeric, atol=1e-8)


def test_regressor_stack_matches_per_theta_loop(exp_lin_scenario):
    model, grid = exp_lin_scenario.model, exp_lin_scenario.design_space.grid()
    thetas = exp_lin_scenario.parameter_space.sample_grid(5)
    loop = np.stack([model.f(grid, theta) for theta in thetas])
    assert np.array_equal(regressor_stack(model, grid, thetas), loop)


def test_loop_runs_to_n_max(exp_lin_scenario, trajectory):
    grid = exp_lin_scenario.design_space.grid()
    assert trajectory.n == 300
    assert trajectory.estimates.shape == (300 - trajectory.n_start + 1, 3)
    assert trajectory.design_space is exp_lin_scenario.design_space
    on_grid = (trajectory.points[:, None, :] == grid[None, :, :]).all(axis=-1).any(axis=1)
    assert on_grid.all()
    assert exp_lin_scenario.parameter_space.contains(trajectory.final_fit.theta_hat)


def test_trajectory_json_round_trip_is_byte_identical(exp_lin_scenario, trajectory):
    text = json.dumps(trajectory.to_jsonable())
    back = Trajectory.from_jsonable(json.loads(text))
    assert json.dumps(back.to_jsonable()) == text
    assert type(back.design_space) is type(exp_lin_scenario.design_space)
    assert np.array_equal(back.design_space.grid(), exp_lin_scenario.design_space.grid())


def test_oracle_certifies_within_tol(exp_lin_scenario):
    model, theta = exp_lin_scenario.model, exp_lin_scenario.theta_bar
    grid, tol = exp_lin_scenario.design_space.grid(), 1e-6
    design = solve_locally_d_optimal(model, theta, grid, tol=tol)
    assert equivalence_gap(design, theta, model, grid) <= tol * model.p
    # the optimum needs more than p points here, and extract_clusters asks for p
    assert design.support.shape[0] > model.p


def test_study_is_the_same_at_one_and_two_workers(exp_lin_scenario):
    reports = [run_study(exp_lin_scenario, 6, CHECKPOINTS, seed=3, workers=w) for w in (1, 2)]
    assert reports[0].failed == ()
    assert json.dumps(reports[0].to_jsonable()) == json.dumps(reports[1].to_jsonable())
    assert reports[0].csv_rows() == reports[1].csv_rows()


def test_window_calibration_mass_and_clusters(exp_lin_scenario, trajectory):
    space = exp_lin_scenario.parameter_space
    cal = calibrate_window_diameter(
        exp_lin_scenario.model, space, exp_lin_scenario.design_space.grid(),
        space.sample_grid(3), epsilon=0.1,
    )
    assert cal.d > 0
    curve = window_mass_curve(trajectory, cal.d, n_from=CHECKPOINTS[0])
    assert all(0.0 < v <= 1.0 for v in curve.values())
    clusters = extract_clusters(trajectory, trajectory.n, cal.d / 3.0)
    assert clusters.found == clusters.requested == 3


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_kept_stage_is_positive_definite_with_unit_weight(exp_lin_scenario, seed):
    scenario = replace(exp_lin_scenario, config=WynnConfig(n_max=40))
    traj = simulate_trajectory(scenario, seed, keep_stages=range(1, 41))
    assert sorted(traj.stages) == list(range(traj.n_start, 41))
    for n, (_, support, counts, M) in traj.stages.items():
        assert np.linalg.eigvalsh(M)[0] > adaptive.PD_FLOOR
        assert abs((counts / n).sum() - 1.0) <= WEIGHT_SUM_TOL
        assert counts.sum() == n and support.shape == (counts.size, 2)
