"""The reference checks pass on real program output and fail on tampered copies.

Each test runs a short `adwynn simulate` through launch.py, so a check
that passes here has passed on the program's own output, and every
tampered copy shows that the check catches the error it is there for.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

HERE = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", params=[7, 8])
def simulated(request, tmp_path_factory):
    sc = ref.MICHAELIS_MENTEN
    out = tmp_path_factory.mktemp("simulate")
    cfg = {
        "model": sc.model_config(),
        "theta_bar": list(sc.theta_bar),
        "noise": {"variant": "iid_gaussian", "sigma": sc.sigma},
        "wynn": {"n_max": 300},
        "seed": request.param,
        "output": {"dir": str(out), "prefix": "t"},
    }
    (out / "cfg.json").write_text(json.dumps(cfg))
    subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "cli", "simulate", "--config", str(out / "cfg.json")],
        check=True, capture_output=True,
    )
    return sc, ref.Traj.load(out / "t_trajectory.json")


def test_program_output_passes_every_check(simulated):
    sc, traj = simulated
    assert ref.check_path(sc, traj, simulated=True) == []


def test_moved_point_fails_the_step_check(simulated):
    sc, traj = simulated
    bad = copy.deepcopy(traj)
    k = traj.rec_n.size // 2
    n = traj.rec_n[k]
    grid = sc.grid()
    i = int(np.argmin(np.abs(grid - traj.points[n])))
    moved = grid[i + 1 if i + 1 < grid.size else i - 1]
    bad.points[n] = bad.x_next[k] = moved
    errors = ref.check_steps(sc, bad)
    assert any("x_next is not the sensitivity argmax" in e for e in errors)
    assert ref.check_steps(sc, traj) == []


def test_perturbed_estimate_fails_both_least_squares_checks(simulated):
    sc, traj = simulated
    bad = copy.deepcopy(traj)
    bad.theta_hat = traj.theta_hat + 0.05
    # keep the reported SSE consistent, so only the optimality checks can object
    r = bad.responses - sc.mu(bad.points, bad.theta_hat)
    bad.sse_value = float(r @ r)
    errors = ref.check_least_squares(sc, bad)
    assert any("has SSE" in e for e in errors), errors
    assert any("SSE gradient" in e for e in errors), errors


def test_misreported_sse_fails(simulated):
    sc, traj = simulated
    bad = copy.deepcopy(traj)
    bad.sse_value *= 1.001
    assert any("reported SSE" in e for e in ref.check_least_squares(sc, bad))


def test_poor_design_fails_the_efficiency_check(simulated):
    sc, traj = simulated
    bad = copy.deepcopy(traj)
    bad.points = np.resize(sc.grid()[-sc.p:], traj.points.size)  # p neighbouring points
    assert ref.d_efficiency(sc, bad.points) < ref.DEFF_FLOOR
    assert ref.check_design(sc, bad)


def test_shifted_responses_fail_the_noise_check(simulated):
    sc, traj = simulated
    bad = copy.deepcopy(traj)
    bad.responses = traj.responses + sc.sigma
    assert ref.check_noise(sc, bad)
    bad.responses = 2.0 * traj.responses - sc.mu(traj.points, np.asarray(sc.theta_bar))
    assert ref.check_noise(sc, bad)


def test_cluster_check():
    sc = ref.MICHAELIS_MENTEN
    good = np.array([[3.0, 3.0], [0.5785, 0.6075]])
    assert ref.check_clusters(sc, 2, good) == []
    assert ref.check_clusters(sc, 1, good[:1])
    assert ref.check_clusters(sc, 2, np.array([[3.0, 3.0], [2.9855, 2.9855]]))
    assert ref.check_clusters(sc, 2, np.array([[3.0, 3.0], [1.2, 1.2]]))


def test_window_mass_check():
    sc = ref.MICHAELIS_MENTEN
    stages = np.arange(2, 201)
    masses = np.full(stages.size, 0.5)
    assert ref.check_window_mass(sc, stages, masses) == []
    masses[stages == 30] = 0.9  # inside the burn-in
    assert ref.check_window_mass(sc, stages, masses) == []
    masses[stages == 120] = 0.61
    assert ref.check_window_mass(sc, stages, masses)


def test_tie_at_the_argmax_goes_either_way_but_nothing_else():
    # equal weights on {a, 3} with a = 3 t2 / (3 + 2 t2) on the grid: the
    # design is D-optimal, so d(a) = d(3) = p = 2 and d < 2 elsewhere
    sc = ref.MICHAELIS_MENTEN
    grid = sc.grid()
    a = grid[34]
    theta = np.array([1.0, 3.0 * a / (3.0 - 2.0 * a)])
    F = sc.f(np.array([a, 3.0]), theta)
    traj = ref.Traj(
        points=np.array([a, 3.0, 3.0]),
        responses=np.zeros(3),
        n_start=2,
        rec_n=np.array([2]),
        x_next=np.array([3.0]),
        theta=theta[None, :],
        logdet=np.array([np.log(np.linalg.det(F.T @ F / 2.0))]),
        max_d=np.array([2.0]),
        y_next=np.zeros(1),
        theta_hat=theta,
        sse_value=0.0,
    )
    assert ref.check_steps(sc, traj) == []
    traj.points[2] = traj.x_next[0] = a  # the tie with the lower index
    assert ref.check_steps(sc, traj) == []
    traj.points[2] = traj.x_next[0] = grid[35]
    assert ref.check_steps(sc, traj)
