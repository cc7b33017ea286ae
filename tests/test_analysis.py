from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adwynn.analysis as analysis
from adwynn.adaptive import Scenario, Trajectory, WynnConfig, simulate_trajectory
from adwynn.analysis import (
    calibrate_window_diameter,
    chi2_cdf,
    chi2_quantile,
    compute_gamma_kappa,
    empirical_design,
    extract_clusters,
    ks_distance,
    matrix_sqrt,
    normal_cdf,
    normality_stat,
    normality_study,
    parameter_discrepancy,
    run_study,
    sample_unit_directions,
    window_mass,
    window_mass_curve,
)
from adwynn.design import Design
from adwynn.errors import DomainError, StudyError
from adwynn.estimator import LSFit
from adwynn.model import ModelSpec, ParameterSpace
from adwynn.noise import IIDGaussian, NonAH


def _make_trajectory(points, p=2, space_echo=None):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return Trajectory(
        model_name="synthetic",
        seed=0,
        config_echo={},
        n_start=points.shape[0],
        points=points,
        responses=np.zeros(points.shape[0]),
        estimates=np.zeros((1, p)),
        records=(),
        final_fit=None,
        design_space_echo=space_echo or {},
        parameter_space_echo={"lower": [0.0] * p, "upper": [1.0] * p},
    )


# ---------------------------------------------------------------- distributions


def _simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def test_normal_cdf_against_quadrature():
    dens = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    for x in np.linspace(-8, 8, 33):
        oracle = _simpson(dens, -12.0, float(x), n=8000)
        assert abs(normal_cdf(float(x)) - oracle) <= 1e-6


def test_chi2_cdf_dim1_analytic_oracle():
    # with one degree of freedom the CDF is 2*Phi(sqrt(x)) - 1
    for x in (0.1, 0.5, 1.0, 3.84, 10.0, 40.0):
        assert chi2_cdf(1, x) == pytest.approx(2 * normal_cdf(math.sqrt(x)) - 1, abs=1e-10)


def test_chi2_cdf_dim2_analytic_oracle():
    for x in (0.2, 1.0, 5.991464547, 20.0, 40.0):
        assert chi2_cdf(2, x) == pytest.approx(1 - math.exp(-x / 2), abs=1e-12)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_chi2_cdf_against_quadrature(dim):
    # substitute t = u^2 so the integrand is smooth at the origin
    norm = 2 ** (dim / 2) * math.gamma(dim / 2)
    dens = lambda u: 2.0 * u ** (dim - 1) * math.exp(-u * u / 2) / norm
    for x in (0.5, 2.0, 7.0, 15.0, 40.0):
        oracle = _simpson(dens, 0.0, math.sqrt(x), n=8000)
        assert abs(chi2_cdf(dim, x) - oracle) <= 1e-6


def test_chi2_critical_value():
    assert chi2_cdf(2, 5.9914645471) == pytest.approx(0.95, abs=1e-6)
    assert chi2_quantile(2, 0.95) == pytest.approx(-2 * math.log(0.05), abs=1e-8)
    assert chi2_cdf(4, chi2_quantile(4, 0.5)) == pytest.approx(0.5, abs=1e-10)


def test_ks_distance_matches_brute_force(rng):
    sample = rng.normal(size=60)
    d = ks_distance(sample, normal_cdf)
    s = np.sort(sample)
    n = s.size
    brute = 0.0
    for i in range(n):
        F = normal_cdf(float(s[i]))
        brute = max(brute, abs((i + 1) / n - F), abs(F - i / n))
    assert d == brute


def test_ks_distance_detects_shift(rng):
    sample = rng.normal(size=400) + 1.0
    assert ks_distance(sample, normal_cdf) > 0.3


# ---------------------------------------------------------------- normality stat


def test_matrix_sqrt_squares_back(rng):
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        M = A.T @ A + 0.1 * np.eye(3)
        R = matrix_sqrt(M)
        assert np.max(np.abs(R @ R - M)) <= 1e-10
        assert np.max(np.abs(R - R.T)) <= 1e-12


def test_normality_stat_zero_at_truth(mm_bundle):
    design = Design(np.array([[0.5], [3.0]]), np.array([0.5, 0.5]))
    fit = LSFit(np.array([1.0, 1.0]), 0.0, 0.0, True, np.array([1.0, 1.0]))
    t = normality_stat(fit, design, np.array([1.0, 1.0]), 0.1, 100, mm_bundle.model)
    assert np.allclose(t, 0.0)


def test_normality_stat_scalar_example():
    # p = 1 with constant regressor 2: M = 4, sqrt(M) = 2
    def mu(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return 2.0 * th[..., 0] + 0.0 * x0

    def f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return (2.0 + 0.0 * x0 + 0.0 * th[..., 0])[..., None]

    model = ModelSpec("const2", 1, mu, f)
    design = Design(np.array([[0.0]]), np.array([1.0]))
    fit = LSFit(np.array([0.6]), 0.0, 0.0, True, np.array([0.6]))
    t = normality_stat(fit, design, np.array([0.5]), 2.0, 100, model)
    assert t[0] == pytest.approx(1.0)


# ---------------------------------------------------------------- window mass


def test_window_mass_identical_points():
    traj = _make_trajectory(np.zeros(7))
    for d in (0.01, 1.0):
        assert window_mass(traj, 7, d) == 1.0


def test_window_mass_spread_points():
    traj = _make_trajectory(np.arange(10.0))
    assert window_mass(traj, 10, 0.5) == pytest.approx(0.1)


def test_window_mass_matches_direct_count(rng):
    pts = rng.choice(np.linspace(0, 1, 9), size=40)
    traj = _make_trajectory(pts)
    d = 0.3
    got = window_mass(traj, 40, d)
    brute = max(
        np.sum((pts >= a) & (pts <= a + d)) / 40.0 for a in pts
    )
    assert got == pytest.approx(brute)


def test_window_mass_monotone_in_d(rng):
    pts = rng.uniform(0, 1, size=50)
    traj = _make_trajectory(pts)
    values = [window_mass(traj, 50, d) for d in (0.05, 0.1, 0.2, 0.4, 1.1)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_window_mass_curve_matches_pointwise(rng):
    pts = rng.uniform(0, 1, size=25)
    traj = _make_trajectory(pts)
    curve = window_mass_curve(traj, 0.2, n_from=3)
    for n, v in curve.items():
        assert v == window_mass(traj, n, 0.2)


@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(st.integers(0, 12), min_size=1, max_size=60),
    width=st.integers(1, 4),
    origin=st.sampled_from([0.0, 0.1, -0.35]),
    n_from=st.integers(1, 61),
)
def test_window_mass_curve_matches_window_mass_at_every_stage(ticks, width, origin, n_from):
    """Repeated points, and points exactly d apart (origin 0: multiples of
    0.25 and d add without rounding), give the same curve as the sort."""
    traj = _make_trajectory(origin + 0.25 * np.array(ticks, dtype=float))
    d = 0.25 * width
    curve = window_mass_curve(traj, d, n_from=n_from)
    assert list(curve) == list(range(n_from, len(ticks) + 1))
    for n, v in curve.items():
        assert v == window_mass(traj, n, d)


def test_window_mass_validates_inputs():
    traj = _make_trajectory(np.arange(5.0))
    with pytest.raises(DomainError):
        window_mass(traj, 5, 0.0)
    with pytest.raises(DomainError):
        window_mass(traj, 9, 0.1)


def test_window_mass_multidimensional_balls():
    # 2-D: balls of diameter d around the scan-grid points
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    echo = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0], "grid_resolution": [3, 3]}
    traj = Trajectory(
        model_name="synthetic2d",
        seed=0,
        config_echo={},
        n_start=4,
        points=pts,
        responses=np.zeros(4),
        estimates=np.zeros((1, 2)),
        records=(),
        final_fit=None,
        design_space_echo=echo,
        parameter_space_echo={"lower": [0, 0], "upper": [1, 1]},
    )
    assert window_mass(traj, 4, d=0.1) == pytest.approx(0.5)  # the doubled origin
    assert window_mass(traj, 4, d=4.0) == 1.0


# ---------------------------------------------------------------- clusters


def test_extract_clusters_two_alternating_points():
    pts = np.tile([0.0, 1.0], 30)
    traj = _make_trajectory(
        pts, space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]}
    )
    diag = extract_clusters(traj, 60, cell_diameter=0.1)
    assert diag.found == 2
    assert diag.complete
    masses = sorted(c.mass for c in diag.clusters)
    assert masses == [0.5, 0.5]
    assert diag.separations[0] == pytest.approx(1.0)
    assert diag.pi0 == 0.5


def test_extract_clusters_p1_single_cell(exp1_bundle):
    scenario = Scenario(
        exp1_bundle.model,
        exp1_bundle.design_space,
        exp1_bundle.parameter_space,
        np.array([1.0]),
        IIDGaussian(0.05),
        WynnConfig(n_max=30),
    )
    traj = simulate_trajectory(scenario, seed=21)
    diag = extract_clusters(traj, 30, cell_diameter=0.05)
    assert diag.requested == 1
    assert diag.found == 1
    # the single cluster is the max-mass cell: verify against a recount
    top = diag.clusters[0]
    assert top.mass == max(c.mass for c in diag.clusters)


def test_extract_clusters_masses_and_exclusion_budget(rng):
    pts = rng.choice([0.1, 0.45, 0.9], size=50, p=[0.5, 0.3, 0.2])
    traj = _make_trajectory(
        pts, space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]}
    )
    diag = extract_clusters(traj, 50, cell_diameter=0.12)
    assert diag.found == 2
    total = sum(c.mass for c in diag.clusters) + diag.excluded_mass
    assert total <= 1.0 + 1e-12
    for sep in diag.separations:
        assert sep >= diag.cell_diameter


def test_extract_clusters_failure_reported_not_raised():
    pts = np.zeros(20)
    traj = _make_trajectory(
        pts, space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]}
    )
    diag = extract_clusters(traj, 20, cell_diameter=0.3)
    assert diag.found == 1
    assert not diag.complete
    assert diag.pi0 is None



@pytest.mark.parametrize("n,cell", [(1, 0.1), (21, 0.1), (20, 0.0)])
def test_extract_clusters_rejects_bad_stage_and_cell(n, cell):
    traj = _make_trajectory(
        np.linspace(0.0, 1.0, 20),
        space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]},
    )
    with pytest.raises(DomainError):
        extract_clusters(traj, n, cell_diameter=cell)


# ---------------------------------------------------------------- gamma/kappa


def test_gamma_kappa_polynomial(poly1_bundle):
    grid = poly1_bundle.design_space.grid()
    thetas = np.zeros((1, 2))
    dirs = sample_unit_directions(2, 36, seed=3)
    gamma, kappa = compute_gamma_kappa(
        poly1_bundle.model, poly1_bundle.parameter_space, grid, thetas, dirs
    )
    # grid max oracle: the largest regressor norm sits at the endpoints
    F = np.asarray(poly1_bundle.model.f(grid, np.zeros(2)))
    assert gamma == pytest.approx(float(np.sqrt((F**2).sum(axis=1)).max()))
    assert gamma == pytest.approx(math.sqrt(2.0))
    assert kappa > 0


def test_kappa_zero_flags_span_failure():
    def mu(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return 0.0 * x0 + 0.0 * th[..., 0]

    def f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(x0.shape, th[..., 0].shape)
        return np.stack([np.ones(shape), np.zeros(shape)], axis=-1)

    model = ModelSpec("flat", 2, mu, f)
    grid = np.linspace(-1, 1, 9)[:, None]
    gamma, kappa = compute_gamma_kappa(
        model, ParameterSpace([0, 0], [1, 1]), grid, np.zeros((1, 2)),
        np.array([[0.0, 1.0]]),
    )
    assert kappa == 0.0


def test_gamma_kappa_michaelis_menten(mm_bundle):
    grid = mm_bundle.design_space.grid()
    thetas = mm_bundle.parameter_space.sample_grid(4)
    dirs = sample_unit_directions(2, 36, seed=9)
    gamma, kappa = compute_gamma_kappa(
        mm_bundle.model, mm_bundle.parameter_space, grid, thetas, dirs
    )
    assert np.isfinite(gamma) and gamma > 0
    assert np.isfinite(kappa) and kappa > 0


def test_calibration_eta_identity(mm_bundle):
    grid = mm_bundle.design_space.grid()
    thetas = mm_bundle.parameter_space.sample_grid(3)
    cal = calibrate_window_diameter(
        mm_bundle.model, mm_bundle.parameter_space, grid, thetas, epsilon=0.1
    )
    p = 2
    assert (1 - cal.eta) ** (-2) / p == pytest.approx(1 / p + 0.05)
    assert cal.d > 0
    assert cal.threshold == pytest.approx(cal.eta * cal.kappa / cal.gamma)


# ---------------------------------------------------------------- discrepancy


def test_parameter_discrepancy_examples(mm_bundle, rng):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=20),
    )
    traj = simulate_trajectory(scenario, seed=17)
    theta_bar = np.array([1.0, 1.0])
    assert parameter_discrepancy(traj, 20, theta_bar, theta_bar, mm_bundle.model) == 0.0
    theta = np.array([1.5, 0.8])
    got = parameter_discrepancy(traj, 20, theta, theta_bar, mm_bundle.model)
    terms = [
        (
            float(mm_bundle.model.mu(x, theta))
            - float(mm_bundle.model.mu(x, theta_bar))
        )
        ** 2
        for x in traj.points[:20]
    ]
    assert got == pytest.approx(math.fsum(terms) / 20, rel=1e-12)
    single = parameter_discrepancy(traj, 1, theta, theta_bar, mm_bundle.model)
    assert single == pytest.approx(terms[0], rel=1e-12)


# ---------------------------------------------------------------- studies


def _mm_scenario(mm_bundle, sigma=0.1, n_max=60):
    return Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(sigma),
        WynnConfig(n_max=n_max),
    )


def test_consistency_study_zero_noise(mm_bundle):
    scenario = _mm_scenario(mm_bundle, sigma=0.0, n_max=30)
    report = run_study(scenario, replicates=3, checkpoints=[10, 30], seed=5)
    for n in (10, 30):
        assert max(report.error_samples[n]) <= 1e-6
    assert report.failed == ()


def test_study_reports_both_standardizations(mm_bundle):
    report = run_study(_mm_scenario(mm_bundle), 6, [60], seed=31)
    t = report.t_known[60]
    assert t.shape == (6, 2)
    assert report.t_plugin[60].shape == (6, 2)
    assert report.ks_mstar[60] is not None
    assert 0 <= report.coverage95[60] <= 1
    assert report.ks_chi2[60] is not None
    assert all(0 <= v <= 1 for v in report.ks_known[60])
    q = report.error_quantiles[60]
    assert all(b >= a for a, b in zip(q, q[1:]))  # nondecreasing in level


def test_study_degenerate_single_replicate(mm_bundle):
    report = run_study(_mm_scenario(mm_bundle), 1, [60], seed=8)
    assert report.normality_skipped
    assert report.ks_known[60] is None
    assert report.coverage95[60] is None


def test_study_with_non_ah_noise_skips_known_sigma(mm_bundle):
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        NonAH(sigma_odd=0.05, sigma_even=0.1),
        WynnConfig(n_max=40),
    )
    report = run_study(scenario, 4, [40], seed=3)
    assert report.sigma_known is None
    assert report.t_known[40] is None
    assert report.ks_plugin[40] is not None
    # consistency still visible through the error quantiles
    assert report.error_quantiles[40][2] < 0.5


REPORT_STATS = (
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
NORMALITY_STATS = {"ks_known", "ks_plugin", "ks_mstar", "ks_chi2", "coverage95"}
KNOWN_SIGMA_STATS = {"t_known", "ks_known", "ks_mstar", "ks_chi2", "coverage95"}


@pytest.mark.parametrize(
    "sigma_known,replicates,missing",
    [
        (True, 4, set()),
        (True, 1, NORMALITY_STATS),
        (False, 4, KNOWN_SIGMA_STATS),
        (False, 1, NORMALITY_STATS | KNOWN_SIGMA_STATS),
    ],
)
def test_study_missing_statistics_table(mm_bundle, sigma_known, replicates, missing):
    from dataclasses import replace

    scenario = _mm_scenario(mm_bundle, n_max=30)
    if not sigma_known:
        scenario = replace(scenario, noise=NonAH(sigma_odd=0.05, sigma_even=0.1))
    report = run_study(scenario, replicates, [20, 30], seed=13)
    assert (report.sigma_known is not None) == sigma_known
    assert report.normality_skipped == (replicates == 1)
    per_checkpoint = report.to_jsonable()["per_checkpoint"]
    for n in (20, 30):
        assert tuple(per_checkpoint[str(n)]) == REPORT_STATS
        assert {s for s in REPORT_STATS if getattr(report, s)[n] is None} == missing
        assert {s for s, v in per_checkpoint[str(n)].items() if v is None} == missing


def test_consistency_survives_non_ah_noise(mm_bundle):
    # oscillating conditional variance only needs the martingale structure
    scenario = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        NonAH(sigma_odd=0.05, sigma_even=0.15),
        WynnConfig(n_max=200),
    )
    report = run_study(scenario, 10, [30, 200], seed=5150, workers=1)
    med_early = np.median(report.error_samples[30])
    med_late = np.median(report.error_samples[200])
    assert med_late < med_early


def test_window_mass_limit_on_adaptive_polynomial_path(poly1_bundle):
    # the selection settles on {-1, 1}; with d spanning half the support
    # gap each window eventually holds exactly one endpoint's mass
    scenario = Scenario(
        poly1_bundle.model,
        poly1_bundle.design_space,
        poly1_bundle.parameter_space,
        np.array([0.5, -1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=400),
    )
    traj = simulate_trajectory(scenario, seed=77)
    mass = window_mass(traj, 400, d=1.0)
    # direct count oracle
    pts = traj.points[:400, 0]
    brute = max(np.sum((pts >= a) & (pts <= a + 1.0)) for a in pts) / 400.0
    assert mass == pytest.approx(brute)
    assert abs(mass - 0.5) <= 0.05


def test_normality_study_validates_hypotheses(mm_bundle):
    bad_noise = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([1.0, 1.0]),
        NonAH(sigma_odd=0.05, sigma_even=0.1),
        WynnConfig(n_max=30),
    )
    with pytest.raises(DomainError):
        normality_study(bad_noise, 2, 30, seed=1)
    boundary = Scenario(
        mm_bundle.model,
        mm_bundle.design_space,
        mm_bundle.parameter_space,
        np.array([3.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=30),
    )
    with pytest.raises(DomainError):
        normality_study(boundary, 2, 30, seed=1)


def test_study_failure_fraction_enforced(mm_bundle, monkeypatch):
    original = analysis._replicate_worker

    def flaky(args):
        if args[2] == 0:
            return {"index": 0, "failed": "RuntimeError: injected"}
        return original(args)

    monkeypatch.setattr(analysis, "_replicate_worker", flaky)
    scenario = _mm_scenario(mm_bundle, n_max=20)
    with pytest.raises(StudyError):
        run_study(scenario, 4, [20], seed=2)  # 25% failures > 1%
    report = run_study(scenario, 4, [20], seed=2, max_failure_fraction=0.5)
    assert report.failed == (0,)
    assert "injected" in report.failure_messages[0]
    assert report.error_samples[20].shape == (3,)


def test_last_checkpoint_reuses_the_final_fit(mm_bundle, monkeypatch):
    """At a checkpoint equal to n_max the worker takes the run's final fit (the
    same data and warm start) instead of refitting; the report is unchanged."""
    scenario = _mm_scenario(mm_bundle, n_max=40)
    fits = []
    fit_ls = analysis.fit_ls
    monkeypatch.setattr(analysis, "fit_ls", lambda *a, **k: fits.append(1) or fit_ls(*a, **k))
    reused = run_study(scenario, 3, [30, 40], seed=11)
    assert len(fits) == 3  # one refit per replicate, at checkpoint 30

    simulate = analysis.simulate_trajectory
    monkeypatch.setattr(
        analysis, "simulate_trajectory", lambda *a: replace(simulate(*a), final_fit=None)
    )
    fits.clear()
    refitted = run_study(scenario, 3, [30, 40], seed=11)
    assert len(fits) == 6
    assert reused.to_jsonable() == refitted.to_jsonable()


def test_study_checkpoint_before_start_fails(mm_bundle):
    scenario = _mm_scenario(mm_bundle, n_max=20)
    with pytest.raises(StudyError):
        run_study(scenario, 2, [1, 20], seed=2)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
@example(seed=42)
def test_parallel_reduction_matches_serial(mm_bundle, seed):
    """Replicates are seeded by index and reduced in order, so the report
    does not depend on the worker count."""
    scenario = _mm_scenario(mm_bundle, n_max=30)
    serial = run_study(scenario, 3, [20, 30], seed=seed, workers=1, keep_paths=1)
    parallel = run_study(scenario, 3, [20, 30], seed=seed, workers=2, keep_paths=1)
    assert np.array_equal(serial.error_samples[30], parallel.error_samples[30])
    assert np.array_equal(serial.t_known[30], parallel.t_known[30])
    assert serial.to_jsonable() == parallel.to_jsonable()


def test_mc_report_serialization(mm_bundle):
    report = run_study(_mm_scenario(mm_bundle, n_max=25), 3, [25], seed=7, keep_paths=1)
    obj = report.to_jsonable()
    assert obj["replicates"] == 3
    assert "25" in obj["per_checkpoint"]
    header, rows = report.csv_rows()
    assert header[0] == "replicate"
    assert len(rows) == 3  # one checkpoint, three alive replicates
    import json

    json.dumps(obj)  # must be JSON-clean
