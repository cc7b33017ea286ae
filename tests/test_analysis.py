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
    empirical_design,
    extract_clusters,
    ks_distance,
    matrix_sqrt,
    normal_cdf,
    normality_stat,
    run_study,
    sample_unit_directions,
    window_mass_curve,
)
from adwynn.design import Design, info_matrix, regressor_stack
from adwynn.errors import ConfigError, DomainError, StudyError
from adwynn.model import Box, FiniteSet, ModelSpec, ParameterSpace, design_space_from_jsonable
from adwynn.noise import IIDGaussian, NonAH


def _make_trajectory(points, p=2, space_echo=None):
    """A trajectory of the given points on the echoed region; without an
    echo, on a box around the points (which the 1-D window mass never reads)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if space_echo is None:
        space = Box(points.min(axis=0), points.max(axis=0) + 1.0, (2,) * points.shape[1])
    else:
        space = design_space_from_jsonable(space_echo)
    return Trajectory(
        model_name="synthetic",
        seed=0,
        config_echo={},
        n_start=points.shape[0],
        points=points,
        responses=np.zeros(points.shape[0]),
        estimates=np.zeros((1, p)),
        logdet=np.zeros(0),
        max_d=np.zeros(0),
        final_fit=None,
        design_space=space,
        parameter_space=ParameterSpace([0.0] * p, [1.0] * p),
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


@settings(max_examples=300, deadline=None)
@given(
    dim=st.integers(1, 12),
    x=st.floats(0.0, 1e4, allow_nan=False),
    dx=st.floats(0.0, 100.0, allow_nan=False),
)
def test_chi2_cdf_is_a_cdf_and_steps_by_the_recurrence(dim, x, dx):
    # rounding alone may lower the CDF by a few ulps between nearby x
    cdf = chi2_cdf(dim, x)
    assert 0.0 <= cdf <= 1.0
    assert chi2_cdf(dim, x + dx) >= cdf - 1e-14
    # F_k(x) - F_{k+2}(x) = exp(-x/2) (x/2)^(k/2) / Gamma(k/2 + 1)
    h = x / 2
    term = math.exp(-h + dim / 2 * math.log(h) - math.lgamma(dim / 2 + 1)) if h > 0 else 0.0
    assert abs(cdf - chi2_cdf(dim + 2, x) - term) <= 1e-14


@pytest.mark.parametrize("dim", [0, -1, 1.5])
def test_chi2_cdf_rejects_a_non_integer_or_nonpositive_dimension(dim):
    with pytest.raises(DomainError, match="degrees of freedom"):
        chi2_cdf(dim, 1.0)


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
    root = matrix_sqrt(info_matrix(design, np.array([1.0, 1.0]), mm_bundle.model))
    t = normality_stat(root, np.zeros(2), 0.1, 100)
    assert np.allclose(t, 0.0)
    for sigma in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="sigma must be finite and positive"):
            normality_stat(root, np.zeros(2), sigma, 100)


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
    root = matrix_sqrt(info_matrix(design, np.array([0.6]), model))
    t = normality_stat(root, np.array([0.6]) - np.array([0.5]), 2.0, 100)
    assert t[0] == pytest.approx(1.0)


# ---------------------------------------------------------------- window mass


def test_window_mass_identical_points():
    traj = _make_trajectory(np.zeros(7))
    for d in (0.01, 1.0):
        assert window_mass_curve(traj, d)[7] == 1.0


def test_window_mass_spread_points():
    traj = _make_trajectory(np.arange(10.0))
    assert window_mass_curve(traj, 0.5)[10] == pytest.approx(0.1)


def test_window_mass_matches_direct_count(rng):
    pts = rng.choice(np.linspace(0, 1, 9), size=40)
    traj = _make_trajectory(pts)
    d = 0.3
    got = window_mass_curve(traj, d)[40]
    brute = max(
        np.sum((pts >= a) & (pts <= a + d)) / 40.0 for a in pts
    )
    assert got == pytest.approx(brute)


def test_window_mass_monotone_in_d(rng):
    pts = rng.uniform(0, 1, size=50)
    traj = _make_trajectory(pts)
    values = [window_mass_curve(traj, d)[50] for d in (0.05, 0.1, 0.2, 0.4, 1.1)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_window_mass_curve_matches_pointwise(rng):
    pts = rng.uniform(0, 1, size=25)
    traj = _make_trajectory(pts)
    curve = window_mass_curve(traj, 0.2, n_from=3)
    for n, v in curve.items():
        assert v == _window_mass_oracle(pts[:, None], n, 0.2)


def _window_mass_oracle(points: np.ndarray, n: int, d: float, centers=None) -> float:
    """The per-stage window count: a sort in 1-D, balls of diameter d around
    ``centers`` otherwise."""
    pts = points[:n]
    if pts.shape[1] == 1:
        xs = np.sort(pts[:, 0])
        counts = np.searchsorted(xs, xs + d, side="right") - np.arange(n)
        return float(counts.max() / n)
    d2 = ((pts[None, :, :] - centers[:, None, :]) ** 2).sum(axis=-1)
    return float((d2 <= (d / 2.0) ** 2).sum(axis=1).max() / n)


# element budgets: one stage per block, a few stages per block, all in one
_BLOCKS = [1, 40, 1 << 16]


@settings(max_examples=200, deadline=None)
@given(
    ticks=st.lists(st.integers(0, 12), min_size=1, max_size=60)
    | st.lists(st.integers(0, 2), min_size=1, max_size=150),
    width=st.sampled_from([0.25, 0.5, 1, 2, 3, 4, 100]),
    origin=st.sampled_from([0.0, 0.1, -0.35]),
    n_from=st.integers(1, 151),
    block=st.sampled_from(_BLOCKS),
)
def test_window_mass_curve_matches_window_mass_at_every_stage(ticks, width, origin, n_from, block):
    """Repeated points, and points exactly d apart (origin 0: multiples of
    0.25 and d add without rounding), give the same curve as the sort,
    also for d below the lattice step and above the whole range, and
    with the stages cut into blocks of any size."""
    points = origin + 0.25 * np.array(ticks, dtype=float)
    traj = _make_trajectory(points)
    d = 0.25 * width
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_BLOCK_CELLS", block)
        curve = window_mass_curve(traj, d, n_from=n_from)
    assert list(curve) == list(range(n_from, len(ticks) + 1))
    for n, v in curve.items():
        assert v == _window_mass_oracle(points[:, None], n, d)


_BOX_2D = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0], "grid_resolution": [5, 4]}


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=80),
    d=st.sampled_from([0.1, 0.25, 0.5, 2.0 / 3.0, 1.0, 3.0]),
    n_from=st.integers(1, 81),
    block=st.sampled_from(_BLOCKS),
)
def test_window_mass_curve_2d_matches_ball_counts_at_every_stage(cells, d, n_from, block):
    """In 2-D the cumulative ball counts equal a per-stage recount around
    the region's grid; the points sit on that grid, so many lie exactly
    d/2 apart."""
    points = np.array(cells, dtype=float) / [4.0, 3.0]
    traj = _make_trajectory(points, space_echo=_BOX_2D)
    centers = Box([0.0, 0.0], [1.0, 1.0], (5, 4)).grid()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_BLOCK_CELLS", block)
        curve = window_mass_curve(traj, d, n_from=n_from)
    assert list(curve) == list(range(n_from, len(cells) + 1))
    for n, v in curve.items():
        assert v == _window_mass_oracle(points, n, d, centers)


def test_window_mass_validates_inputs():
    traj = _make_trajectory(np.arange(5.0))
    for d in (0.0, -0.1, math.inf):
        with pytest.raises(DomainError, match="window diameter d"):
            window_mass_curve(traj, d)
    assert window_mass_curve(traj, 0.1, n_from=9) == {}


def test_window_mass_rejects_nan_diameter():
    # the 2-D path, around the echoed box's grid
    traj = _make_trajectory([[0.0, 0.0], [1.0, 1.0]], space_echo=_BOX_2D)
    with pytest.raises(DomainError, match="window diameter d"):
        window_mass_curve(traj, math.nan)


def test_window_mass_curve_rejects_nan_diameter():
    traj = _make_trajectory(np.arange(5.0))
    with pytest.raises(DomainError, match="window diameter d"):
        window_mass_curve(traj, math.nan)


def test_window_mass_curve_rejects_negative_diameter_past_the_end():
    # no stage lies in [n_from, n], but the diameter is still checked
    traj = _make_trajectory(np.arange(5.0))
    with pytest.raises(DomainError, match="window diameter d"):
        window_mass_curve(traj, -1.0, n_from=500)


def test_window_mass_multidimensional_balls():
    # 2-D: balls of diameter d around the scan-grid points
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    traj = Trajectory(
        model_name="synthetic2d",
        seed=0,
        config_echo={},
        n_start=4,
        points=pts,
        responses=np.zeros(4),
        estimates=np.zeros((1, 2)),
        logdet=np.zeros(0),
        max_d=np.zeros(0),
        final_fit=None,
        design_space=Box([0.0, 0.0], [1.0, 1.0], (3, 3)),
        parameter_space=ParameterSpace([0.0, 0.0], [1.0, 1.0]),
    )
    assert window_mass_curve(traj, 0.1)[4] == pytest.approx(0.5)  # the doubled origin
    assert window_mass_curve(traj, 4.0)[4] == 1.0


# ---------------------------------------------------------------- clusters


def test_extract_clusters_two_alternating_points():
    pts = np.tile([0.0, 1.0], 30)
    traj = _make_trajectory(
        pts, space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]}
    )
    diag = extract_clusters(traj, 60, cell_diameter=0.1)
    assert diag.found == 2 == diag.requested
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
    assert diag.found == 1 < diag.requested
    assert diag.pi0 is None



def test_extract_clusters_rejects_nan_cell_diameter():
    traj = _make_trajectory(
        np.linspace(0.0, 1.0, 20),
        space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]},
    )
    with pytest.raises(DomainError, match="cell_diameter"):
        extract_clusters(traj, 20, cell_diameter=math.nan)


def _extract_clusters_oracle(trajectory, n, cell_diameter):
    """extract_clusters as a per-point loop: a dict of cell masses per round,
    the lexicographically first heaviest cell, one exclusion pass."""
    p = trajectory.p
    pts = trajectory.points[:n]
    space = trajectory.design_space
    if isinstance(space, FiniteSet):
        def assign(x):
            return (int(np.argmin(((space.points - x) ** 2).sum(axis=1))),)
    else:
        k = space.dimension
        width_target = cell_diameter / math.sqrt(k)
        counts = [
            max(1, int(math.ceil((space.upper[j] - space.lower[j]) / width_target)))
            for j in range(k)
        ]
        widths = [(space.upper[j] - space.lower[j]) / counts[j] for j in range(k)]

        def assign(x):
            return tuple(
                min(max(int((x[j] - space.lower[j]) / widths[j]), 0), counts[j] - 1)
                for j in range(k)
            )
    cell_ids = [assign(x) for x in pts]
    excluded = np.zeros(n, dtype=bool)
    clusters, member_sets = [], []
    for _ in range(p):
        masses = {}
        for i in range(n):
            if not excluded[i]:
                masses[cell_ids[i]] = masses.get(cell_ids[i], 0) + 1
        if not masses:
            break
        best_cell = max(sorted(masses), key=lambda c: masses[c])
        members = np.array([i for i in range(n) if cell_ids[i] == best_cell and not excluded[i]])
        member_pts = pts[members]
        member_uniq = np.unique(member_pts, axis=0)
        clusters.append(
            analysis.ClusterInfo(
                cell_index=best_cell,
                mass=len(members) / n,
                count=len(members),
                point_min=tuple(float(v) for v in member_pts.min(axis=0)),
                point_max=tuple(float(v) for v in member_pts.max(axis=0)),
            )
        )
        member_sets.append(member_uniq)
        d2 = ((pts[:, None, :] - member_uniq[None, :, :]) ** 2).sum(axis=-1).min(axis=1)
        excluded |= d2 <= cell_diameter**2
    separations = []
    for i in range(len(member_sets)):
        for j in range(i + 1, len(member_sets)):
            d2 = ((member_sets[i][:, None, :] - member_sets[j][None, :, :]) ** 2).sum(axis=-1)
            separations.append(float(np.sqrt(d2.min())))
    return analysis.MassDiagnostics(
        n=n,
        cell_diameter=cell_diameter,
        window_diameter=3.0 * cell_diameter,
        requested=p,
        found=len(clusters),
        clusters=tuple(clusters),
        separations=tuple(separations),
        pi0=min((c.mass for c in clusters), default=None) if len(clusters) >= p else None,
        excluded_mass=float(excluded.sum()) / n - sum(c.mass for c in clusters),
    )


_FINITE_2D = [[0.0, 0.0], [0.3, 0.1], [0.6, 0.9], [1.0, 0.5], [0.2, 0.8]]


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    k=st.sampled_from([1, 2]),
    p=st.integers(1, 3),
    region=st.sampled_from(["box", "finite"]),
    cell=st.sampled_from([0.05, 0.1, 0.25, 0.4, 1.5]),
)
def test_extract_clusters_matches_per_point_loop(data, k, p, region, cell):
    """Lattice points repeat and split evenly between cells, so the
    heaviest cell is often tied and the lexicographic tie-break decides."""
    ticks = data.draw(st.lists(st.tuples(*[st.integers(0, 8)] * k), min_size=p, max_size=60))
    points = np.array(ticks, dtype=float) / 8.0
    echo = {
        "box": {"kind": "box", "lower": [0.0] * k, "upper": [1.0] * k, "grid_resolution": [9] * k},
        "finite": {"kind": "finite", "points": [q[:k] for q in _FINITE_2D]},
    }[region]
    traj = _make_trajectory(points, p=p, space_echo=echo)
    n = data.draw(st.integers(p, len(ticks)))
    assert extract_clusters(traj, n, cell) == _extract_clusters_oracle(traj, n, cell)


def test_extract_clusters_breaks_mass_ties_to_the_first_cell():
    # three cells of two points each; the first cluster is the lowest cell
    pts = np.array([0.9, 0.5, 0.1, 0.9, 0.5, 0.1])
    traj = _make_trajectory(
        pts, p=3, space_echo={"kind": "box", "lower": [0.0], "upper": [1.0], "grid_resolution": [11]}
    )
    diag = extract_clusters(traj, 6, cell_diameter=0.1)
    assert [c.point_min for c in diag.clusters] == [(0.1,), (0.5,), (0.9,)]
    assert diag == _extract_clusters_oracle(traj, 6, 0.1)


@pytest.mark.parametrize("n,cell", [(1, 0.1), (21, 0.1), (20, 0.0), (20, math.inf)])
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
    gamma, kappa = analysis._gamma_kappa(regressor_stack(poly1_bundle.model, grid, thetas), dirs)
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
    F = regressor_stack(model, grid, np.zeros((1, 2)))
    gamma, kappa = analysis._gamma_kappa(F, np.array([[0.0, 1.0]]))
    assert kappa == 0.0


def test_gamma_kappa_michaelis_menten(mm_bundle):
    grid = mm_bundle.design_space.grid()
    thetas = mm_bundle.parameter_space.sample_grid(4)
    dirs = sample_unit_directions(2, 36, seed=9)
    gamma, kappa = analysis._gamma_kappa(regressor_stack(mm_bundle.model, grid, thetas), dirs)
    assert np.isfinite(gamma) and gamma > 0
    assert np.isfinite(kappa) and kappa > 0


def test_calibration_rejects_nan_epsilon(mm_bundle):
    grid = mm_bundle.design_space.grid()
    for epsilon in (math.nan, math.inf, 0.0):
        with pytest.raises(DomainError, match="epsilon"):
            calibrate_window_diameter(
                mm_bundle.model, mm_bundle.parameter_space, grid,
                mm_bundle.parameter_space.sample_grid(2), epsilon=epsilon,
            )


def _calibration_oracle(model, grid, thetas, threshold):
    """The calibrated d from dense all-pairs distance matrices."""
    diff = grid[:, None, :] - grid[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    fvar = np.zeros_like(dist)
    for th in thetas:
        F = np.asarray(model.f(grid, th), dtype=float)
        fd = np.sqrt(((F[:, None, :] - F[None, :, :]) ** 2).sum(axis=-1))
        np.maximum(fvar, fd, out=fvar)
    violating = fvar > threshold
    np.fill_diagonal(violating, False)
    if not violating.any():
        return float(dist.max())
    return 0.999 * float(dist[violating].min())


def _bent_model(slope: float) -> ModelSpec:
    """p = 2 regressors (1 + t0 s x0, t1 + s x_last^2): constant when s = 0."""

    def f(x, theta):
        x = np.asarray(x, dtype=float)
        th = np.asarray(theta, dtype=float)
        return np.stack(
            [1.0 + th[..., 0] * slope * x[..., 0], th[..., 1] + slope * x[..., -1] ** 2], axis=-1
        )

    def mu(x, theta):
        return (np.asarray(theta, dtype=float) * f(x, theta)).sum(axis=-1)

    return ModelSpec("bent", 2, mu, f)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    k=st.sampled_from([1, 2]),
    slope=st.sampled_from([0.0, 0.05, 0.5, 2.0]),
    epsilon=st.sampled_from([0.01, 0.1, 1.0, 100.0]),
)
def test_calibration_matches_dense_all_pairs(data, k, slope, epsilon):
    """Slope 0 makes the regressor constant in x, so no pair violates and
    d is the largest grid-pair distance."""
    ticks = data.draw(st.lists(st.tuples(*[st.integers(0, 12)] * k), min_size=2, max_size=40))
    grid = np.array(ticks, dtype=float) / 12.0 - 0.5
    thetas = np.array(
        data.draw(st.lists(st.tuples(*[st.floats(0.2, 3.0)] * 2), min_size=1, max_size=5))
    )
    model = _bent_model(slope)
    space = ParameterSpace([0.2, 0.2], [3.0, 3.0])
    cal = calibrate_window_diameter(model, space, grid, thetas, epsilon)
    assert cal.d == _calibration_oracle(model, grid, thetas, cal.threshold)
    if slope == 0.0:
        assert cal.d == float(np.sqrt(((grid[:, None] - grid[None]) ** 2).sum(axis=-1)).max())


def test_calibration_eta_identity(mm_bundle):
    grid = mm_bundle.design_space.grid()
    thetas = mm_bundle.parameter_space.sample_grid(3)
    calls = []

    def counted_f(x, theta):
        calls.append(None)
        return mm_bundle.model.f(x, theta)

    model = replace(mm_bundle.model, f=counted_f)
    cal = calibrate_window_diameter(model, mm_bundle.parameter_space, grid, thetas, epsilon=0.1)
    # one f call, broadcast over the sampled parameters, serves gamma, kappa and the pair distances
    assert len(calls) == 1
    p = 2
    assert (1 - cal.eta) ** (-2) / p == pytest.approx(1 / p + 0.05)
    assert cal.d > 0
    assert cal.threshold == pytest.approx(cal.eta * cal.kappa / cal.gamma)


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


def test_study_sets_up_where_the_oracle_once_failed(expdecay_bundle):
    # the pruned reference design at this theta_bar has a gap close to tol * p
    scenario = Scenario(
        expdecay_bundle.model,
        expdecay_bundle.design_space,
        expdecay_bundle.parameter_space,
        np.array([1.2, 0.9]),
        IIDGaussian(0.1),
        WynnConfig(n_max=30),
    )
    report = run_study(scenario, 2, [30], seed=4)
    assert report.failed == ()
    # log det M - log det M* <= gap <= p * tol, so efficiency <= exp(tol)
    assert all(0.0 < e <= math.exp(1e-5) for e in report.defficiency_samples[30])


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
    mass = window_mass_curve(traj, 1.0, n_from=400)[400]
    # direct count oracle
    pts = traj.points[:400, 0]
    brute = max(np.sum((pts >= a) & (pts <= a + 1.0)) for a in pts) / 400.0
    assert mass == pytest.approx(brute)
    assert abs(mass - 0.5) <= 0.05


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
    monkeypatch.setattr(analysis, "MAX_FAILURE_FRACTION", 0.5)
    report = run_study(scenario, 4, [20], seed=2)
    assert report.failed == (0,)
    assert "injected" in report.failure_messages[0]
    assert report.error_samples[20].shape == (3,)


def _count_calls(monkeypatch, name, modules):
    """Count the calls of the function ``name`` through every module that holds it."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _relative(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.mark.parametrize("name", ["michaelis_menten", "exponential_decay", "polynomial",
                                  "one_param_exponential"])
def test_checkpoint_statistics_match_a_refit_from_scratch(name, monkeypatch):
    """The study reads each checkpoint off the loop's own fit and design.  A
    from-scratch fit_ls, warm-started at the loop's estimate for stage n, and
    empirical_design on the first n points give the same statistics: the
    estimate, tie and convergence flags equal, the rest within 1e-13 relative.
    The study itself calls neither."""
    import adwynn
    from adwynn import adaptive, cli, design, estimator
    from adwynn.design import d_efficiency, pd_inverse_logdet, solve_locally_d_optimal
    from adwynn.estimator import DataBatch, fit_ls
    from adwynn.model import builtin_bundle

    bundle = builtin_bundle(name)
    space = bundle.parameter_space
    theta_bar = space.center()
    scenario = Scenario(bundle.model, bundle.design_space, space, theta_bar,
                        IIDGaussian(0.1), WynnConfig(n_max=60))
    modules = [estimator, adwynn, adaptive, analysis, cli, design]
    fits = _count_calls(monkeypatch, "fit_ls", modules)
    designs = _count_calls(monkeypatch, "empirical_design", [analysis, adwynn, cli])
    n_start = adaptive.starting_design(bundle.model, bundle.design_space, space).shape[0]
    checkpoints = (n_start, 30, 60)
    report = run_study(scenario, 4, checkpoints, seed=17, keep_paths=4)
    assert fits == [] and designs == []
    monkeypatch.undo()

    reference = solve_locally_d_optimal(
        bundle.model, theta_bar, bundle.design_space.grid(), tol=1e-5
    )
    logdet_ref = pd_inverse_logdet(info_matrix(reference, theta_bar, bundle.model))[1]
    sigma = report.sigma_known
    assert len(report.kept_paths) == 4
    for r, traj in enumerate(report.kept_paths):
        for n in checkpoints:
            kept = traj.stages[n][0]
            refit = fit_ls(
                DataBatch(traj.points[:n], traj.responses[:n]), bundle.model, space,
                warm_start=traj.estimates[n - traj.n_start],
            )
            design_n = empirical_design(traj.points[:n])
            assert np.array_equal(kept.theta_hat, refit.theta_hat)
            assert (kept.grid_tie, kept.converged) == (refit.grid_tie, refit.converged)
            assert kept.sigma2_hat == pytest.approx(refit.sigma2_hat, rel=1e-13)
            assert report.error_samples[n][r] == np.linalg.norm(refit.theta_hat - theta_bar)
            sigma_hat = math.sqrt(max(refit.sigma2_hat, 1e-300))
            root = matrix_sqrt(info_matrix(design_n, refit.theta_hat, bundle.model))
            delta = refit.theta_hat - theta_bar
            t_plugin = normality_stat(root, delta, sigma_hat, n)
            t_known = normality_stat(root, delta, sigma, n)
            assert _relative(report.t_plugin[n][r], t_plugin) <= 1e-13
            assert _relative(report.t_known[n][r], t_known) <= 1e-13
            M_bar = info_matrix(design_n, theta_bar, bundle.model)
            assert report.defficiency_samples[n][r] == pytest.approx(
                d_efficiency(M_bar, logdet_ref), rel=1e-13
            )
        assert traj.final_fit is traj.stages[traj.n][0]


def test_study_forms_one_square_root_and_one_f_call_per_checkpoint(mm_bundle, monkeypatch):
    """Each replicate-checkpoint takes one M^{1/2} of the loop's own M and
    evaluates f once, at theta_bar on the support, for its D-efficiency; it
    builds no Design.  The reference's M is formed once per study."""
    f_calls, in_worker, in_run = [], [], []
    scenario = _mm_scenario(mm_bundle, n_max=30)

    def f(x, theta):
        if in_worker and not in_run:
            f_calls.append(np.array_equal(theta, scenario.theta_bar))
        return mm_bundle.model.f(x, theta)

    def flagged(flag, fn):
        def wrapper(*args, **kwargs):
            flag.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                flag.pop()

        return wrapper

    for name, flag in (("_replicate_worker", in_worker), ("simulate_trajectory", in_run)):
        monkeypatch.setattr(analysis, name, flagged(flag, getattr(analysis, name)))
    infos = _count_calls(monkeypatch, "info_matrix", [analysis])
    roots = _count_calls(monkeypatch, "matrix_sqrt", [analysis])
    designs = _count_calls(monkeypatch, "Design", [analysis])
    scenario = replace(scenario, model=replace(mm_bundle.model, f=f))
    replicates, checkpoints = 3, (20, 25, 30)
    run_study(scenario, replicates, checkpoints, seed=4)
    stages = replicates * len(checkpoints)
    assert len(infos) == 1 and designs == []
    assert len(roots) == stages + 1
    assert f_calls == [True] * stages


def test_study_checkpoint_before_start_fails(mm_bundle, monkeypatch):
    """A checkpoint below the starting design fails before any replicate runs."""
    ran = _count_calls(monkeypatch, "_replicate_worker", [analysis])
    scenario = _mm_scenario(mm_bundle, n_max=20)
    with pytest.raises(ConfigError, match="checkpoint 1 precedes the starting design size"):
        run_study(scenario, 2, [1, 20], seed=2)
    assert ran == []


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
