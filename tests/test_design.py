from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwynn.design import (
    WEIGHT_SUM_TOL,
    Design,
    _best_start_tuple,
    d_efficiency,
    equivalence_gap,
    info_matrix,
    pd_inverse_logdet,
    quadratic_form,
    rank_one_update,
    regressor_stack,
    sensitivity_profile,
    solve_locally_d_optimal,
)
from adwynn.analysis import empirical_design
from adwynn.errors import ConvergenceError, DomainError, SingularMatrixError
from adwynn.model import (
    BUILTIN_MODELS,
    FiniteSet,
    builtin_bundle,
    exponential_decay,
    michaelis_menten,
    one_param_exponential,
    polynomial,
)

EPS = np.finfo(float).eps


def _random_design(grid, rng, size=5):
    idx = rng.choice(grid.shape[0], size=size, replace=False)
    w = rng.uniform(0.2, 1.0, size=size)
    return Design(grid[idx], w / w.sum())


# ---------------------------------------------------------------- Design type


def test_design_validation():
    with pytest.raises(DomainError):
        Design(np.array([[0.0]]), np.array([0.5]))  # weights must sum to 1
    with pytest.raises(DomainError):
        Design(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))  # duplicates
    with pytest.raises(DomainError):
        Design(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))  # negative weight
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="design support must be finite"):
            Design(np.array([[0.0], [value]]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="design weights must be positive"):
        Design(np.array([[0.0], [1.0], [2.0]]), np.array([0.5, 0.5, np.nan]))


@pytest.mark.parametrize("make", [
    FiniteSet,
    lambda pts: Design(pts, np.full(len(pts), 1.0 / len(pts))),
], ids=["FiniteSet", "Design"])
@pytest.mark.parametrize("points", [
    [[0.5], [0.25], [0.5]],
    [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [-0.0, 1.0]],  # 0.0 and -0.0 are the same point
], ids=["1d", "2d", "signed_zero"])
def test_point_sets_reject_a_repeated_row(make, points):
    with pytest.raises(DomainError, match="must be distinct points"):
        make(np.array(points))


def test_finite_set_of_many_points_checks_distinctness_in_little_memory():
    # 10^5 points in the plane: a pairwise distance matrix would need 80 GB
    i = np.arange(100_000)
    points = np.stack([i % 317, i // 317], axis=1) / 316.0
    tracemalloc.start()
    try:
        FiniteSet(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_design_json_roundtrip():
    d = Design(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    obj = json.loads(json.dumps(d.to_jsonable()))
    d2 = Design(np.asarray(obj["support"]), np.asarray(obj["weights"]))
    assert np.array_equal(d.support, d2.support)
    assert np.array_equal(d.weights, d2.weights)


# ---------------------------------------------------------------- info matrix


def test_info_matrix_rank_one(poly1_bundle):
    # single point at x = 2 has regressor (1, 2)
    d = Design(np.array([[2.0]]), np.array([1.0]))
    M = info_matrix(d, np.zeros(2), poly1_bundle.model)
    assert np.allclose(M, [[1.0, 2.0], [2.0, 4.0]], atol=1e-15)


def test_info_matrix_identity(poly1_bundle):
    d = Design(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    M = info_matrix(d, np.zeros(2), poly1_bundle.model)
    assert np.allclose(M, np.eye(2), atol=1e-15)


def test_info_matrix_against_fsum_oracle(mm_bundle, rng):
    grid = mm_bundle.design_space.grid()
    design = _random_design(grid, rng)
    theta = np.array([1.0, 1.0])
    M = info_matrix(design, theta, mm_bundle.model)
    # independent summation per entry in extended precision
    for a in range(2):
        for b in range(2):
            terms = []
            for x, w in zip(design.support, design.weights):
                f = np.asarray(mm_bundle.model.f(x, theta))
                terms.append(w * f[a] * f[b])
            assert M[a, b] == pytest.approx(math.fsum(terms), abs=1e-14)


def test_info_matrix_linear_in_weights(mm_bundle, rng):
    grid = mm_bundle.design_space.grid()
    theta = np.array([0.8, 1.7])
    d1 = _random_design(grid, rng, size=4)
    d2 = _random_design(grid, rng, size=6)
    alpha = 0.3
    support = np.vstack([d1.support, d2.support])
    weights = np.concatenate([alpha * d1.weights, (1 - alpha) * d2.weights])
    uniq, inverse = np.unique(support, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse, weights)
    mix = Design(uniq, merged)
    M_mix = info_matrix(mix, theta, mm_bundle.model)
    M_lin = alpha * info_matrix(d1, theta, mm_bundle.model) + (1 - alpha) * info_matrix(
        d2, theta, mm_bundle.model
    )
    assert np.max(np.abs(M_mix - M_lin)) <= 1e-12


# ---------------------------------------------------------------- rank-one update


def test_rank_one_shrink_only():
    M = rank_one_update(np.eye(2), np.zeros(2), n=1)
    assert np.allclose(M, 0.5 * np.eye(2))


def test_rank_one_from_zero():
    for n in (1, 3, 10):
        M = rank_one_update(np.zeros((2, 2)), np.array([1.0, 1.0]), n=n)
        assert np.allclose(M, np.ones((2, 2)) / (n + 1))


def test_rank_one_matches_recompute(mm_bundle, rng):
    grid = mm_bundle.design_space.grid()
    theta = np.array([1.3, 0.9])
    idx = rng.choice(grid.shape[0], size=202, replace=True)
    pts = grid[idx]
    start = pts[:2]
    M = info_matrix(empirical_design(start), theta, mm_bundle.model)
    worst = 0.0
    for n in range(2, 202):
        f = np.asarray(mm_bundle.model.f(pts[n], theta))
        M = rank_one_update(M, f, n)
        M_scratch = info_matrix(empirical_design(pts[: n + 1]), theta, mm_bundle.model)
        worst = max(worst, float(np.max(np.abs(M - M_scratch))))
    assert worst <= 1e-10


# ---------------------------------------------------------------- sensitivity


def test_sensitivity_identity(poly1_bundle):
    (d,) = sensitivity_profile([1.0], np.eye(2), np.zeros(2), poly1_bundle.model)
    assert d == pytest.approx(2.0)


def test_sensitivity_at_optimal_design(poly1_bundle):
    des = Design(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    M = info_matrix(des, np.zeros(2), poly1_bundle.model)
    assert sensitivity_profile([1.0], M, np.zeros(2), poly1_bundle.model) == pytest.approx([2.0])


def test_sensitivity_three_point_design(poly1_bundle):
    # M = diag(1, 2/3) so d(x) = 1 + 1.5 x^2 from the explicit 2x2 inverse
    des = Design(np.array([[-1.0], [0.0], [1.0]]), np.full(3, 1.0 / 3.0))
    M = info_matrix(des, np.zeros(2), poly1_bundle.model)
    assert sensitivity_profile([1.0], M, np.zeros(2), poly1_bundle.model) == pytest.approx([2.5])
    xs = np.linspace(-1, 1, 9)[:, None]
    prof = sensitivity_profile(xs, M, np.zeros(2), poly1_bundle.model)
    assert np.allclose(prof, 1.0 + 1.5 * xs.ravel() ** 2, atol=1e-12)


def test_sensitivity_singular_matrix_error(poly1_bundle):
    with pytest.raises(SingularMatrixError) as exc:
        sensitivity_profile([1.0], np.zeros((2, 2)), np.zeros(2), poly1_bundle.model)
    assert exc.value.min_eigenvalue <= 0.0


def test_weighted_average_sensitivity_equals_p(mm_bundle, rng):
    grid = mm_bundle.design_space.grid()
    theta = np.array([1.0, 1.0])
    for _ in range(10):
        des = _random_design(grid, rng, size=6)
        M = info_matrix(des, theta, mm_bundle.model)
        d = sensitivity_profile(des.support, M, theta, mm_bundle.model)
        assert float(des.weights @ d) == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------- log det


def test_log_det_examples():
    assert pd_inverse_logdet(np.eye(2))[1] == pytest.approx(0.0)
    assert pd_inverse_logdet(np.diag([2.0, 8.0]))[1] == pytest.approx(np.log(16.0))
    with pytest.raises(SingularMatrixError):
        pd_inverse_logdet(np.diag([1.0, 0.0]))


def test_log_det_eigenvalue_product_oracle(rng):
    A = rng.standard_normal((4, 4))
    M = A.T @ A + 0.5 * np.eye(4)
    eigs = np.linalg.eigvalsh(M)
    assert pd_inverse_logdet(M)[1] == pytest.approx(float(np.log(np.prod(eigs))), abs=1e-10)


def test_pd_inverse_floor():
    with pytest.raises(SingularMatrixError):
        pd_inverse_logdet(np.diag([1.0, 1e-13]))
    Minv = pd_inverse_logdet(np.diag([2.0, 4.0]))[0]
    assert np.allclose(Minv, np.diag([0.5, 0.25]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "p,entry", [(1, (0, 0)), (2, (0, 0)), (2, (1, 0)), (2, (0, 1)), (3, (2, 2)), (3, (2, 0))]
)
def test_pd_inverse_logdet_rejects_non_finite(p, entry, value):
    M = np.eye(p)
    M[entry] = value
    with pytest.raises(SingularMatrixError, match="not finite"):
        pd_inverse_logdet(M)


def _spd(log_scale: float, log_kappa: float, angle: float, p: int) -> np.ndarray:
    """Symmetric positive definite p x p (p = 1, 2): largest eigenvalue
    10**log_scale, condition number 10**log_kappa, eigenvectors at ``angle``."""
    lam_max = 10.0**log_scale
    if p == 1:
        return np.array([[lam_max]])
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    M = R @ np.diag([lam_max, lam_max / 10.0**log_kappa]) @ R.T
    return 0.5 * (M + M.T)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([1, 2]),
    log_scale=st.floats(-6.0, 6.0),
    log_kappa=st.floats(0.0, 6.0),
    angle=st.floats(0.0, math.pi),
    log_floor_ratio=st.floats(-1.0, 1.0),
)
def test_closed_form_inverse_logdet_matches_lapack(p, log_scale, log_kappa, angle, log_floor_ratio):
    """The p = 2 closed form against LAPACK's eigh on the same matrix (p = 1,
    which goes through eigh itself, checks the shared floor and logdet rules).

    In the log determinant both sides lose about eps * kappa to
    cancellation in the smallest eigenvalue, so the bound has a kappa
    term beside the 1e-12 relative one."""
    M = _spd(log_scale, log_kappa, angle, p)
    eigvals, eigvecs = np.linalg.eigh(M)
    kappa = eigvals[-1] / eigvals[0]
    ref_logdet = float(np.log(eigvals).sum())
    Minv, logdet = pd_inverse_logdet(M, floor=0.0)
    assert np.abs(M @ Minv - np.eye(p)).max() <= 1e-9 * kappa
    assert abs(logdet - ref_logdet) <= 1e-12 * (1.0 + abs(ref_logdet)) + 64 * EPS * kappa
    # the floor decision, away from a floor within 1e-9 relative of lambda_min
    floor = eigvals[0] * 10.0**log_floor_ratio
    if abs(eigvals[0] - floor) <= 1e-9 * floor:
        return
    if eigvals[0] <= floor:
        with pytest.raises(SingularMatrixError):
            pd_inverse_logdet(M, floor)
    else:
        pd_inverse_logdet(M, floor)


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3]),
    rows=st.integers(1, 40),
    log_kappa=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadratic_form_matches_einsum(p, rows, log_kappa, seed):
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    Minv = Q @ np.diag(np.logspace(0.0, log_kappa, p)) @ Q.T
    Minv = 0.5 * (Minv + Minv.T)
    F = rng.standard_normal((rows, p))
    ref = np.einsum("ij,jk,ik->i", F, Minv, F)
    assert np.all(np.abs(quadratic_form(F, Minv) - ref) <= 1e-12 * np.abs(ref))


# ---------------------------------------------------------------- oracle


def test_oracle_polynomial_brute_force(poly1_bundle):
    grid = poly1_bundle.design_space.grid()
    theta = np.zeros(2)
    des = solve_locally_d_optimal(poly1_bundle.model, theta, grid, tol=1e-6)
    # brute force over two-point designs on a grid subsample with endpoints
    idx = np.unique(np.r_[0 : grid.shape[0] : 4, grid.shape[0] - 1])
    best = -np.inf
    best_pair = None
    for i in idx:
        for j in idx[idx > i]:
            for w in np.linspace(0.05, 0.95, 19):
                det = w * (1 - w) * (grid[j, 0] - grid[i, 0]) ** 2
                if det > best:
                    best, best_pair = det, (grid[i, 0], grid[j, 0], w)
    assert best_pair[:2] == (-1.0, 1.0)
    assert best_pair[2] == pytest.approx(0.5)
    ld = pd_inverse_logdet(info_matrix(des, theta, poly1_bundle.model))[1]
    assert ld >= np.log(best) - 1e-4
    w = {round(float(x), 6): float(wt) for x, wt in zip(des.support.ravel(), des.weights)}
    assert w.get(-1.0, 0.0) == pytest.approx(0.5, abs=1e-3)
    assert w.get(1.0, 0.0) == pytest.approx(0.5, abs=1e-3)
    assert equivalence_gap(des, theta, poly1_bundle.model, grid) <= 2e-6


def test_oracle_names_a_point_where_the_regressors_are_not_finite():
    # f(0, theta) is 0/0 at theta2 = 0, which a singular-grid error would not say
    bundle = michaelis_menten(x_bounds=(0.0, 3.0), theta_bounds=((0.2, 3.0), (0.0, 3.0)))
    with pytest.raises(DomainError, match=r"at x = \[0\.0\], theta = \[1\.0, 0\.0\]"):
        solve_locally_d_optimal(bundle.model, np.array([1.0, 0.0]), bundle.design_space.grid())


def test_oracle_p1_is_pointwise_max(exp1_bundle):
    grid = exp1_bundle.design_space.grid()
    theta = np.array([1.0])
    des = solve_locally_d_optimal(exp1_bundle.model, theta, grid, tol=1e-6)
    assert des.support.shape[0] == 1
    F = np.asarray(exp1_bundle.model.f(grid, theta))
    assert des.support[0, 0] == grid[int(np.argmax(F[:, 0] ** 2)), 0]
    assert equivalence_gap(des, theta, exp1_bundle.model, grid) == pytest.approx(0.0, abs=1e-15)


def test_oracle_michaelis_menten_certificate(mm_bundle):
    grid = mm_bundle.design_space.grid()
    theta = np.array([1.0, 1.0])
    des = solve_locally_d_optimal(mm_bundle.model, theta, grid, tol=1e-4)
    gap = equivalence_gap(des, theta, mm_bundle.model, grid)
    assert gap <= 1e-4 * 2
    # max sensitivity over the grid stays below p * (1 + tol)
    M = info_matrix(des, theta, mm_bundle.model)
    prof = sensitivity_profile(grid, M, theta, mm_bundle.model)
    assert prof.max() <= 2.0 * (1 + 1e-4)
    # one support point sits at the upper end of the region
    assert np.any(np.isclose(des.support.ravel(), 3.0))


def test_oracle_unattainable_tolerance(mm_bundle):
    grid = mm_bundle.design_space.grid()
    with pytest.raises(ConvergenceError) as exc:
        solve_locally_d_optimal(mm_bundle.model, np.array([0.2, 0.2]), grid, tol=0.0)
    assert exc.value.gap > 0


def test_oracle_exchange_that_cannot_move_weight_stops(mm_bundle):
    # at tol = 0 the exchange here picks one point as both source and
    # target, which would zero the design; the search stops with the gap
    grid = mm_bundle.design_space.grid()
    theta = (0.2 + 2.8 / 3) * np.ones(2)
    with pytest.raises(ConvergenceError, match="can no longer move weight") as exc:
        solve_locally_d_optimal(mm_bundle.model, theta, grid, tol=0.0)
    assert exc.value.gap > 0


@pytest.mark.parametrize(
    "theta", [(1.983492724500072, 0.9554027985388369), (1.722149976103184, 2.818202786605751)]
)
def test_oracle_exchange_that_does_not_raise_logdet_stops(mm_bundle, theta):
    # at tol = 0 two support points here trade rounding-level weight in a
    # cycle; the first exchange that leaves log det M where it was ends it
    grid = mm_bundle.design_space.grid()
    with pytest.raises(ConvergenceError, match="failed to raise log det M") as exc:
        solve_locally_d_optimal(mm_bundle.model, np.array(theta), grid, tol=0.0)
    assert int(re.search(r"after (\d+) exchanges", str(exc.value)).group(1)) <= 10
    assert exc.value.gap > 0


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILTIN_MODELS)),
    corner=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_oracle_log_det_stop_is_never_early(name, corner):
    # the log det rule must not end a search that can still reach tol
    bundle = builtin_bundle(name)
    space, model, tol = bundle.parameter_space, bundle.model, 1e-6
    theta = space.lower + np.array(corner[: model.p]) * (space.upper - space.lower)
    grid = bundle.design_space.grid()
    des = solve_locally_d_optimal(model, theta, grid, tol=tol)
    assert equivalence_gap(des, theta, model, grid) <= tol * model.p
    assert abs(des.weights.sum() - 1.0) <= WEIGHT_SUM_TOL


def _best_tuple_by_loop(F, p):
    best, best_val = [], -1.0
    for combo in itertools.combinations(range(F.shape[0]), p):
        val = abs(np.linalg.det(F[list(combo)]))
        if val > best_val:
            best, best_val = list(combo), val
    return best


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1, 2, 3, 4]),
    extra=st.integers(0, 5),
    duplicates=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3),
    tuples_per_block=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_start_tuple_matches_loop(p, extra, duplicates, tuples_per_block, seed):
    # blocks of 1-3 tuples put exact ties (from duplicated rows) in different blocks;
    # the callers pass finite regressors only (finite_regressors)
    m = p + extra
    F = np.random.default_rng(seed).standard_normal((m, p))
    for src, dst in duplicates:
        F[dst % m] = F[src % m]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("adwynn.design._DET_BLOCK_CELLS", tuples_per_block * p * p)
        best = _best_start_tuple(F, p)
    assert best == _best_tuple_by_loop(F, p)


@pytest.mark.parametrize(
    "bundle,theta,support,weights",
    [
        (exponential_decay(), (1.2, 0.9), [0.0, 1.11], [0.5, 0.5]),
        (polynomial(degree=2), (0.5, -1.0, 0.8), [-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]),
        (michaelis_menten(), (1.0, 1.0), [0.593, 0.6075, 3.0], None),
    ],
)
def test_oracle_lists_only_optimal_points(bundle, theta, support, weights):
    # no grid neighbour of an optimal point keeps a sliver of weight
    grid = bundle.design_space.grid()
    des = solve_locally_d_optimal(bundle.model, np.array(theta), grid)
    assert des.support[:, 0] == pytest.approx(support, abs=1e-12)
    if weights is not None:
        assert des.weights == pytest.approx(weights, rel=1e-12)


@pytest.mark.parametrize(
    "bundle,theta,tol",
    [
        (exponential_decay(), (1.2, 0.9), 1e-5),
        (exponential_decay(), (1.0, 0.5), 1e-5),
        (exponential_decay(), (1.0, 1.0), 1e-6),
        (polynomial(degree=2), (0.5, -1.0, 0.7), 1e-6),
    ],
)
def test_oracle_certifies_after_pruning(bundle, theta, tol):
    # cases whose gap after pruning lies close to tol * p
    grid = bundle.design_space.grid()
    theta = np.array(theta)
    des = solve_locally_d_optimal(bundle.model, theta, grid, tol=tol)
    assert equivalence_gap(des, theta, bundle.model, grid) <= tol * bundle.model.p


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"tol": math.nan}, "tol"),
        ({"tol": -1e-6}, "tol"),
        ({"tol": math.inf}, "tol"),
    ],
)
def test_oracle_rejects_bad_settings(mm_bundle, kwargs, name):
    grid = mm_bundle.design_space.grid()
    with pytest.raises(DomainError, match=name):
        solve_locally_d_optimal(mm_bundle.model, np.array([1.0, 1.0]), grid, **kwargs)


def _continuous_optimum(name: str, theta) -> list[float]:
    """Support of the D-optimal design over the whole interval, whose
    weights are equal: the saturated design of largest determinant."""
    return {
        "exponential_decay": lambda t: [0.0, 1.0 / t[1]],
        "michaelis_menten": lambda t: [3.0 * t[1] / (3.0 + 2.0 * t[1]), 3.0],
        "one_param_exponential": lambda t: [1.0 / t[0]],
        "polynomial": lambda t: [-1.0, 0.0, 1.0],
    }[name](theta)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILTIN_MODELS)),
    corner=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_oracle_is_within_a_grid_step_of_the_closed_form(name, corner):
    bundle = builtin_bundle(name, **({"degree": 2} if name == "polynomial" else {}))
    space, model, region = bundle.parameter_space, bundle.model, bundle.design_space
    theta = space.lower + np.array(corner[: model.p]) * (space.upper - space.lower)
    step = float((region.upper - region.lower)[0]) / (region.grid_resolution[0] - 1)
    des = solve_locally_d_optimal(model, theta, region.grid(), tol=1e-6)
    optimum = np.array(_continuous_optimum(name, theta))
    assert np.abs(des.support - optimum).min(axis=1).max() <= step
    exact = Design(optimum[:, None], np.full(optimum.size, 1.0 / optimum.size))
    logdet_exact = pd_inverse_logdet(info_matrix(exact, theta, model))[1]
    assert d_efficiency(info_matrix(des, theta, model), logdet_exact) >= 1.0 - 5e-4


@pytest.mark.parametrize(
    "bundle",
    [michaelis_menten(), exponential_decay(), polynomial(), polynomial(degree=3),
     one_param_exponential()],
    ids=["michaelis_menten", "exponential_decay", "linear", "cubic", "one_param_exponential"],
)
def test_regressor_stack_matches_per_theta_loop(bundle):
    grid, thetas = bundle.design_space.grid(), bundle.parameter_space.sample_grid(5)
    loop = np.stack([bundle.model.f(grid, theta) for theta in thetas])
    assert np.array_equal(regressor_stack(bundle.model, grid, thetas), loop)


def test_oracle_michaelis_menten_analytic_bounds(mm_bundle):
    # the optimum over the continuous region [0.1, 3] at theta = (1, 1) puts
    # weight 1/2 on 3 and on 3 / (2 + 3) = 0.6, which lies between grid points
    grid = mm_bundle.design_space.grid()
    theta = np.array([1.0, 1.0])
    des = solve_locally_d_optimal(mm_bundle.model, theta, grid)
    assert 3.0 in des.support[:, 0]
    ld = pd_inverse_logdet(info_matrix(des, theta, mm_bundle.model))[1]
    half = np.array([0.5, 0.5])
    on_grid, continuous = (
        pd_inverse_logdet(info_matrix(Design(np.array([[x], [3.0]]), half), theta, mm_bundle.model))[1]
        for x in (0.593, 0.6)
    )
    assert on_grid <= ld <= continuous


@settings(max_examples=30, deadline=None)
@given(
    bundle=st.sampled_from(
        [michaelis_menten(), exponential_decay(), polynomial(), polynomial(degree=2)]
    ),
    corner=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_oracle_properties(bundle, corner, seed):
    space, model = bundle.parameter_space, bundle.model
    theta = space.lower + np.array(corner[: model.p]) * (space.upper - space.lower)
    grid = bundle.design_space.grid()
    tol = 1e-5
    des = solve_locally_d_optimal(model, theta, grid, tol=tol)
    assert np.all(des.weights > 0.0)
    assert abs(des.weights.sum() - 1.0) <= WEIGHT_SUM_TOL
    gap = equivalence_gap(des, theta, model, grid)
    assert gap <= tol * model.p
    # equivalence theorem: log det M(xi) <= log det M(xi_hat) + max d - p for every xi
    ld = pd_inverse_logdet(info_matrix(des, theta, model))[1]
    # on designs far from and near the oracle's: mixtures (1 - a) xi_hat + a xi
    rng = np.random.default_rng(seed)
    for alpha in (1.0, 0.3, 1e-2, 1e-4):
        other = _random_design(grid, rng, size=int(rng.integers(model.p, 9)))
        support = np.vstack([des.support, other.support])
        weights = np.concatenate([(1 - alpha) * des.weights, alpha * other.weights])
        uniq, inverse = np.unique(support, axis=0, return_inverse=True)
        merged = np.zeros(uniq.shape[0])
        np.add.at(merged, inverse.ravel(), weights)
        keep = merged > 0.0
        mix = Design(uniq[keep], merged[keep] / merged[keep].sum())
        try:
            ld_mix = pd_inverse_logdet(info_matrix(mix, theta, model))[1]
        except SingularMatrixError:
            continue
        assert ld_mix <= ld + gap + 1e-12


# ---------------------------------------------------------------- efficiency


def _efficiency(design, reference, model):
    """d_efficiency of ``design`` against ``reference``, both at theta = 0."""
    theta = np.zeros(model.p)
    logdet_ref = pd_inverse_logdet(info_matrix(reference, theta, model))[1]
    return d_efficiency(info_matrix(design, theta, model), logdet_ref)


def test_defficiency_identity(poly1_bundle):
    des = Design(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    assert _efficiency(des, des, poly1_bundle.model) == pytest.approx(1.0)


def test_defficiency_strictly_suboptimal(poly1_bundle):
    ref = Design(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    worse = Design(np.array([[-1.0], [0.99]]), np.array([0.5, 0.5]))
    assert _efficiency(worse, ref, poly1_bundle.model) < 1.0


def test_defficiency_never_exceeds_one_against_exact_optimum(poly1_bundle, rng):
    # {-1, 1} at weights (1/2, 1/2) is the exact optimum on this region
    ref = Design(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    grid = poly1_bundle.design_space.grid()
    for _ in range(25):
        des = _random_design(grid, rng, size=int(rng.integers(2, 8)))
        try:
            eff = _efficiency(des, ref, poly1_bundle.model)
        except SingularMatrixError:
            continue
        assert 0.0 < eff <= 1.0 + 1e-9
