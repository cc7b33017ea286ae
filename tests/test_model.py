from __future__ import annotations

import json

import numpy as np
import pytest

from adwynn.errors import DomainError
from adwynn.model import (
    Box,
    FiniteSet,
    ModelSpec,
    ParameterSpace,
    builtin_bundle,
    check_si_numeric,
    check_span,
    design_space_from_jsonable,
    sample_parameter_pairs,
    sample_point_tuples,
)


# ---------------------------------------------------------------- spaces


def test_box_requires_strict_bounds():
    with pytest.raises(DomainError):
        Box([0.0], [0.0], (5,))
    with pytest.raises(DomainError):
        Box([1.0], [0.0], (5,))


def test_box_grid_resolution_floor():
    with pytest.raises(DomainError):
        Box([0.0], [1.0], (1,))


def test_box_grid_shape_and_order():
    box = Box([0.0, 0.0], [1.0, 2.0], (3, 2))
    grid = box.grid()
    assert grid.shape == (6, 2)
    # lexicographic: first axis slowest
    assert np.allclose(grid[0], [0.0, 0.0])
    assert np.allclose(grid[1], [0.0, 2.0])
    assert np.allclose(grid[-1], [1.0, 2.0])


def test_finite_set_rejects_duplicates():
    with pytest.raises(DomainError):
        FiniteSet(np.array([[0.0], [0.0]]))


def test_design_space_json_roundtrip():
    box = Box([0.0, -1.0], [1.0, 2.0], (3, 4))
    finite = FiniteSet(np.array([[0.0], [0.5], [3.0]]))
    for space in (box, finite):
        back = design_space_from_jsonable(json.loads(json.dumps(space.to_jsonable())))
        assert type(back) is type(space)
        assert np.array_equal(back.grid(), space.grid())
    assert design_space_from_jsonable({}) is None
    assert design_space_from_jsonable({"kind": "sphere"}) is None


def test_parameter_space_validation():
    with pytest.raises(DomainError):
        ParameterSpace([0.0], [np.inf])
    with pytest.raises(DomainError):
        ParameterSpace([1.0], [0.0])
    space = ParameterSpace([0.0, -1.0], [1.0, 1.0])
    assert space.contains([0.5, 0.0])
    assert space.on_boundary([0.0, 0.0])
    assert not space.on_boundary([0.5, 0.0])
    assert np.allclose(space.project([2.0, -3.0]), [1.0, -1.0])


def test_parameter_grid_is_full_factorial():
    space = ParameterSpace([0.0, 0.0], [1.0, 1.0])
    grid = space.sample_grid(3)
    assert grid.shape == (9, 2)
    assert np.allclose(grid[0], [0.0, 0.0])


# ---------------------------------------------------------------- evaluators


def test_eval_mu_trivial_examples(mm_bundle, expdecay_bundle, poly1_bundle):
    assert float(mm_bundle.model.mu(np.array([1.0]), np.array([1.0, 1.0]))) == pytest.approx(0.5)
    assert float(expdecay_bundle.model.mu(np.array([0.0]), np.array([2.0, 3.0]))) == pytest.approx(2.0)
    assert float(poly1_bundle.model.mu(np.array([0.5]), np.array([1.0, 2.0]))) == pytest.approx(2.0)


def test_eval_f_trivial_examples(mm_bundle, poly1_bundle):
    f = mm_bundle.model.f(np.array([1.0]), np.array([1.0, 1.0]))
    assert f.shape == (2,)
    assert np.allclose(f, [0.5, -0.25])
    f = poly1_bundle.model.f(np.array([0.7]), np.array([0.0, 0.0]))
    assert np.allclose(f, [1.0, 0.7])


def test_evaluators_are_pure(mm_bundle):
    x = np.array([1.3])
    theta = np.array([0.7, 2.1])
    a = mm_bundle.model.mu(x, theta)
    b = mm_bundle.model.mu(x, theta)
    assert float(a) == float(b)
    fa = mm_bundle.model.f(x, theta)
    fb = mm_bundle.model.f(x, theta)
    assert np.array_equal(fa, fb)


def test_broadcasting_over_points_and_parameters(mm_bundle):
    grid = mm_bundle.design_space.grid()
    theta = np.array([1.0, 1.0])
    mu = mm_bundle.model.mu(grid, theta)
    assert mu.shape == (grid.shape[0],)
    thetas = mm_bundle.parameter_space.sample_grid(3)
    mu2 = mm_bundle.model.mu(grid[:1], thetas)
    assert mu2.shape == (thetas.shape[0],)
    F = mm_bundle.model.f(grid, theta)
    assert F.shape == (grid.shape[0], 2)


def _stacked_f(name):
    """The built-in regressors as separate components stacked on the last axis."""

    def mm(x0, th):
        den = th[..., 1] + x0
        return [x0 / den, -th[..., 0] * x0 / den**2]

    def expdecay(x0, th):
        e = np.exp(-th[..., 1] * x0)
        return [e, -th[..., 0] * x0 * e]

    def poly(x0, th):
        return [x0**j for j in range(th.shape[-1])]

    def exp1(x0, th):
        return [-x0 * np.exp(-th[..., 0] * x0)]

    parts = {"michaelis_menten": mm, "exponential_decay": expdecay,
             "polynomial": poly, "one_param_exponential": exp1}[name]

    def f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return np.stack(np.broadcast_arrays(x0 + 0.0 * th[..., 0], *parts(x0, th))[1:], axis=-1)

    return f


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("michaelis_menten", {}),
        ("exponential_decay", {}),
        ("polynomial", {"degree": 0}),
        ("polynomial", {"degree": 2}),
        ("one_param_exponential", {}),
    ],
)
def test_builtin_regressors_broadcast(name, kwargs):
    """f over the broadcast forms of the module docstring and the (G, 1, p)
    grid form: the shape they promise and the component values bit for bit."""
    bundle = builtin_bundle(name, **kwargs)
    f, reference, p = bundle.model.f, _stacked_f(name), bundle.model.p
    xs = bundle.design_space.grid()[::20]
    thetas = bundle.parameter_space.sample_grid(3)
    forms = [
        (xs, thetas[1], (xs.shape[0], p)),
        (xs[3], thetas, (thetas.shape[0], p)),
        (xs[3], thetas[1], (p,)),
        (xs[None, :, :], thetas[:, None, :], (thetas.shape[0], xs.shape[0], p)),
    ]
    for x, theta, shape in forms:
        got = f(x, theta)
        assert got.shape == shape
        assert np.array_equal(got, reference(x, theta))
    # every row of the grid form is the single-parameter form at that parameter
    grid_form = f(xs[None, :, :], thetas[:, None, :])
    for g, theta in enumerate(thetas):
        assert np.array_equal(grid_form[g], f(xs, theta))


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("michaelis_menten", {}),
        ("exponential_decay", {}),
        ("polynomial", {"degree": 1}),
        ("polynomial", {"degree": 2}),
        ("one_param_exponential", {}),
    ],
)
def test_builtin_gradients_match_mu(name, kwargs, rng):
    """f is the parameter gradient of mu on the default spaces: random points
    of the region and parameters of the box shrunk by 20% per side."""
    bundle = builtin_bundle(name, **kwargs)
    region, space = bundle.design_space, bundle.parameter_space
    margin = 0.2 * (space.upper - space.lower)
    for _ in range(25):
        x = rng.uniform(region.lower, region.upper)
        theta = rng.uniform(space.lower + margin, space.upper - margin)
        _assert_f_is_mu_gradient(bundle.model, x, theta)


def _assert_f_is_mu_gradient(model, x, theta):
    # central differences with step 1e-6 scaled by the component size
    g = np.asarray(model.f(x, theta))
    fd = np.empty(model.p)
    for j in range(model.p):
        h = 1e-6 * max(1.0, abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        fd[j] = (float(model.mu(x, tp)) - float(model.mu(x, tm))) / (2 * h)
    assert np.max(np.abs(g - fd)) <= 1e-5 * max(1.0, np.max(np.abs(g)))


def test_gradient_fd_agreement_explicit(mm_bundle, rng):
    for _ in range(25):
        x = rng.uniform(0.1, 3.0, size=1)
        theta = rng.uniform(0.4, 2.5, size=2)
        _assert_f_is_mu_gradient(mm_bundle.model, x, theta)


def test_builtin_unknown_name():
    with pytest.raises(DomainError):
        builtin_bundle("nope")


# ---------------------------------------------------------------- span check


def test_span_poly_on_three_points(poly1_bundle):
    grid = np.array([[-1.0], [0.0], [1.0]])
    report = check_span(poly1_bundle.model, np.zeros((1, 2)), grid)
    assert report.passed
    # oracle: smallest singular value from the eigendecomposition of F'F
    F = np.asarray(poly1_bundle.model.f(grid, np.zeros(2)))
    lam_min = np.linalg.eigvalsh(F.T @ F)[0]
    assert report.min_singular_values[0] == pytest.approx(np.sqrt(lam_min), rel=1e-12)


def test_span_fails_for_degenerate_regressor():
    def f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        shape = np.broadcast_shapes(x0.shape, th[..., 0].shape)
        return np.stack([np.ones(shape), np.zeros(shape)], axis=-1)

    model = ModelSpec("flat", 2, lambda x, t: np.asarray(x)[..., 0] * 0.0, f)
    grid = np.linspace(-1, 1, 7)[:, None]
    report = check_span(model, np.zeros((1, 2)), grid)
    assert not report.passed


def test_span_rejects_empty_parameter_sample(mm_bundle):
    # a span check over no parameter would pass without evidence
    grid = mm_bundle.design_space.grid()
    with pytest.raises(DomainError, match="parameter sample"):
        check_span(mm_bundle.model, np.zeros((0, 2)), grid)


def test_span_michaelis_menten_default_spaces(mm_bundle):
    grid = np.linspace(0.1, 3.0, 30)[:, None]
    thetas = mm_bundle.parameter_space.sample_grid(5)
    report = check_span(mm_bundle.model, thetas, grid)
    assert report.passed
    # eigendecomposition oracle on a spot sample
    F = np.asarray(mm_bundle.model.f(grid, thetas[7]))
    lam_min = np.linalg.eigvalsh(F.T @ F)[0]
    assert report.min_singular_values[7] == pytest.approx(np.sqrt(lam_min), rel=1e-10)


# ---------------------------------------------------------------- SI check


def test_si_polynomial_two_points(poly1_bundle):
    pairs = [(np.array([0.0, 0.0]), np.array([0.5, -0.5]))]
    tuples = np.array([[[-0.3], [0.8]]])
    report = check_si_numeric(poly1_bundle.model, pairs, tuples)
    assert report.passed
    assert report.min_discrepancy > 0


def test_si_michaelis_menten_sampled(mm_bundle, rng):
    space = mm_bundle.parameter_space
    pairs = sample_parameter_pairs(space, 500, min_separation=0.05, rng=rng)
    grid = mm_bundle.design_space.grid()
    tuples = sample_point_tuples(grid, arity=2, count=500, rng=rng)
    report = check_si_numeric(mm_bundle.model, pairs, tuples)
    assert report.passed
    # the sampled minimum is its own oracle: recompute the worst case
    a, b = pairs[report.worst_pair]
    z = tuples[report.worst_tuple]
    disc = sum(
        (float(mm_bundle.model.mu(z[j], a)) - float(mm_bundle.model.mu(z[j], b))) ** 2
        for j in range(2)
    )
    assert disc == pytest.approx(report.min_discrepancy, rel=1e-12)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("michaelis_menten", {}),
        ("exponential_decay", {}),
        ("polynomial", {"degree": 1}),
        ("one_param_exponential", {}),
    ],
)
def test_builtins_pass_span_and_si_on_default_spaces(name, kwargs, rng):
    bundle = builtin_bundle(name, **kwargs)
    grid = bundle.design_space.grid()
    thetas = bundle.parameter_space.sample_grid(5)
    for theta in thetas:
        assert np.all(np.isfinite(bundle.model.mu(grid, theta)))
        assert np.all(np.isfinite(bundle.model.f(grid, theta)))
    assert check_span(bundle.model, thetas, grid).passed
    pairs = sample_parameter_pairs(bundle.parameter_space, 200, 0.05, rng)
    tuples = sample_point_tuples(grid, bundle.model.p, 200, rng)
    assert check_si_numeric(bundle.model, pairs, tuples).passed


def test_si_detects_sign_symmetric_model():
    # response quadratic in the single parameter: +t and -t collide
    def mu(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return th[..., 0] ** 2 * x0

    def f(x, theta):
        x0 = np.asarray(x, dtype=float)[..., 0]
        th = np.asarray(theta, dtype=float)
        return np.asarray(2.0 * th[..., 0] * x0)[..., None]

    model = ModelSpec("squared", 1, mu, f)
    pairs = [(np.array([1.0]), np.array([-1.0]))]
    tuples = np.array([[[0.7]]])
    report = check_si_numeric(model, pairs, tuples)
    assert not report.passed
    assert report.min_discrepancy == 0.0
