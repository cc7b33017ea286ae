"""Regression models on compact design and parameter boxes.

A model is a mean response ``mu(x, theta)`` together with a regressor
family ``f(x, theta)`` in R^p whose outer products form the elementary
information matrices.  Design spaces are either finite point sets or
axis-aligned boxes equipped with a scan grid; their JSON form
(``to_jsonable``, ``design_space_from_jsonable``) is the one the
trajectory file echoes.  Parameter spaces are compact boxes.  The
module also provides numeric falsification checks for the structural
conditions the asymptotic theory relies on: the regressor image
spanning R^p, and identifiability of the parameter from responses at p
distinct points.

Evaluator convention: ``mu`` and ``f`` broadcast over leading axes of
both arguments, i.e. ``mu(x[(m, k)], theta[(p,)]) -> (m,)`` and
``mu(x[(k,)], theta[(G, p)]) -> (G,)``.  ``f`` appends the parameter
axis last: ``f(x[(m, k)], theta[(p,)]) -> (m, p)``.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .design import regressor_stack
from .errors import DomainError

Array = np.ndarray

_CONTAINS_TOL = 1e-9


def _freeze(a: Array) -> Array:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def as_theta(theta, p: int) -> Array:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.shape != (p,):
        raise DomainError(f"expected a parameter in R^{p}, got shape {arr.shape}")
    return arr


def finite_real_array(value, name: str) -> Array:
    """``value`` as a float array; it must nest only finite real numbers
    (no booleans, strings, ragged rows or integers beyond float range)."""

    def real(v) -> bool:
        if isinstance(v, np.ndarray):
            return v.dtype.kind in "iuf"
        if isinstance(v, (list, tuple)):
            return all(map(real, v))
        return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))

    try:
        arr = np.asarray(value, dtype=float) if real(value) else None
    except (ValueError, OverflowError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must hold only finite numbers")
    return arr


# --------------------------------------------------------------------------
# Spaces
# --------------------------------------------------------------------------


def _full_factorial(lower: Array, upper: Array, counts) -> Array:
    """counts[j] evenly spaced values per axis j, lexicographic in the axes."""
    axes = [np.linspace(lo, hi, m) for lo, hi, m in zip(lower, upper, counts)]
    return np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True)
class FiniteSet:
    """Finite experimental region: a list of distinct points in R^k."""

    points: Array

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DomainError("FiniteSet needs a nonempty (m, k) point array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("FiniteSet points must be finite")
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= 0.0:
            raise DomainError("FiniteSet points must be pairwise distinct")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def grid(self) -> Array:
        """Scan grid; for a finite set this is the set itself."""
        return self.points

    def to_jsonable(self) -> dict:
        return {"kind": "finite", "points": [list(map(float, row)) for row in self.points]}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region with a per-axis scan-grid resolution."""

    lower: Array
    upper: Array
    grid_resolution: tuple[int, ...]

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DomainError("Box bounds must be matching nonempty vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError("Box bounds must be finite")
        if not np.all(lo < hi):
            raise DomainError("Box requires lower[j] < upper[j] for all axes")
        res = tuple(int(r) for r in np.atleast_1d(self.grid_resolution))
        if len(res) == 1 and lo.size > 1:
            res = res * lo.size
        if len(res) != lo.size or any(r < 2 for r in res):
            raise DomainError("grid resolution must be >= 2 per axis")
        object.__setattr__(self, "lower", _freeze(lo))
        object.__setattr__(self, "upper", _freeze(hi))
        object.__setattr__(self, "grid_resolution", res)

    @property
    def dimension(self) -> int:
        return self.lower.size

    def grid(self) -> Array:
        """Full-factorial scan grid, lexicographic in the axis coordinates."""
        return _full_factorial(self.lower, self.upper, self.grid_resolution)

    def to_jsonable(self) -> dict:
        return {
            "kind": "box",
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "grid_resolution": list(self.grid_resolution),
        }


DesignSpace = Union[FiniteSet, Box]


def design_space_from_jsonable(obj: dict) -> Optional[DesignSpace]:
    """The region written by ``to_jsonable``; None for an empty or unknown form."""
    if not obj:
        return None
    if obj.get("kind") == "box":
        return Box(obj["lower"], obj["upper"], tuple(obj["grid_resolution"]))
    if obj.get("kind") == "finite":
        return FiniteSet(np.asarray(obj["points"], dtype=float))
    return None


@dataclass(frozen=True)
class ParameterSpace:
    """Compact parameter box in R^p."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DomainError("parameter bounds must be matching nonempty vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError("parameter bounds must be finite")
        if not np.all(lo <= hi):
            raise DomainError("parameter box requires lower[j] <= upper[j]")
        object.__setattr__(self, "lower", _freeze(lo))
        object.__setattr__(self, "upper", _freeze(hi))

    @property
    def p(self) -> int:
        return self.lower.size

    def center(self) -> Array:
        return 0.5 * (self.lower + self.upper)

    def contains(self, theta, tol: float = _CONTAINS_TOL) -> bool:
        theta = as_theta(theta, self.p)
        return bool(np.all(theta >= self.lower - tol) and np.all(theta <= self.upper + tol))

    def on_boundary(self, theta, tol: float = 1e-12) -> bool:
        theta = as_theta(theta, self.p)
        return bool(
            np.any(np.abs(theta - self.lower) <= tol)
            or np.any(np.abs(theta - self.upper) <= tol)
        )

    def project(self, theta) -> Array:
        return np.clip(np.asarray(theta, dtype=float), self.lower, self.upper)

    def sample_grid(self, points_per_axis: int = 5) -> Array:
        """Deterministic full-factorial sample, (points_per_axis**p, p)."""
        return _full_factorial(self.lower, self.upper, [points_per_axis] * self.p)

    def to_jsonable(self) -> dict:
        return {"lower": self.lower.tolist(), "upper": self.upper.tolist()}


# --------------------------------------------------------------------------
# Model specification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A mean response with its regressor family.

    ``f`` is taken to be the parameter gradient of ``mu``: the
    Gauss-Newton fit, ``sse_gradient`` and the normality statistics all
    rely on it.  The built-in models satisfy it, and their tests check it
    against central differences of ``mu``.
    """

    name: str
    p: int
    mu: Callable[[Array, Array], Array]
    f: Callable[[Array, Array], Array]

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("parameter dimension must be >= 1")


# --------------------------------------------------------------------------
# Structural-condition checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanReport:
    """Per-parameter smallest singular values of the stacked regressor matrix."""

    min_singular_values: tuple[float, ...]
    floor: float
    passed: bool


def check_span(
    model: ModelSpec,
    theta_sample: Array,
    grid: Array,
    floor: float = 1e-8,
) -> SpanReport:
    """Check that {f(x, theta) : x in grid} spans R^p for each sampled theta.

    Report-only: the smallest singular value of the (m, p) regressor
    matrix is compared against ``floor`` for every sampled parameter.
    """
    F = regressor_stack(model, grid, theta_sample)
    if F.shape[1] < model.p:
        raise DomainError("span check needs at least p grid points")
    smallest = tuple(np.linalg.svd(F, compute_uv=False)[:, -1].tolist())
    return SpanReport(smallest, floor, all(s > floor for s in smallest))


@dataclass(frozen=True)
class SIReport:
    """Sampled falsification of saturated identifiability.

    ``min_discrepancy`` is the smallest sum of squared mean-response
    differences over all sampled (theta, theta') pairs and p-tuples of
    distinct points.  A positive minimum cannot prove identifiability;
    a zero exposes a violation.
    """

    min_discrepancy: float
    floor: float
    passed: bool
    worst_pair: int
    worst_tuple: int


def check_si_numeric(
    model: ModelSpec,
    theta_pairs: Sequence[tuple[Array, Array]],
    point_tuples: Array,
    floor: float = 1e-12,
) -> SIReport:
    pairs_a = np.stack([as_theta(a, model.p) for a, _ in theta_pairs])
    pairs_b = np.stack([as_theta(b, model.p) for _, b in theta_pairs])
    tuples = np.asarray(point_tuples, dtype=float)
    if tuples.ndim == 2:
        tuples = tuples[..., None]
    # (n_pairs, n_tuples, arity) responses under each parameter of the pair
    xa = tuples[None, :, :, :]
    ta = pairs_a[:, None, None, :]
    tb = pairs_b[:, None, None, :]
    mu_a = np.asarray(model.mu(xa, ta), dtype=float)
    mu_b = np.asarray(model.mu(xa, tb), dtype=float)
    disc = ((mu_a - mu_b) ** 2).sum(axis=-1)
    flat = int(np.argmin(disc))
    worst_pair, worst_tuple = np.unravel_index(flat, disc.shape)
    min_disc = float(disc[worst_pair, worst_tuple])
    return SIReport(min_disc, floor, min_disc > floor, int(worst_pair), int(worst_tuple))


def sample_parameter_pairs(
    space: ParameterSpace,
    count: int,
    min_separation: float,
    rng: np.random.Generator,
    max_draws: int = 100000,
) -> list[tuple[Array, Array]]:
    """Uniform parameter pairs with separation >= min_separation."""
    pairs: list[tuple[Array, Array]] = []
    draws = 0
    while len(pairs) < count and draws < max_draws:
        a = rng.uniform(space.lower, space.upper)
        b = rng.uniform(space.lower, space.upper)
        draws += 1
        if np.linalg.norm(a - b) >= min_separation:
            pairs.append((a, b))
    if len(pairs) < count:
        raise DomainError("could not sample enough separated parameter pairs")
    return pairs


def sample_point_tuples(
    grid: Array,
    arity: int,
    count: int,
    rng: np.random.Generator,
) -> Array:
    """Tuples of pairwise-distinct grid points, shape (count, arity, k)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    m = grid.shape[0]
    if m < arity:
        raise DomainError("grid smaller than the requested tuple arity")
    idx = np.stack([rng.choice(m, size=arity, replace=False) for _ in range(count)])
    return grid[idx]


# --------------------------------------------------------------------------
# Built-in catalog
# --------------------------------------------------------------------------


def _mm_mu(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    return th[..., 0] * x0 / (th[..., 1] + x0)


def _mm_f(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    den = th[..., 1] + x0
    g1 = x0 / den
    out = np.empty(g1.shape + (2,))
    out[..., 0] = g1
    out[..., 1] = -th[..., 0] * x0 / den**2
    return out


def _expdecay_mu(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    return th[..., 0] * np.exp(-th[..., 1] * x0)


def _expdecay_f(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    e = np.exp(-th[..., 1] * x0)
    out = np.empty(e.shape + (2,))
    out[..., 0] = e
    out[..., 1] = -th[..., 0] * x0 * e
    return out


def _poly_mu(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    p = th.shape[-1]
    out = np.zeros(np.broadcast_shapes(x0.shape, th[..., 0].shape))
    for j in range(p - 1, -1, -1):
        out = out * x0 + th[..., j]
    return out


def _poly_f(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    p = th.shape[-1]
    out = np.empty(np.broadcast_shapes(x0.shape, th[..., 0].shape) + (p,))
    for j in range(p):
        out[..., j] = x0**j
    return out


def _exp1_mu(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    return np.exp(-th[..., 0] * x0)


def _exp1_f(x, theta):
    x0 = np.asarray(x, dtype=float)[..., 0]
    th = np.asarray(theta, dtype=float)
    g = -x0 * np.exp(-th[..., 0] * x0)
    return np.asarray(g)[..., None]


@dataclass(frozen=True)
class ModelBundle:
    """A model together with its documented default spaces."""

    model: ModelSpec
    design_space: DesignSpace
    parameter_space: ParameterSpace


def michaelis_menten(
    x_bounds: tuple[float, float] = (0.1, 3.0),
    grid_resolution: int = 201,
    theta_bounds: Sequence[tuple[float, float]] = ((0.2, 3.0), (0.2, 3.0)),
) -> ModelBundle:
    """Saturating response t1*x/(t2+x); identifiable from 2 points when t1 > 0."""
    model = ModelSpec("michaelis_menten", 2, _mm_mu, _mm_f)
    lo = [b[0] for b in theta_bounds]
    hi = [b[1] for b in theta_bounds]
    return ModelBundle(
        model,
        Box([x_bounds[0]], [x_bounds[1]], (grid_resolution,)),
        ParameterSpace(lo, hi),
    )


def exponential_decay(
    x_bounds: tuple[float, float] = (0.0, 2.0),
    grid_resolution: int = 201,
    theta_bounds: Sequence[tuple[float, float]] = ((0.5, 2.5), (0.5, 2.5)),
) -> ModelBundle:
    """Two-parameter decay t1*exp(-t2*x); identifiable when t1 > 0."""
    model = ModelSpec("exponential_decay", 2, _expdecay_mu, _expdecay_f)
    lo = [b[0] for b in theta_bounds]
    hi = [b[1] for b in theta_bounds]
    return ModelBundle(
        model,
        Box([x_bounds[0]], [x_bounds[1]], (grid_resolution,)),
        ParameterSpace(lo, hi),
    )


def polynomial(
    degree: int = 1,
    x_bounds: tuple[float, float] = (-1.0, 1.0),
    grid_resolution: int = 201,
    coef_bound: float = 2.0,
) -> ModelBundle:
    """Polynomial of the given degree; p = degree + 1 coefficients.

    Linear in the parameter, so the regressors (1, x, ..., x^degree) do
    not depend on theta and identifiability is interpolation uniqueness.
    """
    if degree < 0:
        raise DomainError("polynomial degree must be >= 0")
    p = degree + 1
    model = ModelSpec(f"polynomial_deg{degree}", p, _poly_mu, _poly_f)
    return ModelBundle(
        model,
        Box([x_bounds[0]], [x_bounds[1]], (grid_resolution,)),
        ParameterSpace([-coef_bound] * p, [coef_bound] * p),
    )


def one_param_exponential(
    x_bounds: tuple[float, float] = (0.5, 2.0),
    grid_resolution: int = 151,
    theta_bounds: tuple[float, float] = (0.5, 2.0),
) -> ModelBundle:
    """exp(-t*x) with a single rate parameter; exercises the p = 1 paths.

    The region is bounded away from x = 0, where the response would be
    constant in the parameter and identifiability would fail.
    """
    model = ModelSpec("one_param_exponential", 1, _exp1_mu, _exp1_f)
    return ModelBundle(
        model,
        Box([x_bounds[0]], [x_bounds[1]], (grid_resolution,)),
        ParameterSpace([theta_bounds[0]], [theta_bounds[1]]),
    )


BUILTIN_MODELS: dict[str, Callable[..., ModelBundle]] = {
    "michaelis_menten": michaelis_menten,
    "exponential_decay": exponential_decay,
    "polynomial": polynomial,
    "one_param_exponential": one_param_exponential,
}


def _factory_argument(factory: Callable[..., ModelBundle], key: str, value):
    """``value`` checked against the type and shape of the factory's default
    for ``key``: an integer for an integer default, otherwise finite numbers
    in the default's shape."""
    params = inspect.signature(factory).parameters
    if key not in params:
        raise DomainError(
            f"{factory.__name__} takes no parameter {key!r}; it takes {', '.join(params)}"
        )
    default = params[key].default
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{key} must be an integer, got {value!r}")
        return int(value)
    arr = finite_real_array(value, key)
    if arr.shape != np.shape(default):
        raise DomainError(f"{key} must have the shape {np.shape(default)} of its default {default}")
    return arr.tolist()


def builtin_bundle(name: str, **kwargs) -> ModelBundle:
    """The named built-in model; each keyword is checked against the type and
    shape of the factory's default before the factory checks its range."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise DomainError(f"unknown model {name!r}; known models: {known}") from None
    return factory(**{k: _factory_argument(factory, k, v) for k, v in kwargs.items()})
