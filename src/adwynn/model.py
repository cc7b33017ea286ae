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
distinct points.  ``read_value`` and ``check_value`` are the one reader
of JSON input: the run configuration, the trajectory file and its
regions, and model and noise parameters all pass them.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .design import point_rows, regressor_stack
from .errors import DomainError

Array = np.ndarray

_CONTAINS_TOL = 1e-9
SPAN_FLOOR = 1e-8  # least singular value check_span accepts
SI_FLOOR = 1e-12  # least response discrepancy check_si_numeric accepts
PAIR_DRAWS = 100000  # draws sample_parameter_pairs makes before it gives up


def _freeze(a: Array) -> Array:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def as_theta(theta, p: int) -> Array:
    arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if arr.shape != (p,):
        raise DomainError(f"expected a parameter in R^{p}, got shape {arr.shape}")
    return arr


_MISSING = object()


def read_value(obj, path: str, kind=None, default=_MISSING):
    """The value at ``path`` of a JSON document ``obj``, checked by
    ``check_value``.  ``path`` joins keys with '.'; a leading '$' stands
    for ``obj`` itself.  A missing key raises DomainError naming the path
    up to it, unless a ``default`` is given, which is then returned."""
    keys = path.split(".")
    for i in range(keys[0] == "$", len(keys)):
        if type(obj) is not dict:
            check_value(obj, ".".join(keys[:i]) or "the document", dict)
        if keys[i] not in obj:
            if default is _MISSING:
                raise DomainError(f"missing required key {'.'.join(keys[: i + 1])}")
            return default
        obj = obj[keys[i]]
    return check_value(obj, path, kind)


def _real(value) -> bool:
    """Whether ``value`` nests only real numbers; a boolean is not one."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    if isinstance(value, (list, tuple)):
        return all(map(_real, value))
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def check_value(value, path: str, kind=None):
    """``value`` if it is of ``kind``, else DomainError naming ``path``.
    ``kind`` is one of:

    - None: any value;
    - ``int``: an integer, returned as int (a boolean is not one);
    - ``float``: a finite number in float range, returned as float;
    - another type: exactly that type (``str``, ``bool``, ``list``, ``dict``);
    - a shape tuple: a float array of that shape nesting only finite
      numbers (no booleans, strings or ragged rows); a string entry
      stands for any length.
    """
    if kind is int or kind is float:
        try:
            ok = (isinstance(value, numbers.Integral if kind is int else numbers.Real)
                  and not isinstance(value, (bool, np.bool_))
                  and (kind is int or math.isfinite(value)))
        except OverflowError:  # an integer beyond float range
            ok = False
        if not ok:
            name = "an integer" if kind is int else "a finite number"
            raise DomainError(f"{path} must be {name}, got {value!r}")
        return kind(value)
    if kind is None or isinstance(kind, type):
        if kind is not None and type(value) is not kind:
            raise DomainError(f"{path} has type {type(value).__name__}, not {kind.__name__}")
        return value
    try:
        arr = np.asarray(value, dtype=float) if _real(value) else None
    except (ValueError, OverflowError):
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise DomainError(f"{path} must hold only finite numbers")
    if arr.shape == (0,) and len(kind) == 2:  # an empty list of rows
        arr = arr.reshape(0, kind[1] if isinstance(kind[1], int) else 1)
    if arr.ndim != len(kind) or any(isinstance(w, int) and w != g for w, g in zip(kind, arr.shape)):
        shapes = ["(" + ", ".join(map(str, shape)) + ")" for shape in (kind, arr.shape)]
        raise DomainError(f"{path} must have shape {shapes[0]}, got {shapes[1]}")
    return arr


# --------------------------------------------------------------------------
# Spaces
# --------------------------------------------------------------------------


def _bounds(lower, upper, name: str, strict: bool) -> tuple[Array, Array]:
    """``lower`` and ``upper`` as frozen, matching, nonempty finite vectors,
    ordered ``<`` (``strict``) or ``<=`` on every axis; DomainError if not."""
    lo, hi = (check_value(v, f"{name} bounds", ("k",)) for v in (lower, upper))
    if lo.shape != hi.shape or lo.size == 0:
        raise DomainError(f"{name} bounds must be matching nonempty vectors")
    if not np.all(lo < hi if strict else lo <= hi):
        relation = "<" if strict else "<="
        raise DomainError(f"{name} requires lower[j] {relation} upper[j] for all axes")
    return _freeze(lo), _freeze(hi)


def _full_factorial(lower: Array, upper: Array, counts) -> Array:
    """counts[j] evenly spaced values per axis j, lexicographic in the axes."""
    axes = [np.linspace(lo, hi, m) for lo, hi, m in zip(lower, upper, counts)]
    return np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@dataclass(frozen=True)
class FiniteSet:
    """Finite experimental region: a list of distinct points in R^k."""

    points: Array

    def __post_init__(self):
        object.__setattr__(self, "points", point_rows(self.points, "FiniteSet points"))

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
        lo, hi = _bounds(self.lower, self.upper, "Box", strict=True)
        res = tuple(check_value(r, "grid resolution", int)
                    for r in np.atleast_1d(self.grid_resolution).tolist())
        if len(res) != lo.size or any(r < 2 for r in res):
            raise DomainError("grid resolution must be >= 2 per axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
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


def design_space_from_jsonable(obj) -> DesignSpace:
    """The region written by ``to_jsonable``, read as a file's
    ``design_space``: a field of the wrong type or shape, or a region the
    constructor rejects, raises DomainError naming ``design_space`` and the
    field."""
    doc = {"design_space": obj}
    kind = read_value(doc, "design_space.kind", default=None)
    if kind == "box":
        resolution = read_value(doc, "design_space.grid_resolution", list)
        make, args = Box, (
            read_value(doc, "design_space.lower", ("k",)),
            read_value(doc, "design_space.upper", ("k",)),
            tuple(check_value(r, f"design_space.grid_resolution[{i}]", int)
                  for i, r in enumerate(resolution)),
        )
    elif kind == "finite":
        make, args = FiniteSet, (read_value(doc, "design_space.points", ("m", "k")),)
    else:
        raise DomainError(f"design_space.kind must be 'box' or 'finite', got {kind!r}")
    try:
        return make(*args)
    except DomainError as exc:
        raise DomainError(f"design_space: {exc}") from None


@dataclass(frozen=True)
class ParameterSpace:
    """Compact parameter box in R^p."""

    lower: Array
    upper: Array

    def __post_init__(self):
        lo, hi = _bounds(self.lower, self.upper, "parameter box", strict=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def p(self) -> int:
        return self.lower.size

    def center(self) -> Array:
        return 0.5 * (self.lower + self.upper)

    def contains(self, theta) -> bool:
        theta, tol = as_theta(theta, self.p), _CONTAINS_TOL
        return bool(np.all(theta >= self.lower - tol) and np.all(theta <= self.upper + tol))

    def on_boundary(self, theta, tol: float = 1e-12) -> bool:
        theta = as_theta(theta, self.p)
        return bool(
            np.any(np.abs(theta - self.lower) <= tol)
            or np.any(np.abs(theta - self.upper) <= tol)
        )

    def project(self, theta) -> Array:
        return np.clip(np.asarray(theta, dtype=float), self.lower, self.upper)

    def sample_grid(self, points_per_axis: int) -> Array:
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

    Both broadcast over the leading axes of x (last axis k) and theta
    (last axis p), as numpy does: ``mu(x[(m, k)], theta[(p,)]) -> (m,)``,
    ``mu(x[(k,)], theta[(G, p)]) -> (G,)``, and ``f`` appends the
    parameter axis, so ``f(x[(1, m, k)], theta[(S, 1, p)]) -> (S, m, p)``.
    The least-squares grid scan relies on this for ``mu``, and
    ``regressor_stack`` for ``f``.
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


def check_span(model: ModelSpec, theta_sample: Array, grid: Array) -> SpanReport:
    """Check that {f(x, theta) : x in grid} spans R^p for each sampled theta.

    Report-only: the smallest singular value of the (m, p) regressor
    matrix is compared against ``SPAN_FLOOR`` for every sampled parameter.
    """
    F = regressor_stack(model, grid, theta_sample)
    if F.shape[1] < model.p:
        raise DomainError("span check needs at least p grid points")
    smallest = tuple(np.linalg.svd(F, compute_uv=False)[:, -1].tolist())
    return SpanReport(smallest, SPAN_FLOOR, all(s > SPAN_FLOOR for s in smallest))


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
    model: ModelSpec, theta_pairs: Sequence[tuple[Array, Array]], point_tuples: Array
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
    return SIReport(min_disc, SI_FLOOR, min_disc > SI_FLOOR, int(worst_pair), int(worst_tuple))


def sample_parameter_pairs(
    space: ParameterSpace,
    count: int,
    min_separation: float,
    rng: np.random.Generator,
) -> list[tuple[Array, Array]]:
    """Uniform parameter pairs with separation >= min_separation, from at
    most ``PAIR_DRAWS`` draws."""
    pairs: list[tuple[Array, Array]] = []
    draws = 0
    while len(pairs) < count and draws < PAIR_DRAWS:
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


def _bundle(
    model: ModelSpec,
    x_bounds: tuple[float, float],
    grid_resolution: int,
    theta_bounds: Sequence[tuple[float, float]],
) -> ModelBundle:
    """``model`` on the interval ``x_bounds`` scanned at ``grid_resolution``
    points, with one (lower, upper) pair of ``theta_bounds`` per parameter."""
    lower, upper = zip(*theta_bounds)
    return ModelBundle(
        model, Box([x_bounds[0]], [x_bounds[1]], (grid_resolution,)), ParameterSpace(lower, upper)
    )


def michaelis_menten(
    x_bounds: tuple[float, float] = (0.1, 3.0),
    grid_resolution: int = 201,
    theta_bounds: Sequence[tuple[float, float]] = ((0.2, 3.0), (0.2, 3.0)),
) -> ModelBundle:
    """Saturating response t1*x/(t2+x); identifiable from 2 points when t1 > 0."""
    model = ModelSpec("michaelis_menten", 2, _mm_mu, _mm_f)
    return _bundle(model, x_bounds, grid_resolution, theta_bounds)


def exponential_decay(
    x_bounds: tuple[float, float] = (0.0, 2.0),
    grid_resolution: int = 201,
    theta_bounds: Sequence[tuple[float, float]] = ((0.5, 2.5), (0.5, 2.5)),
) -> ModelBundle:
    """Two-parameter decay t1*exp(-t2*x); identifiable when t1 > 0."""
    model = ModelSpec("exponential_decay", 2, _expdecay_mu, _expdecay_f)
    return _bundle(model, x_bounds, grid_resolution, theta_bounds)


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
    model = ModelSpec(f"polynomial_deg{degree}", degree + 1, _poly_mu, _poly_f)
    return _bundle(model, x_bounds, grid_resolution, [(-coef_bound, coef_bound)] * model.p)


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
    return _bundle(model, x_bounds, grid_resolution, [theta_bounds])


BUILTIN_MODELS: dict[str, Callable[..., ModelBundle]] = {
    "michaelis_menten": michaelis_menten,
    "exponential_decay": exponential_decay,
    "polynomial": polynomial,
    "one_param_exponential": one_param_exponential,
}


def _factory_argument(factory: Callable[..., ModelBundle], key: str, value):
    """``value`` checked by ``check_value`` against the type and shape of the
    factory's default for ``key``: an integer for an integer default, a
    finite number for a number, otherwise finite numbers in its shape."""
    params = inspect.signature(factory).parameters
    if key not in params:
        raise DomainError(
            f"{factory.__name__} takes no parameter {key!r}; it takes {', '.join(params)}"
        )
    default = params[key].default
    kind = np.shape(default) if np.ndim(default) else int if isinstance(default, int) else float
    value = check_value(value, key, kind)
    return value.tolist() if isinstance(value, np.ndarray) else value


def builtin_bundle(name: str, **kwargs) -> ModelBundle:
    """The named built-in model; each keyword is checked against the type and
    shape of the factory's default before the factory checks its range."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_MODELS))
        raise DomainError(f"unknown model {name!r}; known models: {known}") from None
    return factory(**{k: _factory_argument(factory, k, v) for k, v in kwargs.items()})
