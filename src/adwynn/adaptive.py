"""The adaptive sequential design loop.

Each iteration evaluates the sensitivity function at the current
parameter estimate, takes an observation at its maximizer over the scan
grid, refits least squares on all observations so far, and updates the
empirical design.  A starting design certified positive definite across
a parameter sample makes every later information matrix positive
definite by induction, since each update is a convex combination with a
rank-one term.

The regressors at each estimate are evaluated once on the scan grid,
for the sensitivity.  The information matrix reads f on the support at
the same estimate, which the estimator kept from its descent, as it kept
mu there for the next refit's warm start.

The loop's own objects are the run's record: the estimator's grouped
data is the one empirical design, and its fits are the trajectory's
``final_fit`` and requested stages.  The trajectory's columns are the
step record: each observation, estimate and step statistic (``logdet``,
``max_d``) is stored once, and ``Trajectory.records`` reads the per-step
view off them.  ``run`` takes an
``LSAdaptiveEstimator`` or a subclass; ``adwynn session`` passes one
that announces each refit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Protocol, Sequence

import numpy as np

from .design import (
    _best_start_tuple,
    finite_regressors,
    information,
    pd_inverse_logdet,
    quadratic_form,
    regressor_stack,
)
from .errors import AcquisitionError, ConfigError, DomainError, InitializationError
from .estimator import (
    GRID_POINTS_PER_AXIS,
    MAX_HALVINGS,
    MAX_ITERATIONS,
    STEP_TOL,
    LSAdaptiveEstimator,
    LSFit,
)
from .model import (
    DesignSpace,
    ModelSpec,
    ParameterSpace,
    check_value,
    design_space_from_jsonable,
    read_value,
)
from .noise import ErrorSpec, make_rng

Array = np.ndarray

TIE_RTOL = 1e-13  # sensitivities this close to the maximum, relative, tie for the argmax
PD_FLOOR = 1e-8  # the least eigenvalue a positive definite information matrix must exceed
THETA_CHECK_POINTS_PER_AXIS = 5  # per-axis points of the sample certifying the start


# --------------------------------------------------------------------------
# Configuration, sources, estimators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WynnConfig:
    """Settings for one adaptive run.

    ``n_max`` counts total observations including the starting design.
    The echo also records the fixed numerical settings the run used.
    """

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")

    def to_jsonable(self) -> dict:
        return {
            "n_max": self.n_max,
            "pd_floor": PD_FLOOR,
            "theta_check_points_per_axis": THETA_CHECK_POINTS_PER_AXIS,
            "fit": {
                "grid_points_per_axis": GRID_POINTS_PER_AXIS,
                "max_iterations": MAX_ITERATIONS,
                "step_tol": STEP_TOL,
                "max_halvings": MAX_HALVINGS,
            },
        }


class EndRun(Exception):
    """Raised by a response source to end the run early; see ``run``."""


class ResponseSource(Protocol):
    def observe(self, x: Array, step: int) -> float: ...


class SimulatedSource:
    """Responses from the model at a hidden true parameter plus noise."""

    def __init__(
        self,
        model: ModelSpec,
        theta_bar: Array,
        noise: ErrorSpec,
        rng: np.random.Generator,
    ):
        self._model = model
        self._theta_bar = np.asarray(theta_bar, dtype=float)
        self._noise = noise
        self._rng = rng
        self._mean: dict[bytes, float] = {}  # mu(x, theta_bar) per design point

    def observe(self, x: Array, step: int) -> float:
        e = float(self._noise.draw(step, self._rng))
        x = np.atleast_1d(x)
        key = x.tobytes()
        mean = self._mean.get(key)
        if mean is None:
            mean = self._mean[key] = float(self._model.mu(x, self._theta_bar))
        return mean + e


class ReplaySource:
    """Responses replayed from a fixed list, in order."""

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._cursor = 0

    def observe(self, x: Array, step: int) -> float:
        if self._cursor >= len(self._values):
            raise AcquisitionError(f"replay source exhausted after {self._cursor} responses")
        y = self._values[self._cursor]
        self._cursor += 1
        return y


# --------------------------------------------------------------------------
# Initial design
# --------------------------------------------------------------------------


def build_initial_design(
    model: ModelSpec,
    space: ParameterSpace,
    grid: Array,
    theta_check_sample: Array,
) -> Array:
    """Starting points whose uniform design is positive definite.

    Certification is numeric: the smallest eigenvalue of the averaged
    information matrix must clear ``PD_FLOOR`` for every parameter in
    ``theta_check_sample``.  Construction is greedy; for p = 1 the
    start point maximizes the worst-case squared regressor directly.
    Points are added until the floor is cleared or the addition budget
    10 * p * len(sample) runs out.  Regressors that are not finite on the
    sample or at the box's centre raise DomainError (``finite_regressors``).
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    m = grid.shape[0]
    p = model.p
    if m < p:
        raise InitializationError(f"grid has {m} points, fewer than p = {p}")

    F_sample = regressor_stack(model, grid, theta_check_sample)  # (S, m, p)

    if p == 1:
        worst_sq = (F_sample[:, :, 0] ** 2).min(axis=0)
        chosen = [int(np.argmax(worst_sq))]
    else:
        center = space.center()
        F_center = np.asarray(model.f(grid, center), dtype=float)
        chosen = _best_start_tuple(finite_regressors(model, F_center, grid, center), p)

    outer = np.einsum("smi,smj->smij", F_sample, F_sample)  # (S, m, p, p)
    B = outer[:, chosen, :, :].sum(axis=1)  # (S, p, p)

    def certified(B_now: Array, count: int) -> float:
        return float(np.linalg.eigvalsh(B_now / count)[:, 0].min())

    budget = 10 * p * F_sample.shape[0]
    while not certified(B, len(chosen)) > PD_FLOOR:
        if len(chosen) - p >= budget:
            raise InitializationError(
                f"could not clear pd_floor {PD_FLOOR:.1e} after {len(chosen)} points; "
                f"worst-case min eigenvalue {certified(B, len(chosen)):.3e}; "
                "the scan grid or the parameter sample is probably too coarse"
            )
        cand = (B[:, None, :, :] + outer) / (len(chosen) + 1.0)  # (S, m, p, p)
        lam = np.linalg.eigvalsh(cand)[..., 0]  # (S, m)
        worst = lam.min(axis=0)  # (m,)
        chosen.append(int(np.argmax(worst)))
        B = B + outer[:, chosen[-1], :, :]
    return grid[chosen].copy()


def starting_design(
    model: ModelSpec, design_space: DesignSpace, parameter_space: ParameterSpace
) -> Array:
    """The starting points ``run`` observes."""
    sample = parameter_space.sample_grid(THETA_CHECK_POINTS_PER_AXIS)
    return build_initial_design(model, parameter_space, design_space.grid(), sample)


# --------------------------------------------------------------------------
# Run state and trajectory records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    """One iteration: state at stage n and the transition to n + 1."""

    n: int
    x_next: tuple[float, ...]
    theta: tuple[float, ...]
    logdet: float
    max_d: float
    y_next: float


_RECORD_KEYS = tuple(f.name for f in fields(StepRecord))


class WynnState:
    """Mutable single-run state; one writer per run.  The estimator's
    grouped data is the empirical design, read by the refit and
    ``compute_info`` alike.  ``points``, ``responses``, ``estimates``,
    ``logdet`` and ``max_d`` are the trajectory's columns, one entry per
    observation, refit or step.  ``F`` is f on the grid at the current
    estimate (``compute_info``), read by the sensitivity."""

    def __init__(
        self,
        model: ModelSpec,
        design_space: DesignSpace,
        estimator: LSAdaptiveEstimator,
        keep_stages: Sequence[int] = (),
    ):
        self.model = model
        self.estimator = estimator
        self.grid = design_space.grid()
        self.F: Optional[Array] = None
        self.fit: Optional[LSFit] = None
        self.M: Optional[Array] = None
        self.points: list[Array] = []
        self.responses: list[float] = []
        self.estimates: list[Array] = []
        self.logdet: list[float] = []
        self.max_d: list[float] = []
        self.n_start = 0
        self.keep_stages = frozenset(keep_stages)
        self.stages: dict[int, tuple[LSFit, Array, Array, Array]] = {}

    @property
    def n(self) -> int:
        return len(self.responses)

    # -- bookkeeping ---------------------------------------------------

    def _append(self, x: Array, y: float) -> None:
        """Observe y at x."""
        self.points.append(x)
        self.responses.append(y)
        self.estimator.update(x, y)

    def compute_info(self, theta: Array) -> Array:
        """M at theta, the estimator's last estimate, from the f it kept on
        the support there; keeps f on the grid at theta as ``F``."""
        self.F = np.asarray(self.model.f(self.grid, theta), dtype=float)
        estimator = self.estimator
        return information(estimator.f, estimator.data.counts / float(self.n))

    def _refresh(self) -> None:
        self.fit = self.estimator.estimate()
        self.estimates.append(self.fit.theta_hat.copy())
        self.M = self.compute_info(self.fit.theta_hat)
        if self.n in self.keep_stages:
            data = self.estimator.data
            self.stages[self.n] = (self.fit, data.points.copy(), data.counts.copy(), self.M)


def wynn_step(state: WynnState, response_source: ResponseSource) -> WynnState:
    """One iteration: argmax the sensitivity, observe, refit, update.

    The sensitivity reads the regressors ``compute_info`` kept.  The argmax
    is the lowest grid index among the points whose sensitivity lies within
    ``TIE_RTOL`` of the maximum, so rounding does not pick between points
    that tie exactly in exact arithmetic."""
    if state.M is None:
        raise DomainError("state is not initialized")
    Minv, logdet = pd_inverse_logdet(state.M, PD_FLOOR)
    d = quadratic_form(state.F, Minv)
    d_max = d.max()
    if not math.isfinite(d_max):  # d overflows or the regressors at theta_hat are not finite
        finite_regressors(state.model, state.F, state.grid, state.fit.theta_hat)
    idx = int(np.argmax(d >= d_max * (1.0 - TIE_RTOL)))
    x_next = state.grid[idx].copy()
    y_next = response_source.observe(x_next, state.n + 1)
    state._append(x_next, float(y_next))
    state._refresh()
    state.logdet.append(logdet)
    state.max_d.append(float(d[idx]))
    return state


@dataclass(frozen=True)
class Trajectory:
    """Complete record of one adaptive run.  ``estimates`` is (stages, p):
    the refit at each stage from ``n_start``; ``logdet`` and ``max_d`` hold
    one entry per step.  ``design_space`` and ``parameter_space`` are the
    run's regions.  ``stages`` (see ``run``) is not in the JSON form."""

    model_name: str
    seed: int
    config_echo: dict
    n_start: int
    points: Array
    responses: Array
    estimates: Array
    logdet: Array
    max_d: Array
    final_fit: Optional[LSFit]
    design_space: DesignSpace
    parameter_space: ParameterSpace
    stages: dict[int, tuple[LSFit, Array, Array, Array]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.estimates.shape[1]

    def _steps(self):
        """Each step's (n, x_next, theta, logdet, max_d, y_next) in plain
        floats, read off the columns: the one place that knows the layout
        of a v1 step record."""
        points, responses = self.points.tolist(), self.responses.tolist()
        columns = zip(self.estimates.tolist(), self.logdet.tolist(), self.max_d.tolist())
        for n, (theta, logdet, max_d) in enumerate(columns, self.n_start):
            yield n, points[n], theta, logdet, max_d, responses[n]

    @property
    def records(self) -> tuple[StepRecord, ...]:
        """The step records, rebuilt from the columns on each access."""
        return tuple(
            StepRecord(n, tuple(x), tuple(theta), logdet, max_d, y)
            for n, x, theta, logdet, max_d, y in self._steps()
        )

    def to_jsonable(self) -> dict:
        return {
            "schema": "adwynn.trajectory.v1",
            "model": self.model_name,
            "seed": self.seed,
            "config": self.config_echo,
            "design_space": self.design_space.to_jsonable(),
            "parameter_space": self.parameter_space.to_jsonable(),
            "n_start": self.n_start,
            "points": self.points.tolist(),
            "responses": self.responses.tolist(),
            "estimates": self.estimates.tolist(),
            "records": [dict(zip(_RECORD_KEYS, step)) for step in self._steps()],
            "final_fit": None if self.final_fit is None else {
                key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in vars(self.final_fit).items()
            },
        }

    @staticmethod
    def from_jsonable(obj) -> "Trajectory":
        """The trajectory a v1 file holds.  A key that is missing, of the
        wrong type or shape, or not finite raises DomainError naming it, as
        do a ``design_space`` that is neither a box nor a finite set, and
        records that disagree with ``points``, ``responses`` or
        ``estimates``: the file's records must be the columns' records."""
        bounds = [read_value(obj, f"parameter_space.{key}", ("p",)) for key in ("lower", "upper")]
        try:
            space = ParameterSpace(*bounds)
        except DomainError as exc:
            raise DomainError(f"parameter_space: {exc}") from None
        region = design_space_from_jsonable(read_value(obj, "design_space"))
        points = read_value(obj, "points", ("n", "k"))
        (n, k), p = points.shape, space.p
        if n and region.dimension != k:
            raise DomainError(f"design_space has dimension {region.dimension}, points {k}")
        n_start = read_value(obj, "n_start", int)
        if not 0 <= n_start <= n:
            raise DomainError(f"n_start must lie between 0 and {n}, got {n_start}")
        stages = n - n_start + 1 if n_start else 0
        records = read_value(obj, "records", list)
        logdet, max_d = (
            check_value([r.get(key) if isinstance(r, dict) else None for r in records],
                        f"records.{key}", (max(stages - 1, 0),))
            for key in ("logdet", "max_d")
        )
        final_fit = read_value(obj, "final_fit")
        if final_fit is not None:
            final_fit = LSFit(**{key: read_value(obj, f"final_fit.{key}", kind) for key, kind in (
                ("theta_hat", (p,)), ("sse_value", float), ("sigma2_hat", float),
                ("converged", bool), ("grid_minimum", (p,)), ("grid_tie", bool))})
        trajectory = Trajectory(
            model_name=read_value(obj, "model", str), seed=read_value(obj, "seed", int),
            config_echo=read_value(obj, "config", dict), n_start=n_start, points=points,
            responses=read_value(obj, "responses", (n,)),
            estimates=read_value(obj, "estimates", (stages, p)),
            logdet=logdet, max_d=max_d, final_fit=final_fit,
            design_space=region, parameter_space=space,
        )
        if [dict(zip(_RECORD_KEYS, step)) for step in trajectory._steps()] != records:
            raise DomainError("records disagree with points, responses or estimates")
        return trajectory

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        header = ["n", *(f"x{j}" for j in range(self.points.shape[1])), "y"]
        header += [*(f"theta{j}" for j in range(self.p)), "logdet", "max_d"]
        rows = [
            [repr(n), *map(repr, x), repr(y), *map(repr, theta), repr(logdet), repr(max_d)]
            for n, x, theta, logdet, max_d, y in self._steps()
        ]
        return header, rows


def run(
    model: ModelSpec,
    design_space: DesignSpace,
    parameter_space: ParameterSpace,
    config: WynnConfig,
    response_source: ResponseSource,
    seed: int,
    estimator: Optional[LSAdaptiveEstimator] = None,
    keep_stages: Sequence[int] = (),
) -> Trajectory:
    """Build and observe the starting design, fit once, then step to n_max.

    ``final_fit`` is the loop's last fit.  At each stage n of ``keep_stages``
    reached, ``stages[n]`` keeps the loop's fit, design and information
    matrix: (fit, support in order of first appearance, counts, M).  A
    source that raises EndRun ends the run early: the trajectory holds the
    points observed so far, and ``final_fit`` is None while the starting
    design is incomplete.
    """
    if estimator is None:
        estimator = LSAdaptiveEstimator(model, parameter_space)
    state = WynnState(model, design_space, estimator, keep_stages)
    initial = starting_design(model, design_space, parameter_space)
    if config.n_max < initial.shape[0]:
        raise ConfigError(
            f"n_max = {config.n_max} is below the starting design size {initial.shape[0]}"
        )
    try:
        for i, x in enumerate(initial):
            state._append(x, float(response_source.observe(x, i + 1)))
        state.n_start = state.n
        state._refresh()
        while state.n < config.n_max:
            wynn_step(state, response_source)
    except EndRun:
        pass
    return Trajectory(
        model_name=model.name, seed=int(seed), config_echo=config.to_jsonable(),
        n_start=state.n_start,
        points=np.array(state.points, dtype=float).reshape(-1, state.grid.shape[1]),
        responses=np.array(state.responses, dtype=float),
        estimates=np.array(state.estimates, dtype=float).reshape(-1, model.p),
        logdet=np.array(state.logdet, dtype=float), max_d=np.array(state.max_d, dtype=float),
        final_fit=state.fit, design_space=design_space,
        parameter_space=parameter_space, stages=state.stages,
    )


# --------------------------------------------------------------------------
# Simulation scenarios
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A fully specified simulated experiment."""

    model: ModelSpec
    design_space: DesignSpace
    parameter_space: ParameterSpace
    theta_bar: Array
    noise: ErrorSpec
    config: WynnConfig

    def __post_init__(self):
        theta = np.asarray(self.theta_bar, dtype=float)
        if not self.parameter_space.contains(theta):
            raise DomainError("theta_bar must lie in the parameter space")
        object.__setattr__(self, "theta_bar", theta)


def simulate_trajectory(scenario: Scenario, seed: int, keep_stages=()) -> Trajectory:
    """Deterministic adaptive run under the scenario's noise at the seed."""
    source = SimulatedSource(
        scenario.model, scenario.theta_bar, scenario.noise, make_rng(seed)
    )
    return run(
        scenario.model,
        scenario.design_space,
        scenario.parameter_space,
        scenario.config,
        source,
        seed,
        keep_stages=keep_stages,
    )
