"""The adaptive sequential design loop.

Each iteration evaluates the sensitivity function at the current
parameter estimate, takes an observation at its maximizer over the scan
grid, refits least squares on all observations so far, and updates the
empirical design.  A starting design certified positive definite across
a parameter sample makes every later information matrix positive
definite by induction, since each update is a convex combination with a
rank-one term.

The loop's own objects are the run's record: the estimator's grouped
data is the one empirical design, and its fits are the trajectory's
``final_fit`` and requested stages.  ``run`` takes an
``LSAdaptiveEstimator`` or a subclass; ``adwynn session`` passes one
that announces each refit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .design import pd_inverse_logdet, quadratic_form
from .errors import AcquisitionError, ConfigError, DomainError, InitializationError
from .estimator import FitConfig, LSAdaptiveEstimator, LSFit
from .model import DesignSpace, ModelSpec, ParameterSpace
from .noise import ErrorSpec, make_rng

Array = np.ndarray

_COMBO_CAP = 200000


# --------------------------------------------------------------------------
# Configuration, sources, estimators
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WynnConfig:
    """Settings for one adaptive run.

    ``n_max`` counts total observations including the starting design.
    """

    n_max: int
    pd_floor: float = 1e-8
    theta_check_points_per_axis: int = 5
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")
        if not 0 < self.pd_floor < math.inf:  # NaN fails too
            raise DomainError(f"pd_floor must be finite and positive, got {self.pd_floor!r}")
        if self.theta_check_points_per_axis < 1:
            raise DomainError("theta_check_points_per_axis must be >= 1")

    def to_jsonable(self) -> dict:
        return {
            "n_max": self.n_max,
            "pd_floor": self.pd_floor,
            "theta_check_points_per_axis": self.theta_check_points_per_axis,
            "fit": {
                "grid_points_per_axis": self.fit.grid_points_per_axis,
                "max_iterations": self.fit.max_iterations,
                "step_tol": self.fit.step_tol,
                "max_halvings": self.fit.max_halvings,
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

    def observe(self, x: Array, step: int) -> float:
        e = float(self._noise.draw(step, self._rng))
        return float(self._model.mu(np.atleast_1d(x), self._theta_bar)) + e


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


def _best_start_tuple(F_center: Array, p: int) -> list[int]:
    """Indices of the p-tuple (p >= 2) maximizing |det| of stacked regressors.

    Exhaustive when the number of combinations is small enough,
    otherwise greedy volume maximization (largest row first, then the
    row with the largest component orthogonal to the current span).
    """
    m = F_center.shape[0]
    if p == 2:
        dets = np.abs(
            F_center[:, None, 0] * F_center[None, :, 1]
            - F_center[:, None, 1] * F_center[None, :, 0]
        )
        i, j = np.unravel_index(int(np.argmax(dets)), dets.shape)
        return [int(i), int(j)]
    if math.comb(m, p) <= _COMBO_CAP:
        best, best_val = None, -1.0
        for combo in itertools.combinations(range(m), p):
            val = abs(np.linalg.det(F_center[list(combo)]))
            if val > best_val:
                best, best_val = list(combo), val
        return best
    chosen = [int(np.argmax((F_center**2).sum(axis=1)))]
    basis = F_center[chosen[0]][None, :] / np.linalg.norm(F_center[chosen[0]])
    for _ in range(p - 1):
        resid = F_center - (F_center @ basis.T) @ basis
        idx = int(np.argmax((resid**2).sum(axis=1)))
        chosen.append(idx)
        v = resid[idx]
        basis = np.vstack([basis, v / np.linalg.norm(v)])
    return chosen


def build_initial_design(
    model: ModelSpec,
    space: ParameterSpace,
    grid: Array,
    theta_check_sample: Array,
    pd_floor: float = 1e-8,
) -> Array:
    """Starting points whose uniform design is positive definite.

    Certification is numeric: the smallest eigenvalue of the averaged
    information matrix must clear ``pd_floor`` for every parameter in
    ``theta_check_sample``.  Construction is greedy; for p = 1 the
    start point maximizes the worst-case squared regressor directly.
    Points are added until the floor is cleared or the addition budget
    10 * p * len(sample) runs out.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    theta_check_sample = np.atleast_2d(np.asarray(theta_check_sample, dtype=float))
    m = grid.shape[0]
    p = model.p
    if m < p:
        raise InitializationError(f"grid has {m} points, fewer than p = {p}")

    F_sample = np.stack(
        [np.asarray(model.f(grid, th), dtype=float) for th in theta_check_sample]
    )  # (S, m, p)

    if p == 1:
        worst_sq = (F_sample[:, :, 0] ** 2).min(axis=0)
        chosen = [int(np.argmax(worst_sq))]
    else:
        F_center = np.asarray(model.f(grid, space.center()), dtype=float)
        chosen = _best_start_tuple(F_center, p)

    outer = np.einsum("smi,smj->smij", F_sample, F_sample)  # (S, m, p, p)
    B = outer[:, chosen, :, :].sum(axis=1)  # (S, p, p)

    def certified(B_now: Array, count: int) -> float:
        eigs = np.linalg.eigvalsh(B_now / count)
        return float(eigs[:, 0].min())

    budget = 10 * p * theta_check_sample.shape[0]
    while certified(B, len(chosen)) <= pd_floor:
        if len(chosen) - p >= budget:
            raise InitializationError(
                f"could not clear pd_floor {pd_floor:.1e} after {len(chosen)} points; "
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
    model: ModelSpec, design_space: DesignSpace, parameter_space: ParameterSpace, config: WynnConfig
) -> Array:
    """The starting points ``run`` observes under ``config``."""
    sample = parameter_space.sample_grid(config.theta_check_points_per_axis)
    return build_initial_design(
        model, parameter_space, design_space.grid(), sample, config.pd_floor
    )


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


class WynnState:
    """Mutable single-run state; one writer per run.  ``design`` is the
    estimator's grouped data, read by the refit and ``compute_info`` alike."""

    def __init__(
        self,
        model: ModelSpec,
        design_space: DesignSpace,
        parameter_space: ParameterSpace,
        config: WynnConfig,
        estimator: LSAdaptiveEstimator,
        keep_stages: Sequence[int] = (),
    ):
        self.model = model
        self.parameter_space = parameter_space
        self.config = config
        self.estimator = estimator
        self.design = estimator.data
        self.grid = design_space.grid()
        k = self.grid.shape[1]
        self.xs = np.empty((64, k), dtype=float)
        self.ys = np.empty(64, dtype=float)
        self.n = 0
        self.fit: Optional[LSFit] = None
        self.M: Optional[Array] = None
        self.records: list[StepRecord] = []
        self.estimates: list[Array] = []
        self.n_start = 0
        self.keep_stages = frozenset(keep_stages)
        self.stages: dict[int, tuple[LSFit, Array, Array]] = {}

    # -- bookkeeping ---------------------------------------------------

    def _append(self, x: Array, y: float) -> None:
        if self.n == self.xs.shape[0]:
            self.xs = np.vstack([self.xs, np.empty_like(self.xs)])
            self.ys = np.concatenate([self.ys, np.empty_like(self.ys)])
        self.xs[self.n] = x
        self.ys[self.n] = y
        self.n += 1
        self.estimator.update(x, y)

    def compute_info(self, theta: Array) -> Array:
        F = np.asarray(self.model.f(self.design.points, theta), dtype=float)
        M = (F.T * (self.design.counts / float(self.n))) @ F
        return 0.5 * (M + M.T)

    def _refresh(self) -> None:
        self.fit = self.estimator.estimate()
        self.estimates.append(self.fit.theta_hat.copy())
        self.M = self.compute_info(self.fit.theta_hat)
        if self.n in self.keep_stages:
            self.stages[self.n] = (self.fit, self.design.points.copy(), self.design.counts.copy())


def wynn_step(state: WynnState, response_source: ResponseSource) -> WynnState:
    """One iteration: argmax the sensitivity, observe, refit, update."""
    if state.M is None:
        raise DomainError("state is not initialized")
    theta = state.fit.theta_hat
    Minv, logdet = pd_inverse_logdet(state.M, state.config.pd_floor)
    F_grid = np.asarray(state.model.f(state.grid, theta), dtype=float)
    d = quadratic_form(F_grid, Minv)
    idx = int(d.argmax())
    x_next = state.grid[idx].copy()
    max_d = float(d[idx])

    n_before = state.n
    theta_before = tuple(theta.tolist())
    y_next = response_source.observe(x_next, n_before + 1)

    state._append(x_next, float(y_next))
    state._refresh()
    state.records.append(
        StepRecord(
            n=n_before,
            x_next=tuple(x_next.tolist()),
            theta=theta_before,
            logdet=logdet,
            max_d=max_d,
            y_next=float(y_next),
        )
    )
    return state


@dataclass(frozen=True)
class Trajectory:
    """Complete record of one adaptive run; ``estimates`` is (stages, p).
    ``stages`` (see ``run``) is not part of the JSON form."""

    model_name: str
    seed: int
    config_echo: dict
    n_start: int
    points: Array
    responses: Array
    estimates: Array
    records: tuple[StepRecord, ...]
    final_fit: Optional[LSFit]
    design_space_echo: dict
    parameter_space_echo: dict
    stages: dict[int, tuple[LSFit, Array, Array]] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.estimates.shape[1]

    def to_jsonable(self) -> dict:
        return {
            "schema": "adwynn.trajectory.v1",
            "model": self.model_name,
            "seed": self.seed,
            "config": self.config_echo,
            "design_space": self.design_space_echo,
            "parameter_space": self.parameter_space_echo,
            "n_start": self.n_start,
            "points": [list(map(float, row)) for row in self.points],
            "responses": [float(v) for v in self.responses],
            "estimates": [list(map(float, row)) for row in self.estimates],
            "records": [
                {
                    "n": r.n,
                    "x_next": list(r.x_next),
                    "theta": list(r.theta),
                    "logdet": r.logdet,
                    "max_d": r.max_d,
                    "y_next": r.y_next,
                }
                for r in self.records
            ],
            "final_fit": None
            if self.final_fit is None
            else {
                "theta_hat": [float(v) for v in self.final_fit.theta_hat],
                "sse_value": self.final_fit.sse_value,
                "sigma2_hat": self.final_fit.sigma2_hat,
                "converged": self.final_fit.converged,
                "grid_minimum": [float(v) for v in self.final_fit.grid_minimum],
                "grid_tie": self.final_fit.grid_tie,
            },
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "Trajectory":
        fit = obj.get("final_fit")
        final_fit = (
            None
            if fit is None
            else LSFit(
                theta_hat=np.asarray(fit["theta_hat"], dtype=float),
                sse_value=float(fit["sse_value"]),
                sigma2_hat=float(fit["sigma2_hat"]),
                converged=bool(fit["converged"]),
                grid_minimum=np.asarray(fit["grid_minimum"], dtype=float),
                grid_tie=bool(fit["grid_tie"]),
            )
        )
        points = np.asarray(obj["points"], dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        estimates = np.asarray(obj["estimates"], dtype=float)
        if estimates.size == 0:  # keep p columns, as run does
            estimates = np.zeros((0, len(obj.get("parameter_space", {}).get("lower", [0]))))
        return Trajectory(
            model_name=obj["model"],
            seed=int(obj["seed"]),
            config_echo=obj["config"],
            n_start=int(obj["n_start"]),
            points=points,
            responses=np.asarray(obj["responses"], dtype=float),
            estimates=estimates,
            records=tuple(
                StepRecord(
                    n=int(r["n"]),
                    x_next=tuple(float(v) for v in r["x_next"]),
                    theta=tuple(float(v) for v in r["theta"]),
                    logdet=float(r["logdet"]),
                    max_d=float(r["max_d"]),
                    y_next=float(r["y_next"]),
                )
                for r in obj["records"]
            ),
            final_fit=final_fit,
            design_space_echo=obj.get("design_space", {}),
            parameter_space_echo=obj.get("parameter_space", {}),
        )

    def csv_rows(self) -> tuple[list[str], list[list[str]]]:
        k = self.points.shape[1] if self.points.ndim == 2 and self.points.shape[1] else 1
        p = self.p
        header = (
            ["n"]
            + [f"x{j}" for j in range(k)]
            + ["y"]
            + [f"theta{j}" for j in range(p)]
            + ["logdet", "max_d"]
        )
        rows = []
        for r in self.records:
            rows.append(
                [repr(r.n)]
                + [repr(v) for v in r.x_next]
                + [repr(r.y_next)]
                + [repr(v) for v in r.theta]
                + [repr(r.logdet), repr(r.max_d)]
            )
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
    reached, ``stages[n]`` keeps the loop's fit and design: (fit, support in
    order of first appearance, counts).  A source that raises EndRun ends
    the run early: the trajectory holds the points observed so far, and
    ``final_fit`` is None while the starting design is incomplete.
    """
    if estimator is None:
        estimator = LSAdaptiveEstimator(model, parameter_space, config.fit)
    state = WynnState(model, design_space, parameter_space, config, estimator, keep_stages)
    initial = starting_design(model, design_space, parameter_space, config)
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
        model_name=model.name,
        seed=int(seed),
        config_echo=config.to_jsonable(),
        n_start=state.n_start,
        points=state.xs[: state.n].copy(),
        responses=state.ys[: state.n].copy(),
        estimates=np.asarray(state.estimates, dtype=float).reshape(-1, model.p),
        records=tuple(state.records),
        final_fit=state.fit,
        design_space_echo=design_space.to_jsonable(),
        parameter_space_echo={
            "lower": [float(v) for v in parameter_space.lower],
            "upper": [float(v) for v in parameter_space.upper],
        },
        stages=state.stages,
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
