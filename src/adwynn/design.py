"""Designs, information matrices, and the locally D-optimal oracle.

A design is a finitely supported probability measure on the
experimental region.  Its information matrix at a parameter value is
the weighted sum of regressor outer products; the sensitivity function
d(x) = f' M^{-1} f drives both the sequential point selection and the
equivalence-theorem certificate (a design is D-optimal on the grid iff
max d equals the parameter dimension p).

For p = 2 the inverse and log determinant of M are closed forms in
plain floats, where numpy's per-call overhead would cost more than the
arithmetic: with M = [[a, b], [b, c]] the smallest eigenvalue is
(a + c)/2 - hypot((a - c)/2, b), the inverse is the adjugate over
det = ac - b^2 and the log determinant is log(det).  The sensitivity
over a grid is then (a' F0 + 2 b' F1) F0 + c' F1^2, with a', b', c' the
entries of M^{-1} and F0, F1 the regressor columns.  For p != 2 the
inverse and log determinant come from LAPACK's symmetric
eigendecomposition and the sensitivity from one einsum.  An information
matrix with a non-finite entry fails like one below the
positive-definiteness floor, on either path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, DomainError, SingularMatrixError

if TYPE_CHECKING:
    from .model import ModelSpec

Array = np.ndarray

WEIGHT_SUM_TOL = 1e-12
PD_FLOOR = 1e-12
PRUNE_TOL = 1e-8
_COMBO_CAP = 200000
_DET_BLOCK_CELLS = 1 << 16  # entries of the stacked tuples one batched det scores
MAX_EXCHANGES = 100000


def point_rows(points, name: str, distinct: bool = True) -> Array:
    """``points`` as a read-only (m, k) float copy, a 1-D array read as one
    column.  It must be nonempty and finite, and with ``distinct`` its rows
    must differ (0.0 and -0.0 are equal); DomainError naming ``name`` if not.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise DomainError(f"{name} must be a nonempty (m, k) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise DomainError(f"{name} must be finite")
    if distinct and np.unique(pts, axis=0).shape[0] < pts.shape[0]:
        raise DomainError(f"{name} must be distinct points")
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class Design:
    """Finitely supported probability measure: support points and weights."""

    support: Array
    weights: Array

    def __post_init__(self):
        pts = point_rows(self.support, "design support")
        w = np.array(self.weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise DomainError("design weights must match the number of support points")
        if not np.all(w > 0.0):  # NaN fails too
            raise DomainError("design weights must be positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"design weights sum to {w.sum()!r}, expected 1")
        w.setflags(write=False)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)

    def to_jsonable(self) -> dict:
        return {
            "support": [list(map(float, row)) for row in self.support],
            "weights": [float(w) for w in self.weights],
        }


# --------------------------------------------------------------------------
# Information-matrix algebra
# --------------------------------------------------------------------------


def information(F: Array, w: Array) -> Array:
    """M = sum over the rows f of F of weight * f f', symmetrised: the one
    formula for an information matrix from regressors and weights."""
    M = (F.T * w) @ F
    return 0.5 * (M + M.T)


def finite_regressors(model: ModelSpec, F: Array, grid: Array, thetas: Array) -> Array:
    """F, the regressors of ``model`` on the (m, k) grid at a (p,) theta,
    (m, p), or at each row of (S, p) thetas, (S, m, p); DomainError naming
    the model, a grid point and a theta if an entry is not finite."""
    if not np.isfinite(F).all():
        s, i = np.argwhere(~np.isfinite(F.reshape(-1, *F.shape[-2:])).all(axis=-1))[0]
        raise DomainError(f"model {model.name}: regressors are not finite at "
                          f"x = {grid[i].tolist()}, theta = {np.atleast_2d(thetas)[s].tolist()}")
    return F


def regressor_stack(model: ModelSpec, grid: Array, theta_sample: Array) -> Array:
    """f over the grid at each sampled parameter, shape (thetas, m, p), in
    one call broadcast over both (see ``ModelSpec``); it must be finite."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    thetas = np.atleast_2d(np.asarray(theta_sample, dtype=float))
    if thetas.shape[0] == 0:
        raise DomainError("the parameter sample is empty")
    F = np.asarray(model.f(grid[None], thetas[:, None, :]), dtype=float)
    F = np.broadcast_to(F, (thetas.shape[0], grid.shape[0], model.p))
    return finite_regressors(model, F, grid, thetas)


def info_matrix(design: Design, theta: Array, model: ModelSpec) -> Array:
    """The information matrix of ``design`` at ``theta``."""
    F = np.asarray(model.f(design.support, np.asarray(theta, dtype=float)), dtype=float)
    return information(F, design.weights)


def rank_one_update(M: Array, f: Array, n: int) -> Array:
    """Fixed-parameter information update for one added observation."""
    if n <= 0:
        raise DomainError("rank_one_update requires n >= 1")
    M = np.asarray(M, dtype=float)
    f = np.asarray(f, dtype=float)
    return (n / (n + 1.0)) * M + np.outer(f, f) / (n + 1.0)


def pd_inverse_logdet(M: Array, floor: float = PD_FLOOR) -> tuple[Array, float]:
    """Inverse and log determinant of a symmetric positive definite M.

    Raises ``SingularMatrixError`` when an entry of M is not finite or
    the smallest eigenvalue does not clear ``floor``.  Only the lower
    triangle enters the result, as in LAPACK's ``eigh``.  For p = 2 the
    eigenvalue, inverse and log determinant are closed forms in plain
    floats: lambda_min = (a + c)/2 - hypot((a - c)/2, b),
    M^{-1} = [[c, -b], [-b, a]] / det and log det with det = ac - b^2
    (a rounded det <= 0 fails the floor too).  For p != 2 one symmetric
    eigendecomposition gives all three.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[0] != 2:
        if not np.isfinite(M).all():
            raise SingularMatrixError("information matrix is not finite", math.nan)
        eigvals, eigvecs = np.linalg.eigh(M)
        if eigvals[0] <= floor:
            raise SingularMatrixError(
                "information matrix fell below the positive-definiteness floor",
                float(eigvals[0]),
            )
        return (eigvecs / eigvals) @ eigvecs.T, float(np.log(eigvals).sum())
    (a, b_upper), (b, c) = M.tolist()
    if not all(map(math.isfinite, (a, b_upper, b, c))):
        raise SingularMatrixError("information matrix is not finite", math.nan)
    lam = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
    det = a * c - b * b
    if not (lam > floor and det > 0.0):
        raise SingularMatrixError(
            "information matrix fell below the positive-definiteness floor", lam
        )
    return np.array([[c / det, -b / det], [-b / det, a / det]]), math.log(det)


def sensitivity_profile(points: Array, M: Array, theta: Array, model: ModelSpec) -> Array:
    """d(x) = f(x, theta)' M^{-1} f(x, theta) at each row of a point array, shape (m,)."""
    Minv = pd_inverse_logdet(M)[0]
    F = np.asarray(model.f(np.atleast_2d(np.asarray(points, dtype=float)), np.asarray(theta, dtype=float)), dtype=float)
    return quadratic_form(F, Minv)


def quadratic_form(F: Array, Minv: Array) -> Array:
    """f' Minv f for each row f of the (m, p) array F, shape (m,).

    For p = 2 it is (a F0 + 2b F1) F0 + c F1^2 on the columns of F, with
    the entries of the symmetric Minv as plain floats; otherwise one einsum.
    """
    if F.shape[1] == 2:
        (a, _), (b, c) = Minv.tolist()
        F0, F1 = F.T
        return (a * F0 + 2.0 * b * F1) * F0 + c * (F1 * F1)
    return np.einsum("ij,jk,ik->i", F, Minv, F)


# --------------------------------------------------------------------------
# Locally D-optimal oracle
# --------------------------------------------------------------------------


def equivalence_gap(design: Design, theta: Array, model: ModelSpec, grid: Array) -> float:
    """max over the grid of d(x) minus p; zero certifies grid optimality."""
    M = info_matrix(design, theta, model)
    d = sensitivity_profile(np.atleast_2d(grid), M, theta, model)
    return float(d.max() - model.p)


def _best_start_tuple(F: Array, p: int) -> list[int]:
    """Indices of the p-tuple maximizing |det| of stacked finite regressors
    (``finite_regressors``), empty when the m rows are fewer than p.

    For p = 2 a closed form over all row pairs; otherwise, up to
    ``_COMBO_CAP`` combinations, batched determinants over blocks of
    ``_DET_BLOCK_CELLS`` entries.  Both scan the tuples in lexicographic
    order: the first maximum wins.  Beyond the cap, greedy volume
    maximization (largest row first, then the row with the largest
    component orthogonal to the current span).
    """
    m = F.shape[0]
    if p == 2:
        if m < 2:
            return []
        dets = np.abs(F[:, None, 0] * F[None, :, 1] - F[:, None, 1] * F[None, :, 0])
        np.fill_diagonal(dets, -1.0)  # dets is symmetric, so its first maximum has i < j
        return list(divmod(int(np.argmax(dets)), m))
    if math.comb(m, p) <= _COMBO_CAP:
        combos = itertools.combinations(range(m), p)
        block = max(1, _DET_BLOCK_CELLS // (p * p))
        best, best_val = [], -1.0
        for _ in range(0, math.comb(m, p), block):
            flat = itertools.chain.from_iterable(itertools.islice(combos, block))
            idx = np.fromiter(flat, dtype=np.intp).reshape(-1, p)
            dets = np.abs(np.linalg.det(F[idx]))
            i = int(np.argmax(dets))
            if dets[i] > best_val:
                best, best_val = idx[i].tolist(), dets[i]
        return best
    chosen = [int(np.argmax((F**2).sum(axis=1)))]
    basis = F[chosen[0]][None, :] / np.linalg.norm(F[chosen[0]])
    for _ in range(p - 1):
        resid = F - (F @ basis.T) @ basis
        idx = int(np.argmax((resid**2).sum(axis=1)))
        chosen.append(idx)
        v = resid[idx]
        basis = np.vstack([basis, v / np.linalg.norm(v)])
    return chosen


def solve_locally_d_optimal(
    model: ModelSpec, theta: Array, grid: Array, tol: float = 1e-5
) -> Design:
    """Locally D-optimal design on the scan grid at a fixed parameter.

    Vertex exchange (Böhning, Metrika 1986) from weight 1/p on the
    saturated p-tuple of ``_best_start_tuple`` at ``theta``: each
    exchange moves weight from the support point of least sensitivity
    to the grid point of greatest, by the step that maximizes the log
    determinant along that direction.  It stops once the equivalence gap
    max d - p is at most tol * p, and with ``ConvergenceError`` when an
    exchange fails to raise log det M (near gaps of 1e-9 the gain is
    lost to rounding), when its two points coincide (it would zero the
    design) or after ``MAX_EXCHANGES`` exchanges.  Support points whose
    final weight falls below ``PRUNE_TOL`` are removed and the gap is
    re-certified.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    theta = np.asarray(theta, dtype=float)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    F = finite_regressors(model, np.asarray(model.f(grid, theta), dtype=float), grid, theta)
    p = model.p

    w = np.zeros(grid.shape[0])
    w[_best_start_tuple(F, p)] = 1.0 / p
    exchanges, logdet = 0, -math.inf
    while True:
        try:
            Minv, logdet_now = pd_inverse_logdet(information(F, w))
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "grid does not support a positive definite information matrix", exc.min_eigenvalue
            ) from exc
        d = quadratic_form(F, Minv)
        j = int(np.argmax(d))
        gap = float(d[j] - p)
        if gap <= tol * p:
            break
        support = np.flatnonzero(w > 0.0)
        k = int(support[np.argmin(d[support])])
        stop = ("can no longer move weight" if k == j
                else "failed to raise log det M" if logdet_now <= logdet
                else "hit the exchange budget" if exchanges == MAX_EXCHANGES else "")
        if stop:
            raise ConvergenceError(f"vertex exchange {stop} after {exchanges} exchanges "
                                   f"short of tol*p = {tol * p:.3e}", gap)
        logdet = logdet_now
        d_jk = float(F[j] @ Minv @ F[k])
        denom = 2.0 * (d[j] * d[k] - d_jk * d_jk)
        step = (d[j] - d[k]) / denom if denom > 0.0 else w[k]
        w[j], w[k] = (w[j] + w[k], 0.0) if step >= w[k] else (w[j] + step, w[k] - step)
        exchanges += 1

    keep = w >= PRUNE_TOL
    w = w[keep] / w[keep].sum()
    design = Design(grid[keep], w)
    final_gap = equivalence_gap(design, theta, model, grid)
    if final_gap > tol * p:
        raise ConvergenceError("pruning broke the equivalence certificate", final_gap)
    return design


def d_efficiency(M: Array, logdet_reference: float) -> float:
    """(det M / det M_ref)^(1/p), the reference given by its log determinant."""
    ld = pd_inverse_logdet(M)[1]
    return float(np.exp((ld - logdet_reference) / M.shape[0]))
