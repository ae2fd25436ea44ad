"""Perron eigenpairs and harmonic (fixed-point) vectors.

All solvers are deterministic: the start vector is all-ones on the window,
iteration order is fixed, and results carry the residual of the equation
they claim to solve, recomputable by an independent multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .diagram import FINITE, IncidenceMatrix
from .errors import DegenerateSolution, NoConvergence, NotStochastic, ReducibleSuspected

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DEFAULT_SCHEDULE = (8, 16, 32, 64)


@dataclass
class EigenPair:
    """Perron eigenvalue and strictly positive eigenvector of A = F^T."""

    lam: float
    t: dict                  # vertex -> component
    normalization: str       # "sum-one" | "sup-one"
    residual: float          # sup |A t - lam t| / lam on the window
    summable: str            # "yes" | "no" | "unknown"
    window: int | None = None
    iterations: int = 0
    trace: list | None = None

    def vector(self, vertices) -> np.ndarray:
        return np.array([self.t[v] for v in vertices])


@dataclass
class HarmonicVector:
    """Strictly positive solution of M q = q (sup-one normalized)."""

    q: np.ndarray
    residual: float
    total_mass: float


@dataclass
class StationaryDistribution:
    """Probability vector with q P = q."""

    q: np.ndarray
    residual: float
    non_unique: bool = False


def _power_iterate(matvec, t0, tol, max_iter, norm, trace=None):
    """Normalized power iteration; returns (t, lam, iterations).

    ``trace``, when given, collects (iteration, residual) rows for
    convergence tables.
    """
    t = t0 / norm(t0)
    lam = 1.0
    for k in range(1, max_iter + 1):
        s = matvec(t)
        lam = norm(s)
        if lam == 0.0:
            raise DegenerateSolution("iterate vanished; no positive eigenvector")
        s = s / lam
        residual = float(np.max(np.abs(matvec(s) - lam * s)) / lam)
        if trace is not None:
            trace.append((k, residual))
        if np.max(np.abs(s - t)) < tol and residual < tol:
            return s, lam, k
        t = s
    raise NoConvergence(f"no convergence after {max_iter} iterations")


def _polish(matvec, t, lam, norm, extra: int = 200):
    """Continue iterating past the stopping tolerance while the residual
    keeps improving, down toward machine precision."""
    best_t, best_lam = t, lam
    best_res = float(np.max(np.abs(matvec(t) - lam * t)) / lam)
    for _ in range(extra):
        s = matvec(best_t)
        lam = norm(s)
        s = s / lam
        res = float(np.max(np.abs(matvec(s) - lam * s)) / lam)
        if res >= best_res:
            break
        best_t, best_lam, best_res = s, lam, res
    return best_t, best_lam


def _stencil_matvec(stencil, t):
    """(A t)_w = sum_d c_d t_{w+d} with nearest-value boundary extension.

    Translation invariance of banded matrices makes the replication exact
    away from the boundary and keeps constant eigenvectors exact globally.
    """
    n = len(t)
    out = np.zeros(n)
    for d, c in stencil.items():
        idx = np.clip(np.arange(n) + d, 0, n - 1)
        out += c * t[idx]
    return out


def perron_eigenpair(f: IncidenceMatrix, window_schedule=None,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> EigenPair:
    """Perron eigenpair of A = F^T by power iteration.

    Finite domains use the full level with sum-one normalization.
    Infinite domains run a schedule of growing windows (sup-one
    normalization) until the eigenvalue drift between windows drops below
    tolerance, and classify summability of the eigenvector from the tail
    behavior across the schedule.
    """
    if f.domain == FINITE:
        verts = f.vertices()
        a = f.to_dense(verts, verts).T
        ones = np.ones(len(verts))
        trace = []
        t, lam, k = _power_iterate(lambda x: a @ x, ones, tol, max_iter,
                                   lambda x: float(np.sum(np.abs(x))), trace)
        t, lam = _polish(lambda x: a @ x, t, lam,
                         lambda x: float(np.sum(np.abs(x))))
        if np.min(t) <= 1e-13 * np.max(t):
            raise ReducibleSuspected(
                "eigenvector support is a proper vertex subset")
        t = t / np.sum(t)
        residual = float(np.max(np.abs(a @ t - lam * t)) / lam)
        return EigenPair(float(lam), dict(zip(verts, t)), "sum-one",
                         residual, "yes", window=None, iterations=k, trace=trace)

    schedule = list(window_schedule or DEFAULT_SCHEDULE)
    prev_lam = None
    tails = []
    result = None
    for radius in schedule:
        verts = f.vertices(radius)
        ones = np.ones(len(verts))
        trace = []
        t, lam, k = _power_iterate(
            lambda x: _stencil_matvec(f.stencil, x), ones, tol, max_iter,
            lambda x: float(np.max(np.abs(x))), trace)
        t, lam = _polish(lambda x: _stencil_matvec(f.stencil, x), t, lam,
                         lambda x: float(np.max(np.abs(x))))
        t = t / np.max(t)
        residual = float(np.max(np.abs(_stencil_matvec(f.stencil, t) - lam * t)) / lam)
        quarter = max(1, len(verts) // 4)
        tails.append(float((np.sum(t[:quarter]) + np.sum(t[-quarter:])) / np.sum(t)))
        result = EigenPair(float(lam), dict(zip(verts, t)), "sup-one",
                           residual, "unknown", window=radius, iterations=k,
                           trace=trace)
        if prev_lam is not None and abs(lam - prev_lam) < tol:
            break
        prev_lam = lam
    t_arr = result.vector(f.vertices(result.window))
    if np.min(t_arr) > 0.5 * np.max(t_arr):
        result.summable = "no"       # bounded below on an infinite level
    elif len(tails) >= 2 and all(b <= 0.6 * a for a, b in zip(tails, tails[1:])):
        result.summable = "yes"      # geometric tail decay over the schedule
    return result


def solve_harmonic(m: np.ndarray, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> HarmonicVector:
    """Strictly positive fixed vector of a nonnegative matrix, M q = q.

    Normalized iteration q <- M q converges to the Perron direction; a
    positive fixed vector exists only when the Perron root is 1, so a
    converged growth factor away from 1 is reported as degenerate
    (spectral radius < 1 collapses iterates toward zero).
    """
    m = np.asarray(m, dtype=float)
    ones = np.ones(m.shape[0])
    q, rho, k = _power_iterate(lambda x: m @ x, ones, tol, max_iter,
                               lambda x: float(np.max(np.abs(x))))
    q, rho = _polish(lambda x: m @ x, q, rho,
                     lambda x: float(np.max(np.abs(x))))
    if abs(rho - 1.0) > max(1e-8, 10 * tol):
        raise DegenerateSolution(
            f"spectral radius {rho:.6g} != 1; no positive fixed vector")
    q = q / np.max(q)
    if np.min(q) <= 0:
        raise DegenerateSolution("fixed vector is not strictly positive")
    residual = float(np.max(np.abs(m @ q - q)))
    return HarmonicVector(q, residual, float(np.sum(q)))


def recurrent_classes(p: np.ndarray):
    """Strongly connected components with no outgoing edges."""
    n_comp, labels = csgraph.connected_components(
        csr_matrix(p > 0), directed=True, connection="strong")
    closed = []
    for c in range(n_comp):
        members = np.where(labels == c)[0]
        outside = np.setdiff1d(np.arange(p.shape[0]), members)
        if outside.size == 0 or not np.any(p[np.ix_(members, outside)] > 0):
            closed.append(members)
    return closed


def stationary_distribution(p: np.ndarray, tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER) -> StationaryDistribution:
    """Left fixed probability vector q P = q of a row-stochastic matrix.

    With several recurrent classes the fixed vector is not unique; the
    solver returns the equal-weight mixture of the per-class stationary
    vectors and flags non-uniqueness.
    """
    p = np.asarray(p, dtype=float)
    rows = p.sum(axis=1)
    bad = np.where(np.abs(rows - 1.0) > max(tol, 1e-9))[0]
    if bad.size:
        raise NotStochastic(int(bad[0]))
    classes = recurrent_classes(p)
    q = np.zeros(p.shape[0])
    for members in classes:
        block = p[np.ix_(members, members)]
        k = len(members)
        # solve q_c (P_c - I) = 0 with sum(q_c) = 1 by least squares
        a = np.vstack([block.T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        qc, *_ = np.linalg.lstsq(a, b, rcond=None)
        qc = np.clip(qc, 0.0, None)
        qc = qc / qc.sum()
        q[members] += qc / len(classes)
    residual = float(np.max(np.abs(q @ p - q)))
    if residual > max(100 * tol, 1e-9):
        raise NoConvergence(f"stationary solve residual {residual:g}")
    return StationaryDistribution(q, residual, non_unique=len(classes) > 1)
