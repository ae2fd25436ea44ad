"""Perron eigenpairs and harmonic (fixed-point) vectors.

All solvers are deterministic: iterations start from all-ones in a fixed
order, stencil eigenpairs are closed form, and results carry the residual
of the equation they claim to solve, recomputable by an independent
multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import DEFAULT_WINDOW, FINITE, NATURALS, IncidenceMatrix, strong_components
from .errors import DegenerateSolution, NoConvergence, NotStochastic, ReducibleSuspected

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


@dataclass
class EigenPair:
    """Perron eigenvalue and strictly positive eigenvector of A = F^T."""

    lam: float
    t: dict                  # vertex -> component
    normalization: str       # "sum-one" | "sup-one"
    residual: float          # sup |A t - lam t| / lam over the level
    summable: str            # "yes" (finite level) | "no" (stencil)
    window: int | None = None
    iterations: int = 0
    trace: list | None = None
    bracket: tuple | None = None  # finite levels: min, max of (A t)_v / t_v

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


def _step(matvec, mt, norm, shift):
    """One normalized step from the product M t: (s, M s, mu, residual of
    A = M - shift I at s), with mu = norm(M t) and lam = mu - shift."""
    mu = norm(mt)
    if mu == shift:
        raise DegenerateSolution("iterate vanished; no positive eigenvector")
    s = mt / mu
    ms = matvec(s)
    return s, ms, mu, float(np.max(np.abs(ms - mu * s)) / (mu - shift))


def _power_iterate(matvec, t0, tol, max_iter, norm, trace=None, shift=0.0):
    """Normalized power iteration on M = A + shift I; returns (t, lam,
    iterations).  One product per step: the M s taken for the residual
    |M s - mu s| / lam = |A s - lam s| / lam is the next step's product.
    Once converged it polishes, stepping on (at most 200 steps) while the
    residual keeps improving, down toward machine precision.  ``trace``,
    when given, collects (iteration, residual) rows for convergence tables.
    """
    t = t0 / norm(t0)
    mt = matvec(t)
    for k in range(1, max_iter + 1):
        s, ms, mu, residual = _step(matvec, mt, norm, shift)
        if trace is not None:
            trace.append((k, residual))
        if residual < tol and np.max(np.abs(s - t)) < tol:
            break
        t, mt = s, ms
    else:
        raise NoConvergence(f"no convergence after {max_iter} iterations")
    for _ in range(200):
        polished = _step(matvec, ms, norm, shift)
        if polished[3] >= residual:
            break
        s, ms, mu, residual = polished
    return s, mu - shift, k


def perron_eigenpair(f: IncidenceMatrix, window: int = DEFAULT_WINDOW,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> EigenPair:
    """Perron eigenpair of A = F^T.

    Finite domains iterate on A + I over the full level with sum-one
    normalization: the shift makes an irreducible A primitive, periodic
    ones included, and each product gathers the level's cached transpose
    arrays.  The result carries the Collatz-Wielandt bracket
    min/max (A t)_v / t_v, which holds the Perron root.  A level graph
    without a cycle (nilpotent A) raises DegenerateSolution at once.

    A stencil (infinite domain) has every row sum equal to sum_d c_d, so
    its pair is closed form: lam = sum_d c_d and t = 1 on the window's
    vertices, sup-one normalized and not summable.  The residual is that
    of the whole level: 0 on the integers; on the naturals vertex 0 has no
    sources w < 0, so (A t)_0 falls short of lam by sum_{d<0} c_d.
    """
    if f.domain == FINITE:
        rows, cols, counts, cyclic = f.transpose_arrays
        if not cyclic:
            raise DegenerateSolution("level graph has no cycle: A = F^T is nilpotent")

        def a_mul(x):
            return np.bincount(rows, weights=counts * x[cols], minlength=len(x))
        trace = []
        # iterates of the nonnegative A + I stay nonnegative: sum is the 1-norm
        t, lam, k = _power_iterate(lambda x: a_mul(x) + x, np.ones(f.size), tol,
                                   max_iter, lambda x: float(x.sum()), trace, 1.0)
        if np.min(t) <= 1e-13 * np.max(t):
            raise ReducibleSuspected("eigenvector support is a proper vertex subset")
        t = t / np.sum(t)
        at = a_mul(t)
        lo, hi = float(np.min(at / t)), float(np.max(at / t))
        lam = min(max(lam, lo), hi)    # the Perron root lies in [lo, hi]
        residual = float(np.max(np.abs(at - lam * t)) / lam)
        return EigenPair(lam, dict(enumerate(t.tolist())), "sum-one", residual, "yes",
                         iterations=k, trace=trace, bracket=(lo, hi))

    verts = f.vertices(window)
    lam = float(sum(f.stencil.values()))
    if lam == 0:
        raise DegenerateSolution("stencil has no edges: A = F^T is zero")
    lost = sum(c for d, c in f.stencil.items() if d < 0) if f.domain == NATURALS else 0
    return EigenPair(lam, dict.fromkeys(verts, 1.0), "sup-one", lost / lam, "no",
                     window=window, trace=[])


def solve_harmonic(m: np.ndarray, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> HarmonicVector:
    """Strictly positive fixed vector of a nonnegative matrix, M q = q.

    Normalized iteration q <- M q converges to the Perron direction; a
    positive fixed vector exists only when the Perron root is 1, so a
    converged growth factor away from 1 is reported as degenerate
    (spectral radius < 1 collapses iterates toward zero).
    """
    m = np.asarray(m, dtype=float)
    q, rho, k = _power_iterate(lambda x: m @ x, np.ones(m.shape[0]), tol, max_iter,
                               lambda x: float(np.max(np.abs(x))))
    if abs(rho - 1.0) > max(1e-8, 10 * tol):
        raise DegenerateSolution(f"spectral radius {rho:.6g} != 1; no positive fixed vector")
    q = q / np.max(q)
    if np.min(q) <= 0:
        raise DegenerateSolution("fixed vector is not strictly positive")
    residual = float(np.max(np.abs(m @ q - q)))
    return HarmonicVector(q, residual, float(np.sum(q)))


def recurrent_classes(p: np.ndarray):
    """Strongly connected components of the graph of p > 0 with no outgoing
    edges, ordered by smallest member, each as a sorted index array."""
    rows, cols = np.nonzero(p > 0)
    n_comp, labels = strong_components(p.shape[0], rows, cols)
    leaving = set(labels[rows][labels[rows] != labels[cols]].tolist())
    classes = [np.flatnonzero(labels == c) for c in range(n_comp) if c not in leaving]
    return sorted(classes, key=lambda members: members[0])


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
