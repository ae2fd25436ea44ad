"""Perron eigenpairs and harmonic (fixed-point) vectors.

All solvers are deterministic: the finite Perron iteration starts from
all-ones, stencil eigenpairs are closed form, harmonic and stationary
vectors are one bordered least-squares solve, and results carry the
residual of the equation they claim to solve, recomputable by an
independent multiply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import DEFAULT_WINDOW, FINITE, NATURALS, IncidenceMatrix, strong_components
from .errors import (DegenerateSolution, NoConvergence, NotStochastic, ReducibleSuspected,
                     SolverError)

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
    residual: float          # sup |M q - q|
    bracket: tuple           # min, max of (M q)_v / q_v: holds rho(M)
    total_mass: float


@dataclass
class StationaryDistribution:
    """Probability vector with q P = q."""

    q: np.ndarray
    residual: float
    non_unique: bool = False


def _nonnegative_square(m) -> np.ndarray:
    """m as a float array; anything but a nonempty square matrix of finite,
    nonnegative entries raises SolverError."""
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SolverError(f"not a numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise SolverError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not (np.isfinite(m).all() and (m >= 0).all()):
        raise SolverError("matrix entries must be finite and nonnegative")
    return m


def _bordered_solve(a: np.ndarray) -> tuple:
    """Least-squares solution x of (a - I) x = 0 with sum(x) = 1: the
    bordered system [a - I; 1^T] x = [0; 1].  Returns (x, unique): unique
    is False when the system is rank-deficient, as where the fixed space
    has several dimensions, and x is then only the point of least norm."""
    k = a.shape[0]
    lhs = np.vstack([a - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    x, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return x, rank == k


def _final_class_fixed_vector(m: np.ndarray):
    """A fixed vector of m built class by class, for when M q = q has
    several independent solutions: on each final class F (a strong
    component no edge leaves) the sup-one fixed vector of its block, and
    on the other vertices T the solution of (I - M_TT) q_T = M_TF q_F.
    This is the sum over final classes of the fixed vectors that vanish
    on every other final class.  None when I - M_TT is singular."""
    classes = recurrent_classes(m)
    final = np.concatenate(classes)
    rest = np.setdiff1d(np.arange(m.shape[0]), final)
    q = np.zeros(m.shape[0])
    for members in classes:
        qc = _bordered_solve(m[np.ix_(members, members)])[0]
        q[members] = qc / np.max(qc)
    if rest.size:
        try:
            q[rest] = np.linalg.solve(np.eye(rest.size) - m[np.ix_(rest, rest)],
                                      m[np.ix_(rest, final)] @ q[final])
        except np.linalg.LinAlgError:
            return None
    return q


def perron_eigenpair(f: IncidenceMatrix, window: int = DEFAULT_WINDOW,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> EigenPair:
    """Perron eigenpair of A = F^T.

    Finite domains iterate on A + I over the full level with sum-one
    normalization: the shift makes an irreducible A primitive, periodic
    ones included, and each product gathers the level's cached transpose
    arrays.  Once converged the iteration polishes, stepping on (at most
    200 steps) while the residual keeps improving.  The result carries the
    Collatz-Wielandt bracket min/max (A t)_v / t_v, which holds the Perron
    root.  A level graph without a cycle (nilpotent A) raises
    DegenerateSolution at once.

    A stencil (infinite domain) has every row sum equal to sum_d c_d, so
    its pair is closed form: lam = sum_d c_d and t = 1 on the window's
    vertices, sup-one normalized and not summable.  The residual is that
    of the whole level: 0 on the integers; on the naturals vertex 0 has no
    sources w < 0, so (A t)_0 falls short of lam by sum_{d<0} c_d.  A
    ``tol`` that is not a finite positive number raises SolverError.
    """
    if not 0 < tol < np.inf:          # NaN fails too
        raise SolverError(f"tol {tol!r} is not a finite positive number")
    if f.domain == FINITE:
        rows, cols, counts, cyclic = f.transpose_arrays
        if not cyclic:
            raise DegenerateSolution("level graph has no cycle: A = F^T is nilpotent")

        def a_mul(x):
            return np.bincount(rows, weights=counts * x[cols], minlength=len(x))

        def step(mt):
            """From (A + I) t: the next iterate s, (A + I) s, mu = |(A + I) t|_1
            and the residual |A s - lam s| / lam, lam = mu - 1.  Iterates of
            the nonnegative A + I stay positive, so the sum is the 1-norm
            and mu > 1 on a level with a cycle."""
            mu = float(mt.sum())
            s = mt / mu
            ms = a_mul(s) + s
            return s, ms, mu, float(np.max(np.abs(ms - mu * s)) / (mu - 1.0))

        trace = []
        t = np.ones(f.size) / f.size
        mt = a_mul(t) + t
        for k in range(1, max_iter + 1):
            s, ms, mu, residual = step(mt)
            trace.append((k, residual))
            if residual < tol and np.max(np.abs(s - t)) < tol:
                break
            t, mt = s, ms
        else:
            raise NoConvergence(f"no convergence after {max_iter} iterations")
        for _ in range(200):
            polished = step(ms)
            if polished[3] >= residual:
                break
            s, ms, mu, residual = polished
        if np.min(s) <= 1e-13 * np.max(s):
            raise ReducibleSuspected("eigenvector support is a proper vertex subset")
        t = s / np.sum(s)
        at = a_mul(t)
        lo, hi = float(np.min(at / t)), float(np.max(at / t))
        lam = min(max(mu - 1.0, lo), hi)    # the Perron root lies in [lo, hi]
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


def solve_harmonic(m: np.ndarray, tol: float = DEFAULT_TOL) -> HarmonicVector:
    """Strictly positive fixed vector of a nonnegative matrix, M q = q.

    One least-squares solve of the bordered system [M - I; 1^T] q = [0; 1],
    with no iteration.  Where that system is rank-deficient (the fixed
    space has several dimensions, as for a reducible M with several final
    classes of Perron root 1) its least-norm point can have negative
    entries although a positive fixed vector exists, so q is built class
    by class instead (_final_class_fixed_vector).  A positive fixed vector
    exists exactly when every final class of M has Perron root 1 and every
    other class a root below 1 (so rho(M) = 1), and the result is accepted
    only with a certificate: q, sup-one normalized, is strictly positive and its
    Collatz-Wielandt bracket min/max (M q)_v / q_v, which holds rho(M),
    lies within max(1e-8, 10 tol) of 1.  Otherwise DegenerateSolution is
    raised at once, naming rho(M) when it is not 1.
    """
    m = _nonnegative_square(m)
    slack = max(1e-8, 10 * tol)
    q, unique = _bordered_solve(m)
    if not unique:
        q = _final_class_fixed_vector(m)
    if q is not None:
        q = q / np.max(q)
    if q is not None and np.min(q) > 0:
        mq = m @ q
        lo, hi = float(np.min(mq / q)), float(np.max(mq / q))
        if 1.0 - slack <= lo and hi <= 1.0 + slack:
            return HarmonicVector(q, float(np.max(np.abs(mq - q))), (lo, hi), float(np.sum(q)))
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    if abs(rho - 1.0) > slack:
        raise DegenerateSolution(f"spectral radius {rho:.6g} != 1; no positive fixed vector")
    raise DegenerateSolution("spectral radius is 1 but no strictly positive fixed vector exists")


def recurrent_classes(p: np.ndarray):
    """Strongly connected components of the graph of p > 0 with no outgoing
    edges, ordered by smallest member, each as a sorted index array."""
    rows, cols = np.nonzero(p > 0)
    n_comp, labels = strong_components(p.shape[0], rows, cols)
    leaving = set(labels[rows][labels[rows] != labels[cols]].tolist())
    classes = [np.flatnonzero(labels == c) for c in range(n_comp) if c not in leaving]
    return sorted(classes, key=lambda members: members[0])


def stationary_distribution(p: np.ndarray, tol: float = DEFAULT_TOL) -> StationaryDistribution:
    """Left fixed probability vector q P = q of a row-stochastic matrix.

    Each recurrent class is one bordered least-squares solve.  With several
    recurrent classes the fixed vector is not unique; the solver returns
    the equal-weight mixture of the per-class stationary vectors and flags
    non-uniqueness.
    """
    p = _nonnegative_square(p)
    rows = p.sum(axis=1)
    bad = np.where(np.abs(rows - 1.0) > max(tol, 1e-9))[0]
    if bad.size:
        raise NotStochastic(int(bad[0]))
    classes = recurrent_classes(p)
    q = np.zeros(p.shape[0])
    for members in classes:
        qc = np.clip(_bordered_solve(p[np.ix_(members, members)].T)[0], 0.0, None)
        q[members] += qc / qc.sum() / len(classes)
    residual = float(np.max(np.abs(q @ p - q)))
    if residual > max(100 * tol, 1e-9):
        raise NoConvergence(f"stationary solve residual {residual:g}")
    return StationaryDistribution(q, residual, non_unique=len(classes) > 1)
