"""Perron eigenpairs and harmonic (fixed-point) vectors.

All solvers are deterministic and run the same three steps: a
candidate, its certificate, and a fallback only where the certificate
fails.  On a finite level of at most SQUARED_START_LIMIT (16) vertices
the Perron candidate is the sum-one row sums of a power (A + I)^(2^k),
accepted on its Collatz-Wielandt bracket; the fallback, and the solver
of larger levels, is the power iteration on A + I, whose only stop is
that bracket, so a finite pair is returned certified or not at all.
Stencil eigenpairs are closed form, a stationary vector is one LU solve
per recurrent class, and a harmonic vector one bordered least-squares
solve, built class by class where that is not unique.  Results carry
the residual of the equation they claim to solve, recomputable by an
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
# Largest level that starts from squared powers.  A square costs n^3
# products, so on a fast-mixing level the squared start loses to the
# uniform one from about 48 vertices (timings in CHANGES.md); 16 keeps a
# margin.
SQUARED_START_LIMIT = 16


@dataclass
class EigenPair:
    """Perron eigenvalue and strictly positive eigenvector of A = F^T."""

    lam: float
    t: dict                  # vertex -> component
    normalization: str       # "sum-one" | "sup-one"
    residual: float          # sup |A t - lam t| / lam over the level
    window: int | None = None
    iterations: int = 0      # power step of the returned iterate; 0 when the start is accepted
    trace: list | None = None  # (step, residual) of each step until the residual is under tol
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
    has several dimensions, and x is then only the point of least norm.
    Entries so large that the solve overflows raise SolverError."""
    k = a.shape[0]
    lhs = np.vstack([a - np.eye(k), np.ones((1, k))])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    x, _, rank, singular = np.linalg.lstsq(lhs, rhs, rcond=None)
    if not np.isfinite(singular).all():
        raise SolverError("the bordered solve overflows: matrix entries are too large")
    return x, rank == k


def _final_class_fixed_vector(m: np.ndarray):
    """A fixed vector of m built class by class, for when M q = q has
    several independent solutions: on each final class F (a strong
    component no edge leaves) the sup-one fixed vector of its block, and
    on the other vertices T the solution of (I - M_TT) q_T = M_TF q_F.
    This is the sum over final classes of the fixed vectors that vanish
    on every other final class.  None when a final class's solve is 0
    (its entries underflow) or I - M_TT is singular."""
    classes = recurrent_classes(m)
    final = np.concatenate(classes)
    rest = np.setdiff1d(np.arange(m.shape[0]), final)
    q = np.zeros(m.shape[0])
    for members in classes:
        qc = _bordered_solve(m[np.ix_(members, members)])[0]
        if np.max(qc) == 0:
            return None
        q[members] = qc / np.max(qc)
    if rest.size:
        try:
            q[rest] = np.linalg.solve(np.eye(rest.size) - m[np.ix_(rest, rest)],
                                      m[np.ix_(rest, final)] @ q[final])
        except np.linalg.LinAlgError:
            return None
    return q


def _bracket(x: np.ndarray, mx: np.ndarray) -> tuple:
    """The Collatz-Wielandt bracket min, max of mx_v / x_v, mx = M x for a
    positive x: it holds the Perron root of the nonnegative M (Seneta,
    Non-negative Matrices and Markov Chains, ch. 1)."""
    ratios = mx / x
    return float(ratios.min()), float(ratios.max())


def _squared_start(rows, cols, counts, n: int, tol: float) -> np.ndarray:
    """Candidate Perron vector of a level of at most SQUARED_START_LIMIT
    vertices: the row sums of (A + I)^(2^k), sum-one.

    For a primitive A + I the powers tend to a rank-one matrix whose
    columns are the Perron vector (Seneta, Non-negative Matrices and
    Markov Chains, ch. 1), so their row sums do too.  The dense matrix is
    squared at most 17 times (2^17 > DEFAULT_MAX_ITER), rescaled by its
    largest entry each time, until the sum-one row sums move by less than
    1e-3 tol.  Each square is an elementwise product summed by numpy, not
    a BLAS call, so its bits do not depend on the CPU.  On a reducible
    level an entry can vanish to rounding; the caller checks the support."""
    p = np.eye(n)
    p[rows, cols] += counts
    r = np.full(n, 1.0 / n)
    for _ in range(17):
        p = (p[:, :, None] * p).sum(axis=1)
        p /= p.max()
        last, r = r, p.sum(axis=1)
        r /= r.sum()
        if np.abs(r - last).max() < 1e-3 * tol:
            break
    return r


def perron_eigenpair(f: IncidenceMatrix, window: int = DEFAULT_WINDOW,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> EigenPair:
    """Perron eigenpair of A = F^T.

    A finite level's pair is sum-one and certified by its Collatz-Wielandt
    bracket lo, hi = min, max of (A t)_v / t_v, which holds the Perron
    root: it is returned only where hi - lo <= tol lo, with lam = sum(A t)
    clipped into the bracket.  On a level of at most SQUARED_START_LIMIT
    (16) vertices the candidate is the row sums of a squared power of the
    dense A + I (_squared_start), accepted with no step (``iterations`` 0,
    ``trace`` empty) where its entries exceed 1e-13 of the largest and one
    product A t certifies it; where it fails on a reducible level, as on
    the Jordan block F = [[1,0],[1,1]], ReducibleSuspected is raised.

    Otherwise one loop iterates on A + I, from that candidate (or, where an
    entry vanished and above the limit, the uniform vector): the shift
    makes an irreducible A primitive, periodic ones included, and a step is
    one product that gathers the level's triplets.  Each step appends
    (step, |A s - lam s| / lam) to ``trace`` until that residual is under
    tol; each later step reads its bracket off the product it holds, A s =
    (A + I) s - s, and the loop returns the last iterate that narrowed a
    certified bracket, ``iterations`` its step.  Until one is certified, an
    iterate with an entry at most 1e-13 of the largest raises
    ReducibleSuspected on a reducible level.  After ``max_iter`` steps
    NoConvergence names the last bracket.  Reducibility is read from
    IncidenceMatrix.components only on these failures.  A level graph
    without a cycle (nilpotent A) raises DegenerateSolution at once.

    A stencil (infinite domain) has every row sum equal to sum_d c_d, so
    its pair is closed form: lam = sum_d c_d and t = 1 on the window's
    vertices, sup-one normalized.  The residual is that of the whole
    level: 0 on the integers; on the naturals vertex 0 has no sources
    w < 0, so (A t)_0 falls short of lam by sum_{d<0} c_d.  A ``tol`` that
    is not a finite positive number raises SolverError.
    """
    if not 0 < tol < np.inf:          # NaN fails too
        raise SolverError(f"tol {tol!r} is not a finite positive number")
    if f.domain == FINITE:
        if not f.has_cycle:
            raise DegenerateSolution("level graph has no cycle: A = F^T is nilpotent")
        cols, rows = np.ascontiguousarray(f.triplets[:, :2].T)    # A = F^T
        counts = f.triplets[:, 2].astype(float)

        def a_mul(x):
            return np.bincount(rows, weights=counts * x[cols], minlength=len(x))

        def pair(t, at, lo, hi, k, trace):
            lam = min(max(float(at.sum()), lo), hi)    # sum(A t), kept in the bracket
            residual = float(np.max(np.abs(at - lam * t)) / lam)
            return EigenPair(lam, dict(enumerate(t.tolist())), "sum-one", residual,
                             iterations=k, trace=trace, bracket=(lo, hi))

        t = np.full(f.size, 1.0 / f.size)
        if f.size <= SQUARED_START_LIMIT:
            start = _squared_start(rows, cols, counts, f.size, tol)
            if start.min() > 1e-13 * start.max():    # else an entry vanished: from uniform
                lo, hi = _bracket(t := start, at := a_mul(start))
                if hi - lo <= tol * lo:
                    return pair(t, at, lo, hi, 0, [])
            if f.components > 1:
                raise ReducibleSuspected("reducible level: the squared start fails its bracket")
        trace, best = [], None
        s, ms = t, a_mul(t) + t
        for k in range(1, max_iter + 1):
            mu = float(ms.sum())         # iterates of A + I stay positive: the 1-norm
            s = ms / mu
            ms = a_mul(s) + s            # (A + I) s, so A s = ms - s with no second product
            if not trace or trace[-1][1] >= tol:    # the residual phase
                trace.append((k, float(np.max(np.abs(ms - mu * s)) / (mu - 1.0))))
                if trace[-1][1] >= tol:
                    continue
            if best is None and s.min() <= 1e-13 * s.max() and f.components > 1:
                raise ReducibleSuspected("eigenvector support is a proper vertex subset")
            lo, hi = _bracket(s, at := ms - s)
            if hi - lo <= tol * lo and (best is None or hi - lo < best[3] - best[2]):
                best = (s, at, lo, hi, k)
            elif best is not None:       # the certified bracket stopped narrowing
                break
        if best is None:
            lo, hi = _bracket(s, ms - s)
            raise NoConvergence(f"no certified pair in {max_iter} steps: bracket [{lo!r}, {hi!r}]")
        return pair(*best, trace)

    verts = f.vertices(window)
    lam = float(sum(f.stencil.values()))
    if lam == 0:
        raise DegenerateSolution("stencil has no edges: A = F^T is zero")
    lost = sum(c for d, c in f.stencil.items() if d < 0) if f.domain == NATURALS else 0
    return EigenPair(lam, dict.fromkeys(verts, 1.0), "sup-one", lost / lam,
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
    if q is not None and np.max(q) != 0:    # 0 where the solve underflowed
        q = q / np.max(q)
    if q is not None and np.min(q) > 0:
        lo, hi = _bracket(q, mq := m @ q)
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

    The candidate of each recurrent class is one LU solve of its block's
    P^T - I, the diagonal read off the off-diagonal row sums, with the
    last row set to ones, clipped at 0 and normalized to sum one.  With several recurrent classes the fixed vector is not
    unique; the solver returns the equal-weight mixture of the per-class
    stationary vectors and flags non-uniqueness.  The certificate is the
    residual max |q P - q|: above max(100 tol, 1e-9) it raises
    NoConvergence.  There is no fallback solve: the class systems are
    nonsingular, and a singular one raises NoConvergence too.
    """
    p = _nonnegative_square(p)
    rows = p.sum(axis=1)
    bad = np.where(np.abs(rows - 1.0) > max(tol, 1e-9))[0]
    if bad.size:
        raise NotStochastic(int(bad[0]))
    classes = recurrent_classes(p)
    q = np.zeros(p.shape[0])
    for members in classes:
        # the class block B is stochastic and irreducible, so B^T - I has
        # rank k - 1 and, with its redundant last row set to ones, is
        # nonsingular.  Its diagonal is minus B's off-diagonal row sums,
        # B_ii - 1 free of that difference's cancellation, which loses a
        # coupling below the rounding of 1 (p_01 = p_10 = 1e-17 gave
        # q = (1, 0)).  LAPACK fails only on an exact zero pivot (a class
        # within rounding of splitting in two): a typed error, no second solve
        lhs = p[np.ix_(members, members)].T
        np.fill_diagonal(lhs, 0.0)
        np.fill_diagonal(lhs, -lhs.sum(axis=0))
        lhs[-1] = 1.0
        rhs = np.zeros(len(members))
        rhs[-1] = 1.0
        try:
            qc = np.clip(np.linalg.solve(lhs, rhs), 0.0, None)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular stationary system on a recurrent class") from None
        q[members] += qc / qc.sum() / len(classes)
    residual = float(np.max(np.abs(q @ p - q)))
    if residual > max(100 * tol, 1e-9):
        raise NoConvergence(f"stationary solve residual {residual:g}")
    return StationaryDistribution(q, residual, non_unique=len(classes) > 1)
