"""The semibranching function system of a stationary 0-1 diagram.

Index set is the edge set E; the branch tau_e prepends e to any path
starting at r(e), the coding map is the one-sided shift.  Ranges R_e
partition the path space, and each domain D_e is the union of the ranges
R_f over f with s(f) = r(e), so branch composition is governed by a 0-1
matrix over the edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import FINITE, DiagramSpec
from .errors import (
    DiagramError,
    DomainViolation,
    NotZeroOne,
    TooShort,
    ZeroMeasureCylinder,
)
from .pathspace import FinitePath, prepend

QSTAT_TOL = 1e-6
QSTAT_TERMS = 64


@dataclass
class SemibranchingSystem:
    diagram: DiagramSpec
    edges: list                     # canonical order: (source, target)
    lambda_sets: dict               # edge pair -> tuple of edge pairs with s(f) = r(e)


def build_sfs(diagram: DiagramSpec) -> SemibranchingSystem:
    """Construct the s.f.s. of a stationary 0-1 diagram and verify the
    range-partition property on the level."""
    diagram.require_stationary()
    if not diagram.is_zero_one:
        raise NotZeroOne("semibranching system requires a 0-1 diagram")
    if diagram.domain != FINITE:
        raise DiagramError("s.f.s. is materialized for finite levels only")
    first, col = diagram.matrix(0).edge_column()
    first, edges = first.tolist(), list(zip(col.sources.tolist(), col.targets.tolist()))
    out = [tuple(edges[a:b]) for a, b in zip(first, first[1:])]    # each vertex's out-edges
    # ranges partition: each length-1 path lies in exactly the R of its
    # first edge, so every vertex needs an out-edge (0-1: no parallel edges)
    if not all(out):
        raise DiagramError("ranges do not cover the path space")
    lam = {e: out[e[1]] for e in edges}         # e is followed by the out-edges of r(e)
    return SemibranchingSystem(diagram, edges, lam)


@dataclass
class CKMatrix:
    """0-1 matrix over E x E with entry 1 exactly when s(f) = r(e)."""

    edges: list
    matrix: np.ndarray


def ck_matrix(sfs: SemibranchingSystem) -> CKMatrix:
    sources, targets = np.array(sfs.edges, dtype=int).reshape(-1, 2).T
    return CKMatrix(list(sfs.edges), (targets[:, None] == sources).astype(int))


@dataclass
class RNReport:
    """Finite-depth ratio sequence m(tau_e[x|n]) / m([x|n]) with a
    Cauchy-based limit verdict."""

    sequence: list
    limit: float | None
    converged: bool


def rn_derivative(measure, e, x: FinitePath, depth: int,
                  tol: float = 1e-9) -> RNReport:
    """Radon-Nikodym estimate of the branch tau_e at x by shrinking
    cylinders.  Constant in depth for stationary tail measures (value
    1/lambda) and for stationary Markov measures (closed-form ratio).
    A depth below 1 raises TooShort.

    tau_e[x|n] is the prefix of n + 1 edges of tau_e[x|depth], so the
    branch is applied once."""
    if x.start != e.target:
        raise DomainViolation(f"path starts at {x.start}, not r(e) = {e.target}")
    if depth < 1:
        raise TooShort(f"depth {depth} requested, a ratio sequence needs depth >= 1")
    if len(x) < depth:
        raise TooShort(f"path has {len(x)} edges, depth {depth} requested")
    image = prepend(e, x.prefix(depth))
    seq = []
    for n in range(1, depth + 1):
        denom = measure.value(x.prefix(n))
        if denom == 0.0:
            raise ZeroMeasureCylinder(f"zero mass on prefix of length {n}")
        seq.append(float(measure.value(image.prefix(n + 1)) / denom))
    half = seq[len(seq) // 2:]
    converged = bool(max(half) - min(half) < tol)
    return RNReport(seq, half[-1] if converged else None, converged)


@dataclass
class QuasiStationarityReport:
    partials: list
    verdict: bool               # bounded in (0, inf) and Cauchy
    bounds: tuple


def quasi_stationary_test(m, x: FinitePath, n_terms: int = QSTAT_TERMS,
                          tol: float = QSTAT_TOL) -> QuasiStationarityReport:
    """Partial products of the level-ratio p^(i+1)/p^(i) of the measure's
    Markov form along x.

    Verdict is true when the partial products stay inside [tol, 1/tol]
    and are Cauchy within tol over the last half of the terms.
    """
    partials = m.markov.level_ratios(x, n_terms)
    half = partials[len(partials) // 2:]
    inside = all(tol <= p <= 1.0 / tol for p in partials)
    cauchy = bool(half) and bool(max(half) - min(half) < tol)
    return QuasiStationarityReport(partials, inside and cauchy, (tol, 1.0 / tol))


def preimage_count(diagram: DiagramSpec, x: FinitePath) -> int:
    """|sigma^{-1}(x)| = number of edges f with r(f) = s(e_0), which is
    the height H^(1) at the starting vertex."""
    diagram.require_stationary()
    return len(diagram.edges_into(x.start, 0))
