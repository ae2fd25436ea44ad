"""Measures on the path space: tail-invariant, Markov, and IFS classes.

Each measure assigns a value to every finite path (cylinder set) and to
every empty path anchored at a level-0 vertex (the set of paths starting
there).  Converters, audits (tail/shift invariance, the IFS fixed-point
identity, Kolmogorov consistency), samplers, and an empirical
frequency check live here as well.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .diagram import FINITE, DiagramSpec, Edge, height_vector
from .errors import (
    InconsistentVectors,
    InfiniteMass,
    MeasureError,
    NotStochastic,
    NotZeroOne,
    SupportMismatch,
    WindowTooSmall,
    ZeroMass,
    ZeroTransition,
)
from .pathspace import FinitePath, empty_path, enumerate_paths, one_edge_extensions, prepend
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    EigenPair,
    perron_eigenpair,
    solve_harmonic,
)

CONSISTENCY_TOL = 1e-9    # solver-derived quantities
IDENTITY_TOL = 1e-12      # closed-form identities


# ---------------------------------------------------------------------------
# Tail-invariant measures

@dataclass
class TailInvariantMeasure:
    """Measure whose cylinder values depend only on (length, range vertex).

    Either backed by an explicit vector sequence mu^(0..N) or by a Perron
    eigenpair of a stationary diagram, where mu^(n)_v = t_v / lam^n.  Its
    Markov form has q = mu^(0) and p^(n)_{w,e} = mu^(n+1)_{r(e)} / mu^(n)_w.
    On an infinite vertex domain the form covers the vectors' window only
    and the total mass counts as infinite.
    """

    diagram: DiagramSpec
    provenance: str                      # "explicit" | "perron"
    vectors: list | None = None          # list of dicts, levels 0..N
    eigen: EigenPair | None = None
    markov: MarkovMeasure = field(init=False, repr=False)
    total_mass: float = field(init=False)

    def __post_init__(self):
        stationary = self.provenance == "perron"
        n_tables = 1 if stationary else len(self.vectors) - 1
        tables = [_tail_table(self.diagram, n, self.level_vector(n), self.level_vector(n + 1))
                  for n in range(n_tables)]
        self.markov = MarkovMeasure(self.diagram, self.level_vector(0), tables, stationary)
        self.total_mass = self.markov.total_mass if self.diagram.domain == FINITE else math.inf

    def level_vector(self, n: int) -> dict:
        if self.provenance == "perron":
            lam = self.eigen.lam
            return {v: tv / lam ** n for v, tv in self.eigen.t.items()}
        if n >= len(self.vectors):
            raise MeasureError(f"no vector stored for level {n}")
        return self.vectors[n]

    def value(self, path: FinitePath) -> float:
        if self.provenance == "perron":
            return _in_window(self.eigen.t, path.end) / self.eigen.lam ** len(path)
        return _in_window(self.level_vector(len(path)), path.end)

    def cell_value(self, n: int, v: int, window=None) -> float:
        """Mass of the partition cell X_v^(n) = H^(n)_v cylinders."""
        h = height_vector(self.diagram, n, window)
        return h[v] * self.level_vector(n)[v]

    @property
    def summable(self) -> str:
        return self.eigen.summable if self.eigen else "unknown"


def _in_window(vector: dict, v: int) -> float:
    if v not in vector:
        raise WindowTooSmall(f"vertex {v} lies outside the measure's vertex window")
    return vector[v]


def _tail_table(diagram: DiagramSpec, level: int, cur: dict, nxt: dict) -> dict:
    """p_e = nxt[r(e)] / cur[s(e)] at every source of positive mass whose
    out-edges all end inside the window of ``nxt``."""
    table = {}
    for w, mass in cur.items():
        out = diagram.edges_from(w, level)
        if mass > 0 and all(e.target in nxt for e in out):
            for e in out:
                table[e.key()] = nxt[e.target] / mass
    return table


def tail_measure_from_vectors(diagram: DiagramSpec, vectors,
                              tol: float = CONSISTENCY_TOL,
                              window=None) -> TailInvariantMeasure:
    """Wrap an explicit vector sequence, enforcing A_n mu^(n+1) = mu^(n)."""
    vecs = [_as_vertex_dict(diagram, v, window) for v in vectors]
    for n in range(len(vecs) - 1):
        f = diagram.matrix(n)
        for w, target in vecs[n].items():
            back = sum(c * vecs[n + 1][v] for v, c in f.column(w)
                       if v in vecs[n + 1])
            if abs(back - target) > tol:
                raise InconsistentVectors(n, abs(back - target))
    return TailInvariantMeasure(diagram, "explicit", vectors=vecs)


def stationary_tail_measure(diagram: DiagramSpec, tol: float = DEFAULT_TOL,
                            max_iter: int = DEFAULT_MAX_ITER,
                            window_schedule=None) -> TailInvariantMeasure:
    """The tail-invariant measure of a stationary diagram from the Perron
    eigenpair of A = F^T: cylinders of n edges ending at v get t_v/lam^n."""
    diagram.require_stationary()
    eigen = perron_eigenpair(diagram.matrix(0), window_schedule, tol, max_iter)
    return TailInvariantMeasure(diagram, "perron", eigen=eigen)


# ---------------------------------------------------------------------------
# Markov measures

@dataclass
class MarkovMeasure:
    """Initial vertex mass q plus per-level stochastic edge weights; every
    path measure carries one, built once, as its ``markov`` form.

    ``levels[n]`` maps an edge key (source, target, mult) at level n to its
    transition probability; a stationary measure reuses ``levels[0]``.
    ``rows[n]`` maps each source vertex to its out-edge keys and their
    cumulative probabilities, and ``starts`` does the same for q.
    """

    diagram: DiagramSpec
    q: dict
    levels: list
    stationary: bool = True
    full_support: bool = True
    total_mass: float = field(init=False)
    starts: tuple | None = field(init=False, repr=False)
    rows: list = field(init=False, repr=False)

    def __post_init__(self):
        self.total_mass = math.fsum(self.q.values())
        self.starts = _cumulative(list(self.q), list(self.q.values()))
        self.rows = [_rows(table) for table in self.levels]

    @property
    def markov(self) -> "MarkovMeasure":
        return self

    def _level(self, n: int) -> int:
        if self.stationary:
            return 0
        if n >= len(self.levels):
            raise MeasureError(f"no transition table stored for level {n}")
        return n

    def level_table(self, n: int) -> dict:
        return self.levels[self._level(n)]

    def transition(self, edge: Edge) -> float:
        return self.level_table(edge.level).get(edge.key(), 0.0)

    def row(self, w: int, n: int) -> tuple:
        """Out-edge keys of w at level n and their cumulative probabilities."""
        row = self.rows[self._level(n)].get(w)
        if row is None:
            err = MeasureError if self.diagram.domain == FINITE else WindowTooSmall
            raise err(f"no transition row for vertex {w} at level {n}")
        return row

    def level_ratios(self, path: FinitePath, n_terms: int) -> list:
        """Partial products prod_{i=1}^k p^(i+1)_{s(e_i),e_i} / p^(i)_{s(e_i),e_i}
        along a path, for k = 1 .. min(n_terms, len(path) - 1)."""
        partials, prod = [], 1.0
        for i in range(1, min(n_terms, len(path) - 1) + 1):
            e = path.edges[i]
            num = self.level_table(i + 1).get(e.key(), 0.0)
            den = self.level_table(i).get(e.key(), 0.0)
            if num == 0.0 or den == 0.0:
                raise ZeroTransition(f"zero transition at level {i} on edge {e}")
            prod *= num / den
            partials.append(float(prod))
        return partials

    def value(self, path: FinitePath) -> float:
        m = self.q.get(path.start, 0.0)
        for e in path.edges:
            m *= self.transition(e)
        return m


def _cumulative(items, weights):
    """(items, cumulative weights over their total), or None without mass."""
    cum = list(accumulate(weights))
    if not cum or not 0 < cum[-1] < math.inf:
        return None
    return tuple(items), [c / cum[-1] for c in cum]


def _rows(table: dict) -> dict:
    """Each source vertex's out-edge keys, in order, with cumulative probabilities."""
    keys = {}
    for key in sorted(table):
        keys.setdefault(key[0], []).append(key)
    return {w: _cumulative(ks, [table[k] for k in ks]) for w, ks in keys.items()}


def markov_measure(diagram: DiagramSpec, q, p_levels,
                   tol: float = CONSISTENCY_TOL) -> MarkovMeasure:
    """Validate stochasticity (per-vertex unit row sums over outgoing
    edges) and support, then build the Markov measure with cylinder values
    q_{s(e_0)} p^(0)_{s(e_0),e_0} ... p^(n)_{s(e_n),e_n}."""
    q = _as_vertex_dict(diagram, q)
    stationary = isinstance(p_levels, dict)
    levels = [p_levels] if stationary else list(p_levels)
    if stationary:
        diagram.require_stationary()
    full_support = all(x > 0 for x in q.values())
    for n, table in enumerate(levels):
        f = diagram.matrix(n if not stationary else 0)
        for (w, v, k), p in table.items():
            if p > 0 and not (0 <= k < f.entry(v, w)):
                raise SupportMismatch(
                    f"positive weight on missing edge ({w}->{v}:{k}) at level {n}")
        for w in diagram.vertices():
            out = diagram.edges_from(w, n if not stationary else 0)
            if not out:
                continue
            total = sum(table.get(e.key(), 0.0) for e in out)
            if abs(total - 1.0) > tol:
                raise NotStochastic(w, f"outgoing mass {total:g} at vertex {w}, level {n}")
            if any(table.get(e.key(), 0.0) <= 0 for e in out):
                full_support = False
    return MarkovMeasure(diagram, q, levels, stationary, full_support)


def tail_to_markov(tm: TailInvariantMeasure, n_levels: int = 8) -> MarkovMeasure:
    """The Markov form stored by the measure's constructor.  It covers
    every level the measure defines; ``n_levels`` has no effect."""
    return tm.markov


# ---------------------------------------------------------------------------
# IFS measures on stationary 0-1 diagrams

@dataclass
class IFSWeights:
    """Edge weights p with harmonic vertex vector q, M q = q.

    Cylinder values: nu([f_0..f_{n-1}]) = p_{f_0} ... p_{f_{n-1}} q_{r(f_{n-1})},
    nu([w]) = q_w.  p is a general strictly positive weight vector; the
    total mass sum_w q_w is reported, not assumed finite or one.  The
    Markov form has transitions p_e q_{r(e)} / q_{s(e)}.
    """

    diagram: DiagramSpec
    p: dict                 # (source, target) -> weight
    q: dict                 # vertex -> harmonic component
    column_sums: dict       # vertex w -> sum of p_e over r(e) = w
    residual: float = 0.0
    total_mass: float = math.inf
    markov: MarkovMeasure = field(init=False, repr=False)

    def __post_init__(self):
        table = {(w, v, 0): x * self.q[v] / self.q[w] for (w, v), x in self.p.items()}
        self.markov = MarkovMeasure(self.diagram, self.q, [table])

    def weight(self, edge: Edge) -> float:
        return self.p[(edge.source, edge.target)]

    def value(self, path: FinitePath) -> float:
        m = self.q[path.end]
        for e in path.edges:
            m *= self.weight(e)
        return m


def ifs_measure(diagram: DiagramSpec, p,
                tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> IFSWeights:
    """Solve M q = q for the vertex matrix M_{w,v} = p_{(w,v)} and build
    the IFS measure of a stationary 0-1 diagram."""
    diagram.require_stationary()
    if not diagram.is_zero_one:
        raise NotZeroOne("IFS measures require a 0-1 diagram")
    if diagram.domain != FINITE:
        raise MeasureError("IFS measures are materialized on finite levels")
    verts = diagram.vertices()
    p = {(w, v): float(x) for (w, v), x in _as_edge_dict(p).items()}
    f = diagram.matrix(0)
    for (w, v), x in p.items():
        if f.entry(v, w) == 0:
            raise SupportMismatch(f"weight on missing edge ({w}->{v})")
        if x <= 0:
            raise MeasureError(f"edge weight must be positive on ({w}->{v})")
    for w in verts:
        for e in diagram.edges_from(w, 0):
            if (e.source, e.target) not in p:
                raise MeasureError(f"missing weight for edge ({e.source}->{e.target})")
    m = np.zeros((len(verts), len(verts)))
    idx = {v: i for i, v in enumerate(verts)}
    for (w, v), x in p.items():
        m[idx[w], idx[v]] = x
    harmonic = solve_harmonic(m, tol, max_iter)
    q = {v: float(harmonic.q[idx[v]]) for v in verts}
    cols = {w: sum(x for (_, v), x in p.items() if v == w) for w in verts}
    return IFSWeights(diagram, p, q, cols, harmonic.residual, harmonic.total_mass)


# ---------------------------------------------------------------------------
# Audits

@dataclass
class FixedPointReport:
    max_deviation: float
    n_cylinders: int
    holds: bool


def check_ifs_fixed_point(ifs: IFSWeights, max_len: int = 4,
                          tol: float = IDENTITY_TOL) -> FixedPointReport:
    """Verify nu = sum_e p_e nu o tau_e^{-1} on every cylinder.

    Only e = f_0 contributes on [f_0,...,f_n], so the identity reduces to
    p_{f_0} nu([f_1..f_n]) = nu([f_0..f_n]) (with nu([r(f_0)]) = q for a
    single edge).
    """
    worst, count = 0.0, 0
    for n in range(1, max_len + 1):
        for path in enumerate_paths(ifs.diagram, n):
            rest = FinitePath(tuple(e.at_level(e.level - 1) for e in path.edges[1:])) \
                if n > 1 else empty_path(path.edges[0].target)
            lhs = ifs.weight(path.edges[0]) * ifs.value(rest)
            worst = max(worst, abs(lhs - ifs.value(path)))
            count += 1
    return FixedPointReport(float(worst), count, bool(worst < tol))


@dataclass
class TailInvarianceReport:
    level: int
    max_spread: float
    tail_invariant: bool
    groups: dict = field(default_factory=dict)   # vertex -> (min, max, count)
    ratio_law_deviation: float | None = None     # IFS: nu[f]/nu[e] vs p_f/p_e


def check_tail_invariance(measure, n: int, tol: float = IDENTITY_TOL,
                          window=None) -> TailInvarianceReport:
    """Group length-n cylinders by range vertex and report the within-group
    value spread; zero spread is exactly tail invariance at this depth."""
    groups = {}
    for path in enumerate_paths(measure.diagram, n, window):
        groups.setdefault(path.end, []).append(measure.value(path))
    spread = float(max((max(vals) - min(vals) for vals in groups.values()),
                       default=0.0))
    report = TailInvarianceReport(
        n, spread, bool(spread <= tol),
        {v: (float(min(vals)), float(max(vals)), len(vals))
         for v, vals in groups.items()})
    if isinstance(measure, IFSWeights):
        dev = 0.0
        edges = measure.diagram.all_edges(0, window)
        for e in edges:
            for f in edges:
                if e.target == f.target:
                    lhs = measure.value(FinitePath((f,))) / measure.value(FinitePath((e,)))
                    dev = max(dev, abs(lhs - measure.weight(f) / measure.weight(e)))
        report.ratio_law_deviation = dev
    return report


@dataclass
class ShiftInvarianceReport:
    max_rel_deviation: float
    invariant: bool
    factors: dict = field(default_factory=dict)     # s(e_0) -> measured ratio
    predicted: dict | None = None                   # IFS column sums


def check_shift_invariance(measure, max_len: int = 4,
                           tol: float = IDENTITY_TOL,
                           window=None) -> ShiftInvarianceReport:
    """Compare m(sigma^{-1}[e-bar]) = sum over prepended edges with
    m([e-bar]) on every cylinder up to max_len edges."""
    measure.diagram.require_stationary()
    worst = 0.0
    factors = {}
    for n in range(1, max_len + 1):
        for path in enumerate_paths(measure.diagram, n, window):
            val = measure.value(path)
            if val == 0:
                continue
            pre = sum(measure.value(prepend(f, path))
                      for f in measure.diagram.edges_into(path.start, 0))
            worst = max(worst, abs(pre - val) / val)
            factors[path.start] = float(pre / val)
    report = ShiftInvarianceReport(float(worst), bool(worst <= tol), factors)
    if isinstance(measure, IFSWeights):
        report.predicted = dict(measure.column_sums)
    return report


@dataclass
class ShiftConditionReport:
    holds: bool
    lam: float
    heights: dict
    witnesses: list
    equivalence_bound: tuple | None   # (1/lam, M/lam) when max height finite


def shift_condition_tail(diagram: DiagramSpec, eigen: EigenPair | None = None,
                         tol: float = CONSISTENCY_TOL,
                         window=None) -> ShiftConditionReport:
    """Shift-invariance criterion for the stationary tail measure:
    H^(1)_v = lam for every vertex.  Also reports the two-sided bound
    1/lam <= d(mu o sigma^{-1})/d mu <= M/lam when M = max H^(1) is finite."""
    diagram.require_stationary()
    if eigen is None:
        eigen = perron_eigenpair(diagram.matrix(0))
    h1 = height_vector(diagram, 1, window).values
    witnesses = sorted(v for v, h in h1.items() if abs(h - eigen.lam) >= tol)
    bound = (1.0 / eigen.lam, max(h1.values()) / eigen.lam)
    return ShiftConditionReport(not witnesses, eigen.lam, h1, witnesses, bound)


@dataclass
class ProductConvergenceReport:
    partials: list
    converges_to_one: bool
    qp0_residual: float


def nonstationary_shift_product(m, path: FinitePath, n_terms: int,
                                tol: float = CONSISTENCY_TOL) -> ProductConvergenceReport:
    """Partial products prod_{i=1}^k p^(i+1)_{s(e_i),e_i} / p^(i)_{s(e_i),e_i}
    of the measure's Markov form along a path, with a convergence-to-1
    verdict over the last half."""
    m.diagram.require_stationary()
    partials = m.markov.level_ratios(path, n_terms)
    half = partials[len(partials) // 2:]
    verdict = bool(half) and all(abs(x - 1.0) < tol for x in half)
    return ProductConvergenceReport(partials, verdict, _vertex_transition_residual(m.markov))


def _vertex_transition_residual(m: MarkovMeasure) -> float:
    """sup-norm of q P_0 - q, aggregating edge weights to vertex pairs."""
    verts = m.diagram.vertices()
    acc = {v: 0.0 for v in verts}
    for (w, v, _k), p in m.level_table(0).items():
        acc[v] += m.q.get(w, 0.0) * p
    return max(abs(acc[v] - m.q.get(v, 0.0)) for v in verts)


# ---------------------------------------------------------------------------
# Sampling

def sample_paths(measure, length: int, count: int, seed: int,
                 start: int | None = None) -> list:
    """Draw ``count`` admissible paths of ``length`` edges by inverse-CDF
    steps over the measure's Markov form; deterministic per seed.  Without
    ``start`` the first vertex is drawn from q, which needs finite mass."""
    form = measure.markov
    if start is None and not math.isfinite(measure.total_mass):
        raise InfiniteMass("supply a starting vertex for sigma-finite sampling")
    if start is None and form.starts is None:
        raise ZeroMass("q carries no mass to draw a starting vertex from")
    paths = []
    for u in np.random.default_rng(seed).random((count, length + 1)).tolist():
        w = start
        if w is None:
            verts, cum = form.starts
            w = verts[bisect_right(cum, u[0])]
        edges = []
        for n in range(length):
            keys, cum = form.row(w, n)
            key = keys[bisect_right(cum, u[n + 1])]
            edges.append(Edge(n, *key))
            w = key[1]
        paths.append(FinitePath(tuple(edges)) if edges else empty_path(w))
    return paths


def sample_path(measure, length: int, seed: int, start: int | None = None) -> FinitePath:
    """Draw one admissible path of the given length; deterministic per seed."""
    return sample_paths(measure, length, 1, seed, start)[0]


@dataclass
class EmpiricalRow:
    cylinder: str
    exact: float
    empirical: float
    z: float


@dataclass
class EmpiricalReport:
    rows: list
    n_samples: int
    max_abs_z: float
    passed: bool


def empirical_check(measure, length: int, n_samples: int, seed: int,
                    z_max: float = 4.0) -> EmpiricalReport:
    """Compare seeded empirical cylinder frequencies against exact
    probabilities using binomial standard errors."""
    counts = {}
    for path in sample_paths(measure, length, n_samples, seed):
        key = tuple(e.key() for e in path.edges)
        counts[key] = counts.get(key, 0) + 1
    cylinders = enumerate_paths(measure.diagram, length)
    total = sum(measure.value(c) for c in cylinders)
    rows, worst = [], 0.0
    for c in cylinders:
        exact = measure.value(c) / total
        freq = counts.get(tuple(e.key() for e in c.edges), 0) / n_samples
        if exact in (0.0, 1.0):
            z = 0.0 if freq == exact else math.inf
        else:
            z = (freq - exact) / math.sqrt(exact * (1 - exact) / n_samples)
        worst = max(worst, abs(z))
        rows.append(EmpiricalRow(str(c), exact, freq, z))
    return EmpiricalReport(rows, n_samples, worst, worst <= z_max)


# ---------------------------------------------------------------------------
# Kolmogorov consistency (shared audit)

def check_kolmogorov(measure, max_len: int = 5, tol: float = IDENTITY_TOL,
                     window=None) -> FixedPointReport:
    """parent = sum of one-edge extensions, for every cylinder up to
    max_len edges (length 0 anchors included)."""
    worst, count = 0.0, 0
    for n in range(0, max_len):
        for path in enumerate_paths(measure.diagram, n, window):
            val = measure.value(path)
            ext = sum(measure.value(x) for x in one_edge_extensions(path, measure.diagram))
            scale = max(abs(val), 1e-300)
            worst = max(worst, abs(ext - val) / scale)
            count += 1
    return FixedPointReport(float(worst), count, bool(worst < tol))


# ---------------------------------------------------------------------------
# helpers / JSON interchange

def _as_vertex_dict(diagram: DiagramSpec, values, window=None) -> dict:
    if isinstance(values, dict):
        return {int(v): float(x) for v, x in values.items()}
    verts = diagram.vertices(window)
    values = list(values)
    if len(values) != len(verts):
        raise MeasureError(f"expected {len(verts)} vertex values, got {len(values)}")
    return {v: float(x) for v, x in zip(verts, values)}


def _as_edge_dict(p) -> dict:
    if isinstance(p, dict):
        return {(int(w), int(v)): float(x) for (w, v), x in p.items()}
    return {(int(w), int(v)): float(x) for w, v, x in p}


def measure_from_dict(diagram: DiagramSpec, obj: dict):
    """Build a measure from its JSON description.

    {"type":"tail"} (stationary Perron) or {"type":"tail","vectors":[...]},
    {"type":"markov","q":[...],"P":[[w,v,k,p],...]} (stationary) or
    {"type":"markov","q":[...],"P_levels":[[[w,v,k,p],...],...]},
    {"type":"ifs","p":[[w,v,weight],...]}.
    """
    kind = obj["type"]
    if kind == "tail":
        if "vectors" in obj:
            return tail_measure_from_vectors(diagram, obj["vectors"])
        return stationary_tail_measure(diagram)
    if kind == "markov":
        if "P" in obj:
            table = {(int(w), int(v), int(k)): float(p) for w, v, k, p in obj["P"]}
            return markov_measure(diagram, obj["q"], table)
        levels = [{(int(w), int(v), int(k)): float(p) for w, v, k, p in lvl}
                  for lvl in obj["P_levels"]]
        return markov_measure(diagram, obj["q"], levels)
    if kind == "ifs":
        return ifs_measure(diagram, obj["p"])
    raise MeasureError(f"unknown measure type {kind!r}")
