"""Measures on the path space: tail-invariant, Markov, and IFS classes.

Each measure assigns a value to every finite path (cylinder set) and to
every empty path anchored at a level-0 vertex (the set of paths starting
there).  Converters, audits (tail/shift invariance, the IFS fixed-point
identity, Kolmogorov consistency), samplers, and an empirical
frequency check live here as well.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat

import numpy as np

from .diagram import (
    DEFAULT_WINDOW,
    FINITE,
    DiagramSpec,
    Edge,
    _index,
    height_vector,
    json_field,
    json_rows,
)
from .errors import (
    DiagramError,
    InconsistentVectors,
    InfiniteMass,
    MeasureError,
    NotStochastic,
    NotZeroOne,
    PathmeasError,
    SupportMismatch,
    TooShort,
    WindowTooSmall,
    ZeroMass,
    ZeroTransition,
)
from .pathspace import (
    EdgeColumn,
    FinitePath,
    PathColumns,
    column_level,
    empty_path,
    path_columns,
)
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
        edges = path.edges
        end = edges[-1].target if edges else path.anchor
        if self.provenance == "perron":
            return _in_window(self.eigen.t, end) / self.eigen.lam ** len(edges)
        return _in_window(self.level_vector(len(edges)), end)

    def values(self, level: PathColumns) -> np.ndarray:
        """``value`` of every row of a columnar level, bit for bit."""
        if not len(level):
            return np.zeros(0)
        n = len(level.edges)
        if self.provenance == "perron":
            return _in_window_at(self.eigen.t, level.end) / self.eigen.lam ** n
        return _in_window_at(self.level_vector(n), level.end)

    def cell_value(self, n: int, v: int, window=None) -> float:
        """Mass of the partition cell X_v^(n) = H^(n)_v cylinders."""
        h = height_vector(self.diagram, n, window)
        return h[v] * self.level_vector(n)[v]


def _in_window(vector: dict, v: int) -> float:
    if v not in vector:
        raise WindowTooSmall(f"vertex {v} lies outside the measure's vertex window")
    return vector[v]


def _in_window_at(vector: dict, keys: np.ndarray) -> np.ndarray:
    """vector[v] for every vertex of ``keys``, raising as _in_window does
    at the first one outside the window."""
    vals = _lookup(vector, keys, math.nan)
    for v in keys[np.isnan(vals)].tolist():         # NaN: no value stored
        _in_window(vector, v)
    return vals


def _lookup(table: dict, keys: np.ndarray, default: float = 0.0) -> np.ndarray:
    """table.get(k, default) for every entry of an integer array, one dict
    lookup per integer of its range."""
    lo = int(keys.min(initial=0))
    span = range(lo, int(keys.max(initial=lo - 1)) + 1)
    return np.array([table.get(k, default) for k in span], dtype=float)[keys - lo]


def _column(table: dict, edges: EdgeColumn, ids: np.ndarray) -> np.ndarray:
    """The weight of the edge of one column at every row: table.get(key,
    0.0) for the key (source, target, mult), read once per edge of the
    column."""
    weights = map(table.get, edges.keys(), repeat(0.0))
    return np.fromiter(weights, dtype=float, count=len(edges.sources))[ids]


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
    try:
        vecs = [_as_vertex_dict(diagram, v, f"level-{n} vertex mass", window)
                for n, v in enumerate(vectors)]
    except TypeError as exc:
        raise MeasureError(f"tail vectors are not a list: {exc}") from exc
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
                            window: int = DEFAULT_WINDOW) -> TailInvariantMeasure:
    """The tail-invariant measure of a stationary diagram from the Perron
    eigenpair of A = F^T: cylinders of n edges ending at v get t_v/lam^n."""
    diagram.require_stationary()
    eigen = perron_eigenpair(diagram.matrix(0), window, tol, max_iter)
    return TailInvariantMeasure(diagram, "perron", eigen=eigen)


# ---------------------------------------------------------------------------
# Markov measures

@dataclass
class MarkovMeasure:
    """Initial vertex mass q plus per-level stochastic edge weights; every
    path measure carries one, built once, as its ``markov`` form.

    ``levels[n]`` maps an edge key (source, target, mult) at level n to its
    transition probability; a stationary measure reuses ``levels[0]``.
    ``starts`` holds the vertices of q and their cumulative masses; ``row``
    builds each vertex's out-edges the first time a walk reaches it.
    """

    diagram: DiagramSpec
    q: dict
    levels: list
    stationary: bool = True
    full_support: bool = True
    total_mass: float = field(init=False)
    starts: tuple | None = field(init=False, repr=False)
    _rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.total_mass = math.fsum(self.q.values())
        self.starts = _cumulative(list(self.q), list(self.q.values()))
        self._rows = {}

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
        """The out-edges of w at level n, as shared Edge objects, and their
        cumulative probabilities; built on the first visit and kept.  The
        cache grows with the walks: after walks of length L it holds at most
        one row per vertex on each of levels 0..L-1, stationary or not."""
        try:
            return self._rows[n, w]
        except KeyError:
            pass
        table = self.level_table(n)
        out = tuple(self.diagram.edges_from(w, n))
        row = _cumulative(out, [table.get(e.key(), 0.0) for e in out])
        if row is None:
            err = MeasureError if self.diagram.domain == FINITE else WindowTooSmall
            raise err(f"no transition row for vertex {w} at level {n}")
        self._rows[n, w] = row
        return row

    def level_ratios(self, path: FinitePath, n_terms: int) -> list:
        """Partial products prod_{i=1}^k p^(i+1)_{s(e_i),e_i} / p^(i)_{s(e_i),e_i}
        along a path, for k = 1 .. n_terms; the path needs n_terms + 1 edges."""
        if len(path) < n_terms + 1:
            raise TooShort(f"path has {len(path)} edges, {n_terms} terms need {n_terms + 1}")
        partials, prod = [], 1.0
        for i in range(1, n_terms + 1):
            e = path.edges[i]
            num = self.level_table(i + 1).get(e.key(), 0.0)
            den = self.level_table(i).get(e.key(), 0.0)
            if num == 0.0 or den == 0.0:
                raise ZeroTransition(f"zero transition at level {i} on edge {e}")
            prod *= num / den
            partials.append(float(prod))
        return partials

    def value(self, path: FinitePath) -> float:
        """q_{s(e_0)}, then times the transition of each edge in turn, read
        from the table of the edge's level (a stationary form has one)."""
        edges, levels = path.edges, self.levels
        by_level = not self.stationary        # False: levels[0] serves every edge
        m = self.q.get(edges[0].source if edges else path.anchor, 0.0)
        try:
            for e in edges:
                m *= levels[e.level * by_level].get(e._key, 0.0)
        except IndexError:
            self.level_table(e.level)         # the error for a level not stored
            raise
        return m

    def values(self, level: PathColumns) -> np.ndarray:
        """``value`` of every row of a columnar level, reading position j
        as level j, multiplied in the same order: q, then p_0, p_1, ..."""
        if not len(level):
            return np.zeros(0)
        vals = _lookup(self.q, level.start)
        for j, (edges, ids) in enumerate(zip(level.edges, level.ids.T)):
            vals *= _column(self.level_table(j), edges, ids)
        return vals


def _cumulative(items, weights):
    """(items, cumulative weights over their total), or None without mass."""
    cum = list(accumulate(weights))
    if not cum or not 0 < cum[-1] < math.inf:
        return None
    return tuple(items), [c / cum[-1] for c in cum]


def markov_measure(diagram: DiagramSpec, q, p_levels,
                   tol: float = CONSISTENCY_TOL) -> MarkovMeasure:
    """Validate stochasticity (per-vertex unit row sums over outgoing
    edges) and support, then build the Markov measure with cylinder values
    q_{s(e_0)} p^(0)_{s(e_0),e_0} ... p^(n)_{s(e_n),e_n}."""
    q = _as_vertex_dict(diagram, q, "initial mass")
    stationary = isinstance(p_levels, dict)
    if stationary:
        diagram.require_stationary()
    levels = [_as_table(table, f"level-{n} transition")
              for n, table in enumerate([p_levels] if stationary else p_levels)]
    if diagram.domain == FINITE:
        for v in q:
            if not diagram.matrix(0).in_domain(v):
                raise SupportMismatch(f"initial mass on vertex {v}, outside level 0")
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
    _table: dict = field(init=False, repr=False, compare=False)  # (source, target, mult) -> p_e

    def __post_init__(self):
        f = self.diagram.matrix(0)          # p_(w,v) weighs each edge w -> v the diagram has
        self._table = {(w, v, k): x for (w, v), x in self.p.items() for k in range(f.entry(v, w))}
        table = {(w, v, k): x * self.q[v] / self.q[w] for (w, v, k), x in self._table.items()}
        self.markov = MarkovMeasure(self.diagram, self.q, [table])

    def weight(self, edge: Edge) -> float:
        """p_e; 0.0 for an edge the diagram lacks."""
        return self._table.get(edge._key, 0.0)

    def value(self, path: FinitePath) -> float:
        """q at the end, then times the weight of each edge in turn."""
        edges, table = path.edges, self._table
        m = self.q[edges[-1].target if edges else path.anchor]
        try:
            for e in edges:
                m *= table[e._key]
        except KeyError:                      # an edge the diagram lacks: weight 0.0
            return m * 0.0
        return m

    def values(self, level: PathColumns) -> np.ndarray:
        """``value`` of every row of a columnar level, multiplied in the
        same order: q at the end, then p_{f_0}, p_{f_1}, ..."""
        vals = _lookup(self.q, level.end)
        for edges, ids in zip(level.edges, level.ids.T):
            vals *= _column(self._table, edges, ids)
        return vals


def ifs_measure(diagram: DiagramSpec, p, tol: float = DEFAULT_TOL) -> IFSWeights:
    """Solve M q = q for the vertex matrix M_{w,v} = p_{(w,v)} and build
    the IFS measure of a stationary 0-1 diagram."""
    diagram.require_stationary()
    if not diagram.is_zero_one:
        raise NotZeroOne("IFS measures require a 0-1 diagram")
    if diagram.domain != FINITE:
        raise MeasureError("IFS measures are materialized on finite levels")
    verts = diagram.vertices()        # 0 .. n-1 on a finite level
    p = _as_edge_dict(p)
    f = diagram.matrix(0)
    for w, v in p:
        if f.entry(v, w) == 0:
            raise SupportMismatch(f"weight on missing edge ({w}->{v})")
    for w in verts:
        for e in diagram.edges_from(w, 0):
            if (e.source, e.target) not in p:
                raise MeasureError(f"missing weight for edge ({e.source}->{e.target})")
    m = np.zeros((len(verts), len(verts)))
    for (w, v), x in p.items():
        m[w, v] = x
    harmonic = solve_harmonic(m, tol)
    q = dict(zip(verts, harmonic.q.tolist()))
    into = {w: [] for w in verts}       # each vertex's in-weights, in p's order
    for (_, v), x in p.items():
        into[v].append(x)
    cols = {w: sum(xs) for w, xs in into.items()}
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
    if not isinstance(ifs, IFSWeights):
        raise MeasureError(f"the IFS fixed-point audit needs an IFS measure, "
                           f"not a {type(ifs).__name__}")
    worst, count = 0.0, 0
    for level in islice(path_columns(ifs.diagram, max_len), 1, None):
        lhs = _column(ifs._table, level.edges[0], level.ids[:, 0]) * ifs.values(level.shift())
        worst = max(worst, float(np.abs(lhs - ifs.values(level)).max(initial=0.0)))
        count += len(level)
    return FixedPointReport(float(worst), count, bool(worst < tol))


@dataclass
class TailInvarianceReport:
    level: int
    max_spread: float
    tail_invariant: bool
    groups: dict = field(default_factory=dict)   # vertex -> (min, max, count)
    ratio_law_deviation: float = 0.0            # nu[f]/nu[e] vs w_f/w_e


def check_tail_invariance(measure, n: int, tol: float = IDENTITY_TOL,
                          window=None) -> TailInvarianceReport:
    """Group length-n cylinders by range vertex and report the within-group
    value spread; zero spread is exactly tail invariance at this depth."""
    one = None                      # level 1 of the walk, for the ratio law
    for level in path_columns(measure.diagram, n, window):
        if len(level.edges) == 1:
            one = level
    vals = measure.values(level)
    ends, first, group, sizes = np.unique(level.end, return_index=True,
                                          return_inverse=True, return_counts=True)
    ranked = vals[np.lexsort((vals, group))]        # by group, then by value
    highs = ranked[np.cumsum(sizes) - 1]
    lows = ranked[np.cumsum(sizes) - sizes]
    spread = float((highs - lows).max(initial=0.0))
    order = np.argsort(first)                        # groups in order of appearance
    return TailInvarianceReport(
        n, spread, bool(spread <= tol),
        {v: (lo, hi, size) for v, lo, hi, size in zip(
            ends[order].tolist(), lows[order].tolist(), highs[order].tolist(),
            sizes[order].tolist())},
        _ratio_law_deviation(
            measure, one if one is not None else column_level(measure.diagram, 1, window)))


def _ratio_law_deviation(measure, level: PathColumns) -> float:
    """max |nu[f]/nu[e] - w_f/w_e| over the level-1 cylinders of ``level``
    with a common range vertex, each valued once; edges without a weight
    or without mass take no part."""
    weights, _ = _form_weights(measure.markov)
    w = _column(weights, level.edges[0], level.ids[:, 0])
    keep = w != 0                      # only the rows with a weight are valued
    by_range = {}
    for v, val, wv in zip(level.end[keep].tolist(), measure.values(level[keep]).tolist(),
                          w[keep].tolist()):
        if val:
            by_range.setdefault(v, []).append((val, wv))
    return float(max((abs(vf / ve - wf / we) for pairs in by_range.values()
                      for ve, we in pairs for vf, wf in pairs), default=0.0))


def _form_weights(form: MarkovMeasure) -> tuple:
    """IFS weights w_e = q_{s(e)} p_e / q_{r(e)} of a Markov form's level 0
    (edges whose range has positive mass) and the inflow (qP)_v of each
    vertex; the measure is the IFS measure of these weights.  A form that
    stores no level-0 table has neither."""
    weights, inflow = {}, {}
    for (w, v, k), p in (form.levels[0] if form.levels else {}).items():
        inflow[v] = inflow.get(v, 0.0) + form.q.get(w, 0.0) * p
        if form.q.get(v, 0.0) > 0:
            weights[(w, v, k)] = form.q.get(w, 0.0) * p / form.q[v]
    return weights, inflow


@dataclass
class ShiftInvarianceReport:
    max_rel_deviation: float
    invariant: bool
    factors: dict = field(default_factory=dict)     # s(e_0) -> measured ratio
    predicted: dict = field(default_factory=dict)   # v -> (qP)_v / q_v


def check_shift_invariance(measure, max_len: int = 4,
                           tol: float = IDENTITY_TOL,
                           window=None) -> ShiftInvarianceReport:
    """Compare m(sigma^{-1}[e-bar]) = sum over prepended edges with
    m([e-bar]) on every cylinder up to max_len edges."""
    measure.diagram.require_stationary()
    worst = 0.0
    factors = {}
    for level in islice(path_columns(measure.diagram, max_len, window), 1, None):
        vals = measure.values(level)
        keep = vals != 0
        live, vals = level[keep], vals[keep]
        prefixed = live.prepend(measure.diagram)
        pre = _block_sums(measure.values(prefixed), prefixed.degree)
        worst = max(worst, float((np.abs(pre - vals) / vals).max(initial=0.0)))
        factors.update(zip(live.start.tolist(), (pre / vals).tolist()))   # the last path from v wins
    q = measure.markov.q
    _, inflow = _form_weights(measure.markov)
    predicted = {v: inflow.get(v, 0.0) / q[v] for v in measure.diagram.vertices(window)
                 if q.get(v, 0.0) > 0}
    return ShiftInvarianceReport(float(worst), bool(worst <= tol), factors, predicted)


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
    _, inflow = _form_weights(m)
    return max(abs(inflow.get(v, 0.0) - m.q.get(v, 0.0)) for v in m.diagram.vertices())


# ---------------------------------------------------------------------------
# Sampling

def _draw_form(measure, length: int, count: int, start) -> MarkovMeasure:
    """The measure's Markov form, once the draw's sizes and start are checked."""
    if length < 0 or count < 0:
        raise MeasureError(f"cannot draw {count} paths of {length} edges")
    form = measure.markov
    if start is not None and not measure.diagram.matrix(0).in_domain(start):
        raise MeasureError(f"start {start} is not a vertex of level 0")
    if start is None and not math.isfinite(measure.total_mass):
        raise InfiniteMass("supply a starting vertex for sigma-finite sampling")
    if start is None and form.starts is None:
        raise ZeroMass("q carries no mass to draw a starting vertex from")
    return form


def _walk(form: MarkovMeasure, u: list, start) -> FinitePath:
    """The path that the uniforms u (one for the start, one per edge) pick
    by inverse-CDF steps over the form's rows."""
    w = start
    if w is None:
        verts, cum = form.starts
        w = verts[bisect_right(cum, u[0])]
    row, edges = form.row, []
    for n in range(len(u) - 1):
        out, cum = row(w, n)
        e = out[bisect_right(cum, u[n + 1])]
        edges.append(e)
        w = e.target
    return FinitePath(tuple(edges)) if edges else empty_path(w)


def sample_paths(measure, length: int, count: int, seed: int,
                 start: int | None = None) -> list:
    """Draw ``count`` admissible paths of ``length`` edges by inverse-CDF
    steps over the measure's Markov form; deterministic per seed.  Without
    ``start`` the first vertex is drawn from q, which needs finite mass."""
    form = _draw_form(measure, length, count, start)
    block = np.random.default_rng(seed).random((count, length + 1)).tolist()
    return [_walk(form, u, start) for u in block]


def sample_path(measure, length: int, seed: int, start: int | None = None) -> FinitePath:
    """Draw one admissible path of the given length; deterministic per seed."""
    return sample_paths(measure, length, 1, seed, start)[0]


def _draw_counts(measure, length: int, count: int, seed: int) -> tuple:
    """The paths of ``length`` edges as columns and how often
    ``sample_paths(measure, length, count, seed)`` draws each row, drawn
    with one numpy pass per level instead of a walk per path.

    Each walk is a row of the path_columns level it has reached: a walk on
    row r whose step picks the k-th edge of its Markov row moves to row
    first_child[r] + k, as the level walk lays a row's one-edge extensions
    out in that order.  At each level the reached vertices' cumulative
    probabilities are laid end to end, and one np.searchsorted(side="right")
    finds each walk's edge within its own row, with the comparisons
    bisect_right makes, in O(count + edges) memory.  The keys are integers,
    row * len(values) + the value's rank among all values, so the
    comparisons stay exact.  Mass of q outside the window of level 0
    raises WindowTooSmall, as those walks have no row.
    """
    form = _draw_form(measure, length, count, None)
    levels = path_columns(measure.diagram, length)
    level = next(levels)                # one row per vertex of the window, in order
    lo = int(level.start[0]) if len(level) else 0
    for v, x in form.q.items():
        if x > 0 and not 0 <= v - lo < len(level):
            raise WindowTooSmall(f"q puts mass on vertex {v}, outside the window of the paths")
    u = np.random.default_rng(seed).random((count, length + 1))
    verts, cum = form.starts
    at = (np.array(verts, dtype=np.intp) - lo)[np.searchsorted(cum, u[:, 0], side="right")]
    for n in range(length):
        reached, row = np.unique(level.end[at], return_inverse=True)
        try:
            rows = [form.row(w, n) for w in reached.tolist()]
        except PathmeasError:
            sample_paths(measure, length, count, seed)    # raises the walk's own error
            raise
        sizes = [len(out) for out, _ in rows]
        edges = sum(sizes)
        rank = np.unique(np.concatenate([c for _, c in rows] + [u[:, n + 1]]),
                         return_inverse=True)[1]
        keys = np.repeat(np.arange(len(rows)), sizes) * len(rank) + rank[:edges]
        k = np.searchsorted(keys, row * len(rank) + rank[edges:], side="right")
        level = next(levels)
        first_child = level.degree.cumsum() - level.degree
        at = first_child[at] + k - (np.cumsum(sizes) - sizes)[row]
    return level, np.bincount(at, minlength=len(level))


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
    probabilities using binomial standard errors.  The frequencies count
    the paths ``sample_paths(measure, length, n_samples, seed)`` draws."""
    if n_samples < 1:
        raise MeasureError(f"an empirical check needs samples, got {n_samples}")
    level, hits = _draw_counts(measure, length, n_samples, seed)
    values = measure.values(level).tolist()
    total = sum(values)
    rows, worst = [], 0.0
    for name, value, hit in zip(level.names(), values, hits.tolist()):
        exact, freq = value / total, hit / n_samples
        if exact in (0.0, 1.0):
            z = 0.0 if freq == exact else math.inf
        else:
            z = (freq - exact) / math.sqrt(exact * (1 - exact) / n_samples)
        worst = max(worst, abs(z))
        rows.append(EmpiricalRow(name, exact, freq, z))
    return EmpiricalReport(rows, n_samples, worst, worst <= z_max)


# ---------------------------------------------------------------------------
# Kolmogorov consistency (shared audit)

def check_kolmogorov(measure, max_len: int = 5, tol: float = IDENTITY_TOL,
                     window=None) -> FixedPointReport:
    """parent = sum of one-edge extensions, for every cylinder up to
    max_len edges (length 0 anchors included).  Each level is valued once;
    a parent's extensions are the next level's consecutive block."""
    worst, count = 0.0, 0
    levels = path_columns(measure.diagram, max_len, window)
    roots = next(levels)
    vals = measure.values(roots) if max_len else None    # the empty paths
    for level in levels:
        kids = measure.values(level)
        ext = _block_sums(kids, level.degree)
        worst = max(worst, float((np.abs(ext - vals) / np.maximum(np.abs(vals), 1e-300))
                                 .max(initial=0.0)))
        count += len(vals)
        vals = kids
    return FixedPointReport(float(worst), count, bool(worst < tol))


COMPENSATED_SUM = sys.version_info >= (3, 12)   # sum() of floats compensates there


def _block_sums(values: np.ndarray, sizes: np.ndarray,
                compensated: bool = COMPENSATED_SUM) -> np.ndarray:
    """sum() of each consecutive block of ``values`` (block i holds sizes[i]
    of them), added position by position in sum()'s order, so each result
    is what sum() returns for the block of floats: left to right, with
    Neumaier's compensation where sum() applies it."""
    total, comp = np.zeros(len(sizes)), np.zeros(len(sizes))
    first = sizes.cumsum() - sizes
    for r in range(int(sizes.max(initial=0))):
        live = (sizes > r).nonzero()[0]
        s, x = total[live], values[first[live] + r]
        total[live] = t = s + x
        if compensated:
            comp[live] += np.where(np.abs(s) >= np.abs(x), (s - t) + x, (x - t) + s)
    if compensated:
        fix = (comp != 0) & np.isfinite(comp)
        total[fix] += comp[fix]
    return total


# ---------------------------------------------------------------------------
# helpers / JSON interchange

def require_masses(values: dict, what: str, positive: bool = False) -> dict:
    """``values`` (key -> number); MeasureError at the first that is NaN,
    infinite or negative, or zero when ``positive``."""
    for key, x in values.items():
        if not (x > 0 if positive else x >= 0) or x == math.inf:
            sign = "positive" if positive else "nonnegative"
            raise MeasureError(f"{what} {x!r} at {key!r} is not finite and {sign}")
    return values


def _as_vertex_dict(diagram: DiagramSpec, values, what: str, window=None) -> dict:
    """Vertex masses, a dict or one per vertex of the window, as checked
    floats; a bad value raises MeasureError naming ``what``."""
    try:
        if not isinstance(values, dict):
            verts, values = diagram.vertices(window), list(values)
            if len(values) != len(verts):
                raise MeasureError(f"expected {len(verts)} vertex values, got {len(values)}")
            values = dict(zip(verts, values))
        masses = {_index(v): float(x) for v, x in values.items()}
    except WindowTooSmall:             # a negative window, as the diagram names it
        raise
    except (TypeError, ValueError, OverflowError, DiagramError) as exc:
        raise MeasureError(f"{what} holds a bad value: {exc}") from exc
    return require_masses(masses, what)


def _as_table(table, what: str) -> dict:
    """Transition probabilities (w, v, k) -> p as checked floats keyed by
    ints; a bad key or value raises MeasureError naming ``what``."""
    if not isinstance(table, dict):
        raise MeasureError(f"{what} is not a table")
    table = json_rows(list(table.items()), 2, what, lambda rows: {
        (_index(w), _index(v), _index(k)): float(p) for (w, v, k), p in rows}, MeasureError)
    return require_masses(table, what)


def _as_edge_dict(p) -> dict:
    """IFS weights, rows [w, v, x] or a dict (w, v) -> x, as checked floats
    keyed by ints; a bad row or value raises MeasureError naming it."""
    if isinstance(p, dict):
        p = json_rows(list(p.items()), 2, "ifs weight",
                      lambda items: [(*wv, x) for wv, x in items], MeasureError)
    p = json_rows(p, 3, "ifs weight", lambda rows: {
        (_index(w), _index(v)): float(x) for w, v, x in rows}, MeasureError)
    return require_masses(p, "edge weight", positive=True)


def measure_from_dict(diagram: DiagramSpec, obj: dict):
    """Build a measure from its JSON description.

    {"type":"tail"} (stationary Perron) or {"type":"tail","vectors":[...]},
    {"type":"markov","q":[...],"P":[[w,v,k,p],...]} (stationary) or
    {"type":"markov","q":[...],"P_levels":[[[w,v,k,p],...],...]},
    {"type":"ifs","p":[[w,v,weight],...]}.  A missing key or a malformed
    row raises MeasureError naming it.
    """
    kind = json_field(obj, "type", "measure", MeasureError)
    if kind == "tail":
        if "vectors" in obj:
            return tail_measure_from_vectors(diagram, obj["vectors"])
        return stationary_tail_measure(diagram)
    if kind == "markov":
        q = json_field(obj, "q", "markov measure", MeasureError)
        stationary = "P" in obj             # one table serves every level
        levels = [obj["P"]] if stationary else obj.get("P_levels")
        if not isinstance(levels, (list, tuple)):
            raise MeasureError("markov measure has no 'P' and no list 'P_levels'")
        tables = [json_rows(rows, 4, "P" if stationary else f"P_levels[{n}]",
                            lambda rows: {(w, v, k): p for w, v, k, p in rows}, MeasureError)
                  for n, rows in enumerate(levels)]
        return markov_measure(diagram, q, tables[0] if stationary else tables)
    if kind == "ifs":
        return ifs_measure(diagram, json_field(obj, "p", "ifs measure", MeasureError))
    raise MeasureError(f"unknown measure type {kind!r}")

