"""Generalized Bratteli diagrams given by sparse incidence matrices.

A diagram is a graded graph with vertex levels V_0, V_1, ... and edge sets
determined by a sequence of incidence matrices F_n, where the (v, w) entry
counts the edges from w in V_n to v in V_{n+1}.  Rows of F_n (fixed target
vertex) must have finitely many nonzero entries.  Vertex levels may be
finite, indexed by the naturals, or indexed by the integers; the infinite
cases are represented by translation-invariant banded stencils and all
whole-level operations take an explicit finite window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DiagramError, NonStationary, WindowTooSmall

FINITE = "finite"
NATURALS = "naturals"
INTEGERS = "integers"

DEFAULT_WINDOW = 64


@dataclass(slots=True, unsafe_hash=True)
class Edge:
    """A single edge between consecutive levels.

    ``mult`` distinguishes parallel edges between the same vertex pair and
    ranges over 0 .. f_{target,source} - 1.  A slotted value type whose
    ``==`` and ``hash`` read (level, source, target, mult); the level-free
    key is built once, as ``_key``, which the measures' value loops read.
    Edges are never changed after construction (an assignment is not
    refused, but would break the key).
    """

    level: int
    source: int
    target: int
    mult: int = 0
    _key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._key = (self.source, self.target, self.mult)

    def key(self):
        """Level-free identity of the edge (source, target, mult)."""
        return self._key

    def at_level(self, level: int) -> "Edge":
        return Edge(level, self.source, self.target, self.mult)

    def __str__(self):
        return f"({self.source}->{self.target}:{self.mult})@{self.level}"


class IncidenceMatrix:
    """Sparse nonnegative integer matrix F with entries f_{v,w}.

    A finite domain, given as rows [target, source, count] or as a mapping
    ``entries``, stores ``triplets``, see _triplet_array; ``entries``,
    ``row``, ``column`` and ``entry`` are derived from it on first use and
    kept.  Infinite domains (naturals / integers) store a translation-
    invariant stencil mapping the offset d = v - w to an edge count, which
    keeps every row and column finite by construction.
    """

    def __init__(self, domain, entries=None, stencil=None, band=None, size=None,
                 triplets=None):
        self.domain = domain
        self._transpose = None    # set here: a later new attribute slows every lookup
        self._edge_index = [None, None]     # edge_table's tables: out-edges, in-edges
        self._entries = self._lines = None  # derived reads: entries; rows and columns
        self._components = None             # strong component count of a finite level
        if domain == FINITE:
            if entries is not None:
                triplets = [(v, w, c) for (v, w), c in entries.items()]
            elif triplets is None:
                raise DiagramError("finite matrix needs explicit entries")
            self.triplets, self.size = json_rows(
                triplets, 3, "triplet", lambda rows: _triplet_array(rows, size))
            self.stencil = self.band = None
        else:
            if stencil is None:
                raise DiagramError("infinite matrix needs a stencil")
            self.triplets = self.size = None
            self.stencil = {_index(d): n for d, c in stencil.items() if (n := _count(c))}
            self.band = (max((abs(d) for d in self.stencil), default=0) if band is None
                         else _count(band, "band"))
            if any(abs(d) > self.band for d in self.stencil):
                raise DiagramError("stencil offset exceeds declared band")

    @property
    def entries(self) -> dict | None:
        """A finite level's {(v, w): f_vw}, in (v, w) order; None on a stencil."""
        if self._entries is None and self.domain == FINITE:
            v, w, c = self.triplets.T.tolist()
            self._entries = dict(zip(zip(v, w), c))
        return self._entries

    def _build_lines(self) -> tuple:
        """A finite level's rows and columns: {v: [(w, count), ...]} and
        {w: [(v, count), ...]}, each list sorted."""
        rows, cols = {}, {}
        for v, w, c in self.triplets.tolist():
            rows.setdefault(v, []).append((w, c))
            cols.setdefault(w, []).append((v, c))
        self._lines = rows, cols
        return self._lines

    def entry(self, v: int, w: int) -> int:
        """Edge count f_{v,w} from source w to target v."""
        if self.domain == FINITE:         # the property only until entries is built
            return (self._entries or self.entries).get((v, w), 0)
        if self.domain == NATURALS and (v < 0 or w < 0):
            return 0
        return self.stencil.get(v - w, 0)

    def in_domain(self, v: int) -> bool:
        if self.domain == FINITE:
            return 0 <= v < self.size
        if self.domain == NATURALS:
            return v >= 0
        return True

    def row(self, v: int):
        """Nonzero sources w for target v, as sorted (w, count) pairs."""
        if self.domain == FINITE:
            return (self._lines or self._build_lines())[0].get(v, [])
        return sorted((v - d, c) for d, c in self.stencil.items()
                      if self.domain != NATURALS or min(v, v - d) >= 0)

    def column(self, w: int):
        """Nonzero targets v for source w, as sorted (v, count) pairs.

        Finite for stencil matrices by bandedness; for explicit finite
        matrices by finiteness of the level.
        """
        if self.domain == FINITE:
            return (self._lines or self._build_lines())[1].get(w, [])
        return sorted((w + d, c) for d, c in self.stencil.items()
                      if self.domain != NATURALS or min(w, w + d) >= 0)

    def vertices(self, window: int | None = None):
        """Concrete vertex list for one level, restricted to a window."""
        if self.domain == FINITE:
            return list(range(self.size))
        if window is None:
            window = DEFAULT_WINDOW
        elif window < 0:
            raise WindowTooSmall(f"window radius {window} is negative")
        if self.domain == NATURALS:
            return list(range(0, window + 1))
        return list(range(-window, window + 1))

    def to_dense(self, targets, sources) -> np.ndarray:
        """Dense block F[targets, sources] as a float array."""
        a = np.zeros((len(targets), len(sources)))
        src_index = {w: j for j, w in enumerate(sources)}
        for i, v in enumerate(targets):
            for w, c in self.row(v):
                j = src_index.get(w)
                if j is not None:
                    a[i, j] = c
        return a

    def edge_table(self, lo: int, hi: int, into: bool = False) -> tuple:
        """The out-edges (with ``into``, the in-edges) of the vertices
        lo .. hi-1 of a level, in ``DiagramSpec.edges_from`` (``edges_into``)
        order, as arrays (first, sources, targets, mults): vertex lo + i
        owns edges first[i] .. first[i+1]-1.  A finite level slices the
        range out of its whole table, built on first use and kept; a stencil
        lays the range out (on the naturals, no edge ends or starts below 0)."""
        table = self._edge_index[into]
        if table is None:
            table = self._edge_index[into] = self._build_table(into)
        if self.domain == FINITE:
            first, *arrays = table
            a, b = first[lo], first[hi]
            return (first[lo:hi + 1] - a, *(x[a:b] for x in arrays))
        offsets, mults = table            # each edge's offset d = target - source
        here = np.arange(lo, hi)[:, None]
        ends = here - offsets if into else here + offsets
        keep = ends >= 0 if self.domain == NATURALS else np.ones(ends.shape, bool)
        here = np.broadcast_to(here, ends.shape)
        sources, targets = (ends, here) if into else (here, ends)
        first = np.concatenate(([0], keep.sum(axis=1).cumsum()))
        return first, sources[keep], targets[keep], np.broadcast_to(mults, ends.shape)[keep]

    def _build_table(self, into: bool) -> tuple:
        """What edge_table reads.  On finite levels: the whole level's
        (first, sources, targets, mults), grouped by source (with ``into``,
        by target), each triplet repeated once per edge.  On stencils: each
        edge's offset and mult, in one vertex's edge order."""
        if self.domain == FINITE:
            t = self.triplets          # by (target, source); a stable sort by source
            if not into:               # keeps the targets in order within each source
                t = t[np.argsort(t[:, 1], kind="stable")]
            targets, sources, counts = t.T
            ends = np.concatenate(([0], np.cumsum(counts)))
            owner = targets if into else sources
            table = (ends[np.searchsorted(owner, np.arange(self.size + 1))],
                     np.repeat(sources, counts), np.repeat(targets, counts),
                     np.arange(ends[-1]) - np.repeat(ends[:-1], counts))
            for a in table:
                a.flags.writeable = False     # handed out as they are
            return table
        offsets = sorted(self.stencil, reverse=into)
        return (np.array([d for d in offsets for _ in range(self.stencil[d])], dtype=np.intp),
                np.array([k for d in offsets for k in range(self.stencil[d])], dtype=np.intp))

    @property
    def transpose_arrays(self):
        """(rows, cols, counts) of a finite level's A = F^T, in (target, source)
        order, and whether its graph has a cycle (else A is nilpotent); built
        on first use and kept."""
        if self._transpose is None:
            cols, rows, counts = (np.ascontiguousarray(x) for x in self.triplets.T)
            cyclic = bool(np.any(rows == cols)) or self.components < self.size
            self._transpose = rows, cols, counts.astype(float), cyclic
        return self._transpose

    @property
    def components(self) -> int:
        """The strong component count of a finite level's graph, kept."""
        if self._components is None:
            self._components = strong_components(
                self.size, self.triplets[:, 1], self.triplets[:, 0])[0]
        return self._components

    @property
    def is_zero_one(self) -> bool:
        counts = self.triplets[:, 2].tolist() if self.domain == FINITE else self.stencil.values()
        return max(counts, default=0) <= 1


def _triplet_array(rows, size) -> tuple:
    """(triplets, size): the rows [target, source, count] as a read-only
    int64 array sorted by (target, source), the last of equal pairs kept and
    zero counts dropped, and ``size`` (default: one past the largest index).
    Where the numpy pass fails, _count names the bad value."""
    a = np.array(rows) if len(rows) else np.zeros((0, 3), np.int64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("rows are not three entries each")
    if a.dtype != np.int64 or np.count_nonzero(a < 0):     # read one value at a time
        a = np.array([(_count(v, "vertex index"), _count(w, "vertex index"), _count(c))
                      for v, w, c in rows], dtype=object)  # _count names a bad value
        if np.count_nonzero(a >= 1 << 63):
            raise DiagramError(f"vertex index or edge count {a.max()} exceeds 2**63 - 1")
        a = a.astype(np.int64)
    top = int(a[:, :2].max(initial=-1))
    size = top + 1 if size is None else _count(size, "vertex count")
    if top >= size:
        raise DiagramError(f"vertex index {top} lies outside the {size} vertices")
    # one integer per (target, source) pair, in their order (Python ints from 2^31 vertices)
    key = a[:, :2] @ np.array([size, 1], dtype=np.int64 if size < 1 << 31 else object)
    if np.count_nonzero(key[1:] <= key[:-1]):      # not strictly sorted
        order = np.argsort(key, kind="stable")      # equal pairs keep their order
        a, key = a[order], key[order]
        if len(set(key.tolist())) < len(key):       # keep the last of equal pairs
            a = a[np.concatenate((key[1:] != key[:-1], [True]))]
    if np.count_nonzero(a[:, 2]) < len(a):         # a zero count is no edge
        a = a[a[:, 2] != 0]
    a.flags.writeable = False
    return a, size


def strong_components(n: int, sources, targets) -> tuple:
    """Strongly connected components of the digraph on vertices 0 .. n-1
    with edges sources[i] -> targets[i]: (count, labels), by Tarjan's
    depth-first search (R. Tarjan, "Depth-first search and linear graph
    algorithms", SIAM J. Comput. 1, 1972), run on an explicit stack.

    Components are labelled in the order they complete, so every edge runs
    to a component with the same or a smaller label.  O(n + edges).
    """
    sources = np.asarray(sources, dtype=np.intp)
    order = np.argsort(sources, kind="stable")
    succ = np.asarray(targets, dtype=np.intp)[order].tolist()
    first = np.searchsorted(sources[order], np.arange(n + 1)).tolist()
    nxt = first[:n]                   # each vertex's next unexplored edge
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack, count, found = [], 0, 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        walk = [root]                 # the depth-first path from root
        while walk:
            v = walk[-1]
            i = nxt[v]
            if i < first[v + 1]:
                nxt[v] = i + 1
                w = succ[i]
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    walk.append(w)
                elif label[w] < 0:    # visited, unlabelled: w is on the stack
                    low[v] = min(low[v], index[w])
                continue
            walk.pop()
            if walk:
                low[walk[-1]] = min(low[walk[-1]], low[v])
            if low[v] == index[v]:    # v is the root of a component
                while True:
                    w = stack.pop()
                    label[w] = found
                    if w == v:
                        break
                found += 1
    return found, np.array(label, dtype=np.intp)


def _count(c, what: str = "edge count") -> int:
    """A count as an int (2.0 is 2); others raise DiagramError."""
    if type(c) is int and c >= 0:      # the common case, checked cheaply
        return c
    try:
        if c >= 0 and float(c).is_integer():
            return int(c)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DiagramError(f"{what} {c!r} is not a nonnegative integer")


def _index(x) -> int:
    """A vertex index as an int (2.0 is 2); others raise DiagramError."""
    if type(x) is int:                 # the common case, checked cheaply
        return x
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DiagramError(f"vertex index {x!r} is not an integer")


@dataclass
class DiagramSpec:
    """A generalized Bratteli diagram defined by its incidence matrices."""

    kind: str                      # "stationary" | "sequence"
    matrices: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("stationary", "sequence"):
            raise DiagramError(f"unknown diagram kind {self.kind!r}")
        if not self.matrices:
            raise DiagramError("diagram needs at least one incidence matrix")
        domains = {m.domain for m in self.matrices}
        if len(domains) > 1:
            raise DiagramError("matrices must share a vertex domain")
        if self.kind == "sequence" and self.domain == FINITE:
            size = max(m.size for m in self.matrices)
            self.matrices = [m if m.size == size else
                             IncidenceMatrix(FINITE, triplets=m.triplets, size=size)
                             for m in self.matrices]

    @property
    def domain(self) -> str:
        return self.matrices[0].domain

    @property
    def is_stationary(self) -> bool:
        return self.kind == "stationary"

    @property
    def is_zero_one(self) -> bool:
        return all(m.is_zero_one for m in self.matrices)

    def matrix(self, n: int) -> IncidenceMatrix:
        """Incidence matrix F_n."""
        if self.is_stationary:
            return self.matrices[0]
        if n >= len(self.matrices):
            raise DiagramError(f"no incidence matrix stored for level {n}")
        return self.matrices[n]

    def require_stationary(self):
        if not self.is_stationary:
            raise NonStationary("operation requires a stationary diagram")

    def vertices(self, window: int | None = None):
        return self.matrices[0].vertices(window)

    def edges_from(self, w: int, level: int = 0):
        """All edges with source w at the given level, canonically ordered."""
        f = self.matrix(level)
        return [Edge(level, w, v, k)
                for v, c in f.column(w) for k in range(c)]

    def edges_into(self, v: int, level: int):
        """All edges with target v in V_{level+1}, canonically ordered."""
        f = self.matrix(level)
        return [Edge(level, w, v, k)
                for w, c in f.row(v) for k in range(c)]

    def all_edges(self, level: int = 0, window: int | None = None):
        """Every edge of one level (finite domains, or a window), ordered
        by (source, target, multiplicity)."""
        return [e for w in self.vertices(window) for e in self.edges_from(w, level)]

    def edge_count(self, edge: Edge) -> int:
        return self.matrix(edge.level).entry(edge.target, edge.source)

    def has_edge(self, edge: Edge) -> bool:
        return 0 <= edge.mult < self.edge_count(edge)


@dataclass(frozen=True)
class HeightVector:
    """Counts of level-0-to-v paths: H^(n) = F_{n-1} ... F_0 (1,1,...)."""

    level: int
    values: dict

    def __getitem__(self, v: int) -> int:
        return self.values[v]


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.errors


def validate_diagram(spec: DiagramSpec) -> ValidationReport:
    """Check the structural axioms: every row and every column of each
    incidence matrix must be nonzero (a stencil can only empty those of
    vertices 0 .. band, on the naturals), and rows must be finite.  A column
    carrying a single edge is reported as an isolated-point warning only.
    """
    report = ValidationReport()
    for n, f in enumerate(spec.matrices):
        name = "F" if spec.is_stationary else f"F_{n}"
        if f.domain == FINITE:
            t = f.triplets
            ins = np.bincount(t[:, 0], minlength=f.size)                # triplets in
            outs = np.bincount(t[:, 1], t[:, 2], minlength=f.size)      # edges out
            no_row, no_column, single = (x.nonzero()[0].tolist()
                                         for x in (ins == 0, outs == 0, outs == 1))
        elif not f.stencil:
            report.errors.append(f"{name}: empty stencil")
            continue
        else:
            if len(f.stencil) == 1 and next(iter(f.stencil.values())) == 1:
                report.warnings.append(f"{name}: single-entry stencil (isolated-point warning)")
            verts = range(f.band + 1 if f.domain == NATURALS else 0)
            no_row = [v for v in verts if not f.row(v)]
            no_column = [w for w in verts if not f.column(w)]
            single = []
        report.errors += [f"{name}: row {v} is zero (no incoming edges)" for v in no_row]
        report.errors += [f"{name}: column {w} is zero (no outgoing edges)" for w in no_column]
        report.warnings += [f"{name}: column {w} has a single edge (isolated-point warning)"
                            for w in single]
    return report


def height_vector(spec: DiagramSpec, n: int, window: int | None = None) -> HeightVector:
    """Exact path counts H^(n) = F_{n-1} ... F_0 1 on the window.

    For infinite domains the recursion is evaluated on a window inflated by
    the stencil band, so the returned values are exact; ``WindowTooSmall``
    is raised only when no finite window can be inferred.
    """
    if n < 0:
        raise DiagramError("level must be nonnegative")
    if spec.domain == FINITE:          # one exact pass over each level's triplets
        h = [1] * spec.matrices[0].size
        for k in range(n):
            if k == 0 or not spec.is_stationary:
                flat = spec.matrix(k).triplets.ravel().tolist()
            h, old, row = [0] * len(h), h, iter(flat)
            for v, w, c in zip(row, row, row):
                h[v] += c * old[w]
        return HeightVector(n, dict(enumerate(h)))
    if window is None:
        window = DEFAULT_WINDOW
    band = max(m.band for m in spec.matrices)
    h = {v: 1 for v in spec.vertices(window + n * band)}
    for k in range(n):
        f = spec.matrix(k)
        h = {v: sum(c * h[w] for w, c in f.row(v))
             for v in spec.vertices(window + (n - k - 1) * band)}
    return HeightVector(n, {v: h[v] for v in spec.vertices(window)})


def edge_graph_01(spec: DiagramSpec) -> DiagramSpec:
    """0-1 diagram on the edge set of a stationary diagram.

    The vertices of the result are the edges of the input (canonical order
    by source, target, multiplicity); edge-vertex e connects to edge-vertex
    f exactly when s(f) = r(e).  Finite domains only.
    """
    spec.require_stationary()
    if spec.domain != FINITE:
        raise DiagramError("edge graph is materialized for finite domains only")
    f = spec.matrix(0)
    first, _, targets, _ = (x.tolist() for x in f.edge_table(0, f.size))
    # edge e feeds the out-edges of its target: entry (target f, source e)
    rows = [(g, e, 1) for e, t in enumerate(targets) for g in range(first[t], first[t + 1])]
    return DiagramSpec("stationary", [IncidenceMatrix(FINITE, triplets=rows)])


def is_irreducible(spec: DiagramSpec, window: int | None = None,
                   max_m: int = 16) -> str:
    """Tri-state irreducibility test: is every ordered vertex pair, a
    vertex and itself included, joined by a path of one or more edges?

    On a stationary finite level the answer is exact, in O(V + E): the
    level graph must be one strong component that holds a cycle.  Returns
    ``"yes"``, or ``"no-within-horizon"`` when some pair is not joined;
    ``window`` and ``max_m`` play no part there.

    Sequence diagrams and stencil windows are tested up to a horizon:
    ``"yes"`` when every pair in the window is joined by a path of at most
    ``max_m`` levels staying inside it, else ``"no-within-horizon"`` on
    finite domains and ``"unknown"`` on infinite ones, where the
    truncation could hide connecting paths.
    """
    if spec.is_stationary and spec.domain == FINITE:
        f = spec.matrix(0)
        joined = f.size == 0 or (f.transpose_arrays[3] and f.components == 1)
        return "yes" if joined else "no-within-horizon"
    verts = spec.vertices(window)
    k = len(verts)
    mats = [m.to_dense(verts, verts) > 0 for m in spec.matrices]
    if spec.is_stationary:
        mats = mats * max_m           # F^1 .. F^max_m from level 0 only
    reach = np.zeros((k, k), dtype=bool)
    for start in range(1 if spec.is_stationary else len(mats)):
        power = np.eye(k, dtype=bool)
        for f in mats[start:start + max_m]:
            power = f @ power
            reach |= power
    if reach.all():
        return "yes"
    return "no-within-horizon" if spec.domain == FINITE else "unknown"


# ---------------------------------------------------------------------------
# JSON interchange

def json_field(obj, key: str, what: str, error=DiagramError):
    """obj[key] of a JSON object; ``error`` names the key when obj is not an
    object or lacks it."""
    if not isinstance(obj, dict):
        raise error(f"{what} is not a JSON object")
    if key not in obj:
        raise error(f"{what} has no {key!r}")
    return obj[key]


def json_rows(rows, width: int, what: str, read, error=DiagramError):
    """read(rows) for JSON rows of ``width`` entries; where it fails, ``error``
    names the first row that is not a list of ``width`` entries, else the value.
    A DiagramError from ``read`` (a bad vertex index) passes through as
    itself when ``error`` is DiagramError, and is wrapped otherwise."""
    try:
        return read(rows)
    except (TypeError, ValueError, OverflowError, DiagramError) as exc:
        if isinstance(exc, error):     # already typed and named
            raise
        if not isinstance(rows, (list, tuple)):
            raise error(f"{what} rows are not a list") from exc
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise error(f"{what} row {row!r} does not have {width} entries") from exc
        raise error(f"{what} row holds a bad value: {exc}") from exc


def _matrix_from_json(obj, vert) -> IncidenceMatrix:
    triplets = json_field(obj, "triplets", "matrix")
    domain = json_field(vert, "type", "vertices")
    if domain not in (FINITE, NATURALS, INTEGERS):
        raise DiagramError(f"unknown vertex type {domain!r}")
    if domain == FINITE:
        return IncidenceMatrix(FINITE, triplets=triplets,
                               size=json_field(vert, "count", "finite vertices"))
    stencil = {}                        # the count of each offset target - source
    for d, c in json_rows(triplets, 3, "triplet", lambda rows: [
            (_index(v) - _index(w), _count(c)) for v, w, c in rows]):
        stencil[d] = stencil.get(d, 0) + c
    return IncidenceMatrix(domain, stencil=stencil, band=vert.get("band"))


def diagram_from_dict(obj: dict) -> DiagramSpec:
    """The diagram a JSON object describes; a missing key or a malformed
    row raises DiagramError naming it."""
    kind = json_field(obj, "kind", "diagram")
    vert = json_field(obj, "vertices", "diagram")
    matrices = json_field(obj, "matrices", "diagram")
    if not isinstance(matrices, (list, tuple)):
        raise DiagramError("diagram matrices are not a list")
    matrices = [_matrix_from_json(m, vert) for m in matrices]
    if kind == "stationary" and len(matrices) != 1:
        raise DiagramError("stationary diagram takes exactly one matrix")
    return DiagramSpec(kind, matrices)


def diagram_to_dict(spec: DiagramSpec) -> dict:
    m0 = spec.matrices[0]
    if spec.domain == FINITE:
        vert = {"type": "finite", "count": m0.size}
        mats = [{"triplets": m.triplets.tolist()} for m in spec.matrices]
    else:
        vert = {"type": spec.domain}
        if spec.domain == INTEGERS:
            vert["band"] = m0.band
        mats = [{"triplets": sorted([d, 0, c] for d, c in m.stencil.items())}
                for m in spec.matrices]
    return {"kind": spec.kind, "vertices": vert, "matrices": mats}


def load_diagram(path) -> DiagramSpec:
    with open(path) as fh:
        return diagram_from_dict(json.load(fh))
