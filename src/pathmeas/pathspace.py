"""Finite paths, cylinder sets, the path-space metric, and tail structure.

Infinite paths are never materialized; every operation works on finite
prefixes.  A finite path of n edges names the cylinder set of all infinite
paths extending it.  The empty path anchored at a vertex v names the
level-0 set of all paths starting at v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagram import FINITE, DiagramSpec, Edge, EdgeColumn
from .errors import (
    DomainViolation,
    EmptyPath,
    LengthMismatch,
    NotAdmissible,
    PathError,
    TooShort,
    Unreachable,
)


@dataclass(slots=True, unsafe_hash=True)
class FinitePath:
    """An admissible finite edge sequence (e_0, ..., e_{n-1}).

    ``anchor`` is only used for the empty path, where it records the
    starting vertex of the named level-0 cylinder.  A slotted value type
    whose ``==`` and ``hash`` read (edges, anchor); paths are never
    changed after construction (an assignment is not refused).
    """

    edges: tuple
    anchor: int | None = None

    def __len__(self):
        return len(self.edges)

    @property
    def start(self) -> int:
        return self.edges[0].source if self.edges else self.anchor

    @property
    def end(self) -> int:
        """Range vertex of the path (in V_n for n edges)."""
        return self.edges[-1].target if self.edges else self.anchor

    def prefix(self, n: int) -> "FinitePath":
        if n < 1 or n > len(self.edges):
            raise TooShort(f"no prefix of length {n}")
        return FinitePath(self.edges[:n])

    def __str__(self):
        return _literal(len(self.edges)).format(
            self.start, *[e.target for e in self.edges], *[e.mult for e in self.edges])


@lru_cache(maxsize=64)
def _literal(n: int) -> str:
    """The path literal of n edges, ``v0-v1-...:k0,k1,...`` (``[v]`` for none), as
    a template of the start vertex, each edge's target, each edge's multiplicity."""
    return "-".join(["{}"] * (n + 1)) + ":" + ",".join(["{}"] * n) if n else "[{}]"


@dataclass(frozen=True)
class LevelPartitionCell:
    """All length-n cylinders terminating at one vertex of V_n."""

    level: int
    vertex: int
    members: tuple


@dataclass(frozen=True)
class PathDistance:
    """2^-N with N the first disagreement index; ``prefix_equal`` marks
    unequal-length paths agreeing on the common prefix, which name
    distinct nested cylinders rather than the same point."""

    value: float
    prefix_equal: bool = False


def empty_path(vertex: int) -> FinitePath:
    return FinitePath((), anchor=vertex)


def validate_path(edges) -> FinitePath:
    """Build a FinitePath, checking admissibility r(e_i) = s(e_{i+1}) and
    consecutive levels starting at 0."""
    edges = tuple(edges)
    if not edges:
        raise EmptyPath("a path needs at least one edge")
    for i, e in enumerate(edges):
        if e.level != i:
            raise NotAdmissible(i, f"edge at position {i} has level {e.level}")
        if i > 0 and edges[i - 1].target != e.source:
            raise NotAdmissible(i)
    return FinitePath(edges)


def dist(x: FinitePath, y: FinitePath) -> PathDistance:
    """Path-space metric on the common prefix: 2^-N at the first
    disagreement index N, zero for equal paths.  Paths from different
    start vertices are 1 apart, an empty path's anchor included."""
    if x.start != y.start:
        return PathDistance(1.0)
    for i in range(min(len(x), len(y))):
        if x.edges[i].key() != y.edges[i].key():
            return PathDistance(2.0 ** (-i))
    return PathDistance(0.0, prefix_equal=len(x) != len(y))


def shift(x: FinitePath, spec: DiagramSpec | None = None) -> FinitePath:
    """Drop the first edge and re-level the rest down by one."""
    if spec is not None:
        spec.require_stationary()
    if len(x) < 2:
        raise TooShort("shift needs at least two edges")
    return FinitePath(tuple(e.at_level(e.level - 1) for e in x.edges[1:]))


def prepend(e: Edge, x: FinitePath, spec: DiagramSpec | None = None) -> FinitePath:
    """The map tau_e: prefix x (starting at r(e)) with e, re-leveling x up.

    Halves the metric: dist(prepend(e,x), prepend(e,y)) = dist(x,y)/2.
    """
    if spec is not None:
        spec.require_stationary()
    if x.start != e.target:
        raise DomainViolation(
            f"path starts at {x.start}, not at r(e) = {e.target}")
    return FinitePath((e.at_level(0),)
                      + tuple(f.at_level(f.level + 1) for f in x.edges))


def one_edge_extensions(x: FinitePath, spec: DiagramSpec):
    """All admissible one-edge extensions of x, canonically ordered."""
    level = len(x)
    return [FinitePath(x.edges + (e,)) for e in spec.edges_from(x.end, level)]


def tail_equivalent_on_prefix(x: FinitePath, y: FinitePath, m: int) -> bool:
    """True iff x and y agree from index m on (within equal-length data)."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    return all(x.edges[i].key() == y.edges[i].key() for i in range(m, len(x)))


@dataclass(frozen=True, eq=False)
class PathColumns:
    """The paths of one length n as columns: row i is a path from vertex
    ``start[i]`` to vertex ``end[i]`` whose position j holds edge
    ``ids[i, j]`` of the edge column ``edges[j]``, at level j.

    ``degree`` gives, for each row of the level this one was grown from,
    how many consecutive rows here extend it (None at level 0).
    """

    start: np.ndarray            # N first vertices
    end: np.ndarray              # N last vertices
    ids: np.ndarray              # N x n edge indices into edges[j]
    edges: tuple                 # n EdgeColumns
    degree: np.ndarray | None = None

    def __len__(self):
        return len(self.start)

    def __getitem__(self, rows) -> "PathColumns":
        return PathColumns(self.start[rows], self.end[rows], self.ids[rows], self.edges)

    def names(self) -> list:
        """Each row's path literal, as str() of its path gives it; no Edge is built."""
        cols = list(zip(self.edges, self.ids.T))
        return list(map(_literal(len(cols)).format, self.start.tolist(),
                        *[col.targets[ids].tolist() for col, ids in cols],
                        *[col.mults[ids].tolist() for col, ids in cols]))

    def paths(self) -> list:
        """The rows as FinitePath objects, sharing one Edge object per
        edge of a column (gathered by numpy, as an object array); at most
        one Edge is built per row and column, as a column with more edges
        than rows builds only those its rows hold."""
        if not self.edges:
            return [empty_path(v) for v in self.start.tolist()]
        cols = []
        for j, (col, ids) in enumerate(zip(self.edges, self.ids.T)):
            held, at = slice(None), ids
            if len(ids) < len(col.sources):    # in O(rows), as a column may be a whole level
                held, at = np.unique(ids, return_inverse=True)
            edges = np.empty(len(col.sources[held]), dtype=object)
            edges[:] = [Edge(j, s, t, k) for s, t, k in zip(
                col.sources[held].tolist(), col.targets[held].tolist(), col.mults[held].tolist())]
            cols.append(edges[at].tolist())
        return list(map(FinitePath, zip(*cols)))

    def prepend(self, spec: DiagramSpec, level: int = 0) -> "PathColumns":
        """Each row prefixed with every edge at ``level`` into its start, in
        edges_into order: one consecutive block per row, the row's edges
        now at positions 1 .. n, one level up.  The shift's inverse tau_f
        (stationary diagrams) reads level 0; a backward walk reads each
        level in turn, down to 0, and its rows are paths once it is there."""
        edges, parent, ids, degree = _fan_out(self.start, spec, level, into=True)
        return PathColumns(edges.sources[ids], self.end[parent],
                           np.concatenate((ids[:, None], self.ids[parent]), axis=1),
                           (edges,) + self.edges, degree)


def _fan_out(at: np.ndarray, spec: DiagramSpec, level: int, into: bool = False) -> tuple:
    """Fan each vertex of ``at`` out to its edges at ``level`` (with
    ``into``, the edges into it); returns the edge table read, as an
    EdgeColumn, each new row's source row and edge index, and the degree of
    each entry of ``at``.  A finite level reads its whole kept table, a
    stencil lays out the range of ``at``; a vertex off a finite level owns
    no edge.  ``level`` only picks the matrix: the column's position gives
    its level."""
    if not len(at):            # no row to extend: no matrix is read
        first, edges = np.zeros(1, np.intp), EdgeColumn(*[np.zeros(0, np.intp)] * 3)
    elif (f := spec.matrix(level)).domain == FINITE:
        first, edges = f.edge_column(into)
        at = np.minimum(at, f.size)       # at + 1 stays in range at int64's largest
    else:
        lo = int(at.min())
        first, *arrays = f._lay_out(np.arange(lo, int(at.max()) + 1), into)
        edges, at = EdgeColumn(*arrays), at - lo
    start = first.take(at, mode="clip")
    degree = first.take(at + 1, mode="clip") - start
    parent = np.arange(len(at)).repeat(degree)
    ids = np.arange(len(parent)) + (start - (degree.cumsum() - degree)).repeat(degree)
    return edges, parent, ids, degree


def shift_rows(level: PathColumns, parent: PathColumns,
               parent_rows: np.ndarray | None = None) -> np.ndarray:
    """sigma on a finite stationary walk, as an index: the row of ``parent``
    (the level ``level`` grew from) holding each row's edges after its
    first, given sigma on ``parent`` (None at level 0, whose row v is [v]).
    The k-th child of row p shifts to the k-th child of sigma(p), as a
    row's extensions are one block in edges_from order."""
    if parent.degree is None:
        return level.end
    first = parent.degree.cumsum() - parent.degree      # each row's first child in parent
    return np.arange(len(level)) + (first[parent_rows]
                                    - (level.degree.cumsum() - level.degree)).repeat(level.degree)


def path_columns(spec: DiagramSpec, n: int, window: int | None = None):
    """Yield the paths of 0, 1, ..., n edges starting inside the window as
    columns, each level grown from the one before with np.repeat: a row's
    one-edge extensions are consecutive rows of the next level, in order.
    A negative n raises PathError."""
    if n < 0:
        raise PathError(f"path length {n} is negative")
    verts = np.array(spec.vertices(window), dtype=np.intp)
    level = PathColumns(verts, verts, np.zeros((len(verts), 0), np.intp), ())
    yield level
    for j in range(n):
        edges, parent, ids, degree = _fan_out(level.end, spec, j)
        level = PathColumns(level.start[parent], edges.targets[ids],
                            np.concatenate((level.ids[parent], ids[:, None]), axis=1),
                            level.edges + (edges,), degree)
        yield level


def column_level(spec: DiagramSpec, n: int, window: int | None = None) -> PathColumns:
    """The paths of n edges starting inside the window, as columns."""
    for level in path_columns(spec, n, window):
        pass
    return level


def enumerate_paths(spec: DiagramSpec, n: int, window: int | None = None):
    """All admissible paths of n edges starting inside the window
    (finite domains: the whole level)."""
    return column_level(spec, n, window).paths()


def cell(spec: DiagramSpec, n: int, v: int) -> LevelPartitionCell:
    """The partition cell X_v^(n): every length-n path terminating at v,
    grown backward from v one level at a time, each path's extensions a
    consecutive block in edges_into order.

    Contains exactly H^(n)_v members.  A negative n raises PathError.
    """
    if n < 0:
        raise PathError(f"path length {n} is negative")
    if int(v) != v or not spec.matrix(max(n - 1, 0)).in_domain(v):
        raise Unreachable(f"vertex {v} is not in the level domain")
    at = np.array([v], dtype=np.intp)
    paths = PathColumns(at, at, np.zeros((1, 0), np.intp), ())
    for back in range(n - 1, -1, -1):
        paths = paths.prepend(spec, back)
    if n > 0 and not len(paths):
        raise Unreachable(f"no length-{n} paths reach vertex {v}")
    return LevelPartitionCell(n, v, tuple(paths.paths()))


def parse_path_literal(text: str, spec: DiagramSpec) -> FinitePath:
    """Parse the CLI path literal ``v0-v1-...:k0,k1,...`` (multiplicity
    indices optional, default 0); a part that is not an integer, a vertex
    outside the int64 range, or more multiplicities than edges raises
    PathError naming the literal, and the first edge the diagram lacks
    NotAdmissible.  The counts come from one pairs read per matrix."""
    vert_part, _, mult_part = text.partition(":")
    try:
        mults = [int(k) for k in mult_part.split(",")] if mult_part else []
        verts = [int(v) for v in vert_part.split("-")]
    except ValueError:
        raise PathError(f"path literal {text!r} holds a part that is not an integer") from None
    if not all(-1 << 63 <= v < 1 << 63 for v in verts):
        raise PathError(f"path literal {text!r} holds a vertex outside the int64 range")
    if len(verts) < 2:
        raise PathError("path literal needs at least two vertices")
    if len(mults) >= len(verts):
        raise PathError(f"path literal {text!r} holds more multiplicities than edges")
    mults = mults + [0] * (len(verts) - 1 - len(mults))
    edges = [Edge(i, verts[i], verts[i + 1], mults[i]) for i in range(len(verts) - 1)]
    stored = len(edges) if spec.is_stationary else min(len(edges), len(spec.matrices))
    reads = {0: range(stored)} if spec.is_stationary else {i: [i] for i in range(stored)}
    count = []                         # f_{v_{i+1}, v_i} at each stored position i
    for level, at in reads.items():    # one pairs read a matrix, of the targets in order
        first, sources, counts = (x.tolist() for x in spec.matrix(level).pairs(
            [verts[i + 1] for i in at], into=True))
        count += [dict(zip(sources[a:b], counts[a:b])).get(verts[i], 0)
                  for i, a, b in zip(at, first, first[1:])]
    for e in edges:                    # past a sequence diagram's store: DiagramError
        if not 0 <= e.mult < (count[e.level] if e.level < stored else spec.matrix(e.level)):
            raise NotAdmissible(e.level, f"no edge {e} in the diagram")
    return FinitePath(tuple(edges))
