from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
from pathmeas import (
    Edge,
    FinitePath,
    PathColumns,
    PathDistance,
    cell,
    column_level,
    dist,
    empty_path,
    enumerate_paths,
    one_edge_extensions,
    parse_path_literal,
    path_columns,
    prepend,
    shift,
    tail_equivalent_on_prefix,
    validate_path,
)


def test_validate_admissible(allones2):
    p = validate_path([Edge(0, 0, 0), Edge(1, 0, 1)])
    assert len(p) == 2
    assert p.start == 0 and p.end == 1


def test_literal_with_more_multiplicities_than_edges(fib):
    # the extra multiplicities were once dropped: 0-1:0,5,7 valued as 0-1:0
    for text in ("0-1:0,5,7", "0-1:0,0", "0-0-1:0,0,0"):
        with pytest.raises(pm.PathError, match=text):
            parse_path_literal(text, fib)
    assert str(parse_path_literal("0-0-1:0,0", fib)) == "0-0-1:0,0"


def test_literal_at_largest_int64_not_admissible(fib):
    # the largest int64 vertex once wrapped past the clipped read (a bare ValueError)
    top = (1 << 63) - 1
    with pytest.raises(pm.NotAdmissible):
        parse_path_literal(f"0-{top}", fib)
    assert fib.matrix(0).row(top) == fib.matrix(0).column(top) == []


def test_validate_rejects_mismatch():
    with pytest.raises(pm.NotAdmissible) as exc:
        validate_path([Edge(0, 0, 0), Edge(1, 1, 0)])
    assert exc.value.index == 1


def test_validate_rejects_empty():
    with pytest.raises(pm.EmptyPath):
        validate_path([])


def test_dist_basic():
    x = validate_path([Edge(0, 0, 0), Edge(1, 0, 1)])
    y = validate_path([Edge(0, 0, 0), Edge(1, 0, 0)])
    assert dist(x, y).value == 0.5
    assert dist(x, x).value == 0.0
    z = validate_path([Edge(0, 0, 1)])
    assert dist(x, z).value == 1.0


def test_dist_nested_cylinders():
    x = validate_path([Edge(0, 0, 0)])
    y = validate_path([Edge(0, 0, 0), Edge(1, 0, 1)])
    d = dist(x, y)
    assert d.value == 0.0 and d.prefix_equal


def test_dist_empty_anchors():
    assert dist(empty_path(0), empty_path(1)).value == 1.0
    assert dist(empty_path(0), empty_path(0)).value == 0.0


def test_dist_empty_path_other_start():
    # [0] is the level-0 cylinder of paths from 0; a path from 1 lies outside it
    x = FinitePath((Edge(0, 1, 0),))
    assert dist(empty_path(0), x) == PathDistance(1.0, prefix_equal=False)
    assert dist(x, empty_path(0)) == PathDistance(1.0, prefix_equal=False)
    assert dist(empty_path(1), x) == PathDistance(0.0, prefix_equal=True)


def test_edge_value_type():
    e = Edge(2, 0, 1, 3)
    assert e.key() == (0, 1, 3)
    assert str(e) == "(0->1:3)@2"
    assert repr(e) == "Edge(level=2, source=0, target=1, mult=3)"
    assert Edge(0, 0, 1) == Edge(0, 0, 1, 0) and hash(Edge(0, 0, 1)) == hash(Edge(0, 0, 1, 0))
    assert Edge(0, 0, 1) != Edge(1, 0, 1)            # the level counts
    assert Edge(0, 0, 1).key() == Edge(1, 0, 1).key()
    assert e.at_level(5) == Edge(5, 0, 1, 3)
    assert Edge(0, 0, 1) != (0, 0, 1, 0)
    assert len({Edge(0, 0, 1), Edge(0, 0, 1, 0), Edge(1, 0, 1), Edge(0, 0, 1, 1)}) == 3


def test_finite_path_value_type():
    edges = (Edge(0, 0, 1, 1), Edge(1, 1, 0))
    p = FinitePath(edges)
    assert str(p) == "0-1-0:1,0"
    assert str(empty_path(4)) == "[4]"
    assert repr(empty_path(4)) == "FinitePath(edges=(), anchor=4)"
    assert p == FinitePath(edges) and hash(p) == hash(FinitePath(edges))
    assert p != FinitePath(edges, anchor=0)
    assert p != FinitePath((Edge(0, 0, 1, 1), Edge(2, 1, 0)))
    assert empty_path(1) != empty_path(2) and empty_path(1) == FinitePath((), 1)
    assert len({p, FinitePath(edges), empty_path(1), FinitePath((), anchor=1)}) == 2
    assert (len(p), p.start, p.end, p.prefix(1)) == (2, 0, 0, FinitePath(edges[:1]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_dist_ultrametric(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]

    def path(ks):
        return pm.FinitePath(tuple(Edge(i, 0, 0, k) for i, k in enumerate(ks)))

    x, y, z = path(a), path(b), path(c)
    assert dist(x, z).value <= max(dist(x, y).value, dist(y, z).value)


def test_shift_prepend_sections(allones2):
    x = validate_path([Edge(0, 0, 1), Edge(1, 1, 0), Edge(2, 0, 0)])
    e = Edge(0, 1, 0)
    assert str(shift(prepend(e, x))) == str(x)
    y = shift(x)
    assert [f.level for f in y.edges] == [0, 1]
    assert str(prepend(x.edges[0], y)) == str(x)


def test_shift_too_short():
    with pytest.raises(pm.TooShort):
        shift(validate_path([Edge(0, 0, 1)]))


def test_prepend_domain(allones2):
    x = validate_path([Edge(0, 0, 0)])
    with pytest.raises(pm.DomainViolation):
        prepend(Edge(0, 0, 1), x)


def test_prepend_halves_distance():
    x = validate_path([Edge(0, 0, 0), Edge(1, 0, 1)])
    y = validate_path([Edge(0, 0, 0), Edge(1, 0, 0)])
    e = Edge(0, 1, 0)
    assert dist(prepend(e, x), prepend(e, y)).value == dist(x, y).value / 2


def test_extensions_counts(allones2, fib):
    x = empty_path(0)
    assert len(one_edge_extensions(x, allones2)) == 2
    at1 = validate_path([Edge(0, 0, 1)])
    assert len(one_edge_extensions(at1, fib)) == 1
    at0 = validate_path([Edge(0, 1, 0)])
    assert len(one_edge_extensions(at0, fib)) == 2


def test_enumerate_counts(allones2, fib):
    assert len(enumerate_paths(allones2, 0)) == 2
    assert len(enumerate_paths(allones2, 2)) == 8
    # fib path counts per length follow the Fibonacci recursion
    assert [len(enumerate_paths(fib, n)) for n in range(4)] == [2, 3, 5, 8]


def test_negative_length_is_a_path_error(fib):
    # not read as 0, which would return the level-0 empty paths
    with pytest.raises(pm.PathError, match="negative"):
        enumerate_paths(fib, -1)


def test_path_columns_extend_parents_in_blocks(fib, tri_z):
    for spec, window in ((fib, None), (tri_z, 2)):
        levels = [level.paths() for level in path_columns(spec, 4, window)]
        assert len(levels) == 5
        for parents, kids in zip(levels, levels[1:]):
            parent_of = [str(x.prefix(len(x) - 1) if len(x) > 1 else empty_path(x.start))
                         for x in kids]
            # one consecutive block per parent, parents in their own order
            assert [k for k, _ in groupby(parent_of)] == [str(p) for p in parents]
        assert [str(p) for p in levels[-1]] == [str(p) for p in enumerate_paths(spec, 4, window)]


def test_cell_counts(fib):
    assert len(cell(fib, 1, 0).members) == 2
    assert len(cell(fib, 1, 1).members) == 1
    h2 = pm.height_vector(fib, 2).values
    for v in (0, 1):
        assert len(cell(fib, 2, v).members) == h2[v]


def test_cell_unreachable(fib):
    with pytest.raises(pm.Unreachable):
        cell(fib, 1, 5)


def test_cell_rejects_a_negative_length(fib):
    # cell(fib, -1, 0) once returned a level -1 cell holding [0]
    with pytest.raises(pm.PathError, match="path length -1 is negative"):
        cell(fib, -1, 0)


def _object_cell(spec, n, v):
    """X_v^(n) grown backward path by path from edges_into: the members
    and errors cell() must reproduce."""
    if not spec.matrix(max(n - 1, 0)).in_domain(v):
        raise pm.Unreachable(f"vertex {v} is not in the level domain")
    paths = [empty_path(v)]
    for back in range(n - 1, -1, -1):
        paths = [FinitePath((e,) + p.edges) for p in paths
                 for e in spec.edges_into(p.start, back)]
    if n > 0 and not paths:
        raise pm.Unreachable(f"no length-{n} paths reach vertex {v}")
    return tuple(paths)


@st.composite
def cell_case(draw):
    """(spec, n, v): a random finite stationary or sequence diagram
    (multi-edges, empty rows and levels past the stored matrices allowed)
    or a random stencil on the integers or the naturals, and a vertex that
    may lie outside the level."""
    domain = draw(st.sampled_from(["finite", "integers", "naturals"]))
    if domain == "finite":
        k = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(["stationary", "sequence"]))
        n_mats = 1 if kind == "stationary" else draw(st.integers(1, 3))
        mats = []
        for _ in range(n_mats):
            counts = draw(st.lists(st.integers(0, 2), min_size=k * k, max_size=k * k))
            counts[0] = counts[0] or 1
            mats.append({"triplets": [[i // k, i % k, c] for i, c in enumerate(counts) if c]})
        spec = pm.diagram_from_dict({"kind": kind, "vertices": {"type": "finite", "count": k},
                                     "matrices": mats})
        n = draw(st.integers(0, 4 if kind == "stationary" else n_mats + 1))
        return spec, n, draw(st.integers(-1, k))
    stencil = draw(st.dictionaries(st.integers(-2, 2), st.integers(1, 2), min_size=1))
    triplets = [[d, 0, c] for d, c in stencil.items()]
    spec = pm.diagram_from_dict({"kind": "stationary", "vertices": {"type": domain},
                                 "matrices": [{"triplets": triplets}]})
    return spec, draw(st.integers(0, 3)), draw(st.integers(-3, 5))


@settings(max_examples=150, deadline=None)
@given(cell_case())
def test_cell_matches_object_walk(case):
    spec, n, v = case
    try:
        want = _object_cell(spec, n, v)
    except pm.PathmeasError as e:
        with pytest.raises(type(e)) as info:
            cell(spec, n, v)
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return
    got = cell(spec, n, v)
    assert (got.level, got.vertex) == (n, v)
    assert got.members == want      # member for member, in order


def test_tail_equivalence():
    x = validate_path([Edge(0, 0, 0), Edge(1, 0, 1)])
    y = validate_path([Edge(0, 1, 0), Edge(1, 0, 1)])
    assert tail_equivalent_on_prefix(x, y, 1)
    assert not tail_equivalent_on_prefix(x, y, 0)
    with pytest.raises(pm.LengthMismatch):
        tail_equivalent_on_prefix(x, validate_path([Edge(0, 0, 0)]), 0)


def test_parse_path_literal(fib):
    p = parse_path_literal("0-0-1", fib)
    assert len(p) == 2
    assert str(p) == "0-0-1:0,0"
    with pytest.raises(pm.NotAdmissible):
        parse_path_literal("1-1", fib)


def test_parse_path_literal_mults():
    spec = pm.diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 1},
        "matrices": [{"triplets": [[0, 0, 2]]}],
    })
    p = parse_path_literal("0-0-0:1,0", spec)
    assert [e.mult for e in p.edges] == [1, 0]
    with pytest.raises(pm.NotAdmissible):
        parse_path_literal("0-0:2", spec)


def test_parse_path_literal_reads_each_matrix_once(fib):
    # the counts come from one pairs read per matrix (once per edge before),
    # and the errors stay those of the edge-by-edge check: the first failing
    # position wins, and past a sequence diagram's store DiagramError (but
    # NotAdmissible for a negative multiplicity, checked first)
    seq = pm.diagram_from_dict({"kind": "sequence", "vertices": {"type": "finite", "count": 2},
                                "matrices": [{"triplets": [[0, 0, 1], [1, 0, 2]]},
                                             {"triplets": [[0, 1, 1], [1, 1, 1]]}]})
    reads, pairs = [], pm.IncidenceMatrix.pairs

    def counting(self, *args, **kwargs):
        reads.append(self)
        return pairs(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pm.IncidenceMatrix, "pairs", counting)
        p = parse_path_literal("0-0-1-0-0-1", fib)
        assert reads == [fib.matrix(0)]
        assert p == validate_path(p.edges) and str(p) == "0-0-1-0-0-1:0,0,0,0,0"
        reads.clear()
        assert str(parse_path_literal("0-1-1:1", seq)) == "0-1-1:1,0"
        assert reads == seq.matrices
    for text, spec, index, message in [
            ("0-1-1-0", fib, 1, "no edge (1->1:0)@1 in the diagram"),
            ("0-0-0:0,1", fib, 1, "no edge (0->0:1)@1 in the diagram"),
            ("0-5-0-1-1", fib, 0, "no edge (0->5:0)@0 in the diagram"),
            ("0-0:-1", fib, 0, "no edge (0->0:-1)@0 in the diagram"),
            ("0-2-0", fib, 0, "no edge (0->2:0)@0 in the diagram"),
            ("1-0-0-0", seq, 0, "no edge (1->0:0)@0 in the diagram"),
            ("0-0-0-0", seq, 1, "no edge (0->0:0)@1 in the diagram"),
            ("0-1-1-1:0,0,-1", seq, 2, "no edge (1->1:-1)@2 in the diagram")]:
        with pytest.raises(pm.NotAdmissible) as info:
            parse_path_literal(text, spec)
        assert (info.value.index, str(info.value)) == (index, message)
    with pytest.raises(pm.DiagramError, match="no incidence matrix stored for level 2"):
        parse_path_literal("0-1-1-1", seq)


def test_edge_value_semantics_pinned():
    e = Edge(0, 1, 2)
    assert repr(e) == "Edge(level=0, source=1, target=2, mult=0)"
    assert str(e) == "(1->2:0)@0"
    assert e.key() == (1, 2, 0)
    assert e == Edge(0, 1, 2, 0) and hash(e) == hash(Edge(0, 1, 2, 0)) == hash((0, 1, 2, 0))
    assert e != Edge(1, 1, 2) and e != Edge(0, 1, 2, 1) and e != Edge(0, 2, 1)
    assert e != (0, 1, 2) and e != (0, 1, 2, 0) and e != (1, 2, 0)
    assert e.at_level(3) == Edge(3, 1, 2) and {e, Edge(0, 1, 2)} == {e}


def test_finite_path_value_semantics_pinned():
    p = FinitePath((Edge(0, 0, 1), Edge(1, 1, 0, 1)))
    assert repr(p) == ("FinitePath(edges=(Edge(level=0, source=0, target=1, mult=0), "
                       "Edge(level=1, source=1, target=0, mult=1)), anchor=None)")
    assert str(p) == "0-1-0:0,1"
    twin = FinitePath((Edge(0, 0, 1), Edge(1, 1, 0, 1)))
    assert p == twin and hash(p) == hash(twin) == hash((p.edges, None)) and {p: 1}[twin] == 1
    assert p != p.edges and p != FinitePath(p.edges, anchor=0) and p != p.prefix(1)
    empty = empty_path(3)
    assert repr(empty) == "FinitePath(edges=(), anchor=3)" and str(empty) == "[3]"
    assert empty == FinitePath((), 3) and hash(empty) == hash(((), 3))
    assert empty != empty_path(2) and empty != FinitePath(())


# into 0 from {0, 2}; into 1 from {0, 1, 2}; into 2 from {2}
GAP = {"kind": "stationary", "vertices": {"type": "finite", "count": 3},
       "matrices": [{"triplets": [[0, 0, 1], [0, 2, 1], [1, 0, 1], [1, 1, 1], [1, 2, 1],
                                  [2, 2, 1]]}]}


def test_cell_with_gap_builds_only_held_edges():
    # the paths into vertex 0 start their last edge at 0 and 2, so the
    # level-0 edge column spans the in-edges of 0..2: six edges for three
    # rows, among them the three into vertex 1 that no row holds
    spec = pm.diagram_from_dict(GAP)
    got = cell(spec, 2, 0).members
    walk = tuple(FinitePath((e0, e1)) for e1 in spec.edges_into(0, 1)
                 for e0 in spec.edges_into(e1.source, 0))
    assert got == walk and len(got) == 3
    at = np.array([0], dtype=np.intp)
    level = PathColumns(at, at, np.zeros((1, 0), np.intp), ()).prepend(spec, 1).prepend(spec, 0)
    assert len(level.edges[0].sources) == 6 > len(level)
    assert level.paths() == list(walk)


def test_empty_level_fans_out_to_nothing(allones2):
    empty = np.zeros(0, dtype=np.intp)
    level = PathColumns(empty, empty, np.zeros((0, 1), np.intp),
                        column_level(allones2, 1).edges).prepend(allones2)
    assert len(level) == 0 and level.ids.shape == (0, 2)
    assert level.degree.tolist() == [] and level.paths() == []
    # a measure without mass values every cylinder 0, so the shift audit
    # prepends to an empty level at every length
    none = pm.markov_measure(allones2, [0.0, 0.0],
                             {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)})
    report = pm.check_shift_invariance(none, max_len=3)
    assert report.invariant and report.max_rel_deviation == 0.0
    assert report.factors == {} and report.predicted == {}
