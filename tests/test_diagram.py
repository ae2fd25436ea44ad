import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
from pathmeas import (
    DiagramSpec,
    Edge,
    IncidenceMatrix,
    diagram_from_dict,
    diagram_to_dict,
    edge_graph_01,
    height_vector,
    is_irreducible,
    validate_diagram,
)
from pathmeas.diagram import FINITE, strong_components


def test_allones_valid_no_warnings(allones2):
    report = validate_diagram(allones2)
    assert report.valid
    assert report.warnings == []


def test_zero_row_rejected():
    spec = diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1]]}],
    })
    report = validate_diagram(spec)
    assert not report.valid
    assert any("row 1" in msg for msg in report.errors)


def test_single_edge_column_warns(identity2):
    report = validate_diagram(identity2)
    assert report.valid
    assert len(report.warnings) == 2


def test_entry_orientation(fib):
    f = fib.matrix(0)
    # f_{v,w} counts edges w -> v; F = [[1,1],[1,0]]
    assert f.entry(0, 0) == 1
    assert f.entry(0, 1) == 1
    assert f.entry(1, 0) == 1
    assert f.entry(1, 1) == 0


def test_height_level_zero_is_ones(fib):
    assert height_vector(fib, 0).values == {0: 1, 1: 1}


def test_fib_heights():
    spec = diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1]]}],
    })
    assert height_vector(spec, 1).values == {0: 2, 1: 1}
    assert height_vector(spec, 2).values == {0: 3, 1: 2}


def test_heights_tri_z(tri_z):
    h = height_vector(tri_z, 3, window=4)
    assert all(v == 27 for v in h.values.values())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5))
def test_height_recursion(n):
    spec = diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 2], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}],
    })
    h_n = height_vector(spec, n).values
    h_next = height_vector(spec, n + 1).values
    f = spec.matrix(0)
    for v in spec.vertices():
        assert h_next[v] == sum(c * h_n[w] for w, c in f.row(v))


def test_edge_graph_allones(allones2):
    eg = edge_graph_01(allones2)
    f = eg.matrix(0)
    assert f.size == 4
    assert eg.is_zero_one
    # each edge-vertex has exactly 2 successors (column sums of the 0-1 matrix)
    for w in range(4):
        assert len(eg.edges_from(w, 0)) == 2


def test_edge_graph_fib(fib):
    eg = edge_graph_01(fib)
    f = eg.matrix(0)
    assert f.size == 3
    # canonical edge order (0->0),(0->1),(1->0); successor counts 2,1,2
    assert [len(eg.edges_from(w, 0)) for w in range(3)] == [2, 1, 2]


def test_irreducible(fib, allones2, identity2):
    assert is_irreducible(fib) == "yes"
    assert is_irreducible(allones2) == "yes"
    assert is_irreducible(identity2) == "no-within-horizon"


def test_irreducible_long_cycle():
    """Exact on stationary finite levels: a 20-cycle needs 20 steps to
    join a vertex to itself, past the horizon sequence diagrams use."""
    cycle = diagram_from_dict({"kind": "stationary",
                               "vertices": {"type": "finite", "count": 20},
                               "matrices": [{"triplets": [[(w + 1) % 20, w, 1]
                                                          for w in range(20)]}]})
    assert is_irreducible(cycle) == "yes"


def _closure(n, edges):
    """reach[i][j]: a path of one or more edges runs from i to j (Warshall)."""
    reach = [[False] * n for _ in range(n)]
    for s, t in edges:
        reach[s][t] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


digraphs = st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n) if n else st.just([])))


@settings(max_examples=300, deadline=None)
@given(digraphs)
def test_strong_components_match_reachability(graph):
    n, edges = graph
    count, labels = strong_components(n, [s for s, _ in edges], [t for _, t in edges])
    reach = _closure(n, edges)
    assert sorted(set(labels.tolist())) == list(range(count))
    for i in range(n):
        for j in range(n):
            assert (labels[i] == labels[j]) == (i == j or reach[i][j] and reach[j][i])
    # labels follow completion order: no edge climbs to a later component
    assert all(labels[t] <= labels[s] for s, t in edges)


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_irreducible_matches_reachability(graph):
    n, edges = graph
    spec = diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": n},
                              "matrices": [{"triplets": [[t, s, 1] for s, t in set(edges)]}]})
    joined = all(all(row) for row in _closure(n, edges))
    assert is_irreducible(spec) == ("yes" if joined else "no-within-horizon")


def test_irreducible_counts_components_once(fib, identity2):
    # a finite level keeps its strong component count: Tarjan runs once
    def level(n, triplets):
        return diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": n},
                                  "matrices": [{"triplets": triplets}]})

    calls = []

    def counting(*args):
        calls.append(args)
        return strong_components(*args)

    cases = [(fib, "yes"), (identity2, "no-within-horizon"),         # self-loops
             (level(2, [[1, 0, 1], [0, 1, 1]]), "yes"),                # a 2-cycle
             (level(2, [[1, 0, 1]]), "no-within-horizon")]             # no cycle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pm.diagram, "strong_components", counting)
        for spec, verdict in cases:
            calls.clear()
            assert [is_irreducible(spec), is_irreducible(spec)] == [verdict] * 2
            assert len(calls) == 1
        calls.clear()          # a self-loop makes a level cyclic without a count
        assert level(2, [[0, 0, 1], [1, 0, 1]]).matrix(0).transpose_arrays[3] and not calls


def test_irreducible_tri_z(tri_z):
    assert is_irreducible(tri_z, window=4, max_m=2) == "unknown"
    assert is_irreducible(tri_z, window=4, max_m=16) == "yes"


def test_json_round_trip(fib):
    again = diagram_from_dict(diagram_to_dict(fib))
    assert diagram_to_dict(again) == diagram_to_dict(fib)
    assert again.matrix(0).entries == fib.matrix(0).entries


def test_json_round_trip_infinite(tri_z):
    again = diagram_from_dict(diagram_to_dict(tri_z))
    assert again.matrix(0).stencil == tri_z.matrix(0).stencil
    assert again.matrix(0).band == 1


def test_edges_from_ordering(allones2):
    edges = allones2.edges_from(0, 0)
    assert [(e.source, e.target, e.mult) for e in edges] == [(0, 0, 0), (0, 1, 0)]
    assert all(e.level == 0 for e in edges)


def test_parallel_edges():
    spec = diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 1},
        "matrices": [{"triplets": [[0, 0, 3]]}],
    })
    assert not spec.is_zero_one
    assert len(spec.edges_from(0, 0)) == 3
    assert spec.has_edge(Edge(0, 0, 0, 2))
    assert not spec.has_edge(Edge(0, 0, 0, 3))


def test_sequence_diagram_levels():
    spec = diagram_from_dict({
        "kind": "sequence",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [
            {"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]},
            {"triplets": [[0, 0, 1], [1, 0, 1], [1, 1, 1]]},
        ],
    })
    assert not spec.is_stationary
    assert spec.matrix(1).entry(0, 1) == 0
    with pytest.raises(pm.DiagramError):
        spec.matrix(2)
    with pytest.raises(pm.NonStationary):
        spec.require_stationary()


def test_stationary_needs_one_matrix():
    with pytest.raises(pm.DiagramError):
        diagram_from_dict({
            "kind": "stationary",
            "vertices": {"type": "finite", "count": 1},
            "matrices": [{"triplets": [[0, 0, 1]]}, {"triplets": [[0, 0, 1]]}],
        })


def test_naturals_domain_clips_negative():
    spec = diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "naturals"},
        "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}],
    })
    f = spec.matrix(0)
    assert f.entry(-1, 0) == 0
    assert f.row(0) == [(0, 1), (1, 1)]
    assert spec.vertices(window=3) == [0, 1, 2, 3]
    # -1 lies outside the naturals: no row, no column, no edge in or out
    assert not f.in_domain(-1)
    assert f.row(-1) == f.column(-1) == []
    assert spec.edges_into(-1, 0) == spec.edges_from(-1, 0) == []
    assert f.column(0) == [(0, 1), (1, 1)]


def test_finite_matrix_requires_entries():
    with pytest.raises(pm.DiagramError):
        IncidenceMatrix(FINITE)


def _reference(rows) -> dict:
    """{(v, w): count} of triplet rows read one at a time, in (v, w) order:
    the last of equal pairs wins and a zero count is no entry."""
    entries = {}
    for v, w, c in rows:
        entries[int(v), int(w)] = int(c)
    return {k: c for k, c in sorted(entries.items()) if c}


def _validate_by_scan(entries, size, name="F"):
    """Errors and warnings of one finite level by scanning every entry."""
    errors, warnings = [], []
    rows = {v: 0 for v in range(size)}
    cols = {w: 0 for w in range(size)}
    for (v, w), c in entries.items():
        rows[v] += 1
        cols[w] += 1
    errors += [f"{name}: row {v} is zero (no incoming edges)" for v, k in rows.items() if not k]
    for w, k in cols.items():
        if k == 0:
            errors.append(f"{name}: column {w} is zero (no outgoing edges)")
        elif k == 1 and sum(c for (v, s), c in entries.items() if s == w) == 1:
            warnings.append(f"{name}: column {w} has a single edge (isolated-point warning)")
    return errors, warnings


def _has_cycle(entries, size) -> bool:
    """Whether the level graph has a cycle: Kahn's algorithm strips
    vertices with no remaining in-edge until none is left to strip."""
    indegree = [0] * size
    for v, w in entries:
        indegree[v] += 1
    ready = [v for v in range(size) if not indegree[v]]
    stripped = 0
    while ready:
        w = ready.pop()
        stripped += 1
        for v, s in entries:
            if s == w:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
    return stripped < size


@st.composite
def shuffled_levels(draw):
    """(size, triplet rows) of a finite level of 0-40 vertices: rows in
    random order, some pairs repeated, zero counts, and values given
    either as ints or as integral floats (2.0)."""
    n = draw(st.integers(0, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n)) if n else []
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=5))
    rows = [[v, w, draw(st.integers(0, 3))] for v, w in pairs]
    rows = [[draw(st.sampled_from([x, float(x)])) for x in row] for row in rows]
    return n, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None)
@given(shuffled_levels())
def test_finite_adjacency_matches_entry_scan(case):
    n, rows = case
    ref = _reference(rows)
    spec = diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": n},
                              "matrices": [{"triplets": rows}]})
    f = spec.matrix(0)
    assert list(f.entries.items()) == list(ref.items())
    assert all(type(x) is int for (v, w), c in f.entries.items() for x in (v, w, c))
    assert IncidenceMatrix(FINITE, entries=ref, size=n).triplets.tolist() == f.triplets.tolist()
    for u in range(n):
        assert f.row(u) == [(w, c) for (v, w), c in ref.items() if v == u]
        assert f.column(u) == [(v, c) for (v, w), c in ref.items() if w == u]
    edges_into = [(w, v, k) for (v, w), c in ref.items() for k in range(c)]
    for into, edges in ((False, sorted(edges_into)), (True, edges_into)):
        first, sources, targets, mults = f.edge_table(0, n, into)
        assert list(zip(sources.tolist(), targets.tolist(), mults.tolist())) == edges
        owner = 1 if into else 0
        assert first.tolist() == [sum(e[owner] < u for e in edges) for u in range(n + 1)]
    a_rows, a_cols, counts, cyclic = f.transpose_arrays
    assert a_rows.tolist() == [w for v, w in ref] and a_cols.tolist() == [v for v, w in ref]
    assert counts.tolist() == [float(c) for c in ref.values()]
    assert cyclic == _has_cycle(ref, n)
    verts = list(range(n, -2, -1))          # reversed, with one vertex past each end
    dense = f.to_dense(verts, verts)
    assert dense.tolist() == [[ref.get((v, w), 0) for w in verts] for v in verts]
    h = [1] * n
    for k in range(4):
        assert height_vector(spec, k).values == dict(enumerate(h))
        h = [sum(c * h[w] for (v, w), c in ref.items() if v == u) for u in range(n)]
    report = validate_diagram(spec)
    assert (report.errors, report.warnings) == _validate_by_scan(ref, n)
    assert diagram_to_dict(spec)["matrices"] == [
        {"triplets": [[v, w, c] for (v, w), c in ref.items()]}]


def test_level_past_2_31_vertices_sorted_exactly():
    # there v * size + w no longer fits in int64: the sort key is exact
    big = 2 ** 35
    f = IncidenceMatrix(FINITE, triplets=[[big, 0, 1], [5, big, 2], [big, 0, 3], [5, 1, 0]],
                        size=2 ** 40)
    assert f.triplets.tolist() == [[5, big, 2], [big, 0, 3]]
    assert f.entries == {(5, big): 2, (big, 0): 3}


@pytest.mark.parametrize("bad, says", [
    ([0, 1, -1], "edge count -1 is not a nonnegative integer"),
    ([0, 1, 1.5], "edge count 1.5 is not"),
    ([0, float("nan"), 1], "vertex index nan is not"),
    ([0, 1, float("inf")], "edge count inf is not"),
    ([0, "1", 1], "vertex index '1' is not"),
    ([None, 1, 1], "vertex index None is not"),
    ([0, 1], r"triplet row \[0, 1\] does not have 3 entries"),
    ([0, 2, 1], "vertex index 2 lies outside the 2 vertices"),
    ([0, 1, 2 ** 63], r"9223372036854775808 exceeds 2\*\*63 - 1"),
    ([2 ** 64, 1, 1], r"18446744073709551616 exceeds 2\*\*63 - 1"),
])
def test_refused_triplet_value(bad, says):
    # values past 2^63 - 1 were once accepted, and the edge table would
    # then list that many edges
    with pytest.raises(pm.DiagramError, match=says):
        diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 2},
                           "matrices": [{"triplets": [[0, 0, 1], bad, [1, 0, 1]]}]})


@pytest.mark.parametrize("triplets, message", [
    ([[1, 0, 1]], "F: row 0 is zero (no incoming edges)"),
    ([[0, 1, 1]], "F: column 0 is zero (no outgoing edges)"),
])
def test_naturals_boundary_zero_lines(triplets, message):
    spec = diagram_from_dict({"kind": "stationary", "vertices": {"type": "naturals"},
                              "matrices": [{"triplets": triplets}]})
    report = validate_diagram(spec)
    assert not report.valid
    assert report.errors == [message]


def test_naturals_tridiagonal_valid(nat):
    report = validate_diagram(nat)
    assert report.valid and report.warnings == []


def test_finite_negative_vertex_rejected():
    with pytest.raises(pm.DiagramError, match="nonnegative"):
        diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 2},
                           "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1], [-1, 1, 1]]}]})


@pytest.mark.parametrize("count", [-1, 1.5, float("nan"), float("inf"), "2"])
def test_bad_edge_count_rejected(count):
    with pytest.raises(pm.DiagramError, match="nonnegative integer"):
        IncidenceMatrix(FINITE, entries={(0, 0): 1, (0, 1): count})
    with pytest.raises(pm.DiagramError, match="nonnegative integer"):
        IncidenceMatrix(pm.INTEGERS, stencil={0: 1, 1: count})


@pytest.mark.parametrize("domain", ["finite", "naturals"])
def test_bad_edge_count_rejected_at_load(domain):
    # a negative count once passed validate (and gave a Perron root of
    # 0.618); a fractional one was truncated to an integer
    for bad in (-1, 1.5):
        with pytest.raises(pm.DiagramError):
            diagram_from_dict({"kind": "stationary",
                               "vertices": {"type": domain, "count": 2},
                               "matrices": [{"triplets": [[0, 0, bad], [0, 1, 1],
                                                          [1, 0, 1]]}]})


def test_integral_float_count_accepted():
    f = IncidenceMatrix(FINITE, entries={(0, 0): 2.0, (0, 1): 1, (1, 0): 0.0})
    assert f.entries == {(0, 0): 2, (0, 1): 1}
    assert all(type(c) is int for c in f.entries.values())


@pytest.mark.parametrize("domain", ["finite", "naturals", "integers"])
@pytest.mark.parametrize("index", [1.7, float("nan"), float("inf"), "1", None])
def test_bad_vertex_index_rejected_at_load(domain, index):
    # a fractional index was truncated, so [0, 1.7, 1] became an edge from 1
    with pytest.raises(pm.DiagramError, match="vertex index"):
        diagram_from_dict({"kind": "stationary", "vertices": {"type": domain, "count": 2},
                           "matrices": [{"triplets": [[0, index, 1], [1, 0, 1]]}]})


@pytest.mark.parametrize("domain", ["finite", "naturals"])
def test_integral_float_index_accepted(domain):
    def load(triplets):
        return diagram_from_dict({"kind": "stationary", "vertices": {"type": domain, "count": 2},
                                  "matrices": [{"triplets": triplets}]}).matrix(0)
    f = load([[0, 1.0, 1], [1.0, 0, 1]])
    g = load([[0, 1, 1], [1, 0, 1]])
    assert (f.entries, f.stencil) == (g.entries, g.stencil)


@pytest.mark.parametrize("count", [3.7, -1, float("nan"), "3"])
def test_bad_vertex_count_rejected_at_load(count):
    # 3.7 was truncated to 3 vertices and a negative count was ignored
    with pytest.raises(pm.DiagramError, match="vertex count"):
        diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": count},
                           "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1], [0, 1, 1]]}]})


def test_integral_float_vertex_count_accepted():
    spec = diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 3.0},
                              "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1]]}]})
    assert spec.vertices() == [0, 1, 2]
    assert type(spec.matrix(0).size) is int


def test_triplet_outside_count_rejected_at_load():
    # a triplet at vertex 5 once grew a 2-vertex level to 6 vertices, whose
    # rows 2-4 validate then reported as zero
    with pytest.raises(pm.DiagramError, match="vertex index 5"):
        diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 2},
                           "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1], [0, 1, 1],
                                                      [5, 1, 1]]}]})
    with pytest.raises(pm.DiagramError, match="outside"):
        IncidenceMatrix(FINITE, entries={(0, 0): 1, (0, 2): 1}, size=2)


def test_declared_size_kept_and_written():
    f = IncidenceMatrix(FINITE, entries={(0, 0): 1, (1, 0): 1}, size=3)
    assert f.size == 3 and f.vertices() == [0, 1, 2]
    spec = diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 3},
                              "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1]]}]})
    assert diagram_to_dict(spec)["vertices"] == {"type": "finite", "count": 3}


@pytest.mark.parametrize("make", [
    lambda: IncidenceMatrix(FINITE, entries={(1.5, 0): 1}),
    lambda: IncidenceMatrix(FINITE, entries={(0, 0.5): 1}),
    lambda: IncidenceMatrix(pm.INTEGERS, stencil={0.5: 1}),
    lambda: IncidenceMatrix(pm.INTEGERS, stencil={"1": 1}),
])
def test_fractional_index_rejected_by_constructor(make):
    # an offset of 0.5 became 0 and an index of 1.5 gave size 2.5
    with pytest.raises(pm.DiagramError, match="vertex index"):
        make()


def test_sequence_levels_rebuilt_only_when_smaller():
    small = IncidenceMatrix(FINITE, entries={(0, 0): 1, (1, 0): 1, (0, 1): 1})
    big = IncidenceMatrix(FINITE, entries={(0, 0): 1, (1, 2): 1, (2, 1): 1, (0, 2): 1})
    spec = DiagramSpec("sequence", [small, big])
    assert spec.matrices[1] is big
    assert spec.matrices[0].size == 3 and spec.matrices[0].entries == small.entries
    loaded = diagram_from_dict({"kind": "sequence", "vertices": {"type": "finite", "count": 3},
                                "matrices": [{"triplets": [[0, 0, 1]]}, {"triplets": [[1, 1, 1]]}]})
    assert [m.size for m in loaded.matrices] == [3, 3]
