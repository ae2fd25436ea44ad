"""Columnar path levels against a path-by-path walk.

Each level of ``path_columns`` must hold the paths the one-edge-extension
walk builds, in the same order, and each measure's ``values`` must equal
``[m.value(p) for p in paths]`` with float ``==`` (or raise the same typed
error), on the level itself and on its shifted and prepended columns.
"""

from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
import pathmeas.cli as cli
import pathmeas.measures as measures
from pathmeas import (
    Edge,
    IFSWeights,
    build_sfs,
    cell,
    check_ifs_fixed_point,
    check_kolmogorov,
    check_shift_invariance,
    check_tail_invariance,
    ck_matrix,
    empirical_check,
    empty_path,
    markov_measure,
    one_edge_extensions,
    prepend,
    shift,
    stationary_tail_measure,
    tail_measure_from_vectors,
    validate_path,
)
from pathmeas.measures import ShiftInvarianceReport, TailInvarianceReport, _block_sums
from pathmeas.pathspace import PathColumns, column_level, path_columns
from test_audit_oracle import (
    ref_ifs_fixed_point,
    ref_kolmogorov,
    ref_shift_invariance,
    ref_tail_invariance,
)

TRI_Z = {"kind": "stationary", "vertices": {"type": "integers", "band": 1},
         "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}]}
NAT = {"kind": "stationary", "vertices": {"type": "naturals"},
       "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}]}


def _object_walk(spec, n, window):
    """Levels 0..n built path by path from one_edge_extensions."""
    levels = [[empty_path(v) for v in spec.vertices(window)]]
    for _ in range(n):
        levels.append([q for p in levels[-1] for q in one_edge_extensions(p, spec)])
    return levels


def _weights(draw, n):
    """n nonnegative weights that sum to one (a zero weight is allowed)."""
    x = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]), min_size=n, max_size=n))
    total = sum(x)
    return [v / total for v in x] if total else [1.0] + [0.0] * (n - 1)


def _table(draw, spec, level):
    out = {}
    for w in spec.vertices():
        edges = spec.edges_from(w, level)
        out.update({e.key(): p for e, p in zip(edges, _weights(draw, len(edges)))})
    return out


def _matrix(draw, n):
    counts = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    counts[0] = counts[0] or 1
    return {"triplets": [[i // n, i % n, c] for i, c in enumerate(counts) if c]}


@st.composite
def finite_case(draw):
    """(measure, n, window): a random finite stationary or sequence diagram
    (multi-edges and sinks allowed) and one measure of each kind it has:
    Markov (stationary tables or 1-4 stored levels), tail from explicit
    vectors (1-4 levels), Perron tail, or IFS weights with a positive q."""
    k = draw(st.integers(1, 4))
    stationary = draw(st.booleans())
    n_mats = 1 if stationary else draw(st.integers(1, 4))
    spec = pm.diagram_from_dict({
        "kind": "stationary" if stationary else "sequence",
        "vertices": {"type": "finite", "count": k},
        "matrices": [_matrix(draw, k) for _ in range(n_mats)]})
    n = draw(st.integers(0, min(5 if k < 3 else 3, 5 if stationary else n_mats)))
    kind = draw(st.sampled_from(["markov", "vectors"] + (["perron", "ifs"] if stationary else [])))
    if kind == "markov":
        n_levels = draw(st.integers(0 if stationary else 1, 4 if stationary else n_mats))
        p = _table(draw, spec, 0) if n_levels == 0 else \
            [_table(draw, spec, j) for j in range(n_levels)]
        m = markov_measure(spec, _weights(draw, k), p)
    elif kind == "vectors":
        depth = draw(st.integers(0, n_mats if not stationary else 4))
        last = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=k, max_size=k))
        vecs = [dict(enumerate(last))]
        for j in range(depth - 1, -1, -1):
            f = spec.matrix(j)
            vecs.insert(0, {w: sum(c * vecs[0][v] for v, c in f.column(w)) for w in range(k)})
        m = tail_measure_from_vectors(spec, vecs)
    elif kind == "perron":
        try:
            m = stationary_tail_measure(spec)
        except pm.SolverError:
            m = markov_measure(spec, _weights(draw, k), _table(draw, spec, 0))
    else:
        p = {(e.source, e.target): draw(st.sampled_from([0.2, 0.5, 1.5]))
             for e in spec.all_edges(0)}
        q = {v: draw(st.sampled_from([0.25, 1.0, 2.0])) for v in spec.vertices()}
        m = IFSWeights(spec, p, q)
    return m, n, None


@st.composite
def stencil_case(draw):
    """(measure, n, window) on the tri_z or nat stencil: a Perron tail whose
    eigenvector window is small, so paths may leave it, or a Markov measure."""
    spec = pm.diagram_from_dict(draw(st.sampled_from([TRI_Z, NAT])))
    n, window = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        return stationary_tail_measure(spec, window=draw(st.integers(0, 4))), n, window
    step = dict(zip((-1, 0, 1), _weights(draw, 3)))
    table = {}
    for w in spec.vertices():      # rows the naturals cut short are renormalized
        out = spec.edges_from(w, 0)
        total = sum(step[e.target - w] for e in out)
        table.update({e.key(): step[e.target - w] / total if total else 1 / len(out)
                      for e in out})
    return markov_measure(spec, dict(zip(range(4), _weights(draw, 4))), table), n, window


def _same_values(m, paths, level):
    """m.values(level) == [m.value(p) for p in paths], or the same error."""
    try:
        want = [m.value(p) for p in paths]
    except pm.PathmeasError as e:
        with pytest.raises(type(e)) as info:
            m.values(level)
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return
    got = m.values(level)
    assert isinstance(got, np.ndarray) and got.tolist() == want


def _check(m, n, window):
    spec = m.diagram
    levels = _object_walk(spec, n, window)
    cols = list(path_columns(spec, n, window))
    for j, (paths, level) in enumerate(zip(levels, cols)):
        assert level.paths() == paths
        if j:
            assert level.degree.tolist() == [len(spec.edges_from(p.end, j - 1))
                                             for p in levels[j - 1]]
    paths, level = levels[-1], cols[-1]
    _same_values(m, paths, level)
    if n:
        rest = [shift(p) if len(p) > 1 else empty_path(p.end) for p in paths]
        _same_values(m, rest, level.shift())
    if spec.is_stationary:
        pre = level.prepend(spec)
        into = [spec.edges_into(p.start, 0) for p in paths]
        assert pre.degree.tolist() == [len(fs) for fs in into]
        _same_values(m, [prepend(f, p) for p, fs in zip(paths, into) for f in fs], pre)


@settings(max_examples=100, deadline=None)
@given(finite_case())
def test_level_values_match_value_finite(case):
    _check(*case)


@settings(max_examples=60, deadline=None)
@given(stencil_case())
def test_level_values_match_value_stencil(case):
    _check(*case)


@st.composite
def levels_case(draw):
    """(markov, n): a random finite stationary or sequence diagram
    (multi-edges and sinks allowed) under a Markov measure with its own
    table at each level, P_levels, enough for paths of n + 1 edges on a
    stationary diagram and for every stored matrix of a sequence one."""
    k = draw(st.integers(1, 4))
    stationary = draw(st.booleans())
    n_mats = 1 if stationary else draw(st.integers(1, 4))
    spec = pm.diagram_from_dict({
        "kind": "stationary" if stationary else "sequence",
        "vertices": {"type": "finite", "count": k},
        "matrices": [_matrix(draw, k) for _ in range(n_mats)]})
    n = draw(st.integers(0, 4 if stationary else n_mats))
    tables = [_table(draw, spec, j) for j in range(n + 1 if stationary else n_mats)]
    return markov_measure(spec, _weights(draw, k), tables), n


def _admissible(m, level, want):
    """level.paths() equal ``want``, pass validate_path, and are valued by
    ``value`` as ``values`` values the level."""
    paths = level.paths()
    assert paths == want
    assert all(validate_path(p.edges) == p for p in paths if len(p))
    assert [m.value(p) for p in paths] == m.values(level).tolist()


@settings(max_examples=100, deadline=None)
@given(levels_case())
def test_columns_give_admissible_paths(case):
    # position j of a level is level j: shift() and prepend() once kept each
    # column's stored level, so their paths were inadmissible and valued
    # with the wrong table
    m, n = case
    spec = m.diagram
    for level in path_columns(spec, n):
        paths = level.paths()
        _admissible(m, level, paths)
        if len(level.edges):
            _admissible(m, level.shift(),
                        [shift(p) if len(p) > 1 else empty_path(p.end) for p in paths])
        if spec.is_stationary:
            _admissible(m, level.prepend(spec),
                        [prepend(f, p) for p in paths for f in spec.edges_into(p.start, 0)])
    valued = dict(zip(paths, m.values(level).tolist()))
    for v in spec.vertices():
        try:
            members = cell(spec, n, v).members
        except pm.Unreachable:
            continue
        assert all(validate_path(p.edges) == p for p in members if len(p))
        assert sorted(map(str, members)) == sorted(str(p) for p in paths if p.end == v)
        assert [m.value(p) for p in members] == [valued[p] for p in members]


def _same_report(audit, reference, *args):
    """audit(*args) == reference(*args), or both raise the same error."""
    try:
        want = reference(*args)
    except pm.PathmeasError as e:
        with pytest.raises(type(e)) as info:
            audit(*args)
        assert str(info.value) == str(e)
        return
    got = audit(*args)
    if isinstance(got, TailInvarianceReport):
        got, want = (got.level, got.max_spread, got.groups), (want.level, want.max_spread, want.groups)
    elif isinstance(got, ShiftInvarianceReport):
        got, want = (got.max_rel_deviation, got.factors), (want.max_rel_deviation, want.factors)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(finite_case())
def test_audits_match_reference_finite(case):
    # sinks, multi-edges, sequence diagrams and stored-level errors, which
    # the fixed oracle measures do not reach
    m, n, _window = case
    _same_report(check_kolmogorov, ref_kolmogorov, m, n)
    if not m.markov.levels:
        return     # the ratio law and the predicted factors read level 0 of the form
    _same_report(check_tail_invariance, ref_tail_invariance, m, n)
    if m.diagram.is_stationary:
        _same_report(check_shift_invariance, ref_shift_invariance, m, max(n, 1))
    if isinstance(m, IFSWeights):
        _same_report(check_ifs_fixed_point, ref_ifs_fixed_point, m, max(n, 1))


def _kept_levels(m, n, data):
    """The levels a kept-array gather serves, each with the paths its rows
    hold: each path_columns level (whose columns must index their matrix's
    out-edge table), its shift, its prepend at level 0 (in-edge columns)
    and a random subset of its rows."""
    spec = m.diagram
    for j, level in enumerate(path_columns(spec, n)):
        assert all(col.matrix is spec.matrix(i) and col.index is not None
                   for i, col in enumerate(level.edges))
        paths = level.paths()
        yield level, paths
        if j:
            yield level.shift(), [shift(p) if len(p) > 1 else empty_path(p.end) for p in paths]
        pre = level.prepend(spec)
        yield pre, [prepend(f, p) for p in paths for f in spec.edges_into(p.start, 0)]
        rows = data.draw(st.lists(st.integers(0, max(len(level) - 1, 0)), max_size=len(level)))
        yield level[np.array(rows, dtype=np.intp)], [paths[r] for r in rows]


@settings(max_examples=60, deadline=None)
@given(finite_case(), st.data())
def test_kept_arrays_value_as_the_tables(case, data):
    # each level table is gathered from one array in out-edge order; the
    # gather must give, float for float, what the table gives each path
    m, n, _ = case
    weights, _ = m.markov._ifs_weights
    for level, paths in _kept_levels(m, n, data):
        assert level.paths() == paths
        _same_values(m, paths, level)
        if len(level.edges):        # the ratio law's IFS weights, on level 0's column
            got = weights.column(level.edges[0], level.ids[:, 0]).tolist()
            assert got == [weights.table.get(p.edges[0].key(), 0.0) for p in paths]
    # rows that start or end off the level, as a hand-built level may: the
    # kept fan-out column gives them no edge, the kept q array 0.0, and a
    # Perron tail's kept t array the WindowTooSmall of its dict read
    spec, k = m.diagram, m.diagram.matrix(0).size
    verts = [-1, 0, k, k - 1, k + 3, -(1 << 62), (1 << 63) - 1]
    at = np.array(verts, dtype=np.intp)
    off = PathColumns(at, at, np.zeros((len(at), 0), np.intp), ())
    pre = off.prepend(spec)
    assert pre.degree.tolist() == [len(spec.edges_into(v, 0)) if 0 <= v < k else 0 for v in verts]
    assert pre.paths() == [prepend(f, empty_path(v)) for v in verts if 0 <= v < k
                           for f in spec.edges_into(v, 0)]
    assert m.markov.values(off).tolist() == [m.markov.q.get(v, 0.0) for v in verts]
    if isinstance(m, IFSWeights):
        assert m.values(off).tolist() == [m.q.get(v, 0.0) for v in verts]
    else:
        _same_values(m, [empty_path(v) for v in verts], off)
    if isinstance(m, pm.TailInvariantMeasure):   # the first vertex off the level is named
        with pytest.raises(pm.WindowTooSmall, match=f"vertex {k} "):
            m.values(off[np.array([1, 2, 0])])


def _arrays_built(monkeypatch) -> Counter:
    """How often each (table, matrix) has its weight array laid out."""
    built = Counter()
    lay_out = measures._weight_array

    def counting(table, f):
        built[id(table), id(f)] += 1
        return lay_out(table, f)

    monkeypatch.setattr(measures, "_weight_array", counting)
    return built


def _columns_built(monkeypatch) -> Counter:
    """How often each (matrix, direction) has its fan-out column laid out,
    and each table its vertex array."""
    built = Counter()
    lay_out, vertex_array = pm.IncidenceMatrix._lay_out, measures._vertex_array

    def counting(self, base, into):
        built["column", id(self), into] += 1
        return lay_out(self, base, into)

    def counting_vertices(table, f, off):
        built["vertices", id(table)] += 1
        return vertex_array(table, f, off)

    monkeypatch.setattr(pm.IncidenceMatrix, "_lay_out", counting)
    monkeypatch.setattr(measures, "_vertex_array", counting_vertices)
    return built


def test_weight_arrays_built_once(monkeypatch, allones2):
    built, kept = _arrays_built(monkeypatch), _columns_built(monkeypatch)
    ifs = pm.ifs_measure(allones2, [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]])
    half = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    seq = pm.diagram_from_dict({"kind": "sequence", "vertices": {"type": "finite", "count": 2},
                                "matrices": [pm.diagram_to_dict(allones2)["matrices"][0]] * 3})
    tail, markov = stationary_tail_measure(allones2), markov_measure(seq, [0.5, 0.5], [half] * 3)
    measures_ = [ifs, tail, markov]
    assert not kept          # nothing is laid out when a diagram or a measure is built
    for _ in range(3):
        for m in measures_:
            check_kolmogorov(m, 3)
            check_tail_invariance(m, 3)
            pm.sample_paths(m, 3, 10, seed=1)
            empirical_check(m, 2, 50, seed=1)
            if m.diagram.is_stationary:
                check_shift_invariance(m, 3)
        check_ifs_fixed_point(ifs, 3)
    assert built and max(built.values()) == 1
    # the IFS weights p, its Markov form, the form's IFS weights; the tail
    # form and its IFS weights; the sequence form's three tables and its
    # IFS weights (the ratio law's)
    assert len(built) == 3 + 2 + 4
    # one fan-out column per direction read: allones2's out- and in-edges
    # (the shift audit prepends), each of the sequence's three out-edges;
    # one vertex array per measure valued: the IFS q, the Perron t, the Markov q
    assert max(kept.values()) == 1
    assert set(kept) == {("column", id(allones2.matrix(0)), False),
                         ("column", id(allones2.matrix(0)), True),
                         *(("column", id(f), False) for f in seq.matrices),
                         ("vertices", id(ifs.q)), ("vertices", id(tail.eigen.t)),
                         ("vertices", id(markov.q))}


def test_two_measures_keep_their_own_arrays(fib):
    a = markov_measure(fib, [0.5, 0.5], {(0, 0, 0): 0.25, (0, 1, 0): 0.75, (1, 0, 0): 1.0})
    b = markov_measure(fib, [0.5, 0.5], {(0, 0, 0): 0.75, (0, 1, 0): 0.25, (1, 0, 0): 1.0})
    level = column_level(fib, 3)
    paths = level.paths()
    for m in (a, b, a):
        assert m.values(level).tolist() == [m.value(p) for p in paths]
    kept_a, kept_b = a._level_weights(0), b._level_weights(0)
    assert kept_a.array is not kept_b.array
    assert kept_a.array.tolist() == [0.25, 0.75, 1.0] and kept_b.array.tolist() == [0.75, 0.25, 1.0]


def test_cold_sampler_rows_read_no_pairs(monkeypatch):
    # a finite row is a slice of the level's kept edge table and of the
    # form's kept weight array: once the level's edge table is laid out,
    # drawing reads no pairs, where each (level, vertex) row once read one
    spec = pm.diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 4},
                                 "matrices": [{"triplets": [[v, w, 1 + (v + w) % 2] for v in range(4)
                                                            for w in range(4) if v != w]}]})
    table = {}
    for w in range(4):
        out = spec.edges_from(w, 0)
        table.update({e.key(): 1 / len(out) for e in out})
    column_level(spec, 1)
    cold, warm = (markov_measure(spec, [0.25] * 4, table) for _ in range(2))
    want = pm.sample_paths(warm, 12, 20, seed=3)
    reads = []
    pairs = pm.IncidenceMatrix.pairs
    monkeypatch.setattr(pm.IncidenceMatrix, "pairs",
                        lambda self, *a, **k: reads.append(a) or pairs(self, *a, **k))
    assert pm.sample_paths(cold, 12, 20, seed=3) == want
    assert len(cold._rows) > 20 and reads == []


def test_level_values_typed_errors(allones2, nat):
    half = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    two = markov_measure(allones2, [0.5, 0.5], [half, half])
    level = column_level(allones2, 2)
    assert two.values(level).tolist() == [0.125] * 8
    with pytest.raises(pm.MeasureError, match="level 2"):
        two.values(level.prepend(allones2))
    assert two.values(level.prepend(allones2)[:0]).tolist() == []
    tail = stationary_tail_measure(nat, window=2)
    with pytest.raises(pm.WindowTooSmall, match="vertex 3 "):
        tail.values(column_level(nat, 1, 2))
    vecs = tail_measure_from_vectors(allones2, [[1.0, 1.0], [0.5, 0.5]])
    with pytest.raises(pm.MeasureError, match="level 2"):
        vecs.values(level)


def _edges_built(calls) -> int:
    """How many Edge objects the calls construct."""
    built = []
    init = Edge.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Edge, "__init__", counting)
        for call in calls:
            call()
    return len(built)


@settings(max_examples=6, deadline=None)
@given(st.integers(16, 64), st.integers(0, 2 ** 32 - 1))
def test_audits_build_no_edge(k, seed):
    # the audits read each level's edges as arrays; only paths() builds Edge
    rng = np.random.default_rng(seed)
    pairs, spec = _random_level(k, rng)
    out = {w: spec.edges_from(w, 0) for w in range(k)}
    tail = stationary_tail_measure(spec)
    markov = markov_measure(spec, [1 / k] * k,
                            {e.key(): 1 / len(es) for es in out.values() for e in es})
    ifs = IFSWeights(spec, {(w, v): float(x) for (v, w), x in
                            zip(sorted(pairs), rng.uniform(0.2, 1.5, len(pairs)))},
                     {v: float(x) for v, x in enumerate(rng.uniform(0.5, 2.0, k))})
    tri = pm.diagram_from_dict(TRI_Z)
    z = markov_measure(tri, {v: 0.25 for v in range(4)},
                       {e.key(): 1 / 3 for w in tri.vertices() for e in tri.edges_from(w, 0)})
    calls = [lambda m=m: audit(m) for m in (tail, markov, ifs) for audit in (
        lambda m: check_kolmogorov(m, 3), lambda m: check_tail_invariance(m, 2),
        lambda m: check_shift_invariance(m, 2))]
    calls += [lambda: check_ifs_fixed_point(ifs, 3), lambda: check_kolmogorov(z, 3, window=4),
              lambda: check_tail_invariance(z, 2, window=4),
              lambda: check_shift_invariance(z, 2, window=4)]
    # naming a level's cylinders and the s.f.s. read the arrays too; an
    # empirical check builds its walks' Markov rows once per measure
    calls += [lambda: ck_matrix(build_sfs(spec))]
    for m in (tail, markov):
        empirical_check(m, 2, 50, seed)
        calls += [lambda m=m: empirical_check(m, 2, 50, seed)]
    calls += [lambda m=m: _eval_len(m, 2) for m in (tail, markov, ifs)]
    assert _edges_built(calls) == 0
    assert _edges_built([lambda: column_level(spec, 1).paths()]) == len(spec.all_edges(0))


def _random_level(k, rng) -> tuple:
    """(pairs, spec): a stationary 0-1 level of k vertices whose (target,
    source) pairs are a k-cycle and 2k random pairs."""
    pairs = {((w + 1) % k, w) for w in range(k)} | {
        (int(v), int(w)) for v, w in rng.integers(0, k, (2 * k, 2))}
    return pairs, pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": k},
        "matrices": [{"triplets": [[v, w, 1] for v, w in sorted(pairs)]}]})


@settings(max_examples=6, deadline=None)
@given(st.integers(16, 64), st.integers(0, 2 ** 32 - 1))
def test_constructors_build_no_edge(k, seed):
    # each constructor reads a level's out-edges once, as arrays or keys
    pairs, spec = _random_level(k, np.random.default_rng(seed))
    degree = Counter(w for v, w in pairs)
    a = np.zeros((k, k))
    for v, w in pairs:
        a[w, v] = 1.0
    rho = float(max(abs(np.linalg.eigvals(a))))
    markov = {"type": "markov", "q": [1 / k] * k,
              "P": [[w, v, 0, 1 / degree[w]] for v, w in sorted(pairs)]}
    ifs = {"type": "ifs", "p": [[w, v, 1 / rho] for v, w in sorted(pairs)]}
    eigen = stationary_tail_measure(spec).eigen
    vectors = [{v: t / eigen.lam ** n for v, t in eigen.t.items()} for n in range(3)]
    tri = pm.diagram_from_dict(TRI_Z)
    z_table = {(w, w + d, 0): 1 / 3 for w in tri.vertices() for d in (-1, 0, 1)}
    calls = [lambda: stationary_tail_measure(spec),
             lambda: markov_measure(spec, markov["q"], {(w, v, k): p for w, v, k, p in markov["P"]}),
             lambda: pm.ifs_measure(spec, ifs["p"]),
             lambda: tail_measure_from_vectors(spec, vectors),
             lambda: pm.IFSWeights(spec, {(w, v): 0.5 for v, w in pairs}, {v: 1.0 for v in range(k)}),
             lambda: stationary_tail_measure(tri),
             lambda: markov_measure(tri, {v: 0.25 for v in range(4)}, z_table),
             lambda: tail_measure_from_vectors(tri, [{v: 3.0 ** -n for v in range(-4 - n, 5 + n)}
                                                     for n in range(3)])]
    calls += [lambda obj=obj: pm.measure_from_dict(spec, obj) for obj in (
        {"type": "tail"}, {"type": "tail", "vectors": [[v[w] for w in range(k)] for v in vectors]},
        markov, ifs)]
    assert _edges_built(calls) == 0


def _eval_len(m, n):
    """``pathmeas measure eval --len n`` on a measure already loaded."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "load_measure", lambda *paths: (m.diagram, m))
        result = CliRunner().invoke(cli.main, ["measure", "eval", "--diagram", "d.json",
                                               "--measure", "m.json", "--len", str(n)])
    assert result.exit_code == 0, result.output


def test_keys_name_paths_as_str(fib):
    level = column_level(fib, 3)
    for path, name in zip(level.paths(), level.names(), strict=True):
        verts = [path.start] + [e.target for e in path.edges]
        mults = [e.mult for e in path.edges]
        assert name == str(path) == "-".join(map(str, verts)) + ":" + ",".join(map(str, mults))


SEQUENCE = {"kind": "sequence", "vertices": {"type": "finite", "count": 3},
            "matrices": [{"triplets": [[0, 0, 1], [1, 0, 2], [2, 1, 1], [0, 2, 1]]},
                         {"triplets": [[1, 0, 1], [2, 1, 1], [0, 2, 3]]},
                         {"triplets": [[0, 0, 1], [1, 1, 1], [2, 2, 2], [2, 0, 1]]}]}
PARALLEL = {"kind": "stationary", "vertices": {"type": "finite", "count": 2},
            "matrices": [{"triplets": [[0, 0, 2], [1, 0, 1], [0, 1, 3], [1, 1, 1]]}]}


@pytest.mark.parametrize("obj, window", [(PARALLEL, None), (SEQUENCE, None),
                                         (TRI_Z, 2), (NAT, 2)])
def test_names_match_str(obj, window):
    spec = pm.diagram_from_dict(obj)
    levels = path_columns(spec, 3, window)
    assert next(levels).names() == [f"[{v}]" for v in spec.vertices(window)]
    for level in levels:
        names = level.names()
        assert names == [str(p) for p in level.paths()]
        assert len(set(names)) == len(level)


# ---------------------------------------------------------------------------
# block sums, added left to right

def _plain(xs):
    s = 0.0
    for x in xs:
        s += x
    return s


FLOATS = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                   st.sampled_from([1e-17, 1e16, -1e16, 0.1, 1.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(FLOATS, max_size=6), max_size=6))
def test_block_sums_match_sum(blocks):
    values = np.array([x for b in blocks for x in b], dtype=float)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    assert _block_sums(values, sizes).tolist() == [_plain(b) for b in blocks]
