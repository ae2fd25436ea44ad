"""Columnar path levels against a path-by-path walk.

Each level of ``path_columns`` must hold the paths the one-edge-extension
walk builds, in the same order, and each measure's ``values`` must equal
``[m.value(p) for p in paths]`` with float ``==`` (or raise the same typed
error), on the level itself and on its shifted and prepended columns.
"""

import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
import pathmeas.cli as cli
from pathmeas import (
    Edge,
    IFSWeights,
    build_sfs,
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
)
from pathmeas.measures import ShiftInvarianceReport, TailInvarianceReport, _block_sums
from pathmeas.pathspace import column_level, path_columns
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
        m = IFSWeights(spec, p, q, {})
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
    pairs = {((w + 1) % k, w) for w in range(k)} | {
        (int(v), int(w)) for v, w in rng.integers(0, k, (2 * k, 2))}
    spec = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": k},
        "matrices": [{"triplets": [[v, w, 1] for v, w in sorted(pairs)]}]})
    out = {w: spec.edges_from(w, 0) for w in range(k)}
    tail = stationary_tail_measure(spec)
    markov = markov_measure(spec, [1 / k] * k,
                            {e.key(): 1 / len(es) for es in out.values() for e in es})
    ifs = IFSWeights(spec, {(w, v): float(x) for (v, w), x in
                            zip(sorted(pairs), rng.uniform(0.2, 1.5, len(pairs)))},
                     {v: float(x) for v, x in enumerate(rng.uniform(0.5, 2.0, k))}, {})
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
# block sums in sum()'s order

def _neumaier(xs):
    """CPython's sum() of floats from 3.12 on, transcribed."""
    if not xs:
        return 0
    s, c = 0 + xs[0], 0.0
    for x in xs[1:]:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c if c and math.isfinite(c) else s


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
    assert _block_sums(values, sizes).tolist() == [sum(b) for b in blocks]
    assert _block_sums(values, sizes, compensated=True).tolist() == [_neumaier(b) for b in blocks]
    assert _block_sums(values, sizes, compensated=False).tolist() == [_plain(b) for b in blocks]
    # the transcription this interpreter's sum() follows
    reference = _neumaier if sys.version_info >= (3, 12) else _plain
    assert [sum(b) for b in blocks] == [reference(b) for b in blocks]
