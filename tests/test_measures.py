import math
import operator
import tracemalloc
from bisect import bisect_right
from collections import Counter
from decimal import Decimal
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
from pathmeas import (
    Edge,
    check_ifs_fixed_point,
    check_kolmogorov,
    check_shift_invariance,
    check_tail_invariance,
    column_level,
    empirical_check,
    enumerate_paths,
    ifs_measure,
    markov_measure,
    parse_path_literal,
    sample_path,
    sample_paths,
    shift_condition_tail,
    stationary_tail_measure,
    tail_measure_from_vectors,
)
from pathmeas.measures import IDENTITY_TOL

PHI = (1 + math.sqrt(5)) / 2

SYMMETRIC_P = [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]
ASYMMETRIC_P = [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]]
DEGENERATE_P = [[0, 0, 0.25], [0, 1, 0.25], [1, 0, 0.25], [1, 1, 0.25]]


# ---------------------------------------------------------------------------
# tail-invariant measures

def test_tail_from_vectors_allones(allones2):
    vectors = [{0: 2.0 ** (-n - 1), 1: 2.0 ** (-n - 1)} for n in range(5)]
    m = tail_measure_from_vectors(allones2, vectors)
    assert m.value(parse_path_literal("0-1-0", allones2)) == 0.125


def test_tail_from_vectors_rejects_violation(allones2):
    vectors = [{0: 0.5, 1: 0.5}, {0: 0.25, 1: 0.35}]
    with pytest.raises(pm.InconsistentVectors) as exc:
        tail_measure_from_vectors(allones2, vectors)
    assert exc.value.level == 0
    assert exc.value.residual == pytest.approx(0.1)


def test_tail_from_vectors_fib_eigen_relation(fib):
    t = (PHI / (1 + PHI), 1 / (1 + PHI))      # sum-one Perron vector
    vectors = [{0: t[0] / PHI ** n, 1: t[1] / PHI ** n} for n in range(4)]
    m = tail_measure_from_vectors(fib, vectors, tol=1e-12)
    assert m.value(parse_path_literal("0-0-1", fib)) == pytest.approx(
        t[1] / PHI ** 2, abs=1e-15)


def test_stationary_tail_values(allones2, fib):
    m = stationary_tail_measure(allones2)
    assert m.value(parse_path_literal("0-1-0", allones2)) == pytest.approx(0.125, abs=1e-12)
    mf = stationary_tail_measure(fib)
    assert mf.value(parse_path_literal("1-0", fib)) == pytest.approx(
        0.3819660, abs=1e-7)
    # the cell X_0^(1) holds the length-1 paths ending at 0
    level = column_level(fib, 1)
    assert mf.values(level)[level.end == 0].sum() == pytest.approx(0.7639320, abs=1e-7)


def test_tail_consistency_and_spread(allones2, fib):
    for spec in (allones2, fib):
        m = stationary_tail_measure(spec)
        for n in range(7):
            cur, nxt = m.level_vector(n), m.level_vector(n + 1)
            f = spec.matrix(0)
            for w in spec.vertices():
                back = sum(c * nxt[v] for v, c in f.column(w))
                assert abs(back - cur[w]) < 1e-10
        assert check_tail_invariance(m, 3).max_spread == 0.0


def test_tail_consistency_tri_z(tri_z):
    m = stationary_tail_measure(tri_z)
    f = tri_z.matrix(0)
    for n in range(7):
        cur, nxt = m.level_vector(n), m.level_vector(n + 1)
        for w in tri_z.vertices(window=8):
            back = sum(c * nxt[v] for v, c in f.column(w))
            assert abs(back - cur[w]) < 1e-10
    assert check_tail_invariance(m, 3, window=3).max_spread == 0.0


def test_tail_kolmogorov(allones2, fib):
    for spec in (allones2, fib):
        m = stationary_tail_measure(spec)
        assert check_kolmogorov(m, max_len=5).holds


# ---------------------------------------------------------------------------
# Markov measures

def test_markov_symmetric_value(allones2):
    table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    m = markov_measure(allones2, [0.5, 0.5], table)
    assert m.value(parse_path_literal("0-1-0", allones2)) == 0.125


def test_markov_rejects_substochastic(allones2):
    table = {(w, v, 0): 0.4 for w in (0, 1) for v in (0, 1)}
    with pytest.raises(pm.NotStochastic):
        markov_measure(allones2, [0.5, 0.5], table)


def test_markov_rejects_off_support(fib):
    table = {(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 0.5, (1, 1, 0): 0.5}
    with pytest.raises(pm.SupportMismatch):
        markov_measure(fib, [0.5, 0.5], table)


def test_tail_to_markov_closed_form(allones2, fib):
    ma = stationary_tail_measure(allones2).markov
    for e in allones2.all_edges(0):
        assert ma.transition(e) == pytest.approx(0.5, abs=1e-12)
    mf = stationary_tail_measure(fib).markov
    assert mf.transition(Edge(0, 0, 0)) == pytest.approx(1 / PHI, abs=1e-10)
    assert mf.transition(Edge(0, 0, 1)) == pytest.approx(1 / PHI ** 2, abs=1e-10)


def test_tail_to_markov_matches_on_cylinders(fib):
    tm = stationary_tail_measure(fib)
    mk = tm.markov
    for n in range(1, 5):
        for p in enumerate_paths(fib, n):
            assert mk.value(p) == pytest.approx(tm.value(p), abs=1e-12)


def test_tail_to_markov_nonstationary(allones2):
    vectors = [{0: 2.0 ** (-n - 1), 1: 2.0 ** (-n - 1)} for n in range(5)]
    tm = tail_measure_from_vectors(allones2, vectors)
    mk = tm.markov
    assert not mk.stationary
    for n in range(1, 4):
        for p in enumerate_paths(allones2, n):
            assert mk.value(p) == pytest.approx(tm.value(p), abs=1e-14)


def test_levels_past_stored_tables(allones2):
    half = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    mk = markov_measure(allones2, [0.5, 0.5], [half, half])
    with pytest.raises(pm.MeasureError, match="level 2"):
        mk.level_table(2)
    with pytest.raises(pm.MeasureError, match="level 2"):
        mk.value(parse_path_literal("0-0-0-0", allones2))
    vectors = [{0: 2.0 ** (-n - 1), 1: 2.0 ** (-n - 1)} for n in range(3)]
    tm = tail_measure_from_vectors(allones2, vectors)
    assert len(sample_path(tm, 2, seed=0)) == 2
    with pytest.raises(pm.MeasureError, match="level 2"):
        sample_path(tm, 5, seed=0)


def test_audits_without_level0_table(fib):
    """A single stored tail vector gives a Markov form with no transition
    table at all; the level-0 audits need none."""
    tm = tail_measure_from_vectors(fib, [[0.5, 0.5]])
    rep = check_tail_invariance(tm, 0)
    assert rep.tail_invariant and rep.ratio_law_deviation == 0.0
    assert check_shift_invariance(tm, 0).invariant


def test_shift_audit_reads_no_level_past_one_of_no_mass(fib):
    # a finite shift audit walks to max_len + 1 for the preimages of the
    # rows of mass; with none at max_len, the level past the stored
    # tables or vectors is never valued
    table = {(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 1.0}
    for m in (markov_measure(fib, [0.0, 0.0], [table]),
              tail_measure_from_vectors(fib, [[0.0, 0.0], [0.0, 0.0]])):
        report = check_shift_invariance(m, 1)
        assert report.invariant and report.max_rel_deviation == 0.0 and report.factors == {}
        with pytest.raises(pm.MeasureError, match="stored for level"):
            check_kolmogorov(m, 2)


def test_perron_window_typed_errors(nat):
    tm = stationary_tail_measure(nat)
    edge = max(tm.eigen.t)
    p = sample_path(tm, 3, seed=0, start=0)
    assert len(p) == 3 and p.start == 0
    pm.validate_path(p.edges)
    with pytest.raises(pm.WindowTooSmall):
        tm.value(pm.FinitePath((Edge(0, edge, edge + 1),)))
    with pytest.raises(pm.WindowTooSmall):
        sample_path(tm, 3, seed=0, start=edge)
    with pytest.raises(pm.WindowTooSmall):
        check_kolmogorov(tm, max_len=2)
    with pytest.raises(pm.InfiniteMass):
        sample_path(tm, 3, seed=0)
    with pytest.raises(pm.WindowTooSmall, match="window radius -1"):
        tail_measure_from_vectors(nat, [[1.0], [1.0]], window=-1)


def test_markov_kolmogorov(allones2):
    table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    m = markov_measure(allones2, [0.5, 0.5], table)
    assert check_kolmogorov(m, max_len=5).holds


# ---------------------------------------------------------------------------
# IFS measures

def test_ifs_symmetric(allones2):
    nu = ifs_measure(allones2, SYMMETRIC_P)
    assert nu.q == pytest.approx({0: 1.0, 1: 1.0})
    assert abs(nu.total_mass - 2.0) < 1e-12
    for n in range(1, 4):
        for p in enumerate_paths(allones2, n):
            assert nu.value(p) == pytest.approx(2.0 ** (-n), abs=1e-14)


def test_ifs_degenerate(allones2):
    with pytest.raises(pm.DegenerateSolution):
        ifs_measure(allones2, DEGENERATE_P)


def test_ifs_two_final_vertices_feeding_a_third():
    # edges 0->0, 1->1, 2->0, 2->1, 2->2: M = [[1,0,0],[0,1,0],[10,2,0.5]]
    # has the positive fixed vector (1, 1, 24) among a plane of fixed vectors
    diagram = pm.diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 3},
        "matrices": [{"triplets": [[0, 0, 1], [1, 1, 1], [0, 2, 1], [1, 2, 1], [2, 2, 1]]}],
    })
    nu = ifs_measure(diagram, [[0, 0, 1], [1, 1, 1], [2, 0, 10], [2, 1, 2], [2, 2, 0.5]])
    assert nu.q == pytest.approx({0: 1 / 24, 1: 1 / 24, 2: 1.0}, rel=0, abs=1e-15)
    assert check_ifs_fixed_point(nu, max_len=4).holds


def test_ifs_fixed_point(allones2):
    for weights in (SYMMETRIC_P, ASYMMETRIC_P):
        nu = ifs_measure(allones2, weights)
        report = check_ifs_fixed_point(nu, max_len=4)
        assert report.holds
        assert report.max_deviation < 1e-12


def test_ifs_rejects_bad_weights(allones2, fib):
    with pytest.raises(pm.SupportMismatch):
        ifs_measure(fib, SYMMETRIC_P)          # (1,1) edge missing in fib
    with pytest.raises(pm.MeasureError):
        ifs_measure(allones2, [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5]])
    with pytest.raises(pm.NotZeroOne):
        spec = pm.diagram_from_dict({
            "kind": "stationary",
            "vertices": {"type": "finite", "count": 1},
            "matrices": [{"triplets": [[0, 0, 2]]}],
        })
        ifs_measure(spec, [[0, 0, 0.5]])


def test_ifs_not_tail_invariant_ratio_law(allones2):
    nu = ifs_measure(allones2, ASYMMETRIC_P)
    report = check_tail_invariance(nu, 1, tol=1e-12)
    assert not report.tail_invariant
    assert report.ratio_law_deviation < 1e-12
    # common-range pair: edges (0->0) and (1->0) carry 0.6 vs 0.4
    a = nu.value(pm.FinitePath((Edge(0, 0, 0),)))
    b = nu.value(pm.FinitePath((Edge(0, 1, 0),)))
    assert a / b == pytest.approx(0.6 / 0.4, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_ifs_derived_fields_match_ifs_measure(k, seed):
    # column_sums and total_mass are read off p and q: a measure built from
    # them reports what ifs_measure once summed itself, and can be sampled
    rng = np.random.default_rng(seed)
    pairs = sorted({((w + 1) % k, w) for w in range(k)} | {
        (int(v), int(w)) for v, w in rng.integers(0, k, (2 * k, 2))})
    spec = pm.diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": k},
                                 "matrices": [{"triplets": [[v, w, 1] for v, w in pairs]}]})
    x = rng.uniform(0.2, 1.5, len(pairs))
    a = np.zeros((k, k))
    for (v, w), xe in zip(pairs, x):
        a[w, v] = xe
    rho = float(max(abs(np.linalg.eigvals(a))))
    order = rng.permutation(len(pairs))     # p in an order of its own, not the triplets'
    nu = ifs_measure(spec, [[pairs[i][1], pairs[i][0], x[i] / rho] for i in order])
    into = {w: [] for w in range(k)}        # in-weights in p's order, as ifs_measure summed
    for (_, v), xe in nu.p.items():
        into[v].append(xe)
    assert nu.column_sums == {w: sum(xs) for w, xs in into.items()}
    direct = pm.IFSWeights(spec, nu.p, nu.q)
    assert direct.column_sums == nu.column_sums
    assert direct.total_mass == nu.total_mass == math.fsum(nu.q.values())
    assert len(sample_paths(direct, 2, 3, seed)) == 3


def test_ifs_shift_invariance_column_sums(allones2):
    nu = ifs_measure(allones2, ASYMMETRIC_P)
    assert nu.column_sums == pytest.approx({0: 1.0, 1: 1.0})
    report = check_shift_invariance(nu, max_len=4)
    assert report.invariant
    assert report.max_rel_deviation < 1e-12


def test_ifs_shift_variant_when_columns_differ(allones2):
    # rows stochastic (q = 1 harmonic) but column sums (1.2, 0.8)
    nu = ifs_measure(allones2, [[0, 0, 0.6], [0, 1, 0.4],
                                [1, 0, 0.6], [1, 1, 0.4]])
    report = check_shift_invariance(nu, max_len=3)
    assert not report.invariant
    # measured prepend factor equals the column sum at the start vertex
    for v, factor in report.factors.items():
        assert factor == pytest.approx(report.predicted[v], abs=1e-9)


def test_ifs_kolmogorov(allones2):
    nu = ifs_measure(allones2, ASYMMETRIC_P)
    assert check_kolmogorov(nu, max_len=5).holds


def test_ifs_edge_the_diagram_lacks_weighs_zero(allones2):
    # the weights were once read by (source, target), so the mult-1 twin of
    # an edge took its weight; the Markov form already valued it 0.0
    nu = ifs_measure(allones2, SYMMETRIC_P)
    missing, present = Edge(0, 0, 1, 1), Edge(0, 0, 1, 0)
    assert not allones2.has_edge(missing)
    assert nu.weight(missing) == 0.0 and nu.weight(present) == 0.5
    for edges in ((missing,), (missing, Edge(1, 1, 0)), (Edge(0, 1, 0), missing.at_level(1))):
        path = pm.FinitePath(edges)
        assert nu.value(path) == 0.0 == nu.markov.value(path)
    assert nu.value(pm.FinitePath((present,))) == 0.5 * nu.q[1]


def test_ifs_path_ending_off_the_level_weighs_zero(allones2):
    # q was once read with [], so a path ending off the level raised a bare
    # KeyError where values and the Markov form gave 0.0
    nu = ifs_measure(allones2, SYMMETRIC_P)
    for path in (pm.empty_path(5), pm.FinitePath((Edge(0, 0, 5),))):
        assert nu.value(path) == 0.0 == nu.markov.value(path)
    off = pm.PathColumns(np.array([5]), np.array([5]), np.zeros((1, 0), np.intp), ())
    assert nu.values(off).tolist() == [0.0]


def test_tail_from_vectors_far_apart_rows_raise_at_once(fib):
    # the dict read once built one entry per integer between the smallest
    # and the largest row, here 2**62 + 2**63 of them
    m = tail_measure_from_vectors(fib, [[0.5, 0.5]])
    at = np.array([-(1 << 62), 0, (1 << 63) - 1], dtype=np.intp)
    off = pm.PathColumns(at, at, np.zeros((3, 0), np.intp), ())
    with pytest.raises(pm.WindowTooSmall, match=f"vertex {-(1 << 62)} "):
        m.values(off)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 0.9))
def test_ifs_fixed_point_property(a):
    # column sums forced to 1 by symmetry of the weight choice
    spec = pm.diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}],
    })
    nu = ifs_measure(spec, [[0, 0, a], [0, 1, 1 - a], [1, 0, 1 - a], [1, 1, a]])
    assert check_ifs_fixed_point(nu, max_len=3).holds
    assert check_kolmogorov(nu, max_len=3, tol=1e-9).holds


@settings(max_examples=25, deadline=None)
@given(st.integers(64, 128), st.integers(0, 2**32 - 1))
def test_ifs_measure_on_a_wide_random_level_passes_its_audits(n, seed):
    # a random irreducible 0-1 level (an n-cycle and three random targets a
    # vertex) with random weights scaled to root 1.  A square solve that
    # drops one row of M - I leaves residuals near 1e-12 on such levels,
    # and the relative audits then fail at IDENTITY_TOL
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=bool)
    a[np.arange(n), (np.arange(n) + 1) % n] = True
    a[np.arange(n), rng.integers(0, n, (3, n))] = True
    sources, targets = np.nonzero(a)
    x = rng.uniform(0.1, 1.0, len(sources))
    m = np.zeros((n, n))
    m[sources, targets] = x
    x /= np.max(np.abs(np.linalg.eigvals(m)))
    spec = pm.diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": n},
                                 "matrices": [{"triplets": [[int(v), int(w), 1] for w, v
                                                            in zip(sources, targets)]}]})
    nu = ifs_measure(spec, [[int(w), int(v), float(y)] for w, v, y in zip(sources, targets, x)])
    assert check_kolmogorov(nu, 3, IDENTITY_TOL).holds
    assert check_ifs_fixed_point(nu, 3, IDENTITY_TOL).holds


# ---------------------------------------------------------------------------
# shift criteria

def test_shift_condition_allones(allones2):
    report = shift_condition_tail(allones2)
    assert report.holds
    assert report.witnesses == []
    m = stationary_tail_measure(allones2)
    assert check_shift_invariance(m, max_len=4).max_rel_deviation < 1e-12


def test_shift_condition_tri_z(tri_z):
    report = shift_condition_tail(tri_z, window=8)
    assert report.holds
    assert report.lam == pytest.approx(3.0, abs=1e-10)


def test_shift_condition_fib(fib):
    report = shift_condition_tail(fib)
    assert not report.holds
    assert report.witnesses == [0, 1]
    assert report.equivalence_bound[0] == pytest.approx(1 / PHI, abs=1e-10)
    m = stationary_tail_measure(fib)
    factors = check_shift_invariance(m, max_len=3).factors
    h1 = pm.height_vector(fib, 1).values
    for v, factor in factors.items():
        assert factor == pytest.approx(h1[v] / PHI, abs=1e-10)


def test_markov_shift_invariance_qp_fixed(allones2):
    table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    m = markov_measure(allones2, [0.5, 0.5], table)
    assert check_shift_invariance(m, max_len=4).max_rel_deviation < 1e-12


def test_nonstationary_shift_product(allones2):
    vectors = [{0: 2.0 ** (-n - 1), 1: 2.0 ** (-n - 1)} for n in range(8)]
    tm = tail_measure_from_vectors(allones2, vectors)
    mk = tm.markov
    x = parse_path_literal("0-0-0-0-0-0", allones2)
    report = pm.nonstationary_shift_product(mk, x, 4)
    assert report.converges_to_one
    assert report.qp0_residual < 1e-12
    assert pm.nonstationary_shift_product(mk, x, 0).partials == []
    with pytest.raises(pm.MeasureError, match="term count -1 is negative"):
        pm.nonstationary_shift_product(mk, x, -1)


# ---------------------------------------------------------------------------
# sampling

def test_sampling_deterministic(allones2):
    table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    m = markov_measure(allones2, [0.5, 0.5], table)
    a = sample_path(m, 10, seed=7)
    b = sample_path(m, 10, seed=7)
    assert str(a) == str(b)
    assert len(a) == 10
    c = sample_path(m, 10, seed=8)
    assert str(a) != str(c)       # distinct seeds explore the space


def test_sampling_tail_measure(fib):
    m = stationary_tail_measure(fib)
    p = sample_path(m, 6, seed=1)
    assert len(p) == 6
    pm.validate_path(p.edges)


def test_sample_paths_first_is_sample_path(allones2, fib):
    table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    measures = [(allones2, markov_measure(allones2, [0.5, 0.5], table)),
                (allones2, ifs_measure(allones2, ASYMMETRIC_P)),
                (fib, stationary_tail_measure(fib))]
    for spec, m in measures:
        for seed in (0, 7, 123):
            assert str(sample_paths(m, 6, 1, seed)[0]) == str(sample_path(m, 6, seed))
        paths = sample_paths(m, 6, 20, seed=5)
        assert [str(p) for p in paths] == [str(p) for p in sample_paths(m, 6, 20, seed=5)]
        for p in paths:
            assert len(p) == 6 and all(spec.has_edge(e) for e in p.edges)
            pm.validate_path(p.edges)


def _reference_walk(spec, form, length, seed, start=None):
    """The literal of the path a seeded draw should give, from numpy's
    uniforms, the diagram's ``edges_from`` and the form's stored tables:
    each pick is a bisect_right over cumulative masses over their total."""
    u = np.random.default_rng(seed).random(length + 1).tolist()

    def pick(items, masses, x):
        cum = list(accumulate(masses))
        return items[bisect_right([c / cum[-1] for c in cum], x)]

    w = start if start is not None else pick(list(form.q), list(form.q.values()), u[0])
    verts, mults = [w], []
    for n in range(length):
        table = form.levels[0 if form.stationary else n]
        out = spec.edges_from(w, n)
        e = pick(out, [table.get((e.source, e.target, e.mult), 0.0) for e in out], u[n + 1])
        w = e.target
        verts.append(w)
        mults.append(e.mult)
    if not length:
        return f"[{w}]"
    return "-".join(map(str, verts)) + ":" + ",".join(map(str, mults))


def _random_rows(spec, rng):
    """A transition table of random positive weights on every edge of
    level 0, each vertex's row summing to one."""
    table = {}
    for w in spec.vertices():
        out = spec.edges_from(w, 0)
        x = rng.random(len(out)) + 0.05
        table.update(((e.source, e.target, e.mult), p) for e, p in zip(out, (x / x.sum()).tolist()))
    return table


def test_sample_path_matches_a_reference_walk(fib):
    rng = np.random.default_rng(25)
    multi = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": 3},
        "matrices": [{"triplets": [[0, 0, 1], [1, 0, 2], [2, 1, 1], [0, 2, 1], [2, 2, 3]]}]})
    quad = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": 4},
        "matrices": [{"triplets": [[w, v, 1] for w in range(4) for v in range(4) if v != w]
                      + [[0, 0, 1], [3, 3, 1]]}]})
    into = {}                   # IFS weights of unit column sums: M has root 1
    for e in quad.all_edges():
        into.setdefault(e.target, []).append((e.source, rng.random() + 0.1))
    ifs_p = [[w, v, x / sum(y for _, y in ws)] for v, ws in into.items() for w, x in ws]
    measures = [
        (multi, markov_measure(multi, [0.2, 0.5, 0.3], _random_rows(multi, rng))),
        (quad, markov_measure(quad, rng.random(4).tolist(),
                              [_random_rows(quad, rng) for _ in range(12)])),
        (quad, ifs_measure(quad, ifs_p)),
        (multi, stationary_tail_measure(multi)),
        (fib, stationary_tail_measure(fib)),
    ]
    for spec, m in measures:
        for length in range(13):
            for seed in range(40):
                want = _reference_walk(spec, m.markov, length, seed)
                assert str(sample_path(m, length, seed)) == want, (length, seed)


def test_sample_path_matches_a_reference_walk_on_a_stencil(tri_z, nat):
    for spec in (tri_z, nat):
        m = stationary_tail_measure(spec)
        for start in (0, 1, 5):
            for length in range(13):
                for seed in range(20):
                    want = _reference_walk(spec, m.markov, length, seed, start)
                    assert str(sample_path(m, length, seed, start=start)) == want


@pytest.mark.parametrize("length", [0, 1, 3])
@pytest.mark.parametrize("start", [99, 2, -5])
def test_sample_start_outside_domain(fib, nat, length, start):
    # a start outside the level-0 domain is refused at every length, 0 included
    with pytest.raises(pm.MeasureError, match="not a vertex"):
        sample_path(stationary_tail_measure(fib), length, 1, start=start)
    if start < 0:
        with pytest.raises(pm.MeasureError, match="not a vertex"):
            sample_path(stationary_tail_measure(nat), length, 1, start=start)
    assert str(sample_path(stationary_tail_measure(fib), 0, 1, start=1)) == "[1]"


def test_ifs_sampling_requires_start_when_infinite(allones2):
    nu = ifs_measure(allones2, SYMMETRIC_P)
    nu.total_mass = math.inf
    with pytest.raises(pm.InfiniteMass):
        sample_path(nu, 3, seed=0)
    p = sample_path(nu, 3, seed=0, start=1)
    assert p.start == 1


def test_empirical_check_on_infinite_mass_says_why(tri_z, allones2):
    # the check once passed on the sampler's advice to supply a starting
    # vertex, which empirical_check takes no parameter for
    nu = ifs_measure(allones2, SYMMETRIC_P)
    nu.total_mass = math.inf
    for m in (stationary_tail_measure(tri_z), nu):
        with pytest.raises(pm.InfiniteMass) as exc:
            empirical_check(m, 2, 100, seed=0)
        assert str(exc.value) == ("an empirical check draws its starting vertices from q, "
                                  "which needs finite total mass")
        with pytest.raises(pm.InfiniteMass) as exc:
            sample_paths(m, 2, 100, seed=0)
        assert str(exc.value) == "supply a starting vertex for sigma-finite sampling"


def test_empirical_markov(allones2):
    table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    m = markov_measure(allones2, [0.5, 0.5], table)
    report = empirical_check(m, length=3, n_samples=20000, seed=11)
    assert report.passed
    assert report.max_abs_z < 4.0


def test_empirical_tail(fib):
    report = empirical_check(stationary_tail_measure(fib), length=4,
                             n_samples=20000, seed=13)
    assert len(report.rows) == len(enumerate_paths(fib, 4))
    assert report.passed
    assert report.max_abs_z < 4.0


def test_empirical_ifs(allones2):
    nu = ifs_measure(allones2, ASYMMETRIC_P)
    report = empirical_check(nu, length=3, n_samples=20000, seed=12)
    assert report.passed


def test_empirical_exact_adds_values_left_to_right(allones2, fib):
    # the total was once builtin sum(), whose float path compensates on
    # Python 3.12+, so these probabilities moved in their last bits there
    ones3 = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": 3},
        "matrices": [{"triplets": [[w, v, 1] for w in range(3) for v in range(3)]}]})
    chain = {(w, v, 0): p for w in range(3) for v, p in enumerate((0.1, 0.2, 0.7))}
    for m, length in [(stationary_tail_measure(ones3), 4),
                      (markov_measure(ones3, [0.1, 0.2, 0.7], chain), 3),
                      (stationary_tail_measure(fib), 4),
                      (ifs_measure(allones2, ASYMMETRIC_P), 4)]:
        report = empirical_check(m, length, 200, seed=1)
        level = column_level(m.diagram, length)
        values = m.values(level).tolist()
        total = reduce(operator.add, values, 0.0)
        assert [row.cylinder for row in report.rows] == level.names()
        assert all(row.exact == value / total for row, value in zip(report.rows, values))


@pytest.mark.parametrize("length, count", [(-1, 1), (2, -1)])
def test_negative_draw_sizes_rejected(allones2, length, count):
    # length -1 once died with an IndexError, count -1 with numpy's ValueError
    nu = ifs_measure(allones2, ASYMMETRIC_P)
    with pytest.raises(pm.MeasureError):
        sample_paths(nu, length, count, seed=0)
    assert sample_paths(nu, 2, 0, seed=0) == []


def test_empirical_needs_samples(allones2):
    # zero samples once raised ZeroDivisionError
    with pytest.raises(pm.MeasureError):
        empirical_check(ifs_measure(allones2, ASYMMETRIC_P), 2, 0, 0)


def test_empirical_length_zero_counts_start_vertices(allones2):
    # every empty path once shared one key, so each start vertex read frequency 1
    m = markov_measure(allones2, [0.25, 0.75], {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)})
    report = empirical_check(m, 0, 4000, seed=3)
    starts = Counter(str(p) for p in sample_paths(m, 0, 4000, seed=3))
    assert {r.cylinder: round(r.empirical * 4000) for r in report.rows} == starts
    assert report.passed


TRI_Z = {"kind": "stationary", "vertices": {"type": "integers", "band": 1},
         "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}]}


def _weights(draw, n):
    """n nonnegative weights that sum to one (a zero weight is allowed)."""
    x = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]), min_size=n, max_size=n))
    total = sum(x)
    return [v / total for v in x] if total else [1.0] + [0.0] * (n - 1)


@st.composite
def finite_markov(draw):
    """A Markov measure on a random finite stationary diagram (multi-edges
    and sinks allowed), stationary or with 1-3 stored levels."""
    n = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(0, 2), min_size=n * n, max_size=n * n))
    counts[0] = counts[0] or 1
    spec = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": n},
        "matrices": [{"triplets": [[i // n, i % n, c] for i, c in enumerate(counts) if c]}]})

    def table():
        out = {}
        for w in spec.vertices():
            edges = spec.edges_from(w, 0)
            out.update({e.key(): p for e, p in zip(edges, _weights(draw, len(edges)))})
        return out

    n_levels = draw(st.integers(0, 3))
    p = table() if n_levels == 0 else [table() for _ in range(n_levels)]
    return markov_measure(spec, _weights(draw, n), p)


@st.composite
def stencil_markov(draw):
    """A Markov measure on the tridiagonal integer stencil whose q sits
    near the right end of the window, so walks may leave it."""
    spec = pm.diagram_from_dict(TRI_Z)
    step = _weights(draw, 3)
    table = {(w, w + d, 0): p for w in spec.vertices() for d, p in zip((-1, 0, 1), step)}
    q = dict(zip(range(61, 65), _weights(draw, 4)))
    return markov_measure(spec, q, table)


def _same_draws(m, length, n, seed):
    """The counted draw behind empirical_check against the path draw: equal
    counts, or the same error."""
    try:
        want = Counter(str(p) for p in sample_paths(m, length, n, seed))
    except pm.PathmeasError as e:
        with pytest.raises(type(e)) as info:
            empirical_check(m, length, n, seed)
        assert type(info.value) is type(e) and str(info.value) == str(e)
        return e
    report = empirical_check(m, length, n, seed)
    assert {r.cylinder: round(r.empirical * n) for r in report.rows if r.empirical} == want
    return None


@settings(max_examples=80, deadline=None)
@given(finite_markov(), st.integers(0, 6), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_counted_draw_matches_path_draw(m, length, n, seed):
    e = _same_draws(m, length, n, seed)
    assert e is None or type(e) is pm.MeasureError   # past the stored levels, or a sink


@settings(max_examples=30, deadline=None)
@given(stencil_markov(), st.integers(0, 3), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
def test_counted_draw_matches_path_draw_on_stencil(m, length, n, seed):
    e = _same_draws(m, length, n, seed)
    assert e is None or type(e) is pm.WindowTooSmall


def test_counted_draw_errors_match(allones2):
    half = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    two_levels = markov_measure(allones2, [0.5, 0.5], [half, half])
    assert type(_same_draws(two_levels, 3, 50, 1)) is pm.MeasureError
    assert _same_draws(two_levels, 2, 50, 1) is None
    spec = pm.diagram_from_dict(TRI_Z)
    right = markov_measure(spec, {64: 1.0}, {(w, w + 1, 0): 1.0 for w in spec.vertices()})
    assert _same_draws(right, 1, 50, 1) is None
    assert type(_same_draws(right, 2, 50, 1)) is pm.WindowTooSmall


def test_empirical_q_outside_window_raises():
    # walks from vertex 65 have no enumerated path: they were once dropped
    # from the counts while the check still passed
    spec = pm.diagram_from_dict(TRI_Z)
    table = {(w, w + d, 0): 1 / 3 for w in spec.vertices(70) for d in (-1, 0, 1)}
    m = markov_measure(spec, {64: 0.5, 65: 0.5}, table)
    for length in (0, 1, 2):
        with pytest.raises(pm.WindowTooSmall, match="vertex 65"):
            empirical_check(m, length, 50, seed=1)
    inside = markov_measure(spec, {64: 1.0, 65: 0.0}, table)   # no mass outside: all counted
    report = empirical_check(inside, 2, 50, seed=1)
    assert sum(round(r.empirical * 50) for r in report.rows) == 50


def test_counted_draw_wide_row_memory():
    # vertex 0 has a 2,000-edge row; padding each of 100k walks to it would
    # take a 1.6 GB float matrix, and the counted draw must stay near O(count)
    spec = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 1000], [0, 1, 1000], [1, 0, 1]]}]})
    table = {e.key(): 1 / len(out) for w in (0, 1)
             for out in [spec.edges_from(w, 0)] for e in out}
    m = markov_measure(spec, [0.5, 0.5], table)
    tracemalloc.start()
    try:
        report = empirical_check(m, 1, 100_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    want = Counter(str(p) for p in sample_paths(m, 1, 100_000, seed=4))
    assert {r.cylinder: round(r.empirical * 100_000) for r in report.rows if r.empirical} == want


# ---------------------------------------------------------------------------
# hypothesis: Kolmogorov consistency across random stochastic tables

@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_markov_kolmogorov_property(a, b, q0):
    spec = pm.diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}],
    })
    table = {(0, 0, 0): a, (0, 1, 0): 1 - a, (1, 0, 0): b, (1, 1, 0): 1 - b}
    m = markov_measure(spec, [q0, 1 - q0], table)
    assert check_kolmogorov(m, max_len=4, tol=1e-10).holds


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("q, table", [
    ([NAN, 0.5], {}), ([-0.5, 1.5], {}), ([INF, 1.0], {}),
    ([0.5, 0.5], {(0, 0, 0): NAN}), ([0.5, 0.5], {(0, 0, 0): -0.5, (0, 1, 0): 1.5}),
])
def test_markov_rejects_bad_masses(allones2, q, table):
    # each case once built a measure; the last one's rows still sum to 1
    half = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    with pytest.raises(pm.MeasureError, match="not finite and nonnegative"):
        markov_measure(allones2, q, {**half, **table})


@pytest.mark.parametrize("vectors", [[[-2, -2], [-1, -1]], [[NAN, 1.0], [0.5, 0.5]]])
def test_tail_vectors_reject_bad_masses(allones2, vectors):
    with pytest.raises(pm.MeasureError, match="not finite and nonnegative"):
        tail_measure_from_vectors(allones2, vectors)


@pytest.mark.parametrize("weight", [NAN, INF, 0.0, -0.5])
def test_ifs_rejects_bad_weight_at_once(allones2, weight):
    # a NaN weight once ran the harmonic solver to its 100k-step limit; the
    # weight check must fire before the solve, which would raise SolverError
    # on a NaN, infinite or negative weight, and on 0.0 would return a result
    # or raise DegenerateSolution, never MeasureError
    with pytest.raises(pm.MeasureError, match="not finite and positive"):
        ifs_measure(allones2, [[0, 0, weight]] + SYMMETRIC_P[1:])


def test_ifs_weights_read_their_q(fib):
    # q was once read unchecked: {} raised KeyError, a zero ZeroDivisionError,
    # a string TypeError, and NaN built a measure of NaN total mass
    p = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0}
    for q, match in [({}, "positive q"), ({0: 0.0, 1: 1.0}, "positive q"),
                     ({0: "x", 1: 1.0}, "bad value"), ({0: math.nan, 1: 1.0}, "not finite")]:
        with pytest.raises(pm.MeasureError, match=match):
            pm.IFSWeights(fib, p, q)
    # p was read unchecked too: a NaN weight gave column sums {0: nan, 1: 0.5}
    for x in (NAN, INF, 0.0, -1.0, "x", None):
        with pytest.raises(pm.MeasureError, match="edge weight"):
            pm.IFSWeights(fib, {**p, (0, 0): x}, {0: 1.0, 1: 1.0})
    # a weight on a pair fib lacks is unused, so an end of it needs no q
    q = {0: 1.0, 1: 1.0}
    extra = pm.IFSWeights(fib, {**p, (1, 1): 0.3, (0, 5): 0.2}, q)
    assert extra.markov.levels == pm.IFSWeights(fib, p, q).markov.levels


def test_ifs_weights_convert_their_p(allones2):
    # a Decimal weight once passed the check unconverted and then raised a
    # bare TypeError (Decimal * float) where the Markov table was built
    q = {0: 1.0, 1: 1.0}
    nu = pm.IFSWeights(allones2, {(w, v): Decimal("0.5") for w in (0, 1) for v in (0, 1)}, q)
    ref = pm.IFSWeights(allones2, {(w, v): 0.5 for w in (0, 1) for v in (0, 1)}, q)
    assert (nu.p, nu.column_sums, nu.total_mass) == (ref.p, ref.column_sums, ref.total_mass)
    assert nu.markov.levels == ref.markov.levels
    for x in ("x", [0.5], 10 ** 400):
        with pytest.raises(pm.MeasureError, match="edge weight"):
            pm.IFSWeights(allones2, {(0, 0): x, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}, q)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seed_is_a_measure_error(allones2, seed):
    # numpy's ValueError (negative) and TypeError (not an integer) once
    # escaped untyped, so `measure sample --seed -1` exited 2
    nu = ifs_measure(allones2, SYMMETRIC_P)
    for draw in (lambda: sample_path(nu, 3, seed), lambda: sample_paths(nu, 3, 2, seed),
                 lambda: empirical_check(nu, 2, 10, seed)):
        with pytest.raises(pm.MeasureError, match="seed"):
            draw()


def test_ifs_markov_form_weighs_every_parallel_edge():
    # one vertex with a double loop: the form once held the weight of the
    # mult-0 loop only, so its rows summed to 1/2
    spec = pm.diagram_from_dict({"kind": "stationary", "vertices": {"type": "finite", "count": 1},
                                 "matrices": [{"triplets": [[0, 0, 2]]}]})
    nu = pm.IFSWeights(spec, {(0, 0): 0.5}, {0: 1.0})
    for n in range(3):
        for path in enumerate_paths(spec, n):
            assert nu.value(path) == nu.markov.value(path), str(path)
    assert check_kolmogorov(nu.markov, 2).holds


# weights on fib whose q is not harmonic: M q = (0.75, 1.0), q = (1.0, 0.5)
NOT_HARMONIC_P = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0}


def test_ifs_fixed_point_audit_tests_the_harmonic_equation(fib, tri_z):
    # the audit once read nu([r(f_0)]) as q on one-edge rows, an identity of
    # the closed form, and passed these measures with deviation 0.0
    for scale in (1.0, 1e-20):          # relative: a small q is no excuse
        nu = pm.IFSWeights(fib, NOT_HARMONIC_P, {0: scale, 1: 0.5 * scale})
        report = check_ifs_fixed_point(nu, max_len=4)
        assert not report.holds and report.n_cylinders == 29
        assert report.max_deviation == pytest.approx(1.0)     # |(Mq)_1 - q_1| / q_1
        assert report.max_deviation == pytest.approx(check_kolmogorov(nu, 4).max_deviation)
    # on a stencil the one-edge rows end past the window of the paths: M q = 0.9 q
    verts = range(-70, 71)
    p = {(w, w + d): 0.3 for w in verts for d in (-1, 0, 1) if w + d in verts}
    z = pm.IFSWeights(tri_z, p, dict.fromkeys(verts, 1.0))
    assert check_ifs_fixed_point(z, 2).max_deviation == pytest.approx(0.1)


def test_tail_spread_is_relative(fib):
    # the spread was once absolute, so this measure passed at q = 5e-14 (9.2e-15)
    # and failed at q = 0.5 (0.092)
    table = {(0, 0, 0): 0.6, (0, 1, 0): 0.4, (1, 0, 0): 1.0}
    reports = [check_tail_invariance(markov_measure(fib, {0: x, 1: x}, table), 3)
               for x in (5e-14, 0.5)]
    for report in reports:
        assert not report.tail_invariant
        assert report.max_spread == pytest.approx(0.46)
    assert [c for *_, c in reports[0].groups.values()] == [5, 3]     # the counts stay


def test_ifs_weights_compute_their_residual(fib, allones2):
    # the residual was once an argument that defaulted to 0.0
    nu = pm.IFSWeights(fib, NOT_HARMONIC_P, {0: 1.0, 1: 0.5})
    assert nu.residual == 0.5                  # sup |M q - q|, at vertex 1
    with pytest.raises(TypeError):
        pm.IFSWeights(fib, NOT_HARMONIC_P, {0: 1.0, 1: 0.5}, 0.0)
    solved = ifs_measure(allones2, [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]])
    assert solved.residual < 1e-15


def test_ifs_weights_on_a_sequence_diagram_are_non_stationary(fib):
    # the IFS form is stationary: it once weighed F_n's edges with level 0's
    # p, and an edge of F_n that F_0 lacks weighed 0
    spec = pm.diagram_from_dict({"kind": "sequence", "vertices": {"type": "finite", "count": 2},
                                 "matrices": [pm.diagram_to_dict(fib)["matrices"][0],
                                              {"triplets": [[1, 0, 1], [1, 1, 1], [0, 1, 1]]}]})
    with pytest.raises(pm.NonStationary):
        pm.IFSWeights(spec, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 1.0, (1, 1): 0.7},
                      {0: 1.0, 1: 0.5})
    with pytest.raises(pm.NonStationary):
        pm.MarkovMeasure(spec, {0: 1.0}, [{(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 1.0}])
    with pytest.raises(pm.NonStationary):
        markov_measure(spec, [0.5, 0.5], {(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 1.0})
    # a form with one table per level walks each level's own edges
    per_level = markov_measure(spec, [0.5, 0.5], [{(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 1.0},
                                                  {(0, 1, 0): 1.0, (1, 0, 0): 0.5, (1, 1, 0): 0.5}])
    assert per_level.row(0, 1)[0] == (Edge(1, 0, 1, 0),)
    paths = {str(p) for p in enumerate_paths(spec, 2)}
    drawn = {str(p) for p in sample_paths(per_level, 2, 50, seed=3)}
    assert drawn <= paths and len(drawn) > 1


def test_row_off_the_level_raises(fib):
    # a vertex off a finite level owns no edge of the kept column, so no row
    m = markov_measure(fib, [0.5, 0.5], {(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 1.0})
    for w in (-1, 2, 5):
        with pytest.raises(pm.MeasureError, match=f"vertex {w} at level 0"):
            m.row(w, 0)


def test_markov_q_outside_finite_level_rejected(allones2, fib):
    # the mass on vertex 5 was once counted in total_mass and drawn as a start
    half = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
    with pytest.raises(pm.SupportMismatch, match="vertex 5"):
        markov_measure(allones2, {0: 0.5, 5: 0.5}, half)
    with pytest.raises(pm.SupportMismatch, match="vertex -1"):
        markov_measure(allones2, {0: 1.0, -1: 0.0}, half)
    assert markov_measure(allones2, {0: 0.5, 1: 0.5}, half).total_mass == 1.0
    # so were tail vectors: fib once reported total_mass 4.0 and drew
    # empty paths anchored at vertex 7
    with pytest.raises(pm.SupportMismatch) as exc:
        tail_measure_from_vectors(fib, [{0: 1.0, 1: 1.0, 7: 2.0}])
    assert str(exc.value) == "level-0 vertex mass on vertex 7, outside level 0"
    with pytest.raises(pm.SupportMismatch, match="level-1 vertex mass on vertex 2,"):
        tail_measure_from_vectors(fib, [[PHI, 1.0], {0: 1.0, 1: 1 / PHI, 2: 0.0}], tol=1e-12)
    nat = pm.diagram_from_dict({"kind": "stationary", "vertices": {"type": "naturals"},
                                "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1]]}]})
    with pytest.raises(pm.SupportMismatch, match="vertex -3,"):
        tail_measure_from_vectors(nat, [{0: 1.0, -3: 1.0}])
    with pytest.raises(pm.SupportMismatch, match="initial mass on vertex -1,"):
        markov_measure(nat, {0: 1.0, -1: 0.0}, {(0, 0, 0): 0.5, (0, 1, 0): 0.5})


def test_far_off_weight_keys_on_a_stencil(tri_z):
    # a key far outside the window is checked against its own vertex's
    # edges; the vertices between are not read
    table = {(w, w + d, 0): 1 / 3 for w in tri_z.vertices() for d in (-1, 0, 1)}
    far = 10 ** 15                  # a span this wide could not be allocated
    m = markov_measure(tri_z, {v: 0.25 for v in range(4)}, {**table, (far, far + 1, 0): 0.5})
    assert m.level_table(0)[far, far + 1, 0] == 0.5
    with pytest.raises(pm.SupportMismatch, match=f"edge \\({far}->{far + 2}:0\\) at level 0"):
        markov_measure(tri_z, {0: 1.0}, {**table, (far, far + 2, 0): 0.5})
    vectors = [{v: 3.0 ** -n for v in [*range(-2 - n, 3 + n), far - n, far + 1]} for n in range(2)]
    with pytest.raises(pm.InconsistentVectors):
        tail_measure_from_vectors(tri_z, vectors)


@pytest.mark.parametrize("build, kind, message", [
    # a Markov table with two positive weights on missing edges: the first
    # in the table's order is named
    (lambda d: markov_measure(d, [1.0, 0.0], {(0, 0, 0): 0.5, (1, 1, 0): 0.3, (0, 1, 0): 0.5,
                                              (0, 0, 1): 0.2, (1, 0, 0): 1.0}),
     pm.SupportMismatch, "positive weight on missing edge (1->1:0) at level 0"),
    (lambda d: markov_measure(d, [1.0, 0.0], [{(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 1.0},
                                              {(0, 0, 3): 0.1, (2, 0, 0): 0.1}]),
     pm.SupportMismatch, "positive weight on missing edge (0->0:3) at level 1"),
    # IFS weights with two pairs that are not edges
    (lambda d: ifs_measure(d, [[0, 0, 0.5], [1, 1, 0.5], [0, 1, 0.5], [5, 0, 0.5], [1, 0, 0.5]]),
     pm.SupportMismatch, "weight on missing edge (1->1)"),
    # IFS weights that miss two edges
    (lambda d: ifs_measure(d, [[1, 0, 0.5]]),
     pm.MeasureError, "missing weight for edge (0->0)"),
    (lambda d: ifs_measure(d, [[0, 0, 0.5], [1, 0, 0.5]]),
     pm.MeasureError, "missing weight for edge (0->1)"),
])
def test_constructors_name_the_first_offending_key(fib, build, kind, message):
    with pytest.raises(kind) as exc:
        build(fib)
    assert type(exc.value) is kind and str(exc.value) == message


HALF_TABLE = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}


@pytest.mark.parametrize("q, table, says", [
    ([0.5, "x"], HALF_TABLE, "initial mass"),
    ([0.5, None], HALF_TABLE, "initial mass"),
    (0.5, HALF_TABLE, "initial mass"),
    ([0.5, 0.5], {**HALF_TABLE, (0, 0, 0): "x"}, "level-0 transition"),
    ([0.5, 0.5], {**HALF_TABLE, (0, 0): 0.5}, "level-0 transition"),
    ([0.5, 0.5], [HALF_TABLE, [[0, 0, 0, 0.5]]], "level-1 transition"),
    ({0.5: 1.0, 1: 0.0}, HALF_TABLE, "initial mass"),
    ([0.5, 0.5], {**HALF_TABLE, (0.9, 0, 0): 0.5}, "level-0 transition"),
])
def test_markov_constructor_typed_errors(allones2, q, table, says):
    # each once raised a bare ValueError, TypeError or AttributeError; a
    # fractional vertex key was truncated (0.5 and 0.9 read as vertex 0)
    with pytest.raises(pm.MeasureError, match=says):
        markov_measure(allones2, q, table)


@pytest.mark.parametrize("vectors, says", [
    ([[1, "a"]], "level-0 vertex mass"),
    ([[0.5, 0.5], {0: 0.25, "b": 0.25}], "level-1 vertex mass"),
    (1.5, "not a list"),
])
def test_tail_vectors_constructor_typed_errors(allones2, vectors, says):
    with pytest.raises(pm.MeasureError, match=says):
        tail_measure_from_vectors(allones2, vectors)


@pytest.mark.parametrize("p, says", [
    ([[0, 0]], r"row \[0, 0\] does not have 3 entries"),
    ([[0, 0, "x"]] + SYMMETRIC_P[1:], "bad value"),
    (5, "not a list"),
    ({(0, 0): "x", (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}, "bad value"),
    ({0: 0.5}, "bad value"),
    ({(0, 0, 0): 0.5}, "does not have 3 entries"),
    ([[0.7, 0, 0.5]] + SYMMETRIC_P[1:], "vertex index 0.7"),
])
def test_ifs_constructor_typed_errors(allones2, p, says):
    with pytest.raises(pm.MeasureError, match=says):
        ifs_measure(allones2, p)


def test_constructors_read_dict_and_list_forms_alike(allones2):
    weights = {(w, v): x for w, v, x in ASYMMETRIC_P}
    assert ifs_measure(allones2, weights).q == ifs_measure(allones2, ASYMMETRIC_P).q
    by_list = markov_measure(allones2, [0.25, 0.75], HALF_TABLE)
    by_dict = markov_measure(allones2, {0: 0.25, 1: 0.75}, HALF_TABLE)
    assert by_list.q == by_dict.q == {0: 0.25, 1: 0.75}
    assert by_list.levels == by_dict.levels == [HALF_TABLE]
