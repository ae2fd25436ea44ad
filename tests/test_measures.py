import math

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
    tail_to_markov,
)
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
    assert mf.cell_value(1, 0) == pytest.approx(0.7639320, abs=1e-7)


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
    assert m.full_support


def test_markov_rejects_substochastic(allones2):
    table = {(w, v, 0): 0.4 for w in (0, 1) for v in (0, 1)}
    with pytest.raises(pm.NotStochastic):
        markov_measure(allones2, [0.5, 0.5], table)


def test_markov_rejects_off_support(fib):
    table = {(0, 0, 0): 0.5, (0, 1, 0): 0.5, (1, 0, 0): 0.5, (1, 1, 0): 0.5}
    with pytest.raises(pm.SupportMismatch):
        markov_measure(fib, [0.5, 0.5], table)


def test_markov_flags_missing_support(fib):
    table = {(0, 0, 0): 0.618, (0, 1, 0): 0.382, (1, 0, 0): 1.0}
    m = markov_measure(fib, [1.0, 0.0], table, tol=1e-3)
    assert not m.full_support


def test_tail_to_markov_closed_form(allones2, fib):
    ma = tail_to_markov(stationary_tail_measure(allones2))
    for e in allones2.all_edges(0):
        assert ma.transition(e) == pytest.approx(0.5, abs=1e-12)
    mf = tail_to_markov(stationary_tail_measure(fib))
    assert mf.transition(Edge(0, 0, 0)) == pytest.approx(1 / PHI, abs=1e-10)
    assert mf.transition(Edge(0, 0, 1)) == pytest.approx(1 / PHI ** 2, abs=1e-10)


def test_tail_to_markov_matches_on_cylinders(fib):
    tm = stationary_tail_measure(fib)
    mk = tail_to_markov(tm)
    for n in range(1, 5):
        for p in enumerate_paths(fib, n):
            assert mk.value(p) == pytest.approx(tm.value(p), abs=1e-12)


def test_tail_to_markov_nonstationary(allones2):
    vectors = [{0: 2.0 ** (-n - 1), 1: 2.0 ** (-n - 1)} for n in range(5)]
    tm = tail_measure_from_vectors(allones2, vectors)
    mk = tail_to_markov(tm, n_levels=4)
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
    mk = tail_to_markov(tm, n_levels=7)
    x = parse_path_literal("0-0-0-0-0-0", allones2)
    report = pm.nonstationary_shift_product(mk, x, 4)
    assert report.converges_to_one
    assert report.qp0_residual < 1e-12


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


def test_ifs_sampling_requires_start_when_infinite(allones2):
    nu = ifs_measure(allones2, SYMMETRIC_P)
    nu.total_mass = math.inf
    with pytest.raises(pm.InfiniteMass):
        sample_path(nu, 3, seed=0)
    p = sample_path(nu, 3, seed=0, start=1)
    assert p.start == 1


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
