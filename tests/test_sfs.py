import math

import pytest

import pathmeas as pm
from pathmeas import (
    Edge,
    build_sfs,
    ck_matrix,
    parse_path_literal,
    preimage_count,
    quasi_stationary_test,
    rn_derivative,
    stationary_tail_measure,
    tail_measure_from_vectors,
    tail_to_markov,
)

PHI = (1 + math.sqrt(5)) / 2


def test_build_fib_lambda_sets(fib):
    sfs = build_sfs(fib)
    assert sfs.edges == [(0, 0), (0, 1), (1, 0)]
    assert sfs.lambda_sets[(0, 0)] == ((0, 0), (0, 1))
    assert sfs.lambda_sets[(0, 1)] == ((1, 0),)
    assert sfs.lambda_sets[(1, 0)] == ((0, 0), (0, 1))


def test_build_rejects_multi_edge():
    spec = pm.diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 1},
        "matrices": [{"triplets": [[0, 0, 2]]}],
    })
    with pytest.raises(pm.NotZeroOne):
        build_sfs(spec)


def test_ck_matrix_allones(allones2):
    ck = ck_matrix(build_sfs(allones2))
    assert ck.matrix.shape == (4, 4)
    assert list(ck.matrix.sum(axis=1)) == [2, 2, 2, 2]


def test_ck_matrix_fib(fib):
    ck = ck_matrix(build_sfs(fib))
    assert ck.matrix.shape == (3, 3)
    assert list(ck.matrix.sum(axis=1)) == [2, 1, 2]


def test_rn_tail_constant(allones2, fib):
    for spec, lam in ((allones2, 2.0), (fib, PHI)):
        m = stationary_tail_measure(spec)
        x = parse_path_literal("0-" + "0-" * 7 + "0", spec)
        report = rn_derivative(m, Edge(0, 1, 0), x, depth=8)
        assert report.converged
        assert report.limit == pytest.approx(1.0 / lam, abs=1e-10)
        assert max(report.sequence) - min(report.sequence) < 1e-12


def test_rn_markov_closed_form(fib):
    tm = stationary_tail_measure(fib)
    mk = tail_to_markov(tm)
    x = parse_path_literal("0-0-0-0-0-0-0-0-0", fib)
    e = Edge(0, 1, 0)
    report = rn_derivative(mk, e, x, depth=8)
    expected = mk.q[e.source] * mk.transition(e) / mk.q[x.start]
    assert report.converged
    assert report.limit == pytest.approx(expected, abs=1e-12)


def test_rn_rejects_wrong_start(fib):
    m = stationary_tail_measure(fib)
    x = parse_path_literal("1-0-0", fib)
    with pytest.raises(pm.DomainViolation):
        rn_derivative(m, Edge(0, 1, 0), x, depth=2)
    with pytest.raises(pm.TooShort):
        rn_derivative(m, Edge(0, 0, 1), x, depth=5)


def test_quasi_stationary_stationary_measure(allones2):
    m = stationary_tail_measure(allones2)
    x = parse_path_literal("0-0-0-0-0-0-0", allones2)
    report = quasi_stationary_test(m, x, n_terms=5)
    assert report.verdict
    assert all(p == pytest.approx(1.0, abs=1e-12) for p in report.partials)


def test_quasi_stationary_nonstationary(allones2):
    # uneven top level, then back-fill so A mu^(n+1) = mu^(n) holds exactly
    vectors = [{0: 0.3 * 2.0 ** (-8), 1: 0.7 * 2.0 ** (-8)}]
    for _ in range(7):
        s = vectors[0][0] + vectors[0][1]
        vectors.insert(0, {0: s, 1: s})
    tm = tail_measure_from_vectors(allones2, vectors, tol=1e-12)
    mk = tail_to_markov(tm, n_levels=7)
    x = parse_path_literal("0-0-0-0-0-0-0", allones2)
    report = quasi_stationary_test(mk, x, n_terms=4, tol=1e-6)
    assert report.bounds == (1e-6, 1e6)
    assert report.verdict


def test_quasi_stationary_past_stored_tables(allones2):
    vectors = [{0: 2.0 ** (-n - 1), 1: 2.0 ** (-n - 1)} for n in range(3)]
    tm = tail_measure_from_vectors(allones2, vectors)
    x = parse_path_literal("0-0-0-0-0-0", allones2)
    with pytest.raises(pm.MeasureError, match="level 2"):
        quasi_stationary_test(tm, x, n_terms=4)


def test_preimage_count(fib):
    x = parse_path_literal("0-0", fib)
    assert preimage_count(fib, x) == 2
    y = parse_path_literal("1-0", fib)
    assert preimage_count(fib, y) == 1
