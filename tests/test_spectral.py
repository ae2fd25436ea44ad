import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import pathmeas as pm
from pathmeas import perron_eigenpair, solve_harmonic, stationary_distribution
from pathmeas.spectral import recurrent_classes

PHI = (1 + math.sqrt(5)) / 2


def finite_matrix(f):
    """IncidenceMatrix of a dense count array F (entry F[v, w]: w -> v)."""
    n = f.shape[0]
    m = pm.IncidenceMatrix("finite", entries={
        (v, w): int(f[v, w]) for v in range(n) for w in range(n) if f[v, w]})
    m.size = n
    return m


def assert_bracketed(pair):
    lo, hi = pair.bracket
    assert lo <= pair.lam <= hi
    assert hi - lo <= 1e-8 * hi


def test_allones_eigenpair(allones2):
    pair = perron_eigenpair(allones2.matrix(0))
    assert abs(pair.lam - 2.0) < 1e-12
    assert abs(pair.t[0] - 0.5) < 1e-12
    assert abs(pair.t[1] - 0.5) < 1e-12
    assert pair.residual < 1e-12
    assert pair.normalization == "sum-one"
    assert pair.summable == "yes"


def test_fib_eigenpair(fib):
    pair = perron_eigenpair(fib.matrix(0))
    assert abs(pair.lam - PHI) < 1e-10
    assert abs(pair.t[0] / pair.t[1] - PHI) < 1e-9
    assert abs(pair.t[0] + pair.t[1] - 1.0) < 1e-12
    assert_bracketed(pair)
    assert pair.bracket[0] - 1e-15 <= PHI <= pair.bracket[1] + 1e-15


def test_eigen_residual_recomputed_independently(fib):
    pair = perron_eigenpair(fib.matrix(0))
    verts = fib.vertices()
    a = fib.matrix(0).to_dense(verts, verts).T
    t = pair.vector(verts)
    residual = float(np.max(np.abs(a @ t - pair.lam * t)) / pair.lam)
    assert abs(residual - pair.residual) < 1e-14


def test_eigen_trace_is_decreasing(fib):
    pair = perron_eigenpair(fib.matrix(0))
    assert pair.trace
    residuals = [r for _, r in pair.trace]
    assert residuals[-1] < residuals[0]


def test_reducible_raises():
    # F = [[2,0],[1,1]]: the dominant eigenvector of A = F^T is supported
    # on vertex 0 only
    f = pm.IncidenceMatrix("finite", entries={(0, 0): 2, (1, 0): 1, (1, 1): 1})
    with pytest.raises(pm.ReducibleSuspected):
        perron_eigenpair(f)


def test_tri_z_eigenpair(tri_z):
    pair = perron_eigenpair(tri_z.matrix(0))
    assert abs(pair.lam - 3.0) < 1e-10
    t = np.array(list(pair.t.values()))
    assert np.max(np.abs(t - 1.0)) < 1e-10
    assert pair.summable == "no"
    assert pair.normalization == "sup-one"
    assert pair.window is not None
    assert pair.bracket is None


def test_tri_z_small_window(tri_z):
    pair = perron_eigenpair(tri_z.matrix(0), window=8)
    assert abs(pair.lam - 3.0) < 1e-10


@st.composite
def stencils(draw):
    """A random stencil on the integers or the naturals: offsets -3..3,
    counts 0..3 (so possibly no edge at all)."""
    domain = draw(st.sampled_from([pm.INTEGERS, pm.NATURALS]))
    counts = draw(st.lists(st.integers(0, 3), min_size=7, max_size=7))
    return pm.IncidenceMatrix(domain, stencil=dict(zip(range(-3, 4), counts)))


@settings(max_examples=100, deadline=None)
@given(stencils(), st.integers(0, 10))
def test_stencil_pair_closed_form(f, window):
    c = f.stencil
    if not c:
        with pytest.raises(pm.DegenerateSolution):
            perron_eigenpair(f, window)
        return
    pair = perron_eigenpair(f, window)
    lam = sum(c.values())
    assert pair.lam == lam
    assert list(pair.t) == f.vertices(window)
    assert (pair.window, pair.iterations, pair.trace) == (window, 0, [])
    assert (pair.normalization, pair.summable, pair.bracket) == ("sup-one", "no", None)
    # (A t)_w = sum_d c_d t_{w+d}, summed on every row whose stencil stays
    # in the window (on the naturals that leaves out rows near 0 when an
    # offset is negative)
    for w in pair.t:
        if all(w + d in pair.t for d in c):
            assert sum(n * pair.t[w + d] for d, n in c.items()) == lam * pair.t[w]
    lost = sum(n for d, n in c.items() if d < 0) if f.domain == pm.NATURALS else 0
    assert pair.residual == lost / lam


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_perron_dominates_row_bounds(entries):
    # the Perron root lies between the min and max column sums of F^T
    f = pm.IncidenceMatrix("finite", entries={
        (0, 0): entries[0], (0, 1): entries[1],
        (1, 0): entries[2], (1, 1): entries[3]})
    pair = perron_eigenpair(f)
    a = np.array(entries, dtype=float).reshape(2, 2).T
    sums = a.sum(axis=1)
    assert sums.min() - 1e-9 <= pair.lam <= sums.max() + 1e-9


@st.composite
def irreducible_counts(draw):
    """Random irreducible F on 2-6 vertices: the cycle w -> w+1 (mod n) plus
    random edges, all from class w % p to class (w + 1) % p for a period p
    dividing n, so p > 1 gives a periodic matrix."""
    n = draw(st.integers(2, 6))
    p = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    f = np.zeros((n, n))
    for v in range(n):
        for w in range(n):
            if v == (w + 1) % n:
                f[v, w] = draw(st.integers(1, 3))
            elif v % p == (w + 1) % p:
                f[v, w] = draw(st.integers(0, 3))
    return f


@settings(max_examples=100, deadline=None)
@given(irreducible_counts())
def test_perron_matches_eigvals(f):
    pair = perron_eigenpair(finite_matrix(f))
    rho = float(np.max(np.abs(np.linalg.eigvals(f.T))))
    assert abs(pair.lam - rho) <= 1e-9 * rho
    assert_bracketed(pair)
    lo, hi = pair.bracket
    assert lo - 1e-12 * hi <= rho <= hi + 1e-12 * hi
    t = pair.vector(range(f.shape[0]))
    assert np.all(t > 0) and abs(np.sum(t) - 1.0) < 1e-12


def test_periodic_converges_to_sqrt2():
    # F = [[0,2],[1,0]]: A = F^T has eigenvalues +-sqrt(2), so plain power
    # iteration oscillates; A + I does not
    pair = perron_eigenpair(finite_matrix(np.array([[0, 2], [1, 0]])))
    assert abs(pair.lam - math.sqrt(2)) <= 1e-12 * math.sqrt(2)
    assert pair.iterations < 100
    assert_bracketed(pair)


@pytest.mark.parametrize("entries", [{(0, 1): 1}, {}])
def test_nilpotent_level_is_degenerate_at_once(entries):
    # no cycle in the level graph: A is nilpotent and has no Perron vector;
    # max_iter=1 shows that no iteration runs before the error
    f = pm.IncidenceMatrix("finite", entries=entries)
    with pytest.raises(pm.DegenerateSolution):
        perron_eigenpair(f, max_iter=1)


def test_large_sparse_level_agrees_with_bracket():
    # a primitive 2000-vertex level: the cycle, a self-loop at every vertex
    # and two random sources per row; the bracket is recomputed with scipy
    rng = np.random.default_rng(2000)
    n = 2000
    entries = {}
    for v in range(n):
        entries[(v, (v - 1) % n)] = int(rng.integers(1, 4))
        entries[(v, v)] = int(rng.integers(1, 4))
        for w in rng.choice(n, size=2, replace=False):
            entries.setdefault((v, int(w)), int(rng.integers(1, 4)))
    pair = perron_eigenpair(pm.IncidenceMatrix("finite", entries=entries))
    assert_bracketed(pair)
    v, w = zip(*entries)
    a = coo_matrix((list(entries.values()), (w, v)), shape=(n, n)).tocsr()
    t = pair.vector(range(n))
    ratios = (a @ t) / t
    assert ratios.min() == pytest.approx(pair.bracket[0], rel=1e-13)
    assert ratios.max() == pytest.approx(pair.bracket[1], rel=1e-13)
    assert pair.residual < 1e-12


def test_trace_rows_are_residuals_of_a():
    # the finite solver iterates on A + I; each trace row must still be
    # A's residual |A s - lam s| / lam with lam = mu - 1, not a shifted one
    f = np.array([[0, 1, 2], [3, 0, 1], [0, 2, 1]])
    pair = perron_eigenpair(finite_matrix(f))
    a = f.T.astype(float)
    t = np.full(3, 1 / 3)
    for k, res in pair.trace:
        m_t = a @ t + t
        mu = np.sum(m_t)
        s = m_t / mu
        expected = np.max(np.abs(a @ s - (mu - 1) * s)) / (mu - 1)
        assert res == pytest.approx(expected, rel=1e-6, abs=1e-15)
        t = s
    assert pair.trace[-1][1] < 1e-10


def test_solve_harmonic_symmetric():
    h = solve_harmonic(np.full((2, 2), 0.5))
    assert np.allclose(h.q, [1.0, 1.0], atol=1e-12)
    assert h.residual < 1e-12
    assert abs(h.total_mass - 2.0) < 1e-12


def test_solve_harmonic_degenerate():
    with pytest.raises(pm.DegenerateSolution):
        solve_harmonic(np.full((2, 2), 0.25))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0))
def test_harmonic_residual_scale_invariant(scale):
    # Mq = q residual is reported for the sup-one q, invariant under
    # rescaling the start; a doubly-degenerate rescaled M must fail
    m = np.array([[0.3, 0.7], [0.6, 0.4]])
    h = solve_harmonic(m)
    assert h.residual < 1e-12
    if abs(scale - 1.0) > 0.05:
        with pytest.raises(pm.DegenerateSolution):
            solve_harmonic(scale * m)


def numpy_perron_vector(m):
    """Sup-one eigenvector of the real eigenvalue of largest modulus (the
    Perron root), from numpy's dense eigensolver."""
    vals, vecs = np.linalg.eig(m)
    v = np.abs(vecs[:, np.argmax(vals.real)].real)
    return v / v.max()


@st.composite
def irreducible_unit_radius(draw):
    """A random irreducible nonnegative matrix scaled to spectral radius 1:
    a weighted n-cycle (periodic when nothing else is added) plus random
    entries."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.zeros((n, n))
    m[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.2, 5.0, n)
    if not draw(st.booleans()):
        m += rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    return m / np.max(np.abs(np.linalg.eigvals(m)))


@settings(max_examples=200, deadline=None)
@given(irreducible_unit_radius(), st.floats(0.1, 10.0).filter(lambda s: abs(s - 1) >= 0.05))
def test_solve_harmonic_certificate(m, scale):
    h = solve_harmonic(m)
    assert np.all(h.q > 0) and h.q.max() == 1.0
    assert np.max(np.abs(m @ h.q - h.q)) <= 1e-12
    assert h.residual == np.max(np.abs(m @ h.q - h.q))
    # the bracket is recomputable and holds rho = 1 (to the rounding of the
    # scaled matrix)
    ratios = (m @ h.q) / h.q
    assert h.bracket == (ratios.min(), ratios.max())
    assert h.bracket[0] - 1e-13 <= 1.0 <= h.bracket[1] + 1e-13
    assert np.max(np.abs(h.q - numpy_perron_vector(m))) <= 1e-10
    with pytest.raises(pm.DegenerateSolution, match="spectral radius"):
        solve_harmonic(scale * m)


def test_solve_harmonic_periodic_at_once():
    # periodic: eigenvalues +-1, so no power iteration converges here
    h = solve_harmonic(np.array([[0, 0.5], [2, 0]]))
    assert np.allclose(h.q, [0.5, 1.0], rtol=0, atol=1e-15)
    assert h.residual <= 1e-15


def test_solve_harmonic_nilpotent_is_degenerate():
    with pytest.raises(pm.DegenerateSolution, match="spectral radius 0 "):
        solve_harmonic(np.array([[0, 1], [0, 0]]))


def test_solve_harmonic_reducible_radius_one_without_positive_vector():
    # rho = 1, but every fixed vector vanishes on vertex 1
    with pytest.raises(pm.DegenerateSolution, match="no strictly positive"):
        solve_harmonic(np.array([[1, 1], [0, 0.5]]))


def test_solve_harmonic_root_one_class_that_is_not_final_is_degenerate():
    # the block on {0, 1} has root 1 but feeds vertex 2, so I - M_TT is singular
    m = np.array([[0.5, 0.5, 0.1], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(pm.DegenerateSolution, match="no strictly positive"):
        solve_harmonic(m)


@pytest.mark.parametrize("m", [np.eye(3), np.kron(np.eye(2), np.full((2, 2), 0.5))])
def test_solve_harmonic_several_fixed_directions_give_all_ones(m):
    # each final class contributes its sup-one fixed vector
    h = solve_harmonic(m)
    assert np.allclose(h.q, 1.0, rtol=0, atol=1e-14)
    assert h.residual <= 1e-14


def test_solve_harmonic_several_final_classes_feeding_a_transient_vertex():
    # fixed space {(a, b, 20a + 4b)}: its least-norm point with sum 1 has a
    # negative first entry, but the positive (1, 1, 24) exists
    h = solve_harmonic(np.array([[1, 0, 0], [0, 1, 0], [10, 2, 0.5]]))
    assert np.allclose(h.q, np.array([1, 1, 24]) / 24, rtol=0, atol=1e-15)
    assert h.residual <= 1e-15 and h.bracket == (1.0, 1.0)


@st.composite
def reducible_with_positive_fixed_vector(draw):
    """A reducible nonnegative matrix with a strictly positive fixed vector,
    vertices shuffled, and that vector built class by class with numpy's
    eigensolver: final irreducible blocks scaled to root 1, the other
    vertices a block of root 0.9 each of whose rows reaches a final class
    directly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n_rest = draw(st.integers(0, 3))
    n_final = sum(sizes)
    n = n_final + n_rest
    m = np.zeros((n, n))
    q = np.zeros(n)
    at = 0
    for k in sizes:
        block = rng.uniform(0.1, 1.0, (k, k))
        m[at:at + k, at:at + k] = block / np.max(np.abs(np.linalg.eigvals(block)))
        q[at:at + k] = numpy_perron_vector(m[at:at + k, at:at + k])
        at += k
    if n_rest:
        rest = slice(n_final, n)
        block = rng.uniform(0.0, 1.0, (n_rest, n_rest))
        m[rest, rest] = 0.9 * block / np.max(np.abs(np.linalg.eigvals(block)))
        m[rest, :n_final] = rng.uniform(0.0, 2.0, (n_rest, n_final)) * (
            rng.random((n_rest, n_final)) < 0.5)
        m[np.arange(n_final, n), rng.integers(0, n_final, n_rest)] += 1.0
        q[rest] = np.linalg.solve(np.eye(n_rest) - m[rest, rest], m[rest, :n_final] @ q[:n_final])
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)], q[perm] / q.max()


@settings(max_examples=200, deadline=None)
@given(reducible_with_positive_fixed_vector())
def test_solve_harmonic_reducible_certificate(case):
    m, expected = case
    h = solve_harmonic(m)
    assert np.all(h.q > 0) and h.q.max() == 1.0
    assert np.max(np.abs(m @ h.q - h.q)) <= 1e-12
    assert h.bracket[0] - 1e-13 <= 1.0 <= h.bracket[1] + 1e-13
    assert np.max(np.abs(h.q - expected)) <= 1e-10


@pytest.mark.parametrize("m", [
    np.full((2, 3), 1 / 3), np.array([0.5, 0.5]), np.ones((2, 2, 2)), np.zeros((0, 0)),
    np.array([[np.nan, 1.0], [1.0, 0.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.5, -0.5], [0.0, 1.0]]), [[1, "a"], [0, 1]], [[1.0], [0.5, 0.5]],
])
@pytest.mark.parametrize("solver", [solve_harmonic, stationary_distribution])
def test_solvers_require_finite_nonnegative_square_matrix(solver, m):
    with pytest.raises(pm.SolverError, match="matrix"):
        solver(m)


def test_stationary_distribution_oracle():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    sd = stationary_distribution(p)
    assert abs(sd.q[0] - 5 / 6) < 1e-12
    assert abs(sd.q[1] - 1 / 6) < 1e-12
    assert not sd.non_unique
    assert sd.residual < 1e-12


def test_stationary_distribution_non_unique():
    sd = stationary_distribution(np.eye(2))
    assert sd.non_unique
    assert np.allclose(sd.q, [0.5, 0.5])


def test_stationary_distribution_rejects_substochastic():
    with pytest.raises(pm.NotStochastic):
        stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.floats(0.05, 0.9), st.integers(0, 2**32 - 1))
def test_recurrent_classes_match_scipy(n, density, seed):
    """Closed strong components of random stochastic matrices, against
    scipy's components as an independent reference, in the documented
    order: by smallest member, members sorted."""
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) * (rng.random((n, n)) < density)
    p[np.arange(n), rng.integers(0, n, n)] += 0.5      # every row gets mass
    p /= p.sum(axis=1, keepdims=True)
    count, labels = connected_components(coo_matrix(p > 0), directed=True,
                                         connection="strong")
    rows, cols = np.nonzero(p > 0)
    leaving = set(labels[rows][labels[rows] != labels[cols]].tolist())
    expected = sorted(np.flatnonzero(labels == c).tolist()
                      for c in range(count) if c not in leaving)
    assert [c.tolist() for c in recurrent_classes(p)] == expected


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_perron_rejects_tolerance_never_met(fib, tri_z, tol):
    # tol = -1, 0 or NaN once ran 100,000 iterations into NoConvergence,
    # itself a SolverError: the message tells the two apart
    for spec in (fib, tri_z):
        with pytest.raises(pm.SolverError, match="tol"):
            perron_eigenpair(spec.matrix(0), tol=tol)
    with pytest.raises(pm.SolverError, match="tol"):
        pm.stationary_tail_measure(fib, tol=tol)
