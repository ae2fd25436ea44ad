import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import pathmeas as pm
from pathmeas import perron_eigenpair, solve_harmonic, stationary_distribution
from pathmeas.diagram import strong_components
from pathmeas.spectral import DEFAULT_TOL, SQUARED_START_LIMIT, recurrent_classes

PHI = (1 + math.sqrt(5)) / 2
FIB = np.array([[1, 1], [1, 0]])
QUAD4 = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])


def finite_matrix(f):
    """IncidenceMatrix of a dense count array F (entry F[v, w]: w -> v)."""
    n = f.shape[0]
    m = pm.IncidenceMatrix("finite", entries={
        (v, w): int(f[v, w]) for v in range(n) for w in range(n) if f[v, w]})
    m.size = n
    return m


def uniform_start_level():
    """A primitive level one vertex above SQUARED_START_LIMIT, where the
    iteration still starts from the uniform vector: the cycle w -> w+1,
    a self-loop at 0 and a chord w -> w+5, counts 1-3."""
    n = SQUARED_START_LIMIT + 1
    rng = np.random.default_rng(n)
    f = np.zeros((n, n), dtype=int)
    f[(np.arange(n) + 1) % n, np.arange(n)] = rng.integers(1, 4, n)
    f[(np.arange(n) + 5) % n, np.arange(n)] = rng.integers(1, 4, n)
    f[0, 0] = 1
    return f


def assert_trace_of_iterates(f, pair, t):
    """Each trace row is A's residual |A s - lam s| / lam, lam = mu - 1, of
    the iterate s = (A + I) t / mu from the previous one, t the start; not
    the residual of the shifted A + I."""
    a = f.T.astype(float)
    for k, res in pair.trace:
        m_t = a @ t + t
        mu = np.sum(m_t)
        s = m_t / mu
        expected = np.max(np.abs(a @ s - (mu - 1) * s)) / (mu - 1)
        assert res == pytest.approx(expected, rel=1e-6, abs=1e-15)
        t = s


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


def test_eigen_trace_is_decreasing():
    pair = perron_eigenpair(finite_matrix(uniform_start_level()))
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
    assert (pair.normalization, pair.bracket) == ("sup-one", None)
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
    """Random irreducible F on 2-24 vertices, so on both sides of
    SQUARED_START_LIMIT: the cycle w -> w+1 (mod n) plus random edges, all
    from class w % p to class (w + 1) % p for a period p dividing n, so
    p > 1 gives a periodic matrix."""
    n = draw(st.integers(2, 24))
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
    # A's residual, here from the uniform start of a level above the limit
    f = uniform_start_level()
    pair = perron_eigenpair(finite_matrix(f))
    assert len(pair.trace) > 10
    assert_trace_of_iterates(f, pair, np.full(f.shape[0], 1 / f.shape[0]))
    assert pair.trace[-1][1] < 1e-10


@pytest.mark.parametrize("f", [FIB, QUAD4], ids=["fib", "quad4"])
def test_small_level_starts_from_squared_powers(f):
    # up to SQUARED_START_LIMIT vertices the start is the Perron vector to
    # rounding, accepted on its certificate with no step: a bracket as
    # narrow as the arithmetic allows
    pair = perron_eigenpair(finite_matrix(f))
    assert pair.iterations == 0 and pair.trace == []
    vals, vecs = np.linalg.eig(f.T.astype(float))
    perron = np.abs(vecs[:, np.argmax(vals.real)].real)
    assert np.max(np.abs(pair.vector(range(f.shape[0])) - perron / perron.sum())) <= 1e-14
    lo, hi = pair.bracket
    assert lo <= pair.lam <= hi and hi - lo <= 1e-14 * pair.lam
    assert abs(pair.lam - np.max(vals.real)) <= 1e-14 * pair.lam


@st.composite
def small_irreducible_levels(draw):
    """Random sparse irreducible F of at most SQUARED_START_LIMIT vertices:
    either a circulant F[(w + d) % n, w] = c_d on at most three offsets,
    d = 1 among them, whose columns have equal sums, so that the uniform
    vector is the Perron vector; or the weighted cycle w -> w+1 (mod n)
    plus at most n edges from class w % p to class (w + 1) % p, p a
    divisor of n, so p > 1 gives a periodic level."""
    n = draw(st.integers(2, SQUARED_START_LIMIT))
    w = np.arange(n)
    f = np.zeros((n, n), dtype=int)
    if draw(st.booleans()):
        for d in draw(st.sets(st.integers(0, n - 1), max_size=2)) | {1}:
            f[(w + d) % n, w] += draw(st.integers(1, 2))
        return f
    p = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    f[(w + 1) % n, w] = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, n))):
        source = draw(st.integers(0, n - 1))
        target = (source + 1) % p + p * draw(st.integers(0, n // p - 1))
        f[target, source] = draw(st.integers(1, 3))
    return f


@settings(max_examples=200, deadline=None)
@given(small_irreducible_levels())
@example(np.ones((2, 2), dtype=int))
def test_small_level_pair_accepted_on_its_certificate(f):
    n = f.shape[0]
    spec = pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": n},
        "matrices": [{"triplets": [[v, w, int(f[v, w])] for v, w in zip(*np.nonzero(f))]}]})
    pair = perron_eigenpair(spec.matrix(0))
    lo, hi = pair.bracket
    assert lo <= pair.lam <= hi and hi - lo <= 1e-14 * pair.lam
    rho = float(np.max(np.abs(np.linalg.eigvals(f.T.astype(float)))))
    assert abs(pair.lam - rho) <= 1e-14 * rho
    a = f.T.astype(float)
    t = pair.vector(range(n))
    assert abs(pair.residual - np.max(np.abs(a @ t - pair.lam * t)) / pair.lam) <= 1e-15
    # the tail measure's Kolmogorov identities hold to IDENTITY_TOL only
    # when A t = lam t does to about that
    report = pm.check_kolmogorov(pm.stationary_tail_measure(spec), 4)
    assert report.holds, report


def test_weighted_four_cycle_bracket_at_rounding():
    # A + I has complex subdominant eigenvalues, so the residual-based
    # polish once stopped with a bracket 1.43e-9 wide and lam off by 2e-10;
    # lam^4 is the cycle's weight, 2 * 1 * 2 * 3
    f = np.array([[0, 0, 0, 2], [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0]])
    pair = perron_eigenpair(finite_matrix(f))
    lo, hi = pair.bracket
    assert hi - lo < 1e-14
    assert abs(pair.lam - 12 ** 0.25) <= 1e-14 * 12 ** 0.25


def test_long_weighted_cycle_bracket_within_tol():
    # above SQUARED_START_LIMIT the uniform iteration met its residual tol
    # with a bracket ~5e-9 wide; it now steps on while the bracket is wider
    # than tol lam; lam^17 is the cycle's weight 3^4
    n = 17
    f = np.zeros((n, n), dtype=int)
    f[(np.arange(n) + 1) % n, np.arange(n)] = [1] * 13 + [3] * 4
    pair = perron_eigenpair(finite_matrix(f))
    lo, hi = pair.bracket
    assert lo <= pair.lam <= hi and hi - lo <= 1e-10 * hi
    assert abs(pair.lam - 3 ** (4 / n)) <= 1e-10 * pair.lam


JORDAN = np.array([[1, 0], [1, 1]])     # A = F^T: the double root 1, no positive eigenvector


def test_jordan_block_raises_at_once():
    # the power loop once returned lam = 1.0000067 here after 68,924 steps,
    # with a bracket ~66,000 times tol lam wide
    start = time.perf_counter()
    with pytest.raises(pm.ReducibleSuspected):
        perron_eigenpair(finite_matrix(JORDAN))
    assert time.perf_counter() - start < 0.1


def test_reducible_level_with_a_positive_pair_keeps_it():
    # A = [[1,1],[0,2]] is reducible, yet its Perron vector (1, 1) is positive
    pair = perron_eigenpair(finite_matrix(np.array([[1, 0], [1, 2]])))
    assert pair.lam == 2.0 and pair.t == {0: 0.5, 1: 0.5} and pair.iterations == 0


def test_reducible_level_above_the_limit_raises():
    # vertex 0 has a loop of 10 and leads into a 16-cycle that cannot reach
    # it: the Perron vector lives on vertex 0 alone
    entries = {(0, 0): 10, (1, 0): 1}
    entries.update({(1 + w % 16, w): 1 for w in range(1, 17)})
    with pytest.raises(pm.ReducibleSuspected):
        perron_eigenpair(pm.IncidenceMatrix("finite", entries=entries))


def test_no_convergence_names_the_bracket():
    with pytest.raises(pm.NoConvergence, match=r"in 5 steps: bracket \[\S+, \S+\]"):
        perron_eigenpair(finite_matrix(uniform_start_level()), max_iter=5)


def test_certified_solve_with_a_self_loop_reads_no_components(monkeypatch):
    # has_cycle stops at the self-loop and the component count is read only
    # where a certificate fails, so a certified solve runs no Tarjan pass
    calls = []

    def counted(*args):
        calls.append(args)
        return strong_components(*args)

    monkeypatch.setattr(pm.diagram, "strong_components", counted)
    for f in (FIB, uniform_start_level()):      # the squared start; the loop
        assert np.diagonal(f).any()          # a self-loop
        perron_eigenpair(finite_matrix(f))
    assert calls == []
    with pytest.raises(pm.ReducibleSuspected):      # the counter sees a failed one
        perron_eigenpair(finite_matrix(JORDAN))
    assert len(calls) == 1


def cycle_block(draw, n):
    """Irreducible n x n counts: the weighted cycle w -> w+1 (mod n) plus at
    most n random chords, counts 1-3."""
    f = np.zeros((n, n), dtype=int)
    f[(np.arange(n) + 1) % n, np.arange(n)] = draw(st.lists(st.integers(1, 3),
                                                            min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, n))):
        f[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
    return f


@st.composite
def finite_levels(draw):
    """(F, irreducible): an irreducible level of 2-8 or of 17-40 vertices,
    or a block-triangular one of 2-8 vertices whose 2-4 classes are chained
    by edges from each class to the next; the classes are often one block
    repeated, so of equal root (Jordan-like).  Vertices are permuted."""
    kind = draw(st.sampled_from(["small", "large", "triangular"]))
    if kind != "triangular":
        f = cycle_block(draw, draw(st.integers(2, 8) if kind == "small" else st.integers(17, 40)))
    else:
        m = draw(st.integers(1, 4))
        k = draw(st.integers(2, 8 // m))
        block = cycle_block(draw, m)
        f = np.zeros((m * k, m * k), dtype=int)
        for i in range(k):
            f[i * m:(i + 1) * m, i * m:(i + 1) * m] = \
                block if draw(st.booleans()) else cycle_block(draw, m)
            if i:
                f[i * m + draw(st.integers(0, m - 1)),
                  (i - 1) * m + draw(st.integers(0, m - 1))] = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(f.shape[0])))
    return f[np.ix_(perm, perm)], kind != "triangular"


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k
    rounded operations (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    u = 2.0 ** -53
    return k * u / (1 - k * u)


@settings(max_examples=150, deadline=None)
@given(finite_levels())
@example((JORDAN, False))
@example((np.array([[2, 0], [1, 1]]), False))
@example((np.array([[1, 0], [1, 2]]), False))
def test_returned_pair_meets_its_certificate(level):
    f, irreducible = level
    n = f.shape[0]
    try:
        pair = perron_eigenpair(finite_matrix(f))
    except (pm.ReducibleSuspected, pm.NoConvergence):
        assert not irreducible
        return
    lo, hi = pair.bracket
    assert lo <= pair.lam <= hi and hi - lo <= DEFAULT_TOL * pair.lam
    assert pair.residual < DEFAULT_TOL
    # the bracket again, from an independent dense product: a row of n terms
    # each side, then a subtraction and a division each
    t = pair.vector(range(n))
    assert np.all(t > 0) and abs(np.sum(t) - 1.0) < 1e-12
    ratios = (f.T.astype(float) @ t) / t
    allowance = gamma(2 * n + 6) * hi
    assert abs(ratios.min() - lo) <= allowance and abs(ratios.max() - hi) <= allowance
    if irreducible:
        rho = float(np.max(np.abs(np.linalg.eigvals(f.T.astype(float)))))
        assert lo - 1e-9 * rho <= rho <= hi + 1e-9 * rho


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


@st.composite
def sparse_unit_radius(draw):
    """A random irreducible sparse nonnegative matrix of 32-256 vertices
    scaled to spectral radius 1: a weighted n-cycle plus 1-3 random entries
    a row."""
    n = draw(st.integers(32, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.zeros((n, n))
    m[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.2, 5.0, n)
    for _ in range(draw(st.integers(1, 3))):
        m[np.arange(n), rng.integers(0, n, n)] += rng.uniform(0.0, 1.0, n)
    return m / np.max(np.abs(np.linalg.eigvals(m)))


@settings(max_examples=30, deadline=None)
@given(sparse_unit_radius())
def test_solve_harmonic_on_wide_sparse_levels(m):
    # one LU solve of the bordered system, certified, is numpy's eigenvector
    h = solve_harmonic(m)
    assert np.all(h.q > 0) and h.q.max() == 1.0
    assert h.residual == np.max(np.abs(m @ h.q - h.q)) <= 1e-13
    assert np.max(np.abs(h.q - numpy_perron_vector(m))) <= 1e-9


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


def test_solve_harmonic_overflow_typed():
    # the least-squares solve overflowed, or underflowed to 0, and the
    # harmonic solver then divided 0 / 0 with a RuntimeWarning
    with pytest.raises(pm.SolverError, match="overflows"):
        solve_harmonic([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(pm.DegenerateSolution, match=r"1e\+200 != 1"):
        solve_harmonic([[1e200, 0.0], [0.0, 1e200]])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.integers(1, 3), max_size=4 * n),
    st.randoms(use_true_random=False))))
def test_perron_ignores_triplet_order(case):
    # a cycle through every vertex keeps the level irreducible; the
    # products once summed each vertex's terms in the rows' given order
    n, extra, rnd = case
    entries = {((w + 1) % n, w): 1 for w in range(n)} | extra
    rows = [[v, w, c] for (v, w), c in entries.items()]
    shuffled = rnd.sample(rows, len(rows))
    a, b = (perron_eigenpair(pm.diagram_from_dict({
        "kind": "stationary", "vertices": {"type": "finite", "count": n},
        "matrices": [{"triplets": r}]}).matrix(0)) for r in (sorted(rows), shuffled))
    assert (a.lam, a.t, a.bracket, a.residual, a.iterations) == \
        (b.lam, b.t, b.bracket, b.residual, b.iterations)


def test_stationary_distribution_oracle():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    sd = stationary_distribution(p)
    assert abs(sd.q[0] - 5 / 6) < 1e-12
    assert abs(sd.q[1] - 1 / 6) < 1e-12
    assert not sd.non_unique
    assert sd.residual < 1e-12


def exact_stationary(p):
    """The stationary vector of a stochastic p with one recurrent class,
    solved exactly in rationals from p's float entries (each a dyadic
    rational, so Fraction reads it exactly) and rounded once: P^T q = q with
    its last row, the sum of minus the others, replaced by sum(q) = 1."""
    n = p.shape[0]
    a = [[Fraction(p[j, i]) - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n)]
    a[-1] = [Fraction(1)] * (n + 1)
    for col in range(n):                # Gauss-Jordan elimination
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return np.array([float(a[i][n] / a[i][i]) for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**32 - 1))
@example(k=3, n_rest=0, seed=273)   # least squares was 1.13e-14 off here
def test_stationary_class_solve_agrees_with_exact_solve(k, n_rest, seed):
    # one recurrent class of k states (a cycle plus random transitions)
    # and n_rest transient states that each reach it, shuffled
    rng = np.random.default_rng(seed)
    n = k + n_rest
    p = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    p[:k, k:] = 0.0
    p[np.arange(k), (np.arange(k) + 1) % k] += 0.5
    p[np.arange(k, n), rng.integers(0, k, n_rest)] += 0.5
    p /= p.sum(axis=1, keepdims=True)
    perm = rng.permutation(n)
    p = p[np.ix_(perm, perm)]
    sd = stationary_distribution(p)
    assert not sd.non_unique
    assert np.max(np.abs(sd.q - exact_stationary(p))) <= 1e-14


@pytest.mark.parametrize("a, b", [(1e-300, 1e-300), (1e-17, 3e-17), (1e-15, 1e-15)])
def test_stationary_coupling_below_rounding_of_one(a, b):
    # 1 - a rounds to 1 (or nearly), so the diagonal of P - I loses the
    # coupling; the stationary vector is proportional to (b, a)
    sd = stationary_distribution(np.array([[1 - a, a], [b, 1 - b]]))
    assert np.allclose(sd.q, np.array([b, a]) / (a + b), rtol=0, atol=1e-14)


def test_stationary_singular_class_system_is_typed(monkeypatch):
    # a class system is nonsingular unless rounding makes it exactly so;
    # that zero pivot is NoConvergence, with no second solve behind it
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(pm.NoConvergence, match="singular"):
        stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]]))


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
