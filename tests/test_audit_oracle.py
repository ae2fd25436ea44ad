"""The audits against a per-cylinder reference.

The reference functions below are the straightforward audits: each
length is enumerated from level 0, and every cylinder is valued as often
as it appears in an identity.  The level-walking audits must give the
same reports bit for bit, except for the IFS shift prediction and ratio
law, which the audits now read off the Markov form and the reference
took from the IFS weights directly.
"""

from functools import reduce
from operator import add

import pytest

import pathmeas as pm
from pathmeas import (
    FinitePath,
    check_ifs_fixed_point,
    check_kolmogorov,
    check_shift_invariance,
    check_tail_invariance,
    empty_path,
    enumerate_paths,
    ifs_measure,
    markov_measure,
    one_edge_extensions,
    prepend,
    stationary_tail_measure,
)
from pathmeas.measures import (
    IDENTITY_TOL,
    FixedPointReport,
    ShiftInvarianceReport,
    TailInvarianceReport,
)

# ---------------------------------------------------------------------------
# reference audits


def _plain_sum(xs):
    """Left to right from 0.0, as the audits add each block; builtin sum()
    compensates float sums on Python 3.12+ and would differ in the last bit."""
    return reduce(add, xs, 0.0)


def ref_kolmogorov(measure, max_len=5, tol=IDENTITY_TOL, window=None):
    worst, count = 0.0, 0
    for n in range(0, max_len):
        for path in enumerate_paths(measure.diagram, n, window):
            val = measure.value(path)
            ext = _plain_sum(measure.value(x) for x in one_edge_extensions(path, measure.diagram))
            scale = max(abs(val), 1e-300)
            worst = max(worst, abs(ext - val) / scale)
            count += 1
    return FixedPointReport(float(worst), count, bool(worst < tol))


def ref_tail_invariance(measure, n, tol=IDENTITY_TOL, window=None):
    groups = {}
    for path in enumerate_paths(measure.diagram, n, window):
        groups.setdefault(path.end, []).append(measure.value(path))
    spread = float(max(((max(vals) - min(vals)) / max(max(vals), 1e-300)
                        for vals in groups.values()), default=0.0))
    report = TailInvarianceReport(
        n, spread, bool(spread <= tol),
        {v: (float(min(vals)), float(max(vals)), len(vals))
         for v, vals in groups.items()})
    report.ratio_law_deviation = None
    if isinstance(measure, pm.IFSWeights):
        dev = 0.0
        edges = measure.diagram.all_edges(0, window)
        for e in edges:
            for f in edges:
                if e.target == f.target:
                    lhs = measure.value(FinitePath((f,))) / measure.value(FinitePath((e,)))
                    dev = max(dev, abs(lhs - measure.weight(f) / measure.weight(e)))
        report.ratio_law_deviation = dev
    return report


def ref_shift_invariance(measure, max_len=4, tol=IDENTITY_TOL, window=None):
    measure.diagram.require_stationary()
    worst = 0.0
    factors = {}
    for n in range(1, max_len + 1):
        for path in enumerate_paths(measure.diagram, n, window):
            val = measure.value(path)
            if val == 0:
                continue
            pre = _plain_sum(measure.value(prepend(f, path))
                             for f in measure.diagram.edges_into(path.start, 0))
            worst = max(worst, abs(pre - val) / val)
            factors[path.start] = float(pre / val)
    report = ShiftInvarianceReport(float(worst), bool(worst <= tol), factors)
    report.predicted = None
    if isinstance(measure, pm.IFSWeights):
        report.predicted = dict(measure.column_sums)
    return report


def ref_ifs_fixed_point(ifs, max_len=4, tol=IDENTITY_TOL):
    """p_{f_0} nu([f_1..f_n]) against nu([f_0..f_n]), relatively; for one
    edge nu([r(f_0)]) is the sum of the one-edge cylinders from r(f_0)."""
    worst, count = 0.0, 0
    for n in range(1, max_len + 1):
        for path in enumerate_paths(ifs.diagram, n):
            if n > 1:
                rest = ifs.value(FinitePath(tuple(e.at_level(e.level - 1)
                                                  for e in path.edges[1:])))
            else:
                rest = _plain_sum(ifs.value(x) for x in one_edge_extensions(
                    empty_path(path.edges[0].target), ifs.diagram))
            val = ifs.value(path)
            lhs = ifs.weight(path.edges[0]) * rest
            worst = max(worst, abs(lhs - val) / max(abs(val), 1e-300))
            count += 1
    return FixedPointReport(float(worst), count, bool(worst < tol))


# ---------------------------------------------------------------------------
# measures under audit

ASYMMETRIC_P = [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]]
HALF = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
FIB_P = {(0, 0, 0): 0.618, (0, 1, 0): 0.382, (1, 0, 0): 1.0}
# F = [[2, 1], [1, 1]]: two loops at vertex 0
DOUBLE_LOOP = {"kind": "stationary", "vertices": {"type": "finite", "count": 2},
               "matrices": [{"triplets": [[0, 0, 2], [1, 0, 1], [0, 1, 1], [1, 1, 1]]}]}


def _loop_levels():
    """Five level tables that move mass between the loops at vertex 0.  A
    prepended path reads table j + 1 at position j, so the shift audit's
    answer depends on re-leveling.  Each vertex's last out-edge keeps its
    weight on every level, so the last path from each start (the one
    ``factors`` records) still has the factor (qP_0)_v / q_v."""
    return [{(0, 0, 0): a, (0, 0, 1): 0.5 - a, (0, 1, 0): 0.5, (1, 0, 0): 0.4, (1, 1, 0): 0.6}
            for a in (0.1, 0.3, 0.2, 0.4, 0.25)]


@pytest.fixture
def measures(allones2, fib, tri_z):
    """(name, measure, audit window) for every measure the oracle covers."""
    return [
        ("fib tail", stationary_tail_measure(fib), None),
        ("allones tail", stationary_tail_measure(allones2), None),
        ("allones markov", markov_measure(allones2, [0.5, 0.5], HALF), None),
        ("fib markov q=[1,0]", markov_measure(fib, [1.0, 0.0], FIB_P, tol=1e-3), None),
        ("allones ifs", ifs_measure(allones2, ASYMMETRIC_P), None),
        ("tri_z tail", stationary_tail_measure(tri_z), 3),
        ("double loop markov P_levels",
         markov_measure(pm.diagram_from_dict(DOUBLE_LOOP), [0.3, 0.7], _loop_levels()), None),
    ]


def _is_ifs(m):
    return isinstance(m, pm.IFSWeights)


def test_kolmogorov_matches_reference(measures):
    for name, m, window in measures:
        for max_len in (0, 1, 4):
            got = check_kolmogorov(m, max_len, window=window)
            assert got == ref_kolmogorov(m, max_len, window=window), name


def test_ifs_fixed_point_matches_reference(measures):
    for name, m, _window in measures:
        if _is_ifs(m):
            for max_len in (1, 2, 5):
                assert check_ifs_fixed_point(m, max_len) == ref_ifs_fixed_point(m, max_len), name


def test_tail_invariance_matches_reference(measures):
    for name, m, window in measures:
        for n in (0, 1, 3):
            got = check_tail_invariance(m, n, window=window)
            want = ref_tail_invariance(m, n, window=window)
            assert (got.level, got.max_spread, got.tail_invariant, got.groups) == \
                (want.level, want.max_spread, want.tail_invariant, want.groups), name
            if _is_ifs(m):
                assert abs(got.ratio_law_deviation - want.ratio_law_deviation) <= 1e-15, name
            else:
                assert 0.0 <= got.ratio_law_deviation < 1e-12, name


def test_shift_invariance_matches_reference(measures):
    for name, m, window in measures:
        for max_len in (1, 3):
            got = check_shift_invariance(m, max_len, window=window)
            want = ref_shift_invariance(m, max_len, window=window)
            assert (got.max_rel_deviation, got.invariant, got.factors) == \
                (want.max_rel_deviation, want.invariant, want.factors), name
            if _is_ifs(m):
                assert got.predicted.keys() == want.predicted.keys(), name
                for v, x in want.predicted.items():
                    assert abs(got.predicted[v] - x) <= 1e-15, name
            # every one of these measures is a Markov measure, so the
            # measured prepend factor is (qP)_v / q_v at each start vertex
            assert got.predicted.keys() == got.factors.keys(), name
            for v, factor in got.factors.items():
                assert got.predicted[v] == pytest.approx(factor, abs=1e-12), name
