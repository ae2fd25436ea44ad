"""The kernel level code against a per-cylinder reference.

The reference functions below are the straightforward transfer operator:
every atomic cylinder is visited on its own, its transfer is summed edge
by edge, and the fixed-point audit values each cylinder with
``MeasurableIFSMeasure.value``.  The level code must give the same
reports, tables (in the same key order) and distances bit for bit, and
fail with the same error type where the reference fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
from pathmeas import (
    check_ifs_fixed_point_measurable,
    disintegrate,
    edge_measure_from_dict,
    fixed_point_iterate,
    measurable_ifs_measure,
)
from pathmeas.errors import DepthExhausted, MeasureError
from pathmeas.kernel import KERNEL_TOL, IterationResult
from pathmeas.measures import FixedPointReport

# ---------------------------------------------------------------------------
# reference: one cylinder at a time


def ref_atomic_cylinders(cells, max_len):
    out = [[(c,) for c in cells]]
    for _ in range(max_len - 1):
        out.append([t + (c,) for t in out[-1] for c in cells])
    return [t for level in out for t in level]


def ref_transfer(kernel, cyl, lookup):
    x = cyl[0]
    total = 0.0
    for y, p in kernel.rows[x].items():
        if len(cyl) > 1 and y != cyl[1]:
            continue
        total += kernel.marginal[x] * p * lookup((y,) + tuple(cyl[2:])) / kernel.marginal[y]
    return total


def ref_check(m, max_len=3, tol=KERNEL_TOL):
    worst, count = 0.0, 0
    for cyl in ref_atomic_cylinders(list(m.kernel.cells0.cells), max_len):
        total = ref_transfer(m.kernel, cyl, m.value)
        val = m.value(cyl)
        worst = max(worst, abs(total - val) / max(abs(val), 1e-300))
        count += 1
    return FixedPointReport(worst, count, worst < tol)


def ref_iterate(kernel, nu0, iterations):
    depth = max((len(t) for t in nu0), default=0)
    if iterations >= depth:
        raise DepthExhausted(f"{iterations} applications exceed table depth {depth}")
    cells = list(kernel.cells0.cells)
    table = dict(nu0)
    distances = []
    for _ in range(iterations):
        depth -= 1
        new = {cyl: ref_transfer(kernel, cyl, table.__getitem__)
               for cyl in ref_atomic_cylinders(cells, depth)}
        distances.append(max(abs(new[c] - table[c]) for c in new))
        table = new
    return IterationResult(table, distances)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type is what is compared
        return "error", type(exc)


# ---------------------------------------------------------------------------
# random kernels: 1-5 cells, missing pairs, shuffled cells and edge lists


@st.composite
def kernels(draw):
    n = draw(st.integers(1, 5))
    cells = draw(st.permutations([f"c{i}" for i in range(n)]))
    edges = []
    for x in cells:
        # a random nonempty row in a random order: rows keep the edge order
        targets = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=n, unique=True))
        edges += [[x, y, draw(st.floats(0.01, 10.0))] for y in targets]
    edges = draw(st.permutations(edges))
    # the range projection; a proper subset of cells0 when pairs are missing
    cells1 = draw(st.permutations([c for c in cells if any(e[1] == c for e in edges)]))
    return disintegrate(edge_measure_from_dict(
        {"cells0": cells, "cells1": cells1, "edges": edges}))


def random_table(kernel, depth, seed):
    rng = np.random.default_rng(seed)
    return {cyl: float(rng.random()) for cyl in ref_atomic_cylinders(kernel.cells0.cells, depth)}


@settings(max_examples=60, deadline=None)
@given(kernels(), st.floats(0.1, 10.0), st.integers(1, 5))
def test_fixed_point_check_matches_reference(k, scale, max_len):
    m = measurable_ifs_measure(k, {c: scale for c in k.cells0.cells})
    new = outcome(check_ifs_fixed_point_measurable, m, max_len)
    ref = outcome(ref_check, m, max_len)
    assert new == ref
    if new[0] == "ok":
        assert type(new[1].max_deviation) is float and type(new[1].holds) is bool


@settings(max_examples=60, deadline=None)
@given(kernels(), st.integers(1, 5), st.data())
def test_iterate_matches_reference(k, depth, data):
    exact = measurable_ifs_measure(k, {c: 1.0 for c in k.cells0.cells})
    if data.draw(st.booleans()) and (depth <= 2 or set(k.cells0.cells) == set(k.cells1.cells)):
        table = {cyl: exact.value(cyl) for cyl in ref_atomic_cylinders(k.cells0.cells, depth)}
    else:
        table = random_table(k, depth, data.draw(st.integers(0, 2 ** 32 - 1)))
    for iters in range(depth + 1):          # every valid count, then one too many
        new = outcome(fixed_point_iterate, k, table, iters)
        ref = outcome(ref_iterate, k, table, iters)
        assert new[0] == ref[0]
        if new[0] == "error":
            assert new[1] is ref[1] is DepthExhausted
            continue
        assert list(new[1].table.items()) == list(ref[1].table.items())
        assert new[1].distances == ref[1].distances
        assert all(type(d) is float for d in new[1].distances)


@settings(max_examples=30, deadline=None)
@given(kernels(), st.integers(1, 5))
def test_levels_match_value(k, n):
    m = measurable_ifs_measure(k, {c: 1.0 for c in k.cells0.cells})
    if n > 2 and set(k.cells0.cells) != set(k.cells1.cells):
        with pytest.raises(MeasureError):
            list(m.levels(n))
        return
    cyls = ref_atomic_cylinders(k.cells0.cells, n)
    assert np.concatenate(list(m.levels(n))).tolist() == [m.value(c) for c in cyls]


# ---------------------------------------------------------------------------
# sizes and typed errors

KERNEL_DICT = {"cells0": ["a", "b"], "cells1": ["a", "b"],
               "edges": [["a", "a", 0.3], ["a", "b", 0.2], ["b", "a", 0.25], ["b", "b", 0.25]]}
OFF_LEVEL = {"cells0": ["a", "b"], "cells1": ["a", "c"],
             "edges": [["a", "a", 0.5], ["b", "c", 0.5]]}


@pytest.fixture
def kern():
    return disintegrate(edge_measure_from_dict(KERNEL_DICT))


def test_size_zero_means_no_cylinders(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    assert pm.kernel.atomic_cylinders(["a", "b"], 0) == []
    assert list(m.levels(0)) == []
    assert check_ifs_fixed_point_measurable(m, 0) == FixedPointReport(0.0, 0, True)
    with pytest.raises(DepthExhausted):
        fixed_point_iterate(kern, {}, 0)


def test_negative_sizes_rejected(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    table = {cyl: 0.25 for cyl in ref_atomic_cylinders(["a", "b"], 3)}
    with pytest.raises(MeasureError):
        pm.kernel.atomic_cylinders(["a", "b"], -1)
    with pytest.raises(MeasureError):
        check_ifs_fixed_point_measurable(m, -1)
    with pytest.raises(MeasureError):
        fixed_point_iterate(kern, table, -1)


def test_target_off_level0_is_typed():
    k = disintegrate(edge_measure_from_dict(OFF_LEVEL))
    m = measurable_ifs_measure(k, {"a": 1.0, "b": 1.0, "c": 1.0})
    table = {cyl: 0.25 for cyl in ref_atomic_cylinders(["a", "b"], 3)}
    with pytest.raises(MeasureError, match="'c'"):
        fixed_point_iterate(k, table, 1)
    with pytest.raises(MeasureError, match="'c'"):
        check_ifs_fixed_point_measurable(m, 2)
    # no transfer, nothing to refuse: the table comes back as it was
    assert fixed_point_iterate(k, table, 0).table == table


def test_value_rejects_unknown_cells_and_empty_cylinders(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    for cyl in (["a", "zz"], [""], ["zz"], [["a", "zz"], "*"]):
        with pytest.raises(MeasureError, match="unknown cell"):
            m.value(cyl)
    with pytest.raises(MeasureError):
        m.value([])


@pytest.mark.parametrize("q", [{"a": 1.0}, {"a": 1.0, "b": float("nan")},
                               {"a": 1.0, "b": float("inf")}, {"a": -1.0, "b": -1.0}])
def test_measure_rejects_bad_q(kern, q):
    with pytest.raises(MeasureError):
        measurable_ifs_measure(kern, q)


def test_harmonic_check_nan_residual_fails():
    k = disintegrate(edge_measure_from_dict({
        "cells0": ["a", "b"], "cells1": ["a", "b"],
        "edges": [["a", "a", 1.0], ["b", "a", 1.0], ["b", "b", 1.0]]}))
    report = pm.harmonic_check(k, {"a": 1.0, "b": float("nan")})
    assert np.isnan(report.max_residual)
    assert not report.passed
