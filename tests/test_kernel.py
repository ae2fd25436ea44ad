import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
from pathmeas import (
    check_ifs_fixed_point_measurable,
    disintegrate,
    edge_measure_from_dict,
    fixed_point_iterate,
    harmonic_check,
    markov_measure,
    measurable_ifs_measure,
    solve_harmonic_kernel,
)
from pathmeas.kernel import atomic_cylinders

KERNEL_DICT = {
    "cells0": ["a", "b"],
    "cells1": ["a", "b"],
    "edges": [["a", "a", 0.3], ["a", "b", 0.2],
              ["b", "a", 0.25], ["b", "b", 0.25]],
}


@pytest.fixture
def kern():
    return disintegrate(edge_measure_from_dict(KERNEL_DICT))


def test_disintegrate_closed_form(kern):
    assert kern.marginal == pytest.approx({"a": 0.5, "b": 0.5})
    assert kern.rows["a"] == pytest.approx({"a": 0.6, "b": 0.4})
    assert kern.rows["b"] == pytest.approx({"a": 0.5, "b": 0.5})


def test_reconstruction_exact(kern):
    p = edge_measure_from_dict(KERNEL_DICT)
    for (x, y), mass in p.mass.items():
        assert kern.edge_mass(x, y) == pytest.approx(mass, abs=1e-15)


def test_edge_measure_rejects_bad_support():
    with pytest.raises(pm.MeasureError):
        edge_measure_from_dict({"cells0": ["a", "b"], "cells1": ["a"],
                                "edges": [["a", "a", 1.0]]})
    with pytest.raises(pm.MeasureError):
        edge_measure_from_dict({"cells0": ["a"], "cells1": ["a"],
                                "edges": [["a", "a", -0.1]]})


def test_harmonic_constant(kern):
    report = harmonic_check(kern, {"a": 1.0, "b": 1.0})
    assert report.passed
    assert report.max_residual == 0.0


def test_harmonic_rejects_nonharmonic(kern):
    report = harmonic_check(kern, {"a": 1.0, "b": 2.0})
    assert not report.passed


def test_solve_harmonic_kernel(kern):
    h = solve_harmonic_kernel(kern)
    assert h.q == {"a": 1.0, "b": 1.0}
    assert not h.non_unique


def test_solve_harmonic_reducible_flag():
    block = disintegrate(edge_measure_from_dict({
        "cells0": ["a", "b"], "cells1": ["a", "b"],
        "edges": [["a", "a", 0.5], ["b", "b", 0.5]],
    }))
    assert solve_harmonic_kernel(block).non_unique


def test_measure_values(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    assert m.value(["a", "b"]) == pytest.approx(0.2, abs=1e-15)
    assert m.value(["a"]) == pytest.approx(0.5, abs=1e-15)
    # consistency: closing with the whole level changes nothing
    assert m.value(["a", "*"]) == pytest.approx(m.value(["a"]), abs=1e-15)
    assert m.value(["a", "b", "*"]) == pytest.approx(m.value(["a", "b"]), abs=1e-15)


def test_measure_rejects_nonharmonic_q(kern):
    with pytest.raises(pm.NotHarmonic):
        measurable_ifs_measure(kern, {"a": 1.0, "b": 3.0})


def test_kernel_kolmogorov_depth4(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    for cyl in atomic_cylinders(["a", "b"], 4):
        parent = m.value(list(cyl))
        child = m.value(list(cyl) + ["*"])
        assert child == pytest.approx(parent, rel=1e-12)


def test_fixed_point_identity(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    report = check_ifs_fixed_point_measurable(m, max_len=3)
    assert report.holds
    assert report.max_deviation < 1e-12


def test_fixed_point_single_cell():
    k = disintegrate(edge_measure_from_dict({
        "cells0": ["x"], "cells1": ["x"], "edges": [["x", "x", 1.0]]}))
    m = measurable_ifs_measure(k, {"x": 1.0})
    assert check_ifs_fixed_point_measurable(m, max_len=3).holds


def test_atomic_bridge(kern):
    # atomic cells reproduce a Markov measure with q = marginal / total
    spec = pm.diagram_from_dict({
        "kind": "stationary",
        "vertices": {"type": "finite", "count": 2},
        "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}],
    })
    label = {0: "a", 1: "b"}
    total = sum(kern.marginal.values())
    q = [kern.marginal["a"] / total, kern.marginal["b"] / total]
    table = {(w, v, 0): kern.p(label[w], label[v]) for w in (0, 1) for v in (0, 1)}
    mk = markov_measure(spec, q, table)
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    for n in range(1, 5):
        for path in pm.enumerate_paths(spec, n):
            cells = [label[path.start]] + [label[e.target] for e in path.edges]
            assert m.value(cells) / total == pytest.approx(mk.value(path), abs=1e-12)


def test_iterate_reaches_closed_form(kern):
    cells = ["a", "b"]
    table = {cyl: 1.0 / 2 ** len(cyl) for cyl in atomic_cylinders(cells, 4)}
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    result = fixed_point_iterate(kern, table, 2)
    for cyl, val in result.table.items():
        assert val == pytest.approx(m.value(list(cyl)), abs=1e-12)
    assert result.distances == sorted(result.distances, reverse=True)


def test_iterate_fixed_point_is_fixed(kern):
    m = measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
    table = {cyl: m.value(list(cyl)) for cyl in atomic_cylinders(["a", "b"], 4)}
    result = fixed_point_iterate(kern, table, 3)
    assert max(result.distances) < 1e-15


def test_iterate_depth_exhausted(kern):
    table = {cyl: 0.25 for cyl in atomic_cylinders(["a", "b"], 3)}
    with pytest.raises(pm.DepthExhausted):
        fixed_point_iterate(kern, table, 3)


def test_zero_marginal_rejected():
    with pytest.raises(pm.MeasureError):
        disintegrate(edge_measure_from_dict({
            "cells0": ["a", "b"], "cells1": ["a", "b"],
            "edges": [["a", "a", 0.5], ["a", "b", 0.5]],
        }))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
       st.floats(0.1, 2.0), st.floats(0.1, 2.0))
def test_fixed_point_property_random_kernels(ra, rb, ma, mb):
    p = edge_measure_from_dict({
        "cells0": ["a", "b"], "cells1": ["a", "b"],
        "edges": [["a", "a", ma * ra], ["a", "b", ma * (1 - ra)],
                  ["b", "a", mb * rb], ["b", "b", mb * (1 - rb)]],
    })
    k = disintegrate(p)
    m = measurable_ifs_measure(k, {"a": 1.0, "b": 1.0})
    assert check_ifs_fixed_point_measurable(m, max_len=3, tol=1e-10).holds
