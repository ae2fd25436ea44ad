"""Top-level acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail
line (run pytest with -s to see them).  Tolerances are pinned in the
assertions; a failing assertion prints its line as FAIL before raising.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

import pathmeas as pm
from pathmeas.cli import main as cli_main
from pathmeas.kernel import atomic_cylinders

PHI = (1 + math.sqrt(5)) / 2

SYMMETRIC_P = [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]
ASYMMETRIC_P = [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]]
DEGENERATE_P = [[0, 0, 0.25], [0, 1, 0.25], [1, 0, 0.25], [1, 1, 0.25]]

KERNEL_DICT = {
    "cells0": ["a", "b"],
    "cells1": ["a", "b"],
    "edges": [["a", "a", 0.3], ["a", "b", 0.2],
              ["b", "a", 0.25], ["b", "b", 0.25]],
}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def test_criterion_01_perron_closed_forms(allones2, fib):
    with criterion(1, "perron closed forms"):
        pair = pm.perron_eigenpair(allones2.matrix(0))
        assert abs(pair.lam - 2.0) < 1e-12
        fp = pm.perron_eigenpair(fib.matrix(0))
        assert abs(fp.lam - (1 + math.sqrt(5)) / 2) < 1e-10
        assert abs(fp.t[0] / fp.t[1] - PHI) < 1e-9
        # independent oracle: the returned eigenvalue solves x^2 = x + 1
        assert abs(fp.lam ** 2 - fp.lam - 1.0) < 1e-9


def test_criterion_02_tail_consistency(allones2, fib, tri_z):
    with criterion(2, "tail-invariance consistency"):
        for spec, window in ((allones2, None), (fib, None), (tri_z, 8)):
            m = pm.stationary_tail_measure(spec)
            f = spec.matrix(0)
            verts = spec.vertices(window) if window else spec.vertices()
            for n in range(7):
                cur, nxt = m.level_vector(n), m.level_vector(n + 1)
                for w in verts:
                    back = sum(c * nxt[v] for v, c in f.column(w))
                    assert abs(back - cur[w]) < 1e-10
            spread = pm.check_tail_invariance(m, 3, window=3).max_spread
            assert spread == 0.0


def test_criterion_03_kolmogorov_all_kinds(allones2, fib):
    with criterion(3, "kolmogorov consistency"):
        tail = pm.stationary_tail_measure(fib)
        assert pm.check_kolmogorov(tail, max_len=5, tol=1e-12).holds
        markov = tail.markov
        assert pm.check_kolmogorov(markov, max_len=5, tol=1e-12).holds
        ifs = pm.ifs_measure(allones2, ASYMMETRIC_P)
        assert pm.check_kolmogorov(ifs, max_len=5, tol=1e-12).holds
        kern = pm.disintegrate(pm.edge_measure_from_dict(KERNEL_DICT))
        km = pm.measurable_ifs_measure(kern, {"a": 1.0, "b": 1.0})
        for cyl in atomic_cylinders(["a", "b"], 5):
            parent = km.value(list(cyl))
            child = km.value(list(cyl) + ["*"])
            assert abs(child - parent) / parent < 1e-12


def test_criterion_04_tail_markov_equivalence(allones2, fib):
    with criterion(4, "tail to markov equivalence"):
        for spec in (allones2, fib):
            tail = pm.stationary_tail_measure(spec)
            markov = tail.markov
            for n in range(1, 5):
                for path in pm.enumerate_paths(spec, n):
                    assert abs(markov.value(path) - tail.value(path)) < 1e-12


def test_criterion_05_ifs_fixed_point(allones2):
    with criterion(5, "ifs fixed point"):
        for weights in (SYMMETRIC_P, ASYMMETRIC_P):
            nu = pm.ifs_measure(allones2, weights)
            report = pm.check_ifs_fixed_point(nu, max_len=4, tol=1e-12)
            assert report.holds and report.max_deviation < 1e-12
        with pytest.raises(pm.DegenerateSolution):
            pm.ifs_measure(allones2, DEGENERATE_P)


def test_criterion_06_ifs_not_tail_but_shift_invariant(allones2):
    with criterion(6, "ifs ratio law and shift invariance"):
        nu = pm.ifs_measure(allones2, ASYMMETRIC_P)
        a = nu.value(pm.FinitePath((pm.Edge(0, 0, 0),)))
        b = nu.value(pm.FinitePath((pm.Edge(0, 1, 0),)))
        assert abs(a / b - 0.6 / 0.4) < 1e-12
        assert not pm.check_tail_invariance(nu, 1, tol=1e-12).tail_invariant
        assert all(abs(c - 1.0) < 1e-12 for c in nu.column_sums.values())
        report = pm.check_shift_invariance(nu, max_len=4)
        assert report.invariant and report.max_rel_deviation < 1e-12


def test_criterion_07_shift_criteria(allones2, fib):
    with criterion(7, "shift-invariance criteria"):
        assert pm.shift_condition_tail(allones2).holds
        m2 = pm.stationary_tail_measure(allones2)
        assert pm.check_shift_invariance(m2, max_len=4).max_rel_deviation < 1e-12
        rep = pm.shift_condition_tail(fib)
        assert not rep.holds
        mf = pm.stationary_tail_measure(fib)
        factors = pm.check_shift_invariance(mf, max_len=3).factors
        h1 = pm.height_vector(fib, 1).values
        for v, factor in factors.items():
            assert abs(factor - h1[v] / PHI) < 1e-10
        table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
        mk = pm.markov_measure(allones2, [0.5, 0.5], table)
        assert pm.check_shift_invariance(mk, max_len=4).max_rel_deviation < 1e-12


def test_criterion_08_rn_derivatives(allones2, fib):
    with criterion(8, "de possel rn derivatives"):
        for spec, lam in ((allones2, 2.0), (fib, PHI)):
            m = pm.stationary_tail_measure(spec)
            x = pm.parse_path_literal("0-" + "-".join(["0"] * 8), spec)
            rep = pm.rn_derivative(m, pm.Edge(0, 1, 0), x, depth=8)
            # constant in exact arithmetic; floats allow a one-ulp wiggle
            assert max(rep.sequence) - min(rep.sequence) <= 2 ** -52
            assert abs(rep.limit - 1.0 / lam) < 1e-9
        mk = pm.stationary_tail_measure(fib).markov
        x = pm.parse_path_literal("0-" + "-".join(["0"] * 8), fib)
        e = pm.Edge(0, 1, 0)
        rep = pm.rn_derivative(mk, e, x, depth=8)
        expected = mk.q[e.source] * mk.transition(e) / mk.q[x.start]
        assert abs(rep.limit - expected) < 1e-12


def test_criterion_09_kernel_case(allones2):
    with criterion(9, "measurable kernel case"):
        kern = pm.disintegrate(pm.edge_measure_from_dict(KERNEL_DICT))
        q1 = {"a": 1.0, "b": 1.0}
        assert pm.harmonic_check(kern, q1).max_residual == 0.0
        m = pm.measurable_ifs_measure(kern, q1)
        rep = pm.check_ifs_fixed_point_measurable(m, max_len=3, tol=1e-12)
        assert rep.holds
        # atomic bridge to the Markov form
        label = {0: "a", 1: "b"}
        total = sum(kern.marginal.values())
        q = [kern.marginal["a"] / total, kern.marginal["b"] / total]
        table = {(w, v, 0): kern.p(label[w], label[v])
                 for w in (0, 1) for v in (0, 1)}
        mk = pm.markov_measure(allones2, q, table)
        for n in range(1, 5):
            for path in pm.enumerate_paths(allones2, n):
                cells = [label[path.start]] + [label[e.target] for e in path.edges]
                assert abs(m.value(cells) / total - mk.value(path)) < 1e-12
        # iteration from the uniform table reaches the closed form
        table0 = {cyl: 1.0 / 2 ** len(cyl) for cyl in atomic_cylinders(["a", "b"], 4)}
        result = pm.fixed_point_iterate(kern, table0, 2)
        for cyl, val in result.table.items():
            assert abs(val - m.value(list(cyl))) < 1e-12


def test_criterion_10_sampling(allones2, tmp_path):
    with criterion(10, "seeded sampling"):
        table = {(w, v, 0): 0.5 for w in (0, 1) for v in (0, 1)}
        mk = pm.markov_measure(allones2, [0.5, 0.5], table)
        rep = pm.empirical_check(mk, length=3, n_samples=100_000, seed=20240501)
        assert rep.passed and rep.max_abs_z < 4.0
        nu = pm.ifs_measure(allones2, ASYMMETRIC_P)
        rep = pm.empirical_check(nu, length=3, n_samples=100_000, seed=20240502)
        assert rep.passed and rep.max_abs_z < 4.0
        # byte reproducibility through the CLI
        dpath = tmp_path / "d.json"
        mpath = tmp_path / "m.json"
        dpath.write_text(json.dumps(pm.diagram_to_dict(allones2)))
        mpath.write_text(json.dumps({"type": "ifs", "p": ASYMMETRIC_P}))
        args = ["measure", "sample", "--diagram", str(dpath), "--measure",
                str(mpath), "--len", "10", "--seed", "7", "--count", "5"]
        out_a = CliRunner().invoke(cli_main, args).output
        out_b = CliRunner().invoke(cli_main, args).output
        assert out_a == out_b and out_a.strip()
