"""The four benchmark workloads.

A workload is a set-up plus a fixed list of operations; one round runs
every operation once, in order.  Each operation has a timed call, made
through ``tracing.Lib`` or the CLI, and an untimed check of its output
against ``oracle``.  Every round repeats the same calls on the same
inputs, so the outputs of later rounds are compared with round one.

Every workload measures every end-to-end metric on its own inputs; the
workloads differ in shape (see README.md).  Operation groups name the
end-to-end metric an operation feeds:

    diagram  diagram_ops_s       perron  perron_solve_s
    eval     eval_cyl_per_s      audit   audit_cyl_per_s
    kernel   kernel_cyl_per_s    sample  sample_paths_per_s
    cli      cli_call_s, cli_batch_s
    other    no end-to-end metric (timed for the per-layer spans only)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import oracle
from oracle import close, expect
from prepare import Context

SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clishim.py")


@dataclass
class Op:
    name: str
    groups: tuple
    call: Callable                     # (lib) -> result; the timed part
    check: Callable                    # (result) -> work units; raises on a wrong output
    key: Callable | None = repr        # stable text compared across rounds
    fault: str = ""                    # known program fault: the op fails
    repeat: int = 1                    # calls per round, each one timed


# ---------------------------------------------------------------------------
# CLI operations

def run_cli(ctx: Context, lib, argv):
    """One CLI invocation; returns (exit code, stdout).  cli-batch launches
    a fresh ``python -m pathmeas.cli`` process; the in-process workloads
    call the same click entry point in this interpreter."""
    if ctx.fresh_cli:
        cmd = [sys.executable, "-m", "pathmeas.cli", *argv]
        env = ctx.env
        if lib.traced:
            spans = os.path.join(ctx.workdir, "child-spans.json")
            cmd = [sys.executable, SHIM, *argv]
            env = {**env, "PERFBENCH_SPANS": spans}
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        if lib.traced:
            lib.adopt(spans)
        return proc.returncode, proc.stdout
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), lib.patch_cli(ctx.cli):
        try:
            ctx.cli.main.main(args=argv, prog_name="pathmeas", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, buf.getvalue()


def cli_op(ctx, argv, group, check, expect_code=0, fault=""):
    """A CLI call feeding ``cli`` metrics (and, on cli-batch, ``group``)."""
    sub = "_".join(argv[:2] if argv[0] in ("measure", "sfs", "kernel") else argv[:1])
    args = []
    for a in argv:
        args.append(ctx.files[a[1:]] if a.startswith("@") else a)

    def call(lib):
        with lib.span(f"cli.{sub}"):
            return run_cli(ctx, lib, args)

    def verify(result):
        code, out = result
        expect(code == expect_code, f"{sub} exit code {code}: {out.strip()[:200]}")
        return check(json.loads(out.strip().splitlines()[-1]))

    groups = ("cli", group) if ctx.fresh_cli else ("cli",)
    return Op(f"cli {' '.join(argv)}", groups, call, verify, key=lambda r: r[1], fault=fault)


def valid_check(out):
    expect(out["valid"] and not out["errors"], "validate: valid")
    return 0


def eval_check(diagram, measure, n):
    """Check of ``measure eval --len n``: the cylinder count, every value
    against the product formula, and the level total."""
    mv = oracle.PathValues(diagram, measure)
    cyl = oracle.cylinders(oracle.triplets(diagram), diagram["vertices"]["count"], n)

    def check(out):
        vals = out["values"]
        expect(len(vals) == len(cyl), "eval: cylinder count")
        for s, p in cyl:
            close(vals[literal(s, p)], mv.value(s, p), what="eval value")
        close(math.fsum(vals.values()), mv.total, what="eval level total")
        return len(vals)
    return check


def sample_check(diagram, n, count):
    """Check of ``measure sample``: the count, and every path admissible."""
    edges = set(_edge_keys(oracle.triplets(diagram)))

    def check(out):
        expect(len(out["paths"]) == count, "sample count")
        for text in out["paths"]:
            keys = parse_literal(text)
            expect(len(keys) == n and all(k in edges for k in keys), f"sample admissible {text}")
            expect(all(a[1] == b[0] for a, b in zip(keys, keys[1:])), "sample connected")
        return count
    return check


def iterate_check(kernel, depth):
    """Check of ``kernel iterate --iters 1``: one distance and a table of
    every atomic cylinder of 1..depth-1 cells."""
    n_iter = sum(len(kernel["cells0"]) ** n for n in range(1, depth))

    def check(out):
        expect(len(out["table"]) == n_iter and len(out["distances"]) == 1, "kernel iterate")
        return n_iter
    return check


def cli_ops(ctx, eig, fin, markov, ifs, tail_fin, kernel, lens,
            checks=("kolmogorov", "tail", "ifs", "shift"), repeat=1):
    """Every CLI subcommand once, on this workload's inputs: ``eig`` is
    validated and solved, ``fin`` carries the ``markov`` measure, ``ifs``
    names an IFS measure on a 0-1 diagram, ``tail_fin`` is a finite
    diagram for the tail-measure checks; ``checks`` picks the
    ``measure check`` audits; in-process, each call runs ``repeat`` times
    a round."""
    inp = ctx.inputs
    le, lk, ls, depth, kdepth = lens["eval"], lens["check"], lens["sample"], lens["rn"], lens["kernel"]
    ifs_d = ifs.split("_")[0]
    t_trip, t_count = oracle.triplets(inp[tail_fin]), inp[tail_fin]["vertices"]["count"]
    kv = oracle.KernelValues(inp[kernel])
    lam, _t = oracle.perron(t_trip, t_count)
    walk = first_walk(t_trip, max(depth, 2 * lens["qstat"] + 2))
    edge = into_start(t_trip, walk)

    def eigen(out):
        t = {int(v): x for v, x in out["t"].items()}
        lo, hi = oracle.collatz_wielandt(oracle.triplets(inp[eig]), t, t)
        expect(lo - 1e-9 * hi <= out["lambda"] <= hi + 1e-9 * hi and hi - lo <= 1e-8 * hi,
               "eigen: Collatz-Wielandt bracket")
        return 0

    n_kolm = sum(oracle.path_count(t_trip, t_count, n) for n in range(lk))

    def kolm(out):
        expect(out["holds"] and out["n_cylinders"] == n_kolm, "kolmogorov")
        return out["n_cylinders"]

    i_trip, i_count = oracle.triplets(inp[ifs_d]), inp[ifs_d]["vertices"]["count"]
    n_ifs = sum(oracle.path_count(i_trip, i_count, n) for n in range(1, lk + 1))

    def ifscheck(out):
        expect(out["holds"] and out["n_cylinders"] == n_ifs, "ifs fixed point")
        return n_ifs

    def tailcheck(out):
        expect(out["tail_invariant"], "tail invariance")
        return oracle.path_count(t_trip, t_count, lk)

    colsums = {}
    for w, v, x in inp[ifs]["p"]:
        colsums[v] = colsums.get(v, 0.0) + x

    def shiftcheck(out):
        for s, f in out["factors"].items():
            close(f, colsums[int(s)], what="shift factor")
        return n_ifs

    def rn(out):
        expect(all(abs(x - 1.0 / lam) <= 1e-9 for x in out["sequence"]), "rn ratios 1/lambda")
        return depth

    def qstat(out):
        expect(out["verdict"] and all(abs(x - 1.0) <= 1e-9 for x in out["partials"]), "qstat")
        return lens["qstat"]

    def kdis(out):
        for x, m in out["marginal"].items():
            close(m, kv.marginal[kv.index[x]], what="kernel marginal")
        for x, row in out["rows"].items():
            for y, p in row.items():
                close(p, kv.rows[kv.index[x], kv.index[y]], what="kernel row")
        return 0

    def kcheck(out):
        expect(out["passed"], "kernel harmonic check")
        return 0

    kcyl = ",".join(kv.cells[i % len(kv.cells)] for i in range(3))

    def keval(out):
        close(out["value"], kv.value(kcyl.split(",")), what="kernel eval")
        return 1

    walk_lit = literal(walk[0][0], walk[:depth])
    qs_lit = literal(walk[0][0], walk)
    audits = {
        "kolmogorov": (tail_fin, "@tail", kolm, 0), "tail": (tail_fin, "@tail", tailcheck, 0),
        "ifs": (ifs_d, f"@{ifs}", ifscheck, 0),
        # exit 1 unless the weights' column sums are all 1 (shift invariance)
        "shift": (ifs_d, f"@{ifs}", shiftcheck,
                  0 if all(abs(c - 1.0) <= 1e-12 for c in colsums.values()) else 1),
    }
    ops = [
        cli_op(ctx, ["validate", "--diagram", f"@{eig}"], "diagram", valid_check),
        cli_op(ctx, ["eigen", "--diagram", f"@{eig}"], "perron", eigen),
        cli_op(ctx, ["measure", "eval", "--diagram", f"@{fin}", "--measure", f"@{markov}",
                     "--len", str(le)], "eval", eval_check(inp[fin], inp[markov], le)),
    ] + [cli_op(ctx, ["measure", "check", "--diagram", f"@{audits[c][0]}", "--measure", audits[c][1],
                      "--what", c, "--len", str(lk)], "audit", audits[c][2], expect_code=audits[c][3])
         for c in checks] + [
        cli_op(ctx, ["measure", "sample", "--diagram", f"@{fin}", "--measure", f"@{markov}",
                     "--len", str(ls), "--count", str(lens["count"]), "--seed",
                     str(ctx.seed)], "sample", sample_check(inp[fin], ls, lens["count"])),
        cli_op(ctx, ["sfs", "rn", "--diagram", f"@{tail_fin}", "--measure", "@tail",
                     "--edge", literal(edge[0], (edge,)), "--path", walk_lit,
                     "--depth", str(depth)], "audit", rn),
        cli_op(ctx, ["sfs", "qstat", "--diagram", f"@{tail_fin}", "--measure", "@tail",
                     "--path", qs_lit, "--terms", str(lens["qstat"])], "audit", qstat),
        cli_op(ctx, ["kernel", "disintegrate", "--kernel", f"@{kernel}"], "other", kdis),
        cli_op(ctx, ["kernel", "check", "--kernel", f"@{kernel}"], "other", kcheck),
        cli_op(ctx, ["kernel", "eval", "--kernel", f"@{kernel}", "--cells", kcyl], "other", keval),
        cli_op(ctx, ["kernel", "iterate", "--kernel", f"@{kernel}", "--depth", str(kdepth),
                     "--iters", "1"], "kernel", iterate_check(inp[kernel], kdepth)),
    ]
    for op in ops:
        op.repeat = repeat
    return ops


# ---------------------------------------------------------------------------
# path helpers (from triplets, not from the program)

def _edge_keys(trip):
    return [(w, v, k) for v, w, c in trip for k in range(c)]


def first_walk(trip, n):
    """The walk from vertex 0 that always takes the smallest target."""
    out = {}
    for v, w, c in trip:
        out.setdefault(w, []).append(v)
    walk, w = [], 0
    for _ in range(n):
        v = min(out[w])
        walk.append((w, v, 0))
        w = v
    return walk


def into_start(trip, walk):
    """An edge ending where ``walk`` starts."""
    start = walk[0][0]
    w = min(w for v, w, c in trip if v == start)
    return (w, start, 0)


def literal(start, path):
    if not path:
        return f"[{start}]"
    verts = "-".join(str(v) for v in [start] + [e[1] for e in path])
    return verts + ":" + ",".join(str(e[2]) for e in path)


def parse_literal(text):
    verts, mults = text.split(":")
    vs = [int(v) for v in verts.split("-")]
    ks = [int(k) for k in mults.split(",")]
    return [(vs[i], vs[i + 1], ks[i]) for i in range(len(ks))]


def path_keys(path):
    return tuple(e.key() for e in path.edges)


# ---------------------------------------------------------------------------
# library operations

ALL_DIAGRAM_OPS = ("load", "validate", "height", "irreducible")


def diagram_ops(ctx, names, depth, reps, which=ALL_DIAGRAM_OPS):
    """Load, validate, height vector and irreducibility (stationary only)
    of each finite diagram, each call repeated ``reps`` times."""
    ops = []
    for name in names:
        obj = ctx.inputs[name]
        count = obj["vertices"]["count"]
        mats = [m["triplets"] for m in obj["matrices"]]
        spec = ctx.specs[name]

        def load(lib, obj=obj):
            for _ in range(reps):
                d = lib.diagram_from_dict(obj)
            return d

        def load_ok(d, count=count, mats=mats):
            expect(len(d.matrices) == len(mats), "load: matrices")
            for m, trip in zip(d.matrices, mats):
                expect(m.size == count and len(m.entries) == len(trip), "load: entries")
            return 0

        out_count = {}
        for v, w, c in mats[0]:
            out_count[w] = out_count.get(w, 0) + c
        single = [w for w, c in out_count.items() if c == 1]

        def validate(lib, spec=spec):
            for _ in range(reps):
                r = lib.validate_diagram(spec)
            return r

        def validate_ok(r, single=single, kind=obj["kind"]):
            expect(r.valid and not r.errors, "validate: valid")
            if kind == "stationary":
                expect(len(r.warnings) == len(single), "validate: single-edge warnings")
            return 0

        ref = oracle.heights(mats, count, depth)

        def heights(lib, spec=spec):
            for _ in range(reps):
                h = lib.height_vector(spec, depth)
            return h

        def heights_ok(h, ref=ref):
            expect([h[v] for v in range(len(ref))] == ref, "height vector")
            return 0

        ops += [op for op in (Op(f"load {name}", ("diagram",), load, load_ok, key=None),
                              Op(f"validate {name}", ("diagram",), validate, validate_ok),
                              Op(f"height {name}", ("diagram",), heights, heights_ok))
                if op.name.split()[0] in which]
        if obj["kind"] == "stationary" and "irreducible" in which:
            strong = oracle.strongly_connected(mats[0], count)

            def irreducible(lib, spec=spec):
                for _ in range(reps):
                    r = lib.is_irreducible(spec)
                return r

            def irreducible_ok(r, strong=strong):
                expect((r == "yes") == strong, f"is_irreducible {r} vs SCC {strong}")
                return 0

            ops.append(Op(f"irreducible {name}", ("diagram",), irreducible, irreducible_ok))
    return ops


def perron_op(ctx, name, reps=1, closed=None, fault=""):
    """Perron eigenpair of a finite or stencil diagram, checked by its
    Collatz-Wielandt bracket (interior of the window for stencils) and,
    where known, a closed form for lambda."""
    obj = ctx.inputs[name]
    spec = ctx.specs[name]
    trip = oracle.triplets(obj)
    domain = obj["vertices"]["type"]

    def call(lib):
        for _ in range(reps):
            e = lib.perron_eigenpair(spec.matrix(0))
        return e

    def check(e):
        if domain == "finite":
            lo, hi = oracle.collatz_wielandt(trip, e.t, e.t)
        else:
            at = oracle.stencil_matvec(trip, e.t, domain)
            ratios = [at[w] / e.t[w] for w in at]
            lo, hi = min(ratios), max(ratios)
        expect(lo - 1e-9 * hi <= e.lam <= hi + 1e-9 * hi and hi - lo <= 1e-8 * hi,
               f"perron {name}: bracket [{lo}, {hi}] vs {e.lam}")
        if closed is not None:
            closed(e.lam)
        return 0

    return Op(f"perron {name}", ("perron",), call, check,
              key=lambda e: repr((e.lam, sorted(e.t.items()), e.iterations)), fault=fault)


def eval_op(ctx, diagram, measure, n):
    """Build a measure from its dict, enumerate the cylinders of n edges
    and evaluate each."""
    obj = ctx.inputs[diagram]
    spec = ctx.specs[diagram]
    mdict = ctx.inputs.get(measure, {"type": "tail"})
    ref = oracle.PathValues(obj, mdict)
    count = oracle.path_count(oracle.triplets(obj), obj["vertices"]["count"], n)

    def call(lib):
        m = lib.measure_from_dict(spec, mdict)
        paths = lib.enumerate_paths(spec, n)
        with lib.span("measures.value"):
            vals = [m.value(p) for p in paths]
        return paths, vals

    def check(result):
        paths, vals = result
        expect(len(paths) == count, f"eval {measure}: {len(paths)} cylinders, 1'F^n1 = {count}")
        for p, x in zip(paths, vals):
            close(x, ref.value(p.start, path_keys(p)), what=f"value {p}")
        close(math.fsum(vals), ref.total, what="level total")
        return len(paths)

    return Op(f"eval {measure} n={n}", ("eval",), call, check, key=lambda r: repr(r[1]))


def count_sum(obj, lo, hi):
    trip, count = oracle.triplets(obj), obj["vertices"]["count"]
    return sum(oracle.path_count(trip, count, n) for n in range(lo, hi + 1))


def kolmogorov_op(ctx, diagram, measure, n):
    m = ctx.measures[measure]
    want = count_sum(ctx.inputs[diagram], 0, n - 1)

    def check(r):
        expect(r.holds and r.n_cylinders == want, f"kolmogorov {measure}: {r}")
        return r.n_cylinders

    return Op(f"kolmogorov {measure} n={n}", ("audit",),
              lambda lib: lib.check_kolmogorov(m, n), check)


def tail_check_op(ctx, diagram, measure, n):
    m = ctx.measures[measure]
    obj = ctx.inputs[diagram]
    h = oracle.heights([oracle.triplets(obj)], obj["vertices"]["count"], n)

    def check(r):
        expect(r.tail_invariant, f"tail invariance {measure}")
        expect([r.groups[v][2] for v in range(len(h))] == h, "tail groups = heights")
        return sum(h)

    return Op(f"tail-check {measure} n={n}", ("audit",),
              lambda lib: lib.check_tail_invariance(m, n), check)


def shift_op(ctx, diagram, measure, n, factors):
    """Shift audit, checked against the predicted factor of each start
    vertex: H^1_v / lambda for the tail measure, the column sum of the
    weights for an IFS measure."""
    m = ctx.measures[measure]
    work = count_sum(ctx.inputs[diagram], 1, n)

    def call(lib):
        r = lib.check_shift_invariance(m, n)
        lib.count("measures.audit_cylinders", work)
        return r

    def check(r):
        for v, f in r.factors.items():
            close(f, factors[v], what=f"shift factor at {v}")
        return work

    return Op(f"shift {measure} n={n}", ("audit",), call, check)


def ifs_check_op(ctx, diagram, measure, n):
    m = ctx.measures[measure]
    want = count_sum(ctx.inputs[diagram], 1, n)

    def check(r):
        expect(r.holds and r.n_cylinders == want, f"ifs fixed point {measure}: {r}")
        return r.n_cylinders

    return Op(f"ifs-check {measure} n={n}", ("audit",),
              lambda lib: lib.check_ifs_fixed_point(m, n), check)


def sfs_ops(ctx, diagram, measure, depth, terms, reps=1):
    """rn_derivative along a long walk, the s.f.s. build of ``diagram``,
    and quasi-stationarity products along a walk of the tail measure."""
    obj = ctx.inputs[diagram]
    trip = oracle.triplets(obj)
    lam, _t = oracle.perron(trip, obj["vertices"]["count"])
    spec = ctx.specs[diagram]
    m = ctx.measures[measure]
    walk = first_walk(trip, max(depth, terms + 2))
    pm = ctx.pm
    x = pm.parse_path_literal(literal(walk[0][0], walk), spec)
    e = pm.Edge(0, *into_start(trip, walk))
    edges = sorted((w, v) for v, w, c in trip)

    def rn(lib):
        for _ in range(reps):
            r = lib.rn_derivative(m, e, x, depth)
        return r

    def rn_ok(r):
        expect(len(r.sequence) == depth, "rn depth")
        expect(all(abs(s - 1.0 / lam) <= 1e-12 for s in r.sequence), "rn ratios = 1/lambda")
        expect(r.converged and abs(r.limit - 1.0 / lam) <= 1e-12, "rn limit = 1/lambda")
        return depth

    def build(lib):
        for _ in range(reps):
            ck = lib.ck_matrix(lib.build_sfs(spec))
        return ck

    def build_ok(ck):
        expect([tuple(e) for e in ck.edges] == edges, "sfs edges")
        want = np.array([[int(f[0] == e[1]) for f in edges] for e in edges])
        expect(np.array_equal(ck.matrix, want), "ck matrix")
        return 0

    def qstat(lib):
        for _ in range(reps):
            r = lib.quasi_stationary_test(m, x, terms)
        return r

    def qstat_ok(r):
        expect(r.verdict and len(r.partials) == terms, "qstat verdict")
        expect(all(abs(p - 1.0) <= 1e-12 for p in r.partials), "qstat partials = 1")
        return terms

    return [Op(f"rn {measure} depth={depth}", ("audit",), rn, rn_ok),
            Op(f"sfs-build {diagram}", ("audit",), build, build_ok, key=lambda ck: repr(ck.matrix.tolist())),
            Op(f"qstat {measure} terms={terms}", ("audit",), qstat, qstat_ok)]


def kernel_ops(ctx, name, fp_len, depth, iters, eval_len):
    """Kernel layer: disintegration, cylinder values, the fixed-point
    audit and transfer-operator iteration from the exact table, whose
    iterates must stay equal to MeasurableIFSMeasure.value."""
    obj = ctx.inputs[name]
    kv = oracle.KernelValues(obj)
    m = ctx.measures[name]
    cells = kv.cells
    c = len(cells)
    table0 = kv.table(depth)
    cyls = [cyl for cyl in table0 if len(cyl) == eval_len]
    n_iter = sum(c ** n for j in range(1, iters + 1) for n in range(1, depth - j + 1))

    def dis(lib):
        return lib.disintegrate(lib.edge_measure_from_dict(obj))

    def dis_ok(k):
        for x in cells:
            close(k.marginal[x], kv.marginal[kv.index[x]], what="marginal")
            for y, p in k.rows[x].items():
                close(p, kv.rows[kv.index[x], kv.index[y]], what="kernel row")
        return 0

    def values(lib):
        mm = lib.measurable_ifs_measure(m.kernel, m.q)
        with lib.span("kernel.eval"):
            return [mm.value(cyl) for cyl in cyls] + [mm.value(["*"] * eval_len)]

    def values_ok(vals):
        for cyl, x in zip(cyls, vals):
            close(x, kv.value(cyl), what=f"kernel value {cyl}")
        close(vals[-1], float(kv.marginal.sum()), what="kernel whole-level mass")
        return 0

    def fixed(lib):
        return lib.check_ifs_fixed_point_measurable(m, fp_len)

    def fixed_ok(r):
        want = sum(c ** n for n in range(1, fp_len + 1))
        expect(r.holds and r.n_cylinders == want, f"measurable fixed point {r.max_deviation}")
        return r.n_cylinders

    def iterate(lib):
        return lib.fixed_point_iterate(m.kernel, table0, iters)

    def iterate_ok(r):
        expect(len(r.distances) == iters and max(r.distances) <= 1e-12, "iterate distances")
        for cyl, x in r.table.items():
            expect(abs(x - m.value(list(cyl))) <= 1e-12, f"iterate {cyl} vs value")
        return n_iter

    return [Op(f"kernel-disintegrate {name}", ("other",), dis, dis_ok,
               key=lambda k: repr((k.marginal, k.rows))),
            Op(f"kernel-eval {name}", ("other",), values, values_ok),
            Op(f"kernel-fixed-point {name} len={fp_len}", ("kernel",), fixed, fixed_ok),
            Op(f"kernel-iterate {name} depth={depth}", ("kernel",), iterate, iterate_ok,
               key=lambda r: repr((r.distances, sorted(r.table.items()))))]


def sample_op(ctx, diagram, measure, n, count):
    """``count`` seeded draws of n-edge paths; checked for admissibility,
    prefix frequencies against exact probabilities, and repeatability."""
    obj = ctx.inputs[diagram]
    trip = oracle.triplets(obj)
    m = ctx.measures[measure]
    mdict = ctx.inputs.get(measure, {"type": "tail"})
    ref = oracle.PathValues(obj, mdict)
    k = min(n, 3)
    probs = {(s, p): ref.value(s, p) / ref.total
             for s, p in oracle.cylinders(trip, obj["vertices"]["count"], k)}
    edges = set(_edge_keys(trip))
    base = ctx.seed * 1_000_003

    def call(lib):
        return [lib.sample_path(m, n, base + i) for i in range(count)]

    def check(paths):
        freq = {}
        for p in paths:
            keys = path_keys(p)
            expect(len(keys) == n and all(e in edges for e in keys), f"admissible {p}")
            expect(all(a[1] == b[0] for a, b in zip(keys, keys[1:])), f"connected {p}")
            pre = (p.start, keys[:k])
            freq[pre] = freq.get(pre, 0) + 1
        oracle.frequency_check(freq, probs, count)
        again = [str(ctx.pm.sample_path(m, n, base + i)) for i in range(3)]
        expect(again == [str(p) for p in paths[:3]], "same seed, same path")
        return count

    return Op(f"sample {measure} n={n} x{count}", ("sample",), call, check,
              key=lambda ps: "\n".join(map(str, ps)))


def empirical_op(ctx, diagram, measure, n, count):
    obj = ctx.inputs[diagram]
    m = ctx.measures[measure]
    ref = oracle.PathValues(obj, ctx.inputs.get(measure, {"type": "tail"}))
    cyl = oracle.cylinders(oracle.triplets(obj), obj["vertices"]["count"], n)
    probs = {literal(s, p): ref.value(s, p) / ref.total for s, p in cyl}

    def check(r):
        expect(r.n_samples == count and len(r.rows) == len(probs), "empirical rows")
        freq = {}
        for row in r.rows:
            close(row.exact, probs[row.cylinder], what=f"exact {row.cylinder}")
            hits = round(row.empirical * count)
            if hits:
                freq[row.cylinder] = hits
        oracle.frequency_check(freq, probs, count)
        return count

    return Op(f"empirical {measure} n={n} x{count}", ("sample",),
              lambda lib: lib.empirical_check(m, n, count, ctx.seed), check)


def stationary_op(ctx, diagram, measure, reps):
    """Stationary distribution of the vertex transition matrix of a Markov
    measure; the residual qP - q is recomputed."""
    count = ctx.inputs[diagram]["vertices"]["count"]
    p = np.zeros((count, count))
    for w, v, _k, x in ctx.inputs[measure]["P"]:
        p[w, v] += x

    def call(lib):
        for _ in range(reps):
            r = lib.stationary_distribution(p)
        return r

    def check(r):
        expect(np.all(r.q >= 0) and abs(r.q.sum() - 1.0) <= 1e-12, "stationary: probability")
        expect(float(np.max(np.abs(r.q @ p - r.q))) <= 1e-9, "stationary: qP = q")
        return 0

    return Op(f"stationary {measure}", ("perron",), call, check, key=lambda r: repr(r.q.tolist()))


def harmonic_op(ctx, diagram, measure, reps):
    """Positive fixed vector of the IFS vertex matrix, against numpy."""
    count = ctx.inputs[diagram]["vertices"]["count"]
    mm = np.zeros((count, count))
    for w, v, x in ctx.inputs[measure]["p"]:
        mm[w, v] = x
    ref = oracle.ifs_harmonic(ctx.inputs[measure]["p"], count)

    def call(lib):
        for _ in range(reps):
            r = lib.solve_harmonic(mm)
        return r

    def check(r):
        expect(float(np.max(np.abs(mm @ r.q - r.q))) <= 1e-9, "harmonic: Mq = q")
        expect(float(np.max(np.abs(r.q - ref))) <= 1e-8, "harmonic: numpy eigenvector")
        return 0

    return Op(f"harmonic {measure}", ("perron",), call, check, key=lambda r: repr(r.q.tolist()))


def naturals_tail_op(ctx):
    """Tail measure on the naturals stencil, checked by the stencil
    identity (A t)_w = lambda t_w at every window vertex with a full row,
    vertex 0 included (known fault: off by 1/3 there)."""
    spec = ctx.specs["nat"]
    trip = oracle.triplets(ctx.inputs["nat"])

    def check(tm):
        e = tm.eigen
        at = oracle.stencil_matvec(trip, e.t, "naturals")
        expect(0 in at, "naturals: vertex 0 checked")
        worst = max(abs(at[w] - e.lam * e.t[w]) / (e.lam * e.t[w]) for w in at)
        expect(worst <= 1e-8, f"naturals tail: stencil identity off by {worst:.3g}")
        return 0

    return Op("tail naturals", ("perron",), lambda lib: lib.stationary_tail_measure(spec),
              check, key=lambda tm: repr(sorted(tm.eigen.t.items())),
              fault="naturals stencil replicates vertex 0")


# ---------------------------------------------------------------------------
# workloads

PHI = (1 + 5 ** 0.5) / 2


def fib_closed(lam):
    expect(abs(lam * lam - lam - 1.0) <= 1e-12, f"fib: lambda^2 = lambda + 1 ({lam})")


def equals(value):
    def check(lam):
        close(lam, value, rel=1e-12, what="closed-form lambda")
    return check


def nat_kolmogorov_op(ctx):
    """``measure check --what kolmogorov`` of the tail measure on the
    naturals stencil (known fault: exit 2, KeyError)."""
    def nat_kolm(out):
        expect(out["holds"], "naturals kolmogorov")
        return out["n_cylinders"]

    return cli_op(ctx, ["measure", "check", "--diagram", "@nat", "--measure", "@tail",
                        "--what", "kolmogorov", "--len", "2"], "audit", nat_kolm,
                  fault="naturals kolmogorov window mismatch (KeyError)")


def cli_batch(ctx):
    """Every CLI subcommand as a fresh process on small fixtures.  Groups
    that would rest on one call get a second fixture (three more for
    validate), so no end-to-end figure is the timing of a single process."""
    lens = {"eval": 6, "check": 4, "sample": 8, "count": 50, "rn": 6, "qstat": 4, "kernel": 4}
    ops = cli_ops(ctx, "fib", "fib", "fib_markov", "ones2_ifs", "fib", "kernel2", lens,
                  checks=("kolmogorov", "ifs"))
    z = ctx.inputs["zband1"]
    zsum = sum(c for _v, _w, c in oracle.triplets(z))

    def zeigen(out):
        close(out["lambda"], float(zsum), rel=1e-12, what="integers stencil lambda")
        return 0

    ops.insert(2, cli_op(ctx, ["eigen", "--diagram", "@zband1"], "perron", zeigen))
    ops.insert(5, nat_kolmogorov_op(ctx))
    inp = ctx.inputs

    def ones2_eigen(out):
        close(out["lambda"], 2.0, rel=1e-12, what="all-ones lambda")
        return 0

    ops += [cli_op(ctx, ["validate", "--diagram", f"@{d}"], "diagram", valid_check)
            for d in ("ones2", "zband1", "nat")]
    ops += [
        cli_op(ctx, ["eigen", "--diagram", "@ones2"], "perron", ones2_eigen),
        cli_op(ctx, ["measure", "eval", "--diagram", "@ones2", "--measure", "@ones2_ifs",
                     "--len", "5"], "eval", eval_check(inp["ones2"], inp["ones2_ifs"], 5)),
        cli_op(ctx, ["measure", "sample", "--diagram", "@ones2", "--measure", "@ones2_ifs",
                     "--len", "8", "--count", "50", "--seed", str(ctx.seed)], "sample",
               sample_check(inp["ones2"], 8, 50)),
        cli_op(ctx, ["kernel", "iterate", "--kernel", "@kernel2", "--depth", "3", "--iters", "1"],
               "kernel", iterate_check(inp["kernel2"], 3)),
    ]
    return ops


def audit_deep(ctx):
    """Narrow diagrams audited deep; kernel tables at depth 6-7."""
    h1 = oracle.heights([gen.FIB], 2, 1)
    tail_factors = {v: h1[v] / PHI for v in range(2)}
    quad_cols = {}
    for w, v, x in ctx.inputs["quad4_ifs"]["p"]:
        quad_cols[v] = quad_cols.get(v, 0.0) + x
    lens = {"eval": 8, "check": 6, "sample": 12, "count": 20, "rn": 12, "qstat": 16, "kernel": 5}
    return (
        diagram_ops(ctx, ["fib", "ones2", "quad4"], 16, reps=100)
        + [perron_op(ctx, "fib", 10, fib_closed), perron_op(ctx, "ones2", 10, equals(2.0)),
           perron_op(ctx, "quad4", 10), stationary_op(ctx, "quad4", "quad4_markov", 10),
           harmonic_op(ctx, "quad4", "quad4_ifs", 10)]
        + [eval_op(ctx, "fib", "tail", 16), eval_op(ctx, "quad4", "quad4_markov", 10),
           eval_op(ctx, "quad4", "quad4_ifs", 10)]
        + [kolmogorov_op(ctx, "fib", "fib_tail", 14), kolmogorov_op(ctx, "quad4", "quad4_markov", 9),
           tail_check_op(ctx, "fib", "fib_tail", 14), shift_op(ctx, "fib", "fib_tail", 12, tail_factors),
           shift_op(ctx, "quad4", "quad4_ifs", 8, quad_cols), ifs_check_op(ctx, "quad4", "quad4_ifs", 9)]
        + sfs_ops(ctx, "fib", "fib_tail", 32, 48, reps=10)
        + kernel_ops(ctx, "kernel4", fp_len=5, depth=7, iters=2, eval_len=4)
        + [sample_op(ctx, "fib", "fib_tail", 12, 150), sample_op(ctx, "quad4", "quad4_markov", 12, 150),
           empirical_op(ctx, "quad4", "quad4_ifs", 3, 300)]
        + cli_ops(ctx, "quad4", "quad4", "quad4_markov", "quad4_ifs", "fib", "kernel4", lens,
                  repeat=6)
    )


def sample_stream(ctx):
    """Seeded sampling from Markov, IFS and Perron-tail measures."""
    h1 = oracle.heights([gen.FIB], 2, 1)
    tail_factors = {v: h1[v] / PHI for v in range(2)}
    lens = {"eval": 4, "check": 4, "sample": 11, "count": 300, "rn": 6, "qstat": 8, "kernel": 3}
    return (
        diagram_ops(ctx, ["fib", "quad4"], 8, reps=150)
        + [perron_op(ctx, "fib", 10, fib_closed), perron_op(ctx, "quad4", 10),
           stationary_op(ctx, "quad4", "quad4_markov", 10), harmonic_op(ctx, "quad4", "quad4_ifs", 10)]
        + [eval_op(ctx, "quad4", "quad4_markov", 9), eval_op(ctx, "fib", "tail", 13)]
        + [kolmogorov_op(ctx, "quad4", "quad4_markov", 8), tail_check_op(ctx, "fib", "fib_tail", 11),
           shift_op(ctx, "fib", "fib_tail", 8, tail_factors), ifs_check_op(ctx, "quad4", "quad4_ifs", 8)]
        + sfs_ops(ctx, "fib", "fib_tail", 12, 16)
        + kernel_ops(ctx, "kernel4", fp_len=5, depth=5, iters=2, eval_len=3)
        + [sample_op(ctx, "quad4", "quad4_markov", 3, 800), sample_op(ctx, "quad4", "quad4_ifs", 3, 800),
           sample_op(ctx, "fib", "fib_tail", 3, 800),
           sample_op(ctx, "quad4", "quad4_markov", 11, 200), sample_op(ctx, "quad4", "quad4_ifs", 11, 200),
           sample_op(ctx, "fib", "fib_tail", 10, 200),
           empirical_op(ctx, "quad4", "quad4_markov", 3, 800), empirical_op(ctx, "fib", "fib_tail", 3, 800)]
        + cli_ops(ctx, "quad4", "quad4", "quad4_markov", "quad4_ifs", "fib", "kernel4", lens,
                  repeat=6)
    )


def wide_diagram(ctx):
    """Wide vertex levels at shallow depth.  The n=2000 solve (~1 s) and
    the periodic solve (~2.5 s) bound the round, so every other operation
    but the known faults runs three times a round, each call timed."""
    z1, z2 = ctx.inputs["zband1"], ctx.inputs["zband2"]
    trip64 = oracle.triplets(ctx.inputs["w64"])
    h1 = oracle.heights([trip64], 64, 1)
    lam64, _t = oracle.perron(trip64, 64)
    tail_factors = {v: h1[v] / lam64 for v in range(64)}
    cols = {}
    for w, v, x in ctx.inputs["w64_ifs"]["p"]:
        cols[v] = cols.get(v, 0.0) + x
    lens = {"eval": 2, "check": 2, "sample": 3, "count": 20, "rn": 3, "qstat": 2, "kernel": 3}
    ops = (
        diagram_ops(ctx, ["sparse2000"], 6, reps=1, which=("load", "validate"))
        + diagram_ops(ctx, ["seq300", "w64"], 6, reps=1)
        + [perron_op(ctx, "sparse2000"), perron_op(ctx, "sparse500"),
           perron_op(ctx, "periodic", closed=equals(2 ** 0.5),
                     fault="power iteration on a periodic matrix (NoConvergence)"),
           perron_op(ctx, "zband1", closed=equals(float(sum(c for *_x, c in oracle.triplets(z1))))),
           perron_op(ctx, "zband2", closed=equals(float(sum(c for *_x, c in oracle.triplets(z2))))),
           naturals_tail_op(ctx), perron_op(ctx, "w64"),
           stationary_op(ctx, "w64", "w64_markov", 1), harmonic_op(ctx, "w64", "w64_ifs", 1)]
        + [eval_op(ctx, "w64", "tail", 3), eval_op(ctx, "w64", "w64_markov", 3),
           eval_op(ctx, "w64", "w64_ifs", 3)]
        + [kolmogorov_op(ctx, "w64", "w64_tail", 3), kolmogorov_op(ctx, "w64", "w64_markov", 3),
           tail_check_op(ctx, "w64", "w64_tail", 3), shift_op(ctx, "w64", "w64_tail", 2, tail_factors),
           shift_op(ctx, "w64", "w64_ifs", 2, cols), ifs_check_op(ctx, "w64", "w64_ifs", 3)]
        + sfs_ops(ctx, "w64", "w64_tail", 4, 4)
        + kernel_ops(ctx, "kernel12", fp_len=3, depth=3, iters=1, eval_len=2)
        + [sample_op(ctx, "w64", "w64_tail", 4, 60), sample_op(ctx, "w64", "w64_markov", 4, 200),
           empirical_op(ctx, "w64", "w64_markov", 2, 300)]
        + cli_ops(ctx, "sparse500", "w64", "w64_markov", "w64_ifs", "w64", "kernel12", lens)
        + [nat_kolmogorov_op(ctx)]
    )
    for op in ops:
        if not op.fault and op.name != "perron sparse2000":
            op.repeat = 3
    return ops


OPERATIONS = {"cli-batch": cli_batch, "audit-deep": audit_deep,
              "sample-stream": sample_stream, "wide-diagram": wide_diagram}
