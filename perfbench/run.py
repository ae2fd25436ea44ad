"""pathmeas benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload audit-deep --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src`` (it
need not be installed).  The run sets up, then repeats whole rounds of
the workload's operations for about ``--seconds``, checking every
output.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, so that numeric timings do not depend on the load of
# the machine's other core; child processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Bytecode caching on whatever the environment says, so that import and
# start-up times do not depend on PYTHONDONTWRITEBYTECODE (the caches are
# __pycache__ directories inside the checkout).
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
sys.dont_write_bytecode = False

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)

import prepare  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 5

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("cli_call_s", "s"), ("cli_batch_s", "s"),
    ("audit_cyl_per_s", "cylinders/s"), ("eval_cyl_per_s", "cylinders/s"),
    ("kernel_cyl_per_s", "cylinders/s"), ("sample_paths_per_s", "paths/s"),
    ("perron_solve_s", "s"), ("diagram_ops_s", "s"),
]
RATES = {"audit_cyl_per_s": "audit", "eval_cyl_per_s": "eval",
         "kernel_cyl_per_s": "kernel", "sample_paths_per_s": "sample"}
TOTALS = {"perron_solve_s": "perron", "diagram_ops_s": "diagram", "cli_batch_s": "cli"}

CLI_COMMANDS = ["validate", "eigen", "measure_eval", "measure_check", "measure_sample",
                "sfs_rn", "sfs_qstat", "kernel_disintegrate", "kernel_check", "kernel_eval",
                "kernel_iterate"]
LAYER_SPANS = ["diagram.load", "diagram.validate", "diagram.height_vector",
               "diagram.is_irreducible", "spectral.perron", "spectral.stationary",
               "spectral.harmonic", "pathspace.enumerate", "measures.build", "measures.value",
               "measures.kolmogorov", "measures.tail_check", "measures.shift_check",
               "measures.ifs_check", "measures.sample", "measures.empirical", "sfs.build",
               "sfs.rn", "sfs.qstat", "kernel.disintegrate", "kernel.eval",
               "kernel.fixed_point", "kernel.iterate"]
LAYER_COUNTS = ["spectral.perron_iterations", "pathspace.paths", "measures.audit_cylinders",
                "measures.samples", "kernel.cylinders"]


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def setup_samples(args, env):
    """Time ``SETUP_SAMPLES`` set-ups, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Rounds:
    """Runs whole rounds of the operations and keeps their timings,
    verdicts and failure counts."""

    def __init__(self, ops, log, reference):
        self.ops = ops
        self.log = log
        self.reference = reference    # speed.Reference, run around every call
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.keys = {}
        self.verdicts = {}        # op index -> work units, or None when it failed
        self.rounds = []          # per round: traced or not
        # per op, (start, end) of each call in untraced and traced rounds
        self.calls = {False: [[] for _ in ops], True: [[] for _ in ops]}
        self.runs = []            # (midpoint, seconds) of each reference task run

    def judge(self, i, op, result, first):
        if i not in self.verdicts or op.key is None:
            try:
                work = op.check(result)
            except Exception as exc:  # an output the check cannot accept is wrong
                if not op.fault:
                    self.correct = False
                    self.log(f"WRONG {op.name}: {exc}")
                elif first:
                    self.log(f"known fault, failed: {op.name}: {exc}")
                work = None
            if op.key is not None:
                self.keys[i] = op.key(result)
            self.verdicts[i] = work
        elif op.key(result) != self.keys[i]:
            self.correct = False
            self.log(f"WRONG {op.name}: output differs from round one")
        return self.verdicts[i]

    def run(self, lib, traced):
        first = not self.rounds
        ref = self.reference
        for i, op in enumerate(self.ops):
            for _ in range(op.repeat):
                # the task before the call, for a share of this op's last
                # call; traced rounds run it too, so that they differ from
                # untraced ones by the tracing alone
                calls = self.calls[traced][i]
                self.runs += ref.sample(calls[-1][1] - calls[-1][0] if calls else 0.0)
                t0 = time.perf_counter()
                try:
                    result, error = op.call(lib), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, exc
                t1 = time.perf_counter()
                calls.append((t0, t1))
                self.runs += ref.sample(t1 - t0)
                self.attempted += 1
                if error is None:
                    work = self.judge(i, op, result, first)
                else:
                    work = None
                    if first:
                        kind = "known fault" if op.fault else "UNEXPECTED"
                        self.log(f"{kind}, failed: {op.name}: "
                                 + "".join(traceback.format_exception_only(error)).strip())
                if work is None:
                    self.failed += 1
        self.rounds.append(traced)

    def times(self, traced):
        """Each operation's time over the (un)traced rounds, at reference
        speed (speed.Reference.scaled)."""
        return [self.reference.scaled(calls, self.runs) for calls in self.calls[traced]]

    def group(self, times, name):
        """Time and work units of the operations in one group."""
        idx = [i for i, op in enumerate(self.ops) if name in op.groups]
        return (sum(times[i] for i in idx), sum(self.verdicts.get(i) or 0 for i in idx))


def end_to_end(runner, setups, fresh_cli):
    """The end-to-end metrics; every time and rate at reference speed
    (speed.py)."""
    times = runner.times(traced=False)
    metrics = {"setup_s": statistics.median(
        s["setup_s"] * speed.LOOP.ref_s / s["reference_s"] for s in setups)}
    who = resource.RUSAGE_CHILDREN if fresh_cli else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    metrics["cli_call_s"] = statistics.median(
        t for t, op in zip(times, runner.ops) if "cli" in op.groups)
    for name, group in TOTALS.items():
        metrics[name] = runner.group(times, group)[0]
    for name, group in RATES.items():
        seconds, work = runner.group(times, group)
        metrics[name] = work / seconds
    return metrics


def per_layer(tracer, runner, setups):
    n = sum(runner.rounds)
    selfs = tracer.self_times()
    metrics = {}
    imports = tracer.durations("cli.import") or [s["import_s"] for s in setups]
    metrics["cli.import_s"] = statistics.median(imports)
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}_s"] = selfs.get(f"cli.{cmd}", 0.0) / n
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = selfs.get(name, 0.0) / n
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0) // n
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(runner.times(traced=True)) / sum(runner.times(traced=False)) - 1.0)
    return metrics


UNITS = dict(END_TO_END)


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "%" if name.endswith("_pct") else "count"


def main():
    ap = argparse.ArgumentParser(description="pathmeas benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=[*prepare.WORKLOADS, "all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this interpreter and print it")
    args = ap.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    if not os.path.isfile(os.path.join(SRC, "pathmeas", "__init__.py")):
        sys.exit(f"run.py: no program at {SRC}/pathmeas; run from a full checkout")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = prepare.Context(args.workload, args.seed, workdir, child_env())
        import_s = prepare.setup(ctx)
        if args.setup_only:
            setup_s = time.perf_counter() - T_START
            # the reference loop right after set-up, for a tenth of it
            reference_s = statistics.fmean(s for _m, s in speed.LOOP.sample(2 * setup_s))
            print(json.dumps({"setup_s": setup_s, "import_s": import_s,
                              "reference_s": reference_s}))
            return
        result = measure(args, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run_all(args):
    """Run every workload as its own process; print each metric with its
    unit and the operation counts, then one JSON object by workload."""
    results = {}
    for w in prepare.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"run.py: workload {w} exited with code {proc.returncode}")
        res = results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))


def measure(args, ctx):
    import tracing
    import workloads

    def log(msg):
        print(msg, file=sys.stderr)

    ops = workloads.OPERATIONS[args.workload](ctx)
    setups = setup_samples(args, ctx.env)
    tracer = tracing.Tracer() if args.trace else None
    reference = speed.start(ctx.env) if ctx.fresh_cli else speed.LOOP
    # Set-up's objects live through the run; frozen, full collections do
    # not rescan them in whichever call happens to trigger one.
    gc.collect()
    gc.freeze()
    runner = Rounds(ops, log, reference)
    begin = time.perf_counter()
    # whole rounds, while another one of the mean length so far fits
    while (len(runner.rounds) < (2 if args.trace else 1)
           or (time.perf_counter() - begin) * (1 + 1 / len(runner.rounds)) <= args.seconds):
        traced = bool(args.trace) and len(runner.rounds) % 2 == 0
        runner.run(tracing.Lib(ctx.pm, tracer if traced else None), traced)
    if args.trace:
        metrics = per_layer(tracer, runner, setups)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    else:
        metrics = end_to_end(runner, setups, ctx.fresh_cli)
    times = runner.times(traced=False)
    groups = {g for op in ops for g in op.groups}
    log(f"{args.workload} seed {args.seed}: {len(runner.rounds)} rounds of {len(ops)} "
        f"operations; seconds per group at reference speed: "
        + ", ".join(f"{g} {runner.group(times, g)[0]:.4f}" for g in sorted(groups)))
    return {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}


if __name__ == "__main__":
    main()
