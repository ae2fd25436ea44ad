"""Command-line front end.

Reads diagram / measure / kernel JSON files, runs constructions and
audits, and emits deterministic JSON (or CSV convergence tables) on
standard output.  Exit codes: 0 ok, 1 check failed or validation errors,
2 input error.
"""

from __future__ import annotations

import json
import sys

import click

from . import kernel as kernelmod
from . import measures as measmod
from . import sfs as sfsmod
from .diagram import DEFAULT_WINDOW, load_diagram, validate_diagram
from .errors import PathmeasError
from .pathspace import column_level, parse_path_literal
from .spectral import DEFAULT_TOL, perron_eigenpair

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def emit(obj):
    # print, not click.echo: click caches each sys.stdout it meets in a
    # WeakKeyDictionary whose value is the stream itself, so every stream an
    # in-process caller redirects stdout to would stay alive with its output
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")), flush=True)


def emit_csv(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    sys.stdout.flush()


def fail(code, kind, message):
    emit({"error": {"kind": kind, "message": message}})
    sys.exit(code)


def guarded(fn):
    """Map library errors to machine-readable output and exit codes."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (OSError, KeyError, ValueError, TypeError, ArithmeticError) as exc:
            fail(EXIT_INPUT_ERROR, type(exc).__name__, str(exc))
        except PathmeasError as exc:
            fail(EXIT_CHECK_FAILED, type(exc).__name__, str(exc))
    return wrapper


def load_measure(diagram_path, path):
    """The diagram of one file and the measure of another on it."""
    spec = load_diagram(diagram_path)
    with open(path) as fh:
        return spec, measmod.measure_from_dict(spec, json.load(fh))


def load_kernel(kernel_path, q_json=None):
    """A file's disintegrated kernel and q from JSON (default: 1 on all cells)."""
    k = kernelmod.disintegrate(kernelmod.load_edge_measure(kernel_path))
    if q_json is None:
        return k, {c: 1.0 for c in set(k.cells0.cells) | set(k.cells1.cells)}
    return k, kernelmod.require_q(k, json.loads(q_json))


@click.group()
def main():
    """Path-space measures on generalized Bratteli diagrams."""


@main.command()
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@guarded
def validate(diagram_path):
    """Check the structural axioms of a diagram file."""
    spec = load_diagram(diagram_path)
    report = validate_diagram(spec)
    emit({"valid": report.valid, "errors": report.errors,
          "warnings": report.warnings})
    if not report.valid:
        sys.exit(EXIT_CHECK_FAILED)


@main.command()
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--window", default=DEFAULT_WINDOW, show_default=True,
              help="vertex radius of a stencil eigenvector")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@guarded
def eigen(diagram_path, tol, window, fmt):
    """Perron eigenpair of A = F^T."""
    spec = load_diagram(diagram_path)
    pair = perron_eigenpair(spec.matrix(0), window, tol)
    if fmt == "csv":
        emit_csv(("iteration", "residual"), pair.trace)
        return
    emit({"lambda": pair.lam,
          "t": {str(v): x for v, x in pair.t.items()},
          "residual": pair.residual, "bracket": pair.bracket,
          "normalization": pair.normalization,
          "tol": tol, "window": pair.window})


@main.group()
def measure():
    """Evaluate, audit, or sample a measure."""


@measure.command("eval")
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@click.option("--measure", "measure_path", required=True, type=click.Path())
@click.option("--path", "path_literal", default=None)
@click.option("--len", "length", default=None, type=int)
@guarded
def measure_eval(diagram_path, measure_path, path_literal, length):
    """Value of one cylinder (--path) or of all cylinders of a length."""
    spec, m = load_measure(diagram_path, measure_path)
    if path_literal is not None:
        path = parse_path_literal(path_literal, spec)
        emit({"cylinder": str(path), "value": m.value(path)})
        return
    if length is None:
        fail(EXIT_INPUT_ERROR, "usage", "give --path or --len")
    level = column_level(spec, length)
    emit({"len": length, "values": dict(zip(level.names(), m.values(level).tolist()))})


@measure.command("check")
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@click.option("--measure", "measure_path", required=True, type=click.Path())
@click.option("--what", default="kolmogorov",
              type=click.Choice(["kolmogorov", "tail", "shift", "ifs", "shift-condition"]))
@click.option("--len", "length", default=4, type=int, show_default=True)
@click.option("--tol", default=measmod.IDENTITY_TOL, show_default=True)
@guarded
def measure_check(diagram_path, measure_path, what, length, tol):
    """Run one audit; exit 1 when it fails."""
    spec, m = load_measure(diagram_path, measure_path)
    if what in ("kolmogorov", "ifs"):
        audit = measmod.check_kolmogorov if what == "kolmogorov" else measmod.check_ifs_fixed_point
        rep = audit(m, length, tol)
        out = {"max_dev": rep.max_deviation, "n_cylinders": rep.n_cylinders,
               "holds": rep.holds}
        ok = rep.holds
    elif what == "tail":
        rep = measmod.check_tail_invariance(m, length, tol)
        out = {"max_spread": rep.max_spread, "tail_invariant": rep.tail_invariant,
               "ratio_law_deviation": rep.ratio_law_deviation}
        ok = rep.tail_invariant
    elif what == "shift":
        rep = measmod.check_shift_invariance(m, length, tol)
        out = {"max_dev": rep.max_rel_deviation, "invariant": rep.invariant,
               "factors": {str(k): v for k, v in rep.factors.items()},
               "predicted": {str(k): v for k, v in rep.predicted.items()}}
        ok = rep.invariant
    else:
        rep = measmod.shift_condition_tail(spec, tol=max(tol, 1e-9) if tol >= 0 else tol)
        out = {"holds": rep.holds, "lambda": rep.lam,
               "heights": {str(k): v for k, v in rep.heights.items()},
               "witnesses": rep.witnesses,
               "equivalence_bound": list(rep.equivalence_bound)}
        ok = True     # informational
    out["tol"] = tol
    emit(out)
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


@measure.command("sample")
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@click.option("--measure", "measure_path", required=True, type=click.Path())
@click.option("--len", "length", default=8, type=int, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--count", default=1, type=int, show_default=True)
@click.option("--start", default=None, type=int)
@guarded
def measure_sample(diagram_path, measure_path, length, seed, count, start):
    """Draw seeded sample paths (deterministic per seed)."""
    _, m = load_measure(diagram_path, measure_path)
    paths = [str(p) for p in measmod.sample_paths(m, length, count, seed, start)]
    emit({"seed": seed, "len": length, "paths": paths})


@main.group()
def sfs():
    """Semibranching-system diagnostics."""


@sfs.command("rn")
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@click.option("--measure", "measure_path", required=True, type=click.Path())
@click.option("--edge", "edge_literal", required=True,
              help="edge literal w-v:k")
@click.option("--path", "path_literal", required=True)
@click.option("--depth", default=8, type=int, show_default=True)
@guarded
def sfs_rn(diagram_path, measure_path, edge_literal, path_literal, depth):
    """Radon-Nikodym ratio sequence for one branch at one path."""
    spec, m = load_measure(diagram_path, measure_path)
    e = parse_path_literal(edge_literal, spec).edges[0]
    x = parse_path_literal(path_literal, spec)
    rep = sfsmod.rn_derivative(m, e, x, depth)
    emit({"sequence": rep.sequence, "limit": rep.limit,
          "converged": rep.converged, "depth": depth})


@sfs.command("qstat")
@click.option("--diagram", "diagram_path", required=True, type=click.Path())
@click.option("--measure", "measure_path", required=True, type=click.Path())
@click.option("--path", "path_literal", required=True)
@click.option("--terms", default=sfsmod.QSTAT_TERMS, type=int, show_default=True)
@click.option("--tol", default=sfsmod.QSTAT_TOL, show_default=True)
@guarded
def sfs_qstat(diagram_path, measure_path, path_literal, terms, tol):
    """Quasi-stationarity partial products along one path."""
    spec, m = load_measure(diagram_path, measure_path)
    x = parse_path_literal(path_literal, spec)
    rep = sfsmod.quasi_stationary_test(m, x, terms, tol)
    emit({"partials": rep.partials, "verdict": rep.verdict,
          "bounds": list(rep.bounds), "tol": tol})
    if not rep.verdict:
        sys.exit(EXIT_CHECK_FAILED)


@main.group("kernel")
def kernel_group():
    """Finite-cell kernel operations."""


@kernel_group.command("disintegrate")
@click.option("--kernel", "kernel_path", required=True, type=click.Path())
@guarded
def kernel_disintegrate(kernel_path):
    """Marginal and conditional rows of an edge measure."""
    k, _ = load_kernel(kernel_path)
    emit({"marginal": k.marginal, "rows": k.rows})


@kernel_group.command("check")
@click.option("--kernel", "kernel_path", required=True, type=click.Path())
@click.option("--q", "q_json", default=None, help="JSON object cell -> value")
@click.option("--tol", default=kernelmod.KERNEL_TOL, show_default=True)
@guarded
def kernel_check(kernel_path, q_json, tol):
    """Harmonicity of q (default: constant 1)."""
    k, q = load_kernel(kernel_path, q_json)
    rep = kernelmod.harmonic_check(k, q, tol)
    emit({"residuals": rep.residuals, "max_residual": rep.max_residual,
          "passed": rep.passed, "tol": tol})
    if not rep.passed:
        sys.exit(EXIT_CHECK_FAILED)


@kernel_group.command("eval")
@click.option("--kernel", "kernel_path", required=True, type=click.Path())
@click.option("--cells", "cells_literal", required=True,
              help="comma-separated cell labels, * for a whole level")
@click.option("--q", "q_json", default=None)
@guarded
def kernel_eval(kernel_path, cells_literal, q_json):
    """Value of one cell cylinder under the harmonic IFS measure."""
    k, q = load_kernel(kernel_path, q_json)
    m = kernelmod.measurable_ifs_measure(k, q)
    cyl = [c if c != "*" else None for c in cells_literal.split(",")]
    emit({"cylinder": cells_literal, "value": m.value(cyl)})


@kernel_group.command("iterate")
@click.option("--kernel", "kernel_path", required=True, type=click.Path())
@click.option("--depth", default=5, type=int, show_default=True)
@click.option("--iters", default=3, type=int, show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@guarded
def kernel_iterate(kernel_path, depth, iters, fmt):
    """Transfer-operator iteration from the uniform cylinder table."""
    k, _ = load_kernel(kernel_path)
    cells = list(k.cells0.cells)
    table = {cyl: 1.0 / len(cells) ** len(cyl)
             for cyl in kernelmod.atomic_cylinders(cells, depth)}
    result = kernelmod.fixed_point_iterate(k, table, iters)
    if fmt == "csv":
        emit_csv(("iteration", "distance"),
                 list(enumerate(result.distances, start=1)))
        return
    emit({"distances": result.distances,
          "table": {"|".join(c): v for c, v in result.table.items()},
          "depth": depth, "iters": iters})


if __name__ == "__main__":
    main()
