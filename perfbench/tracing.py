"""Spans and counters recorded from outside the program.

The benchmark never edits the program.  In a traced round it reaches the
library through ``Lib``, whose attributes are the pathmeas functions
wrapped in spans, and it swaps the same wrappers into the namespace of
``pathmeas.cli`` so that CLI commands are traced as well.  A span is
(name, start, end, parent); spans stay in memory until the run ends.  A
layer's figure is the self time of its spans: duration minus the part
covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from contextlib import contextmanager, nullcontext

# Span name of each public function the benchmark or the CLI calls.
# Functions absent here get "<module>.<function>" and feed no metric.
SPAN_NAMES = {
    "diagram_from_dict": "diagram.load", "load_diagram": "diagram.load",
    "validate_diagram": "diagram.validate", "height_vector": "diagram.height_vector",
    "is_irreducible": "diagram.is_irreducible",
    "perron_eigenpair": "spectral.perron", "stationary_distribution": "spectral.stationary",
    "solve_harmonic": "spectral.harmonic",
    "enumerate_paths": "pathspace.enumerate", "parse_path_literal": "pathspace.parse",
    "measure_from_dict": "measures.build", "stationary_tail_measure": "measures.build",
    "markov_measure": "measures.build", "ifs_measure": "measures.build",
    "tail_to_markov": "measures.build", "tail_measure_from_vectors": "measures.build",
    "check_kolmogorov": "measures.kolmogorov", "check_tail_invariance": "measures.tail_check",
    "check_shift_invariance": "measures.shift_check", "check_ifs_fixed_point": "measures.ifs_check",
    "sample_path": "measures.sample", "_sample_one": "measures.sample",
    "empirical_check": "measures.empirical",
    "build_sfs": "sfs.build", "ck_matrix": "sfs.build", "rn_derivative": "sfs.rn",
    "quasi_stationary_test": "sfs.qstat",
    "edge_measure_from_dict": "kernel.disintegrate", "load_edge_measure": "kernel.disintegrate",
    "disintegrate": "kernel.disintegrate", "harmonic_check": "kernel.eval",
    "measurable_ifs_measure": "kernel.eval",
    "check_ifs_fixed_point_measurable": "kernel.fixed_point",
    "fixed_point_iterate": "kernel.iterate", "_atomic_cylinders": "kernel.iterate",
}


def _iterate_cylinders(args):
    """Cylinders fixed_point_iterate(kernel, table, iterations) computes."""
    table, iters = args[1], args[2]
    cells = len(args[0].cells0.cells)
    depth = max(len(c) for c in table)
    return sum(cells ** n for j in range(1, iters + 1) for n in range(1, depth - j + 1))


# Counters read off a call: counter name, and a function of
# (result, positional args) giving the amount.
COUNTS = {
    "perron_eigenpair": ("spectral.perron_iterations", lambda r, a: r.iterations),
    "enumerate_paths": ("pathspace.paths", lambda r, a: len(r)),
    "check_kolmogorov": ("measures.audit_cylinders", lambda r, a: r.n_cylinders),
    "check_ifs_fixed_point": ("measures.audit_cylinders", lambda r, a: r.n_cylinders),
    "check_tail_invariance": ("measures.audit_cylinders",
                              lambda r, a: sum(g[2] for g in r.groups.values())),
    "sample_path": ("measures.samples", lambda r, a: 1),
    "_sample_one": ("measures.samples", lambda r, a: 1),
    "empirical_check": ("measures.samples", lambda r, a: r.n_samples),
    "check_ifs_fixed_point_measurable": ("kernel.cylinders", lambda r, a: r.n_cylinders),
    "fixed_point_iterate": ("kernel.cylinders", lambda r, a: _iterate_cylinders(a)),
}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._wrapped = {}

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn):
        """``fn`` recorded as a span (and its counter, if any) per call."""
        got = self._wrapped.get(fn)
        if got is not None:
            return got
        name = SPAN_NAMES.get(fn.__name__,
                              f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        counter = COUNTS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(counter[0], counter[1](result, args))
            return result

        self._wrapped[fn] = traced
        return traced

    def proxy(self, module):
        """A stand-in for ``module`` whose functions are traced."""
        ns = types.SimpleNamespace()
        for name, obj in vars(module).items():
            setattr(ns, name, self.wrap(obj) if inspect.isfunction(obj) else obj)
        return ns

    @contextmanager
    def patch_cli(self, cli):
        """Trace every pathmeas function and module ``pathmeas.cli`` uses."""
        saved = {}
        for name, obj in list(vars(cli).items()):
            if isinstance(obj, types.ModuleType) and obj.__name__.startswith("pathmeas."):
                saved[name] = obj
                setattr(cli, name, self.proxy(obj))
            elif inspect.isfunction(obj) and obj.__module__.startswith("pathmeas.") \
                    and obj.__module__ != cli.__name__:
                saved[name] = obj
                setattr(cli, name, self.wrap(obj))
        try:
            yield
        finally:
            for name, obj in saved.items():
                setattr(cli, name, obj)

    def adopt(self, spans, counts):
        """Attach spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, t0, t1, p in spans:
            self.spans.append([name, t0, t1, parent if p < 0 else base + p])
        for name, n in counts.items():
            self.count(name, n)

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, p in self.spans:
            if p >= 0:
                child[p] += t1 - t0
        out = {}
        for (name, t0, t1, _p), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0) - c
        return out

    def durations(self, name):
        return [t1 - t0 for n, t0, t1, _p in self.spans if n == name]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class Lib:
    """The pathmeas package, with every function traced when a tracer is
    set.  The benchmark calls the library only through this object."""

    def __init__(self, package, tracer=None):
        self._package = package
        self._tracer = tracer

    @property
    def traced(self):
        return self._tracer is not None

    def span(self, name):
        """A span around benchmark code that calls methods, not functions."""
        return self._tracer.span(name) if self._tracer else nullcontext()

    def count(self, name, n):
        if self._tracer:
            self._tracer.count(name, n)

    def patch_cli(self, cli):
        return self._tracer.patch_cli(cli) if self._tracer else nullcontext()

    def adopt(self, path):
        """Attach the spans a traced child process wrote to ``path``."""
        with open(path) as fh:
            rec = json.load(fh)
        self._tracer.adopt(rec["spans"], rec["counts"])

    def __getattr__(self, name):
        obj = getattr(self._package, name)
        if self._tracer is not None and inspect.isfunction(obj):
            return self._tracer.wrap(obj)
        return obj
