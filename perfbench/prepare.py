"""Set-up of one benchmark run: inputs, fixture files, and the program
objects the rounds reuse.  Kept apart from the checks so that a set-up
timed in a fresh interpreter imports only what set-up needs."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import gen

WORKLOADS = ("cli-batch", "audit-deep", "sample-stream", "wide-diagram")


@dataclass
class Context:
    workload: str
    seed: int
    workdir: str
    env: dict
    inputs: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    pm: object = None                  # the pathmeas package (in-process workloads)
    cli: object = None                 # pathmeas.cli (in-process workloads)
    specs: dict = field(default_factory=dict)
    measures: dict = field(default_factory=dict)

    @property
    def fresh_cli(self):
        """cli-batch runs every CLI call as a fresh process."""
        return self.workload == "cli-batch"


def setup(ctx: Context):
    """Generate the inputs and write them as JSON files; for in-process
    workloads also import pathmeas and build the diagrams, measures and
    kernels the rounds reuse.  Returns the import time of pathmeas.cli,
    or None when the workload does not import the program."""
    ctx.inputs = gen.inputs(ctx.seed, ctx.workload)
    for name, obj in ctx.inputs.items():
        path = os.path.join(ctx.workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        ctx.files[name] = path
    if ctx.fresh_cli:
        return None
    t0 = time.perf_counter()
    import pathmeas
    import pathmeas.cli
    import_s = time.perf_counter() - t0
    pm = ctx.pm = pathmeas
    ctx.cli = pathmeas.cli
    for name, obj in ctx.inputs.items():
        if "kind" in obj:
            ctx.specs[name] = pm.diagram_from_dict(obj)
    for name, obj in ctx.inputs.items():
        if obj.get("type") in ("markov", "ifs"):
            diagram = ctx.specs[name.split("_")[0]]
            ctx.measures[name] = pm.measure_from_dict(diagram, obj)
    for name in ("fib", "w64"):
        if name in ctx.specs:
            ctx.measures[f"{name}_tail"] = pm.stationary_tail_measure(ctx.specs[name])
    for name, obj in ctx.inputs.items():
        if name.startswith("kernel"):
            k = pm.disintegrate(pm.edge_measure_from_dict(obj))
            ctx.measures[name] = pm.measurable_ifs_measure(k, {c: 1.0 for c in obj["cells0"]})
    return import_s
