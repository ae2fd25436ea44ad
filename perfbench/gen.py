"""Seeded input generator for the pathmeas benchmark.

Every diagram, measure and kernel the benchmark feeds the program is built
here as a plain JSON-ready dict, from one integer seed.  The program never
sees the generator: it receives only these dicts (in-process) or the JSON
files written from them (CLI).

Run ``python3 perfbench/gen.py --seed 1`` to print the inputs of one seed.
Seed 1 is the development seed; seed 2 is the hold-out seed, kept for
checking a claimed gain on inputs that were not used while writing it.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

DEV_SEED = 1
HOLDOUT_SEED = 2

# Fixed inputs: closed forms are known, so they do not depend on the seed.
FIB = [[0, 0, 1], [0, 1, 1], [1, 0, 1]]                     # lambda = golden ratio
ONES2 = [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]        # lambda = 2
# 4-vertex 0-1 diagram, primitive, with out-degrees 2, 1, 2, 3.
QUAD4 = [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 2, 1], [0, 2, 1],
         [1, 3, 1], [2, 3, 1], [3, 3, 1]]
# Periodic irreducible F = [[0, 2], [1, 0]] (period 2, lambda = sqrt 2).
PERIODIC = [[0, 1, 2], [1, 0, 1]]
# Tridiagonal all-ones stencil on the naturals: lambda = 3 on the window.
NAT_TRIDIAG = [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]


def finite(triplets, count, kind="stationary"):
    """A stationary finite diagram dict (or a sequence one when
    ``triplets`` is a list of triplet lists)."""
    mats = [{"triplets": triplets}] if kind == "stationary" else \
        [{"triplets": t} for t in triplets]
    return {"kind": kind, "vertices": {"type": "finite", "count": count},
            "matrices": mats}


def stencil(triplets, domain, band=None):
    vert = {"type": domain}
    if band is not None:
        vert["band"] = band
    return {"kind": "stationary", "vertices": vert,
            "matrices": [{"triplets": triplets}]}


def sparse_primitive(rng, n, extra=2):
    """Random sparse primitive n-vertex diagram: the cycle w -> w+1, a
    self-loop at every vertex (aperiodic), and ``extra`` random sources
    per row, so about 4 nonzeros per row; counts are 1..3."""
    entries = {}
    for v in range(n):
        entries[(v, (v - 1) % n)] = int(rng.integers(1, 4))
        entries[(v, v)] = int(rng.integers(1, 4))
        for w in rng.choice(n, size=extra, replace=False):
            entries.setdefault((v, int(w)), int(rng.integers(1, 4)))
    return finite([[v, w, c] for (v, w), c in sorted(entries.items())], n)


def wide01(rng, n=64, min_out=3):
    """Random n-vertex 0-1 diagram, out-degree 3 or 4 at every vertex:
    the cycle w -> w+1, a self-loop at vertex 0, and random targets."""
    edges = set()
    for w in range(n):
        targets = {(w + 1) % n}
        if w == 0:
            targets.add(0)
        want = min_out + int(rng.integers(0, 2))
        while len(targets) < want:
            targets.add(int(rng.integers(0, n)))
        edges.update((v, w) for v in targets)
    return finite([[v, w, 1] for v, w in sorted(edges)], n)


def sequence_diagram(rng, n=300, levels=6, extra=3):
    """Non-stationary finite diagram: ``levels`` random matrices on n
    vertices, each with the identity plus ``extra`` random sources per
    row (counts 1..2), so every row and column is nonzero."""
    mats = []
    for _ in range(levels):
        entries = {}
        for v in range(n):
            entries[(v, v)] = int(rng.integers(1, 3))
            for w in rng.choice(n, size=extra, replace=False):
                entries.setdefault((v, int(w)), int(rng.integers(1, 3)))
        mats.append([[v, w, c] for (v, w), c in sorted(entries.items())])
    return finite(mats, n, kind="sequence")


def int_stencil(rng, band):
    """Random integer-domain stencil with offsets -band..band, counts 1..3."""
    return stencil([[d, 0, int(rng.integers(1, 4))] for d in range(-band, band + 1)],
                   "integers", band)


def out_edges(triplets, count):
    """Edge keys (source, target, mult) grouped by source, canonical order."""
    out = {w: [] for w in range(count)}
    for v, w, c in sorted(triplets, key=lambda t: (t[1], t[0])):
        out[w].extend((w, v, k) for k in range(c))
    return out


def markov(rng, triplets, count):
    """Stationary Markov measure dict: random positive q summing to 1 and
    random stochastic weights on every outgoing edge (each >= 0.1)."""
    q = rng.random(count) + 0.2
    q = q / q.sum()
    table = []
    for w, keys in out_edges(triplets, count).items():
        p = rng.random(len(keys)) + 0.1
        p = p / p.sum()
        table.extend([s, v, k, float(x)] for (s, v, k), x in zip(keys, p))
    return {"type": "markov", "q": [float(x) for x in q], "P": table}


def ifs(triplets, count):
    """IFS measure dict on a 0-1 diagram: the weight 1/rho on every edge,
    for the Perron root rho of the adjacency matrix, so the vertex matrix
    M_{w,v} = p_(w,v) has spectral radius 1 and q is the Perron vector.
    The weights are fixed, not seeded: the cost of solving Mq = q depends
    on them, and random weights moved it by up to 1.5x between seeds."""
    a = np.zeros((count, count))
    for v, w, _c in triplets:
        a[w, v] = 1.0
    rho = float(max(abs(np.linalg.eigvals(a))))
    return {"type": "ifs", "p": [[w, v, 1.0 / rho] for v, w, _c in triplets]}


def kernel(rng, n_cells):
    """Edge measure on all pairs of ``n_cells`` labeled cells, random
    positive masses."""
    cells = [f"c{i}" for i in range(n_cells)]
    edges = [[x, y, float(rng.random() + 0.1)] for x in cells for y in cells]
    return {"cells0": cells, "cells1": cells, "edges": edges}


def inputs(seed: int, workload: str) -> dict:
    """Every input one workload needs, by name, from one seed."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "cli-batch":
        return {
            "fib": finite(FIB, 2), "ones2": finite(ONES2, 2),
            "zband1": int_stencil(rng, 1), "nat": stencil(NAT_TRIDIAG, "naturals"),
            "fib_markov": markov(rng, FIB, 2), "ones2_ifs": ifs(ONES2, 2),
            "tail": {"type": "tail"}, "kernel2": kernel(rng, 2),
        }
    if workload in ("audit-deep", "sample-stream"):
        return {
            "fib": finite(FIB, 2), "ones2": finite(ONES2, 2), "quad4": finite(QUAD4, 4),
            "quad4_markov": markov(rng, QUAD4, 4), "quad4_ifs": ifs(QUAD4, 4),
            "tail": {"type": "tail"}, "kernel4": kernel(rng, 4),
        }
    if workload == "wide-diagram":
        w64 = wide01(rng)
        trip64 = w64["matrices"][0]["triplets"]
        return {
            "sparse2000": sparse_primitive(rng, 2000),
            "sparse500": sparse_primitive(rng, 500),
            "periodic": finite(PERIODIC, 2),
            "zband1": int_stencil(rng, 1), "zband2": int_stencil(rng, 2),
            "nat": stencil(NAT_TRIDIAG, "naturals"),
            "seq300": sequence_diagram(rng),
            "w64": w64, "w64_markov": markov(rng, trip64, 64), "w64_ifs": ifs(trip64, 64),
            "tail": {"type": "tail"}, "kernel12": kernel(rng, 12),
        }
    raise ValueError(f"unknown workload {workload!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--workload", default="wide-diagram")
    args = ap.parse_args()
    print(json.dumps(inputs(args.seed, args.workload), sort_keys=True))


if __name__ == "__main__":
    main()
