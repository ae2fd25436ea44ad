"""Reference computations made apart from the program.

Everything here works from the generated dicts (triplets, weights,
masses) with numpy, scipy or Python integers, never through pathmeas, so
a wrong program output cannot also make its check pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


class Mismatch(Exception):
    """A program output disagrees with its reference."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


def close(a, b, rel=1e-9, what="value"):
    expect(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300), f"{what}: {a!r} != {b!r}")


def triplets(diagram, level=0):
    return diagram["matrices"][level]["triplets"]


def matvec_at(trip, t):
    """(A t)_w = sum_v f_{v,w} t_v for A = F^T, from the triplets; ``t``
    maps vertex -> value (vertices outside ``t`` read as 0)."""
    out = {}
    for v, w, c in trip:
        out[w] = out.get(w, 0.0) + c * t.get(v, 0.0)
    return out


def collatz_wielandt(trip, t, vertices):
    """min and max of (A t)_w / t_w over ``vertices``: the Perron root lies
    between them for a positive t."""
    at = matvec_at(trip, t)
    ratios = [at.get(w, 0.0) / t[w] for w in vertices]
    return min(ratios), max(ratios)


def stencil_matvec(trip, t, domain):
    """(A t)_w for a stencil (offset d = target - source) on the window of
    ``t``, with the naturals truncated at 0; rows whose stencil leaves the
    window are left out."""
    offsets = {}
    for v, w, c in trip:
        offsets[v - w] = offsets.get(v - w, 0) + c
    out = {}
    for w in t:
        targets = [(w + d, c) for d, c in offsets.items()
                   if domain != "naturals" or w + d >= 0]
        if all(v in t for v, _ in targets):
            out[w] = sum(c * t[v] for v, c in targets)
    return out


def heights(mats, count, n):
    """H^(n) = F_{n-1} ... F_0 1 in Python integers."""
    h = [1] * count
    for k in range(n):
        nxt = [0] * count
        for v, w, c in mats[min(k, len(mats) - 1)]:
            nxt[v] += c * h[w]
        h = nxt
    return h


def path_count(trip, count, n):
    """Number of paths of n edges, 1^T F^n 1, in integer arithmetic."""
    return sum(heights([trip], count, n))


def strongly_connected(trip, count):
    rows = [w for v, w, c in trip if c]
    cols = [v for v, w, c in trip if c]
    g = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(count, count)).tocsr()
    n_comp, _ = connected_components(g, directed=True, connection="strong")
    return n_comp == 1


def perron(trip, count):
    """Perron root and sum-one eigenvector of A = F^T by numpy.linalg.eig."""
    a = np.zeros((count, count))
    for v, w, c in trip:
        a[w, v] += c
    vals, vecs = np.linalg.eig(a)
    i = int(np.argmax(vals.real))
    t = np.abs(vecs[:, i].real)
    return float(vals[i].real), t / t.sum()


def ifs_harmonic(p, count):
    """Sup-one positive fixed vector of M_{w,v} = p_(w,v)."""
    m = np.zeros((count, count))
    for w, v, x in p:
        m[w, v] = x
    vals, vecs = np.linalg.eig(m)
    i = int(np.argmin(abs(vals - 1.0)))
    expect(abs(vals[i] - 1.0) < 1e-9, "IFS weights have spectral radius 1")
    q = np.abs(vecs[:, i].real)
    return q / q.max()


class PathValues:
    """Exact cylinder values of a tail, Markov or IFS measure from its
    generated dict: a path is a tuple of edge keys (source, target, mult)."""

    def __init__(self, diagram, measure):
        trip = triplets(diagram)
        count = diagram["vertices"]["count"]
        self.kind = measure["type"]
        if self.kind == "tail":
            self.lam, t = perron(trip, count)
            self.end_mass = t
            self.start_mass = t
        elif self.kind == "markov":
            self.p = {(int(w), int(v), int(k)): x for w, v, k, x in measure["P"]}
            self.start_mass = np.array(measure["q"])
        else:
            self.p = {(int(w), int(v)): x for w, v, x in measure["p"]}
            self.end_mass = ifs_harmonic(measure["p"], count)
            self.start_mass = self.end_mass
        self.total = float(np.sum(self.start_mass))

    def value(self, start, path):
        if self.kind == "tail":
            end = path[-1][1] if path else start
            return float(self.end_mass[end]) / self.lam ** len(path)
        if self.kind == "markov":
            m = float(self.start_mass[start])
            for e in path:
                m *= self.p[e]
            return m
        end = path[-1][1] if path else start
        m = float(self.end_mass[end])
        for w, v, _k in path:
            m *= self.p[(w, v)]
        return m


def cylinders(trip, count, n):
    """All (start, path) pairs of n edges, canonical order."""
    out = {}
    for v, w, c in trip:
        out.setdefault(w, []).extend((w, v, k) for k in range(c))
    for w in out:
        out[w].sort()
    level = [(s, ()) for s in range(count)]
    for _ in range(n):
        level = [(s, p + (e,)) for s, p in level
                 for e in out[p[-1][1] if p else s]]
    return level


def frequency_check(counts, probs, n, z=6.0, min_expected=25.0):
    """Compare observed cylinder counts with exact probabilities: each
    cylinder with at least ``min_expected`` expected hits, and the pooled
    rest, must lie within ``z`` binomial standard errors."""
    rest_p, rest_obs = 0.0, 0
    for key, p in probs.items():
        obs = counts.get(key, 0)
        if n * p >= min_expected:
            sd = math.sqrt(n * p * (1 - p))
            expect(abs(obs - n * p) <= z * sd, f"frequency of {key}: {obs} vs {n * p:.1f}")
        else:
            rest_p += p
            rest_obs += obs
    sd = math.sqrt(max(n * rest_p * (1 - rest_p), 1.0))
    expect(abs(rest_obs - n * rest_p) <= z * sd + 3, "pooled rare-cylinder frequency")
    expect(sum(counts.values()) == n, "sample count")
    expect(set(counts) <= set(probs), "sampled cylinder outside the support")


class KernelValues:
    """Marginal, stochastic rows and constant-harmonic cylinder values of a
    generated edge measure."""

    def __init__(self, kernel):
        self.cells = list(kernel["cells0"])
        idx = {c: i for i, c in enumerate(self.cells)}
        mass = np.zeros((len(self.cells), len(self.cells)))
        for x, y, m in kernel["edges"]:
            mass[idx[x], idx[y]] += m
        self.index = idx
        self.marginal = mass.sum(axis=1)
        self.rows = mass / self.marginal[:, None]

    def value(self, cyl):
        """mu([c_0, ..., c_N]) with q = 1: p-hat(c_0) prod p(c_i, c_i+1)."""
        ids = [self.index[c] for c in cyl]
        m = self.marginal[ids[0]]
        for a, b in zip(ids, ids[1:]):
            m *= self.rows[a, b]
        return float(m)

    def table(self, depth):
        """Every atomic cylinder of 1..depth cells with its value."""
        out = {}
        level = {(c,): self.marginal[i] for i, c in enumerate(self.cells)}
        out.update(level)
        for _ in range(depth - 1):
            level = {cyl + (c,): v * self.rows[self.index[cyl[-1]], j]
                     for cyl, v in level.items() for j, c in enumerate(self.cells)}
            out.update(level)
        return {k: float(v) for k, v in out.items()}
