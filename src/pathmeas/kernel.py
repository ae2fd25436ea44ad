"""Finite-cell discretization of measurable Bratteli diagrams.

A level is a finite measurable partition (labeled cells); an edge measure
on cell pairs disintegrates into a marginal on source cells and
row-stochastic kernel rows.  A positive harmonic function q (kernel rows
integrate q to itself) yields an IFS measure on cell cylinders, and the
transfer operator contracts cylinder tables toward it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, product

import numpy as np

from .diagram import json_field, json_rows
from .errors import (
    DepthExhausted,
    MeasureError,
    NoConvergence,
    NotHarmonic,
    NotStochastic,
    ZeroMarginal,
)
from .measures import FixedPointReport, _block_sums, require_masses
from .spectral import recurrent_classes

KERNEL_TOL = 1e-12


@dataclass(frozen=True)
class CellSpace:
    """A finite measurable partition of one level, by cell label."""

    cells: tuple

    def __post_init__(self):
        if not self.cells:
            raise MeasureError("cell space must be nonempty")
        if len(set(self.cells)) != len(self.cells):
            raise MeasureError("cell labels must be unique")


@dataclass
class EdgeMeasure:
    """Positive mass on a support of (source cell, target cell) pairs."""

    cells0: CellSpace
    cells1: CellSpace
    mass: dict                     # (x, y) -> positive mass

    def __post_init__(self):
        require_masses(self.mass, "edge mass", positive=True)
        for x, y in self.mass:
            if x not in self.cells0.cells or y not in self.cells1.cells:
                raise MeasureError(f"edge ({x},{y}) off the cell spaces")
        if {x for x, _ in self.mass} != set(self.cells0.cells):
            raise MeasureError("source projection is not onto the level")
        if {y for _, y in self.mass} != set(self.cells1.cells):
            raise MeasureError("range projection is not onto the level")


@dataclass(frozen=True)
class CellArrays:
    """A kernel in cells0 order: p-hat, the dense c x c rows P, the
    products p-hat(x) p(x, y), and the rows' targets in their dict order as
    flat indices into a c x c array, row x holding sizes[x] of them in
    turn.  Targets outside cells0 get no column; ``off`` lists them."""

    mhat: np.ndarray
    P: np.ndarray
    mp: np.ndarray
    order: np.ndarray
    sizes: np.ndarray
    off: list


@dataclass
class CellKernel:
    """Marginal p-hat on source cells plus conditional stochastic rows."""

    cells0: CellSpace
    cells1: CellSpace
    marginal: dict                 # x -> p-hat(x)
    rows: dict                     # x -> {y: p(x, y)}, each row sums to 1

    @cached_property
    def arrays(self) -> CellArrays:
        """The kernel as CellArrays, built on first use and kept; the
        commands that read only the dicts never pay for them."""
        cells = self.cells0.cells
        c = len(cells)
        index = {x: i for i, x in enumerate(cells)}
        mhat = np.array([self.marginal[x] for x in cells], dtype=float)
        rows = [self.rows[x] for x in cells]
        P = np.array([[row.get(y, 0.0) for y in cells] for row in rows], dtype=float)
        flat = [[i * c + index[y] for y in row if y in index] for i, row in enumerate(rows)]
        off = [y for row in rows for y in row if y not in index]
        return CellArrays(mhat, P, mhat[:, None] * P, np.array([*chain(*flat)], dtype=np.intp),
                          np.array([*map(len, flat)]), off)

    def p(self, x, y) -> float:
        return self.rows[x].get(y, 0.0)

    def check_stochastic(self, tol: float = 1e-9):
        for x, row in self.rows.items():
            if abs(sum(row.values()) - 1.0) > tol:
                raise NotStochastic(x, f"kernel row at cell {x!r} sums to "
                                       f"{sum(row.values()):g}")


def disintegrate(p: EdgeMeasure) -> CellKernel:
    """Split an edge measure into marginal and conditional kernel rows;
    the reconstruction identity p-hat(x) p(x,y) = p(x,y)-mass is exact."""
    marginal = {x: 0.0 for x in p.cells0.cells}
    for (x, _y), m in p.mass.items():
        marginal[x] += m
    rows = {}
    for x in p.cells0.cells:
        if marginal[x] == 0.0:
            raise ZeroMarginal(f"cell {x!r} carries no mass")
        rows[x] = {y: m / marginal[x] for (s, y), m in p.mass.items() if s == x}
    return CellKernel(p.cells0, p.cells1, marginal, rows)


@dataclass
class HarmonicReport:
    residuals: dict
    max_residual: float
    passed: bool


def harmonic_check(kernel: CellKernel, q: dict,
                   tol: float = KERNEL_TOL) -> HarmonicReport:
    """Per-cell residual of sum_y p(x,y) q(y) - q(x); a NaN residual is
    the worst one and fails the check.  A q that is not a mapping, lacks a
    cell or holds a value that is not a number raises MeasureError."""
    if not isinstance(q, Mapping):
        raise MeasureError("q is not an object of cell values")
    require_masses({"tol": tol}, "check tolerance")
    try:
        residuals = {x: abs(sum(p * q[y] for y, p in row.items()) - q[x])
                     for x, row in kernel.rows.items()}
    except KeyError as exc:
        raise MeasureError(f"q has no value at cell {exc.args[0]!r}") from None
    except TypeError as exc:
        raise MeasureError(f"q holds a cell value that is not a number: {exc}") from None
    values = residuals.values()
    # max() keeps a NaN only when it comes first
    worst = math.nan if any(math.isnan(r) for r in values) else max(values)
    return HarmonicReport(residuals, worst, worst < tol)


def require_q(kernel: CellKernel, q) -> dict:
    """q as a dict of floats; MeasureError unless it is a mapping that gives
    every cell of both levels a finite, nonnegative number."""
    if not isinstance(q, dict):
        raise MeasureError("q is not an object of cell values")
    try:
        q = {c: float(x) for c, x in q.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise MeasureError(f"q holds a cell value that is not a number: {exc}") from exc
    for c in (*kernel.cells0.cells, *kernel.cells1.cells):
        if c not in q:
            raise MeasureError(f"q has no value at cell {c!r}")
    return require_masses(q, "q value")


@dataclass
class KernelHarmonic:
    q: dict
    residual: float                # harmonic_check's max_residual of q
    non_unique: bool


def solve_harmonic_kernel(kernel: CellKernel, tol: float = 1e-10) -> KernelHarmonic:
    """Positive harmonic function of a stochastic kernel.

    Stochastic rows make the constant function harmonic; it is returned
    sup-one normalized.  Reducible kernels (several closed communicating
    classes) admit non-constant harmonics as well and are flagged.
    """
    kernel.check_stochastic()
    q = {x: 1.0 for x in kernel.cells0.cells}
    report = harmonic_check(kernel, {**q, **{y: 1.0 for y in kernel.cells1.cells}},
                            tol=max(tol, 1e-12))
    if not report.passed:
        raise NoConvergence("constant function failed the harmonic check")
    closed = 1
    if set(kernel.cells0.cells) == set(kernel.cells1.cells):
        closed = len(recurrent_classes(kernel.arrays.P))
    return KernelHarmonic(q, report.max_residual, non_unique=closed > 1)


@dataclass
class MeasurableIFSMeasure:
    """Cell-cylinder evaluator mu([C_0..C_N]) built from a harmonic q.

    mu([C_0]) = sum_{x in C_0} q(x) p-hat(x); longer cylinders apply the
    kernel between consecutive cell sets and close with q at the far end.
    Kolmogorov consistency follows from harmonicity.
    """

    kernel: CellKernel
    q: dict
    _q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.q = require_q(self.kernel, self.q)
        if not harmonic_check(self.kernel, self.q, tol=1e-9).passed:
            raise NotHarmonic("q fails the harmonic condition")
        self._q = np.array([self.q[x] for x in self.kernel.cells0.cells], dtype=float)

    def _cells_at(self, spec, level: int):
        space = self.kernel.cells0 if level == 0 else self.kernel.cells1
        if spec is None or spec == "*":
            return list(space.cells)
        cells = list(spec) if isinstance(spec, (list, tuple, set)) else [spec]
        # past level 0 a cells0 label outside cells1 names an empty cylinder
        known = space.cells if level == 0 else (*self.kernel.cells0.cells, *space.cells)
        for c in cells:
            if c not in known:
                raise MeasureError(f"unknown cell {c!r} at level {level}")
        return cells

    def _require_depth(self, n: int):
        if n > 2 and set(self.kernel.cells0.cells) != set(self.kernel.cells1.cells):
            raise MeasureError("deep cylinders need matching level cell spaces")

    def value(self, cylinder) -> float:
        """Mass of [C_0, ..., C_N]; each entry is a cell label, a
        collection of labels, or "*" for the whole level."""
        if len(cylinder) == 0:
            raise MeasureError("a cylinder names at least one level")
        cyl = [self._cells_at(c, i) for i, c in enumerate(cylinder)]
        self._require_depth(len(cyl))
        g = {y: self.q[y] for y in cyl[-1]}
        for level in range(len(cyl) - 2, -1, -1):
            g = {x: sum(self.kernel.p(x, y) * g[y] for y in cyl[level + 1])
                 for x in cyl[level]}
        return sum(self.kernel.marginal[x] * g[x] for x in cyl[0])

    def levels(self, n: int):
        """Values of every atomic cylinder of 1..n cells, one flat array per
        length L: the C order of a c^L array, which is atomic_cylinders
        order.  Built from the right with ``value``'s products: S_1 = q,
        S_{L+1}[x, y, ...] = p(x, y) S_L[y, ...], mu = p-hat(x) S_L[x, ...]."""
        _require_size(n, "cylinder length")
        self._require_depth(n)
        a = self.kernel.arrays
        c = len(a.mhat)
        s = self._q
        for length in range(1, n + 1):
            if length > 1:
                s = (a.P[:, :, None] * s.reshape(c, -1)).ravel()
            yield (a.mhat[:, None] * s.reshape(c, -1)).ravel()


def measurable_ifs_measure(kernel: CellKernel, q: dict) -> MeasurableIFSMeasure:
    return MeasurableIFSMeasure(kernel, q)


def _require_size(n: int, what: str):
    if n < 0:
        raise MeasureError(f"{what} {n} is negative")


def atomic_cylinders(cells, max_len):
    """Every tuple of 1..max_len cells, shortest first; none for 0."""
    _require_size(max_len, "cylinder length")
    return [t for n in range(1, max_len + 1) for t in product(cells, repeat=n)]


def _transfer(kernel: CellKernel, levels: list) -> list:
    """(L nu) at lengths 1..len(levels) from a table's flat levels nu_1,
    nu_2, ... (``MeasurableIFSMeasure.levels`` order).

    Length 1 sums p-hat(x) p(x, y) nu([y]) / p-hat(y) over each row x in
    its own order, from 0.0; at length L >= 2 only the edge (x, y) of the
    cylinder's first two cells counts, with nu_{L-1}([y, ...]) in place of
    nu([y]).
    """
    if not levels:
        return []
    a = kernel.arrays
    if a.off:
        raise MeasureError(f"kernel target {a.off[0]!r} is not a level-0 cell; "
                           "the transfer needs p-hat there")
    c = len(a.mhat)
    out = [_block_sums(((a.mp * levels[0]) / a.mhat).ravel()[a.order], a.sizes)]
    for prev in levels[:-1]:
        out.append(((a.mp[:, :, None] * prev.reshape(c, -1)) / a.mhat[:, None]).ravel())
    return out


def check_ifs_fixed_point_measurable(m: MeasurableIFSMeasure, max_len: int = 3,
                                     tol: float = KERNEL_TOL) -> FixedPointReport:
    """Verify mu = integral of mu o tau_e^{-1} over the edge measure on all
    atomic cell cylinders up to max_len levels.

    The pullback under tau_e for e = (x, y) restricts the first two cells
    to x, y and continues from the fiber at y; its density against the
    marginal reference is mu([{y}, C_2..]) / p-hat(y).  A NaN deviation
    fails the check.
    """
    values = list(m.levels(max_len))
    worst = float(np.max([0.0] + [np.max(np.abs(t - v) / np.maximum(np.abs(v), 1e-300))
                                  for t, v in zip(_transfer(m.kernel, values), values)]))
    return FixedPointReport(worst, sum(v.size for v in values), worst < tol)


@dataclass
class IterationResult:
    table: dict
    distances: list                # sup distance between successive tables


def fixed_point_iterate(kernel: CellKernel, nu0: dict, iterations: int) -> IterationResult:
    """Apply the transfer operator L(nu) = integral of nu o tau_e^{-1} dp(e)
    to a cylinder table.

    ``nu0`` maps atomic cell tuples (lengths 1..d) to nonnegative values.
    Each application consumes one depth level; ``iterations`` >= d raises
    DepthExhausted.  Successive sup distances are reported; the iterates
    approach the harmonic IFS values.  The table is read once, at lengths
    1..d-1, where a missing value, or one that is not finite and
    nonnegative, raises MeasureError; it is written once, in
    atomic_cylinders order.
    """
    _require_size(iterations, "iterations")
    depth = max(map(len, nu0), default=0)
    if iterations >= depth:
        raise DepthExhausted(f"{iterations} applications exceed table depth {depth}")
    if not iterations:
        return IterationResult(dict(nu0), [])
    cells = kernel.cells0.cells
    sizes = [len(cells) ** n for n in range(1, depth)]
    try:
        read = np.fromiter(map(nu0.__getitem__, chain.from_iterable(
            product(cells, repeat=n) for n in range(1, depth))), float, sum(sizes))
    except KeyError as exc:
        raise MeasureError(f"table has no value at {exc.args[0]!r}") from exc
    if not 0 <= read.min() <= read.max() < math.inf:    # a NaN fails both
        bad = int(np.flatnonzero(~((read >= 0) & (read < math.inf)))[0])
        raise MeasureError(f"table value {float(read[bad])!r} at "
                           f"{atomic_cylinders(cells, depth - 1)[bad]!r} "
                           "is not finite and nonnegative")
    ends = list(accumulate(sizes))
    levels = [read[end - size:end] for end, size in zip(ends, sizes)]
    distances = []
    for _ in range(iterations):
        depth -= 1
        # each application's input levels are a prefix of the last output
        levels = _transfer(kernel, levels[:depth])
        new = np.concatenate(levels)
        distances.append(float(np.abs(new - read[:new.size]).max()))
        read = new
    table = dict(zip(atomic_cylinders(cells, depth), new.tolist()))
    return IterationResult(table, distances)


# ---------------------------------------------------------------------------
# JSON interchange: {"cells0":[...],"cells1":[...],"edges":[[x,y,mass],...]}

def edge_measure_from_dict(obj: dict) -> EdgeMeasure:
    """The edge measure a JSON object describes; a missing key or a
    malformed row raises MeasureError naming it."""
    mass = json_rows(json_field(obj, "edges", "edge measure", MeasureError), 3, "edge",
                     lambda rows: {(str(x), str(y)): float(m) for x, y, m in rows}, MeasureError)
    cells = []
    for key in ("cells0", "cells1"):
        labels = json_field(obj, key, "edge measure", MeasureError)
        if not isinstance(labels, (list, tuple)):
            raise MeasureError(f"edge measure {key} is not a list of cell labels")
        cells.append(CellSpace(tuple(str(c) for c in labels)))
    return EdgeMeasure(*cells, mass)


def load_edge_measure(path) -> EdgeMeasure:
    with open(path) as fh:
        return edge_measure_from_dict(json.load(fh))
