"""Finite-cell discretization of measurable Bratteli diagrams.

A level is a finite measurable partition (labeled cells); an edge measure
on cell pairs disintegrates into a marginal on source cells and
row-stochastic kernel rows.  A positive harmonic function q (kernel rows
integrate q to itself) yields an IFS measure on cell cylinders, and the
transfer operator contracts cylinder tables toward it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DepthExhausted,
    MeasureError,
    NoConvergence,
    NotHarmonic,
    NotStochastic,
    ZeroMarginal,
)
from .measures import FixedPointReport, require_masses
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

    @property
    def total(self) -> float:
        return sum(self.mass.values())


@dataclass
class CellKernel:
    """Marginal p-hat on source cells plus conditional stochastic rows."""

    cells0: CellSpace
    cells1: CellSpace
    marginal: dict                 # x -> p-hat(x)
    rows: dict                     # x -> {y: p(x, y)}, each row sums to 1

    def row(self, x) -> dict:
        return self.rows[x]

    def p(self, x, y) -> float:
        return self.rows[x].get(y, 0.0)

    def edge_mass(self, x, y) -> float:
        """Reconstruction p(e) = p-hat(s(e)) p(s(e), r(e))."""
        return self.marginal[x] * self.p(x, y)

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
    """Per-cell residual of sum_y p(x,y) q(y) - q(x)."""
    residuals = {x: abs(sum(p * q[y] for y, p in row.items()) - q[x])
                 for x, row in kernel.rows.items()}
    worst = max(residuals.values())
    return HarmonicReport(residuals, worst, worst < tol)


@dataclass
class KernelHarmonic:
    q: dict
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
    cells = list(kernel.cells0.cells)
    closed = 1
    if set(cells) == set(kernel.cells1.cells):
        closed = len(recurrent_classes(np.array([[kernel.p(x, y) for y in cells] for x in cells])))
    return KernelHarmonic(q, non_unique=closed > 1)


@dataclass
class MeasurableIFSMeasure:
    """Cell-cylinder evaluator mu([C_0..C_N]) built from a harmonic q.

    mu([C_0]) = sum_{x in C_0} q(x) p-hat(x); longer cylinders apply the
    kernel between consecutive cell sets and close with q at the far end.
    Kolmogorov consistency follows from harmonicity.
    """

    kernel: CellKernel
    q: dict

    def __post_init__(self):
        if not harmonic_check(self.kernel, self.q, tol=1e-9).passed:
            raise NotHarmonic("q fails the harmonic condition")

    def _cells_at(self, spec, level: int):
        space = self.kernel.cells0 if level == 0 else self.kernel.cells1
        if spec is None or spec == "*":
            return list(space.cells)
        if isinstance(spec, (list, tuple, set)):
            return list(spec)
        return [spec]

    def value(self, cylinder) -> float:
        """Mass of [C_0, ..., C_N]; each entry is a cell label, a
        collection of labels, or "*" for the whole level."""
        cyl = [self._cells_at(c, i) for i, c in enumerate(cylinder)]
        if len(cyl) > 2 and set(self.kernel.cells0.cells) != set(self.kernel.cells1.cells):
            raise MeasureError("deep cylinders need matching level cell spaces")
        g = {y: self.q[y] for y in cyl[-1]}
        for level in range(len(cyl) - 2, -1, -1):
            g = {x: sum(self.kernel.p(x, y) * g[y] for y in cyl[level + 1])
                 for x in cyl[level]}
        return sum(self.kernel.marginal[x] * g[x] for x in cyl[0])


def measurable_ifs_measure(kernel: CellKernel, q: dict) -> MeasurableIFSMeasure:
    return MeasurableIFSMeasure(kernel, dict(q))


def atomic_cylinders(cells, max_len):
    """Every tuple of 1..max_len cells, shortest first."""
    out = [[(c,) for c in cells]]
    for _ in range(max_len - 1):
        out.append([t + (c,) for t in out[-1] for c in cells])
    return [t for level in out for t in level]


def _transfer(kernel: CellKernel, cyl: tuple, lookup) -> float:
    """(L nu)([cyl]): sum of p-hat(x) p(x, y) nu([y, cyl[2:]]) / p-hat(y) over
    edges (x, y) with x = cyl[0] and y = cyl[1] if given; ``lookup`` gives nu."""
    x = cyl[0]
    total = 0.0
    for y, p in kernel.rows[x].items():
        if len(cyl) > 1 and y != cyl[1]:
            continue
        total += kernel.marginal[x] * p * lookup((y,) + tuple(cyl[2:])) / kernel.marginal[y]
    return total


def check_ifs_fixed_point_measurable(m: MeasurableIFSMeasure, max_len: int = 3,
                                     tol: float = KERNEL_TOL) -> FixedPointReport:
    """Verify mu = integral of mu o tau_e^{-1} over the edge measure on all
    atomic cell cylinders up to max_len levels.

    The pullback under tau_e for e = (x, y) restricts the first two cells
    to x, y and continues from the fiber at y; its density against the
    marginal reference is mu([{y}, C_2..]) / p-hat(y).
    """
    worst, count = 0.0, 0
    for cyl in atomic_cylinders(list(m.kernel.cells0.cells), max_len):
        total = _transfer(m.kernel, cyl, m.value)
        val = m.value(cyl)
        worst = max(worst, abs(total - val) / max(abs(val), 1e-300))
        count += 1
    return FixedPointReport(worst, count, worst < tol)


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
    approach the harmonic IFS values.
    """
    depth = max((len(t) for t in nu0), default=0)
    if iterations >= depth:
        raise DepthExhausted(f"{iterations} applications exceed table depth {depth}")
    cells = list(kernel.cells0.cells)
    table = dict(nu0)
    distances = []
    for _ in range(iterations):
        depth -= 1
        new = {cyl: _transfer(kernel, cyl, table.__getitem__)
               for cyl in atomic_cylinders(cells, depth)}
        distances.append(max(abs(new[c] - table[c]) for c in new))
        table = new
    return IterationResult(table, distances)


# ---------------------------------------------------------------------------
# JSON interchange: {"cells0":[...],"cells1":[...],"edges":[[x,y,mass],...]}

def edge_measure_from_dict(obj: dict) -> EdgeMeasure:
    mass = {(str(x), str(y)): float(m) for x, y, m in obj["edges"]}
    return EdgeMeasure(CellSpace(tuple(str(c) for c in obj["cells0"])),
                       CellSpace(tuple(str(c) for c in obj["cells1"])),
                       mass)


def load_edge_measure(path) -> EdgeMeasure:
    with open(path) as fh:
        return edge_measure_from_dict(json.load(fh))
