"""Measures on path spaces of generalized Bratteli diagrams.

Construction and validation of diagrams (finite or banded infinite vertex
levels), finite-path combinatorics, Perron eigenpairs, tail-invariant /
Markov / IFS measures with their audits and samplers, semibranching
diagnostics, and a finite-cell kernel discretization.
"""

from .diagram import (
    DEFAULT_WINDOW,
    FINITE,
    INTEGERS,
    NATURALS,
    DiagramSpec,
    Edge,
    HeightVector,
    IncidenceMatrix,
    ValidationReport,
    diagram_from_dict,
    diagram_to_dict,
    edge_graph_01,
    height_vector,
    is_irreducible,
    load_diagram,
    validate_diagram,
)
from .errors import (
    DegenerateSolution,
    DepthExhausted,
    DiagramError,
    DomainViolation,
    EmptyPath,
    InconsistentVectors,
    InfiniteMass,
    LengthMismatch,
    MeasureError,
    NoConvergence,
    NonStationary,
    NotAdmissible,
    NotHarmonic,
    NotStochastic,
    NotZeroOne,
    PathError,
    PathmeasError,
    ReducibleSuspected,
    SolverError,
    SupportMismatch,
    TooShort,
    Unreachable,
    WindowTooSmall,
    ZeroMarginal,
    ZeroMass,
    ZeroMeasureCylinder,
    ZeroTransition,
)
from .kernel import (
    CellKernel,
    CellSpace,
    EdgeMeasure,
    MeasurableIFSMeasure,
    check_ifs_fixed_point_measurable,
    disintegrate,
    edge_measure_from_dict,
    fixed_point_iterate,
    harmonic_check,
    load_edge_measure,
    measurable_ifs_measure,
    solve_harmonic_kernel,
)
from .measures import (
    IFSWeights,
    MarkovMeasure,
    TailInvariantMeasure,
    check_ifs_fixed_point,
    check_kolmogorov,
    check_shift_invariance,
    check_tail_invariance,
    empirical_check,
    ifs_measure,
    markov_measure,
    measure_from_dict,
    nonstationary_shift_product,
    sample_path,
    sample_paths,
    shift_condition_tail,
    stationary_tail_measure,
    tail_measure_from_vectors,
    tail_to_markov,
)
from .pathspace import (
    FinitePath,
    LevelPartitionCell,
    PathDistance,
    cell,
    dist,
    empty_path,
    enumerate_paths,
    one_edge_extensions,
    parse_path_literal,
    path_levels,
    prepend,
    shift,
    tail_equivalent_on_prefix,
    validate_path,
)
from .sfs import (
    CKMatrix,
    SemibranchingSystem,
    build_sfs,
    ck_matrix,
    preimage_count,
    quasi_stationary_test,
    rn_derivative,
)
from .spectral import (
    EigenPair,
    HarmonicVector,
    StationaryDistribution,
    perron_eigenpair,
    solve_harmonic,
    stationary_distribution,
)

__version__ = "0.1.0"
