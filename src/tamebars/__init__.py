"""Bar codes and Jordan cells of tame real- and circle-valued simplicial maps.

The package computes level-set persistence data of a simplicial map with
exact field coefficients: bars and Jordan cells with machine-checkable
certificates (for real maps from one certified reduction of the cone on the
complex, for circle maps from the decomposition of the graph representation
of the fibers), and the derived invariants (fiber and global Betti numbers, Novikov numbers,
monodromy, configurations of bar ends, infinite cyclic cover homology).
"""

from .field import QQ, GF2, Field, FieldError, PrimeField, Rationals, field_from_spec
from .matrix import LinearSolveError, Mat
from .canonical import Cell, cell_sort_key, primary_components
from .complexes import (
    CircleMap,
    CocycleViolation,
    CriticalData,
    EmptyComplex,
    MalformedInput,
    RealMap,
    SimplexTable,
    critical_candidates,
    load_document,
    validate_circle_map,
)
from .cutting import (
    CutComplex,
    LevelNotCut,
    SubcomplexHandle,
    cut_at_levels,
    fiber,
    slab,
    unroll_cover,
)
from .homology import (
    HomologyBasis,
    NotTame,
    ReductionCertificateError,
    assemble_rep,
    betti_numbers,
    homology,
    homology_of,
    induced_map,
    level_set_bars,
)
from .quiver import (
    Bar,
    Certificate,
    CircleRep,
    DecompositionError,
    RepresentationError,
    decompose_circle,
    decompose_zigzag,
    line_rep,
    verify_certificate,
)
from .invariants import (
    Configuration,
    IndexOutOfRange,
    InvariantBundle,
    ValuedBar,
    bundle_to_json,
    canonical_check,
    canonical_matrix,
    compute_invariants,
    configuration,
    cover_formulas,
    cylinder_embed,
    fiber_betti_at,
    global_betti,
    image_dim_at,
    monodromy_assemble,
    novikov_betti,
    polynomial,
    quiver_invariants,
)
from .stability import (
    CardinalityMismatch,
    matching_distance,
    perturb,
    stability_experiment,
)

__all__ = [
    "QQ", "GF2", "Field", "FieldError", "PrimeField", "Rationals",
    "field_from_spec",
    "LinearSolveError", "Mat",
    "Cell", "cell_sort_key", "primary_components",
    "CircleMap", "CocycleViolation", "CriticalData", "EmptyComplex",
    "MalformedInput", "RealMap", "SimplexTable", "critical_candidates",
    "load_document", "validate_circle_map",
    "CutComplex", "LevelNotCut", "SubcomplexHandle",
    "cut_at_levels", "fiber", "slab", "unroll_cover",
    "HomologyBasis", "NotTame", "ReductionCertificateError", "assemble_rep",
    "betti_numbers", "homology", "homology_of", "induced_map", "level_set_bars",
    "Bar", "Certificate", "CircleRep", "DecompositionError",
    "RepresentationError", "decompose_circle", "decompose_zigzag", "line_rep",
    "verify_certificate",
    "Configuration", "IndexOutOfRange", "InvariantBundle", "ValuedBar",
    "bundle_to_json", "canonical_check", "canonical_matrix",
    "compute_invariants", "configuration", "cover_formulas", "cylinder_embed",
    "fiber_betti_at", "global_betti", "image_dim_at", "monodromy_assemble",
    "novikov_betti", "polynomial", "quiver_invariants",
    "CardinalityMismatch", "matching_distance", "perturb",
    "stability_experiment",
]

__version__ = "0.1.0"
