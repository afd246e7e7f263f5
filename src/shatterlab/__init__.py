"""Shattering-extremal set systems: construction, verification, and search.

Families over [n] are 2^n-bit integers, one bit per subset; systems pair
antichain supports with forbidden trace patterns.  The package covers the
construction of a family from a system, the reverse canonical decomposition,
the one-set extension (corner-peeling) step with verified certificates, an
inclusion-exclusion defect, intersection-graph classification, and an exact
Groebner-basis cross-check of extremality.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AmbiguousMissing,
    EmptyInput,
    FullFamily,
    GroundMismatch,
    InfiniteStaircase,
    NotAntichain,
    NotComplete,
    NotExtremal,
    ParseError,
    PatternNotInSupport,
    ShatterlabError,
    TooLarge,
    VerificationFailed,
    WitnessNotEligible,
    ZeroPolynomial,
)
from .families import SetFamily, elements_of_mask, is_antichain, submasks
from .sperner import SpernerSystem, decompose
from .cubes import (
    GraphClass,
    IntersectionGraph,
    classify_graph,
    extremality_defect_by_size,
    intersection_graph,
    recover_anchor,
)
from .elimination import (
    AuditReport,
    EliminationCertificate,
    audit_conjecture,
    augment,
    augment_anchored,
    extend_patterns,
    peel,
    successor_members,
    uncovered_witness,
)
from .groebner import (
    GroebnerReport,
    LexOrder,
    Polynomial,
    cube_polynomial,
    extremality_groebner_report,
    field_equations,
    format_polynomial,
    integer_matrix_rank,
    is_groebner_basis,
    leading_monomial,
    normal_form,
    point_evaluation_rank,
    s_polynomial,
    standard_monomial_count,
    system_generators,
)
from .sampling import SplitMix64, random_antichain, random_family, random_mask, random_system

# every public name of the namespace except the submodules it imports
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
