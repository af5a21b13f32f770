"""altkit: structure-constant toolkit for finite-dimensional real
nonassociative algebras.

The pieces: exact algebra arithmetic from structure constants (`core`),
constructors for the named families (`catalog`), identity checking with
explicit verdict strength (`identities`), imaginary-unit loci
(`units`), reflection splits and isomorphism classification
(`structure`), commutator Lie algebras and their types (`lie`), and a
CLI plus claim suite (`cli`, `claims`).
"""

from .core import (
    Algebra,
    AlgebraError,
    ContextError,
    DecompositionError,
    DimensionError,
    Element,
    MulOperator,
    NotApplicableError,
    NucleusContradictionError,
    ParameterError,
    ReflectionError,
    associator,
    commutator,
    default_eps,
    mul_operator,
    multiply,
)
from .catalog import build, tn_special_case
from .identities import (
    IdentityKind,
    IdentityReport,
    check_identity,
    is_division_sampled,
    is_partially_alternative,
    is_strictly_middle,
)
from .lie import (
    LieAlgebra,
    LieClassification,
    check_jacobi,
    classify_lie,
    classify_tp_lie,
    derived_series,
    lieify,
)
from .structure import (
    MiddleClassification,
    ReflectionDecomposition,
    classify_middle_c,
    commutative_nucleus,
    is_automorphism,
    is_isomorphism,
    reflection_decompose,
)
from .units import (
    UnitLocus,
    classify_locus_tn,
    grid_unit_search,
    solve_units_sampled,
    verify_unit,
)

__version__ = "0.1.0"
