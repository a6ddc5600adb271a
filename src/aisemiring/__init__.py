"""Workbench for finite additively idempotent semirings."""

from .algebra import (
    AxiomError,
    AxiomReport,
    CanonicalForm,
    Congruence,
    CongruenceError,
    FiniteAlgebra,
    OrderRelation,
    ResourceBudgetError,
    TRIVIAL,
    TableFormatError,
    are_isomorphic,
    canonical_form,
    congruence_quotient,
    direct_product,
    dual,
    find_subalgebra_isomorphic,
    natural_order,
    relabel,
    subalgebra_generated,
    verify_axioms,
)
from .derive import Proof, ProofStep, derive_bounded, replay_proof
from .enumeration import (
    EnumerationReport,
    count_restricted_union,
    enumerate_ai_semirings,
    enumerate_column_constant,
    enumerate_constant_mul,
    enumerate_row_constant,
    enumerate_semilattices,
)
from .satisfaction import (
    CATALOG,
    SatisfactionResult,
    evaluate,
    satisfies,
)
from .terms import (
    DecomposedPiece,
    Identity,
    TermNF,
    TermSyntaxError,
    Word,
    decompose_identity,
    parse_identities,
    parse_identity,
    substitute,
)
from .variety import (
    ClassificationError,
    FreeAlgebraResult,
    LatticeIncompleteError,
    MembershipResult,
    VarietyLattice,
    VarietySpec,
    build_lattice,
    classify_generated,
    compare,
    free_algebra,
    holds_in,
    member,
    standard_subvariety_specs,
)

__version__ = "0.1.0"
