"""Invariants of abelian quotient complete intersection singularities.

The objects of study are presented by weighted laminar families on {1..n};
see `aqci.datum` for the axioms.  The package computes log canonical
thresholds (two independent routes), the order of the acting group (two
independent routes), Hilbert-Samuel multiplicities (structural rules with
certified intervals, plus a direct colength oracle), the integral-closure
power (read off the member degrees, with no LP), and runs an exhaustive
verification suite over all isomorphism classes within a size budget.
"""

from .datum import (
    DatumFormatError,
    InvalidDatumError,
    Member,
    MonomialIdeal,
    SpecialDatum,
    ValidationReport,
    Violation,
    apply_permutation,
    canonical_form,
    children,
    format_fraction,
    from_json,
    from_payload,
    is_connected,
    is_isomorphic,
    make_datum,
    maximal_elements,
    monomial_ideal,
    reduce,
    require_valid,
    restrict,
    scale,
    signature,
    to_dot,
    to_json,
    to_payload,
    validate,
)
from .enumeration import EnumerationBudget, class_count, enumerate_data
from .invariants import (
    InvariantSummary,
    branching_product,
    edge_count_identity,
    embedding_dimension,
    floor_factor_product,
    group_generators,
    group_order,
    group_order_lattice,
    summarize,
)
from .lct import (
    LpCertificate,
    find_closure_power,
    lct_datum,
    lct_lp,
    newton_contains,
)
from .multiplicity import (
    EXACT,
    INTERVAL,
    HilbertSamuelTable,
    MultiplicityResult,
    OracleBudget,
    TraceStep,
    hilbert_samuel_table,
    multiplicity,
    multiplicity_lower_bound,
    multiplicity_upper_bound,
)
from .verify import (
    CHECKS,
    VerificationReport,
    ceiling_power_grid,
    check_datum,
    product_concavity_grid,
    run_suite,
)

__version__ = "0.1.0"
