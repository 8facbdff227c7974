"""Exact invariants of numerical semigroups generated by partial sums of an
arithmetic progression: Apery sets, Frobenius data, defining-ideal catalogs
with dimension verification, Apery tables, tangent-cone decompositions, and
conjecture sweeps.  Pure Python integers throughout; every closed form is
cross-checked against a brute-force oracle in the test suite.
"""

__version__ = "0.1.0"

from .cone import (
    AperyTable,
    ConeDecomposition,
    apery_table,
    cone_decomposition,
    cone_to_json,
    hilbert_numerator,
    landings,
    order_histogram_closed,
    reduction_number,
    ring_properties,
)
from .errors import DomainError, VerificationError
from .family import (
    AperyRecord,
    ArithmeticSeed,
    UniquenessReport,
    apery_multiplier6,
    apery_records,
    apery_set_closed,
    apery_set_conjectured6,
    apery_values,
    canonical_expansion,
    minimality_check,
    partial_sum_generators,
    triangular_digits,
    uniqueness_check,
)
from .frobenius import (
    PFResult,
    frobenius_number,
    pseudo_frobenius_set,
    semigroup_type,
)
from .ideal import (
    INFINITE,
    BinomialGenerator,
    GastingerReport,
    GroebnerBasis,
    buchberger,
    catalog_to_json,
    gastinger_verify,
    generator_catalog,
    homogeneity_check,
    quotient_basis,
    quotient_dimension,
    standard_monomial_count,
    standard_monomials,
)
from .oracle import (
    apery_oracle,
    frobenius_oracle,
    is_minimal_generating,
    membership,
    order_oracle,
    pseudo_frobenius_oracle,
    representation_count,
    representations,
    validate_generators,
)
from .sweeps import (
    SweepReport,
    resume,
    seed_grid,
    strip_timing,
    sweep_gamma6,
    sweep_uniqueness,
)
