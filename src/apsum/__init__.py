"""Exact invariants of numerical semigroups generated by partial sums of an
arithmetic progression: Apery sets, Frobenius data, defining-ideal catalogs
with dimension verification, certified Apery tables that carry the
tangent-cone invariants, and conjecture sweeps.  Pure Python integers
throughout; every closed form is cross-checked against a brute-force oracle
in the test suite.
"""

__version__ = "0.1.0"

from .cone import (
    AperyTable,
    apery_table,
    cone_to_json,
    order_histogram_closed,
    ring_properties,
)
from .errors import DomainError, VerificationError
from .family import (
    AperyRecord,
    ArithmeticSeed,
    UniquenessReport,
    apery_records,
    apery_set_closed,
    canonical_expansion,
    element_order,
    minimality_check,
    partial_sum_generators,
    uniqueness_check,
)
from .frobenius import PFResult, pseudo_frobenius_set
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
)
from .oracle import (
    apery_oracle,
    frobenius_oracle,
    is_minimal_generating,
    membership,
    order_oracle,
    pseudo_frobenius_oracle,
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
