"""Fair allocation of indivisible goods under bivalued submodular preferences.

Agents value bundles as ``|S| + (c - 1) * rank(S)`` where rank is a matroid
rank function counting high-value goods. The solver hands out the goods one
transfer path at a time under a pluggable justice criterion (max Nash
welfare, leximin, or p-mean welfare); audits and brute-force oracles check
the results.
"""

from .allocation import (
    Allocation,
    Decomposition,
    compare_domination,
    compare_lex,
    decompose,
    sorted_utility_vector,
    utility_vector,
)
from .audit import audit_allocation, check_ef1, check_efx, mms, mms_ratio_report
from .errors import (
    BifairError,
    InternalInvariantError,
    MalformedMatroidError,
    PreconditionError,
    SizeLimitError,
    UnsupportedCriterionError,
    ValidationError,
)
from .io import load_instance, parse_instance, random_instance
from .oracle import brute_force_optimum, certify_dominating, enumerate_allocations
from .solver import (
    Criterion,
    Leximin,
    MaxNashWelfare,
    PMeanWelfare,
    SolveResult,
    compare_gains,
    make_criterion,
    solve,
)
from .valuation import (
    BivaluedValuation,
    ExplicitMatroid,
    Instance,
    MarkedMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    UniformMatroid,
    validate_explicit,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BifairError",
    "BivaluedValuation",
    "Criterion",
    "Decomposition",
    "ExplicitMatroid",
    "Instance",
    "InternalInvariantError",
    "Leximin",
    "MalformedMatroidError",
    "MarkedMatroid",
    "Matroid",
    "MaxNashWelfare",
    "PMeanWelfare",
    "PartitionMatroid",
    "PreconditionError",
    "SizeLimitError",
    "SolveResult",
    "TransversalMatroid",
    "UniformMatroid",
    "UnsupportedCriterionError",
    "ValidationError",
    "audit_allocation",
    "brute_force_optimum",
    "certify_dominating",
    "check_ef1",
    "check_efx",
    "compare_domination",
    "compare_gains",
    "compare_lex",
    "decompose",
    "enumerate_allocations",
    "load_instance",
    "make_criterion",
    "mms",
    "mms_ratio_report",
    "parse_instance",
    "random_instance",
    "solve",
    "sorted_utility_vector",
    "utility_vector",
    "validate_explicit",
]
