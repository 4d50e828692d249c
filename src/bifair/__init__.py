"""Fair allocation of indivisible goods under bivalued submodular preferences.

Agents value bundles as ``|S| + (c - 1) * rank(S)`` where rank is a matroid
rank function counting high-value goods. The solver hands out the goods one
transfer path at a time under a pluggable justice criterion (max Nash
welfare, leximin, or p-mean welfare); audits and brute-force oracles check
the results.

Public names load on first use: ``import bifair`` imports no submodule, and
``bifair.solve`` imports ``bifair.solver`` (and what it needs) when first read.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "allocation": ("Allocation", "Decomposition", "compare_domination", "compare_lex",
                   "decompose", "sorted_utility_vector", "utility_vector"),
    "audit": ("audit_allocation", "check_ef1", "check_efx", "mms", "mms_ratio_report"),
    "errors": ("BifairError", "InternalInvariantError", "MalformedMatroidError",
               "PreconditionError", "SizeLimitError", "UnsupportedCriterionError",
               "ValidationError"),
    "io": ("load_instance", "parse_instance", "random_instance"),
    "oracle": ("brute_force_optimum", "certify_dominating"),
    "solver": ("Criterion", "Leximin", "MaxNashWelfare", "PMeanWelfare", "SolveResult",
               "compare_gains", "make_criterion", "solve"),
    "valuation": ("BivaluedValuation", "ExplicitMatroid", "Instance", "MarkedMatroid",
                  "Matroid", "PartitionMatroid", "TransversalMatroid", "UniformMatroid",
                  "validate_explicit"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule defining ``name``; keep the object so later reads are plain."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
