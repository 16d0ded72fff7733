"""Exact p-adic dynamics of rational maps on compact open domains.

The public names are loaded on first use (PEP 562): importing the package
imports none of its modules, so a command reads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("AnalysisConfig", "DEFAULT_CONFIG"),
    "digraph": (
        "Analysis", "ComponentSelection", "CycleDecomposition", "ErgodicVerdict",
        "LevelDigraph", "MPVerdict", "SubsidiaryEdgeData", "build_digraph",
        "cycle_decomposition",
    ),
    "domains": ("Ball", "CompactDomain"),
    "global_qp": (
        "GlobalGateReport", "GlobalVerdict", "ObstructionWitness", "ReductionFailure",
        "SphereRegion", "certify_no_roots_qp", "degree_gate", "global_check",
        "global_obstruction",
    ),
    "hensel": ("HenselResult", "hensel_lift"),
    "maps": ("RationalMap", "normalize_map"),
    "padics": ("INF", "NEG_INF", "canonical_key", "fraction_valuation"),
    "parsing": ("QP_GLOBAL", "parse_domain", "parse_map"),
    "polynomials": ("poly_eval",),
    "scaling": ("ScalingReport", "classify", "lower_bound_bF"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # not cached in the package: a patched module binding is read on every access
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
