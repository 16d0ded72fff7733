"""Exact p-adic dynamics of rational maps on compact open domains."""

from .config import DEFAULT_CONFIG, AnalysisConfig
from .digraph import (
    Analysis,
    ComponentSelection,
    CycleDecomposition,
    ErgodicVerdict,
    LevelDigraph,
    MPVerdict,
    SubsidiaryEdgeData,
    build_digraph,
    cycle_decomposition,
    union_verdict,
)
from .domains import Ball, CompactDomain, decompose
from .global_qp import (
    GlobalGateReport,
    GlobalVerdict,
    ObstructionWitness,
    ReductionFailure,
    SphereRegion,
    certify_no_roots_qp,
    degree_gate,
    global_check,
    global_obstruction,
)
from .hensel import HenselResult, hensel_lift
from .maps import RationalMap, normalize_map
from .padics import INF, NEG_INF, canonical_key, fraction_valuation
from .parsing import QP_GLOBAL, parse_domain, parse_map
from .polynomials import poly_eval
from .scaling import ScalingReport, classify, lower_bound_bF

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "Ball",
    "CompactDomain",
    "ComponentSelection",
    "CycleDecomposition",
    "ErgodicVerdict",
    "GlobalGateReport",
    "GlobalVerdict",
    "HenselResult",
    "INF",
    "LevelDigraph",
    "MPVerdict",
    "NEG_INF",
    "ObstructionWitness",
    "QP_GLOBAL",
    "RationalMap",
    "ReductionFailure",
    "ScalingReport",
    "SphereRegion",
    "SubsidiaryEdgeData",
    "build_digraph",
    "canonical_key",
    "certify_no_roots_qp",
    "classify",
    "cycle_decomposition",
    "decompose",
    "degree_gate",
    "fraction_valuation",
    "global_check",
    "global_obstruction",
    "hensel_lift",
    "lower_bound_bF",
    "normalize_map",
    "parse_domain",
    "parse_map",
    "poly_eval",
    "union_verdict",
]
