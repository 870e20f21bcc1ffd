"""Belief-function fusion over frames with overlapping hypotheses.

The package models a frame of discernment whose hypotheses may overlap,
the Boolean algebra of elements generated over it, mass functions on
those elements, and a few dozen combination rules ranging from the
conjunctive and disjunctive classics through proportional conflict
redistribution to a configurable unified engine.  Every rule returns
the fused mass function together with a ledger saying where each
conflicting product went.
"""

from .classic import (
    conjunctive,
    dempster,
    disjunctive,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    exclusive_disjunctive,
    inagaki,
    mixed,
    murphy_average,
    smets_tbm,
    weighted_mixing,
    weighted_operator,
    yager,
)
from .errors import (
    DegenerateConsensusError,
    FrameMismatchError,
    FrameTooLargeError,
    FusionError,
    NotASubsetError,
    ParseError,
    RuleError,
    TotalConflictError,
    UndefinedDegreeError,
    UnknownLabelError,
)
from .frame import (
    Element,
    Frame,
    degree_inclusion,
    degree_intersection,
    degree_union,
)
from .golden import GOLDEN_CASES, execute_problem, verify_golden
from .mass import MassFunction, Opinion
from .pcr import minc, pcr1, pcr2, pcr3, pcr4, pcr5, wao
from .problem import ProblemFile, parse_problem, scenario_config
from .registry import conditional, resolve, selectors
from .result import ConflictReport, FusionResult, Partial
from .special import (
    IntervalElement,
    IntervalMassFunction,
    cautious_commonality_min,
    consensus,
    convolutive_x_average,
    improved_rules,
    tconorm_fusion,
    tnorm_fusion,
    zhang_center,
)
from .uft import (
    Attitude,
    QuasiAssociativeState,
    ScenarioConfig,
    dynamic_update,
    quasi_associative_combine,
    uft_combine,
)

__version__ = "0.1.0"

__all__ = [
    "Attitude",
    "ConflictReport",
    "DegenerateConsensusError",
    "Element",
    "Frame",
    "FrameMismatchError",
    "FrameTooLargeError",
    "FusionError",
    "FusionResult",
    "GOLDEN_CASES",
    "IntervalElement",
    "IntervalMassFunction",
    "MassFunction",
    "NotASubsetError",
    "Opinion",
    "ParseError",
    "Partial",
    "ProblemFile",
    "QuasiAssociativeState",
    "RuleError",
    "ScenarioConfig",
    "TotalConflictError",
    "UndefinedDegreeError",
    "UnknownLabelError",
    "cautious_commonality_min",
    "conditional",
    "conjunctive",
    "consensus",
    "convolutive_x_average",
    "degree_inclusion",
    "degree_intersection",
    "degree_union",
    "dempster",
    "disjunctive",
    "dsm_classic",
    "dsm_hybrid",
    "dubois_prade",
    "dynamic_update",
    "exclusive_disjunctive",
    "execute_problem",
    "improved_rules",
    "inagaki",
    "minc",
    "mixed",
    "murphy_average",
    "parse_problem",
    "pcr1",
    "pcr2",
    "pcr3",
    "pcr4",
    "pcr5",
    "quasi_associative_combine",
    "resolve",
    "scenario_config",
    "selectors",
    "smets_tbm",
    "tconorm_fusion",
    "tnorm_fusion",
    "uft_combine",
    "verify_golden",
    "wao",
    "weighted_mixing",
    "weighted_operator",
    "yager",
    "zhang_center",
]
