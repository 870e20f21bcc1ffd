"""Belief-function fusion over frames with overlapping hypotheses.

The package models a frame of discernment whose hypotheses may overlap,
the Boolean algebra of elements generated over it, mass functions on
those elements, and a few dozen combination rules ranging from the
conjunctive and disjunctive classics through proportional conflict
redistribution to a configurable unified engine.  Every rule returns
the fused mass function together with a ledger saying where each
conflicting product went.

Importing the package loads none of its modules: each public name
imports its module on first access, so a process pays only for the
rules it uses.
"""

__version__ = "0.1.0"

_MODULES = {
    "classic": "conjunctive dempster disjunctive dsm_classic dsm_hybrid dubois_prade "
               "exclusive_disjunctive inagaki mixed murphy_average smets_tbm "
               "weighted_mixing weighted_operator yager",
    "errors": "DegenerateConsensusError FrameMismatchError FrameTooLargeError FusionError "
              "NotASubsetError ParameterError ParseError RuleError TotalConflictError "
              "UndefinedDegreeError UnknownLabelError UnknownRuleError",
    "frame": "Element Frame IntervalElement degree_inclusion degree_intersection degree_union",
    "golden": "GOLDEN_CASES verify_golden",
    "mass": "MassFunction Opinion",
    "pcr": "minc pcr1 pcr2 pcr3 pcr4 pcr5 wao",
    "problem": "ProblemFile parse_problem",
    "registry": "conditional execute_problem resolve selectors",
    "result": "ConflictReport FusionResult Partial",
    "special": "IntervalMassFunction cautious_commonality_min consensus convolutive_x_average "
               "improved_rules tconorm_fusion tnorm_fusion zhang_center",
    "uft": "Attitude QuasiAssociativeState ScenarioConfig dynamic_update "
           "quasi_associative_combine scenario_config uft_combine",
}
# Each public name and the module that defines it.
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime.
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
