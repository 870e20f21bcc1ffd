"""Selector-string dispatch for every combination rule.

Each entry adapts one rule to a uniform call shape: a list of sources
plus a parameter dict.  Every call that names a rule passes ``check``;
``run`` is ``check`` followed by the rule's ``combine``, and
``execute_problem`` runs a rule over a parsed problem file.  The rules
of ``pcr``, ``special`` and ``uft`` import their module on their first
combine, so a process loads only the rule families it runs.
"""

from collections import namedtuple

from . import classic
from .errors import FrameMismatchError, ParameterError, RuleError, UnknownRuleError
from .frame import INTERVAL_FRAME
from .mass import MassFunction
from .problem import coerce_params


def _lazy(module):
    """A submodule, imported on first use (``from . import <module>``, as
    -X importtime sees it)."""
    return getattr(__import__(__package__, fromlist=[module]), module)


class RuleSpec(namedtuple("RuleSpec", "name combine mode needs min_sources max_sources",
                          defaults=("mass", (), 2, None))):
    """A selector's rule: ``combine(sources, params)``, its mode (mass,
    interval or opinion), required parameters and source counts."""

    __slots__ = ()


def conditional(m, hypothesis, /, rule="conjunctive", **params):
    """Fuse a bba with certainty in a hypothesis, an element or its text,
    under the mass-mode ``rule`` and its ``params``."""
    if isinstance(hypothesis, str):
        hypothesis = m.frame.parse(hypothesis)
    if hypothesis.frame != m.frame:
        raise FrameMismatchError("hypothesis from another frame")
    if hypothesis.is_empty:
        raise ParameterError("cannot condition on an empty hypothesis")
    certain = MassFunction.certain(hypothesis)
    result = run_mass(rule, [m, certain], params)
    return result._replace(rule=f"conditional[{rule}]", sources=(m, certain))


def _consensus(sources, params):
    frame = sources[0].frame
    focus = params["focus"]
    focus = frame.parse(focus) if isinstance(focus, str) else focus
    dogmatic_bayesian = bool(params.get("dogmatic_bayesian", False)) or (
        all(m.is_bayesian() for m in sources)
    )
    opinions = [m.to_opinion(focus) for m in sources]
    out = opinions[0]
    for w in opinions[1:]:
        out = _lazy("special").consensus(out, w, dogmatic_bayesian=dogmatic_bayesian)
    return out


_RULES = {}


def _register(name, fn, **kw):
    _RULES[name] = RuleSpec(name=name, combine=fn, **kw)


_register("conjunctive", lambda ss, p: classic.conjunctive(*ss))
_register("disjunctive", lambda ss, p: classic.disjunctive(*ss))
_register("xor", lambda ss, p: classic.exclusive_disjunctive(*ss))
_register("mixed", lambda ss, p: classic.mixed(ss, p["expr"]), needs=("expr",))
_register("conditional",
          lambda ss, p: conditional(ss[0], p["given"],
                                    **{**p, "rule": p.get("base", "conjunctive")}),
          needs=("given",), min_sources=1, max_sources=1)
_register("dempster", lambda ss, p: classic.dempster(*ss))
_register("murphy", lambda ss, p: classic.murphy_average(*ss))
_register("mixing", lambda ss, p: classic.weighted_mixing(ss, p["weights"]),
          needs=("weights",), min_sources=1)
_register("dsmc", lambda ss, p: classic.dsm_classic(*ss))
_register("dsmh", lambda ss, p: classic.dsm_hybrid(*ss))
_register("smets", lambda ss, p: classic.smets_tbm(*ss))
_register("yager", lambda ss, p: classic.yager(*ss))
_register("dubois-prade", lambda ss, p: classic.dubois_prade(*ss))
_register("wo", lambda ss, p: classic.weighted_operator(*ss, weights=p["weights"]),
          needs=("weights",))
_register("inagaki", lambda ss, p: classic.inagaki(*ss, p=p["p"]), needs=("p",))
_register("wao", lambda ss, p: _lazy("pcr").wao(*ss))
_register("pcr1", lambda ss, p: _lazy("pcr").pcr1(*ss))
_register("pcr2", lambda ss, p: _lazy("pcr").pcr2(*ss))
_register("pcr3", lambda ss, p: _lazy("pcr").pcr3(*ss))
_register("pcr4", lambda ss, p: _lazy("pcr").pcr4(*ss))
_register("pcr5", lambda ss, p: _lazy("pcr").pcr5(*ss))
_register("minc-a", lambda ss, p: _lazy("pcr").minc(*ss, version="a"))
_register("minc-b", lambda ss, p: _lazy("pcr").minc(*ss, version="b"))
_register("zhang-product",
          lambda ss, p: _lazy("special").zhang_center(ss[0], ss[1], degree="product"),
          max_sources=2)
_register("zhang-union",
          lambda ss, p: _lazy("special").zhang_center(ss[0], ss[1], degree="union"),
          max_sources=2)
_register("xavg", lambda ss, p: _lazy("special").convolutive_x_average(ss[0], ss[1]),
          mode="interval", max_sources=2)
_register("consensus", _consensus, mode="opinion", needs=("focus",))
# The kinds of special.TNORMS, special.TCONORMS and special._IMPROVED_BASES,
# spelled out so that filling the table does not import special.
for _kind in ("algebraic", "bounded", "min"):
    _register(f"tnorm-{_kind}",
              lambda ss, p, k=_kind: _lazy("special").tnorm_fusion(ss[0], ss[1], kind=k),
              max_sources=2)
for _kind in ("algebraic", "bounded", "max"):
    _register(f"tconorm-{_kind}",
              lambda ss, p, k=_kind: _lazy("special").tconorm_fusion(ss[0], ss[1], kind=k),
              max_sources=2)
_register("cautious",
          lambda ss, p: _lazy("special").cautious_commonality_min(ss[0], ss[1]),
          max_sources=2)
for _base in ("disjunctive", "dsmc", "dsmh", "smets", "yager", "dp"):
    _register(f"improved-{_base}",
              lambda ss, p, b=_base: _lazy("special").improved_rules(ss[0], ss[1], base=b),
              max_sources=2)
_register("uft", lambda ss, p: _lazy("uft").uft_combine(ss, p.get("config")))


def selectors():
    """All valid rule selector strings, sorted."""
    return sorted(_RULES)


def resolve(name):
    """Look up a rule by its selector string."""
    spec = _RULES.get(name)
    if spec is None:
        raise UnknownRuleError(
            f"unknown rule {name!r}; valid selectors: {', '.join(selectors())}"
        )
    return spec


def validate_call(spec, n_sources, params):
    """Check arity and required parameters before running a rule."""
    if n_sources < spec.min_sources:
        raise RuleError(
            f"rule {spec.name!r} needs at least {spec.min_sources} sources, got {n_sources}"
        )
    if spec.max_sources is not None and n_sources > spec.max_sources:
        raise RuleError(
            f"rule {spec.name!r} takes at most {spec.max_sources} sources, got {n_sources}"
        )
    for key in spec.needs:
        if key not in params:
            raise RuleError(f"rule {spec.name!r} needs parameter {key!r}")


def check(name, sources, params):
    """The spec a selector names, once its sources' kind (interval or
    label), their number and the rule's parameters check out."""
    spec = resolve(name)
    interval = bool(sources) and sources[0].frame is INTERVAL_FRAME
    if interval and spec.mode != "interval":
        raise RuleError(f"rule {name!r} needs a label frame, not intervals")
    if spec.mode == "interval" and not interval:
        raise RuleError(f"rule {name!r} needs an interval problem (frame-intervals:)")
    validate_call(spec, len(sources), params)
    return spec


def run(name, sources, params):
    """Run a rule by selector once ``check`` passes."""
    return check(name, sources, params).combine(sources, params)


def run_mass(name, sources, params):
    """``run`` for a rule that re-runs another and reads its FusionResult."""
    if resolve(name).mode != "mass":
        raise RuleError(f"rule {name!r} does not give a mass function")
    return run(name, sources, params)


class Outcome(namedtuple("Outcome", "kind frame combined result opinion warnings",
                         defaults=(None, None, None, None, ()))):
    """What running one rule over one problem produced."""

    __slots__ = ()


def execute_problem(problem, rule, overrides=None):
    """Run a rule over a parsed problem, events applied first."""
    params = coerce_params(problem.params)
    if overrides:
        params.update(overrides)
    sources = problem.final_sources()
    if rule == "uft" and "config" not in params:
        params["config"] = _lazy("uft").scenario_config(problem, sources[0].frame)
    spec = check(rule, sources, params)
    frame = sources[0].frame
    out = spec.combine(sources, params)
    if spec.mode == "interval":
        return Outcome("interval", frame=frame, combined=out)
    if spec.mode == "opinion":
        return Outcome("opinion", frame=frame, opinion=out)
    return Outcome("mass", frame=frame, combined=out.combined, result=out,
                   warnings=out.warnings)
