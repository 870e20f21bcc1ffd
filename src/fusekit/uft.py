"""Scenario-driven fusion: route conflicting products by declared
knowledge, adapt results to model changes, and combine incrementally.

The combining engine runs in two stages.  The reliability stage picks
the expansion (conjunctive for reliable sources, disjunctive when only
some source is right, mixing for statistical pooling, discounting
first when reliabilities are graded).  The conflict stage then routes
every contested product term by the attitude declared for its operand
pair, falling back to keeping non-empty intersections and to the union
for model-empty ones.
"""

from .errors import FrameMismatchError, RuleError
from .classic import (
    Ledger,
    _common_frame,
    _divide_out,
    _inagaki,
    _push,
    _retain,
    _to_ignorance,
    _weigh,
    disjunctive,
    exclusive_disjunctive,
    mixed,
    weighted_mixing,
)
from .frame import CONNECTIVES, INTERVAL_FRAME, Element, Value
from .mass import MassFunction
from .pcr import _column_averages, _column_sums, _pairwise_fold, _pcr5_split
from .problem import CASE_TO_KIND, CASES
from .registry import check, run_mass
from .result import FusionResult

_ATTITUDE_KINDS = tuple(dict.fromkeys(CASE_TO_KIND.values()))

_RELIABILITY_MODES = (
    "all-reliable", "at-least-one", "exactly-one", "mixed", "discounts",
    "statistical",
)


class Attitude(Value):
    """How a contested product term should be routed."""

    __slots__ = ("kind", "right", "recipients")

    def __init__(self, kind, right=None, recipients=()):
        if kind not in _ATTITUDE_KINDS:
            raise ValueError(f"unknown attitude kind {kind!r}")
        if kind == "right" and right is None:
            raise ValueError("attitude 'right' needs the right element")
        self._set(kind, right, tuple(recipients))


class ScenarioConfig(Value):
    """Declared knowledge about sources and conflicts.

    ``pair_attitudes`` keys are frozensets of the operand elements of a
    product term; an attitude listed there is applied to that pair
    whether or not its intersection is empty.  ``default_attitude``
    applies to contested pairs without a declared attitude; contested
    means the landing is empty or a proper refinement of every operand.
    Each config has its own ``pair_attitudes`` dict, so it is unhashable.
    """

    __slots__ = ("reliability", "world", "discounts", "mixed_expr", "pair_attitudes",
                 "default_attitude", "case")

    def __init__(self, reliability="all-reliable", world="closed", discounts=None,
                 mixed_expr=None, pair_attitudes=None, default_attitude=None, case=None):
        if reliability not in _RELIABILITY_MODES:
            raise ValueError(f"unknown reliability mode {reliability!r}")
        if world not in ("open", "closed"):
            raise ValueError(f"world must be 'open' or 'closed', got {world!r}")
        if discounts is not None:
            discounts = tuple(float(f) for f in discounts)
        self._set(reliability, world, discounts, mixed_expr,
                  {} if pair_attitudes is None else pair_attitudes, default_attitude, case)

    @classmethod
    def for_case(cls, case, right=None, recipients=(), world=None, discounts=None):
        """Build the config a bare scenario case identifier stands for."""
        case = str(case)
        if case not in CASES:
            raise ValueError(f"unknown scenario case {case!r}")
        reliability, kind = CASES[case]
        if reliability == "discounts" and discounts is None:
            raise ValueError(f"case {case} needs discount factors")
        return cls(
            reliability=reliability, case=case,
            discounts=discounts if reliability == "discounts" else None,
            world=world or ("open" if kind == "empty" else "closed"),
            default_attitude=Attitude(kind, right=right, recipients=recipients) if kind else None,
        )


_UNION = Attitude("union")


def _check_frame_element(frame, el, what):
    if el.frame != frame:
        raise FrameMismatchError(f"{what} element {el.display} is from another frame")


def uft_combine(sources, config=None):
    """Combine sources under a declared scenario.

    Returns a FusionResult whose conflict report is the audit trail:
    one partial per routed product term, labeled with the scenario case
    and the destination shares.
    """
    sources = tuple(sources)
    config = config or ScenarioConfig()
    if not isinstance(config, ScenarioConfig):
        raise RuleError(f"uft needs a ScenarioConfig, got {type(config).__name__}")
    frame = _common_frame(sources)
    case = config.case or ""

    # Reliability stage: pick the expansion.
    if config.reliability == "at-least-one":
        return disjunctive(*sources)._replace(rule="uft")
    if config.reliability == "exactly-one":
        return exclusive_disjunctive(*sources)._replace(rule="uft")
    if config.reliability == "mixed":
        if config.mixed_expr is None:
            raise ValueError("mixed reliability needs a source combination expression")
        return mixed(sources, config.mixed_expr)._replace(rule="uft")
    if config.reliability == "statistical":
        weights = [1.0] * len(sources) if config.discounts is None else config.discounts
        return weighted_mixing(sources, weights)._replace(rule="uft")

    effective = sources
    if config.reliability == "discounts":
        if config.discounts is None:
            raise ValueError("discount reliability needs the factors")
        if len(config.discounts) != len(sources):
            raise ValueError(
                f"{len(sources)} sources but {len(config.discounts)} discount factors"
            )
        effective = tuple(m.discount(f) for m, f in zip(sources, config.discounts))

    pairs, default = config.pair_attitudes, config.default_attitude
    for pair, att in pairs.items():
        for el in pair:
            _check_frame_element(frame, el, "attitude pair")
        _validate_attitude(frame, att)
    if default is not None:
        _validate_attitude(frame, default)

    # Conflict stage: route every product an attitude claims: its pair's,
    # else the default when it is contested (an empty landing is), else
    # the union when it is empty, the least committal destination that
    # loses nothing.  With no declared pairs every product yielded takes
    # that fallback.
    ledger = Ledger(effective)
    ignorance = frame.ignorance()
    att = fallback = default or _UNION

    def leaf(els, p, mask):
        """Land a product no attitude claims; keep the one found for the loop."""
        nonlocal att
        att = pairs.get(frozenset(els)) if pairs else None
        if att is None and (not mask or default is not None
                            and all(mask != el.mask for el in els)):
            att = fallback
        return p, 0 if att else mask

    for els, p, mask in ledger.expand(leaf=leaf if pairs or default is not None else None):
        basis = f"case {case}" if case else f"attitude {att.kind}"
        if att.kind == "keep":
            note = "kept on intersection"
            if case == "1.3":
                note += " (provisional: model unknown)"
            ledger.book(els, p, ((ledger.landing(mask), p),), basis, note)
        elif att.kind == "split":
            shares = _pcr5_split(els, effective, p)
            if shares:
                ledger.book(els, p, shares, basis, "split to operands")
            else:
                note = "operands weightless; escalated"
                ledger.escalate(els, p, ledger.reductions.joint_disjunctive(els),
                                note, basis, suffix="", degenerate=note)
        elif att.kind == "union":
            ledger.escalate(els, p, ledger.union(els), "to union of operands", basis,
                            suffix="; union empty, to ignorance")
        elif att.kind == "ignorance":
            ledger.escalate(els, p, ignorance, "to total ignorance", basis,
                            degenerate="ignorance empty under this model")
        elif att.kind == "empty":
            ledger.strand(els, p, "declared impossible", basis)
        elif att.kind == "right":
            ledger.book(els, p, ((att.right, p),), basis,
                        f"{att.right.display} declared right")
        elif att.recipients:  # both-wrong
            share = p / len(att.recipients)
            ledger.book(els, p, tuple((r, share) for r in att.recipients), basis,
                        "operands declared wrong")
        elif config.world == "open":
            ledger.strand(els, p, "no recipients; open world", basis)
        else:
            raise RuleError("both-wrong needs recipient elements in a closed world")

    result = ledger.finish("uft", open_world=(
        "mass on the empty set in a closed world" if config.world == "closed"
        else "open-world mass on the empty set"))
    return result._replace(sources=sources)


def _validate_attitude(frame, att):
    if not isinstance(att, Attitude):
        raise TypeError(f"expected Attitude, got {type(att).__name__}")
    named = [("right", att.right)] if att.right is not None else []
    for what, el in named + [("recipient", r) for r in att.recipients]:
        _check_frame_element(frame, el, what)
        if el.is_empty:
            raise ValueError(f"{what} elements must be non-empty")


# -- dynamic model updates -------------------------------------------------

def dynamic_update(state, new_empty, transfer_rule="dsmh", **params):
    """Adapt a fusion result or a bba to newly discovered emptiness.

    ``new_empty`` lists elements now known impossible.  When the state
    is a FusionResult carrying its sources, those are re-evaluated on
    the tightened frame and the transfer rule is re-run; a bare bba is
    re-routed by combining with the vacuous bba under the same rule.
    The transfer rule must be a mass-mode rule; its call is checked.
    A rule without a conflict clause leaves mass on the empty set; the
    result's own warning surfaces it.
    """
    if not isinstance(state, (FusionResult, MassFunction)):
        raise TypeError(f"expected FusionResult or MassFunction, got {type(state).__name__}")
    m = state.combined if isinstance(state, FusionResult) else state
    if m.frame is INTERVAL_FRAME:
        raise RuleError("a model update needs a label frame, not intervals")
    tightened = m.frame.constrain(*new_empty)
    if tightened == m.frame:
        return state

    if isinstance(state, FusionResult) and state.sources:
        new_sources = [src.on_frame(tightened) for src in state.sources]
    else:
        new_sources = [m.on_frame(tightened), MassFunction.vacuous(tightened)]
    result = run_mass(transfer_rule, new_sources, params)
    warnings = result.warnings
    total = result.combined.total
    if total < 1.0 - 1e-9:
        warnings += (f"incomplete: sum={total:.6f}",)
    return result._replace(rule=result.rule or transfer_rule,
                           warnings=warnings, sources=tuple(new_sources))


# -- quasi-associative combining ---------------------------------------------

# The 17 rules the store serves.  9 run on the stored product, each
# through the direct rule's own transfer (plus the source list for column
# statistics).  4 need the per-product conflict structure (None) and
# are recomputed from the stored source list.  4 are pairwise folds
# (``_pairwise_fold``), resumed one binary step per source from the fold
# the state keeps.
_STORE_RULES = {
    "conjunctive": _retain, "dsmc": _retain, "smets": _retain,
    "dempster": _divide_out, "yager": _to_ignorance, "wo": _weigh,
    "inagaki": _inagaki, "pcr1": _column_sums, "wao": _column_averages,
    "dubois-prade": None, "dsmh": None, "pcr2": None, "pcr3": None,
    "pcr4": _pairwise_fold, "pcr5": _pairwise_fold,
    "minc-a": _pairwise_fold, "minc-b": _pairwise_fold,
}


class QuasiAssociativeState(Value):
    """Running conjunctive product over a growing source sequence.

    The stored product makes conjunctive-based rules incremental: add a
    source, then re-apply the rule's transfer step to the store.  The
    sources themselves are kept for rules whose transfer step needs
    them, and the last pairwise fold for the next one to resume.  States
    are equal, and hash alike, by their sources alone.
    """

    # ``_base``: the first ``_folded`` sources' product as a mask table, or None.
    # ``_fold``: (rule, k, bba), a pairwise-fold rule's combined bba over
    # the first k sources, or None.
    __slots__ = ("sources", "_base", "_folded", "_fold")

    def __init__(self, sources, _base, _folded, _fold=None):
        self._set(sources, _base, _folded, _fold)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.sources == other.sources

    def __hash__(self):
        return hash(self.sources)

    def __repr__(self):
        return f"QuasiAssociativeState(sources={self.sources!r})"

    @classmethod
    def start(cls, m):
        return cls((m,), None, 1)

    def append(self, m):
        """The state extended by one source; vacuous appends are no-ops
        on the stored product (products with full ignorance keep every
        landing)."""
        _common_frame((self.sources[0], m))
        return QuasiAssociativeState(self.sources + (m,), self._base, self._folded, self._fold)

    def _table(self):
        """The product's mask table, each pending source pushed on read as one
        merged-walk level, zeros dropped and mask-sorted as ``conjunctive`` lands it."""
        table = self._base
        if table is None:
            table = {el.mask: p for el, p in self.sources[0].items()}
        for m in self.sources[self._folded:]:
            table = _push(table, [(el, p, el.mask, 0) for el, p in m.items()], CONNECTIVES["and"])
            table = {k: p for k, p in sorted(table.items()) if p}
        object.__setattr__(self, "_base", table)
        object.__setattr__(self, "_folded", len(self.sources))
        return table

    @property
    def product(self):
        """The sources' conjunctive product, built on read from the table."""
        if len(self.sources) == 1:
            return self.sources[0]
        frame = self.sources[0].frame
        return MassFunction(frame, [(Element(frame, k), p) for k, p in self._table().items()])

    def _pairwise(self, rule, combine):
        """``combine(sources)`` of a pairwise-fold rule, resumed from the kept
        fold when it is this rule's; its result's bba is then the kept fold."""
        fold = self._fold
        if fold is not None and fold[0] == rule:
            result = _pairwise_fold(lambda a, b: combine((a, b)), rule, self.sources, *fold[1:])
        else:
            result = combine(self.sources)
        object.__setattr__(self, "_fold", (rule, len(self.sources), result.combined))
        return result


def quasi_associative_combine(state, new, rule="dempster", **params):
    """Add one source to the running state and re-apply the rule.

    Returns (new state, FusionResult).  Equals the direct s-ary
    computation for store-based rules, whose k12 is booked as one
    pooled partial; a pairwise fold takes one binary step per source
    appended since its last result, and the other per-product rules are
    recomputed over the stored source list.
    """
    if not isinstance(state, QuasiAssociativeState):
        state = QuasiAssociativeState.start(state)
    if rule not in _STORE_RULES:
        raise RuleError(f"rule {rule!r} is not conjunctive-based; "
                        "incremental combining is undefined")
    spec = check(rule, state.sources + (new,), params)
    state = state.append(new)
    transfer = _STORE_RULES[rule]
    if transfer is _pairwise_fold:
        return state, state._pairwise(rule, lambda ss: spec.combine(ss, params))
    if transfer is None:
        return state, spec.combine(state.sources, params)
    ledger = Ledger(state.sources)
    warnings = transfer(ledger, ledger.stored(state._table()),
                        **{key: params[key] for key in spec.needs})
    return state, ledger.finish(rule, warnings)
