"""Classic combination rules: conjunctive and disjunctive families.

Every rule takes two or more sources over one frame and returns a
FusionResult whose conflict report accounts for all redistributed or
retained conflicting mass.  Sources may be subnormal or carry mass on
the empty element; that mass flows through the product expansions
literally.
"""

import itertools
import math
from collections.abc import Mapping
from dataclasses import replace

from .errors import FrameMismatchError, RuleError, TotalConflictError
from .frame import CONNECTIVES, Element, Reductions, fold, parse_expression_text
from .mass import MassFunction
from .result import NORMALISED, ConflictReport, FusionResult, Partial

# The zero tolerance of every rule module: totals at or below it count as nothing.
_EPS = 1e-12


def _common_frame(sources, minimum=2):
    if len(sources) < minimum:
        raise ValueError(f"need at least {minimum} sources, got {len(sources)}")
    frame = sources[0].frame
    for m in sources[1:]:
        if m.frame != frame:
            raise FrameMismatchError("sources over different frames")
    return frame


def _add(acc, element, mass):
    acc[element] = acc.get(element, 0.0) + mass


def _union_element(els):
    """The element of the union of the operands' atoms."""
    return Element(els[0].frame, fold("or", (el.mask for el in els)))


def _subset_unions(els):
    """Distinct non-empty unions of each non-empty subset of the operands.

    Subsets come in ``itertools.combinations`` order, smallest first; a
    single operand stands for itself.
    """
    seen = set()
    for r in range(1, len(els) + 1):
        for combo in itertools.combinations(els, r):
            el = combo[0] if r == 1 else _union_element(combo)
            if not el.is_empty and el.mask not in seen:
                seen.add(el.mask)
                yield el


def _conflict_operands(els, ignorance):
    """Non-empty operands of a conflicting product that may receive mass.

    Total ignorance is exonerated whenever any other non-empty operand
    exists: it intersects everything, so it never causes the emptiness,
    and charging it would break the vacuous source's neutrality.
    """
    nonempty = [el for el in els if not el.is_empty]
    narrowed = [el for el in nonempty if el != ignorance]
    return narrowed or nonempty


def _ignorance(frame):
    ignorance = frame.ignorance()
    if ignorance.is_empty:
        raise RuleError("total ignorance is empty under this model")
    return ignorance


# -- the shared expansion and routing core ----------------------------------

class Ledger:
    """Landed mass and the conflict audit trail of one combination.

    A rule expands the sources' product (or a stored conjunctive
    product), hands the conflicting products to its transfer, and
    finishes into a FusionResult.  ``k12`` is the mass of every
    conflicting product.
    """

    __slots__ = ("frame", "sources", "acc", "partials", "k12", "reductions", "_landings")

    def __init__(self, sources):
        self.sources = tuple(sources)
        self.frame = _common_frame(self.sources)
        self.acc = {}
        self.partials = []
        self.k12 = 0.0
        self.reductions = Reductions(self.frame)
        self._landings = {}

    def expand(self, op="and", claim=None, leaf=None):
        """Land every product and yield the conflicting ones.

        The one loop over focal products: a depth-first walk in
        ``itertools.product`` order whose prefixes carry their operands,
        mass product (left to right from 1.0, as ``math.prod``) and masks
        joined by ``op``.  A product weighs its mass product and lands on
        ``landing(mask)``; a ``leaf(els, p, mask)`` returns (weight,
        landing) instead.  A product of zero weight is skipped; one whose
        landing is empty or ``claim(els, landing)`` holds conflicts and
        is yielded as (operands, weight, landing).  Products land as the
        caller iterates: a transfer that books each conflict as it comes
        books in enumeration order, one that needs every landing first
        takes ``list(conflicts)``.
        """
        join = CONNECTIVES[op]
        # An interval has no mask: only a leaf lands interval products.
        levels = [tuple((el, m, getattr(el, "mask", 0)) for el, m in src.items())
                  for src in self.sources]
        last, acc, landings = len(levels) - 1, self.acc, self._landings
        stack = [((), 1.0, 0, iter(levels[0]))]
        while stack:
            prefix, p, mask, children = stack[-1]
            if len(prefix) < last:
                for el, m, k in children:
                    stack.append(((*prefix, el), p * m, join(mask, k) if prefix else k,
                                  iter(levels[len(prefix) + 1])))
                    break
                else:
                    stack.pop()
                continue
            stack.pop()
            for el, m, k in children:
                els = (*prefix, el)
                if leaf is None:
                    w, k = p * m, join(mask, k)
                    landing = landings.get(k) or self.landing(k)
                else:
                    w, landing = leaf(els, p * m, join(mask, k))
                if not w:
                    continue
                if not landing.is_empty and (claim is None or not claim(els, landing)):
                    acc[landing] = acc.get(landing, 0.0) + w
                    continue
                self.k12 += w
                yield els, w, landing

    def landing(self, mask):
        """The one Element this combination lands on for a survivor mask."""
        if (el := self._landings.get(mask)) is None:
            el = self._landings[mask] = Element(self.frame, mask)
        return el

    def stored(self, product):
        """Land a stored conjunctive product, as ``expand`` lands the
        sources' product: its empty-set mass is one conflict with no
        operands, yielded where the product holds it."""
        for el, p in product.items():
            if el.is_empty:
                self.k12 += p
                yield (), p, el
            else:
                _add(self.acc, el, p)

    def book(self, els, p, shares, basis="", note=""):
        """Land a product's shares; None is lost and NORMALISED divided out.
        A share lands on the ledger's own element for its mask, which
        ``acc`` holds already when a product landed there."""
        for dest, share in shares:
            if dest is not None and dest is not NORMALISED:
                _add(self.acc, self.landing(dest.mask), share)
        self.partials.append(Partial(els, p, tuple(shares), basis=basis, note=note))

    def divide(self, els, p):
        """Book a product whose mass a later normalisation divides out."""
        self.book(els, p, ((NORMALISED, p),), "normalization", "divided out")

    def strand(self, els, p, note, basis=""):
        """Leave a product on the empty set."""
        self.book(els, p, ((self.landing(0), p),), basis, note)

    def escalate(self, els, p, dest, note, basis="",
                 suffix="; fell back to ignorance", degenerate="model fully degenerate"):
        """Send a product to ``dest``, else to total ignorance, else to the
        empty set: only a fully degenerate model leaks to the open world."""
        if dest.is_empty:
            dest, note = self.frame.ignorance(), note + suffix
        if dest.is_empty:
            self.strand(els, p, degenerate, basis)
        else:
            self.book(els, p, ((dest, p),), basis, note)

    def finish(self, rule, warnings=(), open_world="open-world mass on the empty set"):
        """The result of the landed mass and the booked partials."""
        return _result(rule, MassFunction(self.frame, self.acc), self.sources,
                       ConflictReport(self.k12, tuple(self.partials)), warnings, open_world)


def _result(rule, combined, sources, conflict=ConflictReport(0.0), warnings=(),
            open_world="open-world mass on the empty set"):
    """Every FusionResult: the rule's warnings, then any combined mass on
    the empty set, flagged under ``open_world``."""
    empty = combined.mass(combined.frame.empty())
    if empty > 0.0:
        warnings = (*warnings, f"{open_world}: {empty:.6f}")
    return FusionResult(combined, conflict, rule=rule, warnings=tuple(warnings),
                        sources=tuple(sources))


def _direct(rule, sources, transfer, op="and", **params):
    """Expand the sources' product under ``op``; hand its conflicts to ``transfer``."""
    ledger = Ledger(sources)
    return ledger.finish(rule, transfer(ledger, ledger.expand(op), **params))


# -- transfers shared by the direct rules and the incremental store --------
#
# A transfer takes the ledger and its conflicts, as ``Ledger.expand`` or
# ``Ledger.stored`` yield them, books where their mass goes and returns
# the rule's warnings.

def _retain(ledger, conflicts, note="retained"):
    """Leave every conflicting product on the empty set."""
    for els, p, _ in conflicts:
        ledger.strand(els, p, note)
    return ()


def _divide_out(ledger, conflicts):
    """Dempster: divide every conflicting product out by normalising."""
    for els, p, _ in conflicts:
        ledger.divide(els, p)
    _normalise(ledger)
    return ()


def _to_ignorance(ledger, conflicts):
    """Yager: move every conflicting product to total ignorance."""
    ignorance = _ignorance(ledger.frame)
    for els, p, _ in conflicts:
        ledger.book(els, p, ((ignorance, p),), note="to ignorance")
    return ()


def _normalise(ledger, message=None):
    """Dempster's normalisation of the landed mass; the total before it.

    A total at zero raises with ``message``, by default Dempster's.
    """
    total = math.fsum(ledger.acc.values())
    if total <= _EPS:
        raise TotalConflictError(
            message or f"total conflict: k12={ledger.k12:g}; the rule is undefined")
    scale = 1.0 / total
    ledger.acc = {el: v * scale for el, v in ledger.acc.items()}
    return total


def _declared_weights(frame, weights):
    """Validate wo's element weights; the weighted destinations."""
    if not isinstance(weights, Mapping):
        raise RuleError(f"wo needs weights as element:weight pairs, got {type(weights).__name__}")
    witems = []
    for el, w in weights.items():
        el = frame.parse(el) if isinstance(el, str) else el
        if el.frame != frame:
            raise FrameMismatchError("weight element from another frame")
        w = float(w)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weight for {el.display} must be in [0, 1], got {w}")
        witems.append((frame.empty() if el.is_empty else el, w))
    wsum = math.fsum(w for _, w in witems)
    if abs(wsum - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {wsum}")
    return [(el, w) for el, w in witems if w > 0.0]


def _audit_pooled(ledger, conflicts, fractions, basis):
    """Book each product's part of a transfer already made in one pool:
    its mass split over the destinations by ``fractions`` (summing to 1)."""
    ledger.partials.extend(Partial(els, p, tuple((el, w * p) for el, w in fractions), basis=basis)
                           for els, p, _ in conflicts)


def _weigh(ledger, conflicts, weights):
    """wo: give each weighted destination its weight's share of k12."""
    witems = _declared_weights(ledger.frame, weights)
    conflicts = list(conflicts)
    if ledger.k12 > 0.0:
        for el, w in witems:
            _add(ledger.acc, el, w * ledger.k12)
    _audit_pooled(ledger, conflicts, witems, "declared weights")
    return ()


def _inagaki(ledger, conflicts, p):
    """Inagaki: scale every landing by (1 + p*k12) and top ignorance up;
    book each conflicting product by what the scaling added to each element.

    Non-negative for every p inside the validated range; at the upper
    bound the cancellation can leave -1ulp, which must not reach the
    bba constructor.  The scaling adds k12 * (1 + p * (T - 1)), T the
    product of the source totals, so on subnormal sources the rest of
    each product, a share p * (1 - T), is lost; past T = 1 it would hand
    out more than k12, so such sources raise.
    """
    product = math.prod(m.total for m in ledger.sources)
    if product > 1.0 + _EPS:
        raise RuleError(f"inagaki needs source totals whose product is at most 1, "
                        f"got {product:.6g}")
    ignorance = _ignorance(ledger.frame)
    conflicts = list(conflicts)
    acc, k12 = ledger.acc, ledger.k12
    m_ign = acc.get(ignorance, 0.0)
    bound_den = 1.0 - k12 - m_ign
    p = float(p)
    if not math.isfinite(p) or p < 0.0 or (bound_den > _EPS and p > 1.0 / bound_den + _EPS):
        limit = "unbounded" if bound_den <= _EPS else f"{1.0 / bound_den:.12g}"
        raise ValueError(f"p must lie in [0, {limit}], got {p}")
    scale = 1.0 + p * k12
    out = {el: v * scale for el, v in acc.items() if el != ignorance}
    out[ignorance] = max(0.0, scale * m_ign + (scale - p) * k12)
    ledger.acc = out
    gains = [(el, v - acc.get(el, 0.0)) for el, v in out.items() if v > acc.get(el, 0.0)]
    total = math.fsum(g for _, g in gains)
    fractions = [(el, g / total) for el, g in gains]
    short = p * (1.0 - product)
    if short > _EPS:
        fractions = [(el, f * (1.0 - short)) for el, f in fractions] + [(None, short)]
    _audit_pooled(ledger, conflicts, fractions, "inagaki scaling")
    return ()


# -- conjunctive family -------------------------------------------------

def conjunctive(*sources):
    """Intersect focal elements pairwise; conflict stays on the empty set."""
    return _direct("conjunctive", sources, _retain)


def dsm_classic(*sources):
    """Conjunctive combination on the free model: intersections are kept
    as elements in their own right, so nothing needs transferring."""
    return _direct("dsmc", sources, _retain)


def smets_tbm(*sources):
    """Open-world conjunctive rule: conflicting mass stays on the empty set."""
    return _direct("smets", sources, _retain)


def dempster(*sources):
    """Conjunctive rule with conflict normalized away.

    Division is by the surviving (non-empty) mass, which equals
    1 - k12 for normal sources but stays meaningful for subnormal ones.
    Total conflict has no defined result and raises.
    """
    return _direct("dempster", sources, _divide_out)


def yager(*sources):
    """Conjunctive rule with all conflicting mass moved to total ignorance."""
    return _direct("yager", sources, _to_ignorance)


def dubois_prade(*sources):
    """Conjunctive rule with conflicting products moved to the operands' union.

    The union is taken over the operands responsible for the conflict:
    a vacuous operand contributes nothing (keeping the vacuous source
    neutral).  When the union itself is empty under the model the mass
    has nowhere admissible to go and is lost; the result is then
    subnormal and the loss is flagged.
    """
    ledger = Ledger(sources)
    ignorance = ledger.frame.ignorance()
    lost = 0.0
    for els, p, _ in ledger.expand():
        recipients = _conflict_operands(els, ignorance)
        union = _union_element(recipients) if recipients else ledger.frame.empty()
        if union.is_empty:
            lost += p
            ledger.book(els, p, ((None, p),), note="union also empty; lost")
        else:
            ledger.book(els, p, ((union, p),), note="to union")
    warnings = ()
    if lost > 0.0:
        warnings = (f"mass lost on fully empty products: {lost:.6f}",)
    return ledger.finish("dubois-prade", warnings)


def dsm_hybrid(*sources):
    """Conjunctive rule adapted to emptiness constraints.

    Non-empty intersections keep their mass.  A product of sources that
    are themselves empty goes to the union of their disjunctive forms.
    Any other empty intersection goes to the disjunctive form of its
    absorption-reduced expression.  Either way total ignorance catches
    what is left, and only a fully degenerate model leaks to the empty
    set (open world, flagged).
    """
    ledger = Ledger(sources)
    reductions = ledger.reductions
    for els, p, _ in ledger.expand():
        if all(el.is_empty for el in els):
            ledger.escalate(els, p, reductions.joint_disjunctive(els),
                            "operands empty; to joint disjunctive form")
        else:
            ledger.escalate(els, p, reductions.disjunctive(els),
                            "to disjunctive form of the conflict")
    return ledger.finish("dsmh")


def weighted_operator(*sources, weights):
    """Conjunctive rule with conflict split by caller-chosen element weights.

    ``weights`` maps elements (the empty element allowed) to shares
    summing to one.  Putting the whole weight on the empty element
    recovers the open-world rule; on total ignorance, Yager's rule.
    """
    return _direct("wo", sources, _weigh, weights=weights)


def inagaki(*sources, p):
    """Inagaki's parametrized family between Yager and Dempster.

    Every non-ignorance landing is scaled by (1 + p*k12); ignorance
    additionally receives (1 + p*k12 - p) * k12.  p = 0 is Yager's
    rule; when nothing lands on ignorance, p = 1/(1 - k12) is
    Dempster's.  Conflict is booked by what the scaling added to each element.
    """
    return _direct("inagaki", sources, _inagaki, p=p)


# -- disjunctive family ----------------------------------------------------

def disjunctive(*sources):
    """Combine by unions: right when at least one source is reliable."""
    return _direct("disjunctive", sources, _retain, "or", note="all operands empty")


def exclusive_disjunctive(*sources):
    """Combine by symmetric difference: exactly one source is right.

    Products of semantically equal operands land on the empty set and
    are flagged as degenerate rather than silently dropped.
    """
    return _direct("xor", sources, _retain, "xor", note="xor-degenerate")


# -- mixed connective combinations ----------------------------------------

def parse_source_expr(text):
    """Parse a source-combination expression such as "(1&2)|3".

    Leaves are 1-based source positions; connectives are the same as in
    element expressions, complement excluded.
    """
    raw = parse_expression_text(text)

    def convert(node):
        op = node[0]
        if op == "label":
            if not node[1].isdigit() or int(node[1]) < 1:
                raise ValueError(f"source reference must be a positive integer, got {node[1]!r}")
            return ("src", int(node[1]))
        if op == "not":
            raise ValueError("complement has no meaning over sources")
        if op == "empty":
            raise ValueError("empty node has no meaning over sources")
        return (op, tuple(convert(child) for child in node[1]))

    return convert(raw)


def _source_expr_leaves(expr, acc):
    if expr[0] == "src":
        acc.append(expr[1])
    else:
        for child in expr[1]:
            _source_expr_leaves(child, acc)


def _eval_source_expr(expr, els):
    if expr[0] == "src":
        return els[expr[1] - 1]
    return fold(expr[0], [_eval_source_expr(child, els) for child in expr[1]])


def mixed(sources, expr):
    """Combine sources along a caller-supplied connective tree.

    The tree's leaves must reference each provided source exactly once.
    """
    if isinstance(expr, str):
        expr = parse_source_expr(expr)
    sources = tuple(sources)
    ledger = Ledger(sources)
    leaves = []
    _source_expr_leaves(expr, leaves)
    if sorted(leaves) != list(range(1, len(sources) + 1)):
        raise ValueError(
            f"expression must use each of sources 1..{len(sources)} exactly once, got {sorted(leaves)}"
        )
    conflicts = ledger.expand(leaf=lambda els, p, _: (
        p, ledger.landing(_eval_source_expr(expr, [el.mask for el in els]))))
    return ledger.finish("mixed", _retain(ledger, conflicts, "empty landing"))


# -- mixing family -----------------------------------------------------------

def murphy_average(*sources):
    """The plain average of the sources' masses: mixing with equal weights."""
    _common_frame(sources)
    return replace(weighted_mixing(sources, [1.0] * len(sources)), rule="murphy")


def weighted_mixing(sources, weights):
    """Convex mixing of sources with caller-chosen importance weights."""
    sources = tuple(sources)
    frame = _common_frame(sources, minimum=1)
    weights = [float(w) for w in weights]
    if len(weights) != len(sources):
        raise ValueError(f"{len(sources)} sources but {len(weights)} weights")
    if not all(map(math.isfinite, weights)):
        raise ValueError("mixing weights must be finite")
    if any(w < 0.0 for w in weights):
        raise ValueError("mixing weights must be non-negative")
    wsum = math.fsum(weights)
    if wsum <= 0.0:
        raise ValueError("mixing weights must not all be zero")
    acc = {}
    for m, w in zip(sources, weights):
        if w == 0.0:
            continue
        for el, v in m.items():
            _add(acc, el, v * w / wsum)
    return _result("mixing", MassFunction(frame, acc), sources)
