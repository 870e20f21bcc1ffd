"""Classic combination rules: conjunctive and disjunctive families.

Every rule takes two or more sources over one frame and returns a
FusionResult whose conflict report accounts for all redistributed or
retained conflicting mass.  Sources may be subnormal or carry mass on
the empty element; that mass flows through the product expansions
literally.
"""

import itertools
import math
from dataclasses import replace

from .errors import FrameMismatchError, RuleError, TotalConflictError
from .frame import Element, parse_expression_text
from .mass import MassFunction
from .result import ConflictReport, FusionResult, Partial

_CONFLICT_EPS = 1e-12


def _common_frame(sources, minimum=2):
    if len(sources) < minimum:
        raise ValueError(f"need at least {minimum} sources, got {len(sources)}")
    frame = sources[0].frame
    for m in sources[1:]:
        if m.frame != frame:
            raise FrameMismatchError("sources over different frames")
    return frame


def _expand(sources, weight=math.prod):
    """Yield (operand tuple, pair weight) over all focal combinations.

    The weight of a combination is ``weight`` of its masses, by default
    their product; combinations that weigh exactly zero are skipped.
    """
    focal_lists = [list(m.items()) for m in sources]
    for combo in itertools.product(*focal_lists):
        els, masses = zip(*combo)
        mass = weight(masses)
        if mass == 0.0:
            continue
        yield els, mass


def _add(acc, element, mass):
    acc[element] = acc.get(element, 0.0) + mass


def _intersection_element(els):
    """The operands' intersection with an absorption-reduced expression."""
    atoms = els[0].atoms
    for el in els[1:]:
        atoms = atoms & el.atoms
    expr = ("and", tuple(el.expr for el in els))
    return Element(els[0].frame, atoms, expr).canonical()


def _union_element(els):
    atoms = els[0].atoms
    for el in els[1:]:
        atoms = atoms | el.atoms
    expr = ("or", tuple(el.expr for el in els))
    return Element(els[0].frame, atoms, expr).canonical()


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

    A rule expands the sources' product, routes each conflicting
    product (inline, or from the returned list once the whole product is
    known), optionally transfers or normalises the pooled conflict, and
    finishes into a FusionResult.  ``k12`` is the mass of every routed
    product, ``lost`` what was booked to no destination, ``open_world``
    what was left on the empty set for want of any admissible element.
    """

    __slots__ = ("frame", "sources", "acc", "partials", "k12", "lost", "open_world")

    def __init__(self, sources):
        self.sources = tuple(sources)
        self.frame = _common_frame(self.sources)
        self.acc = {}
        self.partials = []
        self.k12 = 0.0
        self.lost = 0.0
        self.open_world = 0.0

    def expand(self, route=None, land=_intersection_element, claim=None,
               weight=math.prod):
        """Book every product's landing; route or return the conflicting ones.

        A product conflicts when its landing is empty or ``claim(els,
        landing)`` holds.  With a ``route`` each is routed as it comes,
        so mass lands in enumeration order; without one the products
        are returned as (operands, mass) pairs.  ``weight`` replaces the
        product of the masses, as in the T-norm rules.
        """
        conflicts = []
        for els, p in _expand(self.sources, weight):
            landing = land(els)
            if not landing.is_empty and (claim is None or not claim(els, landing)):
                _add(self.acc, landing, p)
                continue
            self.k12 += p
            if route is None:
                conflicts.append((els, p))
            else:
                route(els, p, landing)
        return conflicts

    def book(self, els, p, shares, basis="", note=""):
        """Land a product's shares; a None destination is lost mass."""
        for dest, share in shares:
            if dest is None:
                self.lost += share
            else:
                _add(self.acc, dest, share)
        self.partials.append(Partial(els, p, tuple(shares), basis=basis, note=note))

    def strand(self, els, p, note, basis=""):
        """Leave a product on the empty set as open-world mass."""
        self.open_world += p
        self.book(els, p, ((self.frame.empty(), p),), basis, note)

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
        """The result, with the open-world mass flagged under ``open_world``."""
        warnings = tuple(warnings)
        if self.open_world > 0.0:
            warnings += (f"{open_world}: {self.open_world:.6f}",)
        return FusionResult(
            MassFunction(self.frame, self.acc),
            ConflictReport(self.k12, tuple(self.partials)),
            rule=rule,
            warnings=warnings,
            sources=self.sources,
        )


def _unconflicted(combined, rule, sources, warnings=()):
    """The result of a rule that produces no conflicting products."""
    return FusionResult(combined, ConflictReport(0.0, ()), rule=rule,
                        warnings=tuple(warnings), sources=tuple(sources))


def _retained(ledger, rule, note, land=_intersection_element):
    """Expand with every empty landing left on the empty set."""
    empty = ledger.frame.empty()
    ledger.expand(lambda els, p, _: ledger.book(els, p, ((empty, p),), note=note), land)
    return ledger.finish(rule)


# -- transfers shared by the direct rules and the incremental store --------

def _normalise(ledger, message=None):
    """Dempster's normalisation of the landed mass; the total before it.

    A total at zero raises with ``message``, by default Dempster's.
    """
    total = math.fsum(ledger.acc.values())
    if total <= _CONFLICT_EPS:
        raise TotalConflictError(
            message or f"total conflict: k12={ledger.k12:g}; the rule is undefined")
    scale = 1.0 / total
    ledger.acc = {el: v * scale for el, v in ledger.acc.items()}
    return total


def _declared_weights(frame, weights):
    """Validate wo's element weights; the weighted destinations."""
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


def _weight_transfer(ledger, witems):
    """Give each weighted destination its weight's share of k12."""
    if ledger.k12 > 0.0:
        for el, w in witems:
            _add(ledger.acc, el, w * ledger.k12)


def _inagaki_scaling(ledger, p):
    """Scale every landing by (1 + p*k12) and top ignorance up.

    Non-negative for every p inside the validated range; at the upper
    bound the cancellation can leave -1ulp, which must not reach the
    bba constructor.
    """
    ignorance = _ignorance(ledger.frame)
    acc, k12 = ledger.acc, ledger.k12
    m_ign = acc.get(ignorance, 0.0)
    bound_den = 1.0 - k12 - m_ign
    p = float(p)
    if p < 0.0 or (bound_den > _CONFLICT_EPS and p > 1.0 / bound_den + _CONFLICT_EPS):
        limit = "unbounded" if bound_den <= _CONFLICT_EPS else f"{1.0 / bound_den:.12g}"
        raise ValueError(f"p must lie in [0, {limit}], got {p}")
    scale = 1.0 + p * k12
    out = {el: v * scale for el, v in acc.items() if el != ignorance}
    out[ignorance] = max(0.0, scale * m_ign + (scale - p) * k12)
    ledger.acc = out


# -- conjunctive family -------------------------------------------------

def conjunctive(*sources):
    """Intersect focal elements pairwise; conflict stays on the empty set."""
    return _retained(Ledger(sources), "conjunctive", "retained")


def dsm_classic(*sources):
    """Conjunctive combination on the free model: intersections are kept
    as elements in their own right, so nothing needs transferring."""
    return replace(conjunctive(*sources), rule="dsmc")


def smets_tbm(*sources):
    """Open-world conjunctive rule: conflicting mass stays on the empty set."""
    result = conjunctive(*sources)
    warnings = ()
    if result.conflict.k12 > 0.0:
        warnings = (f"open-world mass on the empty set: {result.conflict.k12:.6f}",)
    return replace(result, rule="smets", warnings=warnings)


def dempster(*sources):
    """Conjunctive rule with conflict normalized away.

    Division is by the surviving (non-empty) mass, which equals
    1 - k12 for normal sources but stays meaningful for subnormal ones.
    Total conflict has no defined result and raises.
    """
    ledger = Ledger(sources)
    ledger.expand(lambda els, p, _: ledger.book(
        els, p, ((None, 0.0),), "normalization", "divided out"))
    _normalise(ledger)
    return ledger.finish("dempster")


def yager(*sources):
    """Conjunctive rule with all conflicting mass moved to total ignorance."""
    ledger = Ledger(sources)
    ignorance = _ignorance(ledger.frame)
    ledger.expand(lambda els, p, _: ledger.book(
        els, p, ((ignorance, p),), note="to ignorance"))
    return ledger.finish("yager")


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

    def route(els, p, _):
        recipients = _conflict_operands(els, ignorance)
        union = _union_element(recipients) if recipients else ledger.frame.empty()
        if union.is_empty:
            ledger.book(els, p, ((None, p),), note="union also empty; lost")
        else:
            ledger.book(els, p, ((union, p),), note="to union")

    ledger.expand(route)
    warnings = ()
    if ledger.lost > 0.0:
        warnings = (f"mass lost on fully empty products: {ledger.lost:.6f}",)
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

    def route(els, p, landing):
        if all(el.is_empty for el in els):
            ledger.escalate(els, p, _union_element([el.disjunctive() for el in els]),
                            "operands empty; to joint disjunctive form")
        else:
            ledger.escalate(els, p, landing.disjunctive(),
                            "to disjunctive form of the conflict")

    ledger.expand(route)
    return ledger.finish("dsmh")


def weighted_operator(*sources, weights):
    """Conjunctive rule with conflict split by caller-chosen element weights.

    ``weights`` maps elements (the empty element allowed) to shares
    summing to one.  Putting the whole weight on the empty element
    recovers the open-world rule; on total ignorance, Yager's rule.
    """
    ledger = Ledger(sources)
    witems = _declared_weights(ledger.frame, weights)
    conflicts = ledger.expand()
    _weight_transfer(ledger, witems)
    # The mass moved pooled above; these partials only audit each product.
    ledger.partials.extend(
        Partial(els, p, tuple((el, w * p) for el, w in witems), basis="declared weights")
        for els, p in conflicts
    )
    return ledger.finish("wo")


def inagaki(*sources, p):
    """Inagaki's parametrized family between Yager and Dempster.

    Every non-ignorance landing is scaled by (1 + p*k12); ignorance
    additionally receives (1 + p*k12 - p) * k12.  p = 0 is Yager's
    rule; when nothing lands on ignorance, p = 1/(1 - k12) is
    Dempster's.
    """
    ledger = Ledger(sources)
    ledger.expand(lambda els, pm, _: ledger.book(els, pm, (), "inagaki scaling"))
    _inagaki_scaling(ledger, p)
    return ledger.finish("inagaki")


# -- disjunctive family ----------------------------------------------------

def _symmetric_difference(els):
    atoms = els[0].atoms
    for el in els[1:]:
        atoms = atoms ^ el.atoms
    return Element(els[0].frame, atoms, ("xor", tuple(el.expr for el in els)))


def disjunctive(*sources):
    """Combine by unions: right when at least one source is reliable."""
    return _retained(Ledger(sources), "disjunctive", "all operands empty", _union_element)


def exclusive_disjunctive(*sources):
    """Combine by symmetric difference: exactly one source is right.

    Products of semantically equal operands land on the empty set and
    are flagged as degenerate rather than silently dropped.
    """
    return _retained(Ledger(sources), "xor", "xor-degenerate", _symmetric_difference)


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
    kids = [_eval_source_expr(child, els) for child in expr[1]]
    acc = kids[0]
    for k in kids[1:]:
        if expr[0] == "and":
            acc = acc & k
        elif expr[0] == "or":
            acc = acc | k
        else:
            acc = acc ^ k
    return acc


def mixed(sources, expr):
    """Combine sources along a caller-supplied connective tree.

    The tree's leaves must reference each provided source exactly once.
    """
    if isinstance(expr, str):
        expr = parse_source_expr(expr)
    ledger = Ledger(sources)
    leaves = []
    _source_expr_leaves(expr, leaves)
    if sorted(leaves) != list(range(1, len(ledger.sources) + 1)):
        raise ValueError(
            f"expression must use each of sources 1..{len(ledger.sources)} exactly once, got {sorted(leaves)}"
        )
    return _retained(ledger, "mixed", "empty landing",
                     lambda els: _eval_source_expr(expr, els).canonical())


def conditional(m, hypothesis, rule="conjunctive", **params):
    """Condition a bba on a hypothesis by fusing it with certainty in it."""
    if hypothesis.frame != m.frame:
        raise FrameMismatchError("hypothesis from another frame")
    if hypothesis.is_empty:
        raise ValueError("cannot condition on an empty hypothesis")
    from .registry import resolve

    spec = resolve(rule)
    certain = MassFunction.certain(hypothesis)
    result = spec.combine([m, certain], dict(params))
    return replace(result, rule=f"conditional[{rule}]", sources=(m, certain))


# -- mixing family -----------------------------------------------------------

def murphy_average(*sources):
    """The plain average of the sources' masses."""
    frame = _common_frame(sources)
    s = len(sources)
    acc = {}
    for m in sources:
        for el, v in m.items():
            _add(acc, el, v / s)
    return MassFunction(frame, acc)


def weighted_mixing(sources, weights):
    """Convex mixing of sources with caller-chosen importance weights."""
    sources = tuple(sources)
    frame = _common_frame(sources, minimum=1)
    weights = [float(w) for w in weights]
    if len(weights) != len(sources):
        raise ValueError(f"{len(sources)} sources but {len(weights)} weights")
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
    return MassFunction(frame, acc)
