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

from .errors import FrameMismatchError, ParameterError, RuleError, TotalConflictError
from .frame import CONNECTIVES, INTERVAL_FRAME, Element, Reductions, fold, parse_expression_text
from .mass import MassFunction, _fsum
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
    if frame is INTERVAL_FRAME:
        raise RuleError("this rule needs a label frame, not intervals")
    return frame


def _subset_unions(els):
    """Distinct non-empty unions of each non-empty subset of the operands.

    Subsets come in ``itertools.combinations`` order, smallest first; a
    single operand stands for itself.
    """
    seen = set()
    for r in range(1, len(els) + 1):
        for combo in itertools.combinations(els, r):
            el = combo[0] if r == 1 else Element(els[0].frame, fold("or", (e.mask for e in combo)))
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

# A pooled prefix's mass times the least masses still to come stays at or
# above this, far above the subnormals, so none of its products rounds to zero.
_POOL_FLOOR = 2.0 ** -960


def _safety(op, levels):
    """For each level but the last, the (bound, floor) that make a prefix
    safe: ``op`` joins its mask with ``bound`` to a non-empty mask, so no
    completion lands empty, and its mass times ``floor`` stays at or above
    ``_POOL_FLOOR``, so none weighs zero.  The bound is the suffix meet,
    the AND of every focal mask of the sources still to come: every
    completion's mask holds the prefix's mask joined with it.  ``floor``
    is the product of those sources' least masses, each capped at 1.
    None under ``xor``, on two sources (each prefix is one focal element,
    so pooling merges nothing), or when no prefix can be safe."""
    if op not in ("and", "or") or len(levels) < 3:
        return None
    safety, meet, floor = [], -1, 1.0
    for level in reversed(levels[1:]):
        for _, _, k, _ in level:
            meet &= k
        # The last source's meet holds every other level's.
        if not (meet or safety or op == "or"):
            return None
        floor *= min(1.0, *(m for _, m, _, _ in level))
        safety.append((meet, floor))
    return safety[::-1]


def _pool_safe(table, prefixes, join, bound, floor):
    """Pool the safe prefixes' masses into ``table`` by mask; the unsafe
    ones, in order."""
    unsafe = []
    for prefix in prefixes:
        _, p, mask, _ = prefix
        if join(mask, bound) and p * floor >= _POOL_FLOOR:
            table[mask] = table.get(mask, 0.0) + p
        else:
            unsafe.append(prefix)
    return unsafe


def _push(table, level, join):
    """A mask table's entries, each joined with every focal of the next
    source, their masses summed per mask."""
    out = {}
    for mask, p in table.items():
        for _, m, k, _ in level:
            k = join(mask, k)
            out[k] = out.get(k, 0.0) + p * m
    return out


class Ledger:
    """Landed mass and the conflict audit trail of one combination.

    A rule expands the sources' product (or a stored conjunctive
    product), hands the conflicting products to its transfer, and
    finishes into a FusionResult.  ``acc`` maps each landing's survivor
    mask to its mass; ``k12`` is the mass of every conflicting product.
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

    def expand(self, op="and", leaf=None, key=None):
        """Land every product and yield the conflicting ones.

        The one loop over focal products, in ``itertools.product`` order.
        Every source but the last is walked level by level: each prefix
        carries its operands, mass product (left to right, as
        ``math.prod``) and masks joined by ``op``.  A product weighs its
        mass product and lands on its mask, adding its weight to
        ``acc[mask]``; a ``leaf(els, p, mask)`` returns its (weight,
        landing) instead.  A product of zero weight is skipped; one that
        lands on 0 conflicts and is yielded as (operands, weight, mask),
        its mask the ``op`` join of its operands' also where a leaf
        claimed it.  Products land as the caller iterates: a transfer
        that books each conflict as it comes books in enumeration order,
        one that needs every landing first takes ``list(conflicts)``.

        With no leaf, a walked product builds its operands only to
        conflict, and a conflict comes with its operands' route keys ORed
        in place of its empty mask: ``key(el)`` gives each focal element
        an int (0 without ``key``), and prefixes fold keys as they join
        masks.  Under ``and`` or ``or`` on three or more sources a prefix
        that ``_safety`` calls safe can neither conflict nor weigh zero,
        so its operands and keys are never read.  Safe prefixes are
        pooled into one mask → mass table per level, and the table is
        pushed level by level, as in the fast Möbius transform (Kennes,
        1992).  Unsafe prefixes are walked one by one, so the conflicting
        products, their weights and ``k12`` are the plain loop's, bit for
        bit.  The last level's table lands after the walked products.  A
        merged landing's mass is the sum of its merged terms, so its last
        bits may differ from the plain loop's.
        """
        join = CONNECTIVES[op]
        levels = [tuple((el, m, el.mask, key(el) if key else 0) for el, m in src.items())
                  for src in self.sources]
        safety = _safety(op, levels) if leaf is None else None
        prefixes, table = [((el,), m, k, r) for el, m, k, r in levels[0]], {}
        if safety is not None:
            prefixes = _pool_safe(table, prefixes, join, *safety[0])
        for depth, level in enumerate(levels[1:-1], 1):
            table = _push(table, level, join)
            prefixes = [((*els, el), p * m, join(mask, k), r | q)
                        for els, p, mask, r in prefixes for el, m, k, q in level]
            if safety is not None:
                prefixes = _pool_safe(table, prefixes, join, *safety[depth])
        last, acc = levels[-1], self.acc
        if leaf is not None:
            for prefix, p, mask, _ in prefixes:
                for el, m, k, _ in last:
                    els = (*prefix, el)
                    k = join(mask, k)
                    w, to = leaf(els, p * m, k)
                    if not w:
                        continue
                    if to:
                        acc[to] = acc.get(to, 0.0) + w
                        continue
                    self.k12 += w
                    yield els, w, k
            return
        # With no leaf, only a conflict reads its operands.
        for prefix, p, mask, r in prefixes:
            for el, m, k, q in last:
                if not (w := p * m):
                    continue
                if k := join(mask, k):
                    acc[k] = acc.get(k, 0.0) + w
                else:
                    self.k12 += w
                    yield (*prefix, el), w, r | q
        for k, w in _push(table, last, join).items():
            acc[k] = acc.get(k, 0.0) + w

    def landing(self, mask):
        """The one Element this combination gives a survivor mask: the
        result's landing, and the destination a route books."""
        if (el := self._landings.get(mask)) is None:
            el = self._landings[mask] = Element(self.frame, mask)
        return el

    def union(self, els):
        """The landing of the union of the operands' atoms (of none: the empty set)."""
        return self.landing(fold("or", (0, *(el.mask for el in els))))

    def stored(self, table):
        """Land a stored conjunctive product, a survivor mask → mass table,
        as ``expand`` lands the sources' product: its empty-set mass is one
        conflict with no operands and mask 0, yielded where the table holds it."""
        for k, p in table.items():
            if k:
                self.acc[k] = self.acc.get(k, 0.0) + p
            else:
                self.k12 += p
                yield (), p, 0

    def book(self, els, p, shares, basis="", note=""):
        """Land a product's shares on their destinations' masks; None is
        lost and NORMALISED divided out."""
        acc = self.acc
        for dest, share in shares:
            if dest is not None and dest is not NORMALISED:
                acc[dest.mask] = acc.get(dest.mask, 0.0) + share
        self.partials.append(Partial(els, p, tuple(shares), basis, note))

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
        """The result of the landed mass, each landing made once by
        ``landing`` in ascending survivor-mask order, and the booked partials."""
        combined = MassFunction._landed(
            self.frame, {self.landing(k): v for k, v in sorted(self.acc.items())})
        return _result(rule, combined, self.sources,
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
    total = _fsum(ledger.acc.values())
    if total <= _EPS:
        raise TotalConflictError(
            message or f"total conflict: k12={ledger.k12:g}; the rule is undefined")
    scale = 1.0 / total
    ledger.acc = {k: v * scale for k, v in ledger.acc.items()}
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
            raise ParameterError(f"weight for {el.display} must be in [0, 1], got {w}")
        witems.append((frame.empty() if el.is_empty else el, w))
    wsum = math.fsum(w for _, w in witems)
    if abs(wsum - 1.0) > 1e-9:
        raise ParameterError(f"weights must sum to 1, got {wsum}")
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
            ledger.acc[el.mask] = ledger.acc.get(el.mask, 0.0) + w * ledger.k12
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
    full = _ignorance(ledger.frame).mask
    conflicts = list(conflicts)
    acc, k12 = ledger.acc, ledger.k12
    m_ign = acc.get(full, 0.0)
    bound_den = 1.0 - k12 - m_ign
    p = float(p)
    if not math.isfinite(p) or p < 0.0 or (bound_den > _EPS and p > 1.0 / bound_den + _EPS):
        limit = "unbounded" if bound_den <= _EPS else f"{1.0 / bound_den:.12g}"
        raise ParameterError(f"p must lie in [0, {limit}], got {p}")
    scale = 1.0 + p * k12
    # In mask order, as ``finish`` lists them; ignorance, a superset of every
    # landing, has the largest mask.
    out = {k: v * scale for k, v in sorted(acc.items()) if k != full}
    out[full] = max(0.0, scale * m_ign + (scale - p) * k12)
    ledger.acc = out
    gains = [(ledger.landing(k), v - acc.get(k, 0.0)) for k, v in out.items() if v > acc.get(k, 0.0)]
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
        union = ledger.union(_conflict_operands(els, ignorance))
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
    for els, p, key in ledger.expand(key=reductions.keys(itertools.chain(*ledger.sources))):
        if key & 1:  # some operand is not empty
            dest, note = reductions.form(key, els), "to disjunctive form of the conflict"
        else:
            dest, note = (reductions.joint_disjunctive(els),
                          "operands empty; to joint disjunctive form")
        if dest.is_empty:
            ledger.escalate(els, p, dest, note)
        else:
            ledger.book(els, p, ((dest, p),), note=note)
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

def _source_positions(expr):
    """The 1-based source positions at a parsed source expression's leaves."""
    op = expr[0]
    if op == "not":
        raise ParameterError("complement has no meaning over sources")
    if op != "label":
        return [k for child in expr[1] for k in _source_positions(child)]
    if not expr[1].isdecimal() or int(expr[1]) < 1:
        raise ParameterError(f"source reference must be a positive integer, got {expr[1]!r}")
    return [int(expr[1])]


def _eval_sources(expr, masks):
    if expr[0] == "label":
        return masks[int(expr[1]) - 1]
    return fold(expr[0], [_eval_sources(child, masks) for child in expr[1]])


def mixed(sources, expr):
    """Combine sources along a connective expression such as "(1&2)|3".

    Leaves are 1-based source positions, each source's exactly once;
    connectives are those of element expressions, complement excluded.
    """
    expr = parse_expression_text(expr)
    leaves = sorted(_source_positions(expr))
    sources = tuple(sources)
    ledger = Ledger(sources)
    if leaves != list(range(1, len(sources) + 1)):
        raise ParameterError(
            f"expression must use each of sources 1..{len(sources)} exactly once, got {leaves}"
        )
    conflicts = ledger.expand(leaf=lambda els, p, _: (
        p, _eval_sources(expr, [el.mask for el in els])))
    return ledger.finish("mixed", _retain(ledger, conflicts, "empty landing"))


# -- mixing family -----------------------------------------------------------

def murphy_average(*sources):
    """The plain average of the sources' masses: mixing with equal weights."""
    _common_frame(sources)
    return weighted_mixing(sources, [1.0] * len(sources))._replace(rule="murphy")


def weighted_mixing(sources, weights):
    """Convex mixing of sources with caller-chosen importance weights."""
    sources = tuple(sources)
    frame = _common_frame(sources, minimum=1)
    if isinstance(weights, Mapping):
        raise RuleError("mixing needs one weight per source, got element:weight pairs")
    weights = [float(w) for w in weights]
    if len(weights) != len(sources):
        raise ParameterError(f"{len(sources)} sources but {len(weights)} weights")
    if not all(map(math.isfinite, weights)):
        raise ParameterError("mixing weights must be finite")
    if any(w < 0.0 for w in weights):
        raise ParameterError("mixing weights must be non-negative")
    if not math.isfinite(sum(weights)):
        raise ParameterError("mixing weights must sum to a finite number")
    wsum = math.fsum(weights)
    if wsum <= 0.0:
        raise ParameterError("mixing weights must not all be zero")
    acc = {}
    for m, w in zip(sources, weights):
        for el, v in m.items():
            acc[el] = acc.get(el, 0.0) + v * w / wsum
    return _result("mixing", MassFunction(frame, acc), sources)
