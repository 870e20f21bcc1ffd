"""Special-purpose rules: Zhang center, interval x-averaging, the
consensus operator on opinions, T-norm and T-conorm fusion, the
cautious commonality-min rule, and degree-improved rule variants."""

import math

from .errors import DegenerateConsensusError, FrameTooLargeError, RuleError
from .classic import (
    _EPS,
    Ledger,
    _normalise,
    _subset_unions,
)
from .frame import INTERVAL_FRAME, IntervalElement, degree_intersection, degree_union
from .mass import MassFunction, Opinion

# Full power-set enumeration is exponential; 12 hypotheses is already
# 4096 subsets and well past any sane frame here.
_CAUTIOUS_GUARD = 12


# -- Zhang's center combination ------------------------------------------

_ZHANG_DEGREES = {
    "product": lambda x, y: ((x.mask & y.mask).bit_count()
                             / (x.mask.bit_count() * y.mask.bit_count())),
    "union": degree_intersection,
}


def _degree_weighted(m1, m2, rule, what, degree, op, message, disjoint=None):
    """Weigh each focal pair by a degree on the Ledger core, then renormalize.

    A pair with mass product p weighs degree(x, y) * p when x and y
    overlap (the degree is its weight, as a T-norm is) and p when they
    are disjoint.  Pairs land on their ``op`` join.  Under an intersection a
    disjoint pair lands on the empty set, conflicts, and goes to the
    ``disjoint(ledger, els, p)`` route; a union lands every pair.
    """
    ledger = Ledger((m1, m2))
    if any(el.is_empty for m in ledger.sources for el in m):
        raise RuleError(f"{what} needs non-empty focal elements")

    for els, p, _ in ledger.expand(op, leaf=lambda els, p, mask: (
            (degree(*els) if els[0].mask & els[1].mask else 1.0) * p, mask)):
        disjoint(ledger, els, p)
    _normalise(ledger, message)
    return ledger.finish(rule)


def zhang_center(m1, m2, degree="product"):
    """Conjunctive combination weighted by intersection sharpness.

    The weight of each focal pair is r = |X&Y| / (|X|*|Y|) for the
    product degree or r = |X&Y| / |X|Y| for the union degree.  A
    disjoint pair weighs its whole product, which the renormalization
    to unit total divides out.
    """
    if degree not in _ZHANG_DEGREES:
        raise ValueError(f"degree must be 'product' or 'union', got {degree!r}")
    return _degree_weighted(
        m1, m2, f"zhang-{degree}", "zhang_center", _ZHANG_DEGREES[degree],
        "and", "all focal pairs are disjoint; nothing to renormalize",
        Ledger.divide,
    )


# -- convolutive x-averaging ----------------------------------------------

def _by_bounds(item):
    return item[0].lo, item[0].hi


class IntervalMassFunction(MassFunction):
    """A bba over the interval frame, its focal elements in (lo, hi) order."""

    __slots__ = ()

    def __init__(self, masses):
        masses = dict(masses)
        for el in masses:
            if not isinstance(el, IntervalElement):
                raise TypeError(f"focal elements must be intervals, got {type(el).__name__}")
        super().__init__(INTERVAL_FRAME, sorted(masses.items(), key=_by_bounds))


def convolutive_x_average(m1, m2):
    """Combine interval bbas by averaging: mass lands on the midpoint
    interval of each focal pair.  Coinciding midpoints merge."""
    for m in (m1, m2):
        if not isinstance(m, MassFunction) or m.frame is not INTERVAL_FRAME:
            raise TypeError("convolutive averaging needs interval bbas")
    acc = {}
    for x, p in m1.items():
        for y, q in m2.items():
            mid = x.average(y)
            acc[mid] = acc.get(mid, 0.0) + p * q
    return IntervalMassFunction._fused(INTERVAL_FRAME, dict(sorted(acc.items(), key=_by_bounds)))


# -- consensus operator ------------------------------------------------------

def consensus(w1, w2, dogmatic_bayesian=False):
    """Jøsang's consensus of two opinions over the same binary focus.

    Undefined when both opinions are dogmatic: the relative dogmatism
    between them is unknowable from the opinions alone.  Pass
    ``dogmatic_bayesian=True`` when both derive from Bayesian bbas,
    which resolves that case to the arithmetic mean.
    """
    if not isinstance(w1, Opinion) or not isinstance(w2, Opinion):
        raise TypeError("consensus combines Opinion values")
    u1, u2 = w1.uncertainty, w2.uncertainty
    k = u1 + u2 - u1 * u2
    if k <= _EPS:
        if dogmatic_bayesian:
            return Opinion(
                (w1.belief + w2.belief) / 2,
                (w1.disbelief + w2.disbelief) / 2,
                0.0,
                (w1.atomicity + w2.atomicity) / 2,
            )
        raise DegenerateConsensusError(
            "both opinions are dogmatic; relative dogmatism is undefined"
        )
    b = (w1.belief * u2 + w2.belief * u1) / k
    d = (w1.disbelief * u2 + w2.disbelief * u1) / k
    u = u1 * u2 / k
    den = u1 + u2 - 2.0 * u1 * u2
    if abs(den) <= _EPS:
        # Both operands vacuous; any atomicity mixture is consistent.
        a = (w1.atomicity + w2.atomicity) / 2
    else:
        a = (w1.atomicity * u2 + w2.atomicity * u1
             - (w1.atomicity + w2.atomicity) * u1 * u2) / den
    return Opinion(min(max(b, 0.0), 1.0), min(max(d, 0.0), 1.0),
                   min(max(u, 0.0), 1.0), min(max(a, 0.0), 1.0))


# -- T-norm and T-conorm fusion ----------------------------------------------

TNORMS = {
    "algebraic": lambda x, y: x * y,
    "bounded": lambda x, y: max(0.0, x + y - 1.0),
    "min": min,
}

TCONORMS = {
    "algebraic": lambda x, y: x + y - x * y,
    "bounded": lambda x, y: min(1.0, x + y),
    "max": max,
}


def _norm_fusion(m1, m2, fn, op, rule, zero_msg):
    ledger = Ledger((m1, m2))
    for els, p, _ in ledger.expand(op, leaf=lambda els, p, mask: (
            fn(m1.mass(els[0]), m2.mass(els[1])), mask)):
        ledger.divide(els, p)
    total = _normalise(ledger, zero_msg)
    warnings = ()
    if abs(total + ledger.k12 - 1.0) > 1e-9:
        warnings = (f"pre-normalization total was {total + ledger.k12:.6f}",)
    return ledger.finish(rule, warnings)


def tnorm_fusion(m1, m2, kind="algebraic"):
    """Conjunctive-style combination with a T-norm in place of the product."""
    if kind not in TNORMS:
        raise ValueError(f"kind must be one of {sorted(TNORMS)}, got {kind!r}")
    return _norm_fusion(
        m1, m2, TNORMS[kind], "and", f"tnorm-{kind}",
        f"all T-norm terms vanish under the {kind} norm",
    )


def tconorm_fusion(m1, m2, kind="algebraic"):
    """Disjunctive-style combination with a T-conorm in place of the product."""
    if kind not in TCONORMS:
        raise ValueError(f"kind must be one of {sorted(TCONORMS)}, got {kind!r}")
    return _norm_fusion(
        m1, m2, TCONORMS[kind], "or", f"tconorm-{kind}",
        f"all T-conorm terms vanish under the {kind} conorm",
    )


# -- cautious commonality-min rule ---------------------------------------

def cautious_commonality_min(m1, m2):
    """Combine by taking the pointwise minimum of commonalities.

    Defined on power-set frames, where commonality and mass determine
    each other through the subset lattice.  The inverted mass map is
    not guaranteed non-negative; when negatives appear the result keeps
    the positive part and carries the full signed map alongside.
    """
    ledger = Ledger((m1, m2))
    frame = ledger.frame
    if not frame.is_shafer:
        raise RuleError("the cautious rule needs a Shafer (power-set) model")
    if frame.n > _CAUTIOUS_GUARD:
        raise FrameTooLargeError(
            f"power-set inversion over {frame.n} hypotheses is too large"
        )
    subsets = [frame.empty(), *_subset_unions(frame.labels())]  # every union, smallest first
    qmin = {el.mask: min(m1.q(el), m2.q(el)) for el in subsets}
    signed = {}
    for el in subsets:
        card = el.cardinality
        terms = []
        for other in subsets:
            if not el.mask & ~other.mask:
                sign = -1.0 if (other.cardinality - card) % 2 else 1.0
                terms.append(sign * qmin[other.mask])
        total = math.fsum(terms)
        if abs(total) > _EPS:
            signed[el] = total
    negatives = {el: v for el, v in signed.items() if v < -1e-9}
    positives = {el.mask: v for el, v in signed.items() if v > _EPS}
    warnings = ("inverted mass map is not a bba; combined keeps the positive part "
                "and signed_masses carries the full inversion",) if negatives else ()
    for els, p, _ in ledger.stored(positives):
        ledger.strand(els, p, "pooled conflict", "commonality minimum")
    return ledger.finish("cautious", warnings)._replace(
        signed_masses=signed if negatives else None)


# -- degree-improved rule variants ---------------------------------------

def _to_union(ledger, els, p):
    ledger.book(els, p, ((ledger.union(els), p),), "union degree",
                "pre-normalization share")


_IMPROVED = {
    "disjunctive": (degree_union, "or", None),
    "dsmc": (degree_intersection, "and", Ledger.divide),
    "dsmh": (degree_intersection, "and", _to_union),
    "smets": (degree_intersection, "and", Ledger.divide),
    "yager": (degree_intersection, "and", Ledger.divide),
    "dp": (degree_intersection, "and", _to_union),
}
_IMPROVED_BASES = tuple(_IMPROVED)


def improved_rules(m1, m2, base="dsmc"):
    """Rule variants weighted by intersection and union degrees.

    Conjunctive terms carry |X&Y| / |X|Y|, union-transfer terms carry
    the complementary weight, and the result is renormalized to unit
    total.  A disjoint pair weighs its whole product: the purely
    conjunctive bases (dsmc, smets, yager) divide it out and coincide;
    dp and dsmh move it to the union and coincide as well.  The
    disjunctive base lands every pair on its union, so its k12 is 0.
    """
    if base not in _IMPROVED:
        raise ValueError(f"base must be one of {_IMPROVED_BASES}, got {base!r}")
    degree, op, disjoint = _IMPROVED[base]
    return _degree_weighted(m1, m2, f"improved-{base}", "improved rules", degree, op,
                            "zero total after degree weighting", disjoint)
