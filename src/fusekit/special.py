"""Special-purpose rules: Zhang center, interval x-averaging, the
consensus operator on opinions, T-norm and T-conorm fusion, the
cautious commonality-min rule, and degree-improved rule variants."""

import itertools
import math
from dataclasses import dataclass

from .errors import DegenerateConsensusError, FrameTooLargeError, RuleError
from .classic import (
    Ledger,
    _add,
    _common_frame,
    _expand,
    _intersection_element,
    _normalise,
    _union_element,
)
from .frame import degree_intersection, degree_union
from .mass import MassFunction, Opinion
from .result import ConflictReport, FusionResult

_EPS = 1e-12

# Full power-set enumeration is exponential; 12 hypotheses is already
# 4096 subsets and well past any sane frame here.
_CAUTIOUS_GUARD = 12


# -- Zhang's center combination ------------------------------------------

_ZHANG_DEGREES = {
    "product": lambda x, y: len(x.atoms & y.atoms) / (len(x.atoms) * len(y.atoms)),
    "union": degree_intersection,
}


def _degree_weighted(m1, m2, rule, what, degree, land, message, disjoint=None):
    """Land degree(x, y) * p for each focal pair, then renormalize.

    Every disjoint pair counts into k12; ``disjoint(ledger, els, p)``,
    when given, books it.
    """
    ledger = Ledger((m1, m2))
    if any(el.is_empty for m in ledger.sources for el in m):
        raise RuleError(f"{what} needs non-empty focal elements")
    for els, p in _expand(ledger.sources):
        r = degree(*els)
        if r > 0.0:
            _add(ledger.acc, land(els), r * p)
        if not (els[0].atoms & els[1].atoms):
            ledger.k12 += p
            if disjoint is not None:
                disjoint(ledger, els, p)
    _normalise(ledger, message)
    return ledger.finish(rule)


def zhang_center(m1, m2, degree="product"):
    """Conjunctive combination weighted by intersection sharpness.

    The weight of each focal pair is r = |X&Y| / (|X|*|Y|) for the
    product degree or r = |X&Y| / |X|Y| for the union degree; empty
    intersections weigh nothing, so the weighted masses are renormalized
    to unit total.
    """
    if degree not in _ZHANG_DEGREES:
        raise ValueError(f"degree must be 'product' or 'union', got {degree!r}")
    return _degree_weighted(
        m1, m2, f"zhang-{degree}", "zhang_center", _ZHANG_DEGREES[degree],
        _intersection_element, "all focal pairs are disjoint; nothing to renormalize",
    )


# -- convolutive x-averaging ----------------------------------------------

@dataclass(frozen=True)
class IntervalElement:
    """A closed real interval used as a focal element."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval bounds must be finite")
        if lo > hi:
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def average(self, other):
        """The midpoint interval of self and other, bound by bound."""
        return IntervalElement((self.lo + other.lo) / 2, (self.hi + other.hi) / 2)

    @property
    def display(self):
        return f"[{self.lo:g},{self.hi:g}]"

    def __str__(self):
        return self.display


class IntervalMassFunction:
    """A bba whose focal elements are real intervals.

    Interval frames never mix with label frames; this is deliberately a
    separate, minimal container.
    """

    __slots__ = ("_map",)

    def __init__(self, masses):
        acc = {}
        for el, v in dict(masses).items():
            if not isinstance(el, IntervalElement):
                raise TypeError(f"focal elements must be intervals, got {type(el).__name__}")
            v = float(v)
            if v < 0.0:
                raise ValueError(f"negative mass {v} on {el.display}")
            if v == 0.0:
                continue
            acc[el] = acc.get(el, 0.0) + v
        self._map = dict(sorted(acc.items(), key=lambda kv: (kv[0].lo, kv[0].hi)))

    def items(self):
        return tuple(self._map.items())

    def mass(self, el):
        return self._map.get(el, 0.0)

    @property
    def total(self):
        return math.fsum(self._map.values())

    def __len__(self):
        return len(self._map)

    def __iter__(self):
        return iter(self._map)

    def __eq__(self, other):
        if not isinstance(other, IntervalMassFunction):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        inner = ", ".join(f"{el.display}: {v:g}" for el, v in self._map.items())
        return f"IntervalMassFunction({{{inner}}})"


def convolutive_x_average(m1, m2):
    """Combine interval bbas by averaging: mass lands on the midpoint
    interval of each focal pair.  Coinciding midpoints merge."""
    for m in (m1, m2):
        if not isinstance(m, IntervalMassFunction):
            raise TypeError("convolutive averaging needs interval bbas")
    acc = {}
    for x, px in m1.items():
        for y, py in m2.items():
            mid = x.average(y)
            acc[mid] = acc.get(mid, 0.0) + px * py
    return IntervalMassFunction(acc)


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


def _norm_fusion(m1, m2, fn, land, rule, zero_msg):
    ledger = Ledger((m1, m2))
    ledger.expand(
        lambda els, w, _: ledger.book(els, w, ((None, w),), "normalization",
                                      "empty landing divided out"),
        land, weight=lambda ws: fn(*ws),
    )
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
        m1, m2, TNORMS[kind], _intersection_element, f"tnorm-{kind}",
        f"all T-norm terms vanish under the {kind} norm",
    )


def tconorm_fusion(m1, m2, kind="algebraic"):
    """Disjunctive-style combination with a T-conorm in place of the product."""
    if kind not in TCONORMS:
        raise ValueError(f"kind must be one of {sorted(TCONORMS)}, got {kind!r}")
    return _norm_fusion(
        m1, m2, TCONORMS[kind], _union_element, f"tconorm-{kind}",
        f"all T-conorm terms vanish under the {kind} conorm",
    )


# -- cautious commonality-min rule ---------------------------------------

def _power_set_elements(frame):
    """Every union of hypotheses, smallest first, empty set included."""
    labels = [frame.label(nm) for nm in frame.names]
    out = [frame.empty()]
    for r in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            el = combo[0] if len(combo) == 1 else _union_element(list(combo))
            out.append(el)
    return out


def cautious_commonality_min(m1, m2):
    """Combine by taking the pointwise minimum of commonalities.

    Defined on power-set frames, where commonality and mass determine
    each other through the subset lattice.  The inverted mass map is
    not guaranteed non-negative; when negatives appear the result keeps
    the positive part and carries the full signed map alongside.
    """
    frame = _common_frame((m1, m2))
    if not frame.is_shafer:
        raise RuleError("the cautious rule needs a Shafer (power-set) model")
    if frame.n > _CAUTIOUS_GUARD:
        raise FrameTooLargeError(
            f"power-set inversion over {frame.n} hypotheses is too large"
        )
    subsets = _power_set_elements(frame)
    qmin = {el: min(m1.q(el), m2.q(el)) for el in subsets}
    by_atoms = {el.atoms: qmin[el] for el in subsets}
    signed = {}
    for el in subsets:
        card = el.cardinality
        total = 0.0
        terms = []
        for other in subsets:
            if other.atoms >= el.atoms:
                sign = -1.0 if (other.cardinality - card) % 2 else 1.0
                terms.append(sign * by_atoms[other.atoms])
        total = math.fsum(terms)
        if abs(total) > _EPS:
            signed[el] = total
    negatives = {el: v for el, v in signed.items() if v < -1e-9}
    positives = {el: v for el, v in signed.items() if v > _EPS}
    combined = MassFunction(frame, positives)
    warnings = ()
    signed_out = None
    if negatives:
        signed_out = dict(signed)
        warnings = (
            "inverted mass map is not a bba; combined keeps the positive part "
            "and signed_masses carries the full inversion",
        )
    k12 = combined.mass(frame.empty())
    return FusionResult(
        combined, ConflictReport(k12, ()), rule="cautious",
        warnings=warnings, sources=(m1, m2), signed_masses=signed_out,
    )


# -- degree-improved rule variants ---------------------------------------

def _annul(ledger, els, p):
    ledger.book(els, p, ((None, p),), "intersection degree", "annulled by zero degree")


def _to_union(ledger, els, p):
    ledger.book(els, p, ((_union_element(els), p),), "union degree",
                "pre-normalization share")


_IMPROVED = {
    "disjunctive": (degree_union, _union_element, None),
    "dsmc": (degree_intersection, _intersection_element, _annul),
    "dsmh": (degree_intersection, _intersection_element, _to_union),
    "smets": (degree_intersection, _intersection_element, _annul),
    "yager": (degree_intersection, _intersection_element, _annul),
    "dp": (degree_intersection, _intersection_element, _to_union),
}
_IMPROVED_BASES = tuple(_IMPROVED)


def improved_rules(m1, m2, base="dsmc"):
    """Rule variants weighted by intersection and union degrees.

    Conjunctive terms carry |X&Y| / |X|Y|, union-transfer terms carry
    the complementary weight, and the result is renormalized to unit
    total.  Empty intersections weigh zero, so for the purely
    conjunctive bases (dsmc, smets, yager) conflict vanishes
    structurally and these three coincide; for dp and dsmh the transfer
    weight of a disjoint pair is exactly one, so those two coincide as
    well.
    """
    if base not in _IMPROVED:
        raise ValueError(f"base must be one of {_IMPROVED_BASES}, got {base!r}")
    degree, land, disjoint = _IMPROVED[base]
    return _degree_weighted(m1, m2, f"improved-{base}", "improved rules", degree, land,
                            "zero total after degree weighting", disjoint)
