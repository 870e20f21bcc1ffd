"""Basic belief assignments over a frame, and the functions derived from them."""

import math

from .errors import FrameMismatchError, ParameterError, RuleError
from .frame import (INTERVAL_FRAME, Element, Frame, IntervalElement, Value, degree_inclusion,
                    degree_intersection)

# How far a total may drift from 1 before the bba stops counting as normal.
STATUS_TOL = 1e-9


def _fsum(values):
    """``math.fsum`` of finite masses; a RuleError where their total or a term overflows."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        raise RuleError("masses total more than the largest float") from None


class MassFunction:
    """An immutable assignment of mass to elements of one frame.

    The frame is a label frame, with Element keys, or the interval
    frame, with IntervalElement keys.  Only focal elements (mass > 0)
    are stored; semantically equal keys are merged at construction.
    Mass on the empty element is allowed: open-world sources carry it,
    and it flows through combination formulas literally.
    """

    __slots__ = ("frame", "_map")

    def __init__(self, frame, assignments=()):
        if not isinstance(frame, Frame) and frame is not INTERVAL_FRAME:
            raise TypeError(f"expected a Frame or INTERVAL_FRAME, got {type(frame).__name__}")
        items = assignments.items() if hasattr(assignments, "items") else assignments
        merged = {}
        for key, value in items:
            el = frame.parse(key) if isinstance(key, str) else key
            if not isinstance(el, (Element, IntervalElement)):
                raise TypeError(f"expected Element or str key, got {type(key).__name__}")
            if el.frame != frame:
                raise FrameMismatchError("focal element from another frame")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"non-finite mass {value} on {el.display}")
            if value < 0.0:
                raise ValueError(f"negative mass {value} on {el.display}")
            if value == 0.0:
                continue
            merged[el] = merged.get(el, 0.0) + value
        if not math.isfinite(sum(merged.values())):
            raise ValueError("masses total more than the largest float")
        self.frame = frame
        self._map = merged

    @classmethod
    def _landed(cls, frame, masses):
        """The bba of a combination's landings, distinct elements of ``frame``
        mapped to floats: checked in bulk, finite and non-negative (else a
        RuleError), and zeros dropped, as the constructor does."""
        values = masses.values()
        if not (math.isfinite(sum(values)) and min(values, default=0.0) >= 0.0):
            for el, value in masses.items():
                if not math.isfinite(value):
                    raise RuleError(f"non-finite mass {value} on {el.display}")
                if value < 0.0:
                    raise RuleError(f"negative mass {value} on {el.display}")
        if 0.0 in values:
            masses = {el: value for el, value in masses.items() if value}
        return cls._holding(frame, masses)

    @classmethod
    def _parsed_source(cls, frame, masses):
        """The bba of a parsed source, distinct elements of ``frame`` mapped
        to non-negative floats: kept as it is when its total is finite and
        no mass is zero, checked in bulk; else built by the constructor,
        which drops the zeros and words every refusal."""
        values = masses.values()
        if not (math.isfinite(sum(values)) and min(values, default=0.0) > 0.0):
            return cls(frame, masses)
        return cls._holding(frame, masses)

    @classmethod
    def _holding(cls, frame, masses):
        """A bba holding ``masses`` as given, unchecked."""
        self = object.__new__(cls)
        self.frame = frame
        self._map = masses
        return self

    @classmethod
    def vacuous(cls, frame):
        """The vacuous bba: all mass on total ignorance."""
        return cls(frame, {frame.ignorance(): 1.0})

    @classmethod
    def certain(cls, element):
        return cls(element.frame, {element: 1.0})

    # -- mapping views ---------------------------------------------------

    def items(self):
        return self._map.items()

    def focal(self):
        return list(self._map)

    def mass(self, element):
        if element.frame != self.frame:
            raise FrameMismatchError("query element from another frame")
        return self._map.get(element, 0.0)

    def __len__(self):
        return len(self._map)

    def __iter__(self):
        return iter(self._map)

    def __contains__(self, element):
        return element in self._map

    def __eq__(self, other):
        return (
            isinstance(other, MassFunction)
            and self.frame == other.frame
            and self._map == other._map
        )

    def __hash__(self):
        return hash((self.frame, frozenset(self._map.items())))

    def __repr__(self):
        inner = ", ".join(
            f"{el.display}={value:g}"
            for el, value in sorted(self._map.items(), key=lambda kv: kv[0].display)
        )
        return f"MassFunction({inner})"

    @property
    def total(self):
        return _fsum(self._map.values())

    @property
    def status(self):
        """'normal', 'incomplete' (sum < 1) or 'paraconsistent' (sum > 1)."""
        total = self.total
        if abs(total - 1.0) <= STATUS_TOL:
            return "normal"
        return "incomplete" if total < 1.0 else "paraconsistent"

    def is_bayesian(self):
        """True when every focal element is one of the frame's hypotheses."""
        singles = {self.frame.label(nm) for nm in self.frame.names}
        return all(el in singles for el in self._map)

    # -- derived functions --------------------------------------------------

    def bel(self, a):
        """Belief: total mass of non-empty focal elements inside a."""
        self._check(a)
        return math.fsum(
            v for el, v in self._map.items() if el.mask and not el.mask & ~a.mask
        )

    def pl(self, a):
        """Plausibility: total mass of focal elements meeting a."""
        self._check(a)
        return math.fsum(v for el, v in self._map.items() if el.mask & a.mask)

    def bel_d(self, a):
        """Inclusion-weighted belief: each subset counts for |X|/|a| of its mass."""
        self._check(a)
        if a.is_empty:
            return 0.0
        return math.fsum(
            degree_inclusion(el, a) * v
            for el, v in self._map.items()
            if el.mask and not el.mask & ~a.mask
        )

    def pl_d(self, a):
        """Overlap-weighted plausibility: each focal counts for |X&a|/|X|a| of its mass."""
        self._check(a)
        return math.fsum(
            degree_intersection(el, a) * v
            for el, v in self._map.items()
            if el.mask & a.mask
        )

    def q(self, a):
        """Commonality: total mass of focal elements containing a."""
        self._check(a)
        return math.fsum(v for el, v in self._map.items() if not a.mask & ~el.mask)

    def commonality(self):
        """The commonality function of this bba."""
        return self.q

    def _check(self, a):
        if not isinstance(a, Element):
            raise TypeError(f"expected Element, got {type(a).__name__}")
        if a.frame != self.frame:
            raise FrameMismatchError("query element from another frame")

    # -- transforms ---------------------------------------------------------

    def discount(self, reliability):
        """Scale all masses by the reliability factor, remainder to ignorance."""
        if not 0.0 <= reliability <= 1.0:
            raise ValueError(f"reliability must be in [0, 1], got {reliability}")
        if reliability == 1.0:
            return self
        scaled = {el: v * reliability for el, v in self._map.items()}
        remainder = (1.0 - reliability) * self.total
        ignorance = self.frame.ignorance()
        scaled[ignorance] = scaled.get(ignorance, 0.0) + remainder
        return MassFunction(self.frame, scaled)

    def normalize(self):
        """Divide through by the total so masses sum to one."""
        total = self.total
        if total <= 0.0:
            raise ValueError("cannot normalize a zero-total mass function")
        return MassFunction(self.frame, {el: v / total for el, v in self._map.items()})

    def without_empty(self):
        return MassFunction(
            self.frame, {el: v for el, v in self._map.items() if not el.is_empty}
        )

    def on_frame(self, frame):
        """Re-evaluate every focal element under another (tighter) model.

        Masses whose elements become empty stay put on the empty
        element; the combination rules decide what to do with them.
        """
        out = {}
        for el, v in self._map.items():
            el2 = frame.reevaluate(el)
            out[el2] = out.get(el2, 0.0) + v
        return MassFunction(frame, out)

    def to_opinion(self, focus, atomicity=None):
        """Coarsen onto {focus, not-focus} and read off (b, d, u).

        Mass inside the focus is belief, mass inside its complement is
        disbelief, everything straddling is uncertainty.  The default
        atomicity is the cardinality share of the focus in ignorance.
        """
        self._check(focus)
        comp = ~focus
        if focus.is_empty or comp.is_empty:
            raise ParameterError(
                f"focus {focus.display} does not induce a binary coarsening"
            )
        b = d = u = 0.0
        for el, v in self._map.items():
            if el.is_empty:
                continue
            if not el.mask & ~focus.mask:
                b += v
            elif not el.mask & ~comp.mask:
                d += v
            else:
                u += v
        if abs(b + d + u - 1.0) > STATUS_TOL:
            raise RuleError(f"an opinion needs a source whose non-empty masses total 1, "
                            f"got {b + d + u:g}")
        if atomicity is None:
            atomicity = degree_inclusion(focus, self.frame.ignorance())
        return Opinion(b, d, u, atomicity)


class Opinion(Value):
    """A binary opinion: belief, disbelief, uncertainty and relative atomicity."""

    __slots__ = ("belief", "disbelief", "uncertainty", "atomicity")

    def __init__(self, belief, disbelief, uncertainty, atomicity):
        self._set(belief, disbelief, uncertainty, atomicity)
        for name, value in zip(self.__slots__, self._key(self)):
            if not -STATUS_TOL <= value <= 1.0 + STATUS_TOL:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = belief + disbelief + uncertainty
        if abs(total - 1.0) > STATUS_TOL:
            raise ValueError(f"belief + disbelief + uncertainty must be 1, got {total}")

    @property
    def is_dogmatic(self):
        return self.uncertainty == 0.0
