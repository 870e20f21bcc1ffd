"""Basic belief assignments over a frame, and the functions derived from them."""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FrameMismatchError
from .frame import Element, Frame

# How far a total may drift from 1 before the bba stops counting as normal.
STATUS_TOL = 1e-9


class MassFunction:
    """An immutable assignment of mass to elements of one frame.

    Only focal elements (mass > 0) are stored; semantically equal keys
    are merged at construction.  Mass on the empty element is allowed:
    open-world sources carry it, and it flows through combination
    formulas literally.
    """

    __slots__ = ("frame", "_map")

    def __init__(self, frame, assignments=()):
        items = assignments.items() if hasattr(assignments, "items") else assignments
        merged = {}
        for key, value in items:
            el = frame.parse(key) if isinstance(key, str) else key
            if not isinstance(el, Element):
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
        self.frame = frame
        self._map = merged

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
        return math.fsum(self._map.values())

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
            v for el, v in self._map.items() if el.atoms and el.atoms <= a.atoms
        )

    def pl(self, a):
        """Plausibility: total mass of focal elements meeting a."""
        self._check(a)
        return math.fsum(v for el, v in self._map.items() if el.atoms & a.atoms)

    def bel_d(self, a):
        """Inclusion-weighted belief: each subset counts for |X|/|a| of its mass."""
        self._check(a)
        if a.is_empty:
            return 0.0
        card = a.cardinality
        return math.fsum(
            float(Fraction(el.cardinality, card)) * v
            for el, v in self._map.items()
            if el.atoms and el.atoms <= a.atoms
        )

    def pl_d(self, a):
        """Overlap-weighted plausibility: each focal counts for |X&a|/|X|a| of its mass."""
        self._check(a)
        out = 0.0
        terms = []
        for el, v in self._map.items():
            inter = el.atoms & a.atoms
            if not inter:
                continue
            union = el.atoms | a.atoms
            terms.append(float(Fraction(len(inter), len(union))) * v)
        return math.fsum(terms) if terms else out

    def q(self, a):
        """Commonality: total mass of focal elements containing a."""
        self._check(a)
        return math.fsum(v for el, v in self._map.items() if el.atoms >= a.atoms)

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
            raise ValueError(
                f"focus {focus.display} does not induce a binary coarsening"
            )
        b = d = u = 0.0
        for el, v in self._map.items():
            if el.is_empty:
                continue
            if el.atoms <= focus.atoms:
                b += v
            elif el.atoms <= comp.atoms:
                d += v
            else:
                u += v
        if atomicity is None:
            atomicity = float(
                Fraction(focus.cardinality, self.frame.ignorance().cardinality)
            )
        return Opinion(b, d, u, atomicity)


class MassMatrix:
    """Several sources over one frame, read column-wise."""

    __slots__ = ("frame", "sources")

    def __init__(self, sources):
        sources = tuple(sources)
        if not sources:
            raise ValueError("a mass matrix needs at least one source")
        frame = sources[0].frame
        for m in sources[1:]:
            if m.frame != frame:
                raise FrameMismatchError("sources over different frames")
        self.frame = frame
        self.sources = sources

    def column_sum(self, element):
        """Sum of the element's mass down all sources."""
        return math.fsum(m.mass(element) for m in self.sources)

    def columns(self):
        """Column sums for every element focal in at least one source."""
        out = {}
        for m in self.sources:
            for el, v in m.items():
                out[el] = out.get(el, 0.0) + v
        return out


@dataclass(frozen=True)
class Opinion:
    """A binary opinion: belief, disbelief, uncertainty and relative atomicity."""

    belief: float
    disbelief: float
    uncertainty: float
    atomicity: float

    def __post_init__(self):
        for name in ("belief", "disbelief", "uncertainty", "atomicity"):
            value = getattr(self, name)
            if not -STATUS_TOL <= value <= 1.0 + STATUS_TOL:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.belief + self.disbelief + self.uncertainty
        if abs(total - 1.0) > STATUS_TOL:
            raise ValueError(f"belief + disbelief + uncertainty must be 1, got {total}")

    @property
    def is_dogmatic(self):
        return self.uncertainty == 0.0
