"""Combination outcomes: the fused bba plus its conflict audit trail."""

import math
from collections import namedtuple

from .frame import Value

# A share divided out by normalisation: it lands nowhere and is not lost.
NORMALISED = "divided out"


class Partial(namedtuple("Partial", "operands mass shares basis note", defaults=("", ""))):
    """One conflicting product and where its mass went.

    ``shares`` pairs destinations with amounts: an element, ``None``
    (lost: no admissible recipient) or ``NORMALISED`` (divided out).
    """

    __slots__ = ()


class ConflictReport(namedtuple("ConflictReport", "k12 partials", defaults=((),))):
    """Total conflicting mass and the per-product redistribution ledger."""

    __slots__ = ()

    @property
    def lost(self):
        return math.fsum(v for p in self.partials for dest, v in p.shares if dest is None)

    def redistributed(self):
        """Everything the partials handed out, destination by destination."""
        out = {}
        for p in self.partials:
            for dest, v in p.shares:
                out[dest] = out.get(dest, 0.0) + v
        return out


class FusionResult(Value):
    """A combined mass function together with how conflict was handled.

    ``signed_masses`` is set by rules that can produce signed
    pseudo-masses (the cautious rule): {element: signed mass}.  None
    everywhere else.
    """

    __slots__ = ("combined", "conflict", "rule", "warnings", "sources", "signed_masses")

    def __init__(self, combined, conflict, rule="", warnings=(), sources=(), signed_masses=None):
        self._set(combined, conflict, rule, warnings, sources, signed_masses)
