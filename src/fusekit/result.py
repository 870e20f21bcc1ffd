"""Combination outcomes: the fused bba plus its conflict audit trail."""

import math
from dataclasses import dataclass

from .mass import MassFunction

# A share divided out by normalisation: it lands nowhere and is not lost.
NORMALISED = "divided out"


@dataclass(frozen=True)
class Partial:
    """One conflicting product and where its mass went.

    ``shares`` pairs destinations with amounts: an element, ``None``
    (lost: no admissible recipient) or ``NORMALISED`` (divided out).
    """

    operands: tuple
    mass: float
    shares: tuple
    basis: str = ""
    note: str = ""


@dataclass(frozen=True)
class ConflictReport:
    """Total conflicting mass and the per-product redistribution ledger."""

    k12: float
    partials: tuple = ()

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


@dataclass(frozen=True)
class FusionResult:
    """A combined mass function together with how conflict was handled."""

    combined: MassFunction
    conflict: ConflictReport
    rule: str = ""
    warnings: tuple = ()
    sources: tuple = ()
    # Populated by rules that can produce signed pseudo-masses (the
    # cautious rule): {element: signed mass}.  None everywhere else.
    signed_masses: dict = None
