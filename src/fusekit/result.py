"""Combination outcomes: the fused bba plus its conflict audit trail."""

import math
from dataclasses import dataclass

from .mass import MassFunction


@dataclass(frozen=True)
class Partial:
    """One conflicting product and where its mass went.

    ``shares`` pairs destinations with amounts; a ``None`` destination
    marks mass that was genuinely lost (no admissible recipient).
    """

    operands: tuple
    mass: float
    shares: tuple
    basis: str = ""
    note: str = ""

    @property
    def lost(self):
        return math.fsum(v for dest, v in self.shares if dest is None)


@dataclass(frozen=True)
class ConflictReport:
    """Total conflicting mass and the per-product redistribution ledger."""

    k12: float
    partials: tuple = ()

    @property
    def lost(self):
        return math.fsum(p.lost for p in self.partials)

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
