"""Small atom-set reference for the conjunctive, Dempster and PCR5 rules.

Written from the rules' definitions, over the generator's atom sets, so
it shares no code with fusekit or its tests.  A mass function here is a
dict from a frozenset of atoms to a float; the empty frozenset stands
for the empty set.
"""

import itertools
import math


def conjunctive(sources):
    """m(A) = sum of m1(X1)...ms(Xs) over X1 & ... & Xs = A."""
    out = {}
    for combo in itertools.product(*(list(m.items()) for m in sources)):
        landing = combo[0][0]
        p = combo[0][1]
        for atoms, v in combo[1:]:
            landing = landing & atoms
            p *= v
        out[landing] = out.get(landing, 0.0) + p
    return out


def dempster(sources):
    """The conjunctive result with the empty set's mass divided out."""
    conj = conjunctive(sources)
    kept = {a: v for a, v in conj.items() if a}
    total = math.fsum(kept.values())
    return {a: v / total for a, v in kept.items()}


def pcr5(m1, m2):
    """Two-source PCR5: each conflicting product m1(X)m2(Y) goes back to X
    and Y in proportion to m1(X) and m2(Y)."""
    out = {}
    for (x, vx), (y, vy) in itertools.product(m1.items(), m2.items()):
        p = vx * vy
        if x & y:
            out[x & y] = out.get(x & y, 0.0) + p
            continue
        out[x] = out.get(x, 0.0) + p * vx / (vx + vy)
        out[y] = out.get(y, 0.0) + p * vy / (vx + vy)
    return out


def max_difference(got, want):
    """Largest absolute mass difference over the union of the two keys."""
    keys = set(got) | set(want)
    return max((abs(got.get(a, 0.0) - want.get(a, 0.0)) for a in keys), default=0.0)
