"""Hand-worked cases for selectors ``fuse verify`` does not name.

Each case is worked here in exact ``fractions.Fraction`` arithmetic, one
focal product at a time, without calling into the package or the
oracles: the package's floats must then agree with the exact values to
within rounding, element by element, and so must its conflict mass.
"""

from fractions import Fraction as F

import pytest

from fusekit import execute_problem, parse_problem

# Two sources on Shafer's model of A, B, C (Θ is A|B|C):
#   m1: A = 1/2, A|B = 3/10, Θ = 1/5
#   m2: B = 2/5, A|C = 3/5
SHAFER = """\
frame: A B C
model: shafer
source m1: A=0.5, A|B=0.3, A|B|C=0.2
source m2: B=0.4, A|C=0.6
"""

# The products of SHAFER, m1's focal element first:
#   A & B = ∅          1/2 · 2/5  = 1/5
#   A & (A|C) = A      1/2 · 3/5  = 3/10
#   (A|B) & B = B      3/10 · 2/5 = 3/25
#   (A|B) & (A|C) = A  3/10 · 3/5 = 9/50
#   Θ & B = B          1/5 · 2/5  = 2/25
#   Θ & (A|C) = A|C    1/5 · 3/5  = 3/25
CONJUNCTIVE = {
    "∅": F(1, 5),
    "A": F(3, 10) + F(9, 50),  # = 12/25
    "B": F(3, 25) + F(2, 25),  # = 1/5
    "A|C": F(3, 25),
}

# Yager moves the conflicting product A & B to Θ.
YAGER = {
    "A": F(12, 25),
    "B": F(1, 5),
    "A|C": F(3, 25),
    "A|B|C": F(1, 5),
}

# The unions of SHAFER's products:
#   A | B = A|B          1/5
#   A | (A|C) = A|C      3/10
#   (A|B) | B = A|B      3/25
#   (A|B) | (A|C) = Θ    9/50
#   Θ | B = Θ            2/25
#   Θ | (A|C) = Θ        3/25
DISJUNCTIVE = {
    "A|B": F(1, 5) + F(3, 25),  # = 8/25
    "A|C": F(3, 10),
    "A|B|C": F(9, 50) + F(2, 25) + F(3, 25),  # = 19/50
}

# m2 changed so that one product meets its own operand twice:
#   m1: A = 1/2, A|B = 3/10, Θ = 1/5
#   m2: A|B = 2/5, C = 3/5
# The symmetric differences of the products:
#   A ^ (A|B) = B            1/2 · 2/5  = 1/5
#   A ^ C = A|C              1/2 · 3/5  = 3/10
#   (A|B) ^ (A|B) = ∅        3/10 · 2/5 = 3/25  (equal operands)
#   (A|B) ^ C = Θ            3/10 · 3/5 = 9/50
#   Θ ^ (A|B) = C            1/5 · 2/5  = 2/25
#   Θ ^ C = A|B              1/5 · 3/5  = 3/25
XOR_PROBLEM = """\
frame: A B C
model: shafer
source m1: A=0.5, A|B=0.3, A|B|C=0.2
source m2: A|B=0.4, C=0.6
"""
XOR = {
    "B": F(1, 5),
    "A|C": F(3, 10),
    "∅": F(3, 25),
    "A|B|C": F(9, 50),
    "C": F(2, 25),
    "A|B": F(3, 25),
}

# Two sources on the free model of A and B, where A&B is an element:
#   m1: A = 3/5, A|B = 2/5
#   m2: B = 1/2, A&B = 1/5, A|B = 3/10
# The intersections of the products, none of them empty:
#   A & B = A&B              3/5 · 1/2  = 3/10
#   A & (A&B) = A&B          3/5 · 1/5  = 3/25
#   A & (A|B) = A            3/5 · 3/10 = 9/50
#   (A|B) & B = B            2/5 · 1/2  = 1/5
#   (A|B) & (A&B) = A&B      2/5 · 1/5  = 2/25
#   (A|B) & (A|B) = A|B      2/5 · 3/10 = 3/25
FREE = """\
frame: A B
source m1: A=0.6, A|B=0.4
source m2: B=0.5, A&B=0.2, A|B=0.3
"""
DSMC = {
    "A&B": F(3, 10) + F(3, 25) + F(2, 25),  # = 1/2
    "A": F(9, 50),
    "B": F(1, 5),
    "A|B": F(3, 25),
}

# Smets keeps the conflicting products on ∅.  The intersections of
# XOR_PROBLEM's products:
#   A & (A|B) = A            1/2 · 2/5  = 1/5
#   A & C = ∅                1/2 · 3/5  = 3/10
#   (A|B) & (A|B) = A|B      3/10 · 2/5 = 3/25
#   (A|B) & C = ∅            3/10 · 3/5 = 9/50
#   Θ & (A|B) = A|B          1/5 · 2/5  = 2/25
#   Θ & C = C                1/5 · 3/5  = 3/25
SMETS = {
    "∅": F(3, 10) + F(9, 50),  # = 12/25
    "A": F(1, 5),
    "A|B": F(3, 25) + F(2, 25),  # = 1/5
    "C": F(3, 25),
}

# Inagaki with p = 1/2 on SHAFER, whose conflict k12 is 1/5 and whose
# products put nothing on Θ: each landing is scaled by 1 + p·k12 = 11/10,
# and Θ gets (1 + p·k12 − p)·k12 = 3/5 · 1/5.
INAGAKI_PROBLEM = SHAFER + "param: p=0.5\n"
INAGAKI = {
    "A": F(12, 25) * F(11, 10),  # = 66/125
    "B": F(1, 5) * F(11, 10),  # = 11/50
    "A|C": F(3, 25) * F(11, 10),  # = 33/250
    "A|B|C": F(3, 5) * F(1, 5),  # = 3/25
}

# Zhang's center rule with the product degree weighs each product of
# SHAFER by r = |X&Y| / (|X|·|Y|), in atoms, and a disjoint one by 1:
#   A & B = ∅          r = 1     1 · 1/5     = 1/5  (divided out)
#   A & (A|C) = A      r = 1/2   1/2 · 3/10  = 3/20
#   (A|B) & B = B      r = 1/2   1/2 · 3/25  = 3/50
#   (A|B) & (A|C) = A  r = 1/4   1/4 · 9/50  = 9/200
#   Θ & B = B          r = 1/3   1/3 · 2/25  = 2/75
#   Θ & (A|C) = A|C    r = 1/3   1/3 · 3/25  = 1/25
# The landed weights sum to 193/600, which renormalises to 1.
ZHANG_LANDED = {
    "A": F(3, 20) + F(9, 200),  # = 39/200
    "B": F(3, 50) + F(2, 75),  # = 13/150
    "A|C": F(1, 25),
}
ZHANG_PRODUCT = {k: v / sum(ZHANG_LANDED.values()) for k, v in ZHANG_LANDED.items()}

# Mixing with weights 1 and 3 on SHAFER scales each source's masses by
# its weight over the weights' sum, 4, and lands them where they are:
#   m1: A         1/4 · 1/2  = 1/8
#   m1: A|B       1/4 · 3/10 = 3/40
#   m1: Θ         1/4 · 1/5  = 1/20
#   m2: B         3/4 · 2/5  = 3/10
#   m2: A|C       3/4 · 3/5  = 9/20
MIXING_PROBLEM = SHAFER + "param: weights=1,3\n"
MIXING = {
    "A": F(1, 8),
    "A|B": F(3, 40),
    "A|B|C": F(1, 20),
    "B": F(3, 10),
    "A|C": F(9, 20),
}

# The weighted operator on SHAFER gives k12 = 1/5, the conjunctive
# conflict A & B, to its weighted elements: 3/4 of it to Θ and 1/4 to ∅,
#   Θ  3/4 · 1/5 = 3/20
#   ∅  1/4 · 1/5 = 1/20
# and keeps CONJUNCTIVE's other landings.
WO_PROBLEM = SHAFER + "param: weights=A|B|C:0.75,A&~A:0.25\n"
WO = {
    "A": F(12, 25),
    "B": F(1, 5),
    "A|C": F(3, 25),
    "A|B|C": F(3, 4) * F(1, 5),  # = 3/20
    "∅": F(1, 4) * F(1, 5),  # = 1/20
}

# Conditioning one source on A combines it with certainty in A under
# the conjunctive base:
#   m1: A = 1/2, B|C = 3/10, A|B = 1/5
#   A & A = A          1/2 · 1  = 1/2
#   (B|C) & A = ∅      3/10 · 1 = 3/10
#   (A|B) & A = A      1/5 · 1  = 1/5
CONDITIONAL_PROBLEM = """\
frame: A B C
model: shafer
source m1: A=0.5, B|C=0.3, A|B=0.2
param: given=A
param: base=conjunctive
"""
CONDITIONAL = {
    "A": F(1, 2) + F(1, 5),  # = 7/10
    "∅": F(3, 10),
}

# The min T-norm on SHAFER weighs each product by the smaller of its two
# masses, lands it on the intersection, divides out the empty one and
# renormalises the rest:
#   A & B = ∅          min(1/2, 2/5)  = 2/5  (divided out)
#   A & (A|C) = A      min(1/2, 3/5)  = 1/2
#   (A|B) & B = B      min(3/10, 2/5) = 3/10
#   (A|B) & (A|C) = A  min(3/10, 3/5) = 3/10
#   Θ & B = B          min(1/5, 2/5)  = 1/5
#   Θ & (A|C) = A|C    min(1/5, 3/5)  = 1/5
# The landed weights sum to 3/2.
TNORM_MIN_LANDED = {
    "A": F(1, 2) + F(3, 10),  # = 4/5
    "B": F(3, 10) + F(1, 5),  # = 1/2
    "A|C": F(1, 5),
}
TNORM_MIN = {k: v / sum(TNORM_MIN_LANDED.values()) for k, v in TNORM_MIN_LANDED.items()}

# The max T-conorm on SHAFER weighs each product by the larger of its
# two masses, lands it on the union and renormalises:
#   A | B = A|B          max(1/2, 2/5)  = 1/2
#   A | (A|C) = A|C      max(1/2, 3/5)  = 3/5
#   (A|B) | B = A|B      max(3/10, 2/5) = 2/5
#   (A|B) | (A|C) = Θ    max(3/10, 3/5) = 3/5
#   Θ | B = Θ            max(1/5, 2/5)  = 2/5
#   Θ | (A|C) = Θ        max(1/5, 3/5)  = 3/5
# The landed weights sum to 31/10.
TCONORM_MAX_LANDED = {
    "A|B": F(1, 2) + F(2, 5),  # = 9/10
    "A|C": F(3, 5),
    "A|B|C": F(3, 5) + F(2, 5) + F(3, 5),  # = 8/5
}
TCONORM_MAX = {k: v / sum(TCONORM_MAX_LANDED.values()) for k, v in TCONORM_MAX_LANDED.items()}

CASES = [
    # rule, problem, masses by display, conflicting mass
    ("conjunctive", SHAFER, CONJUNCTIVE, F(1, 5)),
    ("yager", SHAFER, YAGER, F(1, 5)),
    ("disjunctive", SHAFER, DISJUNCTIVE, F(0)),
    ("xor", XOR_PROBLEM, XOR, F(3, 25)),
    ("dsmc", FREE, DSMC, F(0)),
    ("smets", XOR_PROBLEM, SMETS, F(12, 25)),
    ("inagaki", INAGAKI_PROBLEM, INAGAKI, F(1, 5)),
    ("zhang-product", SHAFER, ZHANG_PRODUCT, F(1, 5)),
    ("mixing", MIXING_PROBLEM, MIXING, F(0)),
    ("wo", WO_PROBLEM, WO, F(1, 5)),
    ("conditional", CONDITIONAL_PROBLEM, CONDITIONAL, F(3, 10)),
    ("tnorm-min", SHAFER, TNORM_MIN, F(2, 5)),
    ("tconorm-max", SHAFER, TCONORM_MAX, F(0)),
]


def test_the_worked_values_reduce_as_written():
    assert CONJUNCTIVE == {"∅": F(1, 5), "A": F(12, 25), "B": F(1, 5), "A|C": F(3, 25)}
    assert DISJUNCTIVE == {"A|B": F(8, 25), "A|C": F(3, 10), "A|B|C": F(19, 50)}
    assert DSMC["A&B"] == F(1, 2)
    assert SMETS == {"∅": F(12, 25), "A": F(1, 5), "A|B": F(1, 5), "C": F(3, 25)}
    assert INAGAKI == {"A": F(66, 125), "B": F(11, 50), "A|C": F(33, 250), "A|B|C": F(3, 25)}
    assert sum(ZHANG_LANDED.values()) == F(193, 600)
    assert ZHANG_PRODUCT == {"A": F(117, 193), "B": F(52, 193), "A|C": F(24, 193)}
    assert WO["A|B|C"] == F(3, 20) and WO["∅"] == F(1, 20)
    assert CONDITIONAL["A"] == F(7, 10)
    assert sum(TNORM_MIN_LANDED.values()) == F(3, 2)
    assert TNORM_MIN == {"A": F(8, 15), "B": F(1, 3), "A|C": F(2, 15)}
    assert sum(TCONORM_MAX_LANDED.values()) == F(31, 10)
    assert TCONORM_MAX == {"A|B": F(9, 31), "A|C": F(6, 31), "A|B|C": F(16, 31)}
    for _, _, masses, _ in CASES:
        assert sum(masses.values()) == 1


@pytest.mark.parametrize("rule,text,masses,k12", CASES, ids=[case[0] for case in CASES])
def test_a_hand_worked_case(rule, text, masses, k12):
    outcome = execute_problem(parse_problem(text), rule)
    got = {el.display: v for el, v in outcome.combined.items()}
    assert got.keys() == masses.keys()
    for display, exact in masses.items():
        assert got[display] == pytest.approx(float(exact), rel=1e-15, abs=1e-15), display
    assert outcome.result.conflict.k12 == pytest.approx(float(k12), abs=1e-15)
