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

CASES = [
    # rule, problem, masses by display, conflicting mass
    ("conjunctive", SHAFER, CONJUNCTIVE, F(1, 5)),
    ("yager", SHAFER, YAGER, F(1, 5)),
    ("disjunctive", SHAFER, DISJUNCTIVE, F(0)),
    ("xor", XOR_PROBLEM, XOR, F(3, 25)),
    ("dsmc", FREE, DSMC, F(0)),
]


def test_the_worked_values_reduce_as_written():
    assert CONJUNCTIVE == {"∅": F(1, 5), "A": F(12, 25), "B": F(1, 5), "A|C": F(3, 25)}
    assert DISJUNCTIVE == {"A|B": F(8, 25), "A|C": F(3, 10), "A|B|C": F(19, 50)}
    assert DSMC["A&B"] == F(1, 2)
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
