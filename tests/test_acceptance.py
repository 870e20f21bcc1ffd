"""Acceptance suite: one test per numbered release criterion.

Run `pytest -v tests/test_acceptance.py` to get a one-line verdict per
criterion.  Worked examples are checked at their stated tolerances;
randomized suites run at least 200 seeded cases each, so every run
checks the same corpus.
"""

import math
import random

import pytest

from fusekit import (
    Frame,
    IntervalElement,
    IntervalMassFunction,
    MassFunction,
    Opinion,
    RuleError,
    ScenarioConfig,
    TotalConflictError,
    cautious_commonality_min,
    conjunctive,
    consensus,
    convolutive_x_average,
    degree_intersection,
    degree_union,
    dempster,
    disjunctive,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    exclusive_disjunctive,
    execute_problem,
    improved_rules,
    inagaki,
    minc,
    murphy_average,
    parse_problem,
    pcr1,
    pcr2,
    pcr3,
    pcr4,
    pcr5,
    quasi_associative_combine,
    smets_tbm,
    tconorm_fusion,
    tnorm_fusion,
    uft_combine,
    wao,
    weighted_operator,
    yager,
    zhang_center,
)
from fusekit.special import TCONORMS, TNORMS

import oracles

DEGENERATE_SOURCES = """
frame: A B C
model: shafer
source m1: A=0.2, B=0.4, C=0.3, A&~A=0.1
source m2: A=0.1, B=0.3, C=0.4, A&~A=0.2
event: constrain B=0
"""

DYNAMIC_SOURCES = """
frame: A B C
model: shafer
source m1: A=0.2, B=0.4, C=0.3, A|B=0.1
source m2: A=0.1, B=0.3, C=0.4, A|B=0.2
event: constrain C=0
"""

CROSS_SECTION_SOURCES = """
frame: A B C
model: constrain A&C=0, B&C=0
source m1: A=0.5, B=0.2, C=0.3
source m2: A=0.4, B=0.4, C=0.2
"""


def expect_masses(combined, frame, rows, tol):
    for expr, want in rows:
        got = combined.mass(frame.parse(expr))
        assert abs(got - want) <= tol, f"{expr}: got {got}, want {want}"


# -- 1. near-certain but disjoint sources ------------------------------------

def test_criterion_01_high_conflict_pair_and_total_conflict():
    f = Frame.shafer(("A", "B", "C"))
    for e in (0.01, 0.1, 0.3):
        m1 = MassFunction(f, {"A": 1.0 - e, "C": e})
        m2 = MassFunction(f, {"B": 1.0 - e, "C": e})
        out = dempster(m1, m2)
        assert abs(out.combined.mass(f.parse("C")) - 1.0) <= 1e-12
    g = Frame.shafer(("A", "B", "C", "D"))
    w1 = MassFunction(g, {"A": 0.5, "B": 0.5})
    w2 = MassFunction(g, {"C": 0.5, "D": 0.5})
    with pytest.raises(TotalConflictError):
        dempster(w1, w2)


# -- 2. plain source averaging ------------------------------------------------

def test_criterion_02_source_average_table():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.2, "B": 0.4, "C": 0.3, "A|B": 0.1})
    m2 = MassFunction(f, {"A": 0.1, "B": 0.3, "C": 0.4, "A|B": 0.2})
    out = murphy_average(m1, m2).combined
    expect_masses(out, f, (
        ("A", 0.15), ("B", 0.35), ("C", 0.35), ("A|B", 0.15),
    ), 1e-12)


# -- 3. hybrid transfer over cross-sections ----------------------------------

def test_criterion_03_hybrid_transfer_cross_sections():
    problem = parse_problem(CROSS_SECTION_SOURCES)
    outcome = execute_problem(problem, "dsmh")
    frame = outcome.frame
    expect_masses(outcome.combined, frame, (
        ("A", 0.20), ("B", 0.08), ("C", 0.06),
        ("A&B", 0.28), ("A|C", 0.22), ("B|C", 0.16),
    ), 1e-12)
    assert abs(outcome.combined.total - 1.0) <= 1e-12


# -- 4. union fallback after a dynamic constraint ------------------------------

def test_criterion_04_union_fallback_dynamic_revision():
    problem = parse_problem(DYNAMIC_SOURCES)
    outcome = execute_problem(problem, "dubois-prade")
    frame = outcome.frame
    combined = outcome.combined
    assert abs(combined.mass(frame.parse("B")) - 0.48) <= 1e-12
    assert abs(combined.total - 0.88) <= 1e-12
    a = combined.mass(frame.parse("A"))
    ab = combined.mass(frame.parse("A|B"))
    assert abs((a + ab) - 0.40) <= 1e-12
    # The A vs A|B split is pinned to the brute-force reference.
    p1, p2 = (oracles.plain(m) for m in problem.final_sources())
    ref = oracles.dubois_prade(p1, p2)
    lost = ref.pop(oracles.EMPTY, 0.0)
    assert oracles.delta(oracles.plain(combined), ref) <= 1e-12
    assert abs(outcome.result.conflict.lost - lost) <= 1e-12
    assert abs(a - 0.18) <= 1e-12
    assert abs(ab - 0.22) <= 1e-12


# -- 5/6. degenerate column statistics ----------------------------------------

def test_criterion_05_column_average_degenerate():
    problem = parse_problem(DEGENERATE_SOURCES)
    outcome = execute_problem(problem, "wao")
    frame = outcome.frame
    expect_masses(outcome.combined, frame, (
        ("A", 0.149), ("C", 0.421),
    ), 5e-4)
    assert abs(outcome.combined.total - 0.570) <= 5e-4


def test_criterion_06_column_sum_degenerate():
    problem = parse_problem(DEGENERATE_SOURCES)
    outcome = execute_problem(problem, "pcr1")
    frame = outcome.frame
    expect_masses(outcome.combined, frame, (
        ("A", 0.278), ("C", 0.722),
    ), 5e-4)
    assert abs(outcome.combined.total - 1.0) <= 5e-4


# -- 7. proportional own-mass splits -------------------------------------------

def test_criterion_07_own_mass_splits():
    f = Frame.shafer(("A", "B"))
    m1 = MassFunction(f, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(f, {"B": 0.3, "A|B": 0.7})
    base = pcr5(m1, m2).combined
    expect_masses(base, f, (("A", 0.54), ("B", 0.18), ("A|B", 0.28)), 5e-4)
    # With a single conflicting pair the three split rules coincide.
    for fn in (pcr2, pcr3):
        other = fn(m1, m2).combined
        assert oracles.delta(oracles.plain(base), oracles.plain(other)) <= 1e-12

    n1 = MassFunction(f, {"A": 0.6, "A|B": 0.4})
    n2 = MassFunction(f, {"A": 0.2, "B": 0.3, "A|B": 0.5})
    one_sided = pcr5(n1, n2).combined
    expect_masses(one_sided, f, (("A", 0.62), ("B", 0.18), ("A|B", 0.20)), 5e-4)

    t1 = MassFunction(f, {"A": 0.6, "B": 0.3, "A|B": 0.1})
    t2 = MassFunction(f, {"A": 0.2, "B": 0.3, "A|B": 0.5})
    two_sided = pcr5(t1, t2).combined
    expect_masses(two_sided, f, (("A", 0.584), ("B", 0.366), ("A|B", 0.050)), 5e-4)


# -- 8. contested-pair renormalizations ----------------------------------------

def test_criterion_08_contested_pair_renormalizations():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.5, "B|C": 0.1, "A|B|C": 0.4})
    m2 = MassFunction(f, {"A": 0.7, "B|C": 0.2, "A|B|C": 0.1})
    minc_a = minc(m1, m2, version="a").combined
    expect_masses(minc_a, f, (
        ("A", 0.819277), ("B|C", 0.132530), ("A|B|C", 0.048193),
    ), 1e-6)
    p4 = pcr4(m1, m2).combined
    expect_masses(p4, f, (
        ("A", 0.826329), ("B|C", 0.133671), ("A|B|C", 0.04),
    ), 1e-6)


# -- 9. scenario routing table --------------------------------------------------

def test_criterion_09_scenario_routing_table():
    f = Frame.free(("A", "B", "C", "D"))
    s1 = MassFunction(f, {"A": 0.2, "B": 0.5, "A|B": 0.3})
    s2 = MassFunction(f, {"A": 0.4, "B": 0.4, "A|B": 0.2})
    tol = 5e-4

    rows = {
        "1": (("A", 0.24), ("B", 0.42), ("A|B", 0.06), ("A&B", 0.28)),
        "2": (("A", 0.08), ("B", 0.20), ("A|B", 0.72)),
        "1.2.1": (("A", 0.356), ("B", 0.584), ("A|B", 0.060)),
        "1.2.2": (("A", 0.24), ("B", 0.42), ("A|B", 0.34)),
        "1.2.5.1": (("A", 0.24), ("B", 0.42), ("A|B", 0.06), ("A|B|C|D", 0.28)),
        "1.2.6": (("A", 0.52), ("B", 0.42), ("A|B", 0.06)),
        "1.2.7": (("A", 0.24), ("B", 0.42), ("A|B", 0.06),
                  ("C", 0.14), ("D", 0.14)),
    }
    for case, expected in rows.items():
        if case == "1.2.6":
            cfg = ScenarioConfig.for_case(case, right=f.label("A"))
        elif case == "1.2.7":
            cfg = ScenarioConfig.for_case(
                case, recipients=(f.label("C"), f.label("D")))
        else:
            cfg = ScenarioConfig.for_case(case)
        out = uft_combine((s1, s2), cfg)
        expect_masses(out.combined, f, expected, tol)

    open_world = uft_combine((s1, s2), ScenarioConfig.for_case("1.2.5.2"))
    expect_masses(open_world.combined, f, (
        ("A", 0.24), ("B", 0.42), ("A|B", 0.06),
    ), tol)
    assert abs(open_world.combined.mass(f.empty()) - 0.28) <= tol

    discounted = s2.discount(0.8)
    expect_masses(discounted, f, (
        ("A", 0.32), ("B", 0.32), ("A|B", 0.16), ("A|B|C|D", 0.20),
    ), tol)

    third = uft_combine((s1, s2), ScenarioConfig.for_case("3", discounts=(1.0, 0.8)))
    expect_masses(third.combined, f, (
        ("A", 0.232), ("B", 0.436), ("A|B", 0.108), ("A&B", 0.224),
    ), tol)


# -- 10. dominant-opinion consensus ---------------------------------------------

def test_criterion_10_dominant_opinion_consensus():
    f = Frame.shafer(("A", "B"))
    m1 = MassFunction(f, {"A": 0.3, "B": 0.7})
    m2 = MassFunction(f, {"A": 0.8, "B": 0.1, "A|B": 0.1})
    focus = f.parse("A")
    out = consensus(m1.to_opinion(focus), m2.to_opinion(focus))
    assert abs(out.belief - 0.3) <= 1e-12
    assert abs(out.disbelief - 0.7) <= 1e-12
    assert abs(out.uncertainty - 0.0) <= 1e-12
    assert abs(out.atomicity - 0.5) <= 1e-12


# -- 11. interval averaging -------------------------------------------------------

def test_criterion_11_interval_averaging():
    m1 = IntervalMassFunction({
        IntervalElement(1, 3): 0.3, IntervalElement(2, 5): 0.7,
    })
    m2 = IntervalMassFunction({
        IntervalElement(1, 3): 0.4, IntervalElement(2, 5): 0.6,
    })
    out = convolutive_x_average(m1, m2)
    assert abs(out.mass(IntervalElement(1.5, 4)) - 0.46) <= 1e-12
    assert abs(out.mass(IntervalElement(2, 5)) - 0.42) <= 1e-12
    assert abs(out.mass(IntervalElement(1, 3)) - 0.12) <= 1e-12


# -- 12. randomized property suites ----------------------------------------------

FRAMES = (
    Frame.free(("A", "B")),
    Frame.shafer(("A", "B")),
    Frame.free(("A", "B", "C")),
    Frame.shafer(("A", "B", "C")),
)
ELEMENTS = tuple(
    tuple(el for el in f.superpower_set() if not el.is_empty) for f in FRAMES
)
SHAFER_IDS = (1, 3)
CASES = 200
TOL = 1e-12


def rand_bba(rng, fid, max_focals=4):
    els = ELEMENTS[fid]
    k = rng.randint(1, min(max_focals, len(els)))
    focals = rng.sample(els, k)
    weights = [rng.randint(1, 100) for _ in focals]
    total = sum(weights)
    return MassFunction(
        FRAMES[fid], {el: w / total for el, w in zip(focals, weights)})


def rand_bayesian(rng, fid):
    frame = FRAMES[fid]
    singles = [frame.label(nm) for nm in frame.names]
    weights = [rng.randint(0, 100) for _ in singles]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return MassFunction(
        frame, {el: w / total for el, w in zip(singles, weights)})


def rand_interval_bba(rng):
    acc = {}
    for _ in range(rng.randint(2, 3)):
        lo = round(rng.uniform(0.0, 5.0), 2)
        hi = round(lo + rng.uniform(0.5, 4.0), 2)
        acc[IntervalElement(lo, hi)] = acc.get(IntervalElement(lo, hi), 0) + rng.randint(1, 9)
    total = sum(acc.values())
    return IntervalMassFunction({el: w / total for el, w in acc.items()})


def rand_opinion(rng):
    u = 0.05 + 0.9 * rng.random()
    b = (1.0 - u) * rng.random()
    return Opinion(b, 1.0 - u - b, u, rng.random())


def interval_plain(m):
    return {(el.lo, el.hi): v for el, v in m.items()}


def rules_match(left, right, tol=TOL):
    return oracles.delta(oracles.plain(left), oracles.plain(right)) <= tol


BINARY_RULES = (
    conjunctive, disjunctive, exclusive_disjunctive, dsm_classic, smets_tbm,
    dempster, yager, dubois_prade, dsm_hybrid, murphy_average, wao,
    pcr1, pcr2, pcr3, pcr4, pcr5,
    lambda a, b: minc(a, b, version="a"),
    lambda a, b: minc(a, b, version="b"),
    lambda a, b: uft_combine((a, b)),
    lambda a, b: inagaki(a, b, p=0.5),
)

NORMALIZING_RULES = (
    lambda a, b: zhang_center(a, b, degree="product"),
    lambda a, b: zhang_center(a, b, degree="union"),
    cautious_commonality_min,
) + tuple(
    (lambda a, b, k=k: tnorm_fusion(a, b, kind=k)) for k in TNORMS
) + tuple(
    (lambda a, b, k=k: tconorm_fusion(a, b, kind=k)) for k in TCONORMS
) + tuple(
    (lambda a, b, s=s: improved_rules(a, b, base=s))
    for s in ("disjunctive", "dsmc", "dp")
)

ADDITIVE_RULES = (
    conjunctive, disjunctive, exclusive_disjunctive, dsm_classic, smets_tbm,
    yager, dubois_prade, dsm_hybrid, murphy_average, wao,
    pcr1, pcr2, pcr3, pcr4, pcr5,
    lambda a, b: minc(a, b, version="a"),
    lambda a, b: minc(a, b, version="b"),
    lambda a, b: uft_combine((a, b)),
    lambda a, b: inagaki(a, b, p=0.5),
)

UNIT_TOTAL_RULES = (dempster,) + NORMALIZING_RULES[:2] + NORMALIZING_RULES[3:]

VBA_NEUTRAL_RULES = (
    conjunctive, dsm_classic, dsm_hybrid, dempster, yager, dubois_prade,
    pcr2, pcr3, pcr5,
    lambda *ss: minc(*ss, version="a"),
    lambda *ss: minc(*ss, version="b"),
)


def test_criterion_12_randomized_property_suites():
    rng = random.Random(20260818)

    # Commutativity of every binary rule.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        for fn in BINARY_RULES:
            try:
                left = fn(m1, m2).combined
                right = fn(m2, m1).combined
            except (TotalConflictError, RuleError):
                continue
            assert rules_match(left, right)
        wts = {m1.frame.ignorance(): 0.5, m1.frame.empty(): 0.5}
        assert rules_match(
            weighted_operator(m1, m2, weights=wts).combined,
            weighted_operator(m2, m1, weights=wts).combined)
        i1, i2 = rand_interval_bba(rng), rand_interval_bba(rng)
        fwd = interval_plain(convolutive_x_average(i1, i2))
        rev = interval_plain(convolutive_x_average(i2, i1))
        assert set(fwd) == set(rev)
        assert all(abs(fwd[k] - rev[k]) <= TOL for k in fwd)
        w1, w2 = rand_opinion(rng), rand_opinion(rng)
        ab, ba = consensus(w1, w2), consensus(w2, w1)
        for field in ("belief", "disbelief", "uncertainty", "atomicity"):
            assert abs(getattr(ab, field) - getattr(ba, field)) <= TOL
        cases += 1
    assert cases >= 200

    cases = 0
    for _ in range(CASES):
        fid = rng.choice(SHAFER_IDS)
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        for fn in NORMALIZING_RULES:
            try:
                left = fn(m1, m2).combined
                right = fn(m2, m1).combined
            except (TotalConflictError, RuleError):
                continue
            assert rules_match(left, right)
        cases += 1
    assert cases >= 200

    # Mass conservation per rule contract.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        for fn in ADDITIVE_RULES:
            try:
                out = fn(m1, m2)
            except (TotalConflictError, RuleError):
                continue
            total = out.combined.total + out.conflict.lost
            assert abs(total - 1.0) <= TOL
        i1, i2 = rand_interval_bba(rng), rand_interval_bba(rng)
        averaged = convolutive_x_average(i1, i2)
        assert abs(math.fsum(v for _, v in averaged.items()) - 1.0) <= TOL
        cases += 1
    assert cases >= 200

    cases = 0
    for _ in range(CASES):
        fid = rng.choice(SHAFER_IDS)
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        for fn in UNIT_TOTAL_RULES:
            try:
                out = fn(m1, m2)
            except (TotalConflictError, RuleError):
                continue
            assert abs(out.combined.total - 1.0) <= TOL
        signed = cautious_commonality_min(m1, m2).signed_masses
        if signed is not None:
            assert abs(math.fsum(signed.values()) - 1.0) <= TOL
        cases += 1
    assert cases >= 200

    # A vacuous source must not move well-behaved rules.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        vac = MassFunction.vacuous(m1.frame)
        for fn in VBA_NEUTRAL_RULES:
            try:
                base = fn(m1, m2).combined
                padded = fn(m1, m2, vac).combined
            except (TotalConflictError, RuleError):
                continue
            assert rules_match(base, padded)
        cases += 1
    assert cases >= 200

    # Column statistics do see the vacuous source: the constructed
    # counterexample must move both rules by a visible amount.
    f = FRAMES[1]
    m1 = MassFunction(f, {"A": 0.6, "B": 0.4})
    m2 = MassFunction(f, {"A": 0.3, "B": 0.7})
    vac = MassFunction.vacuous(f)
    for fn in (wao, pcr1):
        base = fn(m1, m2).combined
        padded = fn(m1, m2, vac).combined
        assert oracles.delta(oracles.plain(base), oracles.plain(padded)) > 1e-3

    # Associativity of the normalized conjunctive rule.
    cases = 0
    while cases < CASES:
        fid = rng.randrange(len(FRAMES))
        m1, m2, m3 = (rand_bba(rng, fid) for _ in range(3))
        try:
            direct = dempster(m1, m2, m3).combined
            staged = dempster(dempster(m1, m2).combined, m3).combined
        except TotalConflictError:
            continue
        assert rules_match(direct, staged)
        cases += 1
    assert cases >= 200

    # The running-store protocol must equal the direct s-ary call.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        stream = [rand_bba(rng, fid) for _ in range(3)]
        for rule, direct in (
            ("yager", yager), ("smets", smets_tbm), ("pcr1", pcr1),
            ("dubois-prade", dubois_prade),
        ):
            state, _ = quasi_associative_combine(stream[0], stream[1], rule=rule)
            state, res = quasi_associative_combine(state, stream[2], rule=rule)
            assert rules_match(res.combined, direct(*stream).combined)
        cases += 1
    assert cases >= 200

    # T-norm and T-conorm axioms on an 11-point grid.
    grid = [i / 10 for i in range(11)]
    cases = 0
    for x in grid:
        for y in grid:
            for z in grid:
                for t in TNORMS.values():
                    assert t(x, y) == t(y, x)
                    assert abs(t(t(x, y), z) - t(x, t(y, z))) <= TOL
                    assert abs(t(x, 1.0) - x) <= TOL
                    assert t(min(x, y), z) <= t(max(x, y), z) + 1e-15
                for s in TCONORMS.values():
                    assert s(x, y) == s(y, x)
                    assert abs(s(s(x, y), z) - s(x, s(y, z))) <= TOL
                    assert abs(s(x, 0.0) - x) <= TOL
                    assert s(min(x, y), z) <= s(max(x, y), z) + 1e-15
                cases += 1
    assert cases >= 200

    # Matching degrees are complementary.
    cases = 0
    for _ in range(max(CASES, 300)):
        fid = rng.randrange(len(FRAMES))
        a = rng.choice(ELEMENTS[fid])
        b = rng.choice(ELEMENTS[fid])
        d = degree_intersection(a, b)
        assert 0.0 <= d <= 1.0
        assert degree_intersection(a, b) + degree_union(a, b) == 1.0
        cases += 1
    assert cases >= 200

    # Belief-family orderings.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        m = rand_bba(rng, fid)
        el = rng.choice(ELEMENTS[fid])
        bel, pl = m.bel(el), m.pl(el)
        assert m.bel_d(el) <= bel + TOL
        assert bel <= pl + TOL
        assert m.pl_d(el) <= pl + TOL
        cases += 1
    assert cases >= 200

    # Cautious rule: idempotent, and exact on commonality minima.
    cases = 0
    for _ in range(CASES):
        fid = rng.choice(SHAFER_IDS)
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        out = cautious_commonality_min(m1, m2)
        if out.signed_masses is None:
            for el in ELEMENTS[fid]:
                assert abs(out.combined.q(el) - min(m1.q(el), m2.q(el))) <= TOL
        self_out = cautious_commonality_min(m1, m1)
        if self_out.signed_masses is None:
            assert rules_match(self_out.combined, m1)
        cases += 1
    assert cases >= 200

    # Declared-weight endpoints reproduce the fixed-target rules.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        frame = m1.frame
        to_empty = weighted_operator(m1, m2, weights={frame.empty(): 1.0})
        assert rules_match(to_empty.combined, smets_tbm(m1, m2).combined)
        to_ignorance = weighted_operator(
            m1, m2, weights={frame.ignorance(): 1.0})
        assert rules_match(to_ignorance.combined, yager(m1, m2).combined)
        cases += 1
    assert cases >= 200

    # Parametrized scaling endpoints.
    cases = 0
    for _ in range(CASES):
        fid = rng.randrange(len(FRAMES))
        m1, m2 = rand_bba(rng, fid), rand_bba(rng, fid)
        assert rules_match(
            inagaki(m1, m2, p=0.0).combined, yager(m1, m2).combined)
        cases += 1
    assert cases >= 200

    cases = 0
    while cases < CASES:
        fid = rng.choice(SHAFER_IDS)
        m1, m2 = rand_bayesian(rng, fid), rand_bayesian(rng, fid)
        k12 = conjunctive(m1, m2).conflict.k12
        if k12 > 1.0 - 1e-6:
            continue
        # Bayesian sources leave nothing on ignorance, so the upper
        # parameter bound collapses the scaling onto renormalization.
        out = inagaki(m1, m2, p=1.0 / (1.0 - k12)).combined
        assert rules_match(out, dempster(m1, m2).combined)
        cases += 1
    assert cases >= 200

    # Center-weighting with union degrees on Bayesian sources.
    cases = 0
    while cases < CASES:
        fid = rng.choice(SHAFER_IDS)
        m1, m2 = rand_bayesian(rng, fid), rand_bayesian(rng, fid)
        try:
            out = zhang_center(m1, m2, degree="union").combined
            ref = dempster(m1, m2).combined
        except TotalConflictError:
            continue
        assert rules_match(out, ref)
        cases += 1
    assert cases >= 200


# -- 13. set-algebra laws ----------------------------------------------------

def test_criterion_13_set_algebra_laws():
    assert len(Frame.free(("A", "B")).superpower_set()) == 8
    assert len(Frame.shafer(("A", "B")).superpower_set()) == 4
    for frame in (Frame.free(("A", "B")), Frame.free(("A", "B", "C"))):
        elements = frame.superpower_set()
        for a in elements:
            assert ~~a == a
            for b in elements:
                assert ~(a | b) == (~a) & (~b)
                assert ~(a & b) == (~a) | (~b)
                assert (a | (a & b)) == a
                assert (a & (a | b)) == a
