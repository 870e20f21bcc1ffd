"""Zhang center, interval averaging, consensus, T-norms, cautious, improved."""

import math

import pytest

import fusekit
from fusekit import (
    DegenerateConsensusError,
    Frame,
    FrameTooLargeError,
    IntervalElement,
    IntervalMassFunction,
    MassFunction,
    Opinion,
    RuleError,
    TotalConflictError,
    cautious_commonality_min,
    consensus,
    convolutive_x_average,
    dempster,
    improved_rules,
    tconorm_fusion,
    tnorm_fusion,
    zhang_center,
)
from fusekit.result import NORMALISED
from fusekit.special import TCONORMS, TNORMS

import oracles


@pytest.fixture
def shafer2():
    return Frame.shafer(("A", "B"))


@pytest.fixture
def zhang_pair(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(shafer2, {"B": 0.3, "A|B": 0.7})
    return m1, m2


# -- Zhang center ------------------------------------------------------------

def test_zhang_product_degree(zhang_pair):
    out = zhang_center(*zhang_pair, degree="product")
    f = zhang_pair[0].frame
    # Weighted masses .21/.06/.14, renormalized over .41.
    assert out.combined.mass(f.label("A")) == pytest.approx(0.21 / 0.41)
    assert out.combined.mass(f.label("B")) == pytest.approx(0.06 / 0.41)
    assert out.combined.mass(f.parse("A|B")) == pytest.approx(0.14 / 0.41)
    assert out.conflict.k12 == pytest.approx(0.18)
    assert out.rule == "zhang-product"


def test_zhang_union_degree(zhang_pair):
    out = zhang_center(*zhang_pair, degree="union")
    f = zhang_pair[0].frame
    assert out.combined.mass(f.label("A")) == pytest.approx(0.21 / 0.55)
    assert out.combined.mass(f.label("B")) == pytest.approx(0.06 / 0.55)
    assert out.combined.mass(f.parse("A|B")) == pytest.approx(0.28 / 0.55)
    assert out.rule == "zhang-union"


def test_zhang_equals_dempster_on_bayesian_shafer(shafer2):
    # Singleton focals make every surviving weight exactly one.
    m1 = MassFunction(shafer2, {"A": 0.7, "B": 0.3})
    m2 = MassFunction(shafer2, {"A": 0.4, "B": 0.6})
    ref = oracles.plain(dempster(m1, m2).combined)
    for degree in ("product", "union"):
        out = zhang_center(m1, m2, degree=degree)
        assert oracles.delta(oracles.plain(out.combined), ref) < 1e-12


def test_zhang_total_conflict(shafer2):
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"B": 1.0})
    with pytest.raises(TotalConflictError):
        zhang_center(m1, m2)


def test_zhang_rejects_empty_focals_and_bad_degree(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.5, "A&~A": 0.5})
    m2 = MassFunction(shafer2, {"A": 1.0})
    with pytest.raises(RuleError):
        zhang_center(m1, m2)
    with pytest.raises(ValueError):
        zhang_center(m2, m2, degree="jaccard")


# -- interval elements and x-averaging ----------------------------------------

def test_interval_element_validation():
    with pytest.raises(ValueError):
        IntervalElement(3.0, 1.0)
    with pytest.raises(ValueError):
        IntervalElement(0.0, math.inf)
    with pytest.raises(ValueError):
        IntervalElement(math.nan, 1.0)


def test_interval_element_display_and_average():
    el = IntervalElement(1.5, 4.0)
    assert el.display == "[1.5,4]"
    assert str(IntervalElement(1, 3)) == "[1,3]"
    mid = IntervalElement(1, 3).average(IntervalElement(2, 5))
    assert mid == IntervalElement(1.5, 4.0)


def test_interval_mass_function_container():
    a, b = IntervalElement(2, 5), IntervalElement(1, 3)
    m = IntervalMassFunction({a: 0.7, b: 0.3})
    # Sorted by lower bound, then upper.
    assert [el for el, _ in m.items()] == [b, a]
    assert m.mass(a) == 0.7
    assert m.total == pytest.approx(1.0)
    with pytest.raises(ValueError):
        IntervalMassFunction({a: -0.1})
    with pytest.raises(TypeError):
        IntervalMassFunction({"[1,3]": 1.0})
    # Zero masses vanish; equal intervals are one key.
    m2 = IntervalMassFunction({IntervalElement(1, 3): 0.0, a: 0.5})
    assert len(m2) == 1
    assert IntervalMassFunction({b: 0.4}).mass(IntervalElement(1, 3)) == 0.4


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_interval_mass_function_rejects_non_finite_masses(value):
    with pytest.raises(ValueError, match="non-finite mass"):
        IntervalMassFunction({IntervalElement(1, 3): value})


def test_convolutive_x_average():
    m1 = IntervalMassFunction({IntervalElement(1, 3): 0.3, IntervalElement(2, 5): 0.7})
    m2 = IntervalMassFunction({IntervalElement(1, 3): 0.4, IntervalElement(2, 5): 0.6})
    out = convolutive_x_average(m1, m2)
    assert out.mass(IntervalElement(1.5, 4)) == pytest.approx(0.46, abs=1e-12)
    assert out.mass(IntervalElement(2, 5)) == pytest.approx(0.42, abs=1e-12)
    assert out.mass(IntervalElement(1, 3)) == pytest.approx(0.12, abs=1e-12)
    assert out.total == pytest.approx(1.0, abs=1e-12)


def test_convolutive_x_average_rejects_label_bbas(shafer2):
    m = MassFunction(shafer2, {"A": 1.0})
    with pytest.raises(TypeError):
        convolutive_x_average(m, m)


# Every public rule that combines on the Ledger core, with its parameters.
LEDGER_RULES = {
    "conjunctive": fusekit.conjunctive, "dsmc": fusekit.dsm_classic,
    "smets": fusekit.smets_tbm, "dempster": dempster, "yager": fusekit.yager,
    "dubois-prade": fusekit.dubois_prade, "dsmh": fusekit.dsm_hybrid,
    "wo": lambda *ss: fusekit.weighted_operator(*ss, weights={"A": 1.0}),
    "inagaki": lambda *ss: fusekit.inagaki(*ss, p=0.5),
    "disjunctive": fusekit.disjunctive, "xor": fusekit.exclusive_disjunctive,
    "mixed": lambda *ss: fusekit.mixed(ss, "1&2"),
    "wao": fusekit.wao, "pcr1": fusekit.pcr1, "pcr2": fusekit.pcr2, "pcr3": fusekit.pcr3,
    "pcr4": fusekit.pcr4, "pcr5": fusekit.pcr5,
    "minc-a": fusekit.minc, "minc-b": lambda *ss: fusekit.minc(*ss, version="b"),
    "zhang": zhang_center, "improved": improved_rules,
    "tnorm": tnorm_fusion, "tconorm": tconorm_fusion,
    "cautious": cautious_commonality_min,
    "uft": lambda *ss: fusekit.uft_combine(ss),
}


# The mixing rules pool the sources' masses without the Ledger, and uft
# discounts the sources before it builds one; all refuse interval sources
# in the one gate, ``_common_frame``, with the Ledger's message.
LABEL_RULES = {
    **LEDGER_RULES,
    "mixing": lambda *ss: fusekit.weighted_mixing(ss, [1.0, 2.0]),
    "murphy": fusekit.murphy_average,
    "uft-statistical": lambda *ss: fusekit.uft_combine(
        ss, fusekit.ScenarioConfig(reliability="statistical")),
    "uft-discounts": lambda *ss: fusekit.uft_combine(
        ss, fusekit.ScenarioConfig(reliability="discounts", discounts=(1.0, 0.5))),
}


@pytest.mark.parametrize("rule", sorted(LABEL_RULES))
def test_label_rules_refuse_interval_sources(rule):
    m1 = IntervalMassFunction({IntervalElement(1, 3): 0.3, IntervalElement(2, 5): 0.7})
    m2 = IntervalMassFunction({IntervalElement(6, 8): 1.0})
    with pytest.raises(RuleError, match="needs a label frame, not intervals"):
        LABEL_RULES[rule](m1, m2)


# -- consensus operator --------------------------------------------------

def test_consensus_worked_value():
    w1 = Opinion(0.4, 0.2, 0.4, 0.5)
    w2 = Opinion(0.2, 0.4, 0.4, 0.5)
    w = consensus(w1, w2)
    assert w.belief == pytest.approx(0.375, abs=1e-12)
    assert w.disbelief == pytest.approx(0.375, abs=1e-12)
    assert w.uncertainty == pytest.approx(0.25, abs=1e-12)
    assert w.atomicity == pytest.approx(0.5, abs=1e-12)


def test_consensus_dogmatic_pair():
    w1 = Opinion(0.3, 0.7, 0.0, 0.5)
    w2 = Opinion(0.6, 0.4, 0.0, 0.5)
    with pytest.raises(DegenerateConsensusError):
        consensus(w1, w2)
    w = consensus(w1, w2, dogmatic_bayesian=True)
    assert w.belief == pytest.approx(0.45)
    assert w.disbelief == pytest.approx(0.55)
    assert w.uncertainty == 0.0


def test_consensus_vacuous_pair_averages_atomicity():
    w1 = Opinion(0.0, 0.0, 1.0, 0.3)
    w2 = Opinion(0.0, 0.0, 1.0, 0.7)
    w = consensus(w1, w2)
    assert w.uncertainty == pytest.approx(1.0)
    assert w.atomicity == pytest.approx(0.5)


def test_consensus_rejects_non_opinions():
    with pytest.raises(TypeError):
        consensus(Opinion(0.5, 0.3, 0.2, 0.5), 0.5)


# -- T-norm and T-conorm fusion ------------------------------------------

def test_norm_tables():
    assert set(TNORMS) == {"algebraic", "bounded", "min"}
    assert set(TCONORMS) == {"algebraic", "bounded", "max"}
    assert TNORMS["bounded"](0.4, 0.5) == 0.0
    assert TCONORMS["bounded"](0.7, 0.6) == 1.0


def test_algebraic_tnorm_recovers_dempster(zhang_pair):
    # The algebraic T-norm is the product, and dividing out the empty
    # landings is exactly Dempster's normalization.
    out = tnorm_fusion(*zhang_pair, kind="algebraic")
    ref = oracles.plain(dempster(*zhang_pair).combined)
    assert oracles.delta(oracles.plain(out.combined), ref) < 1e-12
    assert out.rule == "tnorm-algebraic"


def test_min_tnorm_warns_off_unit_total(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.5, "B": 0.5})
    m2 = MassFunction(shafer2, {"A": 0.5, "B": 0.5})
    out = tnorm_fusion(m1, m2, kind="min")
    assert out.combined.mass(shafer2.label("A")) == pytest.approx(0.5)
    assert any("pre-normalization total was" in w for w in out.warnings)


def test_tnorm_weight_is_not_skipped_with_an_underflowing_mass_product():
    # 1e-200 * 1e-200 underflows to 0.0, yet min(1e-200, 1e-200) is the
    # pair's weight: a skip keyed to the mass product would drop it.
    frame = Frame.shafer(("A", "B", "C"))
    m = MassFunction(frame, {"A": 1e-200, "B": 1 - 1e-200})
    r = tnorm_fusion(m, m, "min")
    assert r.combined.mass(frame.parse("A")) == 1e-200
    assert r.combined.mass(frame.parse("B")) == 1.0
    assert r.conflict.k12 == 2e-200
    operands = [[el.display for el in p.operands] for p in r.conflict.partials]
    assert operands == [["A", "B"], ["B", "A"]]


def test_bounded_tnorm_total_conflict(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.5, "B": 0.5})
    m2 = MassFunction(shafer2, {"A": 0.5, "B": 0.5})
    with pytest.raises(TotalConflictError):
        tnorm_fusion(m1, m2, kind="bounded")


def test_tconorm_fusion_lands_on_unions(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.5, "A|B": 0.5})
    m2 = MassFunction(shafer2, {"B": 1.0})
    out = tconorm_fusion(m1, m2, kind="algebraic")
    assert out.combined.mass(shafer2.ignorance()) == pytest.approx(1.0)
    assert any("pre-normalization total was" in w for w in out.warnings)
    assert out.rule == "tconorm-algebraic"


def test_norm_fusion_rejects_unknown_kind(shafer2):
    m = MassFunction(shafer2, {"A": 1.0})
    with pytest.raises(ValueError):
        tnorm_fusion(m, m, kind="lukasiewicz")
    with pytest.raises(ValueError):
        tconorm_fusion(m, m, kind="lukasiewicz")


# -- cautious commonality-min rule ---------------------------------------

def test_cautious_worked_case(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.5, "B": 0.3, "A|B": 0.2})
    m2 = MassFunction(shafer2, {"A": 0.4, "B": 0.5, "A|B": 0.1})
    out = cautious_commonality_min(m1, m2)
    assert out.combined.mass(shafer2.label("A")) == pytest.approx(0.4, abs=1e-12)
    assert out.combined.mass(shafer2.label("B")) == pytest.approx(0.4, abs=1e-12)
    assert out.combined.mass(shafer2.parse("A|B")) == pytest.approx(0.1, abs=1e-12)
    assert out.combined.mass(shafer2.empty()) == pytest.approx(0.1, abs=1e-12)
    assert out.conflict.k12 == pytest.approx(0.1, abs=1e-12)
    assert out.signed_masses is None
    assert out.warnings == ("open-world mass on the empty set: 0.100000",)


def test_cautious_idempotent(shafer2):
    m = MassFunction(shafer2, {"A": 0.5, "B": 0.3, "A|B": 0.2})
    out = cautious_commonality_min(m, m)
    # Idempotent up to inversion round-off.
    assert oracles.delta(oracles.plain(out.combined), oracles.plain(m)) < 1e-12


def test_cautious_commonality_is_exact_min(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.5, "B": 0.3, "A|B": 0.2})
    m2 = MassFunction(shafer2, {"A": 0.4, "B": 0.5, "A|B": 0.1})
    out = cautious_commonality_min(m1, m2)
    for expr in ("A", "B", "A|B"):
        el = shafer2.parse(expr)
        assert out.combined.q(el) == pytest.approx(min(m1.q(el), m2.q(el)), abs=1e-12)


def test_cautious_negative_inversion():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A|B": 0.5, "C": 0.5})
    m2 = MassFunction(f, {"A|C": 0.5, "B": 0.5})
    out = cautious_commonality_min(m1, m2)
    for name in ("A", "B", "C"):
        assert out.combined.mass(f.label(name)) == pytest.approx(0.5, abs=1e-12)
    assert out.signed_masses is not None
    assert out.signed_masses[f.empty()] == pytest.approx(-0.5, abs=1e-12)
    assert any("inverted mass map is not a bba" in w for w in out.warnings)
    # The signed map is the true Mobius inversion of the q-minimum.
    qmin = {}
    subsets = [f.empty()] + [f.parse(e) for e in
                             ("A", "B", "C", "A|B", "A|C", "B|C", "A|B|C")]
    for el in subsets:
        qmin[frozenset(el.atoms)] = min(m1.q(el), m2.q(el))
    expected = oracles.mobius_from_commonality(qmin)
    for el in subsets:
        want = expected.get(frozenset(el.atoms), 0.0)
        got = out.signed_masses.get(el, 0.0)
        assert got == pytest.approx(want, abs=1e-9)


def test_cautious_needs_shafer_model():
    f = Frame(("A", "B"))
    m = MassFunction(f, {"A": 1.0})
    with pytest.raises(RuleError):
        cautious_commonality_min(m, m)


def test_cautious_guards_large_frames():
    names = tuple(f"H{i}" for i in range(13))
    f = Frame.shafer(names)
    m = MassFunction(f, {"H0": 1.0})
    with pytest.raises(FrameTooLargeError):
        cautious_commonality_min(m, m)


# -- degree-improved variants -----------------------------------------------

def test_improved_conjunctive_bases_coincide(zhang_pair):
    ref = oracles.plain(improved_rules(*zhang_pair, base="dsmc").combined)
    for base in ("smets", "yager"):
        out = improved_rules(*zhang_pair, base=base)
        assert oracles.delta(oracles.plain(out.combined), ref) < 1e-12
        assert out.rule == f"improved-{base}"


def test_improved_transfer_bases_coincide(zhang_pair):
    ref = oracles.plain(improved_rules(*zhang_pair, base="dp").combined)
    out = improved_rules(*zhang_pair, base="dsmh")
    assert oracles.delta(oracles.plain(out.combined), ref) < 1e-12


def test_improved_dsmc_matches_zhang_union(zhang_pair):
    # Jaccard weighting is the union-degree weighting.
    out = improved_rules(*zhang_pair, base="dsmc")
    ref = oracles.plain(zhang_center(*zhang_pair, degree="union").combined)
    assert oracles.delta(oracles.plain(out.combined), ref) < 1e-12


def test_improved_dp_worked_values(zhang_pair):
    out = improved_rules(*zhang_pair, base="dp")
    f = zhang_pair[0].frame
    assert out.combined.mass(f.label("A")) == pytest.approx(0.21 / 0.73)
    assert out.combined.mass(f.label("B")) == pytest.approx(0.06 / 0.73)
    assert out.combined.mass(f.parse("A|B")) == pytest.approx(0.46 / 0.73)
    assert out.conflict.k12 == pytest.approx(0.18)


def test_improved_disjunctive(zhang_pair):
    out = improved_rules(*zhang_pair, base="disjunctive")
    f = zhang_pair[0].frame
    assert out.combined.mass(f.ignorance()) == pytest.approx(1.0)


def test_improved_validation(shafer2):
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"B": 1.0})
    with pytest.raises(ValueError):
        improved_rules(m1, m1, base="pcr9")
    with pytest.raises(TotalConflictError):
        improved_rules(m1, m2, base="dsmc")
    bad = MassFunction(shafer2, {"A&~A": 1.0})
    with pytest.raises(RuleError):
        improved_rules(bad, m1)


def test_degree_weighted_rules_book_only_disjoint_pairs():
    # Only (C, A) is disjoint; the degree is the weight of the other
    # three pairs, so none of their mass reaches the ledger.
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A|B": 0.6, "C": 0.4})
    m2 = MassFunction(f, {"A": 0.7, "B|C": 0.3})
    for out in (zhang_center(m1, m2), improved_rules(m1, m2, base="dsmc")):
        assert out.conflict.k12 == pytest.approx(0.28)
        [partial] = out.conflict.partials
        assert partial.operands == (f.label("C"), f.label("A"))
        assert partial.shares == ((NORMALISED, partial.mass),)
        assert out.conflict.lost == 0.0
    [partial] = improved_rules(m1, m2, base="dp").conflict.partials
    assert partial.shares == ((f.parse("A|C"), partial.mass),)
    out = improved_rules(m1, m2, base="disjunctive")
    assert out.conflict.k12 == 0.0
    assert out.conflict.partials == ()
    assert out.combined.total == pytest.approx(1.0)
