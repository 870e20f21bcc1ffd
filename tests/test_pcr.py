"""Conflict-redistribution rules: WAO, PCR1-5, minC."""

import pytest

from fusekit import Frame, MassFunction, minc, pcr1, pcr2, pcr3, pcr4, pcr5, wao

import oracles


@pytest.fixture
def shafer2():
    return Frame.shafer(("A", "B"))


@pytest.fixture
def shafer3():
    return Frame.shafer(("A", "B", "C"))


@pytest.fixture
def pcr_pair(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(shafer2, {"B": 0.3, "A|B": 0.7})
    return m1, m2


@pytest.fixture
def hard_pair(shafer3):
    # Five distinct partial conflicts, three of them with asymmetric
    # column weights; separates every rule in the family.
    m1 = MassFunction(shafer3, {"C": 0.4, "A": 0.3, "A|B": 0.3})
    m2 = MassFunction(shafer3, {"A|B": 0.5, "B": 0.3, "C": 0.2})
    return m1, m2


@pytest.mark.parametrize("fn,oracle", [
    (pcr1, oracles.pcr1),
    (pcr2, oracles.pcr2),
    (pcr3, oracles.pcr3),
    (pcr4, oracles.pcr4),
    (pcr5, oracles.pcr5),
])
def test_rule_matches_oracle_on_hard_pair(fn, oracle, hard_pair):
    m1, m2 = hard_pair
    out = fn(m1, m2)
    expected = oracle(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    assert out.combined.total == pytest.approx(1.0, abs=1e-12)
    assert out.conflict.k12 == pytest.approx(0.53)


def test_wao_matches_oracle(hard_pair):
    m1, m2 = hard_pair
    out = wao(m1, m2)
    expected, lost = oracles.wao(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    assert out.conflict.lost == pytest.approx(lost, abs=1e-12)


def test_wao_loses_empty_column_weight(shafer3):
    # Sources that name the empty element give it column weight, and
    # that share of the conflict has nowhere to go.
    m1 = MassFunction(shafer3, {"A": 0.2, "B": 0.4, "C": 0.3, "A&~A": 0.1})
    m2 = MassFunction(shafer3, {"A": 0.1, "B": 0.3, "C": 0.4, "A&~A": 0.2})
    out = wao(m1, m2)
    assert out.conflict.lost > 0.0
    assert any("lost" in w for w in out.warnings)
    assert out.combined.total + out.conflict.lost == pytest.approx(1.0)


def test_wao_books_no_share_to_a_column_whose_average_rounds_to_zero(shafer3):
    # C's column averages to 5e-324 / 2, which rounds to 0.0.
    m1 = MassFunction(shafer3, {"A": 1.0, "C": 5e-324})
    m2 = MassFunction(shafer3, {"B": 1.0})
    (partial,) = wao(m1, m2).conflict.partials
    assert partial.shares == ((shafer3.label("A"), 0.5), (shafer3.label("B"), 0.5))


def test_pcr1_redistributes_everything(hard_pair):
    out = pcr1(*hard_pair)
    assert out.conflict.lost == 0.0
    redistributed = out.conflict.redistributed()
    assert sum(redistributed.values()) == pytest.approx(0.53)


def test_pcr2_touches_only_involved_elements(shafer3):
    # C conflicts with A; A|B|C never does, so it keeps exactly its
    # conjunctive mass and draws no share of the conflict.
    m1 = MassFunction(shafer3, {"A": 0.5, "A|B|C": 0.5})
    m2 = MassFunction(shafer3, {"C": 0.4, "A|B|C": 0.6})
    out = pcr2(m1, m2)
    expected = oracles.pcr2(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    base = oracles.conjunctive(oracles.plain(m1), oracles.plain(m2))
    key = frozenset(shafer3.ignorance().atoms)
    assert oracles.plain(out.combined)[key] == pytest.approx(base[key])


def test_pcr_binary_coincidence(pcr_pair):
    # One-sided conflict: PCR2, PCR3 and PCR5 all give (.54, .18, .28).
    for fn in (pcr2, pcr3, pcr5):
        out = fn(*pcr_pair)
        f = pcr_pair[0].frame
        assert out.combined.mass(f.label("A")) == pytest.approx(0.54)
        assert out.combined.mass(f.label("B")) == pytest.approx(0.18)
        assert out.combined.mass(f.parse("A|B")) == pytest.approx(0.28)


def test_pcr5_differs_from_pcr4_on_two_sided_conflict(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.6, "B": 0.3, "A|B": 0.1})
    m2 = MassFunction(shafer2, {"A": 0.2, "B": 0.3, "A|B": 0.5})
    out5 = pcr5(m1, m2)
    out4 = pcr4(m1, m2)
    a5 = out5.combined.mass(shafer2.label("A"))
    a4 = out4.combined.mass(shafer2.label("A"))
    assert a5 == pytest.approx(0.584, abs=5e-4)
    assert abs(a5 - a4) > 1e-3


def test_pcr4_falls_back_to_columns_when_conjunctive_is_zero(shafer2):
    # Total conflict: m12(A) = m12(B) = 0, so the split must come from
    # the column sums instead.
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"B": 1.0})
    out = pcr4(m1, m2)
    assert out.combined.mass(shafer2.label("A")) == pytest.approx(0.5)
    assert out.combined.mass(shafer2.label("B")) == pytest.approx(0.5)
    assert any("column sums" in p.basis for p in out.conflict.partials)


def test_pcr5_handles_total_conflict_directly(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.7})
    m2 = MassFunction(shafer2, {"B": 0.7})
    out = pcr5(m1, m2)
    # Own masses are equal, so the split is even; subnormal sources
    # yield a subnormal result (product total 0.49).
    assert out.combined.mass(shafer2.label("A")) == pytest.approx(0.245)
    assert out.combined.mass(shafer2.label("B")) == pytest.approx(0.245)


def test_fold_warning_on_three_sources(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(shafer2, {"B": 0.3, "A|B": 0.7})
    m3 = MassFunction(shafer2, {"A": 0.5, "A|B": 0.5})
    for fn in (pcr4, pcr5):
        out = fn(m1, m2, m3)
        assert any("pairwise" in w for w in out.warnings)
        assert out.combined.total == pytest.approx(1.0, abs=1e-12)
    out = minc(m1, m2, m3, version="a")
    assert any("pairwise" in w for w in out.warnings)


def test_pcr3_weighs_a_repeated_operand_once(shafer3):
    # Eight products of mass 1/8.  Three conflict: (A, A, B), (A, I, B)
    # and (I, A, B), I being total ignorance, which is exonerated.  Each
    # goes to A and B by their column sums, 1 and 1/2: A gets 1/12 and B
    # 1/24, the repeated A weighed once.  The other five land on A (3),
    # B and I.
    m1 = MassFunction(shafer3, {"A": 0.5, "A|B|C": 0.5})
    m2 = MassFunction(shafer3, {"A": 0.5, "A|B|C": 0.5})
    m3 = MassFunction(shafer3, {"B": 0.5, "A|B|C": 0.5})
    out = pcr3(m1, m2, m3)
    a, b = shafer3.label("A"), shafer3.label("B")
    assert out.conflict.k12 == 3 / 8
    repeated, = (q for q in out.conflict.partials if q.operands == (a, a, b))
    assert repeated.shares == (
        (a, pytest.approx(1 / 12, abs=1e-15)), (b, pytest.approx(1 / 24, abs=1e-15)))
    assert out.combined.mass(a) == pytest.approx(3 / 8 + 3 / 12, abs=1e-15)
    assert out.combined.mass(b) == pytest.approx(1 / 8 + 3 / 24, abs=1e-15)
    assert out.combined.mass(shafer3.ignorance()) == 1 / 8


def test_pcr3_ladder_fallback_goes_to_disjunctive_form():
    # Conflicting operands whose columns are all zero cannot happen for
    # real focals, but empty-element focals have zero non-empty columns.
    f = Frame.shafer(("A", "B"))
    m1 = MassFunction(f, {"A&~A": 1.0})
    m2 = MassFunction(f, {"A&~A": 1.0})
    out = pcr3(m1, m2)
    # The ladder lands on total ignorance.
    assert out.combined.mass(f.ignorance()) == pytest.approx(1.0)


def test_minc_versions_agree_when_part_unions_cover_everything(shafer3):
    m1 = MassFunction(shafer3, {"A": 0.5, "B|C": 0.1, "A|B|C": 0.4})
    m2 = MassFunction(shafer3, {"A": 0.7, "B|C": 0.2, "A|B|C": 0.1})
    a = minc(m1, m2, version="a").combined
    b = minc(m1, m2, version="b").combined
    assert oracles.delta(oracles.plain(a), oracles.plain(b)) < 1e-12
    assert a.mass(shafer3.label("A")) == pytest.approx(0.819277, abs=1e-6)


def test_minc_versions_differ_when_extra_unions_hold_mass(hard_pair):
    # Version b admits A and B as recipients of the C vs A|B conflict;
    # version a admits only C, A|B and their union.  Expected values
    # are worked by hand from the two recipient definitions.
    m1, m2 = hard_pair
    f = m1.frame
    a = minc(m1, m2, version="a").combined
    b = minc(m1, m2, version="b").combined

    assert a.mass(f.label("A")) == pytest.approx(0.2237458194, abs=1e-9)
    assert a.mass(f.label("B")) == pytest.approx(0.1742986425, abs=1e-9)
    assert a.mass(f.label("C")) == pytest.approx(0.2477749361, abs=1e-9)
    assert a.mass(f.parse("A|B")) == pytest.approx(0.3541806020, abs=1e-9)

    assert b.mass(f.label("A")) == pytest.approx(0.3067245428, abs=1e-9)
    assert b.mass(f.label("B")) == pytest.approx(0.2240858766, abs=1e-9)
    assert b.mass(f.label("C")) == pytest.approx(0.2015954726, abs=1e-9)
    assert b.mass(f.parse("A|B")) == pytest.approx(0.2675941080, abs=1e-9)

    assert a.total == pytest.approx(1.0, abs=1e-12)
    assert b.total == pytest.approx(1.0, abs=1e-12)


def test_minc_equal_split_when_no_recipient_mass(shafer2):
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"B": 1.0})
    out = minc(m1, m2, version="a")
    # Recipients A, B, A|B all hold zero conjunctive mass.
    assert out.combined.mass(shafer2.label("A")) == pytest.approx(1 / 3)
    assert out.combined.mass(shafer2.parse("A|B")) == pytest.approx(1 / 3)
    assert any("equal split" in p.basis for p in out.conflict.partials)


def test_minc_fold_reads_only_the_intermediate_masses(shafer3):
    # The fold's second step sees the first step's result as a mass
    # function: rebuilding its elements from their atoms changes nothing.
    m1 = MassFunction(shafer3, {"A": 0.6, "B|C": 0.4})
    m2 = MassFunction(shafer3, {"B": 0.5, "A|C": 0.5})
    m3 = MassFunction(shafer3, {"C": 0.7, "A|B": 0.3})
    step = minc(m1, m2).combined
    rebuilt = MassFunction(shafer3, {shafer3.from_atoms(el.atoms): v for el, v in step.items()})
    folded = minc(m1, m2, m3).combined
    assert oracles.delta(oracles.plain(folded), oracles.plain(minc(rebuilt, m3).combined)) < 1e-12
    assert oracles.delta(oracles.plain(folded), {
        shafer3.label("A").atoms: 0.314366, shafer3.label("B").atoms: 0.187119,
        shafer3.label("C").atoms: 0.498515}) < 1e-6


def test_minc_takes_parts_by_operand_expression_not_by_element():
    # A&B and C&D are one empty element on a Shafer frame; each conflict
    # takes its recipients from its own operands' parts.  No recipient
    # holds conjunctive mass, so every product splits equally.
    f = Frame.shafer(tuple("ABCD"))
    m1 = MassFunction(f, {"A&B": 0.5, "C": 0.5})
    m2 = MassFunction(f, {"C&D": 0.5, "A": 0.5})
    out = minc(m1, m2, version="a")
    recipients = [[dest.display for dest, _ in p.shares] for p in out.conflict.partials]
    assert recipients[1:] == [["A", "B", "A|B"], ["C", "D", "C|D"], ["C", "A", "A|C"]]
    assert len(recipients[0]) == 15
    sixtieths = {el.display: v * 60 for el, v in out.combined.items()}
    assert sixtieths == pytest.approx({
        "A": 11, "B": 6, "C": 11, "D": 6, "A|B": 6, "A|C": 6, "C|D": 6,
        "A|D": 1, "B|C": 1, "B|D": 1, "A|B|C": 1, "A|B|D": 1, "A|C|D": 1, "B|C|D": 1,
        "A|B|C|D": 1}, abs=1e-12)


def test_minc_rejects_unknown_version(shafer2):
    m = MassFunction(shafer2, {"A": 1.0})
    with pytest.raises(ValueError):
        minc(m, m, version="c")


@pytest.mark.parametrize("fn", [pcr1, pcr2, pcr3, pcr4, pcr5, minc])
def test_a_landing_first_reached_by_a_share_carries_its_display_expression(fn, shafer3):
    # The one product conflicts, so no product lands on "B|A" or on "C".
    # Their shares land on the ledger's own elements, which read their
    # displays' expressions, not the operands' parsed text.
    m1 = MassFunction(shafer3, {"B|A": 1.0})
    m2 = MassFunction(shafer3, {"C": 1.0})
    out = fn(m1, m2)
    texts = {el.display: el.text for el in out.combined}
    assert {"A|B", "C"} <= texts.keys()
    assert all(text == display for display, text in texts.items()), texts


def test_partial_shares_sum_to_product_mass(hard_pair):
    for fn in (pcr3, pcr4, pcr5):
        out = fn(*hard_pair)
        for p in out.conflict.partials:
            assert sum(v for _, v in p.shares) == pytest.approx(p.mass, abs=1e-12)
    out = minc(*hard_pair, version="b")
    for p in out.conflict.partials:
        assert sum(v for _, v in p.shares) == pytest.approx(p.mass, abs=1e-12)


@pytest.mark.parametrize("rule, warning", [
    (pcr1, "no non-empty focal columns; conflict lost"),
    (pcr2, "conflict involves only empty operands; lost"),
])
def test_pooled_conflict_with_only_empty_columns_is_lost(rule, warning):
    f = Frame.shafer(("A", "B"))
    m = MassFunction(f, {"A&~A": 1.0})
    out = rule(m, m)
    assert out.conflict.lost == pytest.approx(1.0, abs=1e-12)
    assert out.warnings == (warning,)
