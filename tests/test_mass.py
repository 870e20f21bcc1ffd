"""MassFunction construction, derived measures, transforms, Opinion."""

import pytest

from fusekit import Frame, FrameMismatchError, MassFunction, Opinion, RuleError

import oracles


@pytest.fixture
def shafer3():
    return Frame.shafer(("A", "B", "C"))


def test_construction_merges_equal_keys_and_drops_zeros(shafer3):
    f = shafer3
    m = MassFunction(f, [(f.parse("A|B"), 0.3), (f.parse("B|A"), 0.2),
                         (f.label("C"), 0.0), (f.label("A"), 0.5)])
    assert len(m) == 2
    assert m.mass(f.parse("A|B")) == pytest.approx(0.5)
    assert f.label("C") not in m
    assert m.total == pytest.approx(1.0)


def test_construction_accepts_string_keys(shafer3):
    m = MassFunction(shafer3, {"A": 0.4, "B|C": 0.6})
    assert m.mass(shafer3.parse("B|C")) == 0.6


def test_negative_mass_rejected(shafer3):
    with pytest.raises(ValueError):
        MassFunction(shafer3, {"A": -0.1, "B": 1.1})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_mass_rejected(shafer3, value):
    with pytest.raises(ValueError, match="non-finite"):
        MassFunction(shafer3, {"A": value, "B": 1.0})


def test_masses_whose_total_overflows_are_rejected(shafer3):
    # Each mass is finite, but a source's total must be too.
    with pytest.raises(ValueError, match="^masses total more than the largest float$"):
        MassFunction(shafer3, {"A": 1e308, "B": 1e308})
    # A combination's landings are not refused so; their total raises when read.
    landed = MassFunction._landed(shafer3, {shafer3.label("A"): 1e308, shafer3.label("B"): 1e308})
    with pytest.raises(RuleError, match="^masses total more than the largest float$"):
        landed.total


def test_landed_masses_are_checked_in_bulk(shafer3):
    # A combination's landings, made by the ledger, skip the per-entry
    # checks but not the checks of their values.
    a, b = shafer3.label("A"), shafer3.label("B")
    m = MassFunction._landed(shafer3, {a: 0.0, b: 1.0})
    assert list(m.items()) == [(b, 1.0)]
    assert len(MassFunction._landed(shafer3, {a: 0.0, b: -0.0})) == 0
    # Finite masses whose sum overflows are not refused.
    assert list(MassFunction._landed(shafer3, {a: 1e308, b: 1e308}).items()) == [
        (a, 1e308), (b, 1e308)]
    for masses, message in (({a: 0.5, b: -0.5}, "negative mass -0.5 on B"),
                            ({a: float("inf"), b: 1.0}, "non-finite mass inf on A"),
                            ({a: 1.0, b: float("nan")}, "non-finite mass nan on B"),
                            ({a: -1.0, b: float("nan")}, "negative mass -1.0 on A")):
        with pytest.raises(RuleError, match=message):
            MassFunction._landed(shafer3, masses)


@pytest.mark.parametrize("frame", [{"A": 1.0}, None, ("A", "B")])
def test_a_frame_that_is_no_frame_is_rejected(frame):
    # Assignments passed where the frame goes would build an empty bba.
    with pytest.raises(TypeError, match="expected a Frame"):
        MassFunction(frame)


def test_a_key_that_is_no_element_is_rejected(shafer3):
    with pytest.raises(TypeError, match="^expected Element or str key, got int$"):
        MassFunction(shafer3, {3: 1.0})


def test_foreign_elements_rejected(shafer3):
    other = Frame.shafer(("A", "B"))
    with pytest.raises(FrameMismatchError):
        MassFunction(shafer3, {other.label("A"): 1.0})
    m = MassFunction(shafer3, {"A": 1.0})
    with pytest.raises(FrameMismatchError):
        m.mass(other.label("A"))


def test_vacuous_and_certain(shafer3):
    vac = MassFunction.vacuous(shafer3)
    assert vac.mass(shafer3.ignorance()) == 1.0
    assert len(vac) == 1
    cert = MassFunction.certain(shafer3.label("B"))
    assert cert.mass(shafer3.label("B")) == 1.0


def test_status_classification(shafer3):
    normal = MassFunction(shafer3, {"A": 1.0})
    assert normal.status == "normal"
    assert MassFunction(shafer3, {"A": 0.7}).status == "incomplete"
    assert MassFunction(shafer3, {"A": 1.3}).status == "paraconsistent"


def test_is_bayesian(shafer3):
    assert MassFunction(shafer3, {"A": 0.4, "B": 0.6}).is_bayesian()
    assert not MassFunction(shafer3, {"A": 0.4, "A|B": 0.6}).is_bayesian()


def test_equality_is_semantic(shafer3):
    m1 = MassFunction(shafer3, {"A|B": 1.0})
    m2 = MassFunction(shafer3, {"B|A": 1.0})
    assert m1 == m2
    assert hash(m1) == hash(m2)
    assert m1 != MassFunction(shafer3, {"A": 1.0})


def test_derived_measures_match_definitions(shafer3):
    f = shafer3
    m = MassFunction(f, {"A": 0.3, "B": 0.2, "A|B": 0.25, "A|B|C": 0.25})
    p = oracles.plain(m)
    for text in ("A", "B", "C", "A|B", "A|C", "B|C", "A|B|C"):
        el = f.parse(text)
        key = frozenset(el.atoms)
        assert m.bel(el) == pytest.approx(oracles.bel(p, key), abs=1e-15)
        assert m.pl(el) == pytest.approx(oracles.pl(p, key), abs=1e-15)
        assert m.q(el) == pytest.approx(oracles.q(p, key), abs=1e-15)
        assert m.bel_d(el) == pytest.approx(oracles.bel_d(p, key), abs=1e-12)
        assert m.pl_d(el) == pytest.approx(oracles.pl_d(p, key), abs=1e-12)


def test_bel_excludes_empty_focal(shafer3):
    # Open-world mass on the empty set supports nothing.
    m = MassFunction(shafer3, {"A": 0.9, "A&B": 0.1})
    assert m.mass(shafer3.empty()) == pytest.approx(0.1)
    assert m.bel(shafer3.label("A")) == pytest.approx(0.9)
    assert m.bel(shafer3.ignorance()) == pytest.approx(0.9)


def test_bel_d_worked_value(shafer3):
    f = shafer3
    m = MassFunction(f, {"A": 0.5, "A|B": 0.5})
    # A counts 1/2 of its mass toward A|B, A|B counts fully.
    assert m.bel_d(f.parse("A|B")) == pytest.approx(0.75)
    assert m.bel(f.parse("A|B")) == pytest.approx(1.0)


def test_bel_d_of_the_empty_element_is_zero(shafer3):
    m = MassFunction(shafer3, {"A": 0.5, "A&B": 0.5})
    assert m.bel_d(shafer3.empty()) == 0.0


def test_queries_take_an_element_of_the_same_frame(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    with pytest.raises(TypeError, match="^expected Element, got str$"):
        m.bel("A")
    with pytest.raises(FrameMismatchError, match="^query element from another frame$"):
        m.bel(Frame.shafer(("A", "B")).label("A"))


def test_pl_d_worked_value(shafer3):
    f = shafer3
    m = MassFunction(f, {"A|B": 1.0})
    # Overlap with A is 1 atom out of the pair's 2-atom union.
    assert m.pl_d(f.label("A")) == pytest.approx(0.5)
    assert m.pl(f.label("A")) == 1.0


def test_commonality_callable(shafer3):
    m = MassFunction(shafer3, {"A": 0.4, "A|B": 0.6})
    q = m.commonality()
    assert q(shafer3.label("A")) == pytest.approx(1.0)
    assert q(shafer3.label("B")) == pytest.approx(0.6)


def test_discount(shafer3):
    f = shafer3
    m = MassFunction(f, {"A": 0.4, "B": 0.4, "C": 0.2})
    d = m.discount(0.8)
    assert d.mass(f.label("A")) == pytest.approx(0.32)
    assert d.mass(f.ignorance()) == pytest.approx(0.2)
    assert d.total == pytest.approx(1.0)
    assert m.discount(1.0) is m
    with pytest.raises(ValueError):
        m.discount(1.5)


def test_discount_zero_is_vacuous(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    assert m.discount(0.0) == MassFunction.vacuous(shafer3)


def test_normalize(shafer3):
    m = MassFunction(shafer3, {"A": 0.2, "B": 0.6})
    n = m.normalize()
    assert n.total == pytest.approx(1.0)
    assert n.mass(shafer3.label("A")) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        MassFunction(shafer3, {}).normalize()


def test_without_empty(shafer3):
    m = MassFunction(shafer3, {"A": 0.9, "A&B": 0.1})
    w = m.without_empty()
    assert w.total == pytest.approx(0.9)
    assert shafer3.empty() not in w


def test_on_frame_reevaluates_under_constraints():
    free = Frame.free(("A", "B"))
    m = MassFunction(free, {"A&B": 0.3, "A": 0.7})
    tight = free.constrain(free.parse("A&B"))
    moved = m.on_frame(tight)
    # The dead intersection stays put on the empty element.
    assert moved.mass(tight.empty()) == pytest.approx(0.3)
    assert moved.mass(tight.label("A")) == pytest.approx(0.7)


def test_on_frame_keeps_the_empty_element_empty(shafer3):
    m = MassFunction(shafer3, {shafer3.empty(): 0.2, "A": 0.8})
    tight = shafer3.constrain("B")
    moved = m.on_frame(tight)
    assert moved.mass(tight.empty()) == 0.2
    assert moved.mass(tight.label("A")) == 0.8


def test_to_opinion(shafer3):
    f = shafer3
    m = MassFunction(f, {"A": 0.5, "B": 0.2, "B|C": 0.1, "A|B": 0.2})
    op = m.to_opinion(f.label("A"))
    assert op.belief == pytest.approx(0.5)
    assert op.disbelief == pytest.approx(0.3)
    assert op.uncertainty == pytest.approx(0.2)
    assert op.atomicity == pytest.approx(1 / 3)


def test_to_opinion_rejects_degenerate_focus(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    with pytest.raises(ValueError):
        m.to_opinion(shafer3.empty())
    with pytest.raises(ValueError):
        m.to_opinion(shafer3.ignorance())


def test_to_opinion_explicit_atomicity(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    op = m.to_opinion(shafer3.label("A"), atomicity=0.25)
    assert op.atomicity == 0.25
    assert op.is_dogmatic


def test_opinion_validation():
    with pytest.raises(ValueError):
        Opinion(0.5, 0.6, 0.2, 0.5)
    with pytest.raises(ValueError):
        Opinion(1.2, -0.2, 0.0, 0.5)
    op = Opinion(0.2, 0.3, 0.5, 0.5)
    assert not op.is_dogmatic
