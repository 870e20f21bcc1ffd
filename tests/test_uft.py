"""Scenario engine: attitudes, reliability stages, routing, updates."""

import math

import pytest

import fusekit.pcr as pcr_module
import fusekit.uft as uft_module
from fusekit import (
    Attitude,
    ConflictReport,
    Frame,
    FrameMismatchError,
    FusionResult,
    MassFunction,
    QuasiAssociativeState,
    RuleError,
    ScenarioConfig,
    conjunctive,
    dempster,
    disjunctive,
    dsm_hybrid,
    dubois_prade,
    dynamic_update,
    exclusive_disjunctive,
    inagaki,
    murphy_average,
    parse_problem,
    pcr1,
    pcr3,
    pcr4,
    pcr5,
    quasi_associative_combine,
    smets_tbm,
    uft_combine,
    wao,
    weighted_mixing,
    weighted_operator,
    yager,
)
from fusekit.registry import resolve, validate_call
from fusekit.uft import CASE_TO_KIND, _ATTITUDE_KINDS

import oracles


@pytest.fixture
def free4():
    return Frame(("A", "B", "C", "D"))


@pytest.fixture
def scenario_sources(free4):
    m1 = MassFunction(free4, {"A": 0.2, "B": 0.5, "A|B": 0.3})
    m2 = MassFunction(free4, {"A": 0.4, "B": 0.4, "A|B": 0.2})
    return m1, m2


@pytest.fixture
def shafer2():
    return Frame.shafer(("A", "B"))


def masses(result, frame, *exprs):
    return tuple(result.combined.mass(frame.parse(e)) for e in exprs)


# -- declarations ----------------------------------------------------------

def test_attitude_validation(free4):
    with pytest.raises(ValueError):
        Attitude("veto")
    with pytest.raises(ValueError):
        Attitude("right")
    att = Attitude("both-wrong", recipients=[free4.label("C")])
    assert att.recipients == (free4.label("C"),)


def test_case_table_is_complete():
    assert set(CASE_TO_KIND.values()) == set(_ATTITUDE_KINDS)
    assert set(CASE_TO_KIND) == {
        "1.1.1", "1.3", "1.1.2", "1.2.1", "1.2.2", "1.2.3", "1.2.4",
        "1.2.5.1", "1.2.5.2", "1.2.6", "1.2.7",
    }


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(reliability="psychic")
    with pytest.raises(ValueError):
        ScenarioConfig(world="flat")
    with pytest.raises(ValueError):
        ScenarioConfig.for_case("3")
    with pytest.raises(ValueError):
        ScenarioConfig.for_case("9.9")
    assert ScenarioConfig.for_case("1").reliability == "all-reliable"
    assert ScenarioConfig.for_case("2").reliability == "at-least-one"
    cfg3 = ScenarioConfig.for_case("3", discounts=(1.0, 0.8))
    assert cfg3.reliability == "discounts"
    assert cfg3.discounts == (1.0, 0.8)
    # Declaring a conflict impossible only makes sense in an open world.
    assert ScenarioConfig.for_case("1.2.5.2").world == "open"
    assert ScenarioConfig.for_case("1.2.5.1").world == "closed"


# -- reliability stages -----------------------------------------------------

def test_all_reliable_keeps_conjunctive(scenario_sources, free4):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("1"))
    assert masses(out, free4, "A", "B", "A|B", "A&B") == pytest.approx(
        (0.24, 0.42, 0.06, 0.28)
    )
    ref = conjunctive(*scenario_sources)
    assert oracles.delta(oracles.plain(out.combined), oracles.plain(ref.combined)) < 1e-12


def test_at_least_one_reliable_is_disjunctive(scenario_sources, free4):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("2"))
    assert masses(out, free4, "A", "B", "A|B") == pytest.approx((0.08, 0.20, 0.72))
    ref = disjunctive(*scenario_sources)
    assert out.combined == ref.combined


def test_exactly_one_reliable_is_exclusive(scenario_sources):
    out = uft_combine(scenario_sources, ScenarioConfig(reliability="exactly-one"))
    ref = exclusive_disjunctive(*scenario_sources)
    assert out.combined == ref.combined


def test_mixed_reliability_needs_expression(scenario_sources):
    with pytest.raises(ValueError):
        uft_combine(scenario_sources, ScenarioConfig(reliability="mixed"))
    out = uft_combine(
        scenario_sources, ScenarioConfig(reliability="mixed", mixed_expr="1|2")
    )
    ref = disjunctive(*scenario_sources)
    assert oracles.delta(oracles.plain(out.combined), oracles.plain(ref.combined)) < 1e-12


def test_statistical_pooling(scenario_sources):
    out = uft_combine(scenario_sources, ScenarioConfig(reliability="statistical"))
    assert out.combined == murphy_average(*scenario_sources).combined
    weighted = uft_combine(
        scenario_sources,
        ScenarioConfig(reliability="statistical", discounts=(0.7, 0.3)),
    )
    assert weighted.combined == weighted_mixing(scenario_sources, (0.7, 0.3)).combined


def test_discount_stage(scenario_sources, free4):
    out = uft_combine(
        scenario_sources, ScenarioConfig.for_case("3", discounts=(1.0, 0.8))
    )
    assert masses(out, free4, "A", "B", "A|B", "A&B") == pytest.approx(
        (0.232, 0.436, 0.108, 0.224)
    )
    with pytest.raises(ValueError):
        uft_combine(scenario_sources, ScenarioConfig(reliability="discounts"))
    with pytest.raises(ValueError):
        uft_combine(
            scenario_sources,
            ScenarioConfig(reliability="discounts", discounts=(1.0,)),
        )


def test_all_zero_discounts_give_vacuous(scenario_sources, free4):
    out = uft_combine(
        scenario_sources,
        ScenarioConfig(reliability="discounts", discounts=(0.0, 0.0)),
    )
    assert out.combined == MassFunction.vacuous(free4)
    # Subnormal sources keep their totals: discounting moves each whole
    # total onto ignorance, so the result holds their product there.
    shafer3 = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(shafer3, {"A": 0.5, "B": 0.3})
    m2 = MassFunction(shafer3, {"B": 0.6, "A|B|C": 0.2})
    out = uft_combine((m1, m2), ScenarioConfig.for_case("3", discounts=(0.0, 0.0)))
    assert dict(out.combined.items()) == {
        shafer3.ignorance(): pytest.approx(m1.total * m2.total)}
    assert out.warnings == ()


# -- conflict routing --------------------------------------------------------

def test_split_route(scenario_sources, free4):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("1.2.1"))
    a, b, ab = masses(out, free4, "A", "B", "A|B")
    assert a == pytest.approx(0.24 + 0.08 / 3 + 0.2 * 4 / 9)
    assert b == pytest.approx(0.42 + 0.08 * 2 / 3 + 0.2 * 5 / 9)
    assert ab == pytest.approx(0.06)
    assert out.combined.total == pytest.approx(1.0, abs=1e-12)
    assert out.conflict.k12 == pytest.approx(0.28)


def test_union_route(scenario_sources, free4):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("1.2.2"))
    assert masses(out, free4, "A", "B", "A|B") == pytest.approx((0.24, 0.42, 0.34))


def test_ignorance_route(scenario_sources, free4):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("1.2.5.1"))
    assert out.combined.mass(free4.ignorance()) == pytest.approx(0.28)


def test_empty_route_is_open_world(scenario_sources, free4):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("1.2.5.2"))
    assert out.combined.mass(free4.empty()) == pytest.approx(0.28)
    assert any("open-world mass on the empty set" in w for w in out.warnings)


def test_right_route(scenario_sources, free4):
    cfg = ScenarioConfig.for_case("1.2.6", right=free4.label("A"))
    out = uft_combine(scenario_sources, cfg)
    assert masses(out, free4, "A", "B", "A|B") == pytest.approx((0.52, 0.42, 0.06))


def test_right_route_refuses_an_element_the_model_empties(scenario_sources, free4):
    frame = free4.constrain("C")
    sources = [m.on_frame(frame) for m in scenario_sources]
    cfg = ScenarioConfig.for_case("1.2.6", right=frame.label("C"))
    with pytest.raises(ValueError, match="right elements must be non-empty"):
        uft_combine(sources, cfg)


def test_both_wrong_route(scenario_sources, free4):
    cfg = ScenarioConfig.for_case(
        "1.2.7", recipients=(free4.label("C"), free4.label("D"))
    )
    out = uft_combine(scenario_sources, cfg)
    assert masses(out, free4, "A", "B", "A|B", "C", "D") == pytest.approx(
        (0.24, 0.42, 0.06, 0.14, 0.14)
    )


def test_both_wrong_needs_recipients_when_closed(scenario_sources, free4):
    with pytest.raises(RuleError):
        uft_combine(scenario_sources, ScenarioConfig.for_case("1.2.7"))
    out = uft_combine(
        scenario_sources, ScenarioConfig.for_case("1.2.7", world="open")
    )
    assert out.combined.mass(free4.empty()) == pytest.approx(0.28)


def test_provisional_keep_is_noted(scenario_sources):
    out = uft_combine(scenario_sources, ScenarioConfig.for_case("1.3"))
    assert any("provisional" in p.note for p in out.conflict.partials)


def test_keep_on_empty_landing_warns_in_closed_world(shafer2):
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"B": 1.0})
    out = uft_combine((m1, m2), ScenarioConfig.for_case("1.1.1"))
    assert out.combined.mass(shafer2.empty()) == pytest.approx(1.0)
    assert any("closed world" in w for w in out.warnings)


def test_split_escalates_weightless_operands(shafer2):
    m1 = MassFunction(shafer2, {"A&~A": 1.0})
    m2 = MassFunction(shafer2, {"A&~A": 1.0})
    out = uft_combine((m1, m2), ScenarioConfig.for_case("1.2.1"))
    assert out.combined.mass(shafer2.ignorance()) == pytest.approx(1.0)
    assert any("weightless" in p.note for p in out.conflict.partials)


def masses_of(m):
    return {el.display: v for el, v in m.items()}


def test_split_route_exonerates_a_vacuous_third_source():
    # Total ignorance causes no conflict, so the split charges it nothing:
    # a vacuous source, in any position, leaves the two-source result.
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.6, "B|C": 0.4})
    m2 = MassFunction(f, {"B": 0.5, "A|C": 0.5})
    vacuous = MassFunction.vacuous(f)
    cfg = ScenarioConfig.for_case("1.2.1")
    two = uft_combine((m1, m2), cfg).combined
    assert masses_of(two) == pytest.approx(
        {"A": 0.4636, "B": 0.3364, "A|C": 0.1111, "B|C": 0.0889}, abs=5e-5)
    for sources in ((m1, m2, vacuous), (vacuous, m1, m2)):
        three = uft_combine(sources, cfg).combined
        assert three.mass(f.ignorance()) == 0.0
        assert masses_of(three) == pytest.approx(masses_of(two), abs=1e-12)


def test_a_declared_split_exonerates_ignorance_and_pools_one_element(shafer2):
    # Declared pairs split products that do not conflict.  A beside total
    # ignorance takes the whole product; A with itself takes it once, by
    # its two masses pooled.
    a, ab = shafer2.label("A"), shafer2.parse("A|B")
    m1 = MassFunction(shafer2, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(shafer2, {"A": 0.3, "A|B": 0.7})
    split = Attitude("split")
    cfg = ScenarioConfig(pair_attitudes={frozenset((a, ab)): split, frozenset((a,)): split})
    out = uft_combine((m1, m2), cfg)
    # Each share is the product times its operand's weight over the total.
    assert [(p.operands, p.mass, p.shares) for p in out.conflict.partials] == [
        ((a, a), 0.6 * 0.3, ((a, 0.6 * 0.3 * (0.6 + 0.3) / (0.6 + 0.3)),)),
        ((a, ab), 0.6 * 0.7, ((a, 0.6 * 0.7 * 0.6 / 0.6),)),
        ((ab, a), 0.4 * 0.3, ((a, 0.4 * 0.3 * 0.3 / 0.3),)),
    ]
    assert out.combined.mass(a) == pytest.approx(0.72)
    assert out.combined.mass(ab) == pytest.approx(0.28)


def test_a_weightless_two_operand_conflict_goes_whole_to_the_union(shafer2):
    # The operands weigh 1e-13 each, so their weights sum to no more than the
    # zero tolerance: the split is refused and the product escalates.
    a, b, ab = shafer2.label("A"), shafer2.label("B"), shafer2.parse("A|B")
    m1 = MassFunction(shafer2, {"A": 1e-13, "A|B": 1 - 1e-13})
    m2 = MassFunction(shafer2, {"B": 1e-13, "A|B": 1 - 1e-13})
    p = 1e-13 * 1e-13
    for out, basis, note in (
        (pcr5(m1, m2), "", "all weights zero; to joint disjunctive form"),
        (pcr3(m1, m2), "", "all columns empty; to joint disjunctive form"),
        (uft_combine((m1, m2), ScenarioConfig.for_case("1.2.1")), "case 1.2.1",
         "operands weightless; escalated"),
    ):
        assert out.conflict.partials == (((a, b), p, ((ab, p),), basis, note),), out.rule
        assert out.conflict.k12 == p


def test_pair_attitudes_route_specific_pairs():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.5, "C": 0.5})
    m2 = MassFunction(f, {"B": 1.0})
    cfg = ScenarioConfig(pair_attitudes={
        frozenset((f.label("A"), f.label("B"))): Attitude("right", right=f.label("A")),
    })
    out = uft_combine((m1, m2), cfg)
    # The declared pair goes to A; the undeclared empty pair defaults
    # to the union of its operands.
    assert out.combined.mass(f.label("A")) == pytest.approx(0.5)
    assert out.combined.mass(f.parse("B|C")) == pytest.approx(0.5)
    assert out.combined.total == pytest.approx(1.0)


def test_pair_attitude_applies_to_uncontested_pair(shafer2):
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"A|B": 1.0})
    cfg = ScenarioConfig(pair_attitudes={
        frozenset((shafer2.label("A"), shafer2.parse("A|B"))): Attitude("union"),
    })
    out = uft_combine((m1, m2), cfg)
    assert out.combined.mass(shafer2.ignorance()) == pytest.approx(1.0)


def test_attitude_frame_validation(shafer2, free4):
    m1 = MassFunction(shafer2, {"A": 1.0})
    m2 = MassFunction(shafer2, {"B": 1.0})
    foreign = ScenarioConfig(default_attitude=Attitude("right", right=free4.label("A")))
    with pytest.raises(FrameMismatchError):
        uft_combine((m1, m2), foreign)
    bad_recipient = ScenarioConfig(
        default_attitude=Attitude("both-wrong", recipients=(shafer2.empty(),))
    )
    with pytest.raises(ValueError):
        uft_combine((m1, m2), bad_recipient)
    not_an_attitude = ScenarioConfig(pair_attitudes={
        frozenset((shafer2.label("A"), shafer2.label("B"))): "union",
    })
    with pytest.raises(TypeError):
        uft_combine((m1, m2), not_an_attitude)


def test_routing_conserves_mass(scenario_sources):
    for case in ("1.1.1", "1.2.1", "1.2.2", "1.2.5.1", "1.3"):
        out = uft_combine(scenario_sources, ScenarioConfig.for_case(case))
        assert out.combined.total == pytest.approx(1.0, abs=1e-12), case
        for p in out.conflict.partials:
            assert sum(v for _, v in p.shares) == pytest.approx(p.mass, abs=1e-12)


# -- dynamic model updates --------------------------------------------------

def test_dynamic_update_without_change_is_identity(shafer2):
    m = MassFunction(shafer2, {"A": 1.0})
    assert dynamic_update(m, []) is m


def test_dynamic_update_reruns_sources():
    f = Frame(("A", "B"))
    m1 = MassFunction(f, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(f, {"B": 0.3, "A|B": 0.7})
    first = conjunctive(m1, m2)
    assert first.combined.mass(f.parse("A&B")) == pytest.approx(0.18)
    updated = dynamic_update(first, ["A&B"], transfer_rule="dsmh")
    nf = updated.combined.frame
    assert nf.is_shafer
    assert updated.combined.mass(nf.label("A")) == pytest.approx(0.42)
    assert updated.combined.mass(nf.label("B")) == pytest.approx(0.12)
    assert updated.combined.mass(nf.parse("A|B")) == pytest.approx(0.46)
    assert updated.combined.total == pytest.approx(1.0, abs=1e-12)
    assert len(updated.sources) == 2


def test_dynamic_update_of_bare_bba():
    f = Frame(("A", "B"))
    m = MassFunction(f, {"A&B": 0.5, "A": 0.5})
    updated = dynamic_update(m, ["A&B"], transfer_rule="dsmh")
    nf = updated.combined.frame
    assert updated.combined.mass(nf.label("A")) == pytest.approx(0.5)
    assert updated.combined.mass(nf.parse("A|B")) == pytest.approx(0.5)


def test_dynamic_update_of_bare_bba_routes_by_the_display_expression():
    # The xor landing A&~B carries no expression of its own, so dsmh routes
    # it, once emptied, by its display's disjunctive form: A|C.
    f = Frame(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(f, {"B": 0.5, "A|C": 0.5})
    combined = exclusive_disjunctive(m1, m2).combined
    assert combined.mass(f.parse("A&~B")) == pytest.approx(0.2)
    updated = dynamic_update(combined, ["A&~B"], "dsmh")
    nf = updated.combined.frame
    rows = sorted((el.display, v) for el, v in updated.combined.items())
    assert [text for text, _ in rows] == ["A|C", "~(A|B&C)", "~A&B", "~B|~A&C"]
    assert [v for _, v in rows] == pytest.approx([0.2, 0.2, 0.3, 0.3])
    assert updated.combined.mass(nf.parse("A|C")) == pytest.approx(0.2)
    assert updated.combined.mass(nf.parse("B|C")) == 0.0


def test_dynamic_update_surfaces_leftover_empty_mass():
    f = Frame(("A", "B"))
    m1 = MassFunction(f, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(f, {"B": 0.3, "A|B": 0.7})
    first = conjunctive(m1, m2)
    updated = dynamic_update(first, ["A&B"], transfer_rule="conjunctive")
    assert updated.combined.mass(updated.combined.frame.empty()) == pytest.approx(0.18)
    assert updated.warnings == ("open-world mass on the empty set: 0.180000",)


def test_dynamic_update_checks_the_transfer_rule_call():
    f = Frame(("A", "B"))
    sources = [MassFunction(f, {"A": 0.6, "A|B": 0.4}), MassFunction(f, {"B": 0.3, "A|B": 0.7}),
               MassFunction(f, {"A": 0.5, "B": 0.5})]
    state = dsm_hybrid(*sources)
    with pytest.raises(RuleError, match="'zhang-product' takes at most 2 sources, got 3"):
        dynamic_update(state, ["A&B"], transfer_rule="zhang-product")
    with pytest.raises(RuleError, match="'wo' needs parameter 'weights'"):
        dynamic_update(state, ["A&B"], transfer_rule="wo")
    with pytest.raises(RuleError, match="'consensus' does not give a mass function"):
        dynamic_update(state, ["A&B"], transfer_rule="consensus", focus="A")


def test_dynamic_update_rejects_other_types():
    with pytest.raises(TypeError):
        dynamic_update({"A": 1.0}, ["A"])


def test_dynamic_update_refuses_interval_states():
    problem = parse_problem("frame-intervals:\nsource m1: [2,5]=0.6, [1,3]=0.4\n"
                            "source m2: [1,3]=1\n")
    m = problem.sources[0][1]
    for state in (m, FusionResult(m, ConflictReport(0.0), sources=(m,))):
        with pytest.raises(RuleError, match="^a model update needs a label frame, not intervals$"):
            dynamic_update(state, [])


# -- quasi-associative combining -------------------------------------------

@pytest.fixture
def stream(shafer2):
    m1 = MassFunction(shafer2, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(shafer2, {"B": 0.3, "A|B": 0.7})
    m3 = MassFunction(shafer2, {"A": 0.5, "B": 0.2, "A|B": 0.3})
    return m1, m2, m3


def test_state_tracks_running_product(stream, shafer2):
    m1, m2, m3 = stream
    state = QuasiAssociativeState.start(m1).append(m2).append(m3)
    assert state.sources == (m1, m2, m3)
    ref = conjunctive(m1, m2, m3).combined
    assert oracles.delta(oracles.plain(state.product), oracles.plain(ref)) < 1e-12
    other = MassFunction(Frame(("A", "B")), {"A": 1.0})
    with pytest.raises(FrameMismatchError):
        state.append(other)


def test_store_state_is_a_hashable_value(stream):
    m1, m2, m3 = stream
    copies = [MassFunction(m.frame, dict(m.items())) for m in stream]
    a = QuasiAssociativeState.start(m1).append(m2)
    b = QuasiAssociativeState.start(copies[0]).append(copies[1])
    assert a == b
    assert hash(a) == hash(b)
    assert a.append(m3) != b.append(copies[0])
    assert QuasiAssociativeState.start(m1).product is m1


def test_vacuous_append_is_noop_on_product(stream, shafer2):
    m1, _, _ = stream
    state = QuasiAssociativeState.start(m1)
    grown = state.append(MassFunction.vacuous(shafer2))
    assert grown.product == state.product
    assert len(grown.sources) == 2


def test_recomputed_rules_never_build_the_stored_product(stream, monkeypatch):
    m1, m2, m3 = stream
    calls = []
    push = uft_module._push
    monkeypatch.setattr(uft_module, "_push", lambda *a: calls.append(a) or push(*a))
    state = QuasiAssociativeState.start(m1)
    for m in (m2, m3):
        state, _ = quasi_associative_combine(state, m, "pcr5")
    assert calls == []
    # A stored rule on the same state pushes the product on left to right,
    # one push per source after the first, as a stream of that rule alone
    # does, to the same floats.
    _, late = quasi_associative_combine(state, m1, "dempster")
    assert len(calls) == 3
    assert state.product == conjunctive(conjunctive(m1, m2).combined, m3).combined
    eager = m1
    for m in (m2, m3, m1):
        eager, on_time = quasi_associative_combine(eager, m, "dempster")
    assert late.combined == on_time.combined
    assert late.conflict == on_time.conflict


@pytest.mark.parametrize("rule", ["pcr4", "pcr5", "minc-a", "minc-b"])
def test_a_fold_stream_takes_one_binary_step_per_source(stream, monkeypatch, rule):
    m1, m2, m3 = stream
    steps = []
    split_each = pcr_module._split_each
    monkeypatch.setattr(pcr_module, "_split_each", lambda ledger, *a: (
        steps.append(len(ledger.sources)) or split_each(ledger, *a)))
    state = m1
    for m in (m2, m3, m1, m2):
        state, _ = quasi_associative_combine(state, m, rule)
    assert steps == [2, 2, 2, 2]


def test_a_fold_resumes_only_its_own_rules_fold_over_every_source_since(stream):
    m1, m2, m3 = stream
    # pcr5 keeps its fold of two sources through a dempster step and a bare
    # append, then takes the two steps since.
    state, _ = quasi_associative_combine(m1, m2, "pcr5")
    state, _ = quasi_associative_combine(state, m3, "dempster")
    _, got = quasi_associative_combine(state.append(m1), m2, "pcr5")
    assert got == pcr5(m1, m2, m3, m1, m2)
    # pcr4 does not resume pcr5's fold.
    state, _ = quasi_associative_combine(m1, m2, "pcr5")
    _, got = quasi_associative_combine(state, m3, "pcr4")
    assert got == pcr4(m1, m2, m3)


def test_a_stored_product_whose_conflicts_underflow_books_none(shafer2):
    # Every empty-set product, and every product through two masses of
    # 1e-200, weighs 1e-400, which rounds to 0.0: the walk skips them, so
    # the stored product holds neither mass 0 on the empty set nor any
    # landing of mass 0.
    m1 = MassFunction(shafer2, {"A": 1e-200, "A|B": 1.0})
    m2 = MassFunction(shafer2, {"B": 1e-200, "A|B": 1.0})
    m3 = MassFunction(shafer2, {"A": 1e-200, "A|B": 1.0})
    for rule, transfer in uft_module._STORE_RULES.items():
        if transfer is None:
            continue
        params = {"wo": {"weights": {"A|B": 1.0}}, "inagaki": {"p": 0.5}}.get(rule, {})
        state = m1
        for m in (m2, m3):
            state, res = quasi_associative_combine(state, m, rule, **params)
            assert res.conflict.k12 == 0.0, rule
            assert res.conflict.partials == (), rule
            assert all(v > 0.0 for _, v in res.combined.items()), rule
    a, b, ab = (shafer2.parse(text).mask for text in ("A", "B", "A|B"))
    assert list(state._table().items()) == [(a, 2e-200), (b, 1e-200), (ab, 1.0)]


@pytest.mark.parametrize("rule,direct,params", [
    ("dempster", dempster, {}),
    ("yager", yager, {}),
    ("smets", smets_tbm, {}),
    ("conjunctive", conjunctive, {}),
    ("pcr1", pcr1, {}),
    ("wao", wao, {}),
])
def test_incremental_equals_direct(stream, rule, direct, params):
    m1, m2, m3 = stream
    state, _ = quasi_associative_combine(m1, m2, rule=rule, **params)
    state, res = quasi_associative_combine(state, m3, rule=rule, **params)
    ref = direct(m1, m2, m3)
    assert oracles.delta(oracles.plain(res.combined), oracles.plain(ref.combined)) < 1e-12
    assert res.conflict.k12 == pytest.approx(ref.conflict.k12, abs=1e-12)


def test_incremental_with_parameters(stream, shafer2):
    m1, m2, m3 = stream
    weights = {"A": 0.5, "B": 0.25, "A|B": 0.25}
    state, _ = quasi_associative_combine(m1, m2, rule="wo", weights=weights)
    _, res = quasi_associative_combine(state, m3, rule="wo", weights=weights)
    ref = weighted_operator(m1, m2, m3, weights=weights)
    assert oracles.delta(oracles.plain(res.combined), oracles.plain(ref.combined)) < 1e-12

    state, _ = quasi_associative_combine(m1, m2, rule="inagaki", p=0.5)
    _, res = quasi_associative_combine(state, m3, rule="inagaki", p=0.5)
    ref = inagaki(m1, m2, m3, p=0.5)
    assert oracles.delta(oracles.plain(res.combined), oracles.plain(ref.combined)) < 1e-12


def test_incremental_recompute_rules(stream):
    m1, m2, m3 = stream
    state, _ = quasi_associative_combine(m1, m2, rule="pcr5")
    state, res = quasi_associative_combine(state, m3, rule="pcr5")
    ref = pcr5(m1, m2, m3)
    assert oracles.delta(oracles.plain(res.combined), oracles.plain(ref.combined)) < 1e-12
    assert res.warnings == ref.warnings

    state, _ = quasi_associative_combine(m1, m2, rule="dubois-prade")
    _, res = quasi_associative_combine(state, m3, rule="dubois-prade")
    ref = dubois_prade(m1, m2, m3)
    assert oracles.delta(oracles.plain(res.combined), oracles.plain(ref.combined)) < 1e-12


def test_incremental_rejects_non_conjunctive_rules(stream):
    m1, m2, _ = stream
    for rule in ("disjunctive", "murphy", "xavg", "nonesuch"):
        with pytest.raises(RuleError, match="is not conjunctive-based"):
            quasi_associative_combine(m1, m2, rule=rule)


def test_incremental_wo_rejects_weights_out_of_range(stream):
    m1, m2, _ = stream
    weights = {"A": 1.5, "B": -0.5}
    with pytest.raises(ValueError):
        weighted_operator(m1, m2, weights=weights)
    with pytest.raises(ValueError):
        quasi_associative_combine(m1, m2, rule="wo", weights=weights)


def test_incremental_inagaki_at_the_dempster_bound_clamps_ignorance():
    f = Frame.shafer(("A", "B", "C"))
    a = 0.1965240939708931
    b = 0.8271735947062624
    m1 = MassFunction(f, {"A": a, "B": 1.0 - a})
    m2 = MassFunction(f, {"B": b, "C": 1.0 - b})
    k12 = conjunctive(m1, m2).conflict.k12
    p = 1.0 / (1.0 - k12)
    direct = inagaki(m1, m2, p=p)
    _, res = quasi_associative_combine(m1, m2, rule="inagaki", p=p)
    assert direct.combined.mass(f.ignorance()) == 0.0
    assert res.combined.mass(f.ignorance()) == 0.0
    assert oracles.delta(oracles.plain(res.combined), oracles.plain(direct.combined)) < 1e-12


def test_incremental_wao_reports_the_lost_column_weight():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.2, "B": 0.4, "C": 0.2, "A&~A": 0.2})
    m2 = MassFunction(f, {"A": 0.1, "B": 0.3, "C": 0.4, "A|B": 0.2})
    m3 = MassFunction(f, {"A": 0.5, "B|C": 0.5})
    direct = wao(m1, m2, m3)
    state, _ = quasi_associative_combine(m1, m2, rule="wao")
    _, res = quasi_associative_combine(state, m3, rule="wao")
    assert direct.conflict.lost > 0.0
    assert res.conflict.lost == pytest.approx(direct.conflict.lost, abs=1e-12)
    assert res.combined.total + res.conflict.lost == pytest.approx(1.0, abs=1e-12)
    assert res.warnings == direct.warnings


def test_incremental_smets_warns_like_the_direct_rule(stream):
    m1, m2, m3 = stream
    state = m1
    for m in (m2, m3):
        state, res = quasi_associative_combine(state, m, rule="smets")
        direct = smets_tbm(*state.sources)
        assert direct.warnings
        assert res.warnings == direct.warnings


def test_dynamic_update_flags_the_incomplete_total():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.2, "B": 0.4, "C": 0.3, "A|B": 0.1})
    m2 = MassFunction(f, {"A": 0.1, "B": 0.3, "C": 0.4, "A|B": 0.2})
    out = dynamic_update(dubois_prade(m1, m2), ["C"], transfer_rule="dubois-prade")
    assert out.combined.total == pytest.approx(0.88, abs=1e-12)
    assert "incomplete: sum=0.880000" in out.warnings


@pytest.mark.parametrize("rule,params,total", [
    ("inagaki", {"p": 0.5}, 0.678),
    ("wao", {}, 0.675),
])
def test_subnormal_sources_book_the_missing_mass_as_lost(rule, params, total):
    # The sources' totals multiply to 0.72; the transfer hands out less
    # than k12 and the rest must appear as lost, on both paths.
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.5, "B": 0.3})
    m2 = MassFunction(f, {"B": 0.6, "A|B|C": 0.3})
    direct = resolve(rule).combine([m1, m2], params)
    _, stored = quasi_associative_combine(m1, m2, rule=rule, **params)
    for out in (direct, stored):
        assert out.combined.total == pytest.approx(total, abs=1e-12)
        assert out.conflict.lost == pytest.approx(0.72 - total, abs=1e-12)
        assert oracles.audit(out, (m1, m2)) == []
    assert oracles.delta(oracles.plain(stored.combined), oracles.plain(direct.combined)) < 1e-12


# Totals 1.2 and 1.1; then 1.3 and 0.75, a product under one with a mean
# above it, where only wao's column averages (summing to the mean) overshoot.
_SUPERADDITIVE = ({"A": 0.7, "B": 0.5}, {"B": 0.6, "A|B|C": 0.5})
_MEAN_ABOVE_ONE = ({"A": 0.8, "B": 0.5}, {"B": 0.45, "A|B|C": 0.3})


@pytest.mark.parametrize("pair,rule,params,raises", [
    (_SUPERADDITIVE, "inagaki", {"p": 0.5}, True),
    (_SUPERADDITIVE, "wao", {}, True),
    (_MEAN_ABOVE_ONE, "inagaki", {"p": 0.5}, False),
    (_MEAN_ABOVE_ONE, "wao", {}, True),
])
def test_sources_whose_transfer_would_overshoot_k12_raise(pair, rule, params, raises):
    f = Frame.shafer(("A", "B", "C"))
    m1, m2 = (MassFunction(f, masses) for masses in pair)
    runs = (lambda: resolve(rule).combine([m1, m2], params),
            lambda: quasi_associative_combine(m1, m2, rule=rule, **params)[1])
    for run in runs:
        if raises:
            with pytest.raises(RuleError, match="at most 1"):
                run()
        else:
            assert oracles.audit(run(), (m1, m2)) == []


@pytest.mark.parametrize("rule,key", [("wo", "weights"), ("inagaki", "p")])
def test_incremental_missing_parameter_raises_the_registry_error(stream, rule, key):
    m1, m2, _ = stream
    with pytest.raises(RuleError) as expected:
        validate_call(resolve(rule), 2, {})
    with pytest.raises(RuleError) as raised:
        quasi_associative_combine(m1, m2, rule=rule)
    assert str(raised.value) == str(expected.value) == f"rule {rule!r} needs parameter {key!r}"


def test_incremental_yager_prints_like_the_direct_rule():
    f = Frame.shafer(("A", "B", "C")).constrain("C")
    m1 = MassFunction(f, {"A": 0.2, "B": 0.4, "C": 0.3, "A|B": 0.1})
    m2 = MassFunction(f, {"A": 0.1, "B": 0.3, "C": 0.4, "A|B": 0.2})
    _, stored = quasi_associative_combine(m1, m2, rule="yager")
    direct = yager(m1, m2)
    assert [el.display for el in stored.combined] == [el.display for el in direct.combined]
    assert f.ignorance().display in [el.display for el in stored.combined]


def test_non_finite_parameters_fail_where_they_are_checked(stream):
    m1, m2, _ = stream
    runs = (lambda p: inagaki(m1, m2, p=p),
            lambda p: quasi_associative_combine(m1, m2, rule="inagaki", p=p))
    for run in runs:
        with pytest.raises(ValueError, match=r"^p must lie in \[0, [0-9.]+\], got nan$"):
            run(math.nan)
    f = Frame.shafer(("A", "B"))
    total = (MassFunction(f, {"A": 1.0}), MassFunction(f, {"B": 1.0}))
    with pytest.raises(ValueError, match=r"^p must lie in \[0, unbounded\], got inf$"):
        inagaki(*total, p=math.inf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^mixing weights must be finite$"):
            weighted_mixing((m1, m2), (bad, 1.0))
        with pytest.raises(ValueError, match="^mixing weights must be finite$"):
            uft_combine((m1, m2), ScenarioConfig(reliability="statistical", discounts=(1.0, bad)))


def test_malformed_rule_parameters_are_rule_errors(stream):
    m1, m2, _ = stream
    with pytest.raises(RuleError, match="^uft needs a ScenarioConfig, got str$"):
        uft_combine((m1, m2), "x")
    for run in (lambda: weighted_operator(m1, m2, weights=[0.5, 0.5]),
                lambda: quasi_associative_combine(m1, m2, rule="wo", weights=[0.5, 0.5])):
        with pytest.raises(RuleError, match="^wo needs weights as element:weight pairs"):
            run()


class _CountingTable(dict):
    """An empty pair-attitude table that counts every key probe."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.probes += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.probes += 1
        return super().__contains__(key)


def test_an_empty_pair_table_is_never_probed(scenario_sources, shafer2):
    exclusive = (MassFunction(shafer2, {"A": 0.6, "A|B": 0.4}),
                 MassFunction(shafer2, {"B": 0.3, "A|B": 0.7}))
    for sources in (scenario_sources, exclusive):
        for config in (ScenarioConfig(), ScenarioConfig.for_case("1.2.1")):
            table = _CountingTable()
            out = uft_combine(sources, config._replace(pair_attitudes=table))
            assert table.probes == 0
            assert out == uft_combine(sources, config)


def test_a_one_pair_table_resolves_each_product_once():
    f = Frame.shafer(("A", "B", "C"))
    m1 = MassFunction(f, {"A": 0.5, "B": 0.3, "A|B": 0.2})
    m2 = MassFunction(f, {"A": 0.6, "B|C": 0.4})
    pair = frozenset((f.parse("A|B"), f.parse("B|C")))
    for config in (ScenarioConfig(), ScenarioConfig.for_case("1.2.1")):
        table = _CountingTable({pair: Attitude("union")})
        out = uft_combine((m1, m2), config._replace(pair_attitudes=table))
        assert table.probes == 6  # one per product of the 3x2 table
        assert out == uft_combine((m1, m2), config._replace(pair_attitudes=dict(table)))
        claimed, = (q for q in out.conflict.partials if frozenset(q.operands) == pair)
        assert claimed.shares == ((f.parse("A|B|C"), pytest.approx(0.2 * 0.4)),)


def test_the_store_refuses_interval_and_mixed_frame_sources(stream):
    m1, _, _ = stream
    interval = [m for _, m in parse_problem(
        "frame-intervals:\nsource m1: [2,5]=0.6, [1,3]=0.4\nsource m2: [1,3]=1\n").sources]
    for rule in ("dempster", "wo", "pcr5"):
        with pytest.raises(RuleError, match=f"^rule '{rule}' needs a label frame, not intervals$"):
            quasi_associative_combine(*interval, rule=rule)
    # The store refuses an interval source as it is appended.
    with pytest.raises(RuleError, match="^this rule needs a label frame, not intervals$"):
        QuasiAssociativeState.start(interval[0]).append(interval[1])
    other = MassFunction(Frame.shafer(("A", "B", "C")), {"C": 1.0})
    with pytest.raises(FrameMismatchError):
        quasi_associative_combine(m1, other, rule="dempster")
