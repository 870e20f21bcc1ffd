"""Conjunctive and disjunctive rule families against brute-force oracles."""

import pytest

import fusekit.frame as frame_module
from fusekit.frame import Reductions

from fusekit import (
    Frame,
    FrameMismatchError,
    FusionResult,
    MassFunction,
    RuleError,
    TotalConflictError,
    conditional,
    conjunctive,
    dempster,
    disjunctive,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    exclusive_disjunctive,
    inagaki,
    minc,
    mixed,
    murphy_average,
    smets_tbm,
    weighted_mixing,
    weighted_operator,
    yager,
)

import oracles


@pytest.fixture
def shafer3():
    return Frame.shafer(("A", "B", "C"))


@pytest.fixture
def pair(shafer3):
    m1 = MassFunction(shafer3, {"A": 0.5, "B|C": 0.1, "A|B|C": 0.4})
    m2 = MassFunction(shafer3, {"A": 0.7, "B|C": 0.2, "A|B|C": 0.1})
    return m1, m2


def test_conjunctive_matches_oracle(pair):
    m1, m2 = pair
    out = conjunctive(m1, m2)
    expected = oracles.conjunctive(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    assert out.conflict.k12 == pytest.approx(
        expected.get(oracles.EMPTY, 0.0), abs=1e-12
    )
    assert out.combined.total == pytest.approx(1.0)


def test_conjunctive_pools_conflict_on_one_empty_row(pair):
    out = conjunctive(*pair)
    frame = pair[0].frame
    empties = [el for el in out.combined if el.is_empty]
    assert empties == [frame.empty()]


def test_dsm_classic_free_model_has_no_conflict():
    f = Frame.free(("A", "B"))
    m1 = MassFunction(f, {"A": 0.6, "B": 0.4})
    m2 = MassFunction(f, {"A": 0.1, "B": 0.9})
    out = dsm_classic(m1, m2)
    assert out.conflict.k12 == 0.0
    assert out.combined.mass(f.parse("A&B")) == pytest.approx(0.58)
    assert out.rule == "dsmc"


def test_smets_keeps_conflict_open_world(pair):
    out = smets_tbm(*pair)
    frame = pair[0].frame
    assert out.combined.mass(frame.empty()) == pytest.approx(out.conflict.k12)
    assert any("open-world" in w for w in out.warnings)


def test_dempster_matches_oracle(pair):
    m1, m2 = pair
    out = dempster(m1, m2)
    expected = oracles.dempster(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    assert out.combined.total == pytest.approx(1.0, abs=1e-12)


def test_dempster_total_conflict_raises(shafer3):
    m1 = MassFunction(shafer3, {"A": 1.0})
    m2 = MassFunction(shafer3, {"B": 1.0})
    with pytest.raises(TotalConflictError) as err:
        dempster(m1, m2)
    assert "total conflict: k12=1" in str(err.value)


def test_dempster_normalizes_subnormal_sources(shafer3):
    # Mass parked on the empty element is divided out with the conflict.
    m1 = MassFunction(shafer3, {"A": 0.8, "A&B": 0.2})
    m2 = MassFunction(shafer3, {"A": 1.0})
    out = dempster(m1, m2)
    assert out.combined.mass(shafer3.label("A")) == pytest.approx(1.0)


def test_yager_matches_oracle(pair):
    m1, m2 = pair
    out = yager(m1, m2)
    ignorance = frozenset(m1.frame.ignorance().atoms)
    expected = oracles.yager(oracles.plain(m1), oracles.plain(m2), ignorance)
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12


def test_yager_needs_nonempty_ignorance():
    free = Frame.free(("A", "B"))
    dead = free.constrain(free.parse("A|B"))
    m = MassFunction(dead, {dead.empty(): 1.0})
    with pytest.raises(RuleError):
        yager(m, m)


def test_dubois_prade_matches_oracle(pair):
    m1, m2 = pair
    out = dubois_prade(m1, m2)
    expected = oracles.dubois_prade(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    assert out.conflict.lost == 0.0


def test_dubois_prade_vacuous_operand_is_exonerated(shafer3):
    # A three-way conflict with a vacuous operand must land on the union
    # of the two real culprits, not on total ignorance.
    m1 = MassFunction(shafer3, {"A": 1.0})
    m2 = MassFunction(shafer3, {"B": 1.0})
    vac = MassFunction.vacuous(shafer3)
    out = dubois_prade(m1, m2, vac)
    assert out.combined.mass(shafer3.parse("A|B")) == pytest.approx(1.0)


def test_dsm_hybrid_sends_conflict_to_disjunctive_form(shafer3):
    m1 = MassFunction(shafer3, {"A": 1.0})
    m2 = MassFunction(shafer3, {"B": 1.0})
    out = dsm_hybrid(m1, m2)
    assert out.combined.mass(shafer3.parse("A|B")) == pytest.approx(1.0)
    assert out.conflict.k12 == pytest.approx(1.0)


def test_dsm_hybrid_empty_operands_use_joint_disjunctive():
    free = Frame.free(("A", "B"))
    tight = free.constrain(free.parse("A&B"))
    # Both sources put mass on the now-dead region A&B.
    m = MassFunction(free, {"A&B": 1.0}).on_frame(tight)
    out = dsm_hybrid(m, m)
    assert out.combined.mass(tight.parse("A|B")) == pytest.approx(1.0)


def test_dsm_hybrid_routes_by_operand_expression_not_by_element():
    # On a Shafer frame A&B and C&D are one empty element, but their
    # disjunctive forms differ, and each conflict takes its own operands'.
    f = Frame.shafer(tuple("ABCD"))
    m1 = MassFunction(f, {"A&B": 0.5, "C": 0.5})
    m2 = MassFunction(f, {"C&D": 0.5, "A": 0.5})
    out = dsm_hybrid(m1, m2)
    assert {el.display: v for el, v in out.combined.items()} == pytest.approx(
        {"A|B": 0.25, "A|B|C|D": 0.25, "A|C": 0.25, "C|D": 0.25}, abs=1e-15)


def test_dsm_hybrid_routes_each_product_by_its_own_first_seen_parts():
    # With B&D and C&D empty, D and ~(~D|C) are one atom set with the
    # disjunctive forms D and A|D. Both products below hold the atom sets
    # of C and D; each takes the form its own operands give.
    f = Frame(tuple("ABCD")).constrain("B&D", "C&D")
    m1 = MassFunction(f, {"C": 0.5, "~(~D|C)": 0.5})
    m2 = MassFunction(f, {"D": 0.5, "C": 0.5})
    routes = [([el.display for el in p.operands], p.shares[0][0].display)
              for p in dsm_hybrid(m1, m2).conflict.partials]
    assert routes == [(["C", "D"], "C|D"), (["D", "C"], "A|C|D")]


def test_dsm_hybrid_routes_an_ambiguous_minimal_part_by_each_products_operands():
    # D and ~(~D|C) are one atom set with the forms D and A|D, and the
    # third source adds a part above both. Every product below holds that
    # atom set among its minimal parts, so each is reduced afresh and
    # takes the form its own operands give first.
    f = Frame(tuple("ABCD")).constrain("B&D", "C&D")
    m1 = MassFunction(f, {"C": 0.5, "~(~D|C)": 0.5})
    m2 = MassFunction(f, {"D": 0.5, "C": 0.5})
    m3 = MassFunction(f, {"A|C|D": 1.0})
    routes = [([el.display for el in p.operands], p.shares[0][0].display)
              for p in dsm_hybrid(m1, m2, m3).conflict.partials]
    assert routes == [(["C", "D", "A|C|D"], "C|D"), (["D", "C", "A|C|D"], "A|C|D")]


def test_dsm_hybrid_sends_a_product_of_empty_operands_on_three_sources_to_their_joint_form():
    # Every operand is empty, so the product takes the union of their own
    # disjunctive forms, A|B|C|D, not the form of its reduced
    # intersection, A|B, where A|C and B|D are absorbed.
    f = Frame.shafer(tuple("ABCD"))
    m1, m2, m3 = (MassFunction(f, {t: 1.0}) for t in ("A&B&(A|C)", "A&B", "A&B&(B|D)"))
    (partial,) = dsm_hybrid(m1, m2, m3).conflict.partials
    assert partial.note == "operands empty; to joint disjunctive form"
    assert partial.shares[0][0] == f.parse("A|B|C|D")


def test_each_operand_expression_is_reduced_once_per_call(monkeypatch):
    f = Frame.shafer(tuple("ABCDEF"))
    texts = ("A|B", "A&B|C", "(A|B)&(B|C)", "C|D|E", "E&F", "D", "(A|E)&(E|F)", "B|F")
    sources = [MassFunction(f, {t: 1.0 for t in (texts * 2)[i:i + 6]}).normalize()
               for i in (0, 1, 2)]
    calls, depth = [], []
    reduce = frame_module._canonical_expr

    def outermost(frame, expr):
        # The reduction recurses through the module name: count only the
        # calls the rules make.
        if not depth:
            calls.append(expr)
        depth.append(expr)
        try:
            return reduce(frame, expr)
        finally:
            depth.pop()

    monkeypatch.setattr(frame_module, "_canonical_expr", outermost)
    operands = {el.expr for m in sources for el in m}
    for combine in (dsm_hybrid, lambda *s: minc(*s[:2], version="a"),
                    lambda *s: minc(*s[:2], version="b")):
        calls.clear()
        out = combine(*sources)
        assert len(out.conflict.partials) > 2 * len(calls) > 0, len(calls)
        assert len(calls) == len(set(calls))
        assert set(calls) <= operands


def _form(reductions, els):
    """dsmh's route of a product: the operands' keys ORed, then their form."""
    key = reductions.keys(els)
    return reductions.form(frame_module.fold("or", map(key, els)), els)


def test_reductions_hold_each_operand_they_find_by_identity():
    # Operands are found by id() first. Once the temporary operand is
    # dropped, CPython hands its memory, and so its id, to the next
    # element of the same size, so a memo that did not hold its operands
    # would route the fresh elements as the dropped one.
    f = Frame.shafer(tuple("ABCD"))
    exprs = [f.parse(t).expr for t in ("A|B", "B&C", "C|D", "(A|B)&(C|D)", "A&D", "D", "B|C|D")]
    other = f.parse("B&D")
    routes = (lambda r, els: _form(r, els).mask,
              lambda r, els: r.joint_disjunctive(els).mask,
              lambda r, els: [part.element.expr for part in r.parts(els)])
    reductions = Reductions(f)
    temporary = frame_module.Element(f, f.eval_mask(exprs[0]), exprs[0])
    _form(reductions, (temporary, other))
    del temporary
    for expr in exprs[1:] * 4:
        for route in routes:
            el = frame_module.Element(f, f.eval_mask(expr), expr)
            assert route(reductions, (el, other)) == route(Reductions(f), (el, other)), expr
            del el


def test_dsm_hybrid_falls_back_to_ignorance_when_the_disjunctive_form_is_empty():
    f = Frame(("A", "B", "C")).constrain("A")
    m1 = MassFunction(f, {"A": 0.5, "B": 0.5})
    m2 = MassFunction(f, {"B": 0.3, "C": 0.7})
    out = dsm_hybrid(m1, m2)
    notes = [p.note for p in out.conflict.partials]
    assert len(notes) == 2
    assert all(note.endswith("; fell back to ignorance") for note in notes)
    assert out.combined.mass(f.parse("A|B|C")) == pytest.approx(0.5, abs=1e-12)


def test_dsm_hybrid_on_a_fully_degenerate_model_leaves_mass_on_the_empty_set():
    f = Frame(("A", "B")).constrain("A", "B")
    out = dsm_hybrid(MassFunction(f, {"A": 1.0}), MassFunction(f, {"B": 1.0}))
    assert [p.note for p in out.conflict.partials] == ["model fully degenerate"]
    assert out.warnings == ("open-world mass on the empty set: 1.000000",)


def test_disjunctive_matches_oracle(pair):
    m1, m2 = pair
    out = disjunctive(m1, m2)
    expected = oracles.disjunctive(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    assert out.conflict.k12 == 0.0


def test_exclusive_disjunctive_matches_oracle(shafer3):
    m1 = MassFunction(shafer3, {"A": 0.5, "A|B": 0.5})
    m2 = MassFunction(shafer3, {"A|B": 0.6, "C": 0.4})
    out = exclusive_disjunctive(m1, m2)
    expected = oracles.xor(oracles.plain(m1), oracles.plain(m2))
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
    # (A|B) xor (A|B) is degenerate and stays on the empty set.
    assert out.combined.mass(shafer3.empty()) == pytest.approx(0.3)


def test_weighted_operator_recovers_smets_and_yager(pair):
    m1, m2 = pair
    frame = m1.frame
    wo_smets = weighted_operator(m1, m2, weights={frame.empty(): 1.0})
    assert wo_smets.combined == smets_tbm(m1, m2).combined
    wo_yager = weighted_operator(m1, m2, weights={frame.ignorance(): 1.0})
    assert wo_yager.combined == yager(m1, m2).combined


def test_weighted_operator_general_split(pair):
    m1, m2 = pair
    frame = m1.frame
    out = weighted_operator(m1, m2, weights={"A": 0.25, "B|C": 0.75})
    k12 = conjunctive(m1, m2).conflict.k12
    base = conjunctive(m1, m2).combined
    assert out.combined.mass(frame.label("A")) == pytest.approx(
        base.mass(frame.label("A")) + 0.25 * k12
    )
    assert out.combined.total == pytest.approx(1.0)


def test_weighted_operator_lands_each_weight_on_its_display():
    # A weight written otherwise than its display lands on the ledger's
    # element for its mask, so the result's key reads as it displays.
    f = Frame.shafer(("A", "B", "C"))
    out = weighted_operator(MassFunction(f, {"A": 1.0}), MassFunction(f, {"B": 1.0}),
                            weights={"C|B&~A": 1})
    (el, v), = out.combined.items()
    assert (el.display, el.text, v) == ("B|C", "B|C", 1.0)


def test_weighted_operator_validates_weights(pair):
    m1, m2 = pair
    with pytest.raises(ValueError):
        weighted_operator(m1, m2, weights={"A": 0.4})
    with pytest.raises(ValueError):
        weighted_operator(m1, m2, weights={"A": 1.4, "B": -0.4})


def test_weighted_operator_refuses_a_weight_element_of_another_frame(pair):
    m1, m2 = pair
    other = Frame.shafer(("A", "B"))
    with pytest.raises(FrameMismatchError, match="^weight element from another frame$"):
        weighted_operator(m1, m2, weights={other.ignorance(): 1.0})


def test_inagaki_endpoints(pair):
    m1, m2 = pair
    # p = 0 is Yager's rule.
    assert inagaki(m1, m2, p=0.0).combined == yager(m1, m2).combined
    # With nothing landing on ignorance, p = 1/(1-k12) is Dempster's.
    f = pair[0].frame
    n1 = MassFunction(f, {"A": 0.6, "B": 0.4})
    n2 = MassFunction(f, {"A": 0.5, "C": 0.5})
    k12 = conjunctive(n1, n2).conflict.k12
    out = inagaki(n1, n2, p=1.0 / (1.0 - k12))
    ref = dempster(n1, n2)
    assert oracles.delta(
        oracles.plain(out.combined), oracles.plain(ref.combined)
    ) < 1e-12


def test_inagaki_rejects_out_of_range_p(pair):
    m1, m2 = pair
    with pytest.raises(ValueError):
        inagaki(m1, m2, p=-0.5)
    k12 = conjunctive(m1, m2).conflict.k12
    m_ign = conjunctive(m1, m2).combined.mass(m1.frame.ignorance())
    bound = 1.0 / (1.0 - k12 - m_ign)
    with pytest.raises(ValueError):
        inagaki(m1, m2, p=bound * 1.01)


def test_inagaki_conserves_mass(pair):
    out = inagaki(*pair, p=0.7)
    assert out.combined.total == pytest.approx(1.0, abs=1e-12)


def test_mixed_connective_tree(shafer3):
    f = shafer3
    m1 = MassFunction(f, {"A": 0.6, "A|B": 0.4})
    m2 = MassFunction(f, {"A": 0.5, "B": 0.5})
    m3 = MassFunction(f, {"A|B|C": 1.0})
    out = mixed((m1, m2, m3), "(1&2)|3")
    # (X1 & X2) | I is I for every product, so everything lands there.
    assert out.combined.mass(f.ignorance()) == pytest.approx(1.0)
    out2 = mixed((m1, m2, m3), "(1&2)&3")
    base = conjunctive(m1, m2, m3)
    assert out2.combined == base.combined


def test_mixed_requires_each_source_once(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    with pytest.raises(ValueError):
        mixed((m, m), "1&1")
    with pytest.raises(ValueError):
        mixed((m, m, m), "1&2")
    with pytest.raises(ValueError):
        mixed((m, m), "1&~2")


def test_conditional_is_dempster_conditioning(shafer3):
    f = shafer3
    m = MassFunction(f, {"A": 0.3, "B": 0.3, "A|B|C": 0.4})
    out = conditional(m, f.parse("A|B"), rule="dempster")
    # Certainty in A|B annuls nothing here except the C-slice of I.
    assert out.combined.mass(f.label("A")) == pytest.approx(0.3)
    assert out.combined.mass(f.parse("A|B")) == pytest.approx(0.4)
    assert out.rule == "conditional[dempster]"
    with pytest.raises(ValueError):
        conditional(m, f.empty())


def test_conditioning_on_a_hypothesis_of_another_frame_is_refused(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    with pytest.raises(FrameMismatchError, match="^hypothesis from another frame$"):
        conditional(m, Frame.shafer(("A", "B")).label("A"))


def test_murphy_average_is_elementwise(shafer3):
    m1 = MassFunction(shafer3, {"A": 0.2, "B": 0.4, "C": 0.3, "A|B": 0.1})
    m2 = MassFunction(shafer3, {"A": 0.1, "B": 0.3, "C": 0.4, "A|B": 0.2})
    out = murphy_average(m1, m2)
    assert isinstance(out, FusionResult)
    avg = out.combined
    assert avg.mass(shafer3.label("A")) == pytest.approx(0.15)
    assert avg.mass(shafer3.parse("A|B")) == pytest.approx(0.15)
    assert avg.total == pytest.approx(1.0)


def test_weighted_mixing(shafer3):
    m1 = MassFunction(shafer3, {"A": 1.0})
    m2 = MassFunction(shafer3, {"B": 1.0})
    out = weighted_mixing((m1, m2), (3.0, 1.0))
    assert out.combined.mass(shafer3.label("A")) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        weighted_mixing((m1, m2), (1.0,))
    with pytest.raises(ValueError):
        weighted_mixing((m1, m2), (0.0, 0.0))
    with pytest.raises(ValueError):
        weighted_mixing((m1, m2), (1.0, -1.0))


def test_a_source_of_zero_weight_adds_no_mass(shafer3):
    m1 = MassFunction(shafer3, {"A": 0.5, "B|C": 0.5})
    m2 = MassFunction(shafer3, {"B": 1.0})
    out = weighted_mixing((m2, m1), (0.0, 2.0))
    assert out.combined == m1


def test_rules_reject_single_source(shafer3):
    m = MassFunction(shafer3, {"A": 1.0})
    with pytest.raises(ValueError):
        conjunctive(m)


def test_rules_reject_mixed_frames(shafer3):
    other = Frame.shafer(("A", "B"))
    with pytest.raises(Exception):
        conjunctive(MassFunction(shafer3, {"A": 1.0}),
                    MassFunction(other, {"A": 1.0}))


def test_three_source_conjunctive_matches_folded_oracle(shafer3):
    f = shafer3
    m1 = MassFunction(f, {"A": 0.5, "A|B": 0.5})
    m2 = MassFunction(f, {"B": 0.3, "A|B|C": 0.7})
    m3 = MassFunction(f, {"A": 0.2, "C": 0.8})
    out = conjunctive(m1, m2, m3)
    expected = oracles.conjunctive(
        oracles.conjunctive(oracles.plain(m1), oracles.plain(m2)),
        oracles.plain(m3),
    )
    assert oracles.delta(oracles.plain(out.combined), expected) < 1e-12
