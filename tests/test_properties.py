"""Randomized invariants: commutativity, conservation, neutrality, axioms."""

import functools
import itertools
import math
import operator

import pytest
from hypothesis import assume, given, settings, strategies as st

from fusekit import (
    Frame,
    MassFunction,
    NotASubsetError,
    ProblemFile,
    QuasiAssociativeState,
    RuleError,
    ScenarioConfig,
    TotalConflictError,
    UndefinedDegreeError,
    cautious_commonality_min,
    conjunctive,
    degree_inclusion,
    degree_intersection,
    degree_union,
    dempster,
    disjunctive,
    dsm_classic,
    dsm_hybrid,
    dubois_prade,
    exclusive_disjunctive,
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
from fusekit.classic import Ledger
from fusekit.cli import build_table
from fusekit.frame import parse_expression_text, render_expression
from fusekit.golden import GOLDEN_CASES, Outcome
from fusekit.registry import resolve, run, selectors
from fusekit.special import _IMPROVED_BASES, TCONORMS, TNORMS
from fusekit.uft import CASE_TO_KIND

import oracles

FRAMES = (
    Frame(("A", "B")),
    Frame.shafer(("A", "B")),
    Frame(("A", "B", "C")),
    Frame.shafer(("A", "B", "C")),
)
ELEMENTS = {
    i: [el for el in f.superpower_set() if not el.is_empty]
    for i, f in enumerate(FRAMES)
}
SHAFER_IDS = (1, 3)


@st.composite
def bba_on(draw, frame_id):
    frame = FRAMES[frame_id]
    els = draw(st.lists(
        st.sampled_from(ELEMENTS[frame_id]), min_size=1, max_size=4, unique=True,
    ))
    weights = draw(st.lists(
        st.integers(min_value=1, max_value=100),
        min_size=len(els), max_size=len(els),
    ))
    total = sum(weights)
    return MassFunction(frame, {el: w / total for el, w in zip(els, weights)})


@st.composite
def bba_pair(draw, frame_ids=tuple(range(len(FRAMES)))):
    fid = draw(st.sampled_from(frame_ids))
    return draw(bba_on(fid)), draw(bba_on(fid))


@st.composite
def bayesian_pair(draw):
    fid = draw(st.sampled_from(SHAFER_IDS))
    frame = FRAMES[fid]
    singles = [frame.label(nm) for nm in frame.names]

    def one():
        weights = draw(st.lists(
            st.integers(min_value=0, max_value=100),
            min_size=len(singles), max_size=len(singles),
        ))
        assume(sum(weights) > 0)
        t = sum(weights)
        return MassFunction(frame, {el: w / t for el, w in zip(singles, weights)})

    return one(), one()


_COMMUTING = (
    conjunctive, disjunctive, exclusive_disjunctive, dsm_classic, smets_tbm,
    dempster, yager, dubois_prade, dsm_hybrid, murphy_average, wao,
    pcr1, pcr2, pcr3, pcr4, pcr5,
    lambda a, b: minc(a, b, version="a"),
    lambda a, b: minc(a, b, version="b"),
)


@given(bba_pair())
def test_binary_rules_commute(pair):
    m1, m2 = pair
    for fn in _COMMUTING:
        try:
            left = fn(m1, m2).combined
            right = fn(m2, m1).combined
        except (TotalConflictError, RuleError):
            continue
        assert oracles.delta(oracles.plain(left), oracles.plain(right)) < 1e-12


@given(bba_pair(frame_ids=SHAFER_IDS))
def test_normalizing_rules_commute(pair):
    m1, m2 = pair
    fns = [
        lambda a, b: zhang_center(a, b, degree="product"),
        lambda a, b: zhang_center(a, b, degree="union"),
        cautious_commonality_min,
    ]
    fns += [lambda a, b, k=k: tnorm_fusion(a, b, kind=k) for k in TNORMS]
    fns += [lambda a, b, k=k: tconorm_fusion(a, b, kind=k) for k in TCONORMS]
    fns += [lambda a, b, s=s: improved_rules(a, b, base=s)
            for s in ("disjunctive", "dsmc", "dp")]
    for fn in fns:
        try:
            left = fn(m1, m2).combined
            right = fn(m2, m1).combined
        except (TotalConflictError, RuleError):
            continue
        assert oracles.delta(oracles.plain(left), oracles.plain(right)) < 1e-12


# Rules that keep or relocate every unit of mass: the combined total
# plus whatever the ledger declares lost must be one.
_CONSERVING = (
    conjunctive, disjunctive, exclusive_disjunctive, dsm_classic, smets_tbm,
    yager, dubois_prade, dsm_hybrid, murphy_average, wao,
    pcr1, pcr2, pcr3, pcr4, pcr5,
    lambda a, b: minc(a, b, version="a"),
    lambda a, b: minc(a, b, version="b"),
    lambda a, b: uft_combine((a, b)),
)


@given(bba_pair())
def test_mass_is_conserved_or_declared_lost(pair):
    m1, m2 = pair
    for fn in _CONSERVING:
        try:
            out = fn(m1, m2)
        except (TotalConflictError, RuleError):
            continue
        total = out.combined.total + out.conflict.lost
        assert abs(total - 1.0) < 1e-9


@given(bba_pair())
def test_normalizing_rules_return_unit_total(pair):
    m1, m2 = pair
    fns = [dempster,
           lambda a, b: zhang_center(a, b, degree="product"),
           lambda a, b: zhang_center(a, b, degree="union"),
           lambda a, b: tnorm_fusion(a, b, kind="algebraic"),
           lambda a, b: tconorm_fusion(a, b, kind="max"),
           lambda a, b: improved_rules(a, b, base="dsmc"),
           lambda a, b: improved_rules(a, b, base="dp")]
    for fn in fns:
        try:
            out = fn(m1, m2)
        except (TotalConflictError, RuleError):
            continue
        assert abs(out.combined.total - 1.0) < 1e-9


# Every selector that renormalises: what it divides out is not lost.
_NORMALISING = (
    "dempster", "zhang-product", "zhang-union",
    *(f"tnorm-{k}" for k in TNORMS), *(f"tconorm-{k}" for k in TCONORMS),
    *(f"improved-{b}" for b in _IMPROVED_BASES),
)


@given(bba_pair())
def test_normalizing_rules_report_no_lost_mass(pair):
    for selector in _NORMALISING:
        try:
            out = resolve(selector).combine(list(pair), {})
        except (TotalConflictError, RuleError):
            continue
        assert abs(out.combined.total + out.conflict.lost - 1.0) < 1e-9, selector


@given(bba_pair(frame_ids=SHAFER_IDS))
def test_cautious_conserves_signed_total(pair):
    m1, m2 = pair
    out = cautious_commonality_min(m1, m2)
    if out.signed_masses is not None:
        total = math.fsum(out.signed_masses.values())
    else:
        total = out.combined.total
    assert abs(total - 1.0) < 1e-9


_VBA_NEUTRAL = (
    conjunctive, dsm_classic, dsm_hybrid, dempster, yager, dubois_prade,
    pcr2, pcr3, pcr5,
    lambda *ss: minc(*ss, version="a"),
    lambda *ss: minc(*ss, version="b"),
)


@given(bba_pair())
def test_vacuous_source_changes_nothing(pair):
    m1, m2 = pair
    vac = MassFunction.vacuous(m1.frame)
    for fn in _VBA_NEUTRAL:
        try:
            base = fn(m1, m2).combined
            padded = fn(m1, m2, vac).combined
        except (TotalConflictError, RuleError):
            continue
        assert oracles.delta(oracles.plain(base), oracles.plain(padded)) < 1e-12


def test_wao_and_pcr1_are_not_vacuous_neutral():
    # Column statistics see the vacuous source's ignorance mass, so
    # these two rules shift conflict toward ignorance when one joins.
    f = Frame.shafer(("A", "B"))
    m1 = MassFunction(f, {"A": 0.6, "B": 0.4})
    m2 = MassFunction(f, {"A": 0.3, "B": 0.7})
    vac = MassFunction.vacuous(f)
    for fn in (wao, pcr1):
        base = fn(m1, m2).combined
        padded = fn(m1, m2, vac).combined
        assert oracles.delta(oracles.plain(base), oracles.plain(padded)) > 1e-3


@given(st.data())
def test_dempster_is_associative(data):
    fid = data.draw(st.sampled_from(range(len(FRAMES))))
    m1 = data.draw(bba_on(fid))
    m2 = data.draw(bba_on(fid))
    m3 = data.draw(bba_on(fid))
    try:
        direct = dempster(m1, m2, m3).combined
        staged = dempster(dempster(m1, m2).combined, m3).combined
    except TotalConflictError:
        assume(False)
    assert oracles.delta(oracles.plain(direct), oracles.plain(staged)) < 1e-9


@given(st.data())
def test_incremental_combining_matches_direct(data):
    fid = data.draw(st.sampled_from(range(len(FRAMES))))
    stream = [data.draw(bba_on(fid)) for _ in range(3)]
    for rule, direct in (
        ("yager", yager), ("smets", smets_tbm), ("pcr1", pcr1),
        ("dubois-prade", dubois_prade),
    ):
        try:
            state, res = quasi_associative_combine(stream[0], stream[1], rule=rule)
            state, res = quasi_associative_combine(state, stream[2], rule=rule)
            ref = direct(*stream)
        except RuleError:
            continue
        assert oracles.delta(
            oracles.plain(res.combined), oracles.plain(ref.combined)
        ) < 1e-12


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(unit, unit, unit)
def test_tnorm_axioms(x, y, z):
    # Each norm maps [0, 1]² into [0, 1], with 0 as the T-norms' absorbing
    # element and 1 as the T-conorms'; the algebraic conorm computes
    # x+1-x, so these hold to an ulp.
    for t in TNORMS.values():
        assert t(x, y) == t(y, x)
        assert abs(t(t(x, y), z) - t(x, t(y, z))) < 1e-12
        # The bounded norm computes x+1-1, so identity holds to an ulp.
        assert abs(t(x, 1.0) - x) < 1e-12
        assert 0.0 <= t(x, y) <= 1.0 and t(x, 0.0) == 0.0
    for s in TCONORMS.values():
        assert s(x, y) == s(y, x)
        assert abs(s(s(x, y), z) - s(x, s(y, z))) < 1e-12
        assert abs(s(x, 0.0) - x) < 1e-12
        assert -1e-12 <= s(x, y) <= 1.0 + 1e-12 and abs(s(x, 1.0) - 1.0) < 1e-12


@given(unit, unit, unit)
def test_norms_are_monotone(x, y, z):
    lo, hi = min(x, y), max(x, y)
    for t in TNORMS.values():
        assert t(lo, z) <= t(hi, z) + 1e-15
    for s in TCONORMS.values():
        assert s(lo, z) <= s(hi, z) + 1e-15


@given(st.data())
def test_intersection_and_union_degrees_are_complementary(data):
    fid = data.draw(st.sampled_from(range(len(FRAMES))))
    els = ELEMENTS[fid]
    a = data.draw(st.sampled_from(els))
    b = data.draw(st.sampled_from(els))
    d = degree_intersection(a, b)
    assert 0.0 <= d <= 1.0
    assert degree_intersection(a, b) + degree_union(a, b) == 1.0


@given(st.data())
def test_belief_bounds(data):
    fid = data.draw(st.sampled_from(range(len(FRAMES))))
    m = data.draw(bba_on(fid))
    el = data.draw(st.sampled_from(ELEMENTS[fid]))
    bel, pl = m.bel(el), m.pl(el)
    assert m.bel_d(el) <= bel + 1e-12
    assert bel <= pl + 1e-12
    assert m.pl_d(el) <= pl + 1e-12


@given(bba_on(1))
def test_cautious_idempotence(m):
    out = cautious_commonality_min(m, m)
    if out.signed_masses is not None:
        return
    assert oracles.delta(oracles.plain(out.combined), oracles.plain(m)) < 1e-9


@given(bba_pair(frame_ids=SHAFER_IDS))
def test_cautious_takes_exact_commonality_minimum(pair):
    m1, m2 = pair
    out = cautious_commonality_min(m1, m2)
    assume(out.signed_masses is None)
    frame = m1.frame
    for el in ELEMENTS[1 if frame.n == 2 else 3]:
        want = min(m1.q(el), m2.q(el))
        assert abs(out.combined.q(el) - want) < 1e-9


@given(bba_pair())
def test_weighted_operator_endpoints(pair):
    m1, m2 = pair
    frame = m1.frame
    empty_expr = f"{frame.names[0]}&~{frame.names[0]}"
    wo_smets = weighted_operator(m1, m2, weights={empty_expr: 1.0})
    ref = smets_tbm(m1, m2)
    assert oracles.delta(
        oracles.plain(wo_smets.combined), oracles.plain(ref.combined)
    ) < 1e-12
    ignorance = frame.ignorance()
    wo_yager = weighted_operator(m1, m2, weights={ignorance: 1.0})
    ref = yager(m1, m2)
    assert oracles.delta(
        oracles.plain(wo_yager.combined), oracles.plain(ref.combined)
    ) < 1e-12


@given(bba_pair())
def test_inagaki_endpoints(pair):
    m1, m2 = pair
    out0 = inagaki(m1, m2, p=0.0)
    ref = yager(m1, m2)
    assert oracles.delta(
        oracles.plain(out0.combined), oracles.plain(ref.combined)
    ) < 1e-12


@given(bayesian_pair())
def test_inagaki_reaches_dempster_on_bayesian_sources(pair):
    m1, m2 = pair
    product = conjunctive(m1, m2)
    k12 = product.conflict.k12
    assume(k12 < 1.0 - 1e-6)
    # Bayesian sources put no product mass on total ignorance, so the
    # upper parameter bound collapses the rule to Dempster's.
    out = inagaki(m1, m2, p=1.0 / (1.0 - k12))
    ref = dempster(m1, m2)
    assert oracles.delta(
        oracles.plain(out.combined), oracles.plain(ref.combined)
    ) < 1e-9


@given(bayesian_pair())
def test_zhang_union_is_dempster_for_bayesian_shafer(pair):
    m1, m2 = pair
    try:
        out = zhang_center(m1, m2, degree="union")
        ref = dempster(m1, m2)
    except TotalConflictError:
        assume(False)
    assert oracles.delta(
        oracles.plain(out.combined), oracles.plain(ref.combined)
    ) < 1e-12


# The ledger audit runs every mass-mode selector on free, Shafer and
# hybrid frames with two and, where the arity allows, three sources.
_AUDIT_FRAMES = tuple(
    (f, [el for el in f.superpower_set() if not el.is_empty])
    for f in (FRAMES[2], FRAMES[3], Frame(("A", "B", "C")).constrain("A&B"))
)


@st.composite
def audit_sources(draw):
    """Three sources, each normal or subnormal with a total in [0.5, 1)."""
    frame, elements = draw(st.sampled_from(_AUDIT_FRAMES))
    sources = []
    for _ in range(3):
        els = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(els), max_size=len(els)))
        total = draw(st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=1.0,
                                                         exclude_max=True)))
        sources.append(MassFunction(frame, {el: total * w / sum(weights)
                                            for el, w in zip(els, weights)}))
    return sources


def _audit_params(selector, frame, count):
    return {
        "wo": {"weights": {frame.ignorance(): 0.5, frame.empty(): 0.5}},
        "inagaki": {"p": 0.5},
        "mixing": {"weights": [1.0, 2.0, 3.0][:count]},
        "conditional": {"given": "A"},
        "mixed": {"expr": "(1&2)|3"},
    }.get(selector, {})


def _audit_counts(spec):
    # The fixed mixed expression names three sources; conditional takes one.
    counts = [c for c in (2, 3) if c >= spec.min_sources
              and (spec.max_sources is None or c <= spec.max_sources)]
    if spec.name == "mixed":
        counts = [3]
    return counts or [spec.max_sources]


def _mass_results(sources):
    """(selector, count, sources, params, result) of every mass-mode
    selector on the first ``count`` sources; refused runs are skipped."""
    for selector in selectors():
        spec = resolve(selector)
        if spec.mode != "mass":
            continue
        for count in _audit_counts(spec):
            if count > len(sources):
                continue
            srcs = sources[:count]
            params = _audit_params(selector, srcs[0].frame, count)
            try:
                out = spec.combine(srcs, params)
            except (TotalConflictError, RuleError):
                continue
            yield selector, count, srcs, params, out


@given(audit_sources())
def test_every_ledger_passes_the_audit(sources):
    for selector, count, srcs, params, out in _mass_results(sources):
        assert oracles.audit(out, srcs, params) == [], (selector, count)


def _exported_operands(sources):
    """Check every mass-mode selector's export ledger against the plain
    build; return the (display, expression text) pairs of its operands."""
    named = set()
    for selector, count, _, _, out in _mass_results(sources):
        outcome = Outcome("mass", frame=out.combined.frame, combined=out.combined, result=out,
                          warnings=out.warnings)
        ledger = build_table(outcome, selector).to_json_dict(outcome)["ledger"]
        assert ledger == oracles.export_ledger(out), (selector, count)
        named.update(pair for entry in ledger
                     for pair in zip(entry["operands"], entry["operand_exprs"], strict=True))
    return named


@given(audit_sources())
def test_export_ledger_matches_the_plain_build(sources):
    _exported_operands(sources)


def test_export_ledger_keeps_an_empty_operands_expression():
    # The golden case's event empties B, so B displays as the empty set;
    # its expression still names it.
    case = next(c for c in GOLDEN_CASES if c.name == "column-average-degenerate")
    assert ("∅", "B") in _exported_operands(parse_problem(case.text).final_sources())


# uft under every scenario a problem file can declare: the reliability
# cases with discount factors from {0, 0.5, 1}, all-zero included, and
# every routing case, 1.2.6 with a drawn right element and 1.2.7 with two
# drawn recipients.
@given(audit_sources(), st.data())
def test_every_uft_scenario_passes_the_audit(sources, data):
    elements = [el for el in sources[0].frame.superpower_set() if not el.is_empty]
    discounts = data.draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)),
                                   min_size=len(sources), max_size=len(sources)))
    right = data.draw(st.sampled_from(elements))
    recipients = data.draw(st.lists(st.sampled_from(elements), min_size=2, max_size=2,
                                    unique=True))
    configs = [ScenarioConfig.for_case("1"), ScenarioConfig.for_case("2"),
               ScenarioConfig.for_case("3", discounts=discounts)]
    configs += [ScenarioConfig.for_case(case, right=right if kind == "right" else None,
                                        recipients=recipients if kind == "both-wrong" else ())
                for case, kind in CASE_TO_KIND.items()]
    for config in configs:
        out = uft_combine(sources, config)
        assert oracles.audit(out, sources) == [], (config.case, config.discounts)


_STORE_RULES = ("conjunctive", "dsmc", "smets", "dempster", "yager", "wo", "inagaki",
                "pcr1", "wao")


@given(audit_sources())
def test_every_store_ledger_passes_the_audit(sources):
    for rule in _STORE_RULES:
        params = _audit_params(rule, sources[0].frame, 3)
        state = sources[0]
        try:
            for m in sources[1:]:
                state, out = quasi_associative_combine(state, m, rule, **params)
        except (TotalConflictError, RuleError):
            continue
        assert oracles.audit(out, sources) == [], rule


# Folds that the rules themselves declare dependent on source order.
_ORDERED_FOLDS = ("pcr4", "pcr5", "minc-a", "minc-b")


def _permuted_params(selector, frame, order):
    """The sweep's parameters for sources taken in ``order``."""
    params = _audit_params(selector, frame, len(order))
    if selector == "mixing":
        params["weights"] = [params["weights"][i] for i in order]
    if selector == "mixed":
        params["expr"] = "({}&{})|{}".format(*(order.index(i) + 1 for i in range(3)))
    return params


def _printed(spec, sources, params):
    """The CLI table's render() and JSON rows, or the error raised and no rows."""
    try:
        out = spec.combine(sources, params)
    except (TotalConflictError, RuleError) as exc:
        return type(exc).__name__, {}
    outcome = Outcome("mass", frame=out.combined.frame, combined=out.combined, result=out,
                      warnings=out.warnings)
    table = build_table(outcome, spec.name)
    return table.render(), {r["element"]: r["mass"] for r in table.to_json_dict(outcome)["rows"]}


@given(audit_sources())
def test_source_order_changes_no_table(sources):
    for selector in selectors():
        spec = resolve(selector)
        if spec.mode != "mass":
            continue
        for count in _audit_counts(spec):
            if count < 2 or (count > 2 and selector in _ORDERED_FOLDS):
                continue
            first = None
            for order in itertools.permutations(range(count)):
                srcs = [sources[i] for i in order]
                render, rows = _printed(spec, srcs, _permuted_params(selector, srcs[0].frame, order))
                first = first or (render, rows)
                assert render == first[0], (selector, order)
                assert rows.keys() == first[1].keys(), (selector, order)
                assert all(abs(v - first[1][k]) <= 1e-12 for k, v in rows.items()), (selector, order)


# Three sources on the free frame whose products round differently, and
# pool differently, in different source orders.
_ORDER_SOURCES = (
    {"A|~C": 0.3787878787878788, "~B&C|A&C": 0.10984848484848485,
     "A&B|A&C": 0.3787878787878788, "~(B|A&C)": 0.13257575757575757},
    {"~B&~C|~A&B|B&C": 0.75},
    {"A&~B|A&C": 0.3411764705882353, "B&~C|A&B": 0.6588235294117647},
)


_ORDER_RULES = {
    "conjunctive": conjunctive, "dempster": dempster, "yager": yager, "dsmh": dsm_hybrid,
    "pcr3": pcr3, "uft": lambda *s: uft_combine(s), "disjunctive": disjunctive,
    "inagaki": lambda *s: inagaki(*s, p=0.5),
}


def _in_every_source_order(rule):
    frame = Frame(("A", "B", "C"))
    sources = [MassFunction(frame, masses) for masses in _ORDER_SOURCES]
    return [rule(*order) for order in itertools.permutations(sources)]


@pytest.mark.parametrize("name", _ORDER_RULES)
def test_results_list_their_landings_by_mask_in_any_source_order(name):
    orders = {tuple(el.mask for el in out.combined)
              for out in _in_every_source_order(_ORDER_RULES[name])}
    assert len(orders) == 1
    masks = list(*orders)
    assert masks == sorted(masks)


def test_inagaki_lists_its_shares_by_mask_in_any_source_order():
    orders = {tuple(dest for dest, _ in p.shares)
              for out in _in_every_source_order(_ORDER_RULES["inagaki"])
              for p in out.conflict.partials}
    assert len(orders) == 1
    masks = [dest.mask for dest in next(iter(orders)) if dest is not None]
    assert masks == sorted(masks)


# -- dsmh and minC against the whole-intersection reduction -----------------

EXPR_FRAMES = (
    Frame(("A", "B", "C")),
    Frame.shafer(("A", "B", "C")),
    Frame(("A", "B", "C")).constrain("A&B", "B&C&~A"),
    Frame.shafer(("A", "B", "C", "D")),
    Frame(("A", "B", "C", "D")).constrain("A&B", "C&D"),
)


def expressions(names):
    """Expression trees over the names, with complements and nested chains."""
    leaves = st.sampled_from(names).map(lambda name: ("label", name))
    return st.recursive(leaves, lambda kids: st.one_of(
        kids.map(lambda kid: ("not", kid)),
        st.tuples(st.sampled_from(("and", "or", "xor")),
                  st.lists(kids, min_size=2, max_size=3).map(tuple)),
    ), max_leaves=4)


@st.composite
def expression_sources(draw, count=(2, 3), focal=4):
    """Sources whose focal elements keep the expressions drawn: as many as
    the ``count`` range allows, with at most ``focal`` focal elements each."""
    frame = draw(st.sampled_from(EXPR_FRAMES))
    sources = []
    for _ in range(draw(st.integers(*count))):
        exprs = draw(st.lists(expressions(frame.names), min_size=1, max_size=focal))
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(exprs), max_size=len(exprs)))
        total = sum(weights)
        sources.append(MassFunction(frame, [(frame.element(e), w / total)
                                            for e, w in zip(exprs, weights)]))
    return sources


def _dsmh_routes_match_the_oracle(sources):
    frame = sources[0].frame
    names, surviving = frame.names, frame.surviving_atoms
    for partial in dsm_hybrid(*sources).conflict.partials:
        (dest, _), = partial.shares
        operands = [el.expr for el in partial.operands]
        assert dest.atoms == oracles.dsmh_destination(operands, names, surviving), operands


@given(expression_sources(count=(4, 4), focal=3))
def test_reduced_intersection_routes_of_four_sources_match_the_oracle(sources):
    # Four sources walk two prefix levels, and under ``and`` the walk pools
    # safe prefixes: every route key a conflict reads is folded through them.
    _dsmh_routes_match_the_oracle(sources)


@given(expression_sources())
def test_reduced_intersection_routes_match_the_oracle(sources):
    frame = sources[0].frame
    names, surviving = frame.names, frame.surviving_atoms
    _dsmh_routes_match_the_oracle(sources)
    for version, recipients in (("a", oracles.minc_a_recipients),
                                ("b", oracles.minc_b_recipients)):
        for partial in minc(*sources[:2], version=version).conflict.partials:
            if "disjunctive form" in partial.note:
                continue
            operands = [el.expr for el in partial.operands]
            want = recipients(operands, names, surviving)
            got = [dest.atoms for dest, _ in partial.shares]
            if partial.basis.startswith("equal split"):
                assert got == want, (version, operands)
            else:
                assert got == [atoms for atoms in want if atoms in got], (version, operands)
    for el in (el for m in sources for el in m):
        for form in (el, ~el):
            labels = oracles._form_labels(form.expr, names, surviving)
            want = frozenset().union(*(oracles.expr_atoms(("label", name), names, surviving)
                                       for name in labels))
            assert form.disjunctive().atoms == want, form.expr


@given(expression_sources(), st.data())
def test_events_applied_together_match_one_at_a_time(sources, data):
    frame = sources[0].frame
    events = tuple(render_expression(data.draw(expressions(frame.names))) for _ in range(2))
    problem = ProblemFile(frame=frame, sources=[(f"m{i}", m) for i, m in enumerate(sources)],
                          events=events)
    stepwise = frame.constrain(events[0]).constrain(events[1])
    final = problem.final_frame()
    assert final == stepwise
    assert final.surviving_atoms == stepwise.surviving_atoms
    for m, moved in zip(sources, problem.final_sources()):
        assert moved == m.on_frame(stepwise)
        for el in m:
            assert final.reevaluate(el).atoms == stepwise.reevaluate(el).atoms


# -- the product walk against the plain product loop ------------------------

@st.composite
def walk_sources(draw, least=2, subnormal=True):
    """``least`` to five sources on one frame.  With ``subnormal`` one is
    subnormal, its total below one and one of its masses tiny enough that
    products through it round to zero or to IEEE subnormals."""
    frame = draw(st.sampled_from(EXPR_FRAMES))
    count = draw(st.integers(min_value=least, max_value=5))
    low = draw(st.integers(min_value=0, max_value=count - 1)) if subnormal else None
    sources = []
    for i in range(count):
        exprs = draw(st.lists(expressions(frame.names), min_size=1, max_size=3))
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(exprs), max_size=len(exprs)))
        masses = [w / sum(weights) for w in weights]
        if i == low:
            masses = [v / 2 for v in masses]
            masses[0] = draw(st.sampled_from((5e-324, 1e-310, 1e-160)))
        sources.append(MassFunction(frame, [(frame.element(e), v)
                                            for e, v in zip(exprs, masses)]))
    return sources


def _contested(els, mask):
    """uft's claim under a default attitude: a landing that is none of its operands."""
    return all(mask != el.mask for el in els)


def _walk_against_the_plain_loop(sources, op, claim=None, keyed=False, leaf=None):
    """Expand ``sources`` and check the conflicts against the oracle's
    plain product loop: the same operands (by identity), order, weights
    and k12.  A claim walks as the leaf that lands a claimed product on
    0.  A keyed walk gives each focal element a bit of its own as its
    key, and a conflict with no leaf must come with its operands' bits
    ORed (0 unkeyed); under a leaf, with its landing mask.  Returns the
    landed masses both ways, as (mask, mass) lists."""
    ledger = Ledger(sources)
    bits = {id(el): 1 << i for i, el in enumerate(el for m in sources for el in m)}
    if claim is not None:
        leaf = lambda els, p, mask: (p, 0 if claim(els, mask) else mask)
    got = list(ledger.expand(op, leaf, key=(lambda el: bits[id(el)]) if keyed else None))
    conflicts, k12, acc = oracles.expand_products(sources, op, claim)
    assert len(got) == len(conflicts), op
    for (els, p, landing), (want_els, want_p, want_mask) in zip(got, conflicts):
        assert len(els) == len(want_els) and all(map(operator.is_, els, want_els)), op
        assert p == want_p, (op, p, want_p)
        if leaf is None:
            keys = (bits[id(el)] if keyed else 0 for el in els)
            assert landing == functools.reduce(operator.or_, keys), op
        else:
            assert landing == want_mask, op
    assert ledger.k12.hex() == k12.hex(), op
    return list(ledger.acc.items()), acc


def _landed_alike(got, want, op):
    """Merged landings against the plain loop's, as masses keyed by mask:
    the same masks, each mass within 1e-12, in whatever order they landed."""
    got, want = dict(got), dict(want)
    assert got.keys() == want.keys(), op
    assert all(abs(v - want[k]) <= 1e-12 for k, v in got.items()), op


@given(walk_sources())
def test_product_walk_matches_the_plain_product_loop(sources):
    for op, claim, keyed in (("and", None, False), ("or", None, False), ("xor", None, False),
                             ("and", _contested, False), ("and", None, True),
                             ("or", None, True)):
        got, want = _walk_against_the_plain_loop(sources, op, claim, keyed)
        if op == "xor" or claim is not None:
            assert got == want, op
        else:
            _landed_alike(got, want, op)
    # An identity leaf walks every product one by one, unpooled.
    for op in ("and", "or", "xor"):
        got, want = _walk_against_the_plain_loop(sources, op, leaf=lambda els, p, mask: (p, mask))
        assert got == want, op


@given(st.booleans().flatmap(lambda subnormal: walk_sources(3, subnormal)))
def test_the_store_product_is_the_left_fold_of_conjunctive(sources):
    # One state is read after every append, so each fold pushes one source
    # onto the table it carried over; the other folds them all on one read.
    stepped = lazy = QuasiAssociativeState.start(sources[0])
    want = sources[0]
    for m in sources[1:]:
        stepped, lazy = stepped.append(m), lazy.append(m)
        want = conjunctive(want, m).combined
        got = stepped.product
        assert got == want and list(got.items()) == list(want.items())
    got = lazy.product
    assert got == want and list(got.items()) == list(want.items())


def _run_bits(result):
    """A result as the store and the direct rule must agree on it: combined
    masses as float bits in order, the ledger, warnings, rule and sources."""
    return ([(el, v.hex()) for el, v in result.combined.items()], result.conflict.partials,
            result.conflict.k12.hex(), result.warnings, result.rule, result.sources)


@given(expression_sources(count=(3, 6), focal=3), st.data())
def test_the_store_resumes_each_pairwise_fold_as_the_direct_fold(sources, data):
    # After every append the store's fold, resumed from the fold it kept,
    # is the direct rule's fold over the sources so far.
    for rule in _ORDERED_FOLDS:
        states = [sources[0]]
        for k in range(2, len(sources) + 1):
            state, got = quasi_associative_combine(states[-1], sources[k - 1], rule)
            states.append(state)
            assert _run_bits(got) == _run_bits(run(rule, sources[:k], {})), (rule, k)
        # A state branched from an earlier one resumes that state's fold.
        k = data.draw(st.integers(min_value=2, max_value=len(sources) - 1))
        new = data.draw(st.sampled_from(sources))
        _, got = quasi_associative_combine(states[k - 1], new, rule)
        assert _run_bits(got) == _run_bits(run(rule, sources[:k] + [new], {})), (rule, k)
    # A stream that switches rule between appends: a fold resumes only its
    # own rule's fold, over every source appended since.
    rules = data.draw(st.lists(st.sampled_from(_ORDERED_FOLDS + ("conjunctive",)),
                               min_size=len(sources) - 1, max_size=len(sources) - 1))
    state = sources[0]
    for k, rule in enumerate(rules, 2):
        state, got = quasi_associative_combine(state, sources[k - 1], rule)
        if rule in _ORDERED_FOLDS:
            assert _run_bits(got) == _run_bits(run(rule, sources[:k], {})), (rules, k)


MERGE_FRAMES = (
    Frame(("A", "B", "C", "D")),
    Frame(("A", "B", "C", "D")).constrain("A&B"),
    Frame(("A", "B", "C", "D")).constrain("A&C", "B&D"),
)


@st.composite
def merge_sources(draw, unsafe_early=False):
    """Three to six sources of label unions and label intersections.  On
    the free frame every such set holds the atom of all labels, so every
    prefix is safe.  On the hybrid frames every focal set of the last
    source holds one shared label, so the suffix meets are not empty and
    prefixes that meet them interleave with prefixes that do not.

    With ``unsafe_early`` the first source puts its first mass on ∅, and
    the first or the second source makes its first mass subnormal.  A
    prefix through ∅ is unsafe at first and, under ``or``, safe a level
    later, so it pools into a table entry that other prefixes of the same
    mask reach too.  A prefix through a subnormal mass stays unsafe and is
    walked, landing on masks that merged landings reach as well."""
    frame = draw(st.sampled_from(MERGE_FRAMES))
    names = frame.names
    shared = draw(st.sampled_from(names))
    count = draw(st.integers(min_value=3, max_value=6))
    low = draw(st.integers(min_value=0, max_value=1)) if unsafe_early else None
    labels = st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True).map(sorted)
    sources = []
    for i in range(count):
        if i < count - 1:
            sets = st.tuples(st.sampled_from("|&"), labels).map(lambda c: c[0].join(c[1]))
        else:
            sets = labels.map(lambda ls: "|".join(sorted({shared, *ls})))
        texts = draw(st.lists(sets, min_size=1, max_size=3, unique=True))
        if unsafe_early and i == 0:
            texts.insert(0, f"{names[0]}&~{names[0]}")
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(texts), max_size=len(texts)))
        masses = [w / sum(weights) for w in weights]
        if i == low:
            masses[0] = draw(st.sampled_from((1e-310, 5e-324, 1e-160)))
        sources.append(MassFunction(frame, list(zip(texts, masses))))
    return sources


@given(merge_sources())
def test_merged_walk_matches_the_plain_product_loop(sources):
    for op, keyed in itertools.product(("and", "or"), (False, True)):
        _landed_alike(*_walk_against_the_plain_loop(sources, op, keyed=keyed), op)


@given(merge_sources(unsafe_early=True))
def test_merged_walk_pools_the_plain_loops_masses_past_unsafe_prefixes(sources):
    for op, keyed in itertools.product(("and", "or"), (False, True)):
        _landed_alike(*_walk_against_the_plain_loop(sources, op, keyed=keyed), op)


# -- the mask algebra against brute force over atom sets ---------------------

@st.composite
def oracle_frames(draw):
    """A free or Shafer frame of two to five hypotheses, maybe constrained
    by drawn expressions, with the surviving atoms the oracle gives it."""
    names = tuple("ABCDE"[:draw(st.integers(min_value=2, max_value=5))])
    if draw(st.booleans()):
        frame, surviving = Frame.free(names), oracles.free_atoms(len(names))
    else:
        frame, surviving = Frame.shafer(names), oracles.shafer_atoms(len(names))
    texts = [render_expression(draw(expressions(names)))
             for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    if texts:
        frame = frame.constrain(*texts)
        surviving = oracles.constrain([parse_expression_text(t) for t in texts], names, surviving)
    return frame, surviving


@given(oracle_frames(), st.data())
def test_mask_algebra_matches_brute_force_over_atom_sets(framed, data):
    frame, surviving = framed
    names = frame.names
    assert frame.surviving_atoms == surviving
    texts = [render_expression(data.draw(expressions(names))) for _ in range(3)]
    els = [frame.parse(t) for t in texts]
    want = [oracles.expr_atoms(parse_expression_text(t), names, surviving) for t in texts]
    for el, atoms in zip(els, want):
        assert el.atoms == atoms, el.expr
        assert el.cardinality == len(atoms)
        assert frame.from_atoms(atoms) == el
        assert frame.from_atoms(atoms).atoms == atoms

    (x, y), (ax, ay) = els[:2], want[:2]
    if ax | ay:
        assert degree_intersection(x, y) == oracles.degree_intersection(ax, ay)
    else:
        with pytest.raises(UndefinedDegreeError):
            degree_intersection(x, y)
    assert degree_inclusion(x & y, x) == oracles.degree_inclusion(ax & ay, ax)
    if not ax <= ay:
        with pytest.raises(NotASubsetError):
            degree_inclusion(x, y)

    weights = (0.5, 0.3, 0.2)
    m = MassFunction(frame, zip(els, weights))
    plain = {}
    for atoms, w in zip(want, weights):
        plain[atoms] = plain.get(atoms, 0.0) + w
    for a, atoms in zip(els, want):
        assert m.bel(a) == oracles.bel(plain, atoms)
        assert m.pl(a) == oracles.pl(plain, atoms)
        assert m.q(a) == oracles.q(plain, atoms)


# -- displays against the plain display rule ----------------------------------

def _assert_displays_as_the_oracle(el, surviving):
    frame = el.frame
    want = oracles.display_expr(frame.names, surviving, el.atoms)
    assert (el.expr, el.display) == (want, render_expression(want)), (frame, sorted(el.atoms))


def test_every_expression_frame_element_displays_as_the_oracle():
    for frame in EXPR_FRAMES:
        surviving = frame.surviving_atoms
        for el in frame.superpower_set():
            _assert_displays_as_the_oracle(el, surviving)


@st.composite
def display_frames(draw):
    """Shafer and hybrid frames of 6 and 8 hypotheses, the pair-conflict
    workload's shapes: the single-hypothesis atoms plus a few drawn
    overlaps of two or three hypotheses."""
    n = draw(st.sampled_from((6, 8)))
    singles = [1 << i for i in range(n)]
    overlaps = [sum(combo) for r in (2, 3) for combo in itertools.combinations(singles, r)]
    return Frame(tuple("ABCDEFGH"[:n]), singles + draw(st.lists(st.sampled_from(overlaps),
                                                                 max_size=4)))


@given(display_frames(), st.data())
def test_wide_frame_displays_match_the_oracle(frame, data):
    surviving = frame.surviving_atoms
    survivors = sorted(surviving)
    for _ in range(4):
        if data.draw(st.booleans()):
            atoms = data.draw(st.frozensets(st.sampled_from(survivors)))
        else:
            atoms = frame.parse(render_expression(data.draw(expressions(frame.names)))).atoms
        _assert_displays_as_the_oracle(frame.from_atoms(atoms), surviving)


@st.composite
def complement_route_sets(draw):
    """A free or constrained frame of 10 to 16 hypotheses and the atoms of
    two sets on it.  The first is ``~`` of a union of meets of two or three
    labels: on a free frame its own cover negates and its complement's,
    whose seeds hold two or three labels, does not, so it displays as the
    complement's cover.  The second, a label minus another, displays as
    its own cover, the complement's given up at a negating cube."""
    n = draw(st.integers(min_value=10, max_value=16))
    frame = Frame(tuple(f"H{i}" for i in range(n)))
    names = frame.names
    meets = st.lists(st.sampled_from(names), min_size=2, max_size=3, unique=True).map("&".join)
    if draw(st.booleans()):
        frame = frame.constrain(draw(meets))
    up = "|".join(draw(st.lists(meets, min_size=1, max_size=3, unique=True)))
    a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    return frame, [frame.parse(text).atoms for text in (f"~({up})", f"{a}&~{b}")]


@settings(max_examples=20)
@given(complement_route_sets())
def test_wide_frame_complement_displays_match_the_oracle(drawn):
    frame, sets = drawn
    surviving = frame.surviving_atoms
    for atoms in sets:
        _assert_displays_as_the_oracle(frame.from_atoms(atoms), surviving)


@given(oracle_frames(), st.data())
def test_displays_parse_back_and_are_no_longer_than_the_minterm_rule(framed, data):
    frame, surviving = framed
    survivors = sorted(surviving)
    for _ in range(4):
        atoms = data.draw(st.frozensets(st.sampled_from(survivors))) if survivors else frozenset()
        el = frame.from_atoms(atoms)
        if atoms:
            assert oracles.expr_atoms(parse_expression_text(el.display), frame.names,
                                      surviving) == atoms, el.display
        old = oracles.minterm_display_expr(frame.names, surviving, atoms)
        assert len(el.display) <= len(render_expression(old)), (frame, sorted(atoms))


# -- uft's split route against the plain PCR5 split ---------------------------

@st.composite
def split_sources(draw):
    """Two to four sources on one frame, some vacuous, the others drawn
    from labels, a union, an intersection, total ignorance and an empty
    element: products pool equal operands and hold empty operands and
    total ignorance beside others."""
    frame = draw(st.sampled_from(EXPR_FRAMES))
    a, b, c = frame.names[:3]
    pool = [a, b, c, f"{a}|{b}", f"{b}&{c}", "|".join(frame.names), f"{a}&~{a}"]
    sources = []
    for _ in range(draw(st.integers(min_value=2, max_value=4))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            sources.append(MassFunction.vacuous(frame))
            continue
        texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(texts), max_size=len(texts)))
        sources.append(MassFunction(frame, {t: w / sum(weights) for t, w in zip(texts, weights)}))
    return sources


@given(split_sources())
def test_uft_split_route_matches_the_plain_pcr5_split(sources):
    frame = sources[0].frame
    plains = [oracles.plain(m) for m in sources]
    out = uft_combine(sources, ScenarioConfig.for_case("1.2.1"))
    conflicts, _, _ = oracles.expand_products(sources, "and", _contested)
    assert len(out.conflict.partials) == len(conflicts)
    for partial, (els, p, _) in zip(out.conflict.partials, conflicts):
        operands = [el.atoms for el in els]
        assert [el.atoms for el in partial.operands] == operands
        assert partial.mass == p
        weights = [masses[atoms] for masses, atoms in zip(plains, operands)]
        want = oracles.pcr5_split(operands, weights, frame.surviving_atoms, p)
        if want is None:
            assert partial.note == "operands weightless; escalated", operands
            continue
        got = [(dest.atoms, v) for dest, v in partial.shares]
        assert [atoms for atoms, _ in got] == [atoms for atoms, _ in want], operands
        for (_, v), (_, w) in zip(got, want):
            assert math.isclose(v, w, rel_tol=1e-12), operands


# -- two-source splits against the plain split --------------------------------

@st.composite
def two_split_sources(draw):
    """Two sources on one free, Shafer or hybrid frame.  Focal elements are
    drawn expressions, total ignorance and an empty element, and the second
    source may repeat the first's; a source may hold one subnormal or tiny
    mass, so some products weigh nothing and some splits escalate."""
    frame = draw(st.sampled_from(EXPR_FRAMES))
    names = frame.names
    a = ("label", names[0])
    fixed = st.sampled_from((("or", tuple(("label", nm) for nm in names)),
                             ("and", (a, ("not", a)))))
    focal = st.one_of(expressions(names), fixed)
    first = draw(st.lists(focal, min_size=1, max_size=4))
    second = draw(st.lists(st.one_of(st.sampled_from(first), focal), min_size=1, max_size=4))
    sources = []
    for exprs in (first, second):
        weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                                min_size=len(exprs), max_size=len(exprs)))
        masses = [w / sum(weights) for w in weights]
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=len(masses) - 1))
            masses[i] = draw(st.sampled_from((5e-324, 1e-310, 1e-160, 1e-13)))
        sources.append(MassFunction(frame, [(frame.element(e), v)
                                            for e, v in zip(exprs, masses)]))
    return sources


@given(two_split_sources())
def test_two_source_splits_match_the_plain_split(sources):
    # Two operands take the splits' plain-arithmetic path unless one is
    # empty or total ignorance or both are one element; every ledger must
    # be the oracle's: operands, masses, share order and float bits.
    frame = sources[0].frame
    plain = [[(el.expr, v) for el, v in m.items()] for m in sources]
    for rule, out in (("pcr3", pcr3(*sources)), ("pcr5", pcr5(*sources)),
                      ("uft", uft_combine(sources, ScenarioConfig.for_case("1.2.1"))),
                      ("minc-a", minc(*sources, version="a"))):
        ledger, combined = oracles.split_ledger(rule, plain, frame.names, frame.surviving_atoms)
        got = [([el.atoms for el in p.operands], p.mass.hex(),
                [(dest.atoms, v.hex()) for dest, v in p.shares])
               for p in out.conflict.partials]
        assert got == [(operands, p.hex(), [(atoms, v.hex()) for atoms, v in shares])
                       for operands, p, shares in ledger], rule
        assert {el.atoms: v.hex() for el, v in out.combined.items()} == {
            atoms: v.hex() for atoms, v in combined.items()}, rule
