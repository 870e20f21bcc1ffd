"""Frame construction, expression algebra, and degree measures."""

import gc
import itertools
import random
import tracemalloc

import pytest

from fusekit import frame as frame_module
from fusekit import (
    Element,
    Frame,
    FrameMismatchError,
    FrameTooLargeError,
    MassFunction,
    NotASubsetError,
    ParseError,
    UndefinedDegreeError,
    UnknownLabelError,
    conjunctive,
    degree_inclusion,
    degree_intersection,
    degree_union,
    parse_problem,
)
from fusekit.cli import build_table
from fusekit.frame import FREE_FRAME_GUARD, parse_expression_text, render_expression
from fusekit.golden import Outcome


def test_frame_requires_two_unique_alnum_names():
    with pytest.raises(ValueError):
        Frame(("A",))
    with pytest.raises(ValueError):
        Frame(("A", "A"))
    with pytest.raises(ValueError):
        Frame(("A", "B!"))


def test_free_frame_keeps_all_overlap_atoms():
    f = Frame.free(("A", "B"))
    assert f.model.kind == "free"
    assert f.surviving_atoms == frozenset({1, 2, 3})
    # A covers the atoms whose bitmask has bit 0 set.
    assert f.label("A").atoms == frozenset({1, 3})
    assert f.label("B").atoms == frozenset({2, 3})


def test_shafer_frame_drops_every_overlap():
    f = Frame.shafer(("A", "B", "C"))
    assert f.is_shafer
    assert f.label("A").atoms == frozenset({1})
    assert (f.label("A") & f.label("B")).is_empty


def test_constrain_is_monotone_and_reports_hybrid():
    f = Frame.free(("A", "B", "C"))
    g = f.constrain(f.parse("A&C"))
    assert g.model.kind == "hybrid"
    assert g.empty_atoms > f.empty_atoms
    # Constraining the same region again changes nothing.
    assert g.constrain(g.parse("A&C")) == g
    # Atoms only ever leave, so chained constraints accumulate.
    h = g.constrain(g.parse("B&C"))
    assert h.empty_atoms >= g.empty_atoms


def test_constrain_rejects_foreign_elements():
    f = Frame.free(("A", "B"))
    g = Frame.free(("A", "C"))
    with pytest.raises(FrameMismatchError):
        f.constrain(g.label("A"))


def test_parse_precedence_and_connectives():
    f = Frame.free(("A", "B", "C"))
    # & binds tighter than | and ^.
    assert f.parse("A|B&C") == f.label("A") | (f.label("B") & f.label("C"))
    assert f.parse("(A|B)&C") == (f.label("A") | f.label("B")) & f.label("C")
    assert f.parse("~A") == ~f.label("A")
    assert f.parse("A^B") == f.label("A") ^ f.label("B")
    # | and ^ share one level and associate left.
    assert f.parse("A|B^C") == (f.label("A") | f.label("B")) ^ f.label("C")


@pytest.mark.parametrize("bad", ["", "A |", "(A", "A )", "A & & B", "A @ B", "A|$"])
def test_parse_rejects_malformed_expressions(bad):
    f = Frame.free(("A", "B"))
    with pytest.raises(ParseError):
        f.parse(bad)


def test_unknown_label_names_the_frame():
    f = Frame.free(("A", "B"))
    with pytest.raises(UnknownLabelError) as err:
        f.parse("A|X")
    assert "X" in str(err.value)
    with pytest.raises(UnknownLabelError):
        f.label("Z")


def test_render_round_trips_through_parse():
    f = Frame.free(("A", "B", "C"))
    for text in ("A", "A|B", "A&B", "~(A|B)", "A|B&C", "(A|B)&C", "A^B", "~A&~B"):
        el = f.parse(text)
        again = f.parse(render_expression(el.expr))
        assert again == el
    # Every element of the property tests' frames, and of their hybrid;
    # the empty set displays as ∅, which has no surface syntax.
    frames = [make(names) for names in (("A", "B"), ("A", "B", "C"))
              for make in (Frame.free, Frame.shafer)]
    frames.append(Frame.free(("A", "B", "C")).constrain("A&B"))
    for f in frames:
        for el in f.superpower_set():
            assert el.is_empty or f.parse(el.display) == el
            assert f.from_atoms(el.atoms).display == el.display


def test_semantic_equality_ignores_expression_shape():
    f = Frame.free(("A", "B"))
    assert f.parse("A&(A|B)") == f.parse("A")
    assert f.parse("A|B") == f.parse("B|A")
    assert hash(f.parse("A|B")) == hash(f.parse("B|A"))


@pytest.mark.parametrize("build", [
    lambda: Frame.free(("A", "B", "C")),
    lambda: Frame.shafer(("A", "B", "C")),
    lambda: Frame(("A", "B", "C"), (1, 2, 3, 4, 7)),
    lambda: Frame.free(("A", "B", "C")).constrain("A&C"),
], ids=["free", "shafer", "hybrid", "constrained"])
def test_equal_elements_of_separately_built_frames_hash_equal(build):
    f, g = build(), build()
    direct = Frame(f.names, f.surviving_atoms)
    assert f is not g and f == g == direct
    keys = {el: el.display for el in f.superpower_set()}
    for frame in (g, direct):
        for el in frame.superpower_set():
            twin = f.from_atoms(el.atoms)
            assert el == twin and hash(el) == hash(twin)
            assert keys[el] == el.display


def test_an_element_hash_ignores_its_expression():
    f = Frame(("A", "B", "C")).constrain("A&B")
    same = [f.parse("A|B"), f.parse("B|A"), f.parse("~(~A&~B)"), f.from_atoms(f.parse("A|B").atoms),
            f.parse("A") | f.parse("B")]
    assert {hash(el) for el in same} == {hash(same[0])}
    assert len(set(same)) == 1
    assert hash(f.parse("A&B")) == hash(f.parse("C&~C")) == hash(f.empty())


def test_empty_and_ignorance():
    f = Frame.shafer(("A", "B"))
    assert f.empty().is_empty
    assert f.empty().display == "∅"
    assert f.ignorance().atoms == f.surviving_atoms
    assert f.parse("A&B") == f.empty()
    assert f.parse("A&~A").is_empty


def test_canonical_absorption():
    f = Frame.free(("A", "B", "C"))
    el = f.parse("(A|B)&B").canonical()
    assert el.display == "B"
    el = f.parse("A|(A&B)").canonical()
    assert el.display == "A"
    # Flattening merges nested chains of one connective.
    el = f.parse("A|(B|C)").canonical()
    assert el.display == "A|B|C"


def test_landings_are_never_reduced_and_each_display_is_computed_once(monkeypatch):
    # A Shafer pair with 40 focal unions of up to three of 8 hypotheses
    # each: 1600 products, 633 of them landing empty.
    f = Frame.shafer(tuple("ABCDEFGH"))
    rng = random.Random(8)
    unions = ["|".join(combo) for r in (1, 2, 3) for combo in itertools.combinations(f.names, r)]
    m1, m2 = (MassFunction(f, {text: rng.random() for text in rng.sample(unions, 40)}).normalize()
              for _ in range(2))
    reductions, computed = [], []
    monkeypatch.setattr(frame_module, "_canonical_expr",
                        lambda frame, expr: reductions.append(expr) or expr)
    describe = frame_module._display_expr
    monkeypatch.setattr(frame_module, "_display_expr",
                        lambda frame, mask: computed.append(mask) or describe(frame, mask))
    out = conjunctive(m1, m2)
    assert len(out.conflict.partials) > 600
    outcome = Outcome("mass", frame=f, combined=out.combined, result=out, warnings=out.warnings)
    table = build_table(outcome, "conjunctive")
    table.render()
    doc = table.to_json_dict(outcome)
    assert reductions == []
    assert len(computed) == len(set(computed))
    shown = {el.mask for el in out.combined} | {el.mask for m in (m1, m2) for el in m}
    assert set(computed) == shown | {0}
    reads = sum(len(p["operands"]) + len(p["shares"]) for p in doc["ledger"])
    assert reads > 10 * len(computed)


def test_disjunctive_form_replaces_connectives_with_union():
    f = Frame.shafer(("A", "B", "C"))
    inter = f.label("A") & f.label("B")
    assert inter.is_empty
    assert inter.disjunctive() == f.parse("A|B")
    # Complements read through their covering hypotheses.
    assert f.parse("~A").disjunctive() == f.parse("B|C")
    assert f.empty().disjunctive() == f.empty()


def test_from_atoms_picks_readable_displays():
    f = Frame.shafer(("A", "B", "C"))
    assert f.from_atoms(f.label("A").atoms).display == "A"
    both = f.label("A").atoms | f.label("B").atoms
    assert f.from_atoms(both).display == "A|B"
    free = Frame.free(("A", "B", "C"))
    assert free.from_atoms(free.parse("(A&B)|(C&A)").atoms).display == "A&B|A&C"
    with pytest.raises(ValueError):
        f.from_atoms({1 << 3})


def test_up_closed_display_thins_labels():
    # With A's lone atom gone, A is the union of A&B and A&C.
    f = Frame(["A", "B", "C"]).constrain("A&~B&~C")
    assert f.parse("A").display == "A"
    assert f.parse("A&B|A&C").display == "A"


def test_displays_grow_with_their_cubes_not_with_the_frame():
    f = Frame([f"H{i}" for i in range(16)])
    assert f.parse("H0&~H1").display == "H0&~H1"
    assert f.parse("H0^H1").display == "H0&~H1|~H0&H1"


def test_kept_displays_share_one_term_per_cube():
    f = Frame(("A", "B", "C"))
    shown = [f.parse(t).canonical() for t in ("A&~B", "~A&B|C", "B&~C|A&C", "~(A|B)", "A^B",
                                               "A&C|B", "C|A&~B")]
    assert [el.display for el in shown] == ["A&~B", "~A|C", "A&C|B&~C", "~(A|B)", "A&~B|~A&B",
                                            "B|A&C", "~B|C"]
    seen = {}
    for el in shown:
        expr = el.expr[1] if el.expr[0] == "not" and el.expr[1][0] == "or" else el.expr
        for term in expr[1] if expr[0] == "or" else (expr,):
            assert seen.setdefault(term, term) is term, term
    assert len(seen) == 9


def test_a_frame_keeps_nothing_that_refers_back_to_it():
    # So a frame no memo holds is freed at once, with all it keeps, not
    # left to the cycle collector.
    f = Frame(("A", "B", "C")).constrain("A&B")
    for text in ("A|B", "A&C", "~C", "A^B"):
        assert f.parse(text).disjunctive().display
    assert f._forms and f._displays and f._meets and f._terms and f._parsed
    seen, todo = set(), [f._displays, f._forms, f._meets, f._terms, f._parsed]
    while todo:
        obj = todo.pop()
        assert obj is not f, "a kept value refers back to its frame"
        if id(obj) not in seen:
            seen.add(id(obj))
            todo += gc.get_referents(obj)


def test_frames_of_one_label_text_parse_by_their_own_model():
    # Each frame keeps its own text memo: the label texts alone do not
    # decide a text's mask.
    free, shafer = Frame.free(("A", "B")), Frame.shafer(("A", "B"))
    hybrid = Frame.free(("A", "B")).constrain("A&~B")
    masks = [f.parse("A&B").mask for f in (free, shafer, hybrid, free, shafer, hybrid)]
    assert masks == [0b100, 0, 0b10] * 2


def test_a_frame_keeps_the_masks_of_its_first_texts_only():
    f = Frame.free(("A", "B", "C", "D", "E", "F", "G"))
    texts = [f"{x}&{y}|~{z}" for x, y, z in itertools.product(f.names, repeat=3)]
    assert len(texts) > frame_module._TEXTS
    first = [f.parse(text) for text in texts]
    assert len(f._parsed) == frame_module._TEXTS
    assert list(f._parsed) == texts[:frame_module._TEXTS]
    fresh = Frame.free(f.names)
    for i, (text, el) in enumerate(zip(texts, first)):
        again = f.parse(text)
        assert again == el == fresh.element(parse_expression_text(text))
        assert again.expr == el.expr and again.text == text
        assert again.expr is el.expr or i >= frame_module._TEXTS
    # A text that fails is never kept.
    g = Frame.shafer(("A", "B"))
    for _ in range(2):
        with pytest.raises(UnknownLabelError):
            g.parse("A|Q")
    assert not g._parsed


def test_reevaluate_carries_expressions_to_tighter_models():
    free = Frame.free(("A", "B"))
    el = free.parse("A&B")
    tight = free.constrain(free.parse("A&B"))
    assert tight.reevaluate(el).is_empty
    other = Frame.free(("A", "C"))
    with pytest.raises(FrameMismatchError):
        other.reevaluate(el)


def test_superpower_set_counts():
    # Free n=2: 3 atoms, 8 subsets.  Shafer n=2: 2 atoms, 4 subsets.
    assert len(Frame.free(("A", "B")).superpower_set()) == 8
    assert len(Frame.shafer(("A", "B")).superpower_set()) == 4
    assert len(Frame.free(("A", "B", "C")).superpower_set()) == 128
    assert len(Frame.shafer(("A", "B", "C")).superpower_set()) == 8


def test_superpower_set_is_sorted_and_deduplicated():
    els = Frame.shafer(("A", "B")).superpower_set()
    assert [el.display for el in els] == ["∅", "A", "B", "A|B"]
    cards = [el.cardinality for el in els]
    assert cards == sorted(cards)


def test_enumeration_guard():
    f = Frame.shafer(("A", "B", "C", "D", "E"))
    with pytest.raises(FrameTooLargeError):
        f.superpower_set()


def test_element_operators_require_same_frame():
    f = Frame.free(("A", "B"))
    g = Frame.shafer(("A", "B"))
    with pytest.raises(FrameMismatchError):
        f.label("A") & g.label("B")


def test_element_operators_require_an_element():
    f = Frame.free(("A", "B"))
    with pytest.raises(TypeError, match="^expected Element, got str$"):
        f.label("A") & "B"


def test_degree_intersection_is_exact_and_complementary():
    f = Frame.free(("A", "B"))
    a, b = f.label("A"), f.label("B")
    # |A&B| = 1 atom, |A|B| = 3 atoms.
    assert degree_intersection(a, b) == pytest.approx(1 / 3, abs=0)
    assert degree_union(a, b) == 1.0 - degree_intersection(a, b)
    assert degree_intersection(a, b) + degree_union(a, b) == 1.0

    s = Frame.shafer(("A", "B"))
    assert degree_intersection(s.label("A"), s.label("B")) == 0.0
    assert degree_union(s.label("A"), s.label("B")) == 1.0


def test_degree_of_two_empty_elements_is_undefined():
    f = Frame.shafer(("A", "B"))
    with pytest.raises(UndefinedDegreeError):
        degree_intersection(f.empty(), f.empty())
    with pytest.raises(UndefinedDegreeError):
        degree_union(f.empty(), f.empty())


def test_degree_inclusion():
    f = Frame.shafer(("A", "B"))
    a, ab = f.label("A"), f.parse("A|B")
    assert degree_inclusion(a, ab) == 0.5
    assert degree_inclusion(f.empty(), a) == 0.0
    assert degree_inclusion(f.empty(), f.empty()) == 1.0
    with pytest.raises(NotASubsetError):
        degree_inclusion(ab, a)


def test_raw_expression_parser_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_expression_text("A B")


def test_element_repr_and_str():
    f = Frame.free(("A", "B"))
    el = f.parse("A|B")
    assert str(el) == "A|B"
    assert "A|B" in repr(el)
    assert isinstance(el, Element)


def test_constraining_every_overlap_gives_the_shafer_frame():
    f = Frame.free(("A", "B", "C")).constrain("A&B", "A&C", "B&C")
    shafer = Frame.shafer(("A", "B", "C"))
    assert f == shafer
    assert hash(f) == hash(shafer)
    assert f.model.kind == "shafer"


@pytest.mark.parametrize("frame", [
    Frame.free(("A", "B", "C")),
    Frame.shafer(("A", "B", "C")),
    Frame.free(("A", "B", "C")).constrain("A&C"),
], ids=["free", "shafer", "hybrid"])
def test_empty_and_surviving_atoms_split_the_universe(frame):
    assert not frame.empty_atoms & frame.surviving_atoms
    assert frame.empty_atoms | frame.surviving_atoms == frozenset(range(1, 1 << frame.n))


def test_shafer_frame_over_64_hypotheses_keeps_64_atoms():
    f = Frame.shafer([f"H{i}" for i in range(64)])
    assert len(f.surviving_atoms) == 64
    assert f.is_shafer
    assert f.parse("H0|H63").cardinality == 2


def test_empty_atoms_past_the_size_guard_raise():
    # The 2^64 candidate atoms of this frame would exhaust memory.
    f = Frame.shafer([f"H{i}" for i in range(64)])
    with pytest.raises(FrameTooLargeError, match="18 hypotheses"):
        f.empty_atoms
    with pytest.raises(FrameTooLargeError, match="18 hypotheses"):
        f.model


def test_free_frame_past_the_size_guard_raises_before_building():
    names = [f"H{i}" for i in range(24)]
    with pytest.raises(FrameTooLargeError, match="18 hypotheses"):
        Frame(names)
    with pytest.raises(FrameTooLargeError):
        Frame.free(names)


# A Shafer model of 16 hypotheses with four pairwise overlaps left
# non-empty: the model line constrains the other 116 pairs.
WIDE_HYBRID = (
    "frame: A B C D E F G H I J K L M N O P\n"
    "model: constrain A&B=0, A&C=0, A&D=0, A&E=0, A&F=0, A&G=0, A&H=0, "
    "A&I=0, A&J=0, A&K=0, A&L=0, A&M=0, A&N=0, A&O=0, A&P=0, B&C=0, B&D=0, "
    "B&E=0, B&F=0, B&G=0, B&H=0, B&I=0, B&J=0, B&K=0, B&L=0, B&M=0, B&N=0, "
    "B&O=0, B&P=0, C&D=0, C&E=0, C&F=0, C&G=0, C&H=0, C&I=0, C&J=0, C&K=0, "
    "C&L=0, C&M=0, C&O=0, C&P=0, D&E=0, D&F=0, D&G=0, D&H=0, D&I=0, D&J=0, "
    "D&K=0, D&L=0, D&M=0, D&N=0, D&O=0, D&P=0, E&F=0, E&G=0, E&I=0, E&J=0, "
    "E&K=0, E&L=0, E&M=0, E&N=0, E&O=0, E&P=0, F&G=0, F&H=0, F&I=0, F&J=0, "
    "F&L=0, F&M=0, F&N=0, F&O=0, F&P=0, G&H=0, G&J=0, G&K=0, G&L=0, G&M=0, "
    "G&N=0, G&O=0, G&P=0, H&I=0, H&J=0, H&K=0, H&L=0, H&M=0, H&N=0, H&O=0, "
    "H&P=0, I&J=0, I&K=0, I&L=0, I&M=0, I&N=0, I&O=0, I&P=0, J&K=0, J&L=0, "
    "J&M=0, J&N=0, J&O=0, J&P=0, K&L=0, K&M=0, K&N=0, K&O=0, K&P=0, L&M=0, "
    "L&N=0, L&O=0, L&P=0, M&N=0, M&O=0, M&P=0, N&O=0, N&P=0, O&P=0\n"
    "source m1: F|K=0.2788507768558397, B|H|P=0.34633623796147767, "
    "G|L|N=0.2804380494394441, D|I|L=0.0943749357432385\n"
    "source m2: C|E|K=0.34410344123476844, C|D|M=0.3669779919008193, "
    "B|F|I=0.06193686433059152, E|J|L=0.22698170253382072\n"
)


def _traced_peak(build):
    """What ``build()`` returns, and the peak of the Python allocations it made."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_hybrid_problem_parses_without_building_the_free_frame_atom_sets():
    problem, peak = _traced_peak(lambda: parse_problem(WIDE_HYBRID))
    assert peak < 4 * 2**20, peak
    # Brute force over the 2^16 - 1 candidate atoms: an atom survives
    # when it holds no constrained pair.
    names = problem.frame.names
    model = WIDE_HYBRID.splitlines()[1].removeprefix("model: constrain ")
    pairs = [sum(1 << names.index(name) for name in text.removesuffix("=0").split("&"))
             for text in model.split(", ")]
    assert len(pairs) == 116
    surviving = {a for a in range(1, 1 << 16) if not any(a & pair == pair for pair in pairs)}
    assert len(surviving) == 20
    assert problem.frame.surviving_atoms == surviving


def test_free_frame_at_the_size_guard_builds_small():
    names = [f"H{i}" for i in range(FREE_FRAME_GUARD)]
    frame, peak = _traced_peak(lambda: Frame.free(names))
    assert peak < 4 * 2**20, peak
    last = names[-1]
    assert frame.parse(f"H0&{last}").cardinality == 1 << (FREE_FRAME_GUARD - 2)


def test_surviving_atoms_must_lie_in_the_atom_universe():
    with pytest.raises(ValueError, match="outside"):
        Frame(("A", "B"), {1, 4})
    with pytest.raises(ValueError, match="outside"):
        Frame(("A", "B"), {0, 1})
