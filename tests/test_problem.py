"""Problem-file grammar, rendering, and parameter coercion."""

import itertools

import pytest

from fusekit import (
    GOLDEN_CASES,
    Frame,
    FusionError,
    IntervalElement,
    MassFunction,
    ParseError,
    ProblemFile,
    UnknownLabelError,
    execute_problem,
    parse_problem,
    scenario_config,
)
from fusekit.cli import build_table, main
from fusekit.frame import FREE_FRAME_GUARD, parse_expression_text
from fusekit.problem import _declared_frame, coerce_params

BASIC = """\
frame: A B C
model: shafer
source s1: A=0.5, B=0.3, A|B=0.2
source s2: C=1.0
"""


def test_parse_basic_problem():
    p = parse_problem(BASIC)
    assert p.frame.names == ("A", "B", "C")
    assert p.frame.is_shafer
    assert p.model_kind == "shafer"
    names = [name for name, _ in p.sources]
    assert names == ["s1", "s2"]
    m1 = p.source_masses[0]
    assert m1.mass(p.frame.label("A")) == 0.5
    assert m1.mass(p.frame.parse("A|B")) == 0.2


def test_comments_and_blanks_are_ignored():
    text = "\n# heading\nframe: A B  # trailing\n\nsource s1: A=1.0\n"
    p = parse_problem(text)
    assert p.frame.names == ("A", "B")
    assert p.model_kind == "free"


def test_model_constrain():
    text = "frame: A B C\nmodel: constrain A&B=0, A&C=0\nsource s1: A=1.0\n"
    p = parse_problem(text)
    assert p.model_kind == "constrain"
    assert p.model_constraints == ("A&B", "A&C")
    assert p.frame.parse("A&B").is_empty
    assert not p.frame.parse("B&C").is_empty


def test_duplicate_focals_merge():
    p = parse_problem("frame: A B\nsource s1: A=0.2, A=0.3, B=0.5\n")
    assert p.source_masses[0].mass(p.frame.label("A")) == 0.5


@pytest.mark.parametrize("masses,message", [
    ("A=nan", "line 4: non-finite mass nan on A"),
    ("B=0.5, A=inf", "line 4: non-finite mass inf on A"),
    ("A=1e308, B=1e308", "line 4: masses total more than the largest float"),
])
def test_a_label_source_the_constructor_refuses_fails_at_its_line(masses, message, tmp_path,
                                                                 capsys):
    text = f"frame: A B\nmodel: shafer\nsource s1: B=1\nsource s2: {masses}\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == message
    path = tmp_path / "problem.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["--rule", "dempster", "--input", str(path)]) == 4
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_a_label_source_drops_zero_masses_and_merges_equal_elements():
    p = parse_problem("frame: A B C\nsource s1: A=0, B=0.5, C=0.0\n"
                      "source s2: A|B=0.2, C=0.5, B|A=0.3\n")
    (one, v), = p.source_masses[0].items()
    assert one.text == "B" and v == 0.5
    (ab, v), (c, w) = p.source_masses[1].items()
    assert (ab.text, v, c.text, w) == ("A|B", 0.5, "C", 0.5)
    assert p.render().splitlines()[2:] == ["source s1: B=0.5", "source s2: A|B=0.5, C=0.5"]


@pytest.mark.parametrize("text,lineno,fragment", [
    ("frame A B", 1, "expected '<keyword>:"),
    ("frames: A B\n", 1, "unknown declaration"),
    ("frame: A 2B\n", 1, "bad label"),
    ("frame: A A\n", 1, "duplicate labels"),
    ("frame: A\nframe: B\n", 2, "frame already declared"),
    ("frame:\nsource s1: A=1\n", 1, "at least one label"),
    ("frame-intervals: x\n", 1, "no arguments"),
    ("frame: A B\nmodel: free\nmodel: shafer\n", 3, "model already declared"),
    ("frame: A B\nmodel: openworld\n", 2, "model must be free, shafer"),
    ("frame: A B\nmodel: constrain A&B=1\n", 2, "must read <expr>=0"),
    ("frame: A B\nsource: A=1\n", 2, "source needs a name"),
    ("frame: A B\nsource s1: A=abc\n", 2, "bad mass"),
    ("frame: A B\nsource s1: A=-0.2\n", 2, "negative mass"),
    ("frame: A B\nsource s1: A=0.5,,B=0.5\n", 2, "empty assignment"),
    ("frame: A B\nsource s1: A 0.5\n", 2, "expected <expr>=<value>"),
    ("frame: A B\nsource s1: Q=1\n", 2, "Q"),
    ("frame: A B\nsource s1: A=1\nevent: remove A\n", 3, "event must read"),
    ("frame: A B\nsource s1: A=1\nevent: constrain A=0, B=0\n", 3,
     "one constraint per event"),
    ("frame: A B\nsource s1: A=1\nevent: constrain A=1\n", 3, "must read <expr>=0"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1\nscenario: case 2\n", 4,
     "scenario already declared"),
    ("frame: A B\nsource s1: A=1\nscenario: attitude split\n", 3,
     "scenario must read"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.6 right\n", 3,
     "right needs an element"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.6 right A right B\n", 3,
     "right already given"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.7 recipients right A\n", 3,
     "recipients needs at least one"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1 fallback union\n", 3,
     "unexpected scenario token"),
    ("frame: A B\nsource s1: A=1\nscenario: case 9.9\n", 3,
     "unknown scenario case '9.9'"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.6\n", 3,
     "case 1.2.6 needs 'right <expr>'"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.7\n", 3,
     "case 1.2.7 needs 'recipients <expr>'"),
    ("frame: A B C\nsource s1: A=1\nscenario: case 1.2.5.1 recipients C right A\n", 3,
     "case 1.2.5.1 does not read 'right'"),
    ("frame: A B\nsource s1: A=1\nscenario: case 2 right A\n", 3,
     "case 2 does not read 'right'"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.6 right A recipients B\n", 3,
     "case 1.2.6 does not read 'recipients'"),
    ("frame: A B\nsource s1: A=1\nscenario: case 1.2.7 right A recipients B\n", 3,
     "case 1.2.7 does not read 'right'"),
    ("frame: A B\nsource s1: A=1\nsource s2: B=1\nsource s1: B=1\n", 4,
     "source 's1' already declared"),
    ("frame: A B\nsource s1: A=1\nparam: =5\n", 3, "param needs a key"),
    ("frame: A B\nsource s1: A=1\ndiscount: s1=soon\n", 3, "bad discount factor"),
    ("frame-intervals:\nmodel: free\n", 2, "interval problems have no model"),
    ("frame-intervals:\nevent: constrain A=0\n", 2, "interval problems have no events"),
    ("frame-intervals:\nscenario: case 1\n", 2, "interval problems have no scenario"),
    ("model: shafer\nscenario: case 2\nframe-intervals:\nsource s1: [1,2]=1\nsource s2: [2,3]=1\n", 1,
     "interval problems have no model"),
    ("scenario: case 3\ndiscount: s1=0.5\nframe-intervals:\nsource s1: [1,2]=1\n", 1,
     "interval problems have no scenario"),
    ("event: constrain A=0\nframe-intervals:\nsource s1: [1,2]=1\n", 1,
     "interval problems have no events"),
    ("frame-intervals:\nsource s1: A=1\n", 2, "expected [lo,hi] interval"),
    ("frame-intervals:\nsource s1: [3,1]=1\n", 2, "out of order"),
    ("frame-intervals:\nsource s1: [1,2]=-0.5, [2,3]=1.5\n", 2, "negative mass -0.5 on [1,2]"),
    ("frame-intervals:\nsource s1: [1,2]=nan\n", 2, "non-finite mass nan on [1,2]"),
    ("frame-intervals:\nsource s1: [1,2]=inf\n", 2, "non-finite mass inf on [1,2]"),
    ("frame: A B\nfame: x\n", 2, "unknown declaration"),
])
def test_grammar_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value).startswith(f"line {lineno}:")
    assert fragment in str(err.value)


def test_missing_frame_and_sources():
    with pytest.raises(ParseError, match="declares no frame"):
        parse_problem("source s1: A=1\n")
    with pytest.raises(ParseError, match="declares no sources"):
        parse_problem("frame: A B\n")
    with pytest.raises(ParseError, match="declares no sources"):
        parse_problem("frame-intervals:\n")


def test_one_label_frame_fails_at_the_frame_line():
    with pytest.raises(ParseError) as err:
        parse_problem("# one hypothesis\nframe: A\nsource s1: A=1\n")
    assert str(err.value) == "line 2: a frame needs at least two hypotheses"


def test_shafer_model_builds_no_free_frame(monkeypatch):
    _declared_frame.cache_clear()  # a cold parse: no problem of this frame came before
    calls = []
    init = Frame.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", counting_init)
    problem = parse_problem("frame: A B C\nmodel: shafer\nsource s1: A=1\n")
    assert problem.frame.is_shafer
    assert len(calls) == 1


def test_cross_reference_errors():
    with pytest.raises(ParseError, match="event constraint"):
        parse_problem("frame: A B\nsource s1: A=1\nevent: constrain Q=0\n")
    with pytest.raises(ParseError, match="scenario recipient"):
        parse_problem(
            "frame: A B\nsource s1: A=1\nscenario: case 1.2.7 recipients Q\n"
        )
    with pytest.raises(ParseError, match="scenario right"):
        parse_problem("frame: A B\nsource s1: A=1\nscenario: case 1.2.6 right Q\n")


def test_events_tighten_the_frame():
    text = (
        "frame: A B\n"
        "source s1: A=0.5, A&B=0.5\n"
        "event: constrain A&B=0\n"
    )
    p = parse_problem(text)
    assert not p.frame.parse("A&B").is_empty
    final = p.final_frame()
    assert final.parse("A&B").is_empty
    moved = p.final_sources()[0]
    assert moved.frame == final
    assert moved.mass(final.empty()) == 0.5
    # Without events the originals come back untouched.
    q = parse_problem("frame: A B\nsource s1: A=1.0\n")
    assert q.final_sources() == q.source_masses


def test_golden_case_texts_render_round_trip():
    for case in GOLDEN_CASES:
        p = parse_problem(case.text)
        again = parse_problem(p.render())
        assert again == p, case.name


def test_render_empty_focal_round_trip():
    text = "frame: A B\nmodel: shafer\nsource s1: A&~A=0.3, A=0.7\n"
    p = parse_problem(text)
    rendered = p.render()
    assert "A&~A" in rendered
    assert parse_problem(rendered) == p


def test_render_bare_empty_focal_round_trip():
    # frame.empty() has no expression of its own to print.
    f = Frame.shafer(("A", "B"))
    p = ProblemFile(frame=f, model_kind="shafer",
                    sources=[("s1", MassFunction(f, {f.empty(): 0.3, "A": 0.7}))])
    rendered = p.render()
    assert "source s1: A&~A=0.3, A=0.7\n" in rendered
    assert parse_problem(rendered) == p


def test_render_interval_round_trip():
    text = "frame-intervals:\nsource s1: [1,3]=0.3, [2,5]=0.7\nsource s2: [1,3]=1.0\n"
    p = parse_problem(text)
    assert p.interval
    m1 = p.source_masses[0]
    assert m1.mass(IntervalElement(1, 3)) == 0.3
    assert parse_problem(p.render()) == p


def test_render_interval_round_trip_keeps_every_digit():
    # Bounds that agree to six digits, and one a six-digit format would
    # print with an exponent, which the grammar rejects.
    text = ("frame-intervals:\n"
            "source s1: [1.23456789,2]=0.25, [1.2345678,2]=0.25, [0.00001,1000000]=0.5\n")
    p = parse_problem(text)
    rendered = p.render()
    assert "[1.23456789,2]=0.25, [1.2345678,2]=0.25, [0.00001,1000000]=0.5" in rendered
    assert parse_problem(rendered) == p


def test_interval_duplicates_merge():
    p = parse_problem("frame-intervals:\nsource s1: [1,3]=0.4, [1.0,3.0]=0.6\n")
    assert p.source_masses[0].mass(IntervalElement(1, 3)) == 1.0


def test_scenario_parsing_and_config():
    text = (
        "frame: A B C D\n"
        "source s1: A=0.2, B=0.5, A|B=0.3\n"
        "source s2: A=0.4, B=0.4, A|B=0.2\n"
        "scenario: case 1.2.7 recipients C D\n"
    )
    p = parse_problem(text)
    assert p.scenario == {"case": "1.2.7", "recipients": ["C", "D"], "right": None}
    cfg = scenario_config(p)
    assert cfg.default_attitude.kind == "both-wrong"
    frame = p.final_frame()
    assert cfg.default_attitude.recipients == (frame.label("C"), frame.label("D"))


def test_scenario_config_right_and_discounts():
    text = (
        "frame: A B\n"
        "source s1: A=1.0\n"
        "source s2: B=1.0\n"
        "scenario: case 3\n"
        "discount: s2=0.8\n"
    )
    p = parse_problem(text)
    cfg = scenario_config(p)
    assert cfg.reliability == "discounts"
    # Sources without a declared factor stay fully reliable.
    assert cfg.discounts == (1.0, 0.8)

    q = parse_problem(
        "frame: A B\nsource s1: A=1.0\nscenario: case 1.2.6 right A|B\n"
    )
    cfg = scenario_config(q)
    assert cfg.default_attitude.kind == "right"
    assert cfg.default_attitude.right == q.final_frame().parse("A|B")

    bare = parse_problem("frame: A B\nsource s1: A=1.0\n")
    assert scenario_config(bare).reliability == "all-reliable"


def test_params_collect_raw_strings():
    p = parse_problem("frame: A B\nsource s1: A=1\nparam: p=0.5, mode=fast\n")
    assert p.params == {"p": "0.5", "mode": "fast"}


def test_coerce_params():
    out = coerce_params({
        "p": "0.5",
        "weights": "A:0.5, B:0.5",
        "dogmatic-bayesian": "true",
        "version": "b",
    })
    assert out["p"] == 0.5
    assert out["weights"] == {"A": 0.5, "B": 0.5}
    assert out["dogmatic_bayesian"] is True
    assert out["version"] == "b"
    assert coerce_params({"weights": "0.2, 0.8"})["weights"] == [0.2, 0.8]
    assert coerce_params({"dogmatic_bayesian": "no"})["dogmatic_bayesian"] is False
    # Already-typed values pass through untouched.
    assert coerce_params({"p": 1.5, "weights": {"A": 1.0}}) == {
        "p": 1.5, "weights": {"A": 1.0},
    }


@pytest.mark.parametrize("line,params", [
    ("param: weights=A:0.5,B:0.5", {"weights": "A:0.5,B:0.5"}),
    ("param: weights=1,2", {"weights": "1,2"}),
    ("param: weights=A:0.5, B:0.5, p=0.3", {"weights": "A:0.5, B:0.5", "p": "0.3"}),
])
def test_param_values_may_hold_commas(line, params):
    p = parse_problem(f"frame: A B\nsource s1: A=1\n{line}\n")
    assert p.params == params
    assert parse_problem(p.render()) == p


@pytest.mark.parametrize("value", ["p=nan", "p=inf", "weights=nan,1", "weights=A:-inf,B:1"])
def test_non_finite_param_fails_at_its_line(value):
    with pytest.raises(ParseError) as err:
        parse_problem(f"frame: A B\nsource s1: A=1\nparam: {value}\n")
    assert str(err.value).startswith("line 3: bad param value:")
    assert "must be finite" in str(err.value)


_TWO_SOURCES = "frame: A B\nsource s1: A=1\nsource s2: B=1\n"


@pytest.mark.parametrize("tail,lineno,fragment", [
    ("scenario: case 3\ndiscount: s2=1.5\n", 5, "must be in [0, 1], got 1.5"),
    ("scenario: case 3\ndiscount: s2=nan\n", 5, "must be in [0, 1], got nan"),
    ("scenario: case 3\ndiscount: s2=-0.1\n", 5, "must be in [0, 1]"),
    ("scenario: case 3\ndiscount: mm1=0.5\n", 5, "names no declared source: 'mm1'"),
    ("discount: s2=0.5\nscenario: case 3\ndiscount: mm1=0.5\n", 6, "no declared source"),
    ("discount: s2=0.5\n", 4, "need 'scenario: case 3'"),
    ("scenario: case 1.2.1\ndiscount: s1=0.5\n", 5, "need 'scenario: case 3'"),
    ("discount: s1=0.5\nscenario: case 1\n", 4, "need 'scenario: case 3'"),
])
def test_discount_lines_are_checked_at_parse(tail, lineno, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem(_TWO_SOURCES + tail)
    assert str(err.value).startswith(f"line {lineno}:")
    assert fragment in str(err.value)


def test_discount_line_before_its_scenario_and_source_parses():
    p = parse_problem("frame: A B\ndiscount: s2=0.8\nsource s1: A=1\n"
                      "scenario: case 3\nsource s2: B=1\n")
    assert scenario_config(p).discounts == (1.0, 0.8)


def test_malformed_param_value_fails_at_its_line():
    with pytest.raises(ParseError) as err:
        parse_problem("frame: A B\nsource s1: A=1\nparam: mode=fast\nparam: p=x\n")
    assert str(err.value).startswith("line 4: bad param value:")
    assert "'x'" in str(err.value)


@pytest.mark.parametrize("model", ["", "model: constrain H0&H1=0\n"])
def test_free_frame_past_the_size_guard_fails_at_the_frame_line(model):
    labels = " ".join(f"H{i}" for i in range(24))
    with pytest.raises(ParseError) as err:
        parse_problem(f"# wide\nframe: {labels}\n{model}source s1: H0=1\n")
    assert str(err.value) == "line 2: free frames are limited to 18 hypotheses, frame has 24"


_TWO_EVENTS = """\
frame: A B C
source m1: A=0.5, B|C=0.3, A&B=0.2
source m2: B=0.6, A|C=0.4
event: constrain A&B=0
event: constrain B&C=0
"""


def _counted_frame_builds(monkeypatch):
    """The arguments of every Frame built from now on, one entry per build."""
    calls = []
    init = Frame.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", counting_init)
    return calls


@pytest.mark.parametrize("rule,tail,most", [
    ("dempster", "", 1),
    ("uft", "scenario: case 1.2.1\n", 2),
])
def test_a_problem_run_builds_its_final_frame_once(monkeypatch, rule, tail, most):
    problem = parse_problem(_TWO_EVENTS + tail)
    calls = _counted_frame_builds(monkeypatch)
    outcome = execute_problem(problem, rule)
    assert 1 <= len(calls) <= most
    assert outcome.frame == problem.frame.constrain("A&B").constrain("B&C")
    assert outcome.combined.frame is outcome.frame


def test_a_uft_run_builds_its_attitudes_on_the_sources_frame(monkeypatch):
    problem = parse_problem(_TWO_EVENTS + "scenario: case 1.2.6 right A\n")
    calls = _counted_frame_builds(monkeypatch)
    outcome = execute_problem(problem, "uft")
    assert len(calls) == 1
    partials = outcome.result.conflict.partials
    assert partials and all(p.note == "A declared right" for p in partials)
    for p in partials:
        (right, _), = p.shares
        assert right.frame is outcome.result.sources[0].frame


# -- memos: one frame per declaration, one tree per expression text ---------

def _clear_memos():
    _declared_frame.cache_clear()
    parse_expression_text.cache_clear()


def _tables(cases, rule, cold):
    """Each case's rendered table and export under ``rule`` (or its error),
    by name; with ``cold`` every case starts from empty memos."""
    out = {}
    for case in cases:
        if cold:
            _clear_memos()
        try:
            outcome = execute_problem(parse_problem(case.text), rule)
        except FusionError as exc:
            out[case.name] = f"{type(exc).__name__}: {exc}"
            continue
        table = build_table(outcome, rule)
        out[case.name] = table.render(), table.to_json_dict(outcome)
    return out


@pytest.mark.parametrize("rule", ["dempster", "dsmh", "pcr5", "minc-a", "uft"])
def test_shared_frames_and_trees_change_no_table(rule):
    cases = [case for case in GOLDEN_CASES if not parse_problem(case.text).interval]
    cold = _tables(cases, rule, cold=True)
    assert len(cold) == len(cases) > 20
    assert _tables(cases, rule, cold=False) == cold
    assert _tables(cases[::-1], rule, cold=False) == cold


def test_problems_of_one_declaration_share_one_frame():
    _clear_memos()
    for model in ("", "model: free\n", "model: shafer\n", "model: constrain A&B=0, C=0\n"):
        first = parse_problem(f"frame: A B C\n{model}source s1: A=1\n")
        again = parse_problem(f"# again\nframe: A B C\n{model}source s2: B|C=0.5, A=0.5\n")
        assert again.frame is first.frame, model
    # An undeclared model is the free model.
    assert parse_problem("frame: A B\nsource s1: A=1\n").frame is parse_problem(
        "frame: A B\nmodel: free\nsource s1: B=1\n").frame


def test_other_models_or_constraint_texts_give_other_frames():
    _clear_memos()
    frames = [parse_problem(f"frame: A B C\n{model}source s1: A=1\n").frame
              for model in ("model: free\n", "model: shafer\n", "model: constrain A&B=0\n",
                            "model: constrain A&C=0\n", "model: constrain A&B=0, C=0\n")]
    assert [f.kind for f in frames] == ["free", "shafer", "hybrid", "hybrid", "hybrid"]
    assert all(a != b for a, b in itertools.combinations(frames, 2))
    # Two texts of one constraint give equal frames, one built per text.
    ab, ba = (parse_problem(f"frame: A B C\nmodel: constrain {c}=0\nsource s1: A=1\n").frame
              for c in ("A&B", "B&A"))
    assert ab == ba and ab is not ba


@pytest.mark.parametrize("text,error,message", [
    ("frame: A B\nmodel: constrain Q=0\nsource s1: A=1\n", UnknownLabelError,
     "unknown hypothesis 'Q' (frame has A, B)"),
    ("frame: A B\nmodel: constrain A&=0\nsource s1: A=1\n", ParseError,
     "unexpected end or operator in 'A&'"),
    ("# wide\nframe: " + " ".join(f"H{i}" for i in range(FREE_FRAME_GUARD + 1))
     + "\nsource s1: H0=1\n", ParseError,
     f"line 2: free frames are limited to {FREE_FRAME_GUARD} hypotheses, "
     f"frame has {FREE_FRAME_GUARD + 1}"),
])
def test_a_declaration_that_fails_fails_alike_on_every_parse(text, error, message):
    _clear_memos()
    for _ in range(3):
        with pytest.raises(error) as err:
            parse_problem(text)
        assert str(err.value) == message
    assert _declared_frame.cache_info().currsize == 0


def test_a_focal_text_is_parsed_once_and_its_tree_shared():
    _clear_memos()
    one = parse_problem("frame: A B C\nmodel: shafer\nsource s1: A|B&~C=1\n")
    two = parse_problem("frame: A B C\nsource s1: A|B&~C=1\n")
    (el_one, _), = one.source_masses[0].items()
    (el_two, _), = two.source_masses[0].items()
    assert el_one.frame != el_two.frame and el_one.expr is el_two.expr
    assert parse_expression_text.cache_info().hits >= 1
    # A text that fails to parse fails on every call.
    for _ in range(2):
        with pytest.raises(ParseError, match="missing"):
            parse_expression_text("(A|B")
