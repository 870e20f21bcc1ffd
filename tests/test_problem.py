"""Problem-file grammar, rendering, and parameter coercion."""

import pytest

from fusekit import (
    GOLDEN_CASES,
    Frame,
    IntervalElement,
    MassFunction,
    ParseError,
    parse_problem,
    scenario_config,
)
from fusekit.problem import coerce_params

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
    ("frame: A B\nsource s1: A=1\nparam: =5\n", 3, "param needs a key"),
    ("frame: A B\nsource s1: A=1\ndiscount: s1=soon\n", 3, "bad discount factor"),
    ("frame-intervals:\nmodel: free\n", 2, "interval problems have no model"),
    ("frame-intervals:\nevent: constrain A=0\n", 2, "interval problems have no events"),
    ("frame-intervals:\nscenario: case 1\n", 2, "interval problems have no scenario"),
    ("frame-intervals:\nsource s1: A=1\n", 2, "expected [lo,hi] interval"),
    ("frame-intervals:\nsource s1: [3,1]=1\n", 2, "out of order"),
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


def test_render_interval_round_trip():
    text = "frame-intervals:\nsource s1: [1,3]=0.3, [2,5]=0.7\nsource s2: [1,3]=1.0\n"
    p = parse_problem(text)
    assert p.interval
    m1 = p.source_masses[0]
    assert m1.mass(IntervalElement(1, 3)) == 0.3
    assert parse_problem(p.render()) == p


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
