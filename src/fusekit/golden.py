"""Embedded verification cases and the command that re-runs them.

Each golden case is a complete problem file plus the expected output of
one rule, with a tolerance matched to the precision of the published
figure it reproduces.  The verify command re-runs the whole set; a
perturbation hook exists so tests can prove the checks actually bite.
"""

from collections import namedtuple

from .errors import FusionError
from .mass import MassFunction
from .problem import parse_problem
# Outcome and execute_problem live in registry; they import from here too.
from .registry import Outcome, execute_problem  # noqa: F401


class GoldenCase(namedtuple("GoldenCase", "name text rule expected checks tolerance "
                                          "expect_error pinned",
                            defaults=((), (), 1e-9, None, None))):
    """A problem file, the rule to run on it and the figures it must give."""

    __slots__ = ()


_MURPHY_SOURCES = """
frame: A B C
model: shafer
source m1: A=0.2, B=0.4, C=0.3, A|B=0.1
source m2: A=0.1, B=0.3, C=0.4, A|B=0.2
"""

_DEGENERATE_SOURCES = """
# Subnormal sources: the missing mass is declared contradictory outright.
frame: A B C
model: shafer
source m1: A=0.2, B=0.4, C=0.3, A&~A=0.1
source m2: A=0.1, B=0.3, C=0.4, A&~A=0.2
event: constrain B=0
"""

_PCR_BINARY = """
frame: A B
model: shafer
source m1: A=0.6, A|B=0.4
source m2: B=0.3, A|B=0.7
"""

_MINC_SOURCES = """
frame: A B C
model: shafer
source m1: A=0.5, B|C=0.1, A|B|C=0.4
source m2: A=0.7, B|C=0.2, A|B|C=0.1
"""

_UFT_SOURCES = """
frame: A B C D
source s1: A=0.2, B=0.5, A|B=0.3
source s2: A=0.4, B=0.4, A|B=0.2
"""


def _zadeh(e):
    return (
        f"frame: A B C\nmodel: shafer\n"
        f"source m1: A={1 - e!r}, C={e!r}\n"
        f"source m2: B={1 - e!r}, C={e!r}\n"
    )


GOLDEN_CASES = (
    GoldenCase(
        name="two-certain-agreeing-dempster",
        text="frame: A B\nmodel: shafer\nsource m1: A=1\nsource m2: A=1\n",
        rule="dempster",
        expected=(("A", 1.0),),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="near-conflict-dempster-e0.01",
        text=_zadeh(0.01),
        rule="dempster",
        expected=(("C", 1.0),),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="near-conflict-dempster-e0.1",
        text=_zadeh(0.1),
        rule="dempster",
        expected=(("C", 1.0),),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="near-conflict-dempster-e0.3",
        text=_zadeh(0.3),
        rule="dempster",
        expected=(("C", 1.0),),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="total-conflict-dempster",
        text=(
            "frame: A B C D\nmodel: shafer\n"
            "source m1: A=0.6, C=0.4\nsource m2: B=0.7, D=0.3\n"
        ),
        rule="dempster",
        expect_error="TotalConflictError",
    ),
    GoldenCase(
        name="statistical-average",
        text=_MURPHY_SOURCES,
        rule="murphy",
        expected=(("A", 0.15), ("B", 0.35), ("C", 0.35), ("A|B", 0.15)),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="hybrid-transfer-cross-sections",
        text=(
            "frame: A B C\n"
            "model: constrain A&C=0, B&C=0\n"
            "source m1: A=0.5, B=0.2, C=0.3\n"
            "source m2: A=0.4, B=0.4, C=0.2\n"
        ),
        rule="dsmh",
        expected=(
            ("A", 0.20), ("B", 0.08), ("C", 0.06),
            ("A&B", 0.28), ("A|C", 0.22), ("B|C", 0.16),
        ),
        tolerance=1e-12,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="union-transfer-dynamic-incomplete",
        text=(
            "frame: A B C\nmodel: shafer\n"
            "source m1: A=0.2, B=0.4, C=0.3, A|B=0.1\n"
            "source m2: A=0.1, B=0.3, C=0.4, A|B=0.2\n"
            "event: constrain C=0\n"
        ),
        rule="dubois-prade",
        expected=(("B", 0.48), ("A", 0.18), ("A|B", 0.22)),
        tolerance=1e-12,
        checks=(("total", 0.88), ("lost", 0.12)),
        pinned=(
            "published table prints A=.28, A|B=.12; the rule's own formula "
            "gives A=.18, A|B=.22 (B, the total, and A+(A|B) agree either way)"
        ),
    ),
    GoldenCase(
        name="column-average-degenerate",
        text=_DEGENERATE_SOURCES,
        rule="wao",
        expected=(("A", 0.149), ("C", 0.421)),
        tolerance=5e-4,
        checks=(("total", 0.570),),
    ),
    GoldenCase(
        name="column-sum-degenerate",
        text=_DEGENERATE_SOURCES,
        rule="pcr1",
        expected=(("A", 0.278), ("C", 0.722)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="own-mass-split-basic",
        text=_PCR_BINARY,
        rule="pcr5",
        expected=(("A", 0.54), ("B", 0.18), ("A|B", 0.28)),
        tolerance=5e-4,
    ),
    GoldenCase(
        name="involved-column-split-basic",
        text=_PCR_BINARY,
        rule="pcr2",
        expected=(("A", 0.54), ("B", 0.18), ("A|B", 0.28)),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="pairwise-column-split-basic",
        text=_PCR_BINARY,
        rule="pcr3",
        expected=(("A", 0.54), ("B", 0.18), ("A|B", 0.28)),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="own-mass-split-onesided",
        text=(
            "frame: A B\nmodel: shafer\n"
            "source m1: A=0.6, A|B=0.4\n"
            "source m2: A=0.2, B=0.3, A|B=0.5\n"
        ),
        rule="pcr5",
        expected=(("A", 0.62), ("B", 0.18), ("A|B", 0.20)),
        tolerance=5e-4,
    ),
    GoldenCase(
        name="own-mass-split-twosided",
        text=(
            "frame: A B\nmodel: shafer\n"
            "source m1: A=0.6, B=0.3, A|B=0.1\n"
            "source m2: A=0.2, B=0.3, A|B=0.5\n"
        ),
        rule="pcr5",
        expected=(("A", 0.584), ("B", 0.366), ("A|B", 0.050)),
        tolerance=5e-4,
    ),
    GoldenCase(
        name="conjunctive-weighted-pair-split",
        text=_MINC_SOURCES,
        rule="pcr4",
        expected=(("A", 0.826329), ("B|C", 0.133671), ("A|B|C", 0.04)),
        tolerance=1e-6,
    ),
    GoldenCase(
        name="part-subset-recipients",
        text=_MINC_SOURCES,
        rule="minc-a",
        expected=(("A", 0.819277), ("B|C", 0.132530), ("A|B|C", 0.048193)),
        tolerance=1e-6,
    ),
    GoldenCase(
        name="singleton-union-recipients",
        text=_MINC_SOURCES,
        rule="minc-b",
        expected=(("A", 0.819277), ("B|C", 0.132530), ("A|B|C", 0.048193)),
        tolerance=1e-6,
    ),
    GoldenCase(
        name="scenario-keep-intersection",
        text=_UFT_SOURCES + "scenario: case 1.1.1\n",
        rule="uft",
        expected=(("A", 0.24), ("B", 0.42), ("A|B", 0.06), ("A&B", 0.28)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-at-least-one-reliable",
        text=_UFT_SOURCES + "scenario: case 2\n",
        rule="uft",
        expected=(("A", 0.08), ("B", 0.20), ("A|B", 0.72)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-split-to-operands",
        text=_UFT_SOURCES + "scenario: case 1.2.1\n",
        rule="uft",
        expected=(("A", 0.356), ("B", 0.584), ("A|B", 0.060)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-union-route",
        text=_UFT_SOURCES + "scenario: case 1.2.3\n",
        rule="uft",
        expected=(("A", 0.24), ("B", 0.42), ("A|B", 0.34)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-to-ignorance",
        text=_UFT_SOURCES + "scenario: case 1.2.5.1\n",
        rule="uft",
        expected=(("A", 0.24), ("B", 0.42), ("A|B", 0.06), ("A|B|C|D", 0.28)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-to-empty",
        text=_UFT_SOURCES + "scenario: case 1.2.5.2\n",
        rule="uft",
        expected=(("A", 0.24), ("B", 0.42), ("A|B", 0.06), ("A&~A", 0.28)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-right-side-known",
        text=_UFT_SOURCES + "scenario: case 1.2.6 right A\n",
        rule="uft",
        expected=(("A", 0.52), ("B", 0.42), ("A|B", 0.06)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-both-wrong",
        text=_UFT_SOURCES + "scenario: case 1.2.7 recipients C D\n",
        rule="uft",
        expected=(("A", 0.24), ("B", 0.42), ("A|B", 0.06), ("C", 0.14), ("D", 0.14)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="scenario-discounted-conjunctive",
        text=_UFT_SOURCES + "scenario: case 3\ndiscount: s2=0.8\n",
        rule="uft",
        expected=(("A", 0.232), ("B", 0.436), ("A|B", 0.108), ("A&B", 0.224)),
        tolerance=5e-4,
        checks=(("total", 1.0),),
    ),
    GoldenCase(
        name="bayesian-dominance-consensus",
        text=(
            "frame: A B\nmodel: shafer\n"
            "source m1: A=0.3, B=0.7\n"
            "source m2: A=0.8, B=0.1, A|B=0.1\n"
            "param: focus=A\n"
        ),
        rule="consensus",
        expected=(
            ("belief", 0.3), ("disbelief", 0.7),
            ("uncertainty", 0.0), ("atomicity", 0.5),
        ),
        tolerance=1e-12,
    ),
    GoldenCase(
        name="interval-midpoint-average",
        text=(
            "frame-intervals:\n"
            "source m1: [2,5]=0.6, [1,3]=0.4\n"
            "source m2: [2,5]=0.7, [1,3]=0.3\n"
        ),
        rule="xavg",
        expected=(("[1.5,4]", 0.46), ("[2,5]", 0.42), ("[1,3]", 0.12)),
        tolerance=1e-12,
    ),
)


class CaseReport(namedtuple("CaseReport", "name ok details")):
    """Whether one golden case passed, and the lines that say why."""

    __slots__ = ()


class GoldenReport(namedtuple("GoldenReport", "cases")):
    """The reports of every golden case."""

    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.cases)

    @property
    def passed(self):
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self):
        return sum(1 for c in self.cases if not c.ok)

    def lines(self):
        out = []
        for c in self.cases:
            mark = "PASS" if c.ok else "FAIL"
            out.append(f"{mark}  {c.name}")
            for d in c.details:
                out.append(f"      {d}")
        out.append(f"{self.passed} passed, {self.failed} failed, {len(self.cases)} total")
        return out


def run_case(case, perturb=None):
    """Run one golden case; the optional hook edits the parsed problem."""
    try:
        problem = parse_problem(case.text)
        if perturb is not None:
            problem = perturb(problem)
        outcome = execute_problem(problem, case.rule)
    except (FusionError, TypeError, ValueError) as exc:
        if case.expect_error and type(exc).__name__ == case.expect_error:
            return CaseReport(case.name, True, (f"raised {case.expect_error} as required",))
        # A broken input must fail its case, not abort the whole sweep.
        return CaseReport(case.name, False,
                          (f"unexpected error: {type(exc).__name__}: {exc}",))
    if case.expect_error:
        return CaseReport(case.name, False,
                          (f"expected {case.expect_error}, rule returned a result",))

    failures, max_delta = [], 0.0
    for key, want in case.expected:
        got = _lookup(outcome, key)
        if got is None:
            failures.append(f"{key}: missing from result")
            continue
        delta = abs(got - want)
        max_delta = max(max_delta, delta)
        if delta > case.tolerance:
            failures.append(f"{key}: got {got:.9f}, want {want:.9f}, delta {delta:.3e}")
    for what, want in case.checks:
        got = _check_value(outcome, what)
        delta = abs(got - want)
        max_delta = max(max_delta, delta)
        if delta > max(case.tolerance, 1e-9):
            failures.append(f"{what}: got {got:.9f}, want {want:.9f}, delta {delta:.3e}")
    ok = not failures
    details = (*failures, f"max delta {max_delta:.3e} (tolerance {case.tolerance:g})")
    if case.pinned and ok:
        details = (*details, f"pinned: {case.pinned}")
    return CaseReport(case.name, ok, details)


def _lookup(outcome, key):
    if outcome.kind == "opinion":
        return getattr(outcome.opinion, key, None)
    return outcome.combined.mass(outcome.frame.parse(key))


def _check_value(outcome, what):
    if what == "total":
        return outcome.combined.total
    if what == "lost":
        return outcome.result.conflict.lost
    raise ValueError(f"unknown check {what!r}")


def verify_golden(perturb=None):
    """Run every golden case; returns a report with per-case details."""
    return GoldenReport(tuple(run_case(c, perturb=perturb) for c in GOLDEN_CASES))


def bump_first_mass(delta=1e-3):
    """A perturbation hook: nudge the first focal mass of source one."""

    def hook(problem):
        name, m = problem.sources[0]
        items = list(m.items())
        el, v = items[0]
        rest = dict(items[1:])
        rest[el] = v + delta
        problem.sources[0] = (name, MassFunction(m.frame, rest))
        return problem

    return hook
