"""The builtin worked-example suite must pass, and its checks must bite."""

import re

import pytest

from fusekit import verify_golden
from fusekit.golden import GOLDEN_CASES, bump_first_mass, run_case


def _case(name):
    return next(c for c in GOLDEN_CASES if c.name == name)


def test_all_golden_cases_pass():
    report = verify_golden()
    assert report.ok, "\n".join(report.lines())
    assert report.failed == 0
    assert report.passed == len(report.cases) == 29


def test_perturbation_is_caught():
    report = verify_golden(perturb=bump_first_mass())
    assert not report.ok
    assert report.failed >= 1
    failed = {c.name for c in report.cases if not c.ok}
    assert "interval-midpoint-average" in failed


def test_report_lines_format():
    report = verify_golden()
    lines = report.lines()
    assert all(line.startswith(("PASS", "FAIL", " ")) for line in lines[:-1])
    assert re.fullmatch(r"29 passed, 0 failed, 29 total", lines[-1])
    # Every case states its observed worst deviation.
    assert sum("max delta" in line for line in lines) >= 28


def test_a_case_whose_expected_error_is_not_raised_fails():
    case = _case("two-certain-agreeing-dempster")._replace(expect_error="TotalConflictError")
    report = run_case(case)
    assert (report.ok, report.details) == (
        False, ("expected TotalConflictError, rule returned a result",))


def test_a_key_the_result_lacks_is_reported_missing():
    case = _case("bayesian-dominance-consensus")
    report = run_case(case._replace(expected=(*case.expected, ("bogus", 0.5))))
    assert not report.ok
    assert report.details[0] == "bogus: missing from result"


def test_an_unknown_check_raises():
    case = _case("two-certain-agreeing-dempster")._replace(checks=(("bogus", 1.0),))
    with pytest.raises(ValueError, match="^unknown check 'bogus'$"):
        run_case(case)
