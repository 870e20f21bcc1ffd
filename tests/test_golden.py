"""The builtin worked-example suite must pass, and its checks must bite."""

import re

from fusekit import verify_golden
from fusekit.golden import bump_first_mass


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
