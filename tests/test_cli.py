"""Command line behavior: tables, exports, exit codes, enumerate, verify."""

import json
import re
import subprocess
import sys

import pytest

from fusekit import execute_problem, parse_problem
from fusekit.cli import main

DP_DYNAMIC = """\
frame: A B C
model: shafer
source m1: A=0.2, B=0.4, C=0.3, A|B=0.1
source m2: A=0.1, B=0.3, C=0.4, A|B=0.2
event: constrain C=0
"""

PCR_BINARY = """\
frame: A B
model: shafer
source m1: A=0.6, A|B=0.4
source m2: B=0.3, A|B=0.7
"""

TOTAL_CONFLICT = """\
frame: A B
model: shafer
source m1: A=1.0
source m2: B=1.0
"""

BAYESIAN_PAIR = """\
frame: A B
model: shafer
source m1: A=0.3, B=0.7
source m2: A=0.5, B=0.5
"""


@pytest.fixture
def dp_file(tmp_path):
    path = tmp_path / "dp.txt"
    path.write_text(DP_DYNAMIC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_renders_sorted_table(dp_file, capsys):
    code, out, err = run_cli(capsys, "--rule", "dubois-prade", "--input", dp_file)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "rule: dubois-prade"
    assert lines[1].startswith("frame: A B C")
    # Rows come largest mass first, six decimals.
    rows = [ln for ln in lines if re.match(r"^(A\|B|A|B)\s+\d\.\d{6}$", ln)]
    assert [r.split()[0] for r in rows] == ["B", "A|B", "A"]
    assert rows[0].endswith("0.480000")
    assert rows[1].endswith("0.220000")
    assert rows[2].endswith("0.180000")
    footer = {ln.split()[0]: ln.split()[-1] for ln in lines if ln.startswith(("sum", "k12", "lost", "status"))}
    assert footer["sum"] == "0.880000"
    assert footer["k12"] == "0.680000"
    assert footer["lost"] == "0.120000"
    assert footer["status"] == "incomplete"
    assert "WARN mass lost on fully empty products: 0.120000" in lines
    assert "WARN incomplete: sum=0.880000" in lines


def test_table_masses_reparse_to_the_result(dp_file, capsys):
    code, out, _ = run_cli(capsys, "--rule", "dubois-prade", "--input", dp_file)
    assert code == 0
    printed = {}
    for ln in out.splitlines():
        m = re.match(r"^(\S+)\s+(\d\.\d{6})$", ln)
        if m and m.group(1) not in ("sum", "k12", "lost"):
            printed[m.group(1)] = float(m.group(2))
    problem = parse_problem(DP_DYNAMIC)
    outcome = execute_problem(problem, "dubois-prade")
    for el, v in outcome.combined.items():
        assert printed[el.display] == pytest.approx(v, abs=5e-7)


def test_export_json_record(dp_file, tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys, "--rule", "dubois-prade", "--input", dp_file, "--export", str(dest)
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    assert set(doc) == {"header", "rows", "footer", "warnings", "ledger"}
    assert doc["footer"]["status"] == "incomplete"
    assert doc["footer"]["sum"] == pytest.approx(0.88)
    assert doc["footer"]["k12"] == pytest.approx(0.68)
    assert doc["footer"]["lost"] == pytest.approx(0.12)
    assert {r["element"]: r["mass"] for r in doc["rows"]}["B"] == pytest.approx(0.48)
    assert any("mass lost" in w for w in doc["warnings"])
    # Every routed product is in the ledger; the irrecoverable one says so.
    assert len(doc["ledger"]) == 9
    lost = [e for e in doc["ledger"]
            if any(s["to"] is None for s in e["shares"])]
    assert len(lost) == 1
    assert lost[0]["mass"] == pytest.approx(0.12)
    for entry in doc["ledger"]:
        share_sum = sum(s["mass"] for s in entry["shares"])
        assert share_sum == pytest.approx(entry["mass"], abs=1e-12)


def test_export_signed_masses(tmp_path, capsys):
    src = tmp_path / "neg.txt"
    src.write_text(
        "frame: A B C\nmodel: shafer\n"
        "source m1: A|B=0.5, C=0.5\n"
        "source m2: A|C=0.5, B=0.5\n"
    )
    dest = tmp_path / "neg.json"
    code, out, _ = run_cli(
        capsys, "--rule", "cautious", "--input", str(src), "--export", str(dest)
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    signed = {e["element"]: e["mass"] for e in doc["signed_masses"]}
    assert signed["∅"] == pytest.approx(-0.5, abs=1e-12)
    assert "WARN" in out


def test_param_overrides_file_params(tmp_path, capsys):
    src = tmp_path / "inagaki.txt"
    src.write_text(PCR_BINARY + "param: p=0.0\n")
    code, out, _ = run_cli(capsys, "--rule", "inagaki", "--input", str(src))
    assert code == 0
    assert re.search(r"^A\s+0\.420000$", out, re.M)
    code, out, _ = run_cli(
        capsys, "--rule", "inagaki", "--input", str(src), "--param", "p=1.0"
    )
    assert code == 0
    assert re.search(r"^A\s+0\.495600$", out, re.M)


def test_opinion_table(tmp_path, capsys):
    src = tmp_path / "op.txt"
    src.write_text(BAYESIAN_PAIR)
    dest = tmp_path / "op.json"
    code, out, _ = run_cli(
        capsys, "--rule", "consensus", "--input", str(src),
        "--param", "focus=A", "--export", str(dest),
    )
    assert code == 0
    assert re.search(r"^belief\s+0\.400000$", out, re.M)
    assert re.search(r"^disbelief\s+0\.600000$", out, re.M)
    assert re.search(r"^uncertainty\s+0\.000000$", out, re.M)
    assert re.search(r"^atomicity\s+0\.500000$", out, re.M)
    doc = json.loads(dest.read_text())
    assert set(doc) == {"header", "opinion"}
    assert doc["opinion"]["belief"] == pytest.approx(0.4)


def test_unknown_rule_lists_selectors(dp_file, capsys):
    code, _, err = run_cli(capsys, "--rule", "frobnicate", "--input", dp_file)
    assert code == 2
    assert "usage error" in err
    assert "pcr5" in err and "dempster" in err


def test_missing_arguments(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bad_param_syntax(dp_file, capsys):
    code, _, err = run_cli(
        capsys, "--rule", "dempster", "--input", dp_file, "--param", "oops"
    )
    assert code == 2
    assert "KEY=VALUE" in err


def test_unreadable_input(capsys):
    code, _, err = run_cli(capsys, "--rule", "dempster", "--input", "/no/such/file")
    assert code == 2
    assert "cannot read" in err


def test_rule_error_exit_code(tmp_path, capsys):
    src = tmp_path / "conflict.txt"
    src.write_text(TOTAL_CONFLICT)
    code, _, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 3
    assert err.startswith("error: TotalConflictError:")
    assert "total conflict: k12=1" in err


def test_parse_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("frame: A B\nmodel: shafer\nsource m1: A=lots\n")
    code, _, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 4
    assert err.startswith("parse error: line 3:")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_mass_is_a_parse_error(tmp_path, capsys, value):
    src = tmp_path / "nan.txt"
    src.write_text(f"frame: A B\nmodel: shafer\nsource m1: A={value}, B=1\nsource m2: B=1\n")
    code, out, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 4
    assert out == ""
    assert err.startswith("parse error: line 3:")
    assert "non-finite mass" in err


def test_missing_rule_parameter_is_a_rule_error(tmp_path, capsys):
    src = tmp_path / "op.txt"
    src.write_text(BAYESIAN_PAIR)
    code, _, err = run_cli(capsys, "--rule", "consensus", "--input", str(src))
    assert code == 3
    assert "needs parameter 'focus'" in err


def test_bad_param_value_is_a_usage_error(dp_file, capsys):
    code, out, err = run_cli(
        capsys, "--rule", "inagaki", "--input", dp_file, "--param", "p=x"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")
    assert "'x'" in err


@pytest.mark.parametrize("command", [("--rule", "dempster"), ("enumerate",)])
def test_one_label_frame_is_a_parse_error(tmp_path, capsys, command):
    src = tmp_path / "one.txt"
    src.write_text("frame: A\nsource m1: A=1\nsource m2: A=1\n")
    code, out, err = run_cli(capsys, *command, "--input", str(src))
    assert code == 4
    assert out == ""
    assert err == "parse error: line 1: a frame needs at least two hypotheses\n"


def test_enumerate(tmp_path, capsys):
    src = tmp_path / "enum.txt"
    src.write_text("frame: A B\nmodel: shafer\nsource m1: A=1.0\n")
    code, out, _ = run_cli(capsys, "enumerate", "--input", str(src))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "elements over A B (shafer): 4"
    assert lines[1:] == [" 0  ∅", " 1  A", " 1  B", " 2  A|B"]


def test_enumerate_rejects_interval_problems(tmp_path, capsys):
    src = tmp_path / "iv.txt"
    src.write_text("frame-intervals:\nsource s1: [1,3]=1.0\n")
    code, _, err = run_cli(capsys, "enumerate", "--input", str(src))
    assert code == 2
    assert "no element algebra" in err


def test_interval_rule_mismatch(tmp_path, capsys):
    src = tmp_path / "iv.txt"
    src.write_text("frame-intervals:\nsource s1: [1,3]=1.0\nsource s2: [1,3]=1.0\n")
    code, _, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 3
    assert "needs a label frame" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "29 passed, 0 failed, 29 total"


def test_module_entry_point(dp_file):
    proc = subprocess.run(
        [sys.executable, "-m", "fusekit", "--rule", "yager", "--input", dp_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("rule: yager")
