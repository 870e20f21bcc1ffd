"""Command line behavior: tables, exports, exit codes, enumerate, verify."""

import gc
import json
import pathlib
import random
import re
import subprocess
import sys

import pytest

import fusekit.cli as cli
import fusekit.errors as errors
from fusekit import GOLDEN_CASES, execute_problem, parse_problem
from fusekit.cli import build_table, main
from fusekit.problem import _declared_frame
from fusekit.registry import resolve, selectors
from fusekit.uft import _STORE_RULES, quasi_associative_combine

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


def test_export_writes_divided_out_shares(tmp_path, capsys):
    src = tmp_path / "bayes.txt"
    src.write_text(BAYESIAN_PAIR)
    dest = tmp_path / "bayes.json"
    code, _, _ = run_cli(
        capsys, "--rule", "dempster", "--input", str(src), "--export", str(dest)
    )
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["footer"]["lost"] == 0.0
    # (A, B) and (B, A): .15 and .35, each divided out in full.
    assert [(e["mass"], e["basis"]) for e in doc["ledger"]] == [
        (pytest.approx(0.15), "normalization"), (pytest.approx(0.35), "normalization")]
    for entry in doc["ledger"]:
        assert entry["shares"] == [{"to": "divided out", "mass": entry["mass"]}]


def test_export_writes_every_share_of_a_split(tmp_path, capsys):
    src = tmp_path / "pcr.txt"
    src.write_text(PCR_BINARY)
    dest = tmp_path / "pcr.json"
    code, _, _ = run_cli(capsys, "--rule", "pcr5", "--input", str(src), "--export", str(dest))
    assert code == 0
    # (A, B) weighs .18 and goes back .12 to A and .06 to B.
    (entry,) = json.loads(dest.read_text())["ledger"]
    assert entry["operands"] == ["A", "B"]
    assert entry["shares"] == [{"to": "A", "mass": pytest.approx(0.12)},
                               {"to": "B", "mass": pytest.approx(0.06)}]


@pytest.mark.parametrize("rule", ["dempster", "pcr5", "dsmh"])
def test_export_ledger_names_each_operand_by_its_expression(tmp_path, capsys, rule):
    # The golden case's event empties B, so B displays as the empty set
    # (and absorbs the sources' A&~A); its expression still names it.
    case = next(c for c in GOLDEN_CASES if c.name == "column-average-degenerate")
    src = tmp_path / "degenerate.txt"
    src.write_text(case.text)
    dest = tmp_path / "degenerate.json"
    code, _, _ = run_cli(capsys, "--rule", rule, "--input", str(src), "--export", str(dest))
    assert code == 0
    doc = json.loads(dest.read_text())
    named = {(shown, expr) for entry in doc["ledger"]
             for shown, expr in zip(entry["operands"], entry["operand_exprs"], strict=True)}
    assert named == {("∅", "B"), ("A", "A"), ("C", "C")}


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


def test_unknown_rule_is_a_usage_error_before_the_problem_is_read(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--rule", "frobnicate", "--input", str(tmp_path / "none.txt"))
    assert (code, out) == (2, "")
    assert err == (f"usage error: unknown rule 'frobnicate'; "
                   f"valid selectors: {', '.join(selectors())}\n")


def test_an_unknown_base_rule_is_a_typed_rule_error(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text("frame: A B\nmodel: shafer\nsource m1: A=0.6, A|B=0.4\n")
    code, out, err = run_cli(capsys, "--rule", "conditional", "--input", str(src),
                             "--param", "given=A", "--param", "base=frobnicate")
    assert (code, out) == (3, "")
    assert err == (f"error: UnknownRuleError: unknown rule 'frobnicate'; "
                   f"valid selectors: {', '.join(selectors())}\n")


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


@pytest.mark.parametrize("masses", ["[1,2]=nan", "[1,2]=inf", "[1,2]=-0.5, [2,3]=1.5"])
def test_bad_interval_mass_is_a_parse_error(tmp_path, capsys, masses):
    src = tmp_path / "iv.txt"
    src.write_text(f"frame-intervals:\nsource s1: {masses}\nsource s2: [1,2]=1\n")
    code, out, err = run_cli(capsys, "--rule", "xavg", "--input", str(src))
    assert (code, out) == (4, "")
    assert err.startswith("parse error: line 2:")


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


def test_an_empty_param_key_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "pair.txt"
    src.write_text(PCR_BINARY)
    for chunk in ("=5", " =5"):
        code, out, err = run_cli(capsys, "--rule", "dempster", "--input", str(src),
                                 "--param", chunk)
        want = f"usage error: --param wants KEY=VALUE, got {chunk!r}\n"
        assert (code, out, err) == (2, "", want)


def test_malformed_param_line_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "param.txt"
    src.write_text(PCR_BINARY + "param: p=x\n")
    code, out, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 4
    assert out == ""
    assert err.startswith("parse error: line 5: bad param value:")


def test_free_frame_past_the_size_guard_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "wide.txt"
    labels = " ".join(f"H{i}" for i in range(24))
    src.write_text(f"frame: {labels}\nsource m1: H0=1\nsource m2: H1=1\n")
    code, out, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 4
    assert out == ""
    assert err.startswith("parse error: line 1: free frames are limited to 18")


def test_wide_shafer_frame_runs(tmp_path, capsys):
    src = tmp_path / "wide.txt"
    labels = " ".join(f"H{i}" for i in range(20))
    src.write_text(
        f"frame: {labels}\nmodel: shafer\n"
        "source m1: H0=0.5, H1|H2=0.3, H19=0.2\nsource m2: H0=0.6, H19=0.4\n"
    )
    code, out, err = run_cli(capsys, "--rule", "dempster", "--input", str(src))
    assert code == 0
    assert err == ""
    assert out.splitlines()[1] == f"frame: {labels} (shafer)"


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


def test_normalising_rule_reports_no_lost_mass(dp_file, capsys):
    code, out, _ = run_cli(capsys, "--rule", "tnorm-min", "--input", dp_file)
    assert code == 0
    assert re.search(r"^sum\s+1\.000000$", out, re.M)
    assert re.search(r"^lost\s+0\.000000$", out, re.M)


def test_conjunctive_run_flags_the_open_world_mass(tmp_path, capsys):
    src = tmp_path / "pcr.txt"
    src.write_text(PCR_BINARY)
    code, out, _ = run_cli(capsys, "--rule", "conjunctive", "--input", str(src))
    assert code == 0
    assert "WARN open-world mass on the empty set: 0.180000" in out.splitlines()


def test_closed_world_uft_run_warns_once(tmp_path, capsys):
    src = tmp_path / "uft.txt"
    src.write_text("frame: A B\nmodel: shafer\nsource m1: A=0.9, A|B=0.1\n"
                   "source m2: B=0.6, A|B=0.4\nscenario: case 1.1.1\n")
    code, out, _ = run_cli(capsys, "--rule", "uft", "--input", str(src))
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("WARN")] == [
        "WARN mass on the empty set in a closed world: 0.540000"]


@pytest.mark.parametrize("scenario,message", [
    ("case 1.2.6 right C", "right elements must be non-empty"),
    ("case 1.2.7 recipients C", "recipient elements must be non-empty"),
])
def test_attitude_elements_the_model_empties_are_refused(tmp_path, capsys, scenario, message):
    src = tmp_path / "uft.txt"
    src.write_text("frame: A B C D\nsource m1: A=0.2, B=0.5, A|B=0.3\n"
                   "source m2: A=0.4, B=0.4, A|B=0.2\nevent: constrain C=0\n"
                   f"scenario: {scenario}\n")
    code, out, err = run_cli(capsys, "--rule", "uft", "--input", str(src))
    assert (code, out, err) == (3, "", f"error: ValueError: {message}\n")


def test_readme_dubois_prade_block_is_what_the_cli_prints(tmp_path, capsys):
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```\w*\n(.*?)^```$", readme.read_text(encoding="utf-8"),
                        re.S | re.M)
    problem = next(b for b in blocks if b.startswith("frame: A B C\n"))
    command, _, printed = next(
        b for b in blocks if b.startswith("$ fuse --rule dubois-prade")).partition("\n")
    src = tmp_path / "dp.txt"
    src.write_text(problem)
    assert command == "$ fuse --rule dubois-prade --input dp.txt"
    code, out, _ = run_cli(capsys, "--rule", "dubois-prade", "--input", str(src))
    assert code == 0
    assert out == printed


@pytest.mark.parametrize("rule,line,flag", [
    ("wo", "weights=A:0.5,B:0.5", "weights=A:0.5,B:0.5"),
    ("mixing", "weights=1,2", "weights=1,2"),
])
def test_param_line_values_may_hold_commas(tmp_path, capsys, rule, line, flag):
    src = tmp_path / "param.txt"
    src.write_text(PCR_BINARY + f"param: {line}\n")
    code, from_file, err = run_cli(capsys, "--rule", rule, "--input", str(src))
    assert (code, err) == (0, "")
    bare = tmp_path / "bare.txt"
    bare.write_text(PCR_BINARY)
    code, from_flag, _ = run_cli(capsys, "--rule", rule, "--input", str(bare),
                                 "--param", flag)
    assert code == 0
    assert from_file == from_flag


@pytest.mark.parametrize("rule,param", [
    ("inagaki", "p=nan"), ("inagaki", "p=inf"), ("mixing", "weights=nan,1"),
    ("wo", "weights=A:inf,B:0.5"),
])
def test_non_finite_params_fail_before_the_rule_runs(tmp_path, capsys, rule, param):
    src = tmp_path / "pair.txt"
    src.write_text(PCR_BINARY)
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src), "--param", param)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: bad --param value:")
    assert "must be finite" in err
    src.write_text(PCR_BINARY + f"param: {param}\n")
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src))
    assert (code, out) == (4, "")
    assert err.startswith("parse error: line 5: bad param value:")


@pytest.mark.parametrize("tail,lineno", [
    ("scenario: case 3\ndiscount: m2=1.5\n", 6),
    ("scenario: case 3\ndiscount: mm1=0.5\n", 6),
    ("discount: m2=0.5\n", 5),
])
def test_bad_discount_line_is_a_parse_error(tmp_path, capsys, tail, lineno):
    src = tmp_path / "discount.txt"
    src.write_text(PCR_BINARY + tail)
    code, out, err = run_cli(capsys, "--rule", "uft", "--input", str(src))
    assert (code, out) == (4, "")
    assert err.startswith(f"parse error: line {lineno}:")


@pytest.mark.parametrize("rule,tail", [
    ("uft", "scenario: case 9.9\n"),
    ("dempster", "scenario: case 9.9\n"),
    ("uft", "scenario: case 1.2.6\n"),
    ("uft", "scenario: case 1.2.7\n"),
    ("uft", "scenario: case 2 right A\n"),
    ("uft", "source m1: B=1\n"),
])
def test_bad_scenario_or_source_line_is_a_parse_error(tmp_path, capsys, rule, tail):
    src = tmp_path / "scenario.txt"
    src.write_text(PCR_BINARY + tail)
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src))
    assert (code, out) == (4, "")
    assert err.startswith("parse error: line 5:")


def test_interval_problem_run_and_export(tmp_path, capsys):
    src = tmp_path / "iv.txt"
    src.write_text("frame-intervals:\nsource s1: [1,3]=0.5, [2,4]=0.5\n"
                   "source s2: [0,2]=1.0\n")
    dest = tmp_path / "iv.json"
    code, out, err = run_cli(capsys, "--rule", "xavg", "--input", str(src),
                             "--export", str(dest))
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["rule: xavg", "frame: intervals"]
    doc = json.loads(dest.read_text())
    assert set(doc) == {"header", "rows", "footer", "warnings"}
    assert doc["header"] == ["rule: xavg", "frame: intervals"]
    assert set(doc["footer"]) == {"sum", "status"}
    assert {r["element"]: r["mass"] for r in doc["rows"]} == pytest.approx(
        {"[0.5,2.5]": 0.5, "[1,3]": 0.5})


def test_enumerate_past_the_guard_is_a_rule_error(tmp_path, capsys):
    src = tmp_path / "enum.txt"
    src.write_text("frame: A B C D E\nsource m1: A=1.0\n")
    code, out, err = run_cli(capsys, "enumerate", "--input", str(src))
    assert (code, out) == (3, "")
    assert err.startswith("error: FrameTooLargeError: enumeration limited to 4")


@pytest.mark.parametrize("rule,sources,fragment", [
    ("zhang-product", 3, "takes at most 2 sources, got 3"),
    ("cautious", 3, "takes at most 2 sources, got 3"),
    ("dempster", 1, "needs at least 2 sources, got 1"),
    ("conditional", 2, "rule 'conditional' takes at most 1 source, got 2"),
])
def test_arity_errors_are_rule_errors(tmp_path, capsys, rule, sources, fragment):
    src = tmp_path / "arity.txt"
    src.write_text("frame: A B\nmodel: shafer\n" + "".join(
        f"source m{i}: A=0.5, A|B=0.5\n" for i in range(1, sources + 1)))
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src))
    assert (code, out) == (3, "")
    assert err.startswith("error: RuleError:")
    assert fragment in err


def test_unwritable_export_is_a_usage_error(dp_file, tmp_path, capsys):
    dest = tmp_path / "no-such-dir" / "out.json"
    code, out, err = run_cli(capsys, "--rule", "dempster", "--input", dp_file,
                             "--export", str(dest))
    assert code == 2
    assert out.startswith("rule: dempster")
    assert err.startswith(f"usage error: cannot write {dest}:")


MALFORMED_PARAMS = ("config=x", "weights=1,2", "weights=1", "given=Z", "focus=Z",
                    "expr=(1", "base=xavg")

# Well-formed parameters of the selectors that need some, for the bases
# of ``conditional``, which runs its base on two sources.
BASE_PARAMS = {"mixed": ("expr=1|2",), "mixing": ("weights=1,1",), "wo": ("weights=A|B:1",),
               "inagaki": ("p=0.5",), "consensus": ("focus=A",), "conditional": ("given=A",)}


@pytest.mark.parametrize("problem", [
    PCR_BINARY,
    "frame: A B\nmodel: shafer\nsource m1: A=0.6, A|B=0.4\n",
    "frame-intervals:\nsource s1: [1,3]=0.5, [2,4]=0.5\nsource s2: [1,2]=1\n",
], ids=["labels", "one-source", "intervals"])
def test_malformed_params_end_in_a_documented_exit_code(tmp_path, capsys, problem):
    src = tmp_path / "problem.txt"
    src.write_text(problem)
    for rule in selectors():
        for param in MALFORMED_PARAMS:
            code = main(["--rule", rule, "--input", str(src), "--param", param])
            assert code in (0, 2, 3, 4), (rule, param, code)
        # Every selector as conditional's base: bare, with its parameters,
        # and with stray ones named as conditional's own arguments.
        for params in ((), BASE_PARAMS.get(rule, ()), ("rule=x", "m=1", "hypothesis=B")):
            argv = ["--rule", "conditional", "--input", str(src),
                    "--param", "given=A", "--param", f"base={rule}"]
            code = main(argv + [arg for param in params for arg in ("--param", param)])
            assert code in (0, 3), (rule, params, code)
    capsys.readouterr()


@pytest.mark.parametrize("rule,param,message", [
    ("uft", "config=x", "error: RuleError: uft needs a ScenarioConfig, got str"),
    ("wo", "weights=1,2", "error: RuleError: wo needs weights as element:weight pairs, got list"),
    ("mixing", "weights=A:1",
     "error: RuleError: mixing needs one weight per source, got element:weight pairs"),
], ids=["uft", "wo", "mixing"])
def test_a_malformed_rule_parameter_is_a_rule_error(tmp_path, capsys, rule, param, message):
    src = tmp_path / "pair.txt"
    src.write_text(PCR_BINARY)
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src), "--param", param)
    assert (code, out, err) == (3, "", message + "\n")
    src.write_text(PCR_BINARY + f"param: {param}\n")
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src))
    assert (code, out, err) == (3, "", message + "\n")


@pytest.mark.parametrize("rule,param,message", [
    ("inagaki", "p=7", "p must lie in [0, 1.85185185185], got 7.0"),
    ("mixing", "weights=1,2,3", "2 sources but 3 weights"),
    ("mixed", "expr=1&3", "expression must use each of sources 1..2 exactly once, got [1, 3]"),
    ("mixed", "expr=~1", "complement has no meaning over sources"),
    ("consensus", "focus=A&B", "focus ∅ does not induce a binary coarsening"),
    ("wo", "weights=A:2", "weight for A must be in [0, 1], got 2.0"),
    ("wo", "weights=A:0.5", "weights must sum to 1, got 0.5"),
    ("mixed", "expr=A|1", "source reference must be a positive integer, got 'A'"),
    ("mixed", "expr=0|1", "source reference must be a positive integer, got '0'"),
    ("mixed", "expr=²|1", "source reference must be a positive integer, got '²'"),
    ("mixing", "weights=1e308,1e308", "mixing weights must sum to a finite number"),
], ids=["inagaki-p", "mixing-count", "mixed-sources", "mixed-complement", "consensus-focus",
        "wo-range", "wo-sum", "mixed-label", "mixed-zero", "mixed-superscript", "mixing-sum"])
def test_a_parameter_that_does_not_fit_its_rule_is_a_parameter_error(tmp_path, capsys, rule,
                                                                     param, message):
    src = tmp_path / "pair.txt"
    src.write_text(PCR_BINARY)
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src), "--param", param)
    assert (code, out, err) == (3, "", f"error: ParameterError: {message}\n")


def test_conditioning_on_an_empty_hypothesis_is_a_parameter_error(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text("frame: A B\nmodel: shafer\nsource m1: A=0.6, A|B=0.4\n")
    code, out, err = run_cli(capsys, "--rule", "conditional", "--input", str(src),
                             "--param", "given=A&B")
    assert (code, out, err) == (
        3, "", "error: ParameterError: cannot condition on an empty hypothesis\n")


def test_consensus_on_a_subnormal_source_is_a_rule_error(tmp_path, capsys):
    case = next(c for c in GOLDEN_CASES if c.name == "union-transfer-dynamic-incomplete")
    src = tmp_path / "dp.txt"
    src.write_text(case.text)
    code, out, err = run_cli(capsys, "--rule", "consensus", "--input", str(src),
                             "--param", "focus=A")
    assert (code, out) == (3, "")
    assert "RuleError" in err
    assert "non-empty masses total 1, got 0.7" in err


@pytest.mark.parametrize("rule", ["conjunctive", "dempster", "pcr5", "dsmh", "minc-a", "uft"])
def test_a_landed_mass_that_overflows_is_a_rule_error(tmp_path, capsys, rule):
    # Each source is finite, but 1e200 * 1e200 rounds to inf on every landing.
    src = tmp_path / "big.txt"
    src.write_text("frame: A B\nmodel: free\nsource m1: A=1e200, B=1e200\n"
                   "source m2: A=1e200, A|B=1e200\n")
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src))
    assert (code, out) == (3, "")
    assert err.startswith("error: RuleError: non-finite mass")


@pytest.mark.parametrize("rule, params, text, message", [
    # 1e308 * 1e308 / 1e308 overflows on the way to A's mixed mass.
    ("mixing", ("--param", "weights=1e308,1"),
     "frame: A B\nmodel: shafer\nsource m1: A=1e308\nsource m2: B=1\n",
     "non-finite mass inf on A"),
    ("xavg", (), "frame-intervals:\nsource m1: [1,2]=1e308\nsource m2: [1,2]=10\n",
     "non-finite mass inf on [1,2]"),
    # Each averaged mass is 1e308; their total is not finite.
    ("xavg", (), "frame-intervals:\nsource m1: [1,2]=1e300, [3,4]=1e300\n"
                 "source m2: [5,6]=1e8\n",
     "masses total more than the largest float"),
], ids=["mixing", "xavg-mass", "xavg-total"])
def test_a_combined_mass_the_constructor_refuses_is_a_rule_error(tmp_path, capsys, rule, params,
                                                                 text, message):
    # These rules build their result without a ledger, through the same check.
    src = tmp_path / "big.txt"
    src.write_text(text)
    code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src), *params)
    assert (code, out, err) == (3, "", f"error: RuleError: {message}\n")


@pytest.mark.parametrize("argv", [["verify", "--bogus"], ["enumerate"]],
                         ids=["verify-bogus", "enumerate-without-input"])
def test_a_subcommand_with_bad_arguments_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: fuse {argv[0]}")


# The fixed parameters ``tools/snapshot.py`` gives the selectors that need
# some; it runs ``conditional`` on the first source alone.
SNAPSHOT_PARAMS = {"inagaki": ("p=0.5",), "conditional": ("given=A", "base=dempster"),
                   "mixed": ("expr=1|2",), "mixing": ("weights=1,1",),
                   "wo": ("weights=A|B:0.5,A&~A:0.5",), "consensus": ("focus=A",)}
FUSION_ERRORS = {name for name, kind in vars(errors).items()
                 if isinstance(kind, type) and issubclass(kind, errors.FusionError)}
OVERFLOW = "masses total more than the largest float"


@pytest.mark.parametrize("sources, pinned", [
    # Each source's own total overflows: the parser refuses it.
    (("A=1e308, B=1e308", "A=1e308, B=1e308"), {}),
    # Each total is finite, but A's column and the sum of the totals are not.
    (("A=1e308", "A=1e308"), {"pcr3": OVERFLOW, "pcr4": OVERFLOW, "wao": OVERFLOW}),
    # Each column is finite, but the sum a conflict is split by is not.
    (("A=1e308, B=1e-10", "A=1e-10, B=1e308"), {"pcr1": OVERFLOW, "pcr2": OVERFLOW}),
    # The landed masses are finite, but their total is not.
    (("A|B=1e308", "A=1, B=1"), {"conjunctive": OVERFLOW, "dempster": OVERFLOW}),
], ids=["source-totals", "column-sums", "column-weights", "combined-total"])
def test_masses_past_the_largest_float_end_in_a_documented_exit_code(tmp_path, capsys, sources,
                                                                      pinned):
    header = "frame: A B\nmodel: shafer\n"
    both, first = tmp_path / "both.txt", tmp_path / "first.txt"
    both.write_text(header + "".join(f"source m{i}: {s}\n" for i, s in enumerate(sources, 1)))
    first.write_text(header + f"source m1: {sources[0]}\n")
    errs = {}
    for rule in selectors():
        params = [arg for param in SNAPSHOT_PARAMS.get(rule, ()) for arg in ("--param", param)]
        src = first if rule == "conditional" else both
        code, out, err = run_cli(capsys, "--rule", rule, "--input", str(src), *params)
        if not pinned:
            assert (code, out, err) == (4, "", f"parse error: line 3: {OVERFLOW}\n"), rule
        elif code:
            assert (code, out) == (3, ""), rule
            assert err.startswith("error: ") and err.split(":")[1].strip() in FUSION_ERRORS, err
            errs[rule] = err
    for rule, message in pinned.items():
        assert errs[rule] == f"error: RuleError: {message}\n"


def test_overflowed_terms_of_both_signs_end_in_a_rule_error(tmp_path, capsys):
    # The algebraic T-conorm lands both +inf and -inf here, and their sum
    # is not a number.
    src = tmp_path / "problem.txt"
    src.write_text("frame: A B C\nmodel: shafer\nsource m1: A=1e154, B|C=1.7e308\n"
                   "source m2: B=0.5, B|C=1e-160, A=1e308\n")
    assert run_cli(capsys, "--rule", "tconorm-algebraic", "--input", str(src)) == (
        3, "", f"error: RuleError: {OVERFLOW}\n")


# Masses near the largest float, half of it, and the least subnormal.
EXTREME_MASSES = ("1e308", "1.7e308", "1e154", "5e-324", "0.5", "1e-160")
FUZZ_FOCALS = ("A", "B", "C", "A|B", "B|C", "A&B", "A|B|C", "A&~A")
FUZZ_PARAMS = MALFORMED_PARAMS + (
    "expr=1|2", "expr=1&2|3", "expr=3", "weights=1,1", "weights=1e308,1e308", "weights=A|B:1",
    "weights=A:0.5,B:0.5", "weights=A:1e308", "p=0.5", "p=2", "p=nan", "focus=A",
    "focus=B|C", "given=A", "given=A&~A", "base=dempster", "base=pcr5", "base=conditional",
    "dogmatic_bayesian=1", "noequals", "=1")


def test_random_inputs_end_in_a_documented_exit_code(tmp_path, capsys):
    # Golden problems and three-label problems of extreme masses, each run
    # under a random selector with up to three parameters.
    rng = random.Random(19)
    texts = [case.text for case in GOLDEN_CASES]
    for _ in range(60):
        texts.append(f"frame: A B C\nmodel: {rng.choice(('free', 'shafer'))}\n" + "".join(
            f"source m{i}: " + ", ".join(f"{rng.choice(FUZZ_FOCALS)}={rng.choice(EXTREME_MASSES)}"
                                         for _ in range(rng.randint(1, 3))) + "\n"
            for i in range(1, rng.randint(2, 3) + 1)))
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"p{i}.txt")
        paths[-1].write_text(text)
    rules = selectors()
    for _ in range(2000):
        argv = ["--rule", rng.choice(rules), "--input", str(rng.choice(paths))]
        for param in rng.sample(FUZZ_PARAMS, rng.randint(0, 3)):
            argv += ["--param", param]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv, code, err)
        if code == 3:
            assert err.split(":")[1].strip() in FUSION_ERRORS, (argv, err)


def _run_everything():
    """Every golden problem under every selector that takes no parameters,
    with its table and export dict, and through the store under each of its
    rules that takes none."""
    runs = 0
    for case in GOLDEN_CASES:
        problem = parse_problem(case.text)
        for rule in selectors():
            if resolve(rule).needs:
                continue
            runs += 1
            try:
                outcome = execute_problem(problem, rule)
            except errors.FusionError:
                continue
            table = build_table(outcome, rule)
            assert table.render() and table.to_json_dict(outcome)
        sources = problem.final_sources()
        for rule in _STORE_RULES:
            if resolve(rule).needs:
                continue
            state = sources[0]
            runs += 1
            try:
                for m in sources[1:]:
                    state, result = quasi_associative_combine(state, m, rule)
            except errors.FusionError:
                continue
            assert result.combined.total >= 0.0
    return runs


def test_fusekit_leaves_nothing_for_the_cyclic_collector():
    # So `main` may run with the collector off: every object fusekit makes
    # is freed by its reference count.  Under DEBUG_SAVEALL the collector
    # keeps whatever it finds in gc.garbage instead of freeing it.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _run_everything() > 900
        # Drop the kept frames, so their memos are freed with them.
        _declared_frame.cache_clear()
        assert gc.collect() == 0, gc.garbage[:10]
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_the_collector_and_restores_the_callers_setting(
        dp_file, capsys, monkeypatch, enabled):
    seen = []
    command = cli._cmd_run
    monkeypatch.setattr(cli, "_cmd_run", lambda argv: seen.append(gc.isenabled()) or command(argv))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(capsys, "--rule", "dempster", "--input", dp_file)[0] == 0
        assert run_cli(capsys, "--rule", "nope", "--input", dp_file)[0] == 2
        assert seen == [False, False] and gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
