"""Batch command line: run one rule over one problem file.

Three invocations:

    fuse --rule <selector> --input <file> [--export <file>] [--param k=v ...]
    fuse verify
    fuse enumerate --input <file>

Exit codes: 0 ok (warnings included), 2 usage, 3 rule error, 4 parse
error.  Verification failures exit 1.
"""

import argparse
import gc
import json
import sys

from .errors import FusionError, ParseError, UnknownRuleError
from .problem import coerce_params, parse_problem
from .registry import execute_problem, resolve
from .result import NORMALISED

# One part in the sixth printed decimal: the boundary between a total
# that renders as 1.000000 and one that visibly is not.
_SUM_TOL = 5e-7


def main(argv=None):
    """Run one command.  fusekit makes no reference cycles, so the cyclic
    collector only costs time: it is off while the command runs, and the
    caller's setting is restored after."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        if argv and argv[0] == "verify":
            return _cmd_verify(argv[1:])
        if argv and argv[0] == "enumerate":
            return _cmd_enumerate(argv[1:])
        return _cmd_run(argv)
    finally:
        if enabled:
            gc.enable()


def _parse_args(parser, argv):
    try:
        return parser.parse_args(argv), None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return None, code


def _load_problem(path):
    """The parsed problem file, or None and the exit code once reported."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"usage error: cannot read {path}: {exc}", file=sys.stderr)
        return None, 2
    try:
        return parse_problem(text), None
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, 4


# -- run ----------------------------------------------------------------

def _cmd_run(argv):
    parser = argparse.ArgumentParser(
        prog="fuse",
        description="Combine the sources of a problem file under one rule.",
    )
    parser.add_argument("--rule", required=True, help="rule selector string")
    parser.add_argument("--input", required=True, help="problem file to read")
    parser.add_argument("--export", help="write a JSON record of the result here")
    parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="extra rule parameter; repeatable, overrides the file's params",
    )
    ns, code = _parse_args(parser, argv)
    if ns is None:
        return code

    overrides = {}
    for chunk in ns.param:
        key, sep, value = (part.strip() for part in chunk.partition("="))
        if not (sep and key):
            print(f"usage error: --param wants KEY=VALUE, got {chunk!r}", file=sys.stderr)
            return 2
        overrides[key] = value
    try:
        overrides = coerce_params(overrides)
    except ValueError as exc:
        print(f"usage error: bad --param value: {exc}", file=sys.stderr)
        return 2

    try:
        resolve(ns.rule)
    except UnknownRuleError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    problem, code = _load_problem(ns.input)
    if problem is None:
        return code

    try:
        outcome = execute_problem(problem, ns.rule, overrides=overrides)
        table = build_table(outcome, ns.rule)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except (FusionError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    print(table.render())
    if ns.export:
        try:
            with open(ns.export, "w", encoding="utf-8") as fh:
                json.dump(table.to_json_dict(outcome), fh, indent=2, ensure_ascii=False)
                fh.write("\n")
        except OSError as exc:
            print(f"usage error: cannot write {ns.export}: {exc}", file=sys.stderr)
            return 2
    return 0


class ResultTable:
    """Aligned element/mass rows with a footer, plus warning lines."""

    def __init__(self, header, rows, footer, status, warnings):
        self.header = tuple(header)
        self.rows = tuple(rows)
        self.footer = tuple(footer)
        self.status = status
        self.warnings = tuple(warnings)

    def render(self):
        labels = [d for d, _ in self.rows] + [n for n, _ in self.footer]
        width = max(len(s) for s in labels + ["element", "status"])
        vwidth = max(len("mass"), 8, len(self.status or ""))
        lines = list(self.header)
        lines.append(f"{'element':<{width}}  {'mass':>{vwidth}}")
        for display, value in self.rows:
            lines.append(f"{display:<{width}}  {value:>{vwidth}.6f}")
        lines.append("-" * (width + vwidth + 2))
        for name, value in self.footer:
            lines.append(f"{name:<{width}}  {value:>{vwidth}.6f}")
        if self.status is not None:
            lines.append(f"{'status':<{width}}  {self.status:>{vwidth}}")
        for warning in self.warnings:
            lines.append(f"WARN {warning}")
        return "\n".join(lines)

    def to_json_dict(self, outcome):
        doc = {"header": list(self.header)}
        if outcome.kind == "opinion":
            doc["opinion"] = dict(self.rows)
            return doc
        doc["rows"] = [{"element": d, "mass": v} for d, v in self.rows]
        doc["footer"] = dict(self.footer, status=self.status)
        doc["warnings"] = list(self.warnings)
        result = outcome.result
        if result is not None:
            # Each element's display once per table, and its expression's
            # text where that differs.  Keyed by identity: elements with
            # equal atoms may carry different expressions.
            displays, texts = {id(NORMALISED): NORMALISED}, {}

            def name(el):
                if el is None:
                    return None
                display = displays[id(el)] = el.display
                if (text := el.text) != display:
                    texts[id(el)] = text
                return display

            ledger = doc["ledger"] = []
            for els, mass, shares, basis, note in result.conflict.partials:
                shown = [displays.get(id(el)) or name(el) for el in els]
                if len(shares) == 1:  # most partials: their list without a comprehension
                    (dest, v), = shares
                    shared = [{"to": displays.get(id(dest)) or name(dest), "mass": v}]
                else:
                    shared = [{"to": displays.get(id(dest)) or name(dest), "mass": v}
                              for dest, v in shares]
                ledger.append({
                    "operands": shown,
                    # A ledger can hold tens of thousands of partials: where
                    # every operand displays as written, the displays' list
                    # is shared.
                    "operand_exprs": [texts.get(id(el), d) for el, d in zip(els, shown)]
                    if texts and not texts.keys().isdisjoint(map(id, els)) else shown,
                    "mass": mass,
                    "basis": basis,
                    "note": note,
                    "shares": shared,
                })
            if result.signed_masses:
                doc["signed_masses"] = [
                    {"element": el.display, "mass": v}
                    for el, v in result.signed_masses.items()
                ]
        return doc


def build_table(outcome, rule):
    if outcome.kind == "opinion":
        op = outcome.opinion
        rows = [
            ("belief", op.belief), ("disbelief", op.disbelief),
            ("uncertainty", op.uncertainty), ("atomicity", op.atomicity),
        ]
        return ResultTable([f"rule: {rule}"], rows, (), None, ())

    combined = outcome.combined
    rows = sorted(
        ((el.display, v) for el, v in combined.items()),
        key=lambda r: (-r[1], r[0]),
    )
    total = combined.total
    footer = [("sum", total)]
    warnings = list(outcome.warnings)
    header = [f"rule: {rule}"]

    if outcome.kind == "interval":
        header.append("frame: intervals")
    else:
        frame = outcome.frame
        header.append(f"frame: {' '.join(frame.names)} ({frame.kind})")
        footer.append(("k12", outcome.result.conflict.k12))
        footer.append(("lost", outcome.result.conflict.lost))

    status = "normal" if abs(total - 1.0) <= _SUM_TOL else (
        "incomplete" if total < 1.0 else "paraconsistent"
    )
    if status != "normal":
        warnings.append(f"{status}: sum={total:.6f}")
    return ResultTable(header, rows, footer, status, warnings)


# -- verify ----------------------------------------------------------------

def _cmd_verify(argv):
    parser = argparse.ArgumentParser(
        prog="fuse verify",
        description="Re-run every embedded verification case.",
    )
    ns, code = _parse_args(parser, argv)
    if ns is None:
        return code
    from .golden import verify_golden

    report = verify_golden()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


# -- enumerate ------------------------------------------------------------

def _cmd_enumerate(argv):
    parser = argparse.ArgumentParser(
        prog="fuse enumerate",
        description="Print every distinct element the problem's model admits.",
    )
    parser.add_argument("--input", required=True, help="problem file to read")
    ns, code = _parse_args(parser, argv)
    if ns is None:
        return code
    problem, code = _load_problem(ns.input)
    if problem is None:
        return code
    if problem.interval:
        print("usage error: interval problems have no element algebra", file=sys.stderr)
        return 2
    frame = problem.final_frame()
    try:
        elements = frame.superpower_set()
    except FusionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(
        f"elements over {' '.join(frame.names)} ({frame.kind}): {len(elements)}"
    )
    for el in elements:
        print(f"{el.cardinality:>2}  {el.display}")
    return 0
