"""List the statements of ``src/fusekit`` that the tests never run.

    python3 tools/lines.py

Runs the tier-1 suite in this process under ``sys.settrace``, then
``fuse verify``, and records every line of ``src/fusekit`` that ran and
every step from one line to the next.  It then prints:

- each statement that never ran, as ``never  FILE:LINE  TEXT``.
  Docstrings are left out, and so are ``global`` and ``nonlocal``, which
  compile to no code and so never run;
- each ``if`` or ``while`` whose test fits on its line and that ran, but
  was taken only one way, as ``only-true`` or ``only-false``.  A test is
  taken true when its next line lies in its body, and false otherwise
  (the ``else`` branch, the next statement, or leaving the function).

Code that runs only in the child processes of a test is not seen.  The
suite's Hypothesis profile is derandomized, so the list is stable.  The
exit status is 1 when anything is listed but the statements of
``EXPECTED``, which run only in child processes or under the
benchmark's probes, else 0.  Standard library only; the tests
run under the interpreter that runs this script, which must have pytest
and hypothesis.  Under the tracer the suite runs three to five times
slower than plain.
"""

import ast
import contextlib
import io
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fusekit"
EXIT = 0  # the next "line" of a frame that returns

# The statements that never run in this process, by file and text: the
# module run by ``python -m fusekit``, which the tests start as a child
# process; the package's ``__dir__``, which ``tests/test_package.py``
# calls in a child process; and ``MassFunction.focal()``, which only the
# benchmark's probes read.
EXPECTED = {
    ("src/fusekit/__main__.py", "import sys"),
    ("src/fusekit/__main__.py", "from .cli import main"),
    ("src/fusekit/__main__.py", "sys.exit(main())"),
    ("src/fusekit/__init__.py", "return sorted(set(globals()) | set(_EXPORTS))"),
    ("src/fusekit/mass.py", "return list(self._map)"),
}


def trace(run):
    """Run ``run()`` under the tracer; return (lines run, steps) by file."""
    prefix = str(PACKAGE) + os.sep
    lines = defaultdict(set)
    steps = defaultdict(set)
    wanted = {}
    last_line = {}

    def local(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "line":
            line = frame.f_lineno
            lines[path].add(line)
            last = last_line.get(frame)
            if last is not None:
                steps[path].add((last, line))
            last_line[frame] = line
        elif event == "return":
            last = last_line.pop(frame, None)
            if last is not None:
                steps[path].add((last, EXIT))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        hit = wanted.get(code)
        if hit is None:
            hit = wanted[code] = code.co_filename.startswith(prefix)
        return local if hit else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return lines, steps


def statements(tree):
    """Yield every statement of ``tree`` but docstrings and declarations."""
    for node in ast.walk(tree):
        for i, child in enumerate(_inner(node)):
            if not (i == 0 and _is_docstring(node, child)
                    or isinstance(child, (ast.Global, ast.Nonlocal))):
                yield child


def _inner(node):
    """The statements and except clauses directly inside ``node``."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        children = getattr(node, field, None)
        if isinstance(children, list):
            yield from children


def _is_docstring(node, first):
    return (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str))


def own_lines(node):
    """The lines of ``node`` that hold none of its inner statements."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    inner = list(_inner(node))
    last = min(child.lineno for child in inner) - 1 if inner else node.end_lineno
    return range(first, max(first, last) + 1)


def report(lines, steps):
    """Each finding as (kind, file, line, statement text)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = lines.get(str(path), set())
        moved = steps.get(str(path), set())
        name = path.relative_to(ROOT)
        for node in sorted(statements(ast.parse(source)), key=lambda n: n.lineno):
            if not ran.intersection(own_lines(node)):
                out.append(("never", str(name), node.lineno, text[node.lineno - 1].strip()))
                continue
            if not isinstance(node, (ast.If, ast.While)) or node.test.end_lineno != node.lineno \
                    or node.body[0].lineno == node.lineno:
                continue
            body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
            nexts = {b for a, b in moved if a == node.lineno and b != node.lineno}
            true = any(b in body for b in nexts)
            false = any(b not in body for b in nexts)
            if true != false:
                way = "only-true" if true else "only-false"
                out.append((way, str(name), node.lineno, text[node.lineno - 1].strip()))
    return out


def run_suite():
    import pytest

    os.chdir(ROOT)
    with contextlib.redirect_stdout(sys.stderr):  # standard output is the list
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    print(f"tier-1 exit {code}", file=sys.stderr)
    from fusekit.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify"])
    print(f"fuse verify exit {code}", file=sys.stderr)


def main():
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    unexpected = 0
    for kind, name, line, text in report(*trace(run_suite)):
        print(f"{kind}  {name}:{line}  {text}")
        unexpected += kind != "never" or (name, text) not in EXPECTED
    print(f"{unexpected} unexpected", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
