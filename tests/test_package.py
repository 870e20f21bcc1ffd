"""Package-wide properties: fusekit runs on the standard library alone,
loads only the modules a run needs, and the README names every rule
selector."""

import ast
import json
import os
import pathlib
import pickle
import re
import subprocess
import sys
import textwrap

import pytest

import fusekit
from fusekit.frame import Frame, IntervalElement, ModelConstraints
from fusekit.golden import GoldenCase
from fusekit.mass import MassFunction, Opinion
from fusekit.problem import ProblemFile
from fusekit.registry import Outcome, RuleSpec, selectors
from fusekit.result import ConflictReport, FusionResult, Partial
from fusekit.uft import Attitude, QuasiAssociativeState, ScenarioConfig

PACKAGE = pathlib.Path(fusekit.__file__).parent


def _imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_fusekit():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    foreign = {
        (path.name, module)
        for path in files
        for module in _imported_modules(path)
        if module.split(".")[0] not in sys.stdlib_module_names | {"fusekit"}
    }
    assert foreign == set()


def _expand_ranges(text):
    """Spell out a range such as `pcr1` .. `pcr5` as its members."""
    return re.sub(
        r"`([a-z]+)(\d+)` \.\. `\1(\d+)`",
        lambda m: ", ".join(f"`{m[1]}{i}`" for i in range(int(m[2]), int(m[3]) + 1)),
        text,
    )


def test_readme_lists_every_rule_selector():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    paragraph = readme.read_text(encoding="utf-8").split("Rule selectors:", 1)[1]
    paragraph = paragraph.split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", _expand_ranges(paragraph)) == selectors()


def _fresh(code, *argv):
    """What ``code`` prints as JSON in a fresh interpreter that imports
    fusekit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Appended to a child's code: print the fusekit modules it loaded.
_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("fusekit."))))
"""


def test_importing_the_package_loads_no_module():
    assert _fresh("import fusekit" + _LOADED) == []


SHAFER = """\
frame: A B C
model: shafer
source m1: A=0.5, B=0.3, A|B=0.2
source m2: A=0.2, C=0.5, A|B|C=0.3
"""


@pytest.mark.parametrize("rule, extra", [("dempster", set()), ("pcr5", {"fusekit.pcr"})])
def test_a_run_loads_only_its_rules_modules(tmp_path, rule, extra):
    problem = tmp_path / "p.txt"
    problem.write_text(SHAFER)
    code = textwrap.dedent("""
        import sys
        from fusekit.cli import main
        main(["--rule", sys.argv[1], "--input", sys.argv[2], "--export", sys.argv[3]])
    """) + _LOADED
    loaded = set(_fresh(code, rule, str(problem), str(tmp_path / "p.json")))
    assert (tmp_path / "p.json").exists()
    assert loaded == {f"fusekit.{m}" for m in (
        "classic", "cli", "errors", "frame", "mass", "problem", "registry", "result",
    )} | extra


@pytest.mark.parametrize("rule", ["dempster", "pcr5", "uft"])
def test_a_run_creates_no_dataclass(tmp_path, rule):
    # dataclasses and the inspect it imports cost about 10 ms of start-up.
    problem = tmp_path / "p.txt"
    problem.write_text(SHAFER)
    loaded = _fresh("""
        import json, sys
        from fusekit.cli import main
        main(["--rule", sys.argv[1], "--input", sys.argv[2], "--export", sys.argv[3]])
        print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
    """, rule, str(problem), str(tmp_path / "p.json"))
    assert (tmp_path / "p.json").exists()
    assert loaded == []


def test_verify_creates_no_dataclass():
    loaded = _fresh("""
        import json, sys
        from fusekit.cli import main
        assert main(["verify"]) == 0
        print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
    """)
    assert loaded == []


def test_every_public_name_resolves_lazily():
    names = _fresh("""
        import json, fusekit
        listed = [n for n in fusekit.__all__ if n in dir(fusekit)]
        namespace = {}
        exec("from fusekit import *", namespace)
        try:
            fusekit.no_such_name
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps({
            "all": fusekit.__all__,
            "resolved": [n for n in fusekit.__all__ if getattr(fusekit, n) is not None],
            "star": sorted(n for n in namespace if not n.startswith("__")),
            "dir": listed,
            "unknown": unknown,
        }))
    """)
    assert names["all"] == sorted(names["all"]) and len(names["all"]) == 67
    assert names["resolved"] == names["star"] == names["dir"] == names["all"]
    assert names["unknown"] == "AttributeError"


_FRAME = Frame.shafer(("A", "B"))
# Each record type: a factory of one value, a field and another value for it.
_VALUES = [
    (lambda **kw: ModelConstraints(**{"kind": "hybrid", "empty_atoms": frozenset({3}), **kw}),
     "kind", "free"),
    (lambda **kw: IntervalElement(**{"lo": 1, "hi": 3, **kw}), "hi", 4.0),
    (lambda **kw: Opinion(**{"belief": 0.2, "disbelief": 0.3, "uncertainty": 0.5,
                             "atomicity": 0.5, **kw}), "atomicity", 0.25),
    (lambda **kw: Partial(**{"operands": (), "mass": 0.1, "shares": ((None, 0.1),), **kw}),
     "mass", 0.2),
    (lambda **kw: ConflictReport(**{"k12": 0.1, **kw}), "k12", 0.2),
    (lambda **kw: FusionResult(**{"combined": MassFunction.vacuous(_FRAME),
                                  "conflict": ConflictReport(0.0), **kw}), "rule", "x"),
    (lambda **kw: ProblemFile(**{"frame": _FRAME, **kw}), "model_kind", "shafer"),
    (lambda **kw: RuleSpec(**{"name": "r", "combine": None, **kw}), "mode", "opinion"),
    (lambda **kw: Outcome(**{"kind": "mass", **kw}), "kind", "opinion"),
    (lambda **kw: Attitude(**{"kind": "right", "right": _FRAME.label("A"), **kw}),
     "recipients", (_FRAME.label("B"),)),
    (lambda **kw: ScenarioConfig(**{"case": "1", **kw}), "world", "open"),
    (lambda **kw: QuasiAssociativeState(**{"sources": (MassFunction.vacuous(_FRAME),),
                                           "_base": None, "_folded": 0, **kw}),
     "sources", ()),
    (lambda **kw: GoldenCase(**{"name": "n", "text": "frame: A B\n", "rule": "dempster", **kw}),
     "tolerance", 1e-6),
]


@pytest.mark.parametrize("make, field, other", _VALUES,
                         ids=[make().__class__.__name__ for make, _, _ in _VALUES])
def test_records_are_immutable_values(make, field, other):
    value = make()
    assert value == make() and value != make(**{field: other})
    if isinstance(value, ProblemFile):  # unhashable: its list and dicts are its own
        assert value.sources is not make().sources and value.discounts is not make().discounts
    elif isinstance(value, ScenarioConfig):  # unhashable: its dict is its own
        assert value.pair_attitudes is not make().pair_attitudes
    else:
        assert hash(value) == hash(make())
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    changed = value._replace(**{field: other})
    assert changed == make(**{field: other}) and value == make()
    assert pickle.loads(pickle.dumps(value)) == value
    names = value._fields if isinstance(value, tuple) else value.__slots__
    fields = tuple(getattr(value, name) for name in names)
    # Public value types neither are nor equal tuples; the records are tuples.
    public = (FusionResult, IntervalElement, Opinion, ProblemFile, Attitude, ScenarioConfig,
              QuasiAssociativeState)
    assert (value == fields) is not isinstance(value, public)
