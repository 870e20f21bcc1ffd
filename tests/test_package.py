"""Package-wide properties: fusekit runs on the standard library alone,
and the README names every rule selector."""

import ast
import pathlib
import re
import sys

import fusekit
from fusekit.registry import selectors

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
