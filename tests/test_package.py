"""Package-wide properties: fusekit runs on the standard library alone."""

import ast
import pathlib
import sys

import fusekit

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
