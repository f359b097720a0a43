"""Every public top-level function and class of the package has a caller.

A name counts as called when it appears as a name, an attribute or an
import in a package module, in the acceptance gate, or in the benchmark
tracer (which also looks attributes up by string).  Docstrings and
comments do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sturmion"


def names_used(path, strings=False):
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_definition_has_a_caller():
    modules = sorted(PACKAGE.glob("*.py"))
    used = names_used(ROOT / "tests" / "test_acceptance.py") \
        | names_used(ROOT / "perfbench" / "tracing.py", strings=True)
    for path in modules:
        used |= names_used(path)
    uncalled = [f"{path.name}: {node.name}" for path in modules
                for node in ast.parse(path.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in used]
    assert uncalled == []
