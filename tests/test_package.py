"""Package hygiene: every public name of ``upperset`` has a use.

A public top-level function, class or method that nothing in the package,
the benchmark or the tests mentions besides its own definition is a dead
entry point.  The check is textual: a name counts as used when it occurs as
a whole word at least twice across the source text (its definition plus one
use).  Dunder methods are exempt, since Python calls them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "upperset"
SEARCHED = ("src", "perfbench", "tests")


def _public_names(tree: ast.Module):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs):
                    yield member.name


def test_no_public_name_is_dead():
    text = "\n".join(
        path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    )
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name in _public_names(ast.parse(module.read_text())):
            if name.startswith("_"):
                continue
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2:
                dead.append(f"{module.name}: {name}")
    assert dead == []
