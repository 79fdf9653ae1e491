"""Package hygiene: every public name of ``upperset`` has a use outside the
tests, no module imports another module's private names, no module
computes in floats, and none reads Fraction's private internals.

A public top-level function, class or method that nothing in the package
or the benchmark refers to is a dead entry point: a routine that only the
tests call belongs in the tests, as an oracle next to the tests that
compare a package route against it.  A reference is a name or an attribute
in the code of ``src`` or ``perfbench``; a mention in a docstring, comment
or string does not count.  Dunder methods are exempt, since Python calls
them, and so are the entry points below, which a user calls and nothing in
the package needs to.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "upperset"
SEARCHED = ("src", "perfbench")

ENTRY_POINTS = {
    # Lists the implications a matrix violates without downgrading it.
    "diagram_violations",
    # Looks up one labeled fixture by the id its JSON and reports carry.
    "fixture_by_id",
    # Reads a map back from the JSON that map_to_json writes.
    "map_from_json",
    # Writes the JSON that map_from_json reads.
    "map_to_json",
}


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


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_public_name_is_dead():
    used = {
        name
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        for name in _references(ast.parse(path.read_text()))
    }
    dead, defined = [], set()
    for module in sorted(PACKAGE.glob("*.py")):
        for name in _public_names(ast.parse(module.read_text())):
            defined.add(name)
            if not (name.startswith("_") or name in ENTRY_POINTS or name in used):
                dead.append(f"{module.name}: {name}")
    assert dead == []
    assert ENTRY_POINTS <= defined


def test_no_module_imports_a_private_name():
    # A private name is one module's own business; a second module that
    # needs it needs a public name for it.
    imported = [
        f"{module.name}: {alias.name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []


def test_only_duality_imports_the_simplex():
    # The LP solver's one caller is ``duality._attained_dual_vector``; every
    # other question is answered by a double description.
    importing = sorted(
        module.name
        for module in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "simplex" or node.module is None and any(a.name == "simplex" for a in node.names))
        or isinstance(node, ast.Import) and any(a.name.endswith(".simplex") for a in node.names)
    )
    assert importing == ["duality.py"]


# The one import inside a function: ``conjugate`` and ``scalarize`` import
# each other, so ``conjugate`` reads ``scalarize`` when the function runs.
# The set may only shrink.
LOCAL_IMPORTS = {"conjugate.py: neg_conjugate_scalar_route: scalarize"}


def test_no_function_imports_a_module():
    # Every other dependency is a module-level import, so a module's first
    # lines say what it depends on.
    local = {
        f"{module.name}: {fn.name}: {node.module or ''}"
        for module in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(module.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    assert local == LOCAL_IMPORTS


def test_no_module_imports_dataclasses():
    # Each process pays the package import, and a dataclass generates and
    # compiles its methods' source while its module is imported: about
    # 0.7 ms per record, against 0.1 ms for a NamedTuple and 0.01 ms for a
    # plain class.  Records are NamedTuples or plain classes instead.
    importing = [
        f"{module.name}:{node.lineno}"
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert importing == []


# The math names an exact module may use: integer arithmetic and the
# infinities that bound extended reals.
EXACT_MATH = {"gcd", "lcm", "isqrt", "isinf", "inf"}


def test_no_module_computes_in_floats():
    # Every value the package computes is a Fraction or +-inf: no module
    # converts to float or reaches for float math (angles, roots, logs).
    inexact = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                inexact.append(f"{module.name}:{node.lineno}: float(...)")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
                if node.attr not in EXACT_MATH:
                    inexact.append(f"{module.name}:{node.lineno}: math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                names = {alias.name for alias in node.names}
                inexact.extend(f"{module.name}:{node.lineno}: math.{n}" for n in sorted(names - EXACT_MATH))
    assert inexact == []


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def test_every_import_is_used():
    # An import that its module never reads is left over from a move; the
    # names a module imports should say what it depends on.
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        used = set(_references(tree))
        unused += [f"{module.name}:{line}: {name}" for line, name in _imported_names(tree) if name not in used]
    assert unused == []


INFINITIES = {"POS_INF", "NEG_INF"}


def _named(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_infinities_are_told_apart_by_type():
    # An extended value's only floats are +inf and -inf, so its type and
    # sign say which one it is.  ``==`` or ``!=`` against POS_INF or NEG_INF
    # runs Fraction's comparison with a float, through the ``numbers`` ABC
    # checks, on every Fraction it meets.
    compared = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                named = {_named(left), _named(right)}
                if isinstance(op, (ast.Eq, ast.NotEq)) and named & INFINITIES:
                    compared.append(f"{module.name}:{node.lineno}")
    assert sorted(set(compared)) == []


# Fraction's private names differ between the Python versions the package
# supports: the ``_normalize`` keyword exists only up to 3.11 and
# ``_from_coprime_ints`` only from 3.12.  Exact kernels read ``.numerator``
# and ``.denominator`` and build ``Fraction(int, int)``.
FRACTION_ATTRIBUTES = {"_numerator", "_denominator", "_from_coprime_ints"}
FRACTION_KEYWORDS = {"_normalize"}


def test_no_module_reaches_into_fraction_internals():
    private = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in FRACTION_ATTRIBUTES:
                private.append(f"{module.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.keyword) and node.arg in FRACTION_KEYWORDS:
                private.append(f"{module.name}:{node.lineno}: {node.arg}=")
    assert private == []


# The leaf kinds belong to ``maps``, where each leaf answers every question
# about itself, and to ``corpus``, which builds the fixtures.  Any other
# module asks a leaf, so a new reader adds no kind switch of its own.
LEAF_KIND_NAMES = {"AffineBody", "ScaledBody", "PiecewiseBody", "fixed_normals"}
LEAF_KIND_OWNERS = {"maps.py", "corpus.py"}


def test_only_maps_and_corpus_name_the_leaf_kinds():
    named = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name in LEAF_KIND_OWNERS:
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            name = node.name if isinstance(node, ast.alias) else _named(node)
            if name in LEAF_KIND_NAMES:
                named.append(f"{module.name}:{node.lineno}: {name}")
    assert named == []


# Every double-description pass goes through the routines that the kernel
# oracle and the ``dd_passes`` fixture watch: only ``geometry`` runs the
# kernel or reads generators back as facets.
KERNEL_NAMES = {"_double_description", "_hull"}


def test_only_geometry_names_the_kernel():
    named = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            name = node.name if isinstance(node, ast.alias) else _named(node)
            if name in KERNEL_NAMES:
                named.append(f"{module.name}:{node.lineno}: {name}")
    assert named == []
