"""No top-level function or class of the package goes unused.

Every top-level def and class in src/wpcone must be referenced somewhere in
the package outside its own body, unless it is public (wpcone.__all__), the
console-script entry, a module hook the interpreter calls (a dunder such as
PEP 562's __getattr__), or one of the few names KEPT_FOR_TESTS lists.  A
name that only tests call belongs in the tests.
"""

import ast
import pathlib

import wpcone

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wpcone"

#: Kept in the package though nothing in it calls them.  The first three are
#: the references README documents as API: plain forms of what a fast path
#: computes, which the tests compare it against.
KEPT_FOR_TESTS = (
    "gap_value",  # the paper's gap width; reference for the torus gaps
    "pairing_kernel",  # complex pairing kernel; pairing_kernel_re is its real part
    "substitute_imaginary",  # term-by-term l -> i*theta; compute_volume's signs
    "clear_memo",  # tests and the benchmark start cold with it
)


#: The `wpcone` console script, as pyproject.toml declares it.
CONSOLE_SCRIPT = 'wpcone = "wpcone.cli:main"'


def top_level_definitions():
    """(module, name) for every top-level def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, node.name


def referenced_names():
    """Every name the package loads or reads as an attribute, with the
    definition that contains each reference (None at module level)."""
    refs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.append((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    refs.append((node.attr, owner))
    return refs


def test_every_top_level_definition_is_used_or_exempt():
    refs = referenced_names()
    exempt = set(wpcone.__all__) | {"main"} | set(KEPT_FOR_TESTS)
    unused = []
    for module, name in top_level_definitions():
        if name in exempt or (name.startswith("__") and name.endswith("__")):
            continue
        if not any(ref == name and owner != (module, name) for ref, owner in refs):
            unused.append(f"{module}.{name}")
    assert not unused, f"referenced nowhere in src/wpcone: {unused}"


def test_every_exemption_still_names_a_definition():
    defined = set(top_level_definitions())
    assert {name for _, name in defined} >= set(KEPT_FOR_TESTS)
    assert ("cli", "main") in defined
    assert CONSOLE_SCRIPT in (ROOT / "pyproject.toml").read_text()


def test_cap_defaults_are_read_only_where_they_are_set_and_served():
    """recursion sets the DEFAULT_MAX_* caps in compute_volume's signature;
    cli shows them as flag defaults.  Every other module passes caps on as
    keywords and never names a default."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name.startswith("DEFAULT_MAX_"):
                readers.add(path.stem)
    assert readers == {"recursion", "cli"}
