"""The package keeps no member that only tests call: every function and class
defined under ``src/geniesim``, other than a dunder, is referenced somewhere
in ``src/geniesim`` by a name, an attribute or an import alias.  The few
members kept for callers outside the package are listed with the reason."""

import ast
from pathlib import Path

import geniesim

PACKAGE = Path(geniesim.__file__).parent

# member -> why it stays with no caller in the package
OUTSIDE_CALLERS = {
    "boost_curve": "the acceptance suite reads a report's confidence-boost curve",
    "apply_update": "the acceptance suite checks each confidence update rule",
    "record_deliveries": "the goldens, fuzz and bench turn on the delivery log",
    "deliveries": "the goldens, fuzz and bench read the delivery log",
}


def scan():
    """(defined, referenced): each non-dunder function or class name defined in
    the package with its module, and every name the package refers to."""
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return defined, referenced


def test_every_member_has_a_caller_in_the_package():
    defined, referenced = scan()
    assert len(defined) >= 100
    unused = sorted((module, name) for name, module in defined.items() if name not in referenced)
    assert [(module, name) for module, name in unused if name not in OUTSIDE_CALLERS] == []


def test_each_listed_member_exists_and_has_no_caller_in_the_package():
    defined, referenced = scan()
    assert sorted(name for name in OUTSIDE_CALLERS if name not in defined) == []
    assert sorted(name for name in OUTSIDE_CALLERS if name in referenced) == []
