"""The package runs on the standard library alone: every absolute import in
``src/geniesim`` names ``geniesim`` or a standard-library module, and
``pyproject.toml`` declares no dependencies.  The test oracles stay
independent of the code they check: ``tests/oracles.py`` takes from the
package only the value types of ``geniesim.model``."""

import ast
import sys
from pathlib import Path

import geniesim

PACKAGE = Path(geniesim.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
ORACLES = Path(__file__).with_name("oracles.py")


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_the_package_or_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    foreign = [
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"geniesim"}
    ]
    assert foreign == []


def test_pyproject_declares_no_dependencies():
    # read as text: tomllib joined the standard library in 3.11, after the
    # oldest Python that pyproject.toml admits
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert [line for line in project.splitlines() if line.startswith("dependencies")] == [
        "dependencies = []"
    ]


def test_oracles_take_only_the_value_types_from_the_package():
    package = [name for name in absolute_imports(ORACLES) if name.partition(".")[0] == "geniesim"]
    assert package and set(package) == {"geniesim.model"}
