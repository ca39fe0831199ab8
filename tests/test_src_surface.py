"""The package keeps no member that only tests call: every function and
class, every ``self.x`` instance attribute and every module-level name
defined under ``src/geniesim``, other than a dunder, is loaded somewhere in
``src/geniesim`` by a name or an attribute (an instance attribute only by
an attribute).  An import is not a use.  The few members kept for callers
outside the package are listed with the reason, and each is used under
``tests`` or ``bench``.

Each name has one import path, its module: ``geniesim`` itself binds only
``__version__``, and no module imports a name it does not load."""

import ast
from pathlib import Path

import geniesim

PACKAGE = Path(geniesim.__file__).parent
OUTSIDE = [Path(__file__).parent, PACKAGE.parents[1] / "bench"]

# member -> why it stays with no caller in the package; an instance attribute
# is listed as ``Class.attr`` and a module-level name as ``module.name``
OUTSIDE_CALLERS = {
    "boost_curve": "the acceptance suite reads a report's confidence-boost curve",
    "apply_update": "the acceptance suite checks each confidence update rule",
    "record_deliveries": "the goldens, fuzz and bench turn on the delivery log",
    "deliveries": "the goldens, fuzz and bench read the delivery log",
    "detector_stub": "criterion 2's oracle",
    "quantize": "criterion 6's oracle, and the reference for objectmap's four inlined copies",
    "share_filter": "criterion 6's oracle",
    "Fabric.delivered": "tests count deliveries with it",
    "harness.build_genie_scenario": "the acceptance suite and the bench call it",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def loads(tree):
    """(names, attributes): every name and every attribute ``tree`` loads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def scan():
    """(defined, used): each non-dunder member defined in the package with its
    module, and the members the package loads.  A function, class or
    module-level name is loaded by a name or an attribute; an instance
    attribute only by an attribute."""
    defined, attrs, names, attributes = {}, set(), set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = parse(path)
        file_names, file_attributes = loads(tree)
        names |= file_names
        attributes |= file_attributes
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name) and not dunder(node.id):
                            defined.setdefault(f"{path.stem}.{node.id}", path.name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not dunder(node.name):
                    defined.setdefault(node.name, path.name)
            if isinstance(node, ast.ClassDef):
                for attr in ast.walk(node):
                    if (isinstance(attr, ast.Attribute) and isinstance(attr.ctx, ast.Store)
                            and isinstance(attr.value, ast.Name) and attr.value.id == "self"):
                        attrs.add(f"{node.name}.{attr.attr}")
                        defined.setdefault(f"{node.name}.{attr.attr}", path.name)
    used = {
        member for member in defined
        if used_name(member) in (attributes if member in attrs else names | attributes)
    }
    return defined, used


def used_name(member):
    return member.rpartition(".")[2]


def test_every_member_has_a_caller_in_the_package():
    defined, used = scan()
    assert len(defined) >= 100
    unused = sorted((module, name) for name, module in defined.items() if name not in used)
    assert [(module, name) for module, name in unused if name not in OUTSIDE_CALLERS] == []


def test_each_listed_member_exists_and_has_no_caller_in_the_package():
    defined, used = scan()
    assert sorted(name for name in OUTSIDE_CALLERS if name not in defined) == []
    assert sorted(name for name in OUTSIDE_CALLERS if name in used) == []


def test_each_listed_member_is_used_outside_the_package():
    identifiers = set()
    for path in sorted(p for root in OUTSIDE for p in root.rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
            elif isinstance(node, ast.alias):
                identifiers.add(node.name)
    assert sorted(name for name in OUTSIDE_CALLERS if used_name(name) not in identifiers) == []


def test_the_package_binds_only_its_version():
    bound = set()
    for node in ast.walk(parse(PACKAGE / "__init__.py")):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add(node.asname or node.name.partition(".")[0])
    assert bound == {"__version__"}


def test_every_import_is_loaded_in_its_module():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    unused = []
    for path in modules:
        tree = parse(path)
        used = loads(tree)[0]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name != "annotations" and name not in used:
                        unused.append((path.name, name))
    assert unused == []


def random_builders(tree, scope):
    """The qualified name of the scope of each ``random.Random`` built in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("random.Random", "Random"):
            yield scope
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from random_builders(node, f"{scope}.{node.name}" if named else scope)


def test_only_the_fabric_touches_the_runs_random_stream():
    # the fabric owns the run's one stream: no other module reads an ``rng``,
    # and the only other streams are synth_trace's, which exist before a run
    readers, builders = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = parse(path)
        builders.update(random_builders(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in ("rng", "_rng"):
                readers.add(path.name if path.stem == "simnet" else f"{path.name}:{node.lineno}")
    assert readers == {"simnet.py"}
    assert builders == {"simnet.Fabric.__init__", "workload.synth_trace"}
