"""Every object built per delivery, and every publish, is called positionally.

On CPython 3.11 a call to a class with keyword arguments builds a dict of
them on each call.  ``Header``, ``Message``, ``Sample`` and ``CachedValue``
are built, and ``Fabric.publish`` is called, on every hop, so the package
passes their arguments by position (see ``geniesim.model``'s docstring).
Making these calls positional, with ``TopicCacheDB._evict`` called only
under a bound and ``content_key`` sorting by one C ``attrgetter``, raised
bench ``loop``'s ``norm_frames_per_s`` by 7.45% at seed 7 (median 25,797
to 27,719 frames/s) and by 6.99% at seed 3 (25,884 to 27,694), the change
ahead in 10 of 10 alternating pairs at each seed, on a shared 2-vCPU VM
under Python 3.11.7 (``BENCH_37.json``).  This test parses each module of
the package and fails on a keyword argument in any such call.
"""

import ast
from pathlib import Path

import geniesim

PACKAGE = Path(geniesim.__file__).parent
CLASSES = {"Header", "Message", "Sample", "CachedValue"}


def called_name(call: ast.Call) -> str | None:
    """The guarded name a call is made to, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in CLASSES:
        return func.id
    if isinstance(func, ast.Attribute) and (func.attr in CLASSES or func.attr == "publish"):
        return func.attr
    return None


def guarded_calls():
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and (name := called_name(node)) is not None:
                yield f"{path.name}:{node.lineno}", name, node


def test_hot_path_objects_and_publish_take_no_keywords():
    keyword_calls = [
        (where, name, [k.arg or "**" for k in node.keywords])
        for where, name, node in guarded_calls()
        if node.keywords
    ]
    assert keyword_calls == []


def test_the_guard_sees_every_guarded_name():
    # a rename would otherwise leave the rule above checking nothing
    assert {name for _, name, _ in guarded_calls()} == CLASSES | {"publish"}
