"""Every function, method and class in ``src/reembed`` has a reader.

A definition counts as reached when its name appears as a name or an
attribute in ``src/reembed`` itself, in the acceptance gate
(``tests/test_acceptance.py``) or in the benchmark's span bindings
(``perfbench/spans.py``, whose bindings name functions by string, so its
string constants count too).  The other tests do not count: a function
only they call is library surface that no job, gate or benchmark reaches.
Import lines do not count either, so a name ``__init__`` re-exports still
needs a reader.

The check goes by name, not by binding.  It passes a dead method that
shares its name with a live one (``zero`` on a class, say, while
``field.zero()`` is called elsewhere); such methods are found by reading.
``perfbench/`` is only read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reembed"

# called by argparse, never by name
HOOKS = {"_Parser.error"}


def _definitions(tree):
    """(qualified name, name, line) of every function, method and class."""
    out = []

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                out.append((prefix + node.name, node.name, node.lineno))
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")

    walk(tree.body, "")
    return out


def _references(tree, strings=False):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
    return names


def test_every_definition_is_reached():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    assert "jobs.py" in modules
    refs = set()
    for tree in modules.values():
        refs |= _references(tree)
    refs |= _references(ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    refs |= _references(ast.parse(
        (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")),
        strings=True)
    unreached = [
        f"{module}:{line} {qualified}"
        for module, tree in modules.items()
        for qualified, name, line in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and qualified not in HOOKS and name not in refs]
    assert unreached == []


def test_the_scan_sees_a_dead_function():
    # a definition nothing reads is reported; its import alone is no read
    tree = ast.parse("from .m import dead\n"
                     "def dead():\n    pass\n"
                     "def live():\n    pass\n"
                     "live()\n")
    refs = _references(tree)
    names = [name for _, name, _ in _definitions(tree)]
    assert [n for n in names if n not in refs] == ["dead"]
