"""Every name a package or test module imports is read in that module
and imported there once, and every function, class and method the
package defines is used by the program: named in another package module
or a benchmark file, not only in tests or in ``__init__.py``'s
re-exports.

The package's ``__init__.py`` is exempt from the import check: its imports
are its re-exports.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from collections.abc import Container
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "corridor_forge"
PERFBENCH = TESTS.parent / "perfbench"
PACKAGE_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# ids are file names; none is shared with the package
MODULES = PACKAGE_MODULES + sorted(TESTS.glob("*.py"))
# definitions no program path names yet, each with the reason it stays
EXEMPT = {"i_end": "ROADMAP item 5"}


def unused_imports(source: str) -> list[str]:
    """The imports of a module that bind a name it never reads, or a name
    an earlier import already bound. Assigning or deleting the name does
    not read it."""
    tree = ast.parse(source)
    bound: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused, seen = [], set()
    for line, name in sorted(bound):
        if name in seen:
            unused.append(f"{name} (line {line}, imported again)")
        elif name not in read:
            unused.append(f"{name} (line {line})")
        seen.add(name)
    return unused


def test_detects_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, json as j\n"
        "from math import exp, pi, tau\n"
        "import sys\n"
        "print(j, pi)\n"
        "tau = 2 * j.loads('3')\n"
        "def f():\n"
        "    from math import pi\n"
        "    return pi\n"
        "del sys\n"
    )
    assert unused_imports(source) == [
        "os (line 2)", "exp (line 3)", "tau (line 3)", "sys (line 4)",
        "pi (line 8, imported again)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def mentions(tree: ast.AST) -> Counter:
    """How often each name is named in the tree: as a name, an attribute,
    an imported name, or a string constant that is an identifier, like the
    benchmark tracer's targets."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                named[node.value] += 1
    return named


def dead_definitions(checked: dict[str, str], exempt: Container[str], others: list[str]) -> list[str]:
    """The functions, classes and non-dunder methods defined in the
    ``checked`` sources (file name -> source) that are not ``exempt`` and
    are named nowhere outside their own definition, in ``checked`` or in
    ``others``."""
    trees = {name: ast.parse(source) for name, source in checked.items()}
    named = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        named += mentions(tree)
    dead = []
    for file_name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if named[name] == mentions(node)[name]:
                dead.append(f"{file_name}: {name} (line {node.lineno})")
    return dead


def test_detects_dead_definition():
    checked = {
        "a.py": (
            "def used(): pass\n"
            "def dead(): used()\n"
            "def recursive(k): return recursive(k - 1)\n"
            "class Shown:\n"
            "    def unnamed(self): pass\n"
            "    def __len__(self): return 0\n"
            "    def read(self): return self.helper()\n"
            "    def helper(self): pass\n"
            "class Self:\n"
            "    def make(cls): return Self()\n"
            "def targeted(): pass\n"
            "def imported(): pass\n"
            "def exempt(): pass\n"
        ),
        "b.py": "print(Shown().read)\n",
    }
    others = ['from a import imported\nTARGETS = [("a.targeted", None, "targeted")]\n'
              'counters["a.dead"] += 1\n']
    assert dead_definitions(checked, {"exempt"}, others) == [
        "a.py: dead (line 2)",
        "a.py: recursive (line 3)",
        "a.py: Self (line 9)",
        "a.py: unnamed (line 5)",
        "a.py: make (line 10)",
    ]


def test_no_dead_definitions():
    # an export counts as used only where the program names it: the
    # package's re-exports and the tests do not
    checked = {path.name: path.read_text() for path in PACKAGE_MODULES}
    others = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert dead_definitions(checked, EXEMPT, others) == []
    # each exemption is still needed
    assert len(dead_definitions(checked, (), others)) == len(EXEMPT)


def test_package_import_loads_no_numpy_or_scipy():
    # numpy and scipy back only the test oracles; the CLI's import chain
    # must not pay for them
    code = (
        "import sys, corridor_forge, corridor_forge.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
