"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "pathmeas").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """The names bound by module-level imports that the module never reads
    (``from __future__`` imports are exempt)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_what_it_should():
    assert unused_imports("from __future__ import annotations\nimport os\nimport a.b\n"
                          "from m import x, y as z\nprint(a.b, z)\n") == ["os", "x"]


MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def shared_containers(source: str) -> list:
    """The names that a module, or a class body in it, binds to a mutable
    container (a dict, list or set literal, comprehension or call): state
    shared by the whole process, where kept derived data belongs on the
    object it derives from (a cache keyed by id() can outlive its object)."""
    found = []

    def scan(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
                value = node.value
                call = isinstance(value, ast.Call) and (
                    getattr(value.func, "id", None) or getattr(value.func, "attr", None))
                if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                      ast.SetComp)) or call in MUTABLE_CALLS:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    found.extend(ast.unparse(t) for t in targets)

    scan(ast.parse(source).body)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_shared_mutable_containers(path):
    assert shared_containers(path.read_text()) == []


def test_shared_container_check_sees_what_it_should():
    assert shared_containers(
        "import collections\nA = {}\nB: list = []\nC = {1}\nD = dict()\n"
        "E = collections.OrderedDict()\nF = [x for x in y]\nG = (1, 2)\nH = frozenset()\n"
        "class K:\n    cache = {}\n    n = 0\n    rows: dict = field(default_factory=dict)\n"
        "def f():\n    local = {}\n") == ["A", "B", "C", "D", "E", "F", "cache"]


def _names_read(node) -> Counter:
    """How often each name or attribute is read within ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_private_functions(sources: list) -> list:
    """The single-underscore functions and methods defined in ``sources``
    (the texts of one package's modules) that no code in the package
    refers to, outside their own definition: dead helpers."""
    trees = [ast.parse(source) for source in sources]
    read = sum(map(_names_read, trees), Counter())
    return [node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and read[node.name] == _names_read(node)[node.name]]


def test_no_unreferenced_private_functions():
    assert unreferenced_private_functions([p.read_text() for p in SOURCES]) == []


def test_unreferenced_function_check_sees_what_it_should():
    assert unreferenced_private_functions([
        "def _used():\n    pass\ndef _dead():\n    return _dead()\n"
        "def __init__(self):\n    pass\ndef public():\n    pass\n"
        "class K:\n    def _method(self):\n        pass\n    def _kept(self):\n"
        "        return self._kept\n",
        "from a import _used\nprint(_used(), K()._kept)\n"]) == ["_dead", "_method"]


def memo_slots(source: str) -> list:
    """The attributes x of each ``if self.x is None:`` block that assigns
    self.x: a memo slot kept by hand, where functools.cached_property
    belongs."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
            continue
        left, (op,), (right,) = node.test.left, node.test.ops, node.test.comparators
        if (isinstance(op, ast.Is) and isinstance(right, ast.Constant) and right.value is None
                and isinstance(left, ast.Attribute) and getattr(left.value, "id", None) == "self"):
            assigned = [ast.unparse(t) for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Assign) for t in n.targets]
            if ast.unparse(left) in assigned:
                found.append(left.attr)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_memo_slots(path):
    assert memo_slots(path.read_text()) == []


def test_memo_slot_check_sees_what_it_should():
    assert memo_slots(
        "class K:\n    def a(self):\n        if self._a is None:\n            self._a = 1\n"
        "        return self._a\n"
        "    def b(self):\n        if self._b is None:\n            if True:\n"
        "                x = self._b = 2\n"
        "    def c(self):\n        if self._c is None:\n            raise ValueError\n"
        "    def d(self, other):\n        if other.x is None:\n            other.x = 1\n"
        "        if self.y is not None:\n            self.y = 1\n"
        "        if self.z == None:\n            self.z = 1\n"
        "        if self._t[0] is None:\n            self._t[0] = 1\n") == ["_a", "_b"]
