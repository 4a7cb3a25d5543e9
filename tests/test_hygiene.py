"""Source hygiene that needs no linter: every module-level import is used,
every module-level private name is referenced somewhere in the package,
every public function and class is read in the package or exported, no
cache outlives a call (no module-level dict, list or set but ``__all__``,
no ``functools`` cache), no random generator or lock is shared (none at
module level, no ``ctypes``), every tolerance of the algorithm modules
is a named module-level constant, every agent plays in blocks (only
``fpa.FpaAgent`` keeps a per-round protocol), and only ``fpa.py`` spells
the agent's flag strings (everything else reads its epoch records)."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fairprice"


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(source: str) -> list[str]:
    """Module-level imports that nothing else in the module reads.  Names
    listed in ``__all__`` count as read (re-exports)."""
    tree = ast.parse(source)
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in used]


def test_the_check_catches_an_unused_import():
    source = ("from __future__ import annotations\nimport io\nimport os.path\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> str:\n    return os.path.join('a', str(x))\n")
    assert unused_imports(source) == ["io", "Sequence"]
    assert unused_imports("from .core import a, b\n__all__ = ['a', 'b']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore, not dunder) a module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the modules read, as a name, an attribute or an import."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name that no module of
    ``sources`` (name -> source) reads, as a name, an attribute or an
    import."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees)
    return [f"{name}:{private}" for name, tree in sorted(trees.items())
            for private in _private_definitions(tree) if private not in read]


def dead_public_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level public function or class that
    no module of ``sources`` reads.  The package's ``__init__`` imports what
    it exports, so an exported name counts as read."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = _read_names(trees)
    return [f"{name}:{node.name}" for name, tree in sorted(trees.items())
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_the_check_catches_an_unreferenced_private_name():
    sources = {"a": "_LIMIT = 3\ndef _used(x):\n    return x < _LIMIT\n"
                    "def _stale():\n    pass\nclass _Old:\n    pass\n",
               "b": "from .a import _used\nimport a\nprint(a._Old, _used(1))\n"}
    assert unreferenced_private_names(sources) == ["a:_stale"]


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_the_check_catches_a_dead_public_name():
    sources = {"a": "def helper(x):\n    return x\ndef exported():\n    pass\n"
                    "def stale(x):\n    return -x\nclass Old:\n    pass\n"
                    "def used():\n    return helper(1)\nLIMIT = 3\n",
               "b": "import a\nprint(a.used())\n",
               "__init__": "from .a import exported\n__all__ = ['exported']\n"}
    assert dead_public_names(sources) == ["a:stale", "a:Old"]


def test_every_public_name_is_read_or_exported():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_public_names(sources) == []


_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
_FUNCTOOLS_CACHES = {"cache", "lru_cache"}


def _called_name(value: ast.expr):
    """The name a call expression calls (``f`` of ``f()`` and ``m.f()``), or
    None when ``value`` is not a call."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_container(value: ast.expr) -> bool:
    """A dict, list or set display or comprehension, or a call that builds
    one (``dict()``, ``collections.defaultdict(list)``, ...)."""
    return isinstance(value, _CONTAINER_NODES) or _called_name(value) in _CONTAINER_CALLS


def _module_bindings(tree: ast.Module):
    """(name, value) for each plain name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        yield from ((t.id, value) for t in targets if isinstance(t, ast.Name))


def lasting_caches(source: str) -> list[str]:
    """Module-level names bound to a dict, list or set (``__all__`` aside),
    and every use of ``functools.cache`` or ``functools.lru_cache``: state
    that would outlive the call that filled it."""
    tree = ast.parse(source)
    found = [name for name, value in _module_bindings(tree)
             if name != "__all__" and _is_container(value)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"functools.{a.name}" for a in node.names if a.name in _FUNCTOOLS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in _FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(f"functools.{node.attr}")
    return found


def test_the_check_catches_a_lasting_cache():
    source = ("import functools\nfrom functools import lru_cache, reduce\n"
              "__all__ = ['f']\n_SEEN = {}\nNAMES: list[str] = []\n_MEMO = dict()\n"
              "KINDS = ('a', 'b')\nROW = ','.join(['%d'] * 3)\n"
              "@functools.cache\ndef f(x):\n    local = {}\n    return local.get(x)\n")
    assert lasting_caches(source) == ["_SEEN", "NAMES", "_MEMO", "functools.lru_cache",
                                      "functools.cache"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cache_outlives_a_call(path):
    assert lasting_caches(path.read_text()) == []


# Calls that build a random generator, a bit generator or a lock.
_SHARED_STATE_CALLS = {"default_rng", "Generator", "RandomState", "Random", "MT19937",
                       "PCG64", "PCG64DXSM", "Philox", "SFC64", "Lock", "RLock"}


def shared_generators(source: str) -> list[str]:
    """Module-level names bound to a random generator, a bit generator or a
    lock, which every caller of the module would share, and every
    ``ctypes`` import (a way into another object's private memory)."""
    tree = ast.parse(source)
    found = [name for name, value in _module_bindings(tree)
             if _called_name(value) in _SHARED_STATE_CALLS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "ctypes"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes":
            found.append(node.module)
    return found


def test_the_check_catches_a_shared_generator():
    source = ("import random\nimport threading\nimport numpy as np\n"
              "from numpy.random import default_rng\n"
              "_BITS = np.random.MT19937(0)\n_GEN = np.random.Generator(_BITS)\n"
              "RNG = default_rng(1)\n_LOCK = threading.Lock()\nSTREAM = random.Random(2)\n"
              "SEED = hash('x')\n"
              "def f():\n    import ctypes\n    from ctypes import c_uint32\n"
              "    rng = np.random.default_rng(0)\n    return rng.random()\n")
    assert shared_generators(source) == ["_BITS", "_GEN", "RNG", "_LOCK", "STREAM",
                                         "ctypes", "ctypes"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_generator_or_lock_is_shared(path):
    assert shared_generators(path.read_text()) == []


# The modules of the algorithm, whose tolerances each carry a name.
_ALGORITHM_MODULES = ("core.py", "linsolve.py", "oracle.py", "fpa.py", "sim.py")


def unnamed_tolerances(source: str) -> list[tuple[int, float]]:
    """(line, value) of each float literal with 0 < |x| < 1e-5 outside a
    module-level assignment: a tolerance used where it is needed, with no
    name to tie it to the others.  Walks the AST, so docstrings and
    comments do not count."""
    tree = ast.parse(source)
    named = {id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt)}
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-5 and id(node) not in named]


def test_the_check_catches_an_unnamed_tolerance():
    source = ('"""Rounds to 1e-9."""\nTOL = 1e-9  # 1e-12 in a comment\n'
              "_PAIR: tuple = (1e-7, 0.5)\n"
              "def f(x, eps=1e-12):\n    'Exact to 1e-15.'\n"
              "    y = x * 1e-3 + 1e-6\n    return abs(y) <= -2.5e-8 + TOL + 0.0\n")
    assert unnamed_tolerances(source) == [(4, 1e-12), (6, 1e-6), (7, 2.5e-8)]


@pytest.mark.parametrize("name", _ALGORITHM_MODULES)
def test_every_tolerance_is_named(name):
    assert unnamed_tolerances((SRC / name).read_text()) == []


_PER_ROUND_METHODS = {"propose_price", "observe"}
_BATCH_METHODS = {"batch_rounds", "propose_batch", "observe_batch"}
# The one class that keeps the per-round protocol, for drivers outside the
# package that wrap the learner round by round.
_PER_ROUND_KEPT = "fpa.py:FpaAgent"


def per_round_agents(sources: dict[str, str]) -> list[str]:
    """What breaks the block protocol, for each class of ``sources`` (name
    -> source) that defines an agent method (``current_policy`` or a method
    of either protocol): each per-round method of a class other than
    ``fpa.FpaAgent``, and each batch method the class lacks."""
    found = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if not methods & (_PER_ROUND_METHODS | _BATCH_METHODS | {"current_policy"}):
                continue
            label = f"{name}:{node.name}"
            if label != _PER_ROUND_KEPT:
                found += [f"{label}.{m}" for m in sorted(methods & _PER_ROUND_METHODS)]
            found += [f"{label} lacks {m}" for m in sorted(_BATCH_METHODS - methods)]
    return found


def test_the_check_catches_a_per_round_agent():
    batch = ("    def batch_rounds(self): pass\n    def propose_batch(self, g): pass\n"
             "    def observe_batch(self, g, i, a): pass\n")
    per_round = "    def propose_price(self, g): pass\n    def observe(self, g, i, a): pass\n"
    sources = {"fpa.py": "class FpaAgent:\n" + per_round + batch,
               "sim.py": ("class Blocks:\n" + batch + "    def current_policy(self): pass\n"
                          "class Rounds:\n" + per_round + "    def current_policy(self): pass\n"
                          "class Both:\n" + per_round + batch
                          + "class Half:\n    def propose_batch(self, g): pass\n"
                          "class Trace:\n    def append(self, row): pass\n")}
    assert per_round_agents(sources) == [
        "sim.py:Rounds.observe", "sim.py:Rounds.propose_price",
        "sim.py:Rounds lacks batch_rounds", "sim.py:Rounds lacks observe_batch",
        "sim.py:Rounds lacks propose_batch", "sim.py:Both.observe",
        "sim.py:Both.propose_price", "sim.py:Half lacks batch_rounds",
        "sim.py:Half lacks observe_batch"]


def test_only_the_learner_keeps_a_per_round_protocol():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert per_round_agents(sources) == []


# The kinds of flag string that FpaAgent.meta() renders from its epoch
# records for the summary JSON.
_FLAG_KINDS = ("probe_ledger_infeasible", "empty_active_set", "optimizer_ledger_infeasible",
               "epoch_truncated")
_FLAG_WORD = re.compile(r"\b(" + "|".join(_FLAG_KINDS) + r")\b")
_FLAGS_RENDERED_IN = "fpa.py"


def flag_spellings(sources: dict[str, str]) -> list[str]:
    """``name:kind`` for each flag kind that a source other than ``fpa.py``
    spells anywhere, code, string or comment: a module that does reads the
    rendered strings instead of the epoch records' fields."""
    return [f"{name}:{kind}" for name, source in sorted(sources.items())
            if Path(name).name != _FLAGS_RENDERED_IN
            for kind in dict.fromkeys(_FLAG_WORD.findall(source))]


def test_the_check_catches_a_spelled_flag():
    sources = {"src/fairprice/fpa.py": 'f"empty_active_set:e{k}"\n',
               "src/fairprice/sim.py": ("if 'epoch_truncated:e5' in agent.flags:\n"
                                        "    pass  # optimizer_ledger_infeasible too\n"),
               "demos/anatomy.py": ("print(res.ledger_infeasible, agent._epoch_truncated,\n"
                                    "      [f for f in flags if f.startswith("
                                    "'probe_ledger_infeasible:')])\n")}
    assert flag_spellings(sources) == ["demos/anatomy.py:probe_ledger_infeasible",
                                       "src/fairprice/sim.py:epoch_truncated",
                                       "src/fairprice/sim.py:optimizer_ledger_infeasible"]


def test_only_the_agent_spells_its_flags():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    assert flag_spellings(sources) == []
