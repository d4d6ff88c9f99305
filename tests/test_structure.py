"""Module boundaries of the package: no module of ``porosplit`` imports or
reads a private (underscore) name of another module.  A private helper that
another module needs is made public and listed in its owner's ``__all__``.
Only ``fem`` reads an underscore attribute of ``ops``, the
``DiscreteOperators`` that every solver function takes.
Every dataclass of the package is frozen and holds no list, dict or set,
so a record cannot change after it is made, and only ``PoroState``'s memo
writes past that with ``object.__setattr__``.  No module rebinds a module
global from inside a function with a ``global`` statement.  Monolithic
Newton's condensed cell layout is named only in ``fem``, which fixes its
columns, and ``schemes``, which builds and reads its blocks.  Every
benchmark record ``BENCH_*.json`` at the repository root states where its
numbers came from."""

import ast
import io
import json
import re
import tokenize
import types
from collections import Counter
from pathlib import Path

import pytest

import porosplit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "porosplit"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(module: str | None, level: int) -> str | None:
    """The package module an ``import`` names, if any (None for the
    package itself and for outside modules)."""
    if level == 1 and module:
        return module.split(".")[0]
    if level == 0 and module and module.startswith("porosplit."):
        return module.split(".")[1]
    return None


def private_accesses(source: str, own: str) -> list:
    """(line, text) of every private name of another package module that
    ``source`` (the module named ``own``) imports or reads as an attribute."""
    tree = ast.parse(source)
    aliases = {}   # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = _sibling(node.module, node.level)
            for alias in node.names:
                local = alias.asname or alias.name
                if target is None and (node.level == 1 or node.module == "porosplit"):
                    aliases[local] = alias.name   # from . import constitutive as laws
                elif target not in (None, own) and _private(alias.name):
                    found.append((node.lineno, f"from {target} import {alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = _sibling(alias.name, 0)
                if target is not None and alias.asname:
                    aliases[alias.asname] = target
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id) not in (None, own) and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_across_modules(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert private_accesses(source, module) == []


def test_checker_sees_every_form():
    source = '''
from __future__ import annotations
from . import constitutive as laws, fem
from .model import (
    PoroState,
    _flow_parts,
)
from porosplit.fem import _helper
import porosplit.anderson as aa
from ._own import _fine

def f(state, _local):
    laws._cache.clear()
    fem._x
    aa._window
    laws.__name__
    state._sat
    return _local._y
'''
    got = [text for _, text in private_accesses(source, "_own")]
    assert sorted(got) == sorted([
        "from model import _flow_parts", "from fem import _helper",
        "laws._cache", "fem._x", "aa._window",
    ])


def private_operator_reads(source: str) -> list:
    """(line, text) of every underscore attribute that ``source`` reads off
    the name ``ops``."""
    return sorted((node.lineno, f"ops.{node.attr}") for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "ops" and _private(node.attr))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "fem"])
def test_only_fem_reads_private_operator_state(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert private_operator_reads(source) == []


def test_operator_checker_sees_every_form():
    source = '''
def residual(state, params, ops):
    a = ops._elastic_factor.matrix
    b = ops._flux_supernodes[0] + len(ops.stiffness.data)
    ops.__class__, getattr(ops, "order")
    return state._sat, other._x, ops.mesh._cells
'''
    assert private_operator_reads(source) == [(3, "ops._elastic_factor"),
                                              (4, "ops._flux_supernodes")]


MUTABLE_TYPES = {"list", "dict", "set", "List", "Dict", "Set"}


def _mutable_annotation(node) -> bool:
    """Whether a field annotation names a list, dict or set anywhere in it:
    bare, subscripted, in a union, qualified (``typing.List``) or quoted."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return any(getattr(n, "id", getattr(n, "attr", None)) in MUTABLE_TYPES
               for n in ast.walk(node))


def mutable_dataclasses(source: str) -> list:
    """(line, class) of every class in ``source`` decorated with
    ``dataclass``, called or not, without ``frozen=True``, and (line,
    class.field) of every field of such a class annotated as a list, dict
    or set: frozen or not, a record holding one can change in place."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(target, "attr", getattr(target, "id", None)) != "dataclass":
                continue
            keywords = dec.keywords if isinstance(dec, ast.Call) else []
            if not any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                       and k.value.value is True for k in keywords):
                found.append((node.lineno, node.name))
            found += [(stmt.lineno, f"{node.name}.{stmt.target.id}") for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and _mutable_annotation(stmt.annotation)]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_dataclass_is_frozen(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert mutable_dataclasses(source) == []


def test_frozen_checker_sees_every_form():
    source = '''
import dataclasses
from dataclasses import dataclass

@dataclass
class Bare:
    x: int

@dataclass()
class Called:
    x: int

@dataclass(frozen=False, eq=True)
class Thawed:
    x: int

@dataclasses.dataclass
class Qualified:
    x: int

@dataclasses.dataclass(frozen=True, slots=True)
class QualifiedFrozen:
    x: int

@dataclass(frozen=True)
class Frozen:
    x: int

class Plain:
    @dataclass
    class Nested:
        x: int

@dataclass(frozen=True)
class Holder:
    a: list
    b: list[int]
    c: dict[str, int] | None
    d: typing.Set[int]
    e: "set[str]"
    f: tuple[int, ...]
    g: np.ndarray
    h: int = 0

@dataclass
class ThawedHolder:
    rows: list

class PlainHolder:
    rows: list
'''
    got = [name for _, name in mutable_dataclasses(source)]
    assert sorted(got) == ["Bare", "Called", "Holder.a", "Holder.b", "Holder.c", "Holder.d",
                           "Holder.e", "Nested", "Qualified", "Thawed", "ThawedHolder",
                           "ThawedHolder.rows"]


# The one place that may write a frozen instance: the memo of the laws
# evaluated at a state's pressure.
MUTATION_ALLOWED = {"PoroState._cached"}


def hidden_mutations(source: str) -> list:
    """(line, enclosing qualified name) of every ``object.__setattr__``
    call in ``source`` outside MUTATION_ALLOWED; it writes an attribute
    that ``frozen=True`` forbids."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object" and scope not in MUTATION_ALLOWED):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_hidden_mutation(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert hidden_mutations(source) == []


def test_mutation_checker_sees_every_form():
    source = '''
class PoroState:
    def _cached(self, name):
        object.__setattr__(self, name, 1)

        def inner():
            object.__setattr__(self, name, 2)

    def other(self):
        object.__setattr__(self, "p", 3)
        setattr(self, "p", 4)

class Record:
    def _cached(self):
        object.__setattr__(self, "x", 5)

def module_level(state):
    object.__setattr__(state, "p", 6)

object.__setattr__(Record, "y", 7)
'''
    got = [scope for _, scope in hidden_mutations(source)]
    assert sorted(got) == sorted(["PoroState._cached.inner", "PoroState.other",
                                  "Record._cached", "module_level", ""])


def global_statements(source: str) -> list:
    """Line of every ``global`` statement in ``source``, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


@pytest.mark.parametrize("module", MODULES)
def test_no_global_statement(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert global_statements(source) == []


def test_global_checker_sees_every_form():
    source = '''
global top

def f():
    global a, b
    def g():
        global c

class C:
    def m(self):
        global d
'''
    assert sorted(global_statements(source)) == [2, 5, 7, 11]


# Newton's condensed cell layout: fem fixes the 12 columns of a cell
# (hybrid_dofs), their pattern and the cells' flux-mass inverses, schemes
# builds and reads the blocks.
CONDENSED_LAYOUT = ("hybrid_dofs", "hybrid_pattern", "hybrid_flux_inverse", "newton_blocks")
LAYOUT_MODULES = ("fem", "schemes")


def layout_mentions(source: str) -> list:
    """(line, name) of every CONDENSED_LAYOUT name in ``source``: a name or
    attribute token, or a word of a string or a comment."""
    word = re.compile(rf"\b({'|'.join(CONDENSED_LAYOUT)})\b")
    kinds = (tokenize.NAME, tokenize.STRING, tokenize.COMMENT)
    return [(tok.start[0] + tok.string[:m.start()].count("\n"), m.group())
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type in kinds for m in word.finditer(tok.string)]


@pytest.mark.parametrize("module", [m for m in MODULES if m not in LAYOUT_MODULES])
def test_condensed_layout_stays_in_fem_and_schemes(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert layout_mentions(source) == []


def test_layout_checker_sees_every_form():
    source = '''"""Residuals only; the Newton
matrix is schemes.newton_blocks'."""
from .schemes import newton_blocks
free = ops.hybrid_dofs[:, :4]  # the hybrid_pattern columns
my_hybrid_dofs = newton_blocks_s = "hybrid_dofsx"
'''
    assert layout_mentions(source) == [(2, "newton_blocks"), (3, "newton_blocks"),
                                       (4, "hybrid_dofs"), (4, "hybrid_pattern")]


# Public names without a caller in the package or the benchmark, kept on
# purpose: the README documents them as API of the theory lab.
UNCALLED_API = {("aa_theory", "propagation_eigenvalues")}
BENCHMARK = PACKAGE.parents[1] / "perfbench"


def _exported(module: str) -> list:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _name_tokens(source: str) -> Counter:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def uncalled_exports() -> list:
    """``module.name`` of every name in a package module's ``__all__`` that
    no other NAME token of the package modules (``__init__`` aside) uses and
    no benchmark script mentions.  The definition itself is one token."""
    uses = Counter()
    for module in MODULES:
        if module != "__init__":
            uses += _name_tokens((PACKAGE / f"{module}.py").read_text())
    bench = "\n".join(p.read_text() for p in sorted(BENCHMARK.glob("*.py")))
    return [f"{module}.{name}" for module in MODULES for name in _exported(module)
            if uses[name] < 2 and (module, name) not in UNCALLED_API
            and not re.search(rf"\b{name}\b", bench)]


def test_every_export_has_a_caller():
    assert uncalled_exports() == []


def readme_entry_points() -> list:
    """Names of the ``from porosplit import (...)`` statement in README's
    "Library entry points" block, in order."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    block = re.search(r"## Library entry points\n\n```python\n(.*?)```", readme, re.S).group(1)
    return [alias.name for node in ast.parse(block).body
            if isinstance(node, ast.ImportFrom) and node.module == "porosplit"
            for alias in node.names]


def test_package_root_is_the_readme_entry_points():
    assert porosplit.__all__ == readme_entry_points()
    public = {name for name, value in vars(porosplit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(porosplit.__all__)


def test_bench_records_carry_their_provenance():
    """Every ``BENCH_*.json`` at the repository root parses and names its
    change, parent commit, machine and versions, and claims a workload and
    an end-to-end metric that ``BENCHMARK.json`` declares."""
    root = PACKAGE.parents[1]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert {"change", "parent_commit", "machine", "versions", "claim"} <= set(record), path.name
        assert {"python", "numpy", "scipy"} <= set(record["versions"]), path.name
        claim = record["claim"]
        assert claim["workload"] in workloads and claim["metric"] in metrics, path.name
