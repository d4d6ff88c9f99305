"""Module boundaries of the package: no module of ``porosplit`` imports or
reads a private (underscore) name of another module.  A private helper that
another module needs is made public and listed in its owner's ``__all__``."""

import ast
from pathlib import Path

import pytest

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
