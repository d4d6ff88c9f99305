"""The benchmark in perfbench/ looks solver names up at run time and
replaces them by traced and clock-ticking wrappers: the five iteration
functions and newton_blocks of porosplit.schemes, SparseFactor.__init__
(it reads the L+U nonzeros of the new factor's ``lu``), every method of
DiscreteOperators (``fem.elastic_s`` is the time in elastic_solve) and
constitutive.porosity and capillary_pressure.  Its smoke run on 5x5 grids
fails when one of them is renamed or changes its contract; the hook test
below fails when the solver stops calling a patched name or renames
elastic_solve, which the smoke run would read as 0 s."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from porosplit import schemes
from porosplit.config import default_config
from porosplit.fem import DiscreteOperators

from conftest import setup_problem

ROOT = Path(__file__).resolve().parents[1]


def _iteration_functions():
    """``ITERATION_FUNCTIONS`` of perfbench/workloads.py, the names the
    benchmark wraps."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ITERATION_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no ITERATION_FUNCTIONS")


# scheme -> (SchemeConfig, the iteration function it must go through)
HOOKED = {
    "newton": (default_config().scheme_config("newton"), "newton_iteration"),
    "fsnewton": (default_config().scheme_config("fsnewton"), "fsnewton_iteration"),
    "fsmp": (default_config().scheme_config("fsmp"), "fsmp_iteration"),
    "fsl": (default_config().scheme_config("fsl"), "fsl_local_iteration"),
    "fsl2": (default_config().scheme_config("fsl2"), "fsl_local_iteration"),
    "fsl-given-L": (schemes.SchemeConfig(kind="fsl", L=0.5), "fsl_iteration"),
}


@pytest.mark.parametrize("name", list(HOOKED))
def test_benchmark_hooks_see_every_iteration(name, monkeypatch):
    scheme, expected = HOOKED[name]
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    mesh, ops, params, init = setup_problem(4, 4, width=0.25)
    names = _iteration_functions()
    assert expected in names
    for attr in names:
        monkeypatch.setattr(schemes, attr, counting(attr, getattr(schemes, attr)))
    monkeypatch.setattr(DiscreteOperators, "elastic_solve",
                        counting("elastic_solve", DiscreteOperators.elastic_solve))

    _, report = schemes.run_time_step(scheme, None, init, params, ops)
    assert report.converged and report.iterations > 1
    split = 0 if scheme.kind == "newton" else report.iterations
    assert calls == Counter({expected: report.iterations, "elastic_solve": split})


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
