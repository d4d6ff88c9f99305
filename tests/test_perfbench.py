"""The benchmark in perfbench/ looks solver names up at run time and
replaces them by traced and clock-ticking wrappers: the five iteration
functions and newton_blocks of porosplit.schemes, SparseFactor.__init__
(it reads the L+U nonzeros of the new factor's ``lu``) and
constitutive.porosity and capillary_pressure.  Its smoke run on 5x5 grids
fails when one of them is renamed or changes its contract.  A renamed
DiscreteOperators.elastic_solve is not caught: the benchmark then reads
0 for ``fem.elastic_s``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
