"""Iteration-count fingerprint: the first time step of the test1 sweep
(5 schemes x AA depths 0, 1, 3, 5, 10 x alphas 0.1, 0.5, 1 on 25x25, 75
combinations) must write a ``sweep.csv`` and a ``sweep.txt`` byte-identical
to the recorded ``tests/data/sweep_test1_step1.csv`` and ``.txt``.  A change
that moves an iteration count regenerates both files and says why."""

from dataclasses import replace
from pathlib import Path

from porosplit.config import default_config
from porosplit.sweep import emit_report, run_sweep

RECORDED = Path(__file__).resolve().parent / "data" / "sweep_test1_step1"


def test_first_step_sweep_csv_is_byte_identical(tmp_path):
    config = replace(default_config("test1"), T=0.1)
    paths = emit_report(run_sweep(config), tmp_path)
    for kind in ("csv", "txt"):
        assert Path(paths[kind]).read_bytes() == RECORDED.with_suffix(f".{kind}").read_bytes()
