"""Iteration-count fingerprint: the first time step of the test1 sweep
(5 schemes x AA depths 0, 1, 3, 5, 10 x alphas 0.1, 0.5, 1 on 25x25, 75
combinations) must write a ``sweep.csv`` and a ``sweep.txt`` byte-identical
to the recorded ``tests/data/sweep_test1_step1.csv`` and ``.txt``.  A change
that moves an iteration count regenerates both files and says why."""

from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

from porosplit.config import default_config
from porosplit.sweep import emit_report, run_sweep

RECORDED = Path(__file__).resolve().parent / "data" / "sweep_test1_step1"


def first_difference(got: bytes, recorded: bytes) -> str:
    """The first line where ``got`` and ``recorded`` differ, both sides."""
    lines = zip_longest(got.splitlines(), recorded.splitlines(), fillvalue="end of file")
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            return f"line {number}: got {a!r}, recorded {b!r}"
    return "the line endings differ"


def test_first_step_sweep_csv_is_byte_identical(tmp_path):
    config = replace(default_config("test1"), T=0.1)
    paths = emit_report(run_sweep(config), tmp_path)
    for kind in ("csv", "txt"):
        recorded = RECORDED.with_suffix(f".{kind}")
        got, want = Path(paths[kind]).read_bytes(), recorded.read_bytes()
        assert got == want, f"{recorded.name}, {first_difference(got, want)}"


def test_mismatch_names_the_first_differing_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == "line 2: got b'b', recorded b'x'"
    assert first_difference(b"a\n", b"a\nb\n") == "line 2: got 'end of file', recorded b'b'"
    assert first_difference(b"a\r\n", b"a\n") == "the line endings differ"
