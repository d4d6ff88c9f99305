import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import porosplit
from porosplit import cli, sweep
from porosplit.cli import main
from porosplit.config import _KEYS, ConfigError, ScenarioConfig, default_config, load_config
from porosplit.export import cell_flux_vectors, write_cell_csv, write_point_csv, write_vtk
from porosplit.mesh import RectMesh
from porosplit.sweep import SweepReport, SweepRow, emit_report, run_sweep


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_test1_defaults(self, tmp_path):
        config = load_config(write(tmp_path, ""))
        assert config.scenario == "test1"
        assert config.tau == 0.1
        assert config.T == 1.0
        assert config.eps_abs == 1e-8 and config.eps_rel == 1e-8
        assert config.p0 == -7.78 and config.q_star == -1.25
        assert config.n_vg == 3.0

    def test_test2_defaults(self, tmp_path):
        config = load_config(write(tmp_path, "[scenario]\nname = test2\n"))
        assert config.p0 == -15.3
        assert config.a_vg == 0.627
        assert config.n_vg == 1.4
        assert config.q_star == -0.175
        assert config.tau == 0.1  # shared numerics

    def test_alpha_list(self, tmp_path):
        config = load_config(write(tmp_path, "[physics]\nalpha = 0.1, 0.5, 1.0\n"))
        assert config.alphas == (0.1, 0.5, 1.0)

    def test_negative_tau_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="numerics.tau"):
            load_config(write(tmp_path, "[numerics]\ntau = -1\n"))

    def test_unknown_key_carries_path(self, tmp_path):
        with pytest.raises(ConfigError, match="physics.porosity"):
            load_config(write(tmp_path, "[physics]\nporosity = 0.3\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="solver"):
            load_config(write(tmp_path, "[solver]\nx = 1\n"))

    def test_type_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario.nx"):
            load_config(write(tmp_path, "[scenario]\nnx = many\n"))

    def test_override_wins(self, tmp_path):
        text = "[scenario]\nname = test2\nnx = 10\n\n[physics]\nq_star = -0.5\n"
        config = load_config(write(tmp_path, text))
        assert config.nx == 10 and config.q_star == -0.5 and config.p0 == -15.3

    def test_lame_conversion(self):
        mu, lam = ScenarioConfig().lame
        assert mu == pytest.approx(12.5)
        assert lam == pytest.approx(25.0 / 3.0)

    def test_infinite_biot_modulus_loads(self, tmp_path):
        assert load_config(write(tmp_path, "[physics]\nn = inf\n")).N == math.inf

    def test_custom_starts_from_test1(self, tmp_path):
        config = load_config(write(tmp_path, "[scenario]\nname = custom\n"))
        assert config == replace(default_config("test1"), scenario="custom")

    def test_readme_example_is_the_test1_default(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert load_config(write(tmp_path, block)) == default_config("test1")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf[scenario]\nnx = 5\n")
        assert load_config(str(path)).nx == 5

    def test_undecodable_file_is_a_configuration_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[scenario]\n# Überdruck\nnx = 5\n".encode("latin-1"))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {path}: ")
        assert captured.out == ""


class TestScenarioConfig:
    @pytest.mark.parametrize("change, path", [
        (dict(nu=0.5), "physics.nu"), (dict(N=0.0), "physics.n"),
        (dict(p0=math.nan), "physics.p0"), (dict(q_star=math.inf), "physics.q_star"),
        (dict(Lx=math.inf), "scenario.lx"), (dict(tau=0.2, T=0.1), "numerics.t"),
        (dict(nx=4, inflow_width=0.3), "scenario.inflow_width"),
        (dict(T=0.35), "numerics.t"),
        # counts are integers: a float would fail later, inside a run
        (dict(nx=5.0), "scenario.nx"), (dict(ny=5.0), "scenario.ny"),
        (dict(max_iters=1e3), "numerics.max_iters"), (dict(depths=(1.0,)), "sweep.depths"),
        (dict(workers=1.5), "sweep.workers"),
    ])
    def test_replace_is_checked(self, change, path):
        with pytest.raises(ConfigError, match=f"^{path}: value out of range$"):
            replace(default_config("test1"), **change)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            default_config("test1").nu = 0.5

    def test_every_field_has_one_key(self):
        names = [name for keys in _KEYS.values() for key, name in keys.items()
                 if key != "schema_version"]
        assert sorted(names) == sorted(f.name for f in fields(ScenarioConfig))


SMALL = ScenarioConfig(
    nx=4, ny=4, inflow_width=0.25, T=0.2,
    schemes=("newton", "fsl"), depths=(0, 1), alphas=(1.0,),
)
# one step on 5x5, two combinations
ONE_STEP = ScenarioConfig(nx=5, ny=5, T=0.1, schemes=("newton", "fsl"), depths=(0,),
                          alphas=(1.0,))


class TestSweep:
    def test_small_sweep(self):
        report = run_sweep(SMALL)
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.status == "ok"
            assert row.average_iterations == pytest.approx(
                float(np.mean(row.per_step))
            )
            assert len(row.per_step) == 2

    def test_determinism(self, tmp_path):
        # a config equal but for out_dir misses the operator cache: b rebuilds
        a = run_sweep(SMALL)
        b = run_sweep(replace(SMALL, out_dir=str(tmp_path / "other")))
        pa = emit_report(a, tmp_path / "a")
        pb = emit_report(b, tmp_path / "b")
        assert open(pa["csv"]).read() == open(pb["csv"]).read()

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = run_sweep(replace(SMALL, workers=1))
        parallel = run_sweep(replace(SMALL, workers=2))
        for r1, r2 in zip(serial.rows, parallel.rows):
            assert r1 == r2

    def test_serial_sweep_builds_the_operators_once(self, tmp_path, monkeypatch):
        built = []
        inner = ScenarioConfig.operators
        monkeypatch.setattr(ScenarioConfig, "operators",
                            lambda config: built.append(config) or inner(config))
        report = run_sweep(replace(SMALL, workers=1, out_dir=str(tmp_path)))  # a new config
        assert len(report.rows) == 4 and len(built) == 1

    def test_pool_has_at_most_one_worker_per_combination(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
        report = run_sweep(replace(ONE_STEP, workers=8))
        assert sizes == [2] and len(report.rows) == 2

    def test_empty_sweep_emits_header_only(self, tmp_path):
        report = SweepReport(config=SMALL, rows=())
        paths = emit_report(report, tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1
        assert rows[0][0] == "scheme"

    def test_single_row_report(self, tmp_path):
        row = SweepRow("fsl", 0, 1.0, "ok", None, 12.5, (12, 13))
        paths = emit_report(SweepReport(config=SMALL, rows=(row,)), tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][3] == "ok"

    def test_status_markers(self):
        assert SweepRow("fsmp", 0, 0.1, "stagnated", 3, None, ()).marker() == "->[3]"
        assert SweepRow("newton", 0, 0.1, "diverged", 8, None, ()).marker() == "^[8]"
        assert SweepRow("fsl", 0, 0.1, "max_iters", 7, None, ()).marker() == "x[7]"
        assert SweepRow("fsl", 0, 0.1, "ok", None, 18.88, (19,)).marker() == "18.9"

    def test_failing_rows_are_recorded(self, tmp_path):
        # a budget of 7: plain Newton converges in 6 and 4 iterations, every
        # split scheme runs out of iterations in step 1
        config = replace(default_config("test1"), nx=4, ny=4, inflow_width=0.25, T=0.2,
                         alphas=(1.0,), depths=(0, 1), max_iters=7)
        paths = emit_report(run_sweep(config), tmp_path)
        with open(paths["csv"]) as fh:
            rows = {(r[0], r[1]): ",".join(r[2:]) for r in list(csv.reader(fh))[1:]}
        assert rows.pop(("newton", "0")) == "1,ok,,5,2,6|4"
        del rows[("newton", "1")]   # 7 iterations in step 1, on the budget's edge
        assert sorted(rows) == [(s, d) for s in ("fsl", "fsl2", "fsmp", "fsnewton")
                                for d in ("0", "1")]
        assert set(rows.values()) == {"1,max_iters,1,,0,7"}
        lines = Path(paths["txt"]).read_text().splitlines()
        assert lines[-2].split() == ["AA(0)", "5.0"] + ["x[1]"] * 4
        assert lines[-1].split()[2:] == ["x[1]"] * 4

    def test_text_table_mentions_all_schemes(self, tmp_path):
        report = run_sweep(SMALL)
        paths = emit_report(report, tmp_path)
        text = open(paths["txt"]).read()
        assert "Newton" in text and "FSL" in text and "AA(1)" in text


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[scenario]\nnx = 4\nny = 4\ninflow_width = 0.25\n"
            "[numerics]\nt = 0.2\n[sweep]\nschemes = newton\ndepths = 0\n"
            "[physics]\nalpha = 1.0\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_scenario_beside_config_is_a_configuration_error(self, tmp_path, capsys,
                                                               monkeypatch):
        config = write(tmp_path, "[scenario]\nnx = 4\nny = 4\ninflow_width = 0.25\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", "test2", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("configuration error: --scenario")
        assert not out.exists()
        # alone, --scenario picks the built-in scenario, test1 by default
        swept = []
        monkeypatch.setattr(cli, "run_sweep", lambda config: swept.append(
            config.scenario) or SweepReport(config=config, rows=()))
        for argv, scenario in ((["run"], "test1"), (["run", "--scenario", "test2"], "test2")):
            assert main(argv + ["--out", str(out)]) == 0
            assert swept.pop() == scenario

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[numerics]\ntau = -3\n")
        assert main(["run", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("key, value", [
        ("p0", "nan"), ("gy", "nan"), ("e", "inf"), ("q_star", "inf"),
    ])
    def test_non_finite_value_is_a_configuration_error(self, tmp_path, capsys, key, value):
        bad = write(tmp_path, f"[physics]\n{key} = {value}\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: physics.{key}: value out of range\n")

    @pytest.mark.parametrize("text, path", [
        ("[physics]\ne = -1\n", "physics.e"),
        # the default inflow_width 0.2 does not end on an edge of 3 cells
        ("[scenario]\nnx = 3\n", "scenario.inflow_width"),
        # 0.35 is not a whole number of steps tau = 0.1
        ("[numerics]\nt = 0.35\n", "numerics.t"),
        # a sweep list is non-empty and names each value once
        ("[physics]\nalpha =\n", "physics.alpha"),
        ("[sweep]\nschemes =\n", "sweep.schemes"),
        ("[sweep]\ndepths = 0, 0\n", "sweep.depths"),
        # both print as 0.1: their rows, tables and field files would collide
        ("[physics]\nalpha = 0.1, 0.1000001\n", "physics.alpha"),
    ])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, text, path):
        bad = write(tmp_path, text)
        assert main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"configuration error: {path}: value out of range\n"

    @pytest.mark.parametrize("text, detail", [
        ("nx = 4\n", "File contains no section headers"),
        ("[scenario]\nnx 4\n", "Source contains parsing errors"),
        ("[scenario]\nnx = 4\n[scenario]\n", "section 'scenario' already exists"),
        ("[scenario]\nnx = 4\nnx = 5\n", "option 'nx' in section 'scenario' already exists"),
        ("[scenario]\nschema_version = 2\n",
         "scenario.schema_version: unsupported schema version"),
    ])
    def test_unreadable_file_is_a_configuration_error(self, tmp_path, capsys, text, detail):
        bad = write(tmp_path, text)
        assert main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and detail in err
        assert not (tmp_path / "out").exists()

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.ini"
        assert main(["run", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("out", ["file/out", ""], ids=["below-a-file", "empty"])
    def test_bad_output_directory_fails_before_the_sweep(self, tmp_path, capsys,
                                                         monkeypatch, out):
        (tmp_path / "file").write_text("")
        swept = []
        monkeypatch.setattr(cli, "run_sweep", swept.append)
        assert main(["run", "--out", str(tmp_path / out) if out else ""]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert swept == []

    def test_plane_verb(self, tmp_path):
        out = tmp_path / "plane.csv"
        assert main(["plane", "--resolution", "8", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 65

    def test_richardson_verb(self, capsys):
        assert main(["richardson", "--lam1", "1.5", "--lam2", "0.5",
                     "--blocks", "4"]) == 0
        out = capsys.readouterr().out
        assert "0.5625" in out

    @pytest.mark.parametrize("argv", [
        ["richardson", "--blocks", "0"],
        ["richardson", "--lam1", "0"],
        ["plane", "--resolution", "1"],
    ] + [[verb, f"{option}={value}"] for value in ("nan", "inf")
         for verb, options in (("richardson", ("--lam1", "--lam2")),
                               ("plane", ("--l1-min", "--l1-max", "--l2-min", "--l2-max")))
         for option in options])
    def test_invalid_theory_arguments_are_configuration_errors(self, argv, capsys, tmp_path,
                                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ") and captured.out == ""
        assert not (tmp_path / "plane.csv").exists()

    def test_unknown_verb_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["check"])
        assert exit_.value.code == 2
        assert "invalid choice: 'check'" in capsys.readouterr().err

    def test_readme_documents_exactly_the_verbs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n\n```bash\n(.*?)```", readme, re.S).group(1)
        documented = {line.split()[1] for line in block.splitlines()}
        with pytest.raises(SystemExit):
            main(["--help"])
        verbs = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1)
        assert documented == set(verbs.split(","))


class TestExport:
    def test_cell_flux_vectors(self):
        mesh = RectMesh(2, 2, 1.0, 1.0, 0.5)
        q = np.zeros(mesh.n_edges)
        q[: mesh.n_vedges] = 2.0
        q[mesh.n_vedges:] = -1.0
        vec = cell_flux_vectors(mesh, q)
        assert np.allclose(vec, [[2.0, -1.0]] * 4)

    def test_csv_and_vtk_files(self, tmp_path):
        mesh = RectMesh(2, 2, 1.0, 1.0, 0.5)
        fields = {"pressure": np.arange(4.0), "saturation": np.full(4, 0.4)}
        u = np.linspace(0, 1, 2 * mesh.n_nodes)
        write_cell_csv(tmp_path / "c.csv", mesh, fields)
        write_point_csv(tmp_path / "n.csv", mesh, u)
        write_vtk(tmp_path / "f.vtk", mesh, fields, u)
        with open(tmp_path / "c.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "pressure", "saturation"]
        assert len(rows) == 5
        vtk = open(tmp_path / "f.vtk").read()
        assert "RECTILINEAR_GRID" in vtk and "VECTORS displacement" in vtk

    def test_sweep_field_export(self, tmp_path):
        config = replace(SMALL, schemes=("newton",), depths=(0,),
                         fields="vtk", out_dir=str(tmp_path / "fields"))
        run_sweep(config)
        assert (tmp_path / "fields" / "newton_aa0_alpha1.vtk").exists()

    def test_pooled_export_matches_serial(self, tmp_path):
        written = {}
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            run_sweep(replace(ONE_STEP, workers=workers, fields="csv", out_dir=str(out)))
            written[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(written[1]) == [f"{s}_aa0_alpha1_{kind}.csv" for s in ("fsl", "newton")
                                      for kind in ("cells", "nodes")]
        assert written[2] == written[1]


class TestBlasThreads:
    """Importing porosplit pins BLAS to one thread unless a count is set."""

    VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def variables_after_import(self, module, **env):
        """The thread variables seen in a fresh interpreter after it imports
        ``module``, started without them but for ``env``."""
        clean = {k: v for k, v in os.environ.items() if k not in self.VARIABLES}
        src = str(Path(porosplit.__file__).parents[1])
        clean["PYTHONPATH"] = os.pathsep.join(filter(None, [src, clean.get("PYTHONPATH")]))
        code = f"import os, {module}; print(*(os.environ[v] for v in {self.VARIABLES!r}))"
        proc = subprocess.run([sys.executable, "-c", code], env={**clean, **env},
                              capture_output=True, text=True, check=True)
        return proc.stdout.split()

    @pytest.mark.parametrize("module", ["porosplit", "porosplit.cli"])
    def test_one_thread_by_default(self, module):
        assert self.variables_after_import(module) == ["1", "1", "1"]

    def test_a_set_count_is_kept(self):
        assert self.variables_after_import(
            "porosplit", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="4") == ["2", "1", "4"]
