import csv
import math
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from porosplit import checks
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


class TestScenarioConfig:
    @pytest.mark.parametrize("change, path", [
        (dict(nu=0.5), "physics.nu"), (dict(N=0.0), "physics.n"),
        (dict(p0=math.nan), "physics.p0"), (dict(q_star=math.inf), "physics.q_star"),
        (dict(Lx=math.inf), "scenario.lx"), (dict(tau=0.2, T=0.1), "numerics.t"),
        (dict(nx=4, inflow_width=0.3), "scenario.inflow_width"),
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
        a = run_sweep(SMALL)
        b = run_sweep(SMALL)
        pa = emit_report(a, tmp_path / "a")
        pb = emit_report(b, tmp_path / "b")
        assert open(pa["csv"]).read() == open(pb["csv"]).read()

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = run_sweep(SMALL)
        parallel = run_sweep(replace(SMALL, workers=2))
        for r1, r2 in zip(serial.rows, parallel.rows):
            assert r1 == r2

    def test_empty_sweep_emits_header_only(self, tmp_path):
        report = SweepReport(config=SMALL, rows=[])
        paths = emit_report(report, tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1
        assert rows[0][0] == "scheme"

    def test_single_row_report(self, tmp_path):
        row = SweepRow("fsl", 0, 1.0, "ok", None, 12.5, [12, 13])
        paths = emit_report(SweepReport(config=SMALL, rows=[row]), tmp_path)
        with open(paths["csv"]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][3] == "ok"

    def test_status_markers(self):
        assert SweepRow("fsmp", 0, 0.1, "stagnated", 3, None, []).marker() == "->[3]"
        assert SweepRow("newton", 0, 0.1, "diverged", 8, None, []).marker() == "^[8]"
        assert SweepRow("fsl", 0, 0.1, "max_iters", 7, None, []).marker() == "x[7]"
        assert SweepRow("fsl", 0, 0.1, "ok", None, 18.88, [19]).marker() == "18.9"

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
    ])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, text, path):
        bad = write(tmp_path, text)
        assert main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"configuration error: {path}: value out of range\n"

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.ini"
        assert main(["run", "--config", str(missing)]) == 2

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
    ])
    def test_invalid_theory_arguments_are_configuration_errors(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_check_verb(self, monkeypatch):
        assert main(["check"]) == 0
        monkeypatch.setattr(checks, "run_quick_checks", lambda verbose=False: 1)
        assert main(["check"]) == 1


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
