"""Exercises the `locmst` command line through its Python entry point."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from locmst.cli import main
from locmst.sampling import PointSet


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestBoundsCommand:
    def test_prints_the_standard_case(self, capsys):
        assert run_cli("bounds", "--alpha", "1") == 0
        out = capsys.readouterr().out
        assert "0.073563" in out
        assert "4.4625" in out

    def test_json_artifact(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = run_cli("bounds", "--alpha", "2", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["artifact"] == "bounds"
        assert doc["version"] == 1
        payload = doc["result"]
        assert payload["beta_low"] == pytest.approx(0.0216525, rel=1e-3)
        assert payload["beta_up"] == pytest.approx(13.8772, rel=1e-3)

    def test_grid_sweep_plot_is_valid_svg(self, tmp_path):
        svg = tmp_path / "sweep.svg"
        code = run_cli(
            "bounds", "--alpha-grid", "0.5:2.0:0.5", "--plot", svg,
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_plot_needs_at_least_two_alphas(self, tmp_path):
        code = run_cli(
            "bounds", "--alpha", "1", "--plot", tmp_path / "x.svg",
        )
        assert code == 2

    def test_invalid_alpha_is_a_usage_error(self, capsys):
        assert run_cli("bounds", "--alpha", "0") == 2
        assert "locmst:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_points_and_tree(self, tmp_path):
        pts = tmp_path / "points.csv"
        tree = tmp_path / "mst.json"
        code = run_cli(
            "simulate", "--kind", "euclidean", "--n", "60",
            "--seed", "7", "--out-points", pts, "--out-mst", tree,
        )
        assert code == 0
        doc = json.loads(tree.read_text())
        assert doc["result"]["n"] == 60
        assert len(doc["result"]["edges"]) == 59
        body = [
            ln for ln in pts.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("index")
        ]
        assert len(body) == 60

    def test_reruns_are_byte_identical(self, tmp_path):
        path = tmp_path / "mst.json"
        outs = []
        for _ in range(2):
            assert run_cli(
                "simulate", "--kind", "shifted", "--n", "40",
                "--seed", "3", "--out-mst", path,
            ) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--kind", "manhattan", "--n", "10")
        assert exc.value.code == 2

    def test_non_finite_points_exit_2(self, monkeypatch, capsys):
        def nan_sampler(n, density, seed):
            coords = np.random.default_rng(seed).random((n, 2))
            coords[1, 0] = np.nan
            return PointSet(coords)

        monkeypatch.setattr("locmst.cli.sample_binomial", nan_sampler)
        assert run_cli("simulate", "--n", "200") == 2
        assert "point 1 is not finite" in capsys.readouterr().err


class TestStudyCommands:
    N_LIST = "64,96,128,192"

    def test_scaling_happy_path(self, tmp_path, capsys):
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "fits.json"
        code = run_cli(
            "scaling", "--kind", "euclidean", "--alpha", "1",
            "--n-list", self.N_LIST, "--reps", "30", "--seed", "11",
            "--slope-tol", "2.0",
            "--out-csv", csv_path, "--out-json", json_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slope" in out
        fits = json.loads(json_path.read_text())["result"]
        assert fits[0]["quantity"] == "mean"
        header = csv_path.read_text().splitlines()
        assert any(ln.startswith("experiment,") for ln in header)

    def test_scaling_csv_is_reproducible_modulo_runtime(self, tmp_path):
        def grab(name):
            path = tmp_path / name
            assert run_cli(
                "scaling", "--kind", "euclidean", "--alpha", "1",
                "--n-list", "48,64,96,128", "--reps", "30", "--seed", "2",
                "--slope-tol", "5.0", "--out-csv", path,
            ) == 0
            rows = []
            for ln in path.read_text().splitlines():
                if ln.startswith("#") or ln.startswith("experiment"):
                    continue
                cells = ln.split(",")
                rows.append(cells[:-1])  # drop runtime_ms
            return rows

        assert grab("one.csv") == grab("two.csv")

    def test_scaling_fails_on_impossible_tolerance(self, capsys):
        code = run_cli(
            "scaling", "--kind", "euclidean", "--alpha", "1",
            "--n-list", "48,64,96,128", "--reps", "30",
            "--seed", "1", "--slope-tol", "0.0",
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_variance_command_runs(self, tmp_path):
        code = run_cli(
            "variance", "--kind", "euclidean", "--alpha", "2",
            "--n-list", self.N_LIST, "--reps", "200", "--seed", "5",
            "--slope-tol", "5.0", "--out-json", tmp_path / "var.json",
        )
        assert code == 0
        fits = json.loads((tmp_path / "var.json").read_text())["result"]
        assert fits[0]["quantity"] == "variance"

    @pytest.mark.parametrize("command", ["scaling", "variance"])
    def test_csv_records_name_their_command(self, tmp_path, command):
        path = tmp_path / "records.csv"
        code = run_cli(
            command, "--kind", "euclidean", "--alpha", "1",
            "--n-list", "16,24,32,48", "--reps", "200", "--seed", "3",
            "--slope-tol", "9", "--out-csv", path,
        )
        assert code == 0
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        column = lines[0].split(",").index("experiment")
        assert {ln.split(",")[column] for ln in lines[1:]} == {command}
        assert len(lines) == 1 + 4 * 200

    def test_threads_env_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("LOCMST_THREADS", "many")
        with pytest.raises(SystemExit):
            run_cli(
                "scaling", "--kind", "euclidean", "--alpha", "1",
                "--n-list", "48,64,96", "--reps", "2", "--slope-tol", "9",
            )


class TestConstructionCommands:
    def test_prop1_planted(self, capsys):
        code = run_cli(
            "prop1", "--K", "2", "--mode", "planted", "--reps", "1",
            "--seed", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "star" in out.lower()

    def test_prop1_raw_reports_rarity(self, capsys):
        code = run_cli(
            "prop1", "--K", "2", "--mode", "raw", "--reps", "1",
            "--seed", "0",
        )
        assert code == 0
        assert "log10" in capsys.readouterr().out

    def test_probe_good_square(self, tmp_path, capsys):
        out = tmp_path / "probe.json"
        code = run_cli(
            "probe-good-square", "--g", "5", "--n", "500", "--seed", "2",
            "--out", out,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["ok"] is True

    def test_invariance_runs_clean(self, capsys):
        code = run_cli(
            "invariance", "--kind", "hotspot", "--n", "40",
            "--instances", "5", "--seed", "8",
        )
        assert code == 0
        assert "stable" in capsys.readouterr().out


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
