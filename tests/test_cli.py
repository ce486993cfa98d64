"""Exercises the `locmst` command line through its Python entry point,
and the README's reproduction commands as real processes."""

import json
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from locmst.bounds import BoundsResult
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
        assert run_cli("bounds", "--alpha", "1", "--alpha", "2", "--out", out) == 0
        both = json.loads(out.read_text())["result"]
        assert [r["alpha"] for r in both] == [1.0, 2.0]
        assert both[1] == payload

    def test_grid_sweep_plot_is_valid_svg(self, tmp_path):
        svg = tmp_path / "sweep.svg"
        code = run_cli(
            "bounds", "--alpha-grid", "0.5:2.0:0.5", "--plot", svg,
        )
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    def test_plot_needs_at_least_two_alphas(self, tmp_path):
        # a usage error, found before any bound is computed or written
        out = tmp_path / "y.json"
        code = run_cli(
            "bounds", "--alpha", "1", "--out", out, "--plot", tmp_path / "x.svg",
        )
        assert code == 2
        assert not out.exists()

    def test_invalid_alpha_is_a_usage_error(self, capsys):
        assert run_cli("bounds", "--alpha", "0") == 2
        assert "locmst:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("--alpha", "0.5", "--alpha", "-1"),
        ("--alpha", "2", "--alpha-grid", "0.5:1.5:0.5", "--alpha", "nan"),
        ("--alpha-grid", "0.5:1.5:0.5", "--alpha", "inf", "--out", "b.json"),
        ("--alpha", "0.5", "--alpha", "60"),  # its constants overflow
    ])
    def test_every_alpha_is_checked_before_the_first_constant(
        self, monkeypatch, capsys, argv
    ):
        # a non-integer constant takes seconds: a bad alpha later in the
        # list must not wait for the ones before it
        def no_bounds(*args, **kwargs):
            pytest.fail("computed a constant for a refused alpha list")

        monkeypatch.setattr("locmst.cli.compute_bounds", no_bounds)
        assert run_cli("bounds", *argv) == 2
        err = capsys.readouterr().err
        if "60" in argv:
            assert "locmst: alpha=60 is beyond the float range" in err
        else:
            assert "locmst: alpha must be positive and finite" in err

    @pytest.mark.parametrize("grid", ["0.5:100000:1", "1:1e9:1", "0:inf:1",
                                      "0:100:1", "nan:1:0.5", "1:2:nan"])
    def test_alpha_grid_is_bounded_at_parse_time(self, monkeypatch, grid):
        # counted before np.arange allocates it; 101 alphas are one too many
        def no_bounds(*args, **kwargs):
            pytest.fail("computed a constant for a refused grid")

        monkeypatch.setattr("locmst.cli.compute_bounds", no_bounds)
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--alpha-grid", grid)
        assert exc.value.code == 2

    def test_alpha_grid_at_the_cap_is_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "locmst.cli.compute_bounds",
            lambda a, *rest: BoundsResult(a, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0),
        )
        # 100 alphas, all inside the float range: the range check, which
        # is not mocked, passes them all
        assert run_cli("bounds", "--alpha-grid", "0.25:25:0.25") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 100
        assert lines[-1].startswith("alpha=25 ")


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
        # also under another file name: an artifact does not embed its path
        outs = []
        for name in ("mst.json", "mst.json", "other.json"):
            path = tmp_path / name
            assert run_cli(
                "simulate", "--kind", "shifted", "--n", "40",
                "--seed", "3", "--out-mst", path,
            ) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

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

    @pytest.mark.parametrize("argv", [
        ("simulate", "--n", "200"),
        ("invariance", "--n", "20", "--instances", "2"),
    ])
    def test_out_of_memory_exits_2(self, monkeypatch, capsys, argv):
        # exit 1 would report a failed invariant
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("locmst.cli.sample_binomial", no_memory)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "locmst: out of memory\n"
        assert captured.out == ""


class TestStudyCommands:
    N_LIST = "64,96,128,192"

    def test_scaling_happy_path(self, tmp_path, capsys):
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "fits.json"
        svg_path = tmp_path / "scaling.svg"
        code = run_cli(
            "scaling", "--kind", "euclidean", "--alpha", "1",
            "--n-list", self.N_LIST, "--reps", "30", "--seed", "11",
            "--slope-tol", "2.0",
            "--out-csv", csv_path, "--out-json", json_path, "--plot", svg_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slope" in out
        fits = json.loads(json_path.read_text())["result"]
        assert fits[0]["quantity"] == "mean"
        header = csv_path.read_text().splitlines()
        assert any(ln.startswith("experiment,") for ln in header)
        assert ET.parse(svg_path).getroot().tag.endswith("svg")

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

    def test_threads_leave_the_artifacts_alone(self, tmp_path):
        # how many processes ran the study is not part of what it produced
        written = []
        for k, threads in enumerate(((), ("--threads", "1"), ("--threads", "2"))):
            fits, svg = tmp_path / f"fits-{k}.json", tmp_path / f"fits-{k}.svg"
            assert run_cli(
                "scaling", "--n-list", "48,64,96,128", "--reps", "30",
                "--slope-tol", "5.0", *threads, "--out-json", fits,
                "--plot", svg,
            ) == 0
            written.append((fits.read_bytes(), svg.read_bytes()))
        assert written[0] == written[1] == written[2]

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

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="studies fork their children on Linux")
    def test_out_of_memory_in_a_study_child_exits_2(self, monkeypatch, capsys,
                                                    child_first):
        def no_memory():
            raise MemoryError

        monkeypatch.setattr("locmst.experiments._study_task",
                            child_first(no_memory))
        assert run_cli("scaling", "--n-list", self.N_LIST, "--reps", "30",
                       "--threads", "2") == 2
        captured = capsys.readouterr()
        assert captured.err == "locmst: out of memory\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("scaling", "--reps", "29"),
            ("variance", "--reps", "100"),
            ("scaling", "--n-list", "256,512,1024"),
            ("variance", "--n-list", "64,64,96,128"),
            ("scaling", "--n-list", "64,64,96,128"),
            ("scaling", "--alpha", "0"),
            ("variance", "--alpha", "0"),
            ("scaling", "--alpha", "1,-1"),
            ("variance", "--alpha", "-1"),
            ("scaling", "--alpha", "1,1", "--n-list", "16,24,32,48", "--reps", "30"),
            ("variance", "--alpha", "2,1,2"),
        ],
    )
    def test_unfittable_study_is_refused_before_sampling(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # the refusal comes from the CLI or from the study's own first check
        def no_draw(*args, **kwargs):
            pytest.fail("drew points for a study that should have been refused")

        monkeypatch.setattr("locmst.experiments.sample_binomial", no_draw)
        path = tmp_path / "records.csv"
        assert run_cli(*argv, "--out-csv", path) == 2
        assert not path.exists()
        assert capsys.readouterr().err.startswith("locmst: ")


class TestConstructionCommands:
    @pytest.mark.parametrize("mode", ["planted", "conditional"])
    def test_prop1_planted(self, capsys, mode):
        code = run_cli(
            "prop1", "--K", "2", "--mode", mode, "--reps", "1",
            "--seed", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"mode={mode} " in out
        assert "occurrences=1/1 star_ok=1 " in out

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


ROOT = Path(__file__).resolve().parents[1]

# The README's "Reproducing the paper" runs, each as a real process.  These
# run exactly as the README writes them; the alpha sweep and the two
# studies below are cut down from their minute-long defaults.
AS_DOCUMENTED = {
    "bounds": "bounds --alpha 1 --alpha 2 --out bounds.json",
    "bounds-eps": "bounds --alpha 1 --eps1 0.5 --eps2 1.1666666666666667",
    "prop1-planted": "prop1 --K 2 --mode planted --reps 3",
    "prop1-conditional": "prop1 --K 2 --mode conditional --reps 3",
    "prop1-raw": "prop1 --K 2 --mode raw --reps 1",
    "good-square": "probe-good-square --g 5 --n 10000 --alpha 1,2",
}
CUT_DOWN = {
    "bounds-sweep": "bounds --alpha-grid 1:2:1 --plot bounds.svg",
    "scaling": "scaling --alpha 1,2 --n-list 16,24,32,48 --reps 200"
               " --slope-tol 9 --out-csv records.csv --out-json mean.json"
               " --plot mean.svg",
    "variance": "variance --alpha 1,2 --n-list 16,24,32,48 --reps 200"
                " --slope-tol 9 --out-json variance.json --plot variance.svg",
}


def run_process(argv, cwd, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "locmst.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, **kwargs,
    )


def test_the_readme_lists_the_commands_run_as_documented():
    readme = (ROOT / "README.md").read_text()
    for command in AS_DOCUMENTED.values():
        assert f"locmst {command}\n" in readme, command


@pytest.mark.parametrize("name", [*AS_DOCUMENTED, *CUT_DOWN])
def test_reproduction_command_as_a_process(tmp_path, name):
    argv = {**AS_DOCUMENTED, **CUT_DOWN}[name].split()
    proc = run_process(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    for flag, path in zip(argv, argv[1:]):
        if flag == "--out-csv":
            assert (tmp_path / path).read_text().count("\n") > 1
        elif flag in ("--out", "--out-json"):
            assert "result" in json.loads((tmp_path / path).read_text())
        elif flag == "--plot":
            assert ET.parse(tmp_path / path).getroot().tag.endswith("svg")


def test_usage_errors_exit_2_as_a_process(tmp_path):
    assert run_process([], tmp_path).returncode == 2
    alpha = "locmst: alpha must be positive"
    for argv, message in (
        (["bounds", "--alpha", "0"], alpha),
        # the paper's claims need alpha > 0; NaN and inf are refused too
        (["bounds", "--alpha", "nan", "--out", "b.json"], alpha),
        (["bounds", "--alpha", "inf", "--out", "b.json"], alpha),
        # a finite alpha whose constants leave the float range, at four
        # different operations
        (["bounds", "--alpha", "49.5"], "locmst: alpha=49.5 is beyond the float range"),
        (["bounds", "--alpha", "100"], "locmst: alpha=100 is beyond the float range"),
        (["bounds", "--alpha", "200"], "locmst: alpha=200 is beyond the float range"),
        (["bounds", "--alpha", "400"], "locmst: alpha=400 is beyond the float range"),
        (["invariance", "--alpha=-1,1", "--n", "20", "--instances", "2"], alpha),
        (["invariance", "--alpha=-1", "--n", "20", "--instances", "2"], alpha),
        (["invariance", "--alpha=nan", "--n", "20", "--instances", "2"], alpha),
        (["invariance", "--alpha=1,inf", "--n", "20", "--instances", "2"], alpha),
        # refused even when there is no instance to check
        (["invariance", "--alpha=-1", "--instances", "0"], alpha),
        (["invariance", "--instances", "0"], "locmst: instances must be >= 1"),
        # a one-point tree has no edge that could move
        (["invariance", "--n", "1", "--instances", "2"], "locmst: n must be >= 2"),
        (["probe-good-square", "--alpha=0", "--n", "200", "--out", "p.json"],
         alpha),
        (["probe-good-square", "--alpha=nan", "--n", "200", "--out", "p.json"],
         alpha),
        (["probe-good-square", "--alpha=inf", "--n", "200", "--out", "p.json"],
         alpha),
        (["simulate", "--alpha", "0", "--n", "30", "--out-mst", "m.json"], alpha),
        (["simulate", "--alpha", "nan", "--n", "30", "--out-mst", "m.json"], alpha),
        (["simulate", "--alpha", "inf", "--n", "30", "--out-mst", "m.json"], alpha),
        (["scaling", "--n-list", "16,24,32,48", "--reps", "30", "--alpha", "inf",
          "--out-csv", "r.csv"], alpha),
        # refused before the first point is drawn or the first worker forked
        (["scaling", "--threads", "0", "--out-csv", "r.csv"],
         "locmst: threads must be >= 1"),
        (["variance", "--threads=-5", "--out-json", "v.json"],
         "locmst: threads must be >= 1"),
        (["scaling", "--n-list", "2,64,96,128", "--reps", "30",
          "--out-csv", "r.csv"], "locmst: sizes must be >= 3"),
    ):
        proc = run_process(argv, tmp_path)
        assert proc.returncode == 2, argv
        assert message in proc.stderr, argv
        assert "Warning" not in proc.stderr, argv
    assert not any(tmp_path.iterdir())  # no artifact written


@pytest.mark.parametrize("argv, size", [
    (["invariance", "--n", "60000", "--instances", "1"], "13.4 GiB"),  # pair weights
    (["simulate", "--n", "300000000"], "4.47 GiB"),  # the coordinates
])
def test_out_of_memory_exits_2_as_a_process(tmp_path, argv, size):
    # the child's address space is capped at about 2.9 GiB, so the
    # allocation fails at once instead of taking the machine's memory
    cap = 3_000_000 * 1024

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = run_process(argv, tmp_path, preexec_fn=capped)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"locmst: out of memory: Unable to allocate {size}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""
