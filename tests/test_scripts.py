"""Smoke runs of the front-end scripts under scripts/, each in a subprocess."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_scaling_study_writes_its_three_files(tmp_path):
    out = run_script(
        "run_scaling_study.py", "--reps", "200", "--n-list", "16,24,32,48",
        "--out-dir", tmp_path,
    )
    assert "mean slope" in out
    records = (tmp_path / "records.csv").read_text().splitlines()
    assert len([ln for ln in records if not ln.startswith("#")]) == 1 + 4 * 200 * 2
    fits = json.loads((tmp_path / "fits.json").read_text())["result"]
    assert [f["quantity"] for f in fits] == ["mean", "variance"] * 2
    assert ET.parse(tmp_path / "scaling.svg").getroot().tag.endswith("svg")


def test_reproduce_bounds_writes_json_and_plot(tmp_path):
    out = run_script(
        "reproduce_bounds.py", "--out", tmp_path / "bounds.json",
        "--plot", tmp_path / "bounds.svg", "--grid", "0.5:2.0:0.5",
    )
    assert "beta_low" in out
    doc = json.loads((tmp_path / "bounds.json").read_text())
    assert doc["artifact"] == "bounds" and len(doc["result"]) == 3
    assert ET.parse(tmp_path / "bounds.svg").getroot().tag.endswith("svg")


def test_probe_constructions_reports_both_probes():
    out = run_script("probe_constructions.py", "--reps", "1", "--n", "2000")
    lines = out.splitlines()
    assert any(ln.startswith("[prop1 planted]") and "ok=True" in ln
               for ln in lines)
    assert any(ln.startswith("[prop1 conditional]") and "ok=True" in ln
               for ln in lines)
    assert any(ln.startswith("[good square]") and "ok=True" in ln
               for ln in lines)
