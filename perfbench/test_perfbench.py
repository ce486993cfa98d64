"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Tiny runs go through the same code paths as the real workloads at toy
sizes; they also pin the tiny task lists' output digests at the default
seed.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

import locmst  # noqa: E402  (workloads put the checkout's src/ on the path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                "--seconds", "1", "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    assert report["fail_ratio"] == 0.0
    assert report["digest"] == report["digest_committed"]
    assert report["digests_agree"]


def test_metric_tables_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_tree_is_exactly_one_failure(monkeypatch):
    solve = locmst.minimum_spanning_tree
    corrupted = []

    def drop_an_edge_once(spec, coords, *args, **kwargs):
        tree = solve(spec, coords, *args, **kwargs)
        if not corrupted and len(tree.edge_i) > 0:
            corrupted.append(tree)
            tree = replace(tree, edge_i=tree.edge_i[:-1], edge_j=tree.edge_j[:-1],
                           base_weights=tree.base_weights[:-1])
        return tree

    monkeypatch.setattr(locmst, "minimum_spanning_tree", drop_an_edge_once)
    tasks = workloads.build_tasks("verify_small", workloads.DEFAULT_SEED, "tiny")
    result = run.run_pass(tasks, 0)
    assert len(corrupted) == 1
    assert result.failed_tasks == 1


def _tree(n=4):
    coords = locmst.sample_binomial(n, locmst.Density.uniform(), 7).coords
    return locmst.minimum_spanning_tree(locmst.euclidean_spec(), coords)


@pytest.mark.parametrize("corrupt", [
    lambda t: replace(t, edge_i=t.edge_j, edge_j=t.edge_i),  # i > j
    lambda t: replace(t, edge_i=t.edge_i[::-1].copy(), edge_j=t.edge_j[::-1].copy(),
                      base_weights=t.base_weights[::-1].copy()),  # not kappa order
    lambda t: replace(t, edge_i=t.edge_i.copy() * 0, edge_j=t.edge_j.copy() * 0 + 1),  # cycle
    lambda t: replace(t, n=t.n + 1),  # wrong size
])
def test_tree_check_rejects_corruption(corrupt):
    tree = _tree()
    assert workloads.tree_is_valid(tree, 4)
    assert not workloads.tree_is_valid(corrupt(tree), 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output(workload):
    tasks = workloads.build_tasks(workload, 3, "tiny")
    plain = run.run_pass(tasks, 0)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(tasks, len(tasks), tracer)
    for restored in (locmst.mst.minimum_spanning_tree, locmst.experiments.minimum_spanning_tree,
                     locmst.mst.MstResult.total_weight, locmst.sample_binomial):
        assert not hasattr(restored, "__wrapped__")
    assert plain.failed_tasks == traced.failed_tasks == 0
    assert plain.digest == traced.digest
    task_pass = {len(tasks) + k: 0 for k in range(len(tasks))}
    metrics, _ = layer_metrics(tracer.spans, task_pass, {0: traced.wall_s})
    assert metrics["mst.solves"] >= 1 and metrics["weights.pairs"] >= 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "study", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
