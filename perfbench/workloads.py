"""Task lists, output checks and digests for the locmst benchmark.

A workload is a fixed list of tasks built from the benchmark seed.  Each
task is one call a user makes into locmst (``call``) plus a check of its
output (``check``), which also feeds the output digest.  Only ``call`` is
timed.  Every call goes through a module attribute looked up at call
time (``lm.run_weight_study``, ``lio.records_to_csv``), so the traced run
can wrap it from outside.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import locmst as lm  # noqa: E402
from locmst import io as lio  # noqa: E402

WORKLOADS = ("study", "verify_small", "probes")
SCALES = ("full", "tiny")
DEFAULT_SEED = 0

KINDS = ("euclidean", "shifted", "hotspot")
STUDY_ALPHAS = (1.0, 2.0)
# n = 256 and 512 stay in the study: there `auto` dispatches to the
# slower Kruskal path, and that known defect must stay visible.
STUDY_N_LIST = {"full": (256, 512, 1024, 2048, 4096, 8192), "tiny": (64, 128)}
STUDY_REPS = {"full": 3, "tiny": 2}
VERIFY_SIZES = 59  # n = 2..60
# Each check runs every size equally often, so a pass costs the same work
# whatever the seed; the seed moves the points and parameters only.
VERIFY_ROUNDS = {"full": 4 * VERIFY_SIZES, "tiny": 6}
VERIFY_CHECKS = (
    "lower_bound", "tiled_upper", "one_node", "merge",
    "scale", "translate", "alpha_invariance", "tree",
)
# (g, n, count of seeds) for the good-square probe and (K, mode) for the
# planted hotspot star; level 1 gives n = 6143 at K = 2, 17062 at K = 3.
PROBE_GOOD_SQUARE = {"full": ((5, 2000, 3), (5, 10_000, 2)), "tiny": ((5, 200, 2),)}
PROBE_PROP1 = {
    "full": ((2, "planted"), (2, "conditional"), (3, "planted")),
    "tiny": ((2, "planted"),),
}


def check_locmst_source() -> None:
    """Refuse to measure a locmst that is not the checkout's own ``src``."""
    where = Path(lm.__file__).resolve().parent
    if where != SRC / "locmst":
        raise ImportError(f"locmst imported from {where}, not from {SRC}")


@dataclass(frozen=True)
class Task:
    label: str
    call: Callable[[], Any]
    # check(output, digest) -> True when the output is correct
    check: Callable[[Any, "hashlib._Hash"], bool]


def build_layouts() -> None:
    """Fill the hotspot layout cache for every K the workloads use."""
    lm.hotspot_spec()
    lm.build_hotspot_layout(3, 3)


def build_tasks(workload: str, seed: int, scale: str = "full") -> list[Task]:
    if workload == "study":
        return _study_tasks(seed, scale)
    if workload == "verify_small":
        return _verify_tasks(seed, scale)
    if workload == "probes":
        return _probe_tasks(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, seed: int) -> None:
    """One cheap call down the workload's main path, untimed."""
    if workload == "study":
        study = lm.run_weight_study("hotspot", (64,), 2, STUDY_ALPHAS, seed=seed)
        lio.records_to_csv(study.records)
    elif workload == "verify_small":
        pts = lm.sample_binomial(20, lm.Density.uniform(), seed).coords
        lm.one_node_difference(lm.spec_from_kind("hotspot"), pts, 0, 1.0)
    elif workload == "probes":
        lm.good_square_probe(5, n=200, alpha=(1.0, 2.0), seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks


def tree_is_valid(tree, n: int) -> bool:
    """n - 1 edges with i < j, spanning and connected, in kappa order."""
    ei = np.asarray(tree.edge_i)
    ej = np.asarray(tree.edge_j)
    w = np.asarray(tree.base_weights)
    if tree.n != n or not (len(ei) == len(ej) == len(w) == max(n - 1, 0)):
        return False
    if n < 2:
        return True
    if not (np.all(ei < ej) and ei.min() >= 0 and ej.max() < n):
        return False
    if not np.all(np.isfinite(w) & (w > 0)):
        return False
    graph = coo_matrix((np.ones(n - 1), (ei, ej)), shape=(n, n))
    if connected_components(graph, directed=False)[0] != 1:
        return False
    # kappa(e) = (w, i, j) strictly increasing along the arrays
    keys = list(zip(w.tolist(), ei.tolist(), ej.tolist()))
    return all(a < b for a, b in zip(keys, keys[1:]))


def _digest_tree(tree, h) -> None:
    h.update(np.int64(tree.n).tobytes())
    for arr in (tree.edge_i, tree.edge_j):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(tree.base_weights, dtype=np.float64).tobytes())


def _canonical(out) -> bytes:
    """JSON of a check's result; numpy scalars become plain Python values."""
    if is_dataclass(out):
        out = asdict(out)
    return json.dumps(out, default=lambda v: v.item()).encode()


def csv_without_runtime(text: str) -> str:
    """The records CSV with its wall-clock ``runtime_ms`` column removed."""
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    header = rows[0].split(",")
    drop = header.index("runtime_ms")
    return "\n".join(
        ",".join(c for k, c in enumerate(row.split(",")) if k != drop)
        for row in rows
    )


# ---------------------------------------------------------------------------
# study: run_weight_study per weight kind, then records_to_csv


def _study_tasks(seed: int, scale: str) -> list[Task]:
    n_list = STUDY_N_LIST[scale]
    reps = STUDY_REPS[scale]
    side = {n: lm.build_tiling(n, 1.0).cell_side for n in n_list}
    tasks = []
    for kind in KINDS:
        spec = lm.spec_from_kind(kind)

        def call(kind=kind):
            study = lm.run_weight_study(kind, n_list, reps, STUDY_ALPHAS, seed=seed)
            return study, lio.records_to_csv(study.records)

        def check(out, h, kind=kind, spec=spec):
            study, csv = out
            stripped = csv_without_runtime(csv)
            h.update(stripped.encode())
            if len(study.records) != len(n_list) * reps * len(STUDY_ALPHAS):
                return False
            if stripped.count("\n") != len(study.records):
                return False
            return all(_record_ok(r, kind, spec, side) for r in study.records)

        tasks.append(Task(f"study.{kind}", call, check))
    return tasks


def _record_ok(rec: dict, kind: str, spec, side: dict) -> bool:
    """The paper's grid bounds, checked from the record alone.

    G/2 * (c1 * side)**alpha <= MST <= (2 c2 side)**alpha * (n + S_alpha).
    """
    n, a, w = rec["n"], rec["alpha"], rec["mst_weight"]
    if rec["weight_kind"] != kind or not (math.isfinite(w) and w > 0):
        return False
    lower = 0.5 * (spec.c1 * side[n]) ** a * rec["g_alpha"]
    upper = (2.0 * spec.c2 * side[n]) ** a * (n + rec["s_alpha"])
    if not lower - 1e-12 <= w <= upper + 1e-12:
        return False
    return kind != "euclidean" or rec["max_degree"] <= 6


# ---------------------------------------------------------------------------
# verify_small: thousands of single checks on n in [2, 60]


def _verify_tasks(seed: int, scale: str) -> list[Task]:
    rng = np.random.default_rng([seed, 2])
    uniform = lm.Density.uniform()
    specs = {kind: lm.spec_from_kind(kind) for kind in KINDS}
    offsets = rng.integers(0, VERIFY_SIZES, size=len(VERIFY_CHECKS))
    tasks = []
    for t in range(VERIFY_ROUNDS[scale] * len(VERIFY_CHECKS)):
        rnd, which = divmod(t, len(VERIFY_CHECKS))
        check_name = VERIFY_CHECKS[which]
        homogeneous = check_name in ("scale", "translate")
        kind = KINDS[rnd % (2 if homogeneous else 3)]
        spec = specs[kind]
        sub_seed = int(rng.integers(0, 2**31))
        alpha = float(rng.choice([0.7, 1.0, 2.0]))
        # Poisson counts vary, so only checks that take any count use them.
        poisson = check_name in ("lower_bound", "tiled_upper", "tree") and rnd % 2 == 0
        n = 2 + int(rnd + offsets[which]) % VERIFY_SIZES
        call = _verify_call(check_name, spec, n, sub_seed, alpha, poisson, uniform, rng)
        tasks.append(Task(f"verify.{check_name}.{kind}", call, _verify_check(check_name)))
    return tasks


def _verify_call(name, spec, n, sub_seed, alpha, poisson, uniform, rng):
    def draw(size, key=()):
        # the sampler is looked up per call, so the traced run sees it
        sample = lm.sample_poisson if poisson else lm.sample_binomial
        return sample(size, uniform, sub_seed, key=key).coords

    if name == "lower_bound":

        def call():
            pts = draw(n)
            if len(pts) == 1:
                return None  # one point: the bound is undefined, nothing to do
            return lm.lower_bound_stat(spec, lm.build_tiling(max(len(pts), 4)), pts, alpha)

    elif name == "tiled_upper":

        def call():
            pts = draw(n)
            if len(pts) == 0:
                return None
            return lm.tiled_upper_bound(spec, lm.build_tiling(max(len(pts), 4)), pts, alpha)

    elif name == "one_node":
        size = max(n, 3)
        j = int(rng.integers(0, size))

        def call():
            return lm.one_node_difference(spec, draw(size), j, alpha)

    elif name == "merge":

        def call():
            return lm.merge_bound_check(spec, draw(n - n // 3, (0,)), draw(n // 3, (1,)), alpha)

    elif name == "scale":
        factor = float(rng.choice([0.5, 2.0, 3.7]))

        def call():
            return lm.scale_check(spec, draw(2 + n % 30), factor, alpha)

    elif name == "translate":
        shift = rng.uniform(-1.0, 1.0, size=2)

        def call():
            return lm.translate_check(spec, draw(3 + n % 18), shift, alpha)

    elif name == "alpha_invariance":

        def call():
            return lm.alpha_invariance_check(spec, draw(n), (0.5, 1.0, 2.0, 3.0))

    else:  # tree

        def call():
            pts = draw(n)
            return len(pts), lm.minimum_spanning_tree(spec, pts)

    return call


def _verify_check(name):
    def check(out, h) -> bool:
        if name == "tree":
            n, tree = out
            _digest_tree(tree, h)
            return tree_is_valid(tree, n)
        h.update(_canonical(out))
        if out is None:
            return True
        if name == "scale":
            lhs, rhs, same_edges = out
            return same_edges and abs(lhs - rhs) <= 1e-10 * abs(rhs)
        if name == "translate":
            return out[2]
        if name == "alpha_invariance":
            return out is True
        return out.holds

    return check


# ---------------------------------------------------------------------------
# probes: good-square add-one-point probe and the planted hotspot star


def _probe_tasks(seed: int, scale: str) -> list[Task]:
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for g, n, count in PROBE_GOOD_SQUARE[scale]:
        for _ in range(count):
            s = int(rng.integers(0, 2**31))

            def call(g=g, n=n, s=s):
                rep = lm.good_square_probe(g, n=n, alpha=(1.0, 2.0), seed=s)
                return rep, lio.envelope("good_square", None, {**asdict(rep), "ok": rep.ok})

            tasks.append(Task(f"probe.good_square.n{n}", call, _probe_check))
    for K, mode in PROBE_PROP1[scale]:
        s = int(rng.integers(0, 2**31))

        def call(K=K, mode=mode, s=s):
            rep = lm.prop1_demo(K, reps=1, seed=s, mode=mode)
            return rep, lio.envelope("prop1", None, {**asdict(rep), "ok": rep.ok})

        tasks.append(Task(f"probe.prop1.{mode}.K{K}", call, _probe_check))
    return tasks


def _probe_check(out, h) -> bool:
    rep, text = out
    h.update(text.encode())
    if isinstance(rep, lm.GoodSquareReport):
        return rep.ok and len(rep.added_edges) == 1 and not rep.removed_edges
    # Planted and conditional modes realize the event on every replicate.
    return rep.ok and rep.occurrences == rep.reps
