"""Span tracing of locmst's layers, installed from outside the package.

``Tracer.installed()`` replaces every public function of the six layer
modules in each namespace that holds it, so a call is caught under the
name its caller uses (``locmst.experiments.minimum_spanning_tree`` is
wrapped apart from ``locmst.mst.minimum_spanning_tree``).  The row
callable returned by ``row_weight_fn`` and ``MstResult.total_weight`` are
wrapped too.  Leaving the context restores every original; nothing under
``src/`` is edited.

Spans live in memory as tuples; the run writes one pass of them at the end.
A span is (id, parent, task, layer, name, t0_ns, t1_ns, units, kind, n):
``units`` is the work the call did in its layer's unit (weight entries,
points, bytes), and ``kind``/``n`` are set on solver spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("sampling", "geometry", "weights", "mst", "experiments", "io")
LAYER_MODULES = {f"locmst.{name}": name for name in LAYERS}
NAMESPACES = ("locmst",) + tuple(LAYER_MODULES)
SOLVERS = frozenset(
    ("minimum_spanning_tree", "mst_prim_dense", "mst_kruskal", "mst_brute_force")
)
SCORE = "MstResult.total_weight"
ROW = "row_weight_fn.row"
KRUSKAL_MAX_N = 500
FIELDS = ("id", "parent", "task", "layer", "name", "t0_ns", "t1_ns", "units", "kind", "n")


def _units(name: str, args, result) -> int:
    """Work done by one call, in its layer's unit."""
    if name == "weight_matrix":
        return len(args[1]) ** 2
    if name == "pair_weight":
        return 1
    if name == ROW:
        return len(result)
    if name in ("sample_binomial", "sample_poisson"):
        return result.n
    if isinstance(result, str):
        return len(result)  # io writes ASCII, so characters are bytes
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.task: int | None = None

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            result = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                kind = n = None
                if name in SOLVERS:
                    kind, n = args[0].kind, len(args[1])
                units = _units(name, args, result) if result is not None else 0
                spans[sid] = (sid, parent, self.task, layer, name, t0, t1, units, kind, n)
            if name == "row_weight_fn":
                return self._wrap(result, layer, ROW)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def task_span(self, task_id: int, label: str):
        """Root span of one task; layer spans inside it carry its id."""
        self.task = task_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, None, task_id, "bench", label, t0, t1, 0, None, None)
            self.task = None

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for ns_name in NAMESPACES:
                ns = importlib.import_module(ns_name)
                for attr, value in list(vars(ns).items()):
                    layer = LAYER_MODULES.get(getattr(value, "__module__", None))
                    if (
                        layer is None
                        or attr.startswith("_")
                        or isinstance(value, type)
                        or not callable(value)
                    ):
                        continue
                    patched.append((ns, attr, value))
                    setattr(ns, attr, self._wrap(value, layer, attr))
            mst_result = importlib.import_module("locmst.mst").MstResult
            score = mst_result.total_weight
            patched.append((mst_result, "total_weight", score))
            mst_result.total_weight = self._wrap(score, "mst", SCORE)
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    def write(self, path, meta: dict, tasks) -> None:
        """Write the spans of the given task ids; one pass is a whole task
        list, and every traced pass repeats it."""
        keep = set(tasks)
        spans = [s for s in self.spans if s[2] in keep]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": FIELDS, "spans": spans}, fh,
                      separators=(",", ":"))
            fh.write("\n")


def layer_metrics(spans, task_pass: dict[int, int], pass_wall_s: dict[int, float]):
    """Per-layer figures of each traced pass, reduced to medians over passes.

    ``task_pass`` maps a task id to its traced pass, ``pass_wall_s`` a pass
    to its wall time (the sum of its timed tasks).  Calls and units count
    layer entries only (a span whose parent is in another layer), so work a
    layer does through its own public helpers is not counted twice.  A solve
    is an outermost solver span.  Returns (metrics, solve_cells), where
    solve_cells maps (kind, n) to the median solve time in ms.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = defaultdict(int)
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[6] - s[5]
    solve_of: dict[int, int | None] = {}
    per_pass = defaultdict(lambda: defaultdict(float))
    solves = defaultdict(list)
    cells = defaultdict(list)
    for s in spans:  # ids ascend, so a parent comes before its children
        sid, parent, task, layer, name, t0, t1, units, kind, n = s
        solve_of[sid] = solve_of.get(parent)
        p = task_pass.get(task)
        if p is None:
            continue
        m = per_pass[p]
        self_ms = (t1 - t0 - child_ns[sid]) / 1e6
        m[f"{layer}.self_ms"] += self_ms
        if layer == "bench":
            continue
        up = by_id.get(parent)
        if up is None or up[3] != layer:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.units"] += units
        if layer == "experiments" and up is not None and up[3] == "bench":
            m["experiments.checks"] += 1
        if name in SOLVERS and solve_of[sid] is None:
            solve_of[sid] = sid
            m["mst.solves"] += 1
            m["mst.points"] += n
            solves[p].append((t1 - t0) / 1e6)
            cells[(kind, n)].append((t1 - t0) / 1e6)
        if layer == "mst":
            if name == SCORE:
                m["mst.score_ms"] += self_ms
            owner = solve_of[sid]
            if owner is not None and by_id[owner][9] <= KRUSKAL_MAX_N:
                m["mst.small_solve_ms"] += self_ms
    for p, m in per_pass.items():
        wall_ms = pass_wall_s[p] * 1e3
        for layer in LAYERS:
            m[f"{layer}.share"] = 100.0 * m[f"{layer}.self_ms"] / wall_ms
        mst_ms = m["mst.self_ms"]
        m["mst.kruskal_share"] = 100.0 * m["mst.small_solve_ms"] / mst_ms if mst_ms else 0.0
        m["mst.solve_ms_p50"] = statistics.median(solves[p]) if solves[p] else 0.0
        m["weights.pairs"] = m["weights.units"]
        m["sampling.points"] = m["sampling.units"]
        m["io.bytes"] = m["io.units"]
    keys = sorted({k for m in per_pass.values() for k in m})
    metrics = {k: statistics.median(m.get(k, 0.0) for m in per_pass.values()) for k in keys}
    solve_cells = {key: statistics.median(v) for key, v in cells.items()}
    return metrics, solve_cells
