"""locmst benchmark: run one workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0

One client in one process runs the workload's fixed task list (a pass)
again and again until the next pass would overrun ``--seconds``; threads
stay at the library default.  Only the calls into locmst are timed; every
output is checked after its call.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics, then writes the spans to perfbench/out/.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the environment, pass and task counts, the tail percentile used and
the output digest.  Exit code 2 means locmst could not be loaded from this
checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
EXPECTED_DIGESTS = HERE / "expected_digests.json"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # tasks that must lie beyond the reported tail percentile

END_TO_END = {
    "wall_s": "s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "mst.self_ms": "ms",
    "mst.solves": "count",
    "mst.points": "count",
    "mst.solve_ms_p50": "ms",
    "mst.kruskal_share": "%",
    "mst.score_ms": "ms",
    "weights.self_ms": "ms",
    "weights.calls": "count",
    "weights.pairs": "count",
    "experiments.self_ms": "ms",
    "experiments.checks": "count",
    "sampling.self_ms": "ms",
    "sampling.calls": "count",
    "sampling.points": "count",
    "io.bytes": "B",
    "sampling.share": "%",
    "geometry.share": "%",
    "weights.share": "%",
    "mst.share": "%",
    "experiments.share": "%",
    "io.share": "%",
    "trace.overhead_s": "s",
}
# Layer figures that can be exactly zero on a workload that never enters
# the layer; they go to the report line, not the result.
REPORT_ONLY = ("geometry.self_ms", "io.self_ms", "bench.self_ms")
# Solve-time cells (kind, n) go to the report from this size up: the study
# grid and the probe sizes, not the hundreds of tiny verify_small sizes.
SOLVE_CELL_MIN_N = 256


@dataclass
class Pass:
    traced: bool
    first_task: int
    times_ms: list[float]
    failed_tasks: int
    digest: str
    elapsed_s: float

    @property
    def wall_s(self) -> float:
        return sum(self.times_ms) / 1e3


def run_pass(tasks, first_task: int, tracer=None) -> Pass:
    """Run every task once; time each call, then check its output."""
    h = hashlib.sha256()
    times = []
    failed = 0
    t_start = perf_counter()
    for k, task in enumerate(tasks):
        span = tracer.task_span(first_task + k, task.label) if tracer else contextlib.nullcontext()
        ok = False
        t0 = perf_counter_ns()
        try:
            with span:
                out = task.call()
        except Exception:
            t1 = perf_counter_ns()
            _report_failure(task.label, "raised", failed)
        else:
            t1 = perf_counter_ns()
            try:
                ok = bool(task.check(out, h))
            except Exception:
                _report_failure(task.label, "check raised", failed)
            else:
                if not ok:
                    _report_failure(task.label, "check failed", failed)
        times.append((t1 - t0) / 1e6)
        if not ok:
            failed += 1
            h.update(f"failed:{k}".encode())
    return Pass(tracer is not None, first_task, times, failed, h.hexdigest(),
                perf_counter() - t_start)


def _report_failure(label: str, what: str, earlier: int) -> None:
    if earlier == 0:  # one traceback per pass is enough to diagnose
        print(f"task {label}: {what}", file=sys.stderr)
        if sys.exc_info()[0] is not None:
            traceback.print_exc(file=sys.stderr)


def measure_setup(workload: str, seed: int) -> float:
    """Median cold set-up time over SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _tail(times_ms: list[float]) -> tuple[float, float, int]:
    ordered = sorted(times_ms)
    at = len(ordered) - TAIL_BEYOND - 1
    return ordered[at], 100.0 * (at + 1) / len(ordered), len(ordered)


def tail(passes: list[Pass]) -> tuple[float, float, int]:
    """(value, percentile, task count) at the highest percentile with
    TAIL_BEYOND tasks beyond it.

    A task list longer than TAIL_BEYOND is judged pass by pass and the median
    over passes reported, so the percentile does not drift with the number
    of passes and one stalled pass cannot set it.  Shorter task lists are
    pooled over the run.
    """
    if len(passes[0].times_ms) > TAIL_BEYOND:
        per_pass = [_tail(p.times_ms) for p in passes]
        return (statistics.median(v for v, _, _ in per_pass),) + per_pass[0][1:]
    return _tail([t for p in passes for t in p.times_ms])


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def score_digests(passes: list[Pass], expected: str | None) -> tuple[int, str]:
    """Failures from pass digests that differ from the reference digest.

    The reference is the committed digest when there is one, else the most
    common digest of the run.  A pass that already has a failed task is
    not charged again for its changed digest.
    """
    reference = expected or Counter(p.digest for p in passes).most_common(1)[0][0]
    bad = sum(1 for p in passes if p.digest != reference and p.failed_tasks == 0)
    return bad, reference


def parse_args(argv):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="tiny runs every path at toy sizes, for the tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        import workloads

        workloads.check_locmst_source()
    except ImportError as exc:
        print(f"cannot load locmst from this checkout: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics

    args = parse_args(argv)
    workloads.build_layouts()
    workloads.warm_up(args.workload, args.seed)
    tasks = workloads.build_tasks(args.workload, args.seed, args.scale)
    tracer = Tracer() if args.trace else None

    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first = len(passes) * len(tasks)
        if traced:
            with tracer.installed():
                passes.append(run_pass(tasks, first, tracer))
        else:
            passes.append(run_pass(tasks, first))
        plain = [p for p in passes if not p.traced]
        if tracer is None:
            enough = sum(len(p.times_ms) for p in plain) > TAIL_BEYOND
        else:
            enough = len(passes) >= 2
        next_s = max(p.elapsed_s for p in passes[-2:])
        if enough and perf_counter() - start + next_s > args.seconds:
            break

    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads(EXPECTED_DIGESTS.read_text())[args.scale][args.workload]
    digest_failures, reference = score_digests(passes, expected)
    attempted = sum(len(p.times_ms) for p in passes)
    failed = sum(p.failed_tasks for p in passes) + digest_failures

    plain = [p for p in passes if not p.traced]
    plain_wall = statistics.median(p.wall_s for p in plain)
    report = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "tasks_per_pass": len(tasks), "pass_wall_s": [p.wall_s for p in plain],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "digest": reference,
        "digest_committed": expected, "digests_agree": len({p.digest for p in passes}) == 1,
        "env": environment(),
    }
    if tracer is None:
        times = [t for p in plain for t in p.times_ms]
        tail_ms, tail_pct, tail_tasks = tail(plain)
        report.update(tail_percentile=tail_pct, tail_tasks=tail_tasks)
        values = {
            "wall_s": plain_wall,
            "task_ms_p50": statistics.median(times),
            "task_ms_tail": tail_ms,
            "setup_s": measure_setup(args.workload, args.seed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        traced = [p for p in passes if p.traced]
        task_pass = {}
        for k, p in enumerate(traced):
            task_pass.update((p.first_task + t, k) for t in range(len(p.times_ms)))
        layers, cells = layer_metrics(tracer.spans, task_pass,
                                      {k: p.wall_s for k, p in enumerate(traced)})
        layers["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - plain_wall
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
        report["layers"] = {k: layers.get(k, 0.0) for k in REPORT_ONLY}
        report["layers"].update(
            (f"mst.solve_ms_p50.{kind}.n{n}", ms)
            for (kind, n), ms in sorted(cells.items()) if n >= SOLVE_CELL_MIN_N
        )
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        first = traced[0]
        tracer.write(trace_path, {"report": report, "layers": layers},
                     range(first.first_task, first.first_task + len(first.times_ms)))
        report["trace_file"] = str(trace_path.relative_to(HERE.parent))

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
