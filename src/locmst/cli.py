"""Command-line front end.

Exit codes: 0 on success, 1 when a checked invariant fails (the first
witness is printed), 2 on configuration errors and when memory runs out.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .bounds import _check_alphas, _check_float_range, compute_bounds
from .experiments import (
    _check_fittable,
    fit_study,
    good_square_probe,
    prop1_demo,
    run_weight_study,
)
from .io import (
    bounds_to_json,
    envelope,
    mst_result_to_csv,
    mst_result_to_json,
    point_set_to_csv,
    records_to_csv,
    scaling_fits_to_json,
    write_text,
)
from .mst import alpha_invariance_check, minimum_spanning_tree
from .sampling import Density, sample_binomial, sample_poisson
from .svg import line_chart
from .weights import spec_from_kind

_DEFAULT_NS = "256,512,1024,2048,4096,8192"


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


# compute_bounds takes 6-9 s at each non-integer alpha, so a grid this
# long already runs for 10-15 minutes
_ALPHA_GRID_MAX = 100


def _alpha_grid(text: str) -> tuple[float, ...]:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {text!r}")
    if not (step > 0 and lo <= hi):  # NaN too
        raise argparse.ArgumentTypeError("need lo <= hi and step > 0")
    stop = hi + step / 2
    # np.arange's length, counted before anything is allocated
    if not (stop - lo) / step <= _ALPHA_GRID_MAX:
        raise argparse.ArgumentTypeError(
            f"{text!r} has more than {_ALPHA_GRID_MAX} alphas"
        )
    return tuple(np.arange(lo, stop, step).tolist())


def _config(args, command: str) -> dict:
    # where the artifacts go and how many processes wrote them are not part
    # of what produced them, so two runs that differ only there write the
    # same bytes
    params = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(args).items()
        if k not in ("func", "command", "plot", "threads")
        and not k.startswith("out")
        and v is not None
    }
    return {"command": command, "params": params}


def cmd_bounds(args) -> int:
    alphas = list(args.alpha or [])
    if args.alpha_grid:
        alphas.extend(args.alpha_grid)
    if not alphas:
        alphas = [1.0]
    # each constant takes seconds: refuse before the first
    _check_alphas(alphas)
    _check_float_range(alphas, args.eps1, args.eps2)
    if args.plot and len(alphas) < 2:
        print("locmst: --plot needs an alpha grid", file=sys.stderr)
        return 2
    results = [
        compute_bounds(a, args.eps1, args.eps2, args.c1, args.c2) for a in alphas
    ]
    for r in results:
        print(
            f"alpha={r.alpha:g} beta_low={r.beta_low:.8g} (A*={r.A_low:.6g}) "
            f"beta_up={r.beta_up:.8g} (A*={r.A_up:.6g})"
        )
    config = _config(args, "bounds")
    if args.out:
        doc = results[0] if len(results) == 1 else results
        write_text(args.out, bounds_to_json(doc, config))
    if args.plot:
        xs = [r.alpha for r in results]
        chart = line_chart(
            [
                ("beta_low", xs, [r.beta_low for r in results]),
                ("beta_up", xs, [r.beta_up for r in results]),
            ],
            title="Envelope constants",
            xlabel="alpha",
            ylabel="beta",
            log_y=True,
        )
        write_text(args.plot, chart)
    return 0


def cmd_simulate(args) -> int:
    _check_alphas((args.alpha,))  # before any point is drawn
    spec = spec_from_kind(args.kind)
    density = Density.uniform()
    if args.process == "binomial":
        ps = sample_binomial(args.n, density, args.seed)
    else:
        ps = sample_poisson(args.n, density, args.seed)
    result = minimum_spanning_tree(spec, ps.coords)
    total = result.total_weight(args.alpha)
    print(
        f"kind={args.kind} n={ps.n} alpha={args.alpha:g} "
        f"mst_weight={total:.12g} max_degree={result.max_degree}"
    )
    config = _config(args, "simulate")
    if args.out_points:
        write_text(args.out_points, point_set_to_csv(ps, config))
    if args.out_mst:
        write_text(
            args.out_mst, mst_result_to_json(result, args.alpha, args.kind, config)
        )
    if args.out_edges:
        write_text(args.out_edges, mst_result_to_csv(result, config))
    return 0


def _slope_line(fit) -> str:
    corridor = ""
    if fit.in_corridor is not None:
        corridor = f" in_corridor={fit.in_corridor}"
    return (
        f"{fit.quantity} alpha={fit.alpha:g} kind={fit.weight_kind} "
        f"slope={fit.slope:.4f} expected={fit.expected_slope:.4f} "
        f"stderr={fit.stderr:.4f}{corridor}"
    )


def _run_study_command(args, quantity: str) -> int:
    # refuse a study that cannot be fitted before any point is drawn
    _check_fittable(quantity, args.n_list, args.reps)
    experiment = "scaling" if quantity == "mean" else "variance"
    study = run_weight_study(
        args.kind, args.n_list, args.reps, args.alpha, args.seed, args.threads,
        experiment=experiment,
    )
    fits = [fit_study(study, a, quantity) for a in args.alpha]
    for fit in fits:
        print(_slope_line(fit))
    config = _config(args, experiment)
    if args.out_csv:
        write_text(args.out_csv, records_to_csv(study.records, config))
    if args.out_json:
        write_text(args.out_json, scaling_fits_to_json(fits, config))
    if args.plot:
        series = [
            (f"alpha={fit.alpha:g}", list(fit.n_list), list(fit.values))
            for fit in fits
        ]
        chart = line_chart(
            series,
            title=f"MST weight {quantity} vs n ({args.kind})",
            xlabel="n",
            ylabel=quantity,
            log_x=True,
            log_y=True,
        )
        write_text(args.plot, chart)
    for fit in fits:
        if abs(fit.slope - fit.expected_slope) > args.slope_tol:
            print(
                f"FAIL slope alpha={fit.alpha:g}: {fit.slope:.4f} vs "
                f"{fit.expected_slope:.4f} (tol {args.slope_tol:g})"
            )
            return 1
        if fit.in_corridor is False:
            bad = [
                (n, v, lo, hi)
                for n, v, lo, hi in zip(
                    fit.n_list, fit.values, fit.corridor_low, fit.corridor_high
                )
                if not lo <= v <= hi
            ][0]
            print(
                f"FAIL corridor alpha={fit.alpha:g}: mean at n={bad[0]} is "
                f"{bad[1]:.6g}, outside [{bad[2]:.6g}, {bad[3]:.6g}]"
            )
            return 1
    return 0


def cmd_scaling(args) -> int:
    return _run_study_command(args, "mean")


def cmd_variance(args) -> int:
    return _run_study_command(args, "variance")


def cmd_prop1(args) -> int:
    report = prop1_demo(
        args.K, level=args.level, reps=args.reps, seed=args.seed, mode=args.mode
    )
    print(
        f"mode={report.mode} K={report.K} level={report.level} n={report.n} "
        f"occurrences={report.occurrences}/{report.reps} "
        f"star_ok={report.star_ok} min_center_degree={report.min_center_degree}"
    )
    print(
        f"event_log10={report.event_log10:.6g} "
        f"floor_log10={report.floor_log10:.6g}"
    )
    if report.mode == "raw" and report.occurrences == 0:
        print("no occurrences, as expected at this probability scale")
    config = _config(args, "prop1")
    if args.out:
        payload = {**asdict(report), "ok": report.ok}
        write_text(args.out, envelope("prop1", config, payload))
    if not report.ok:
        print(
            f"FAIL star: verified {report.star_ok} of {report.occurrences} "
            "occurrences"
        )
        return 1
    return 0


def cmd_probe(args) -> int:
    report = good_square_probe(
        args.g,
        n=args.n,
        alpha=args.alpha,
        seed=args.seed,
        x_at_center=args.x_at_center,
    )
    print(
        f"g={report.g} s={report.s} n={report.n} added={list(report.added_edges)} "
        f"removed={list(report.removed_edges)} v_min={report.v_min}"
    )
    for a, inc, (lo, hi) in zip(report.alphas, report.increments, report.brackets):
        print(f"alpha={a:g} increment={inc:.9g} bracket=[{lo:.9g}, {hi:.9g}]")
    config = _config(args, "probe-good-square")
    if args.out:
        payload = {**asdict(report), "ok": report.ok}
        write_text(args.out, envelope("good_square", config, payload))
    if not report.ok:
        print(
            f"FAIL probe: edge_ok={report.edge_ok} "
            f"increment_ok={report.increment_ok} config_ok={report.config_ok}"
        )
        return 1
    return 0


def cmd_invariance(args) -> int:
    # refused before sampling: with no instance nothing else checks alpha
    _check_alphas(args.alpha)
    if args.instances < 1:
        raise ValueError("instances must be >= 1")
    if args.n < 2:  # a tree with no edge has nothing to keep stable
        raise ValueError("n must be >= 2")
    spec = spec_from_kind(args.kind)
    density = Density.uniform()
    for rep in range(args.instances):
        ps = sample_binomial(args.n, density, args.seed, key=(rep,))
        if not alpha_invariance_check(spec, ps.coords, args.alpha):
            print(
                f"FAIL invariance: kind={args.kind} n={args.n} seed={args.seed} "
                f"replicate={rep} alphas={list(args.alpha)}"
            )
            return 1
    print(
        f"edge set stable across alphas={list(args.alpha)} on "
        f"{args.instances} instances (kind={args.kind}, n={args.n})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locmst",
        description="Minimum spanning trees under location-dependent "
        "power-weighted metrics: envelope constants, simulations, and "
        "invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="envelope constants beta_low / beta_up")
    p.add_argument("--alpha", type=float, action="append")
    p.add_argument("--alpha-grid", type=_alpha_grid, metavar="LO:HI:STEP")
    p.add_argument("--eps1", type=float, default=1.0)
    p.add_argument("--eps2", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--out", help="write JSON here")
    p.add_argument("--plot", help="write an SVG of the beta curves here")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="one instance: sample points, solve")
    p.add_argument("--kind", default="euclidean",
                   choices=["euclidean", "hotspot", "shifted"])
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--process", default="binomial",
                   choices=["binomial", "poisson"])
    p.add_argument("--out-points", help="write the sampled points as CSV")
    p.add_argument("--out-mst", help="write the tree as JSON")
    p.add_argument("--out-edges", help="write the edge list as CSV")
    p.set_defaults(func=cmd_simulate)

    for name, helptext, tol in (
        ("scaling", "mean weight slope against n", 0.1),
        ("variance", "weight variance slope against n", 0.25),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--alpha", type=_float_list, default=(1.0,),
                       metavar="A1,A2,...")
        p.add_argument("--kind", default="euclidean",
                       choices=["euclidean", "hotspot", "shifted"])
        p.add_argument("--n-list", dest="n_list", type=_int_list,
                       default=_int_list(_DEFAULT_NS))
        p.add_argument("--reps", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int)
        p.add_argument("--slope-tol", type=float, default=tol)
        p.add_argument("--out-csv", help="write per-replicate records here")
        p.add_argument("--out-json", help="write the fitted slopes here")
        p.add_argument("--plot", help="write a log-log SVG here")
        p.set_defaults(func=cmd_scaling if name == "scaling" else cmd_variance)

    p = sub.add_parser("prop1", help="planted hotspot star demonstration")
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--mode", default="conditional",
                   choices=["planted", "conditional", "raw"])
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("probe-good-square",
                       help="one-edge increment at a planted empty moat")
    p.add_argument("--g", type=int, default=5)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--alpha", type=_float_list, default=(1.0, 2.0),
                   metavar="A1,A2,...")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x-at-center", action="store_true")
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("invariance",
                       help="edge set is the same for every alpha")
    p.add_argument("--kind", default="euclidean",
                   choices=["euclidean", "hotspot", "shifted"])
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--alpha", type=_float_list, default=(0.5, 1.0, 2.0, 3.0),
                   metavar="A1,A2,...")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_invariance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"locmst: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""  # numpy's names the allocation
        print(f"locmst: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
