"""Release gate: the eleven shipped guarantees, one test per line of -v output.

Each test states a quantitative promise the package makes; run with

    python3 -m pytest tests/test_acceptance.py -v

to get a pass/fail line per criterion.  The heavyweight scaling study is
shared through a module fixture and takes about 10 s; the whole file
runs in about a minute on a 2-core VM.
"""

from time import perf_counter

import numpy as np
import pytest

from locmst.bounds import (
    compute_bounds,
    geometric_moment,
    geometric_moment_upper_bound,
)
from locmst.experiments import (
    fit_study,
    gap_stat_monotonicity,
    good_square_probe,
    lower_bound_stat,
    merge_bound_check,
    one_node_difference,
    prop1_demo,
    run_weight_study,
    tiled_upper_bound,
)
from locmst.geometry import Tiling, build_tiling
from locmst.mst import (
    alpha_invariance_check,
    minimum_spanning_tree,
    mst_brute_force,
    mst_kruskal,
    mst_prim_dense,
    scale_check,
    translate_check,
)
from locmst.sampling import Density, sample_binomial, sample_poisson
from locmst.weights import shifted_spec, spec_from_kind

UNIFORM = Density.uniform()
KINDS = ("euclidean", "hotspot", "shifted")

STUDY_N_LIST = (256, 512, 1024, 2048, 4096, 8192)
STUDY_REPS = 200
STUDY_SEED = 2026


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


@pytest.fixture(scope="module")
def scaling_study():
    t0 = perf_counter()
    study = run_weight_study(
        "euclidean", STUDY_N_LIST, STUDY_REPS, (1.0, 2.0), seed=STUDY_SEED
    )
    return study, perf_counter() - t0


def test_c01_bracket_constants_match_reference_values():
    golden = [
        ((1.0, 1.0, 1.0), 0.0735633, 4.46256),
        ((2.0, 1.0, 1.0), 0.0216525, 13.8772),
        ((1.0, 0.5, 7.0 / 6.0), 0.0346363, 4.92912),
    ]
    t0 = perf_counter()
    for (alpha, eps1, eps2), low, up in golden:
        res = compute_bounds(alpha, eps1, eps2)
        assert rel_err(res.beta_low, low) <= 1e-3, (alpha, eps1, eps2, "low")
        assert rel_err(res.beta_up, up) <= 1e-3, (alpha, eps1, eps2, "up")
    assert perf_counter() - t0 < 5.0


def test_c02_three_solvers_agree_on_small_instances():
    t0 = perf_counter()
    mismatches = 0
    for k, kind in enumerate(KINDS):
        spec = spec_from_kind(kind)
        for i in range(1000):
            n = 2 + i % 6
            pts = sample_binomial(n, UNIFORM, 9000 + i, key=(k,)).coords
            prim = mst_prim_dense(spec, pts)
            krus = mst_kruskal(spec, pts)
            brute = mst_brute_force(spec, pts)
            same_edges = prim.edge_set() == krus.edge_set() == brute.edge_set()
            same_weight = (
                prim.total_weight(1.0)
                == krus.total_weight(1.0)
                == brute.total_weight(1.0)
            ) and (
                prim.total_weight(2.0)
                == krus.total_weight(2.0)
                == brute.total_weight(2.0)
            )
            mismatches += not (same_edges and same_weight)
    assert mismatches == 0
    assert perf_counter() - t0 < 60.0


def test_c03_edge_set_is_alpha_invariant():
    for k, kind in enumerate(KINDS):
        spec = spec_from_kind(kind)
        for i in range(100):
            pts = sample_binomial(50, UNIFORM, 300 + i, key=(k,)).coords
            assert alpha_invariance_check(spec, pts, (0.5, 1.0, 2.0, 3.0)), (
                kind,
                i,
            )


def test_c04_deterministic_inequalities_never_fail():
    t0 = perf_counter()
    rng = np.random.default_rng(404)

    fails = 0
    checked = 0
    i = 0
    while checked < 10_000:
        n = int(rng.integers(2, 61))
        if i % 4 == 0:
            pts = sample_poisson(n, UNIFORM, 41_000 + i).coords
        else:
            pts = sample_binomial(n, UNIFORM, 41_000 + i).coords
        i += 1
        if len(pts) < 2:
            continue
        tiling = build_tiling(max(len(pts), 4), 1.0)
        alpha = float(rng.choice([0.7, 1.0, 2.0]))
        spec = spec_from_kind(KINDS[i % 3])
        fails += not lower_bound_stat(spec, tiling, pts, alpha).holds
        checked += 1
    assert fails == 0, "lower bound"

    fails = 0
    checked = 0
    i = 0
    while checked < 1_000:
        n = 1 + i % 90
        if i % 4 == 0:
            pts = sample_poisson(n, UNIFORM, 42_000 + i).coords
        else:
            pts = sample_binomial(n, UNIFORM, 42_000 + i).coords
        i += 1
        if len(pts) == 0:
            continue
        tiling = build_tiling(max(len(pts), 4), 1.0)
        alpha = (1.0, 2.0)[i % 2]
        spec = spec_from_kind(KINDS[i % 3])
        fails += not tiled_upper_bound(spec, tiling, pts, alpha).holds
        checked += 1
    assert fails == 0, "tiled upper bound"

    fails = 0
    for i in range(10_000):
        n = int(rng.integers(3, 51))
        pts = sample_binomial(n, UNIFORM, 43_000 + i).coords
        j = int(rng.integers(0, n))
        alpha = (1.0, 2.0)[i % 2]
        spec = spec_from_kind(KINDS[i % 3])
        rep = one_node_difference(spec, pts, j, alpha)
        fails += not (rep.holds and rep.delta <= rep.f1 + rep.f2 + 1e-12)
    assert fails == 0, "one-node difference"

    fails = 0
    for i in range(1_000):
        n1 = int(rng.integers(1, 41))
        n2 = int(rng.integers(0, 41))
        a = sample_binomial(n1, UNIFORM, 44_000 + i, key=(0,)).coords
        b = sample_binomial(n2, UNIFORM, 44_000 + i, key=(1,)).coords
        alpha = float(rng.choice([1.0, 1.5, 2.0]))
        spec = spec_from_kind(KINDS[i % 3])
        fails += not merge_bound_check(spec, a, b, alpha).holds
    assert fails == 0, "merge bound"

    assert perf_counter() - t0 < 600.0


def test_c05_gap_statistic_is_monotone_in_added_points():
    tiling = Tiling.from_grid(400, 20)
    violations = 0
    pairs = 0
    for j, alpha in enumerate((0.5, 1.0, 1.5, 2.0)):
        rng = np.random.default_rng(500 + j)
        for _ in range(25_000):
            pts = rng.random((int(rng.integers(0, 51)), 2))
            extra = rng.random(2)
            ok, _, _ = gap_stat_monotonicity(tiling, pts, alpha, extra)
            violations += not ok
            pairs += 1
    assert pairs == 100_000
    assert violations == 0


def test_c06_planted_hotspots_force_a_star_center():
    for K, reps in ((2, 3), (3, 2)):
        rep = prop1_demo(K, reps=reps, seed=0, mode="planted")
        assert rep.occurrences == reps
        assert rep.star_ok == reps
        assert rep.min_center_degree >= 4 * K - 4
        assert rep.ok
    mc = prop1_demo(2, reps=3, seed=1, mode="conditional")
    assert mc.occurrences > 0
    assert mc.frequency > 0.0
    assert mc.star_ok == mc.occurrences


def test_c07_good_square_produces_one_bracketed_edge():
    fails = 0
    for seed in range(100):
        rep = good_square_probe(5, n=2000, alpha=(1.0, 2.0), seed=seed)
        one_edge = len(rep.added_edges) == 1 and not rep.removed_edges
        in_bracket = all(
            lo - 1e-9 <= inc <= hi + 1e-9
            for inc, (lo, hi) in zip(rep.increments, rep.brackets)
        )
        fails += not (rep.ok and one_edge and in_bracket)
    assert fails == 0


def test_c08_weight_scaling_laws(scaling_study):
    study, study_seconds = scaling_study
    t0 = perf_counter()
    for alpha in (1.0, 2.0):
        mean_fit = fit_study(study, alpha, "mean")
        assert abs(mean_fit.slope - (1 - alpha / 2)) <= 0.1, mean_fit
        assert mean_fit.in_corridor is True, mean_fit
        var_fit = fit_study(study, alpha, "variance")
        assert abs(var_fit.slope - (1 - alpha)) <= 0.25, var_fit
    assert study_seconds + (perf_counter() - t0) < 1800.0


def test_c09_geometric_moments_respect_the_factorial_bound():
    for theta in (0.1, 0.5, 1.0, 2.0, 5.0):
        p = 1.0 - np.exp(-theta)
        for r in range(1, 7):
            moment = geometric_moment(r, p)
            bound = geometric_moment_upper_bound(r, theta)
            assert moment <= bound * (1 + 1e-12), (r, theta)
        assert geometric_moment(1, p) == pytest.approx(
            geometric_moment_upper_bound(1, theta), rel=1e-9
        )


def test_c10_scaling_identity_and_translation_bound():
    for kind in ("euclidean", "shifted"):
        spec = spec_from_kind(kind)
        for i in range(200):
            pts = sample_binomial(2 + i % 30, UNIFORM, 100_000 + i).coords
            a = (0.5, 2.0, 3.7)[i % 3]
            alpha = (1.0, 2.0)[i % 2]
            lhs, rhs, same_edges = scale_check(spec, pts, a, alpha)
            assert same_edges, (kind, i)
            assert rel_err(lhs, rhs) <= 1e-10, (kind, i)

    spec = shifted_spec()
    assert spec.h0 == 1.5
    rng = np.random.default_rng(1010)
    for i in range(10_000):
        n = int(rng.integers(3, 21))
        pts = sample_binomial(n, UNIFORM, 200_000 + i).coords
        b = rng.uniform(-1.0, 1.0, size=2)
        alpha = (1.0, 2.0)[i % 2]
        lhs, rhs, holds = translate_check(spec, pts, b, alpha)
        assert holds, (i, lhs, rhs)


def test_c11_euclidean_trees_never_exceed_degree_six():
    spec = spec_from_kind("euclidean")
    observed_max = 0
    instances = 0
    i = 0
    while instances < 10_000:
        n = 2 + i % 63
        if i % 2:
            pts = sample_binomial(n, UNIFORM, 50_000 + i).coords
        else:
            pts = sample_poisson(n, UNIFORM, 50_000 + i).coords
        i += 1
        if len(pts) < 2:
            continue
        result = minimum_spanning_tree(spec, pts)
        observed_max = max(observed_max, result.max_degree)
        instances += 1
        assert result.max_degree <= 6, (i, result.max_degree)
    assert instances == 10_000
    assert observed_max <= 6
