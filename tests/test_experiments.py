"""Gap statistics, bound verifiers, planted constructions, and study fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locmst.experiments import (
    EmptyPointSetError,
    GeometryInfeasibleError,
    StudyResult,
    _ols_loglog,
    fit_study,
    gap_stat,
    gap_stat_monotonicity,
    good_square_probe,
    isolated_cell_count,
    lower_bound_stat,
    merge_bound_check,
    one_node_difference,
    prop1_demo,
    run_weight_study,
    tiled_upper_bound,
)
from locmst.geometry import Tiling, build_tiling, cell_rect, cells_of
from locmst.mst import DuplicatePointsError
from locmst.sampling import Density, sample_binomial
from locmst.weights import (
    euclidean_spec,
    pair_weight,
    shifted_spec,
    spec_from_kind,
)


def centers_of_cells(tiling: Tiling, indices) -> np.ndarray:
    pts = []
    for idx in indices:
        r = cell_rect(tiling, idx)
        pts.append([(r.xmin + r.xmax) / 2, (r.ymin + r.ymax) / 2])
    return np.array(pts)


class TestGapStat:
    def test_hand_example(self):
        t = Tiling.from_grid(100, 4)
        pts = centers_of_cells(t, [3, 9])
        gs = gap_stat(t, pts)
        assert gs.occupied == (3, 9)
        assert gs.gaps == (2, 6, 7)
        assert gs.s_alpha(1.0) == pytest.approx(15.0)
        assert gs.s_alpha(2.0) == pytest.approx(4 + 36 + 49)

    def test_empty_configuration(self):
        t = Tiling.from_grid(100, 4)
        gs = gap_stat(t, np.empty((0, 2)))
        assert gs.gaps == (15,)
        assert gs.s_alpha(0.5) == pytest.approx(math.sqrt(15))

    def test_zero_gaps_are_dropped_from_the_sum(self):
        t = Tiling.from_grid(100, 3)
        pts = centers_of_cells(t, [1, 9])
        gs = gap_stat(t, pts)
        assert gs.gaps[0] == 0  # first occupied cell is snake index 1
        assert gs.s_alpha(1.0) == pytest.approx(8.0)

    def test_same_python_ints_and_sums_as_the_elementwise_loops(self):
        # the vectorised gaps and the map(pow) sum must match the plain
        # loops exactly, so study records stay byte-identical
        rng = np.random.default_rng(3)
        for n, s in ((1, 4), (20, 5), (300, 17), (2000, 45)):
            t = Tiling.from_grid(n, s)
            pts = rng.random((n, 2))
            gs = gap_stat(t, pts)
            occ = tuple(int(i) for i in np.unique(cells_of(t, pts)))
            assert gs.occupied == occ
            want = [occ[0] - 1]
            want.extend(b - a for a, b in zip(occ[:-1], occ[1:]))
            want.append(s * s - occ[-1])
            assert gs.gaps == tuple(want)
            assert all(type(v) is int for v in gs.occupied + gs.gaps)
            for alpha in (0.5, 0.7, 1, 2, 3, 1.0, 2.0, 3.0):
                loop = math.fsum(float(g) ** alpha for g in gs.gaps if g > 0)
                assert gs.s_alpha(alpha) == loop

    @given(seed=st.integers(0, 99_999), n=st.integers(1, 60))
    @settings(max_examples=150)
    def test_gaps_partition_the_snake(self, seed, n):
        t = Tiling.from_grid(2500, 50)
        pts = np.random.default_rng(seed).random((n, 2))
        gs = gap_stat(t, pts)
        assert sum(gs.gaps) == 50 * 50 - 1
        assert all(g >= 0 for g in gs.gaps)

    @given(
        seed=st.integers(0, 99_999),
        alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    )
    @settings(max_examples=200)
    def test_monotone_under_adding_a_point(self, seed, alpha):
        rng = np.random.default_rng(seed)
        t = Tiling.from_grid(400, 20)
        pts = rng.random((rng.integers(0, 40), 2))
        extra = rng.random(2)
        ok, before, after = gap_stat_monotonicity(t, pts, alpha, extra)
        assert ok, (alpha, before, after)

    def test_adding_into_occupied_cell_is_neutral(self):
        t = Tiling.from_grid(100, 4)
        pts = centers_of_cells(t, [6])
        r = cell_rect(t, 6)
        nudged = [(r.xmin + r.xmax) / 2 + 1e-4, (r.ymin + r.ymax) / 2]
        for alpha in (0.5, 2.0):
            ok, before, after = gap_stat_monotonicity(t, pts, alpha, nudged)
            assert ok
            assert after == pytest.approx(before)


class TestIsolatedCells:
    def test_hand_counts(self):
        t = Tiling.from_grid(2500, 5)
        one = centers_of_cells(t, [13])
        assert isolated_cell_count(t, one) == 1
        # adjacent cells shield each other
        pair = centers_of_cells(t, [1, 2])
        assert isolated_cell_count(t, pair) == 0
        # two opposite corners are both isolated
        corners = centers_of_cells(t, [1, 25])
        assert isolated_cell_count(t, corners) == 2

    def test_diagonal_neighbour_blocks(self):
        t = Tiling.from_grid(2500, 5)
        # snake 1 is (col 0, row 0); the odd column runs bottom-up, so
        # snake 9 is (col 1, row 1): they touch at a corner only
        pts = centers_of_cells(t, [1, 9])
        assert isolated_cell_count(t, pts) == 0


class TestDeterministicBounds:
    def test_lower_bound_random(self):
        spec = euclidean_spec()
        t = build_tiling(300, 1.0)
        for seed in range(25):
            pts = sample_binomial(300, Density.uniform(), seed).coords
            rep = lower_bound_stat(spec, t, pts, 1.0)
            assert rep.holds
            assert rep.mst_weight >= rep.bound - 1e-12

    def test_lower_bound_rejects_single_point(self):
        t = build_tiling(100, 1.0)
        with pytest.raises(ValueError):
            lower_bound_stat(euclidean_spec(), t, np.array([[0.5, 0.5]]), 1.0)

    def test_lower_bound_single_occupied_cell_forces_nothing(self):
        # both points in one cell: the tree never leaves it, so the
        # isolated cell must not count toward the forcing statistic
        t = build_tiling(4, 1.0)
        pts = np.array([[0.60, 0.90], [0.76, 0.94]])
        rep = lower_bound_stat(euclidean_spec(), t, pts, 2.0)
        assert rep.g_count == 0
        assert rep.bound == 0.0
        assert rep.holds

    def test_lower_bound_empty_is_trivial(self):
        t = build_tiling(100, 1.0)
        rep = lower_bound_stat(euclidean_spec(), t, np.empty((0, 2)), 2.0)
        assert rep.holds and rep.bound == 0.0 and rep.g_count == 0

    def test_tiled_upper_random(self):
        for kind in ("euclidean", "shifted"):
            spec = spec_from_kind(kind)
            t = build_tiling(200, 1.0)
            for seed in range(15):
                pts = sample_binomial(200, Density.uniform(), seed).coords
                rep = tiled_upper_bound(spec, t, pts, 1.0)
                assert rep.holds
                assert rep.mst_weight <= rep.w_uni + 1e-12
                assert rep.w_uni <= rep.rhs + 1e-12

    def test_tiled_upper_empty_raises(self):
        t = build_tiling(100, 1.0)
        with pytest.raises(EmptyPointSetError):
            tiled_upper_bound(euclidean_spec(), t, np.empty((0, 2)), 1.0)

    @pytest.mark.parametrize("kind", ["shifted", "hotspot"])
    @pytest.mark.parametrize("alpha", [0.7, 2.0, 3.0])
    def test_tiled_upper_w_uni_is_the_fsum_of_pair_weights(self, kind, alpha):
        # the constructed tree rebuilt here and priced pair by pair with the
        # scalar reference, on tiling grid lines and on the closed edges of
        # the discount cells, where cell and discount membership are decided
        spec = spec_from_kind(kind)
        t = build_tiling(64, 1.0)
        rng = np.random.default_rng(11)
        on_grid = rng.integers(0, t.s + 1, size=(30, 2)) / t.s
        half_grid = rng.integers(0, t.s, size=(30, 2)) / t.s
        half_grid[:, 0] += 0.5 / t.s
        cells = spec_from_kind("hotspot").layout.central_cells()
        on_cells = [
            (x, y)
            for c in cells
            for x in (c.xmin, (c.xmin + c.xmax) / 2, c.xmax)
            for y in (c.ymin, (c.ymin + c.ymax) / 2, c.ymax)
        ]
        pts = np.unique(
            np.vstack([on_grid, half_grid, on_cells, rng.random((20, 2))]),
            axis=0,
        )
        pts = pts[rng.permutation(len(pts))]
        first: dict[int, int] = {}
        edges = []
        for p, c in enumerate(cells_of(t, pts).tolist()):
            if c in first:
                edges.append((first[c], p))
            else:
                first[c] = p
        reps = [first[c] for c in sorted(first)]
        edges += zip(reps[:-1], reps[1:])
        want = math.fsum(
            pair_weight(spec, pts[a], pts[b]) ** alpha for a, b in edges
        )
        assert tiled_upper_bound(spec, t, pts, alpha).w_uni == want

    def test_tiled_upper_coincident_points_raise_the_solvers_error(self):
        # the solvers' input check names the coincident pair; the scalar
        # pair_weight's DegenerateEdgeError must not surface here
        t = build_tiling(16, 1.0)
        pts = np.array([[0.1, 0.2], [0.6, 0.6], [0.1, 0.2]])
        for kind in ("euclidean", "shifted", "hotspot"):
            with pytest.raises(DuplicatePointsError) as err:
                tiled_upper_bound(spec_from_kind(kind), t, pts, 1.0)
            assert err.value.indices == (0, 2)

    def test_tiled_upper_single_cell_is_tight(self):
        # two points in one cell: the constructed tree is the only edge
        t = Tiling.from_grid(100, 4)
        pts = np.array([[0.05, 0.05], [0.10, 0.05]])
        rep = tiled_upper_bound(euclidean_spec(), t, pts, 1.0)
        assert rep.w_uni == pytest.approx(0.05)
        assert rep.mst_weight == pytest.approx(rep.w_uni)

    def test_one_node_difference_random(self):
        spec = shifted_spec()
        rng = np.random.default_rng(17)
        for trial in range(30):
            pts = rng.random((rng.integers(3, 40), 2))
            j = int(rng.integers(0, len(pts)))
            rep = one_node_difference(spec, pts, j, 2.0)
            assert rep.holds, f"trial {trial}"
            assert rep.delta <= rep.f1 + rep.f2 + 1e-12

    def test_one_node_difference_validation(self):
        pts = np.random.default_rng(0).random((10, 2))
        with pytest.raises(IndexError):
            one_node_difference(euclidean_spec(), pts, 10, 1.0)
        with pytest.raises(ValueError):
            one_node_difference(euclidean_spec(), pts[:2], 0, 1.0)

    def test_merge_bound_random(self):
        spec = euclidean_spec()
        rng = np.random.default_rng(19)
        for _ in range(30):
            a = rng.random((rng.integers(1, 30), 2))
            b = rng.random((rng.integers(0, 30), 2))
            rep = merge_bound_check(spec, a, b, 1.5)
            assert rep.holds

    def test_merge_bound_empty_addition_is_equality(self):
        pts = np.random.default_rng(2).random((12, 2))
        rep = merge_bound_check(euclidean_spec(), pts, np.empty((0, 2)), 1.0)
        assert rep.merged == rep.bound

    def test_merge_bound_needs_base_points(self):
        with pytest.raises(ValueError):
            merge_bound_check(
                euclidean_spec(), np.empty((0, 2)), np.zeros((2, 2)), 1.0
            )


class TestProp1:
    def test_planted_star_k2(self):
        rep = prop1_demo(2, reps=2, seed=0, mode="planted")
        assert rep.n == 6143
        assert rep.occurrences == 2
        assert rep.star_ok == 2
        assert rep.min_center_degree >= 4 * 2 - 4
        assert rep.ok and rep.frequency == 1.0

    def test_conditional_matches_event_law(self):
        rep = prop1_demo(2, reps=2, seed=5, mode="conditional")
        assert rep.occurrences == 2
        assert rep.star_ok == 2

    def test_raw_mode_reports_the_odds(self):
        rep = prop1_demo(2, reps=1, seed=0, mode="raw")
        assert rep.occurrences == 0
        assert rep.ok  # vacuous: no occurrence, no violation
        assert rep.event_log10 < -100
        assert rep.floor_log10 <= rep.event_log10

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            prop1_demo(2, mode="exhaustive")
        with pytest.raises(ValueError):
            prop1_demo(2, reps=0)


class TestGoodSquareProbe:
    def test_probe_small_background(self):
        rep = good_square_probe(5, n=500, alpha=(1.0, 2.0), seed=4)
        assert rep.s == 161
        assert rep.ok
        assert rep.removed_edges == ()
        assert len(rep.added_edges) == 1
        (i, j) = rep.added_edges[0]
        assert j == rep.new_vertex and i == rep.v_min
        for inc, (lo, hi) in zip(rep.increments, rep.brackets):
            assert lo - 1e-9 <= inc <= hi + 1e-9

    def test_center_placement_hits_ring_distance(self):
        rep = good_square_probe(5, n=400, alpha=1.0, seed=1, x_at_center=True)
        a = 1.0 / rep.s
        assert rep.increments[0] == pytest.approx(15 * a, rel=1e-9)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            good_square_probe(4, n=500)
        with pytest.raises(GeometryInfeasibleError):
            good_square_probe(5, n=500, s=100)
        with pytest.raises(ValueError):
            good_square_probe(5, n=50)


class TestStudiesAndFits:
    def test_ols_matches_polyfit(self):
        ns = (256, 512, 1024, 2048)
        values = (3.1, 4.4, 6.0, 8.6)
        slope, intercept, stderr = _ols_loglog(ns, values)
        coeffs = np.polyfit(np.log(ns), np.log(values), 1)
        assert slope == pytest.approx(coeffs[0], rel=1e-12)
        assert intercept == pytest.approx(coeffs[1], rel=1e-12)
        assert stderr >= 0.0

    def _synthetic_study(self, alpha, scale, n_list=(256, 512, 1024, 2048),
                         reps=200):
        w = np.empty((len(n_list), reps))
        for i, n in enumerate(n_list):
            base = scale * n ** (1 - alpha / 2)
            # tiny deterministic spread so the variance is positive
            w[i] = base * (1.0 + 0.01 * np.linspace(-1, 1, reps))
        return StudyResult(
            weight_kind="euclidean",
            n_list=n_list,
            alphas=(alpha,),
            reps=reps,
            seed=0,
            records=(),
            weights={alpha: w},
        )

    def test_fit_recovers_planted_slope(self):
        study = self._synthetic_study(1.0, scale=0.63)
        fit = fit_study(study, 1.0, "mean")
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.expected_slope == 0.5
        assert fit.in_corridor is True

    def test_fit_flags_out_of_corridor_means(self):
        study = self._synthetic_study(1.0, scale=50.0)
        fit = fit_study(study, 1.0, "mean")
        assert fit.in_corridor is False

    def test_variance_fit_has_no_corridor(self):
        study = self._synthetic_study(2.0, scale=0.4)
        fit = fit_study(study, 2.0, "variance")
        assert fit.quantity == "variance"
        assert fit.expected_slope == -1.0
        assert fit.in_corridor is None
        assert fit.corridor_low == ()

    def test_run_weight_study_is_reproducible(self):
        kwargs = dict(n_list=(48, 64), reps=3, alphas=(1.0, 2.0), seed=9)
        a = run_weight_study("euclidean", **kwargs)
        b = run_weight_study("euclidean", **kwargs)
        np.testing.assert_array_equal(a.weights[1.0], b.weights[1.0])
        np.testing.assert_array_equal(a.weights[2.0], b.weights[2.0])
        cols = [r["mst_weight"] for r in a.records]
        np.testing.assert_array_equal(
            cols, [r["mst_weight"] for r in b.records]
        )
        assert len(a.records) == 2 * 3 * 2  # sizes x reps x alphas

    def test_process_pool_matches_the_serial_study(self):
        # sizes on both sides of the Kruskal / band-solver switch at n = 160;
        # 16 tasks make two chunks of the pool, so both workers take some
        kwargs = dict(n_list=(48, 64, 200, 300), reps=4, alphas=(1.0, 2.0),
                      seed=4)
        serial = run_weight_study("hotspot", **kwargs)
        pooled = run_weight_study("hotspot", threads=2, **kwargs)
        for a in (1.0, 2.0):
            np.testing.assert_array_equal(pooled.weights[a], serial.weights[a])

        def untimed(study):
            return [{k: v for k, v in r.items() if k != "runtime_ms"}
                    for r in study.records]

        assert untimed(pooled) == untimed(serial)

    def test_study_records_have_the_full_schema(self):
        study = run_weight_study(
            "shifted", (32, 48), reps=2, alphas=(1.0,), seed=3
        )
        want = {
            "experiment", "n", "alpha", "weight_kind", "seed", "replicate",
            "mst_weight", "max_degree", "g_alpha", "s_alpha", "runtime_ms",
        }
        for rec in study.records:
            assert set(rec) == want
            assert rec["weight_kind"] == "shifted"
            assert rec["mst_weight"] > 0

    def test_fit_study_runs_end_to_end(self):
        study = run_weight_study(
            "euclidean", (32, 48, 64, 96), reps=30, alphas=(1.0,), seed=1
        )
        fit = fit_study(study, 1.0, "mean")
        # tiny sizes: just demand the fitted exponent is in the right
        # neighbourhood and the machinery reports a finite error bar
        assert abs(fit.slope - 0.5) < 0.2
        assert math.isfinite(fit.stderr)
        assert fit.in_corridor is True
        assert (fit.n_list, fit.reps) == (study.n_list, study.reps)

    @pytest.mark.parametrize(
        "n_list, reps, alphas",
        [((32,), 1, (1.0,)), ((64, 64, 96, 128), 3, (1.0,)),
         ((32, 48), 3, (0.0,)), ((32, 48), 3, (1.0, -1.0)),
         ((32, 48), 3, (float("nan"),))],
    )
    def test_study_validation(self, monkeypatch, n_list, reps, alphas):
        # every refusal comes before the first point is drawn
        def no_sampling(*args, **kwargs):
            pytest.fail("sampled a study that should have been refused")

        monkeypatch.setattr("locmst.experiments.sample_binomial", no_sampling)
        with pytest.raises(ValueError):
            run_weight_study("euclidean", n_list, reps=reps, alphas=alphas)

    @pytest.mark.parametrize(
        "quantity, reps, n_list",
        [("median", 200, (256, 512, 1024, 2048)),
         ("mean", 29, (256, 512, 1024, 2048)),
         ("variance", 199, (256, 512, 1024, 2048)),
         ("mean", 200, (256, 512, 1024)),
         ("variance", 200, (256, 512, 1024))],
    )
    def test_fit_study_refuses_what_it_cannot_fit(self, quantity, reps, n_list):
        study = self._synthetic_study(1.0, 0.63, n_list=n_list, reps=reps)
        with pytest.raises(ValueError):
            fit_study(study, 1.0, quantity)

    def test_fit_study_needs_a_scored_alpha(self):
        study = self._synthetic_study(1.0, scale=0.63)
        with pytest.raises(ValueError, match="alpha=2"):
            fit_study(study, 2.0, "mean")
