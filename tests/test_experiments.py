"""Gap statistics, bound verifiers, planted constructions, and study fits."""

import hashlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locmst.experiments import (
    _POOL_MIN_POINTS,
    EmptyPointSetError,
    StudyResult,
    _event_log10,
    _fork_map,
    _gaps,
    _isolated_count,
    _ols_loglog,
    _sample_in_rect,
    _study_task,
    fit_study,
    gap_stat_monotonicity,
    good_square_probe,
    lower_bound_stat,
    merge_bound_check,
    one_node_difference,
    prop1_demo,
    prop1_floor_log10,
    run_weight_study,
    tiled_upper_bound,
)
from locmst.geometry import (
    Rect,
    Tiling,
    _snake_cell,
    build_tiling,
    cells_of,
    occupied_cells,
)
from locmst.mst import (
    DuplicatePointsError,
    _power_sum,
    minimum_spanning_tree,
    mst_with_point,
    scale_check,
    translate_check,
)
from locmst.sampling import Density, derive_rng, sample_binomial
from locmst.weights import (
    euclidean_spec,
    hotspot_spec,
    pair_weight,
    shifted_spec,
    spec_from_kind,
)


def assert_same_study(got: StudyResult, want: StudyResult) -> None:
    """Equal weights and records, apart from the wall-clock runtime_ms."""
    assert got.weights.keys() == want.weights.keys()
    for a in want.weights:
        np.testing.assert_array_equal(got.weights[a], want.weights[a])

    def untimed(study):
        return [{k: v for k, v in r.items() if k != "runtime_ms"}
                for r in study.records]

    assert untimed(got) == untimed(want)


def no_fork():
    pytest.fail("forked for a study that should run in one process")


ROOT = Path(__file__).resolve().parents[1]

needs_fork = pytest.mark.skipif(sys.platform != "linux",
                                reason="studies fork their children on Linux")


@pytest.fixture
def forks(monkeypatch):
    """The children locmst.experiments forks, as they start."""
    started = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr("locmst.experiments.os.fork", counted)
    return started


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def deadline():
    """Turns a study that hangs into a TimeoutError after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the study hung")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, before)


def centers_of_cells(tiling: Tiling, indices) -> np.ndarray:
    s, side = tiling.s, tiling.cell_side
    col, row = _snake_cell(s, np.asarray(indices, dtype=np.int64))
    x0, y0 = col * side, (s - 1 - row) * side  # the cell's lower-left corner
    return np.stack([(x0 + (x0 + side)) / 2, (y0 + (y0 + side)) / 2], axis=1)


class TestGapStat:
    def test_hand_example(self):
        t = Tiling(4)
        pts = centers_of_cells(t, [3, 9])
        occ = occupied_cells(t, pts)
        assert occ.tolist() == [3, 9]
        gaps = _gaps(t.s, occ)
        assert gaps == [2, 6, 7]
        assert _power_sum(gaps, 1.0) == pytest.approx(15.0)
        assert _power_sum(gaps, 2.0) == pytest.approx(4 + 36 + 49)

    def test_empty_configuration(self):
        t = Tiling(4)
        gaps = _gaps(t.s, occupied_cells(t, np.empty((0, 2))))
        assert gaps == [15]
        assert _power_sum(gaps, 0.5) == pytest.approx(math.sqrt(15))

    def test_zero_gaps_are_dropped_from_the_sum(self):
        t = Tiling(3)
        pts = centers_of_cells(t, [1, 9])
        gaps = _gaps(t.s, occupied_cells(t, pts))
        assert gaps[0] == 0  # first occupied cell is snake index 1
        assert _power_sum(gaps, 1.0) == pytest.approx(8.0)

    def test_same_python_ints_and_sums_as_the_elementwise_loops(self):
        # the vectorised gaps and the map(pow) sum must match the plain
        # loops exactly, so study records stay byte-identical
        rng = np.random.default_rng(3)
        for n, s in ((1, 4), (20, 5), (300, 17), (2000, 45)):
            t = Tiling(s)
            pts = rng.random((n, 2))
            cells = occupied_cells(t, pts)
            gaps = _gaps(t.s, cells)
            occ = tuple(int(i) for i in np.unique(cells_of(t, pts)))
            assert tuple(cells.tolist()) == occ
            want = [occ[0] - 1]
            want.extend(b - a for a, b in zip(occ[:-1], occ[1:]))
            want.append(s * s - occ[-1])
            assert gaps == want
            assert all(type(v) is int for v in gaps)
            for alpha in (0.5, 0.7, 1, 2, 3, 1.0, 2.0, 3.0):
                loop = math.fsum(float(g) ** alpha for g in gaps if g > 0)
                assert _power_sum(gaps, alpha) == loop

    def test_s_alpha_is_pinned_on_many_equal_gaps_of_mixed_magnitude(self):
        # counts whose count * g**alpha rounds, beside gaps from 1 to 1e9:
        # the sum must be the exactly rounded fsum over every gap
        gaps = ((0,) * 5 + (1,) * 50_000 + (7,) * 3_001 + (12_345,) * 17
                + (10**9 + 7,) + (3,) * 99_999 + (2, 5, 11))
        pins = {
            0.3: "0x1.7d45653ebdd74p+17", 0.5: "0x1.0275750d90ebdp+18",
            1.0: "0x1.dd1d38f000000p+29", 1.5: "0x1.cc2c1d0246edbp+44",
            2.0: "0x1.bc16d6f08b003p+59", 2.5: "0x1.ac918c3d89ef5p+74",
            3.7: "0x1.897f01aa95e7dp+110", 17.0: "0x1.317e615595578p+508",
        }
        for alpha, want in pins.items():
            got = _power_sum(gaps, alpha)
            assert got.hex() == want
            assert got == math.fsum(float(g) ** alpha for g in gaps if g)

    @given(seed=st.integers(0, 99_999), n=st.integers(1, 60))
    @settings(max_examples=150)
    def test_gaps_partition_the_snake(self, seed, n):
        t = Tiling(50)
        pts = np.random.default_rng(seed).random((n, 2))
        gaps = _gaps(t.s, occupied_cells(t, pts))
        assert sum(gaps) == 50 * 50 - 1
        assert all(g >= 0 for g in gaps)

    @given(
        seed=st.integers(0, 99_999),
        alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    )
    @settings(max_examples=200)
    def test_monotone_under_adding_a_point(self, seed, alpha):
        rng = np.random.default_rng(seed)
        t = Tiling(20)
        pts = rng.random((rng.integers(0, 40), 2))
        extra = rng.random(2)
        ok, before, after = gap_stat_monotonicity(t, pts, alpha, extra)
        assert ok, (alpha, before, after)

    def test_adding_into_occupied_cell_is_neutral(self):
        t = Tiling(4)
        pts = centers_of_cells(t, [6])
        nudged = pts[0] + [1e-4, 0.0]
        for alpha in (0.5, 2.0):
            ok, before, after = gap_stat_monotonicity(t, pts, alpha, nudged)
            assert ok
            assert after == pytest.approx(before)

    @pytest.mark.parametrize(
        "where", ["occupied", "empty", "vertical side", "horizontal side",
                  "corner", "top edge", "empty base"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_monotonicity_equals_two_full_gap_stats(self, where, alpha):
        # both sets come from one cell map of the base set and the added
        # point; the sums must be those of the gaps of each set
        t = Tiling(6)
        pts = np.random.default_rng(5).random((9, 2))
        occupied = occupied_cells(t, pts).tolist()
        free = min(set(range(1, 37)) - set(occupied))
        extra = {
            "occupied": pts[3] + 1e-9,
            "empty": centers_of_cells(t, [free])[0],
            "vertical side": [2 / 6, 0.55],
            "horizontal side": [0.75, 4 / 6],
            "corner": [3 / 6, 1 / 6],
            "top edge": [0.1, 1.0],
            "empty base": [0.3, 0.6],
        }[where]
        if where == "empty base":
            pts = np.empty((0, 2))
        elif where == "occupied":
            assert cells_of(t, [extra]).tolist() == cells_of(t, pts[3:4]).tolist()
        added = np.vstack([pts, extra])
        ok, before, after = gap_stat_monotonicity(t, pts, alpha, extra)
        assert before == _power_sum(_gaps(t.s, occupied_cells(t, pts)), alpha)
        assert after == _power_sum(_gaps(t.s, occupied_cells(t, added)), alpha)
        assert ok


class TestIsolatedCells:
    def test_hand_counts(self):
        t = Tiling(5)
        # one occupied cell forces no edge, so it counts zero
        one = centers_of_cells(t, [13])
        assert _isolated_count(t.s, occupied_cells(t, one)) == 0
        # adjacent cells shield each other
        pair = centers_of_cells(t, [1, 2])
        assert _isolated_count(t.s, occupied_cells(t, pair)) == 0
        # two opposite corners are both isolated
        corners = centers_of_cells(t, [1, 25])
        assert _isolated_count(t.s, occupied_cells(t, corners)) == 2

    @given(s=st.integers(1, 9), n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_counts_the_cells_with_no_occupied_neighbour(self, s, n, seed):
        rng = np.random.default_rng(seed)
        t = Tiling(s)
        pts = rng.random((n, 2))
        pts[: n // 3] = rng.integers(0, s + 1, (n // 3, 2)) / s  # on gridlines
        occupied = set()
        for index in cells_of(t, pts).tolist():
            occupied.add(_snake_cell(s, index))
        lonely = sum(
            not any((c + dc, r + dr) in occupied
                    for dc in (-1, 0, 1) for dr in (-1, 0, 1) if dc or dr)
            for c, r in occupied
        ) if len(occupied) >= 2 else 0
        assert _isolated_count(t.s, occupied_cells(t, pts)) == lonely

    def test_diagonal_neighbour_blocks(self):
        t = Tiling(5)
        # snake 1 is (col 0, row 0); the odd column runs bottom-up, so
        # snake 9 is (col 1, row 1): they touch at a corner only
        pts = centers_of_cells(t, [1, 9])
        assert _isolated_count(t.s, occupied_cells(t, pts)) == 0


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
        t = Tiling(4)
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
            # f2 is the fsum over j's tree neighbours, found edge by edge
            tree = minimum_spanning_tree(spec, pts)
            edges = zip(tree.edge_i.tolist(), tree.edge_j.tolist())
            nbrs = [b if a == j else a for a, b in edges if j in (a, b)]
            d = [pair_weight(euclidean_spec(), pts[v], pts[j]) for v in nbrs]
            assert rep.f2 == (2.0 * spec.c2) ** 2.0 * math.fsum(
                x ** 2.0 for x in d
            )

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


def _verifier_calls():
    pts = np.random.default_rng(4).random((20, 2))
    t = build_tiling(20)
    spec = euclidean_spec()
    return {
        "lower_bound_stat": lambda a: lower_bound_stat(spec, t, pts, a),
        "tiled_upper_bound": lambda a: tiled_upper_bound(spec, t, pts, a),
        "one_node_difference": lambda a: one_node_difference(spec, pts, 0, a),
        "merge_bound_check": lambda a: merge_bound_check(spec, pts[:10], pts[10:], a),
        "gap_stat_monotonicity": lambda a: gap_stat_monotonicity(t, pts, a, [0.5, 0.5]),
        "scale_check": lambda a: scale_check(spec, pts, 2.0, a),
        "translate_check": lambda a: translate_check(spec, pts, [0.1, 0.2], a),
    }


@pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("verifier", sorted(_verifier_calls()))
def test_verifiers_refuse_an_alpha_not_positive_and_finite(verifier, alpha):
    # the paper's inequalities need 0 < alpha < inf; outside it a verdict
    # either way would be read as the paper's claim failing or holding
    with pytest.raises(ValueError, match="alpha"):
        _verifier_calls()[verifier](alpha)


class TestOneCellPass:
    """Each statistic maps a point set to its cells once: the gaps,
    S_alpha and G all come from one sorted array of occupied cells."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []

        def counted(tiling, coords):
            sizes.append(len(coords))
            return cells_of(tiling, coords)

        monkeypatch.setattr("locmst.geometry.cells_of", counted)
        monkeypatch.setattr("locmst.experiments.cells_of", counted)
        return sizes

    def test_study_task(self, calls):
        _study_task(("euclidean", 300, 0, 4, (1.0, 2.0)))
        assert calls == [300]

    def test_lower_bound_stat(self, calls):
        pts = sample_binomial(200, Density.uniform(), 1).coords
        lower_bound_stat(euclidean_spec(), build_tiling(200), pts, 1.0)
        assert calls == [200]

    def test_tiled_upper_bound(self, calls):
        pts = sample_binomial(200, Density.uniform(), 2).coords
        tiled_upper_bound(euclidean_spec(), build_tiling(200), pts, 2.0)
        assert calls == [200]

    def test_gap_stat_monotonicity(self, calls):
        pts = sample_binomial(200, Density.uniform(), 3).coords
        gap_stat_monotonicity(build_tiling(200), pts, 2.0, [0.5, 0.5])
        assert calls == [201]  # the base set and the added point together

    def test_records_match_the_separate_statistics(self):
        # the study task's G and S_alpha are those of the grid statistics
        # on the sampled points
        n, seed = 500, 8
        out = _study_task(("shifted", n, 1, seed, (0.5, 2.0)))
        pts = sample_binomial(n, Density.uniform(), seed, key=(n, 1)).coords
        t = build_tiling(n)
        occ = occupied_cells(t, pts)
        assert out[3] == {a: _power_sum(_gaps(t.s, occ), a) for a in (0.5, 2.0)}
        assert out[4] == _isolated_count(t.s, occ)

    def test_study_records_respect_their_own_lower_bound(self):
        # every n = 3 instance sits in the one cell of build_tiling(3), so
        # its G must be lower_bound_stat's 0, not 1, or the record breaks
        # G/2 * (c1 * side)**alpha <= MST
        spec = euclidean_spec()
        study = run_weight_study("euclidean", (3, 4, 5, 6), 30, (1.0, 2.0),
                                 seed=0, threads=1)
        assert len(study.records) == 240
        for rec in study.records:
            n, a = rec["n"], rec["alpha"]
            t = build_tiling(n)
            bound = rec["g_alpha"] / 2 * (spec.c1 * t.cell_side) ** a
            assert bound <= rec["mst_weight"] + 1e-12, rec
            pts = sample_binomial(n, Density.uniform(), 0,
                                  key=(n, rec["replicate"])).coords
            assert rec["g_alpha"] == lower_bound_stat(spec, t, pts, a).g_count


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

    def test_in_cell_draw_pinned_and_inside(self):
        """The conditional mode's in-cell draws, pinned together with the
        stream values that follow them: the 32 acceptance uniforms each
        draw discards fix where the next draw starts."""
        cells = (
            Rect(0.0, 0.0, 1.0, 1.0),
            Rect(0.25, 0.5, 0.3, 0.75),
            Rect(1e-3, 0.9, 2e-3, 0.9 + 1e-3),
        )
        h = hashlib.sha256()
        for seed in range(3):
            rng = derive_rng(seed, 1)
            for cell in cells:
                x, y = pt = _sample_in_rect(cell, rng)
                assert pt.shape == (2,) and cell.contains(x, y)
                h.update(pt.astype("<f8").tobytes())
            h.update(rng.random(4).astype("<f8").tobytes())
        assert h.hexdigest() == (
            "40701cf93ff04fe4e376b77498669bccdb906598a5effb9acb9019d98f1164a3"
        )

    def test_in_cell_draw_takes_96_stream_values(self):
        """32 proposals and their 32 acceptance uniforms; the point is the
        first proposal scaled into the cell."""
        cell = Rect(0.25, 0.5, 0.3, 0.75)
        rng, ref = derive_rng(6, 1), derive_rng(6, 1)
        x, y = _sample_in_rect(cell, rng)
        u = ref.random(96)
        assert x == 0.25 + u[0] * (0.3 - 0.25)
        assert y == 0.5 + u[1] * (0.75 - 0.5)
        np.testing.assert_array_equal(rng.random(4), ref.random(4))

    def test_in_cell_draw_is_uniform_in_the_cell(self):
        cell = Rect(0.25, 0.5, 0.3, 0.75)
        rng = derive_rng(8)
        pts = np.array([_sample_in_rect(cell, rng) for _ in range(4000)])
        assert cell.contains(pts[:, 0], pts[:, 1]).all()
        # each coordinate is uniform on its side: mean at the middle,
        # standard error side / sqrt(12 * 4000)
        for k, (lo, hi) in enumerate(((0.25, 0.3), (0.5, 0.75))):
            se = (hi - lo) / np.sqrt(12 * 4000)
            assert abs(pts[:, k].mean() - (lo + hi) / 2) < 5 * se

    @pytest.mark.parametrize("K, level, event, floor", [
        (2, 1, -422.2991435319093, -783.2352174041731),
        (2, 2, -394.448350815687, -783.2352174041731),
        (3, 1, -1173.3992741480743, -2174.1816794772344),
    ])
    def test_event_and_floor_odds_are_pinned(self, K, level, event, floor):
        layout = hotspot_spec(K, n_levels=3).layout
        n = layout.level(level).n_level
        assert _event_log10(layout, level, n) == event
        assert prop1_floor_log10(K, 1.0, 1.0) == floor

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

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_diff_when_the_point_removes_edges(self, monkeypatch, seed):
        # x in the moat removes no edge, as the paper predicts.  At the
        # centroid of a background point and two of its tree neighbours it
        # joins all three, so the tree loses one or two edges
        trees = []

        def among_the_background(spec, coords, tree, x):
            k = np.flatnonzero(tree.edge_i >= 12)  # not a satellite's edge
            j = tree.edge_j[k[len(k) // 2]]
            near = np.r_[tree.edge_i[tree.edge_j == j], tree.edge_j[tree.edge_i == j]]
            x = coords[np.r_[j, near[:2]]].mean(axis=0)
            trees[:] = tree, mst_with_point(spec, coords, tree, x)
            return trees[1]

        monkeypatch.setattr("locmst.experiments.mst_with_point",
                            among_the_background)
        rep = good_square_probe(5, n=300, alpha=1.0, seed=seed)
        old, new = (t.edge_set() for t in trees)
        assert rep.removed_edges == tuple(sorted(old - new))
        assert rep.added_edges == tuple(sorted(new - old))
        assert len(rep.added_edges) == len(rep.removed_edges) + 1 >= 2
        assert not rep.edge_ok

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            good_square_probe(4, n=500)
        with pytest.raises(ValueError):
            good_square_probe(5, n=50)
        # an empty alpha list would check no increment and report ok
        with pytest.raises(ValueError, match="need at least one alpha"):
            good_square_probe(5, n=200, alpha=())
        with pytest.raises(ValueError, match="positive and finite"):
            good_square_probe(5, n=200, alpha=(1.0, math.inf))


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

    @needs_fork
    def test_process_pool_matches_the_serial_study(self, forks):
        # sizes on both sides of the Kruskal / band-solver switch at n = 160;
        # the 16 tasks are claimed one at a time, the child from the largest
        # end and this process from the smallest, so both take some and
        # their outcomes come back out of task order
        kwargs = dict(n_list=(48, 64, 200, 300), reps=4, alphas=(1.0, 2.0),
                      seed=4)
        serial = run_weight_study("hotspot", **kwargs)
        assert forks == []
        method = multiprocessing.get_start_method(allow_none=True)
        pooled = run_weight_study("hotspot", threads=2, **kwargs)
        assert len(forks) == 1
        assert_no_child_left()
        # no start method is read or fixed for the process
        assert multiprocessing.get_start_method(allow_none=True) == method
        assert_same_study(pooled, serial)

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
        "n_list, reps, alphas, threads",
        [((32,), 1, (1.0,), None), ((64, 64, 96, 128), 3, (1.0,), None),
         ((32, 48), 3, (0.0,), None), ((32, 48), 3, (1.0, -1.0), None),
         ((32, 48), 3, (float("nan"),), None),
         ((32, 48), 3, (1.0, 2.0, 1.0), None),
         # n = 2 has no tiling; the n = 2000 instances must not be solved first
         ((2000, 2), 2, (1.0,), None), ((32, 0), 2, (1.0,), None),
         ((32, 48), 3, (1.0,), 0), ((32, 48), 3, (1.0,), -5),
         ((32, 48), 3, (1.0,), 2.0), ((32, 48), 3, (1.0, math.inf), None),
         ((32, 48), 3, (1.0,), True)],
    )
    def test_study_validation(self, monkeypatch, n_list, reps, alphas, threads):
        # every refusal comes before the first point is drawn
        def no_sampling(*args, **kwargs):
            pytest.fail("sampled a study that should have been refused")

        monkeypatch.setattr("locmst.experiments.sample_binomial", no_sampling)
        with pytest.raises(ValueError):
            run_weight_study("euclidean", n_list, reps=reps, alphas=alphas,
                             threads=threads)

    @pytest.mark.parametrize("n_list, threads",
                             [((64, 128), 1), ((16384, 20000), 2)])
    def test_study_validation_refuses_an_unknown_kind(self, monkeypatch,
                                                      n_list, threads):
        # refused before the first point is drawn and before any child is
        # forked; the second grid is above _POOL_MIN_POINTS
        def no_sampling(*args, **kwargs):
            pytest.fail("sampled a study that should have been refused")

        monkeypatch.setattr("locmst.experiments.sample_binomial", no_sampling)
        monkeypatch.setattr("locmst.experiments.os.fork", no_fork)
        with pytest.raises(ValueError, match="unknown weight kind 'bogus'"):
            run_weight_study("bogus", n_list, reps=2, alphas=(1.0,),
                             threads=threads)

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


@needs_fork
class TestStudyWorkers:
    N_LIST = (48, 150, 200, 300)
    # above the threshold, with sizes on both sides of the Kruskal /
    # band-solver switch at n = 160
    KWARGS = dict(n_list=N_LIST, reps=-(-_POOL_MIN_POINTS // sum(N_LIST)),
                  alphas=(1.0, 2.0), seed=6)

    @pytest.fixture
    def recorder(self, monkeypatch):
        """Stands in for _fork_map and forks nothing: records the process
        count and the sizes in claiming order, and runs the tasks here."""
        calls = []

        def recording_map(fn, tasks, workers):
            calls.append((workers, [task[1] for task in tasks]))
            return [fn(task) for task in tasks]

        monkeypatch.setattr("locmst.experiments._fork_map", recording_map)
        return calls

    @pytest.fixture
    def two_cores(self, monkeypatch):
        """Two usable cores, whatever this machine has."""
        monkeypatch.setattr("locmst.experiments.os.sched_getaffinity",
                            lambda pid: {0, 1})

    @pytest.fixture(scope="class")
    def serial(self):
        return {kind: run_weight_study(kind, threads=1, **self.KWARGS)
                for kind in ("euclidean", "shifted", "hotspot")}

    @pytest.mark.parametrize("kind", ["euclidean", "shifted", "hotspot"])
    def test_automatic_pool_matches_the_serial_study(self, two_cores, forks,
                                                     serial, kind):
        # one forked child and this process
        auto = run_weight_study(kind, **self.KWARGS)
        assert len(forks) == 1
        assert_no_child_left()
        assert_same_study(auto, serial[kind])

    def test_largest_instances_go_out_first(self, recorder, two_cores):
        study = run_weight_study("euclidean", (24, 64, 32), 3, (1.0,),
                                 threads=2)
        assert recorder == [(2, [64] * 3 + [32] * 3 + [24] * 3)]
        # folded in task order all the same
        ns = [(r["n"], r["replicate"]) for r in study.records]
        assert ns == [(n, rep) for n in (24, 64, 32) for rep in range(3)]
        assert_same_study(
            study, run_weight_study("euclidean", (24, 64, 32), 3, (1.0,),
                                    threads=1))

    def test_pool_is_capped_at_the_task_count(self, recorder, two_cores,
                                              monkeypatch):
        run_weight_study("euclidean", (16, 24), 2, (1.0,), threads=1000)
        monkeypatch.setattr("locmst.experiments.os.sched_getaffinity",
                            lambda pid: set(range(64)))
        run_weight_study("euclidean", (_POOL_MIN_POINTS // 2,), 2, (1.0,))
        assert [workers for workers, _ in recorder] == [4, 2]

    def test_threshold_is_where_the_pool_starts(self, recorder, two_cores):
        # exactly _POOL_MIN_POINTS points: n = 3 and one size that fills it
        n_list = (3, _POOL_MIN_POINTS // 2 - 3)
        run_weight_study("euclidean", n_list, 2, (1.0,))
        run_weight_study("euclidean", (3, n_list[1] - 1), 2, (1.0,))
        assert [workers for workers, _ in recorder] == [2, 1]

    @pytest.mark.parametrize("threads, n_list", [
        (None, (3, _POOL_MIN_POINTS // 2 - 4)),  # two points short
        (None, (64,)),  # the benchmark's warm-up study
        (1, (3, _POOL_MIN_POINTS // 2 - 3)),
    ])
    def test_small_or_serial_studies_start_no_pool(self, two_cores,
                                                   monkeypatch, threads,
                                                   n_list):
        monkeypatch.setattr("locmst.experiments.os.fork", no_fork)
        study = run_weight_study("euclidean", n_list, 2, (1.0,),
                                 threads=threads)
        assert len(study.records) == 2 * len(n_list)

    def test_automatic_path_does_not_fork_a_threaded_process(self, two_cores,
                                                             monkeypatch):
        monkeypatch.setattr("locmst.experiments.os.fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            run_weight_study("euclidean", (3, _POOL_MIN_POINTS // 2 - 3), 2,
                             (1.0,))
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_automatic_path_forks_or_stays_serial(self, two_cores, forks,
                                                  serial, method):
        # the default start method is neither read nor fixed: the study
        # forks under each, and gives the serial study's records
        before = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(method, force=True)
        try:
            for kind in serial:
                assert_same_study(run_weight_study(kind, **self.KWARGS),
                                  serial[kind])
            assert multiprocessing.get_start_method() == method
        finally:
            multiprocessing.set_start_method(before, force=True)
        assert len(forks) == 3
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError("no such instance"),
                                       MemoryError("no room for the pairs")])
    def test_a_child_exception_reaches_the_caller(self, monkeypatch,
                                                  child_first, deadline, error):
        def fail():
            raise error

        monkeypatch.setattr("locmst.experiments._study_task",
                            child_first(fail))
        fds = open_fds()
        with pytest.raises(type(error), match=f"^{error}$"):
            run_weight_study("euclidean", (32, 48), 3, (1.0,), threads=2)
        assert_no_child_left()
        assert open_fds() == fds

    def test_a_killed_child_raises_child_process_error(self, monkeypatch,
                                                       child_first, deadline):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr("locmst.experiments._study_task",
                            child_first(die))
        fds = open_fds()
        with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
            run_weight_study("euclidean", (32, 48), 3, (1.0,), threads=3)
        assert_no_child_left()
        assert open_fds() == fds

    def test_a_child_killed_holding_the_lock_cannot_hang_the_call(self):
        # a caller blocked on a lock nobody will give back ignores SIGALRM,
        # so the scenario runs in its own process under a timeout
        code = textwrap.dedent("""
            import fcntl, os, signal
            from locmst.experiments import _fork_map

            parent = os.getpid()

            def dies_holding(take, takes_lock):
                def taken(*args):
                    out = take(*args)
                    if os.getpid() != parent and takes_lock(*args):
                        os.kill(os.getpid(), signal.SIGKILL)
                    return out
                return taken

            # a child dies right after it takes the claim lock, whichever
            # call takes it: a record lock, or a read of a one-byte token
            fcntl.lockf = dies_holding(fcntl.lockf,
                                       lambda f, cmd: cmd == fcntl.LOCK_EX)
            os.read = dies_holding(os.read, lambda fd, size: True)
            try:
                _fork_map(abs, list(range(20)), 2)
            except ChildProcessError as exc:
                print(exc)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("was killed by SIGKILL\n")

    def test_an_exception_here_stops_and_reaps_the_children(self, tmp_path,
                                                            deadline):
        parent, log = os.getpid(), tmp_path / "done-by-children"

        def task(t):
            if os.getpid() == parent:
                raise KeyError(t)
            time.sleep(0.001)
            with open(log, "a") as out:
                out.write(f"{t}\n")

        fds = open_fds()
        with pytest.raises(KeyError):
            _fork_map(task, list(range(1000)), 3)
        assert_no_child_left()
        assert open_fds() == fds
        # the children stopped soon after, not at the end of the range
        done = log.read_text().split() if log.exists() else []
        assert len(done) < 100

    def test_each_task_is_claimed_once_from_its_own_end(self, tmp_path,
                                                        child_first, deadline):
        # more processes than cores; children claim from the front and this
        # process from the back, so its positions are the last ones
        parent, log = os.getpid(), tmp_path / "claimed"

        def note(t):
            with open(log, "a") as out:  # one short O_APPEND write per task
                out.write(f"{t}\n")
            return t, os.getpid()

        task = child_first(lambda: None, then=note)
        fds = open_fds()
        out = _fork_map(task, list(range(300)), 5)
        assert [t for t, _ in out] == list(range(300))
        assert sorted(map(int, log.read_text().split())) == list(range(300))
        mine = [t for t, pid in out if pid == parent]
        assert mine == list(range(300 - len(mine), 300))
        assert len(mine) < 300
        assert_no_child_left()
        assert open_fds() == fds
