"""Exact solvers, the deterministic tie rule, and structural verifiers.

The ground truth here is `exhaustive_oracle`, which enumerates every
(n-1)-subset of edges, keeps the connected ones, and minimizes
(total weight, kappa sequence) with pure-Python arithmetic.  The
Pruefer-based brute solver is validated against it, and the production
solvers against both.
"""

import contextlib
import itertools
import math
import sys
import tracemalloc
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locmst.mst import (
    DuplicatePointsError,
    InvalidCoordinatesError,
    NotASpanningTreeError,
    TooLargeForBruteForceError,
    alpha_invariance_check,
    minimum_spanning_tree,
    mst_bands,
    mst_brute_force,
    mst_kruskal,
    mst_prim_dense,
    mst_with_point,
    scale_check,
    translate_check,
    verify_path_criterion,
)
from locmst import mst as mst_module
from locmst.experiments import good_square_probe, prop1_demo
from locmst.mst import (
    _BAND_CHUNK,
    _FINISH_STRAGGLERS,
    _GRID_CELLS,
    _KRUSKAL_MAX_N,
    MstResult,
    SpecMissingPropertyError,
    _band_forest,
    _boruvka,
    _grid_neighbours,
    _kappa_order,
    _gather,
    _merges,
    _pairs,
    _power_sum,
    _reject_duplicates,
    _select,
    _straggler_rows,
)
from locmst.weights import (
    DegenerateEdgeError,
    WeightSpec,
    euclidean_spec,
    hotspot_spec,
    in_central_cells,
    pair_weight,
    row_weight_fn,
    shifted_spec,
    spec_from_kind,
)

KINDS = ("euclidean", "hotspot", "shifted")


def exhaustive_oracle(spec, coords):
    """Minimum spanning tree by brute subset enumeration.

    Ties are broken by comparing the sorted sequence of
    (weight, i, j) edge keys, matching the documented rule.
    """
    n = len(coords)
    pairs = list(itertools.combinations(range(n), 2))
    weights = {e: pair_weight(spec, coords[e[0]], coords[e[1]]) for e in pairs}

    def connected(edges):
        seen = {0}
        frontier = [0]
        adj = {}
        for i, j in edges:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        while frontier:
            u = frontier.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == n

    best = None
    for subset in itertools.combinations(pairs, n - 1):
        if not connected(subset):
            continue
        total = math.fsum(weights[e] for e in subset)
        kappa = sorted((weights[e], e[0], e[1]) for e in subset)
        key = (total, kappa)
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("kind", KINDS)
def test_brute_force_matches_exhaustive_oracle(kind):
    spec = spec_from_kind(kind)
    rng = np.random.default_rng(99)
    for n in (2, 3, 4, 5):
        for _ in range(15):
            pts = rng.random((n, 2))
            want_total, want_kappa = exhaustive_oracle(spec, pts)
            got = mst_brute_force(spec, pts)
            got_kappa = sorted(
                zip(got.base_weights.tolist(), got.edge_i.tolist(),
                    got.edge_j.tolist())
            )
            assert got.total_weight(1.0) == pytest.approx(want_total, rel=1e-12)
            assert [(i, j) for _, i, j in got_kappa] == [
                (i, j) for _, i, j in want_kappa
            ]


@pytest.mark.parametrize("kind", KINDS)
def test_three_solvers_agree(kind):
    spec = spec_from_kind(kind)
    rng = np.random.default_rng(1234)
    for n in (2, 3, 5, 7):
        for _ in range(25):
            pts = rng.random((n, 2))
            a = mst_prim_dense(spec, pts)
            b = mst_kruskal(spec, pts)
            c = mst_brute_force(spec, pts)
            assert a.edge_set() == b.edge_set() == c.edge_set()
            assert a.total_weight(1.7) == b.total_weight(1.7)
            assert b.total_weight(1.7) == c.total_weight(1.7)


def test_prim_and_kruskal_agree_at_moderate_size():
    spec = euclidean_spec()
    rng = np.random.default_rng(5)
    for _ in range(5):
        pts = rng.random((180, 2))
        a = mst_prim_dense(spec, pts)
        b = mst_kruskal(spec, pts)
        assert a.edge_set() == b.edge_set()
        assert a.total_weight(2.0) == b.total_weight(2.0)


def test_unit_square_corners():
    # four unit edges, two sqrt(2) diagonals; tie rule keeps the three
    # lexicographically smallest unit edges
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    r = minimum_spanning_tree(euclidean_spec(), pts)
    assert r.total_weight(1.0) == pytest.approx(3.0)
    assert r.total_weight(2.0) == pytest.approx(3.0)
    assert sorted(r.edge_set()) == [(0, 1), (0, 2), (1, 3)]


def test_collinear_points():
    pts = np.array([[0, 0], [1, 0], [3, 0]], dtype=float)
    r = minimum_spanning_tree(euclidean_spec(), pts)
    assert sorted(r.edge_set()) == [(0, 1), (1, 2)]
    assert r.total_weight(1.0) == pytest.approx(3.0)
    assert r.total_weight(2.0) == pytest.approx(5.0)


def test_two_points_squared_weight():
    pts = np.array([[0.0, 0.0], [0.5, 0.0]])
    r = minimum_spanning_tree(euclidean_spec(), pts)
    assert r.total_weight(2.0) == pytest.approx(0.25)


SOLVERS = (mst_prim_dense, mst_kruskal, mst_bands, mst_brute_force)


def test_trivial_sizes():
    spec = euclidean_spec()
    for solver in SOLVERS + (minimum_spanning_tree,):
        empty = solver(spec, np.empty((0, 2)))
        assert empty.n == 0 and len(empty.edge_i) == 0
        assert empty.total_weight(1.0) == 0.0
        single = solver(spec, np.array([[0.5, 0.5]]))
        assert single.n == 1 and len(single.edge_i) == 0
        assert single.max_degree == 0


def test_duplicate_points_rejected_by_every_solver():
    pts = np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2], [0.9, 0.1]])
    spec = euclidean_spec()
    for solver in SOLVERS:
        with pytest.raises(DuplicatePointsError) as err:
            solver(spec, pts)
        assert set(err.value.indices) == {0, 2}
        assert isinstance(err.value, InvalidCoordinatesError)


def full_lexsort_witness(coords):
    """The duplicate pair found by sorting every point by (x, y, index)."""
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    same = np.flatnonzero(np.all(coords[order[1:]] == coords[order[:-1]], axis=1))
    if not len(same):
        return None
    a, b = int(order[same[0]]), int(order[same[0] + 1])
    return min(a, b), max(a, b)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 200),
       copies=st.integers(0, 4), on_lattice=st.booleans())
@settings(max_examples=300)
def test_duplicate_witness_is_the_full_sort_witness(seed, n, copies, on_lattice):
    # lattice inputs share x between many points, so the check sorts those
    # rows only; the witness must be the pair a sort of all points finds
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    if on_lattice:
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1)
        pts = rng.permutation(grid.reshape(-1, 2)[:n] / side)
    else:
        pts = rng.random((n, 2))
        pts[: n // 3, 0] = rng.integers(0, side, n // 3) / side
    for _ in range(copies):
        pts[rng.integers(0, n)] = pts[rng.integers(0, n)]
    want = full_lexsort_witness(pts)
    if want is None:
        _reject_duplicates(pts)
        return
    with pytest.raises(DuplicatePointsError) as err:
        _reject_duplicates(pts)
    assert err.value.indices == want


@given(
    h=st.lists(st.sampled_from([0.5, 0.25, 1.0, 2.0 / 3.0, 7.0]), max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
@example(h=[], seed=0)
@example(h=[1.0], seed=0)
@example(h=[0.5] * 40, seed=0)  # all tied
@example(h=[0.5, 0.5, 0.25, 0.25, 1.0, 1.0, 1.0], seed=1)  # adjacent runs
def test_kappa_order_is_the_three_key_lexsort(h, seed):
    # distinct pairs, so (h, i, j) orders them totally
    rng = np.random.default_rng(seed)
    h = rng.permutation(np.asarray(h, dtype=float))
    pairs = rng.permutation(np.stack(np.triu_indices(12, k=1), 1))[: len(h)]
    i, j = pairs[:, 0], pairs[:, 1]
    np.testing.assert_array_equal(_kappa_order(i, j, h), np.lexsort((j, i, h)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize(
    "solver", SOLVERS + (minimum_spanning_tree, alpha_invariance_check)
)
@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_coordinates_raise_typed_error(kind, solver, bad):
    # NaN used to reach Prim as a bare IndexError and Kruskal as a NaN
    # edge weight; inf made Prim return the edge (-1, -1); 1e200 makes
    # squared distances overflow to inf
    for n in (5, 200):
        if solver is mst_brute_force and n > 5:
            continue
        pts = np.random.default_rng(n).random((n, 2))
        pts[n // 2, 1] = bad
        with pytest.raises(InvalidCoordinatesError, match=f"point {n // 2} "):
            solver(spec_from_kind(kind), pts)


@pytest.mark.parametrize("solver", SOLVERS)
def test_malformed_coordinate_arrays_raise_typed_error(solver):
    spec = euclidean_spec()
    for pts in (np.zeros(4), np.random.default_rng(0).random((4, 3)), [[[0.5]]]):
        with pytest.raises(InvalidCoordinatesError, match="shape"):
            solver(spec, pts)


def assert_same_tree(got, want):
    """Same edges in the same order, int64 on both sides (the pinned tree
    hashes in test_weights.py cover their bytes), and bit-identical base
    weights."""
    assert got.n == want.n
    for tree in (got, want):
        assert tree.edge_i.dtype == tree.edge_j.dtype == np.int64
    np.testing.assert_array_equal(got.edge_i, want.edge_i)
    np.testing.assert_array_equal(got.edge_j, want.edge_j)
    np.testing.assert_array_equal(got.base_weights, want.base_weights)


# Input families for the band solver: each must give Prim's tree exactly.
BAND_FAMILIES = (
    "uniform", "lattice", "collinear", "zero_area", "cell_boundaries",
    "rescaled", "far_clusters", "moat", "discount_points", "frame",
    "satellites", "gaussian_mixture", "two_lines",
)
# 48 positions on a ring around (0.5, 0.5), 1/16 apart, so pairs tie
SATELLITE_RING = 0.5 + np.array(
    [(a, b) for b in (-6, 6) for a in range(-6, 7)]
    + [(b, a) for b in (-6, 6) for a in range(-5, 6)]
) / 16


def band_instance(family: str, n: int, rng) -> np.ndarray:
    if family == "lattice":  # every lattice edge ties with many others
        side = int(np.ceil(np.sqrt(n)))
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1)
        return rng.permutation(grid.reshape(-1, 2)[:n] / side)
    if family == "collinear":
        return np.stack([rng.permutation(n) / n, np.full(n, 0.3)], axis=1)
    if family == "zero_area":  # on the diagonal, at irregular spacing
        t = np.unique(rng.random(n))
        return np.stack([t, t], axis=1)
    if family == "cell_boundaries":  # on 1/8 grid lines and the square's edge
        pts = rng.integers(0, 9, (n, 2)) / 8.0
        free = rng.random(n) < 0.5
        pts[free, 1] = rng.random(free.sum())
        return rng.permutation(np.unique(pts, axis=0))
    if family == "rescaled":
        scale = rng.choice([1e-3, 7.0, 1e4])
        shift = rng.choice([-3.0, 0.0, 1e3])
        return rng.random((n, 2)) * scale + shift
    if family == "far_clusters":
        half = n // 2
        near = rng.random((half, 2)) * 1e-3
        return np.vstack([near, 0.9 + rng.random((n - half, 2)) * 1e-3])
    if family == "gaussian_mixture":  # four clusters, sigma = 0.01
        centres = rng.random((4, 2))
        return centres[rng.integers(0, 4, n)] + 0.01 * rng.standard_normal((n, 2))
    if family == "two_lines":  # two parallel lines 0.1 apart
        return np.stack([rng.random(n), 0.45 + 0.1 * (rng.random(n) < 0.5)], 1)
    if family == "moat":  # a small cluster inside an empty square ring
        pts = rng.random((6 * n, 2))
        outside = pts[np.abs(pts - 0.5).max(axis=1) > 0.35][: n - 5]
        return np.vstack([0.5 + 0.01 * rng.random((5, 2)), outside])
    if family == "frame":  # a thin frame around an empty square, like
        # the good-square probe's background
        along, depth = rng.random(n), 0.03 * rng.random(n)
        pts = np.stack([along, np.where(rng.random(n) < 0.5, depth, 1 - depth)], 1)
        turn = rng.random(n) < 0.5
        pts[turn] = pts[turn, ::-1]
        return pts
    if family == "satellites":  # a dense cluster or a frame, and 1-32 far
        # points: one on a discount cell, the rest on SATELLITE_RING, the
        # first of them below the cluster.  The cluster is a lattice,
        # taller than wide and symmetric about x = 0.5, so that far point
        # is equally far from two cluster points.
        k = min(int(rng.integers(1, 33)), n - 1)
        cell = hotspot_spec().layout.central_cells()[0]
        ring = SATELLITE_RING[np.r_[6, rng.permutation(np.r_[:6, 7:48])]]
        far = np.vstack([[(cell.xmin + cell.xmax) / 2] * 2, ring])[:k]
        m = n - k
        if rng.random() < 0.5:
            wide = 2 * max(1, math.isqrt(m) // 4)
            col, row = np.arange(m) % wide, np.arange(m) // wide
            near = 0.5 + np.stack([col - (wide - 1) / 2,
                                   row - (-(-m // wide) - 1) / 2], 1) / 1024
        else:
            near = band_instance("frame", m, rng)
        return rng.permutation(np.vstack([near, far]))
    if family == "discount_points":  # inside and on the corners of the cells
        cells = hotspot_spec().layout.central_cells()
        pts = rng.random((n, 2))
        for k in range(min(n, 3 * len(cells))):
            c = cells[k % len(cells)]
            u = rng.random(2) if k < len(cells) else rng.integers(0, 2, 2)
            pts[k] = (c.xmin + u[0] * (c.xmax - c.xmin),
                      c.ymin + u[1] * (c.ymax - c.ymin))
        return np.unique(pts, axis=0)
    return rng.random((n, 2))


def pair_distances(pts) -> np.ndarray:
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


@contextlib.contextmanager
def watched_bands():
    """Spy on the bands of a solve and on the searches that feed them.

    Yields a mock whose ``mock_calls`` hold, in call order, the calls of
    `_band_forest` ("band"), `_grid_neighbours` ("grid") and
    `_straggler_rows` ("rows").  Each band sorts its pairs with one call of
    `_kappa_order`, which is checked to get every pair at most once: the
    half stencil and the giant and lower-index rules find each pair only
    once, so its tie runs stay short.  The edges of a solve's bands must
    come out strictly increasing in kappa, within each band and from one
    band to the next, since `mst_bands` does not sort them.  For the same reason `_sorted_result`, the oracles' sort,
    must not be reached for a tree with an edge.
    """
    calls = mock.Mock()
    sorted_result = mst_module._sorted_result
    last = []  # the kappa of the solve's last band edge so far
    sorts = []  # the band's calls of `_kappa_order`

    def each_pair_once(i, j, h):
        sorts.append(len(h))
        key = (i.astype(np.int64) << 32) | j
        assert len(np.unique(key)) == len(key), "a pair arrived twice"
        return _kappa_order(i, j, h)

    def band_in_kappa_order(*args):
        sorts.clear()
        out = _band_forest(*args)
        assert len(sorts) == 1, "a band did not sort its pairs exactly once"
        i, j, h = out[0]
        comp, n_comp = args[4], args[5]
        if n_comp == len(comp):  # a new solve, or no edge yet in this one
            last.clear()
        kappas = last + list(zip(h.tolist(), i.tolist(), j.tolist()))
        assert all(a < b for a, b in zip(kappas, kappas[1:])), "out of kappa order"
        last[:] = kappas[-1:]
        return out

    def no_tree_sort(n, *edges):
        assert n < 2, "a finished tree was sorted again"
        return sorted_result(n, *edges)

    with contextlib.ExitStack() as patches:
        for name, attr, fn in (("band", "_band_forest", band_in_kappa_order),
                               ("grid", "_grid_neighbours", _grid_neighbours),
                               ("rows", "_straggler_rows", _straggler_rows)):
            spy = mock.Mock(wraps=fn)
            calls.attach_mock(spy, name)
            patches.enter_context(mock.patch.object(mst_module, attr, spy))
        patches.enter_context(mock.patch.object(
            mst_module, "_kappa_order", each_pair_once))
        patches.enter_context(mock.patch.object(
            mst_module, "_sorted_result", no_tree_sort))
        yield calls


def band_searches(calls) -> list[str]:
    """The search that fed each band, "grid" or "rows": exactly one per
    band, and rows only in the last band, after a band that joined no two
    components, from at most _FINISH_STRAGGLERS points."""
    names = [name for name, _, _ in calls.mock_calls]
    n_comps = [c.args[5] for c in calls.band.call_args_list]
    assert names[::2] == ["band"] * len(n_comps)
    searches = names[1::2]
    assert len(searches) == len(n_comps)
    assert "rows" not in searches[:-1]
    if searches and searches[-1] == "rows":
        assert len(n_comps) >= 2 and n_comps[-1] == n_comps[-2]
        assert len(calls.rows.call_args.args[2]) <= _FINISH_STRAGGLERS
    return searches


@given(
    family=st.sampled_from(BAND_FAMILIES),
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    tiny_start=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_band_solver_equals_prim_exactly(family, kind, n, seed, tiny_start):
    spec = spec_from_kind(kind)
    pts = band_instance(family, n, np.random.default_rng(seed))
    with watched_bands() as calls, contextlib.ExitStack() as patches:
        if tiny_start:
            # a first radius below every pair distance: the first bands
            # merge nothing, so the all-points half stencil runs more than once
            d = pair_distances(pts)
            np.fill_diagonal(d, np.inf)
            patches.enter_context(mock.patch.object(
                mst_module, "_initial_radius", return_value=d.min() / 8))
        got = mst_bands(spec, pts)
    # one grid search per band, but for a last band finished from rows; so
    # grid search k is that of band k
    band_searches(calls)
    all_points = [len(c.args[3]) == len(pts) for c in calls.grid.call_args_list]
    merged = [c.args[5] < len(pts) for c in calls.band.call_args_list]
    if tiny_start and len(pts) > 1:
        # unless discount rows merge early or the radius is raised to the
        # finest grid, nothing merges before the third band (a family that
        # dedupes its points can leave a single point, and no band at all)
        finest = np.ptp(pts, axis=0).max() / _GRID_CELLS
        if d.min() / 8 > finest and not in_central_cells(spec, pts).any():
            assert all_points[:2] == [True, True]
    if family == "frame" and n >= 64:
        # after the first merges most of a thin frame lies outside the
        # largest component, so a later band searches from all points
        assert any(m and a for m, a in zip(merged, all_points))
    assert_same_tree(got, mst_prim_dense(spec, pts))


@pytest.mark.parametrize("kind", KINDS)
def test_satellites_finish_from_rows_exactly(kind):
    # far points that tie, lower-index ends on both sides, a discount
    # straggler: a third or more of these solves end in a band priced from
    # rows (fewer on hotspot weights, where the discount point's cheap row
    # keeps joining far points, so fewer bands stall)
    spec = spec_from_kind(kind)
    finished = 0
    for seed in range(12):
        pts = band_instance("satellites", 300, np.random.default_rng(seed))
        with watched_bands() as calls:
            got = mst_bands(spec, pts)
        finished += band_searches(calls)[-1] == "rows"
        assert_same_tree(got, mst_prim_dense(spec, pts))
    assert finished >= 4


def test_good_square_finishes_at_the_band_after_its_first_stall():
    with watched_bands() as calls:
        rep = good_square_probe(5, n=2000, alpha=1.0, seed=0)
    assert rep.ok
    n_comps = [c.args[5] for c in calls.band.call_args_list]
    stall = next(k for k in range(1, len(n_comps)) if n_comps[k] == n_comps[k - 1])
    assert len(n_comps) == stall + 1
    assert band_searches(calls)[-1] == "rows"
    assert [name for name, _, _ in calls.mock_calls][-1] == "rows"


@pytest.mark.parametrize("case", [*KINDS, "prop1_conditional"])
def test_a_solve_whose_every_band_joins_never_finishes_from_rows(case):
    with watched_bands() as calls:
        if case in KINDS:
            pts = np.random.default_rng(3).random((8192, 2))
            mst_bands(spec_from_kind(case), pts)
        else:
            # the probes benchmark's instance at seed 0: after the first
            # band 28 points lie outside the largest component, and the
            # second band joins them all
            prop1_demo(2, reps=1, seed=1246951205, mode="conditional")
    n_comps = [c.args[5] for c in calls.band.call_args_list]
    assert len(n_comps) >= 2
    assert all(a > b for a, b in zip(n_comps, n_comps[1:]))
    assert "rows" not in band_searches(calls)


@pytest.mark.parametrize("kind", KINDS)
def test_stalled_bands_on_far_clusters_enumerate_no_pair(kind):
    # once each cluster is one component, a band whose windows cannot
    # reach the other cluster (radius below the clusters' y gap) holds
    # only pairs inside the searcher's own component, and skips them all
    spec = spec_from_kind(kind)
    stalled = 0
    for seed in range(4):
        pts = band_instance("far_clusters", 300, np.random.default_rng(seed))
        bands = []  # [radius, components before, after, pairs enumerated]

        def band(*args):
            bands.append([args[3], args[5], None, 0])
            out = _band_forest(*args)
            bands[-1][2] = out[1]
            return out

        def grid(*args):
            for s, p in _grid_neighbours(*args):
                bands[-1][3] += len(s)
                yield s, p

        with mock.patch.object(mst_module, "_band_forest", band), \
                mock.patch.object(mst_module, "_grid_neighbours", grid):
            got = mst_bands(spec, pts)
        gap = 0.9 - pts[: len(pts) // 2, 1].max()
        for radius, before, after, pairs in bands:
            if before == after and radius < gap:
                stalled += 1
                assert pairs == 0, (seed, radius, pairs)
        assert_same_tree(got, mst_prim_dense(spec, pts))
    assert stalled >= 20


def stencil_pairs(pts, cell, search) -> list[tuple[int, int]]:
    """Every (s, p) pair `_grid_neighbours` yields, as (min, max)."""
    out = []
    for s, p in _grid_neighbours(pts, pts.min(axis=0), cell,
                                 np.asarray(search, dtype=np.int32)):
        out.extend(zip(np.minimum(s, p).tolist(), np.maximum(s, p).tolist()))
    return out


def close_pairs(pts, cell) -> set[tuple[int, int]]:
    i, j = np.nonzero(np.triu(pair_distances(pts) < cell, k=1))
    return set(zip(i.tolist(), j.tolist()))


# uniform, tied, one-row and on-the-cell-edge inputs; cells of 1/8 put the
# cell_boundaries points exactly on cell edges, and cells of 0.3 hold tens
# of points, so a chunk of 32 pairs splits them
STENCIL_FAMILIES = ("uniform", "lattice", "collinear", "cell_boundaries")
STENCIL_CELLS = (0.05, 1 / 8, 0.3)


@pytest.mark.parametrize("chunk", [_BAND_CHUNK, 32])
@pytest.mark.parametrize("family", STENCIL_FAMILIES)
def test_half_stencil_yields_each_close_pair_exactly_once(family, chunk):
    with mock.patch.object(mst_module, "_BAND_CHUNK", chunk):
        for seed in range(4):
            pts = band_instance(family, 150, np.random.default_rng(seed))
            for cell in STENCIL_CELLS:
                got = stencil_pairs(pts, cell, np.arange(len(pts)))
                assert all(a < b for a, b in got), "a point paired with itself"
                assert len(got) == len(set(got)), "a pair came out twice"
                assert close_pairs(pts, cell) <= set(got)


@pytest.mark.parametrize("chunk", [_BAND_CHUNK, 32])
@pytest.mark.parametrize("family", STENCIL_FAMILIES)
def test_subset_stencil_yields_every_close_pair_of_the_subset(family, chunk):
    with mock.patch.object(mst_module, "_BAND_CHUNK", chunk):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pts = band_instance(family, 150, rng)
            search = np.sort(rng.choice(len(pts), len(pts) // 3, replace=False))
            searched = set(search.tolist())
            for cell in STENCIL_CELLS:
                got = set(stencil_pairs(pts, cell, search))
                want = {(a, b) for a, b in close_pairs(pts, cell)
                        if a in searched or b in searched}
                assert want <= got


def strip_key_instance(case: str, rng):
    """150 points and the radii that stress the strip search's float key,
    as (pts, cells); each radius has close pairs to find."""
    if case == "near_1e149":  # a cluster whose spacing is its ulp
        ulp = np.spacing(1e149)
        pts = np.unique(1e149 + rng.integers(0, 40, (150, 2)) * ulp, axis=0)
        return rng.permutation(pts), (1.5 * ulp, 4 * ulp, 10 * ulp)
    if case == "clamped":  # a far outlier and a dense cluster, so the
        # radius is the finest mst_bands allows; the cluster, a lattice of
        # about that pitch, sits in the last strips, where the key is largest
        pitch = 1.3 / _GRID_CELLS
        lattice = np.unique(rng.integers(0, 12, (149, 2)), axis=0)
        pts = np.vstack([[-0.3, -0.3], 1 - lattice * pitch])
        finest = float(np.ptp(pts, axis=0).max()) / _GRID_CELLS
        return rng.permutation(pts), (finest, 2 * finest)
    if case == "y_gaps_at_radius":  # rows exactly one radius apart, on
        # the strip edges, y offset so that the gaps round either way
        cell = 0.1
        grid = np.unique(rng.integers(0, 8, (150, 2)), axis=0)
        pts = np.stack([grid[:, 0] * cell, 0.3 + grid[:, 1] * cell], 1)
        return rng.permutation(pts), (cell,)
    line = rng.permutation(150) / 150 + 0.01 * rng.random(150)
    # a band far thinner than the radii: a window must not reach from one
    # strip's y range into the next strip's
    flat = 0.5 + (0.002 * rng.random(150) if case == "thin_band" else np.zeros(150))
    pts = np.stack([flat, line] if case == "vertical_line" else [line, flat], 1)
    return pts, STENCIL_CELLS


STRIP_KEY_CASES = ("near_1e149", "clamped", "y_gaps_at_radius", "vertical_line",
                   "horizontal_line", "thin_band")


@pytest.mark.parametrize("chunk", [_BAND_CHUNK, 32])
@pytest.mark.parametrize("case", STRIP_KEY_CASES)
def test_both_stencils_stay_exact_on_strip_key_extremes(case, chunk):
    # the half stencil yields each close pair exactly once with s != p, and
    # the subset stencil every close pair with an end in the subset
    with mock.patch.object(mst_module, "_BAND_CHUNK", chunk):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pts, cells = strip_key_instance(case, rng)
            search = np.sort(rng.choice(len(pts), len(pts) // 3, replace=False))
            searched = set(search.tolist())
            for cell in cells:
                close = close_pairs(pts, cell)
                assert close, "no close pair to find"
                got = stencil_pairs(pts, cell, np.arange(len(pts)))
                assert all(a < b for a, b in got), "a point paired with itself"
                assert len(got) == len(set(got)), "a pair came out twice"
                assert close <= set(got)
                got = set(stencil_pairs(pts, cell, search))
                assert {(a, b) for a, b in close
                        if a in searched or b in searched} <= got


@pytest.mark.parametrize("chunk", [_BAND_CHUNK, 7])
def test_sliced_gather_and_select_equal_plain_subscripts(chunk, monkeypatch):
    # empty, all-false, all-true and masks that straddle chunk edges; the
    # pairs are int32, as the band solver stores them
    monkeypatch.setattr(mst_module, "_BAND_CHUNK", chunk)
    rng = np.random.default_rng(0)
    x = rng.random(50)
    labels = rng.integers(0, 50, 50).astype(np.int32)
    for m in (0, 1, 6, 7, 8, 15, 22, 100):
        index = rng.integers(0, 50, m).astype(np.int32)
        for src in (x, labels):
            got = _gather(src, index)
            assert got.dtype == src.dtype
            np.testing.assert_array_equal(got, src[index])
        arrays = (index, np.arange(m), rng.random(m))
        for keep in (np.zeros(m, bool), np.ones(m, bool), rng.random(m) < 0.5,
                     np.arange(m) % chunk == chunk - 1, np.arange(m) % chunk == 0):
            got = _select(keep, *arrays)
            assert len(got) == len(arrays)
            for g, a in zip(got, arrays):
                assert g.dtype == a.dtype
                np.testing.assert_array_equal(g, a[keep])


# Traced peak bytes per point of a 2^16 mst_bands solve, uniform points at
# seed 0: 156.4 (euclidean) and 205.8 (hotspot) before index arrays were
# made intp in the band solver, plus 5% headroom.  A wrapper of `_boruvka`
# keeps its arguments alive and would read about 25 bytes per point more,
# so the solve is traced as it runs.
PEAK_BYTES_PER_POINT = {"euclidean": 156.4 * 1.05, "hotspot": 205.8 * 1.05}


@pytest.mark.parametrize("kind", sorted(PEAK_BYTES_PER_POINT))
def test_band_solver_peak_memory_is_pinned(kind):
    spec = spec_from_kind(kind)
    pts = np.random.default_rng(0).random((1 << 16, 2))
    mst_bands(spec, pts[:1000])  # caches such as the hotspot layout
    tracemalloc.start()
    try:
        mst_bands(spec, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(pts) <= PEAK_BYTES_PER_POINT[kind]


def kruskal_by_rank(n_comp, a, b):
    """Kruskal over edges ranked by position: picked positions and each
    component's root, with a plain union-find."""
    parent = list(range(n_comp))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    picked = []
    for k, (u, v) in enumerate(zip(a, b)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            picked.append(k)
    return picked, [find(c) for c in range(n_comp)]


def assert_boruvka_matches_kruskal(n_comp, a, b):
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    picked, count, label = _boruvka(n_comp, a, b)
    want_picked, roots = kruskal_by_rank(n_comp, a.tolist(), b.tolist())
    assert sorted(picked.tolist()) == want_picked
    assert count == len(set(roots))
    assert label.dtype == np.int32 and sorted(set(label.tolist())) == list(range(count))
    # the same partition: labels and roots correspond one to one
    assert len(set(zip(roots, label.tolist()))) == count


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_boruvka_equals_kruskal_on_ranked_multigraphs(seed):
    rng = np.random.default_rng(seed)
    n_comp = int(rng.integers(1, 60))
    # edges touch only the first `used` components; the rest stay isolated
    used = int(rng.integers(1, n_comp + 1))
    m = int(rng.integers(0, 4 * used)) if used > 1 else 0
    a = rng.integers(0, used, m)
    b = (a + rng.integers(1, used, m)) % used if m else a
    assert_boruvka_matches_kruskal(n_comp, a, b)


def test_boruvka_small_cases():
    assert_boruvka_matches_kruskal(2, [1], [0])  # a single edge
    assert_boruvka_matches_kruskal(4, [], [])  # no edges
    assert_boruvka_matches_kruskal(1, [], [])
    assert_boruvka_matches_kruskal(5, [0, 1, 0, 3], [1, 0, 2, 0])  # parallel edges
    picked, count, label = _boruvka(3, np.array([0, 1, 0], np.int32),
                                    np.array([1, 2, 2], np.int32))
    assert picked.tolist() == [0, 1] and count == 1 and label.tolist() == [0, 0, 0]


@pytest.mark.parametrize("spec", [
    WeightSpec(kind="euclidean", c1=3.0, c2=3.0),
    WeightSpec(kind="shifted", c1=1.4, c2=1.5),
])
def test_band_solver_does_not_trust_the_declared_band(spec):
    # a band declared too high must not shrink the search below the pairs
    # that the weight function itself can make cheap
    for seed in range(4):
        pts = band_instance("moat", 300, np.random.default_rng(seed))
        assert_same_tree(mst_bands(spec, pts), mst_prim_dense(spec, pts))


@pytest.mark.parametrize("kind", KINDS)
def test_auto_solver_equals_prim_across_the_crossover(kind):
    spec = spec_from_kind(kind)
    rng = np.random.default_rng(11)
    for n in (_KRUSKAL_MAX_N, _KRUSKAL_MAX_N + 1, 1500):
        pts = rng.random((n, 2))
        assert_same_tree(minimum_spanning_tree(spec, pts), mst_prim_dense(spec, pts))


def test_pair_table_views_are_read_only():
    for n in (2, 3, 40, _KRUSKAL_MAX_N):
        ii, jj = _pairs(n)
        assert sorted(zip(ii.tolist(), jj.tolist())) == sorted(
            zip(*(a.tolist() for a in np.triu_indices(n, k=1)))
        )
        for a in (ii, jj):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
    ii, jj = _pairs(_KRUSKAL_MAX_N + 1)  # built afresh, not from the table
    assert len(ii) == (_KRUSKAL_MAX_N + 1) * _KRUSKAL_MAX_N // 2
    assert ii.flags.writeable and jj.flags.writeable


@pytest.mark.parametrize("family", ("uniform", "lattice"))
def test_pair_table_gives_the_trees_of_the_row_major_pairs(family):
    # the enumeration order of the pairs cannot move the kappa-unique tree:
    # Kruskal picks Prim's edges from the table as from np.triu_indices,
    # and the invariance check holds on both, lattice ties included
    rng = np.random.default_rng(7)
    # every size with one kind each, and the whole table with every kind
    cases = [(n, KINDS[n % 3]) for n in range(2, _KRUSKAL_MAX_N)]
    for n, kind in cases + [(_KRUSKAL_MAX_N, kind) for kind in KINDS]:
        spec = spec_from_kind(kind)
        pts = band_instance(family, n, rng)
        want = mst_prim_dense(spec, pts)
        for pairs in (_pairs, lambda n: np.triu_indices(n, k=1)):
            with mock.patch.object(mst_module, "_pairs", pairs):
                assert_same_tree(mst_kruskal(spec, pts), want)
                assert alpha_invariance_check(spec, pts), (family, n, kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", BAND_FAMILIES)
@given(n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1),
       x_at=st.sampled_from(("drawn", "far", "discount")))
@example(n=0, seed=0, x_at="drawn")
@example(n=_KRUSKAL_MAX_N, seed=0, x_at="drawn")  # a Kruskal tree updated to a bands tree
# the star cut: a tree with no edge and with one; every star pair above
# the tree's largest weight, so only the cheapest is kept; on the 4 x 4
# dyadic lattice, star pairs that tie the largest weight exactly; x on a
# discount cell, whose star pairs are cheap
@example(n=1, seed=0, x_at="drawn")
@example(n=2, seed=0, x_at="drawn")
@example(n=200, seed=0, x_at="far")
@example(n=15, seed=0, x_at="drawn")
@example(n=200, seed=0, x_at="discount")
@settings(max_examples=15, deadline=None)
def test_adding_a_point_equals_a_fresh_solve(family, kind, n, seed, x_at):
    # x is drawn with the other points, so on a lattice it is a lattice
    # point too, and its pairs tie with each other and with tree edges
    spec = spec_from_kind(kind)
    pts = band_instance(family, n + 1, np.random.default_rng(seed))
    if x_at == "far":
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pts[-1] = hi + 10 * (float((hi - lo).max()) + 1)
    elif x_at == "discount":
        cell = hotspot_spec().layout.central_cells()[0]
        pts[-1] = (cell.xmin + 0.3137 * (cell.xmax - cell.xmin),
                   cell.ymin + 0.6829 * (cell.ymax - cell.ymin))
    coords, x = pts[:-1], pts[-1]
    with watched_bands():  # neither path sorts its finished tree
        got = mst_with_point(spec, coords, minimum_spanning_tree(spec, coords), x)
        want = minimum_spanning_tree(spec, pts)
    assert_same_tree(got, want)


def test_the_probe_point_joins_through_its_satellites_only():
    # every other star pair of the probe's x lies above the tree's largest
    # weight, so Boruvka gets the old tree and the twelve satellites' pairs
    sizes = []
    with_point, boruvka = mst_module.mst_with_point, mst_module._boruvka

    def spy(n_comp, a, b):
        sizes.append((n_comp, len(a)))
        return boruvka(n_comp, a, b)

    def watched(spec, coords, tree, x):
        with mock.patch.object(mst_module, "_boruvka", spy):
            return with_point(spec, coords, tree, x)

    with mock.patch("locmst.experiments.mst_with_point", watched):
        rep = good_square_probe(5, n=2000)
    assert rep.ok
    n = rep.new_vertex  # the old points
    assert sizes and all(c == n + 1 and m <= n - 1 + 12 for c, m in sizes)


@pytest.mark.parametrize("kind", KINDS)
def test_adding_a_point_rejects_what_a_solve_rejects(kind):
    spec = spec_from_kind(kind)
    coords = np.random.default_rng(3).random((200, 2))
    tree = minimum_spanning_tree(spec, coords)
    with pytest.raises(DuplicatePointsError) as err:
        mst_with_point(spec, coords, tree, coords[17])
    assert err.value.indices == (17, 200)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidCoordinatesError, match="point 200 "):
            mst_with_point(spec, coords, tree, [0.5, bad])
    with pytest.raises(ValueError, match="tree of 200 points"):
        mst_with_point(spec, coords[:-1], tree, [0.5, 0.5])


@pytest.mark.parametrize("kind", KINDS)
def test_total_weight_equals_the_elementwise_sum_exactly(kind):
    # Python's pow per edge; np.power can round differently in its SIMD
    # loops, which would break byte-identical study records
    rng = np.random.default_rng(4)
    for n in (2, 50, 1000):
        r = minimum_spanning_tree(spec_from_kind(kind), rng.random((n, 2)))
        for alpha in (0.5, 0.7, 1, 2, 3, 1.0, 2.0, 3.0):
            loop = math.fsum(float(w) ** alpha for w in r.base_weights)
            assert r.total_weight(alpha) == loop


def test_alpha_one_scores_skip_pow_bit_for_bit():
    # pow(v, 1.0) == v for every positive float, subnormals and the largest
    # included, so the alpha = 1 score is the plain fsum of the weights
    rng = np.random.default_rng(0)
    bits = rng.integers(1, 0x7FF0000000000000, 1 << 20, dtype=np.int64)
    values = (bits.view(float).tolist()
              + [math.ldexp(1.0, e) for e in range(-1074, 1024)]
              + [k * 5e-324 for k in range(1, 4097)]
              + [np.nextafter(1.0, 0.0), sys.float_info.max])
    assert [pow(v, 1.0) for v in values] == values
    # sums that do not overflow: everything below 2**1000, then the top
    # values in pairs
    low = [v for v in values if v < 2.0**1000]
    for part in [low, low[::7], [5e-324] * 3] + [values[k:k + 2] for k in range(20)]:
        assert _power_sum(part, 1.0) == math.fsum(map(pow, part, repeat(1.0)))
        assert _power_sum(part, 1) == _power_sum(part, 1.0)


TINY_SOLVERS = SOLVERS[:3] + (minimum_spanning_tree,)


@pytest.mark.parametrize("side", [3e-160, 3e-161])
@pytest.mark.parametrize("kind", KINDS)
def test_weights_that_underflow_to_zero_raise_from_every_solver(kind, side):
    # distinct points closer than about 1e-162 in x and y: dx*dx + dy*dy
    # underflows, h = 0, and pair_weight refuses the pair; every solver
    # refuses the tree it would build on such a pair
    spec = spec_from_kind(kind)
    pts = np.random.default_rng(0).random((300, 2)) * side
    for solver in TINY_SOLVERS:
        with pytest.raises(DegenerateEdgeError, match="underflows"):
            solver(spec, pts)
    with pytest.raises(DegenerateEdgeError):  # the pair named at either side
        pair_weight(spec, pts[12], pts[247])
    # eight points, two of them 1e-163 apart
    few = np.vstack([[0.0, 0.0], [1e-163, 0.0], 1e-150 * (1 + np.arange(12).reshape(6, 2))])
    with pytest.raises(DegenerateEdgeError):
        mst_brute_force(spec, few)
    # a new point 1e-163 from an old one
    coords = pts * 1e10
    tree = minimum_spanning_tree(spec, coords)
    with pytest.raises(DegenerateEdgeError):
        mst_with_point(spec, coords, tree, coords[5] + [1e-163, 0.0])


def test_brute_force_size_cap():
    pts = np.random.default_rng(0).random((9, 2))
    with pytest.raises(TooLargeForBruteForceError):
        mst_brute_force(euclidean_spec(), pts)


def test_result_is_kappa_sorted_and_degrees_consistent():
    rng = np.random.default_rng(8)
    pts = rng.random((40, 2))
    r = minimum_spanning_tree(euclidean_spec(), pts)
    kappas = list(zip(r.base_weights.tolist(), r.edge_i.tolist(),
                      r.edge_j.tolist()))
    assert kappas == sorted(kappas)
    assert (r.edge_i < r.edge_j).all()
    assert r.degrees.sum() == 2 * (40 - 1)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_path_criterion_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % 3]
    spec = spec_from_kind(kind)
    pts = rng.random((rng.integers(2, 16), 2))
    r = minimum_spanning_tree(spec, pts)
    ok, witness = verify_path_criterion(spec, pts, r)
    assert ok, f"path criterion violated at {witness}"


def test_path_criterion_rejects_a_worse_tree():
    # swap the MST for a deliberately bad star rooted at the farthest point
    pts = np.array([[0, 0], [0.1, 0], [0.2, 0], [1, 1]], dtype=float)
    spec = euclidean_spec()
    good = minimum_spanning_tree(spec, pts)
    from locmst.mst import MstResult

    star_edges = [(3, 0), (3, 1), (3, 2)]
    w = np.array([pair_weight(spec, pts[a], pts[b]) for a, b in star_edges])
    bad = MstResult(
        n=4,
        edge_i=np.array([min(a, b) for a, b in star_edges]),
        edge_j=np.array([max(a, b) for a, b in star_edges]),
        base_weights=w,
    )
    assert bad.total_weight(1.0) > good.total_weight(1.0)
    ok, witness = verify_path_criterion(spec, pts, bad)
    assert not ok and witness is not None


def test_path_criterion_prices_the_tree_edges():
    # the star at point 3 is the wrong tree, but with its weights under-
    # reported as 1e-3 every non-tree pair would look dearer than its path
    pts = np.array([[0, 0], [0.1, 0], [0.2, 0], [1, 1]], dtype=float)
    star = MstResult(n=4, edge_i=np.array([0, 1, 2]), edge_j=np.array([3, 3, 3]),
                     base_weights=np.full(3, 1e-3))
    assert verify_path_criterion(euclidean_spec(), pts, star) == (False, (0, 3))


@pytest.mark.parametrize("kind", KINDS)
def test_path_criterion_prices_one_ulp_off(kind):
    # the solvers' weights are bit-identical to h, so a single edge's
    # weight nudged by one ulp is already the witness
    spec = spec_from_kind(kind)
    pts = np.random.default_rng(7).random((12, 2))
    tree = minimum_spanning_tree(spec, pts)
    w = tree.base_weights.copy()
    w[5] = np.nextafter(w[5], np.inf)
    off = MstResult(n=12, edge_i=tree.edge_i, edge_j=tree.edge_j, base_weights=w)
    witness = (int(tree.edge_i[5]), int(tree.edge_j[5]))
    assert verify_path_criterion(spec, pts, off) == (False, witness)


@pytest.mark.parametrize("kind", KINDS)
def test_path_criterion_accepts_either_edge_orientation(kind):
    # the minimum tree written as (j, i) pairs is still the minimum tree
    spec = spec_from_kind(kind)
    pts = np.random.default_rng(1).random((8, 2))
    tree = minimum_spanning_tree(spec, pts)
    swapped = MstResult(n=8, edge_i=tree.edge_j, edge_j=tree.edge_i,
                        base_weights=tree.base_weights)
    assert verify_path_criterion(spec, pts, tree) == (True, None)
    assert verify_path_criterion(spec, pts, swapped) == (True, None)


@pytest.mark.parametrize("kind", KINDS)
def test_path_criterion_rejects_coincident_points(kind):
    # the check validates its input as the solvers do, so the coincident
    # non-tree pair (0, 3) is named, not priced
    spec = spec_from_kind(kind)
    pts = np.array([[0.1, 0.1], [0.4, 0.1], [0.4, 0.5], [0.9, 0.9]])
    tree = minimum_spanning_tree(spec, pts)
    pts[3] = pts[0]
    with pytest.raises(DuplicatePointsError) as err:
        verify_path_criterion(spec, pts, tree)
    assert err.value.indices == (0, 3)


def path_criterion_by_tree_walk(spec, coords, result):
    """The path criterion checked literally, the oracle for the verifier.

    Prices the tree's edges as the verifier does, then walks the tree
    from every root, recording the largest kappa on the path to each
    vertex, and returns the first non-tree pair (root, j), root < j,
    whose kappa is not above it: O(n^2) Python steps.  The edges must
    form a spanning tree.
    """
    n = len(coords)
    row = row_weight_fn(spec, coords)
    ei, ej = result.edge_i.tolist(), result.edge_j.tolist()
    weights = row(result.edge_i, result.edge_j).tolist()
    for a, b, w, recorded in zip(ei, ej, weights, result.base_weights.tolist()):
        if w != recorded:
            return False, (a, b)
    adj = [[] for _ in range(n)]
    for k, (a, b) in enumerate(zip(ei, ej)):
        adj[a].append((b, k))
        adj[b].append((a, k))
    tree_edges = {(min(a, b), max(a, b)) for a, b in zip(ei, ej)}
    for root in range(n):
        max_kappa = [None] * n
        seen = [False] * n
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v, k in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    edge = (weights[k], min(u, v), max(u, v))
                    prev = max_kappa[u]
                    max_kappa[v] = edge if prev is None or edge > prev else prev
                    stack.append(v)
        h = row(root).tolist()
        for j in range(root + 1, n):
            if (root, j) not in tree_edges and not max_kappa[j] < (h[j], root, j):
                return False, (root, j)
    return True, None


def side_of_tree_edge(n, ei, ej, k):
    """Mask of the points that tree edge k's end ei[k] still reaches once
    the edge is removed."""
    adj = [[] for _ in range(n)]
    for m, (a, b) in enumerate(zip(ei.tolist(), ej.tolist())):
        if m != k:
            adj[a].append(b)
            adj[b].append(a)
    side = np.zeros(n, dtype=bool)
    stack = [int(ei[k])]
    while stack:
        u = stack.pop()
        if not side[u]:
            side[u] = True
            stack.extend(adj[u])
    return side


def swap_tree_edge(n, ei, ej, k, rng):
    """Edge arrays with tree edge k replaced by another pair across the
    cut that removing it leaves: still a spanning tree, but a different
    one, so not the unique minimum when (ei, ej) was."""
    side = side_of_tree_edge(n, ei, ej, k)
    here, there = np.flatnonzero(side), np.flatnonzero(~side)
    while True:  # n >= 3, so one side holds another point
        u, v = int(rng.choice(here)), int(rng.choice(there))
        if (u, v) != (ei[k], ej[k]):
            break
    ei, ej = ei.copy(), ej.copy()
    ei[k], ej[k] = u, v
    return ei, ej, side


def random_spanning_tree(n, rng):
    """Edge arrays of a random tree: in a random order, each point after
    the first hangs from a random earlier one."""
    perm = rng.permutation(n)
    return perm[1:], perm[rng.integers(0, np.arange(1, n))]


@given(
    family=st.sampled_from(("uniform", "lattice", "collinear")),
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 60),
    tree=st.sampled_from(("minimum", "swapped", "random")),
    misprice=st.booleans(),
    chunk=st.sampled_from([_BAND_CHUNK, 7]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_path_criterion_equals_the_tree_walk(family, kind, n, tree, misprice,
                                             chunk, seed):
    spec = spec_from_kind(kind)
    rng = np.random.default_rng(seed)
    pts = band_instance(family, n, rng)
    n = len(pts)
    minimum = minimum_spanning_tree(spec, pts)
    ei, ej = minimum.edge_i, minimum.edge_j
    if tree == "swapped" and n > 2:
        ei, ej, _ = swap_tree_edge(n, ei, ej, int(rng.integers(n - 1)), rng)
    elif tree == "random":
        ei, ej = random_spanning_tree(n, rng)
    # either orientation and any edge order
    flip = rng.random(n - 1) < 0.5
    ei, ej = np.where(flip, ej, ei), np.where(flip, ei, ej)
    order = rng.permutation(n - 1)
    ei, ej = ei[order], ej[order]
    w = row_weight_fn(spec, pts)(ei, ej)
    if misprice:
        k = int(rng.integers(n - 1))
        w[k] = np.nextafter(w[k], np.inf)
    result = MstResult(n=n, edge_i=ei, edge_j=ej, base_weights=w)
    # blocks of 7 pairs split the larger merges into many chunks
    with mock.patch.object(mst_module, "_BAND_CHUNK", chunk):
        got = verify_path_criterion(spec, pts, result)
    assert got == path_criterion_by_tree_walk(spec, pts, result)
    if not misprice and result.edge_set() == minimum.edge_set():
        assert got == (True, None)
    elif misprice:
        assert got == (False, (int(ei[k]), int(ej[k])))


@pytest.mark.parametrize("kind", KINDS)
def test_path_criterion_certifies_large_band_trees(kind):
    # far past the few hundred points the tree walk can check
    spec = spec_from_kind(kind)
    rng = np.random.default_rng(2000)
    pts = rng.random((2000, 2))
    tree = mst_bands(spec, pts)
    assert verify_path_criterion(spec, pts, tree) == (True, None)
    # one tree edge swapped for a non-tree pair across its cut: the removed
    # edge violates the criterion, so the first witness is no later, and
    # every violating pair's tree path runs through the new edge
    k = len(tree.edge_i) // 2
    ei, ej, side = swap_tree_edge(2000, tree.edge_i, tree.edge_j, k, rng)
    swapped = MstResult(n=2000, edge_i=ei, edge_j=ej,
                        base_weights=row_weight_fn(spec, pts)(ei, ej))
    ok, witness = verify_path_criterion(spec, pts, swapped)
    assert not ok
    assert witness <= (int(tree.edge_i[k]), int(tree.edge_j[k]))
    assert side[witness[0]] != side[witness[1]]
    assert witness not in swapped.edge_set()


VERIFIERS = (verify_path_criterion,)


def edges_as_tree(edges, n):
    """An MstResult over the given (i, j) edges; the check never reads
    the weights of an edge set that is not a spanning tree."""
    i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return MstResult(n=n, edge_i=i, edge_j=j, base_weights=np.ones(len(i)))


NOT_SPANNING = {
    # 5 edges on 6 points with the cycle 0-1-2; point 5 is left out
    "cycle": [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
    "too_few": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "too_many": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
    "out_of_range": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6)],
    "negative": [(0, 1), (1, 2), (2, 3), (3, 4), (-1, 4)],
    "self_loop": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 4)],
    "repeated": [(0, 1), (1, 2), (2, 3), (3, 4), (3, 4)],
}


@pytest.mark.parametrize("case", sorted(NOT_SPANNING))
@pytest.mark.parametrize("verify", VERIFIERS)
def test_verifiers_reject_an_edge_set_that_is_not_a_spanning_tree(verify, case):
    pts = np.random.default_rng(3).random((6, 2))
    with pytest.raises(NotASpanningTreeError):
        verify(euclidean_spec(), pts, edges_as_tree(NOT_SPANNING[case], 6))


@pytest.mark.parametrize("verify", VERIFIERS)
def test_verifiers_reject_a_weight_count_that_is_not_the_edge_count(verify):
    spec = euclidean_spec()
    pts = np.random.default_rng(3).random((6, 2))
    tree = minimum_spanning_tree(spec, pts)
    short = MstResult(n=6, edge_i=tree.edge_i, edge_j=tree.edge_j,
                      base_weights=tree.base_weights[:-1])
    with pytest.raises(NotASpanningTreeError):
        verify(spec, pts, short)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
@pytest.mark.parametrize("verify", VERIFIERS)
def test_verifiers_reject_bad_coordinates(verify, bad):
    spec = euclidean_spec()
    pts = np.random.default_rng(5).random((6, 2))
    tree = minimum_spanning_tree(spec, pts)
    pts[2, 1] = bad
    with pytest.raises(InvalidCoordinatesError, match="point 2 "):
        verify(spec, pts, tree)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=150)
def test_euclidean_degree_cap(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((rng.integers(2, 60), 2))
    r = minimum_spanning_tree(euclidean_spec(), pts)
    assert r.max_degree <= 6


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_alpha_invariance_small(seed):
    rng = np.random.default_rng(seed)
    spec = spec_from_kind(KINDS[seed % 3])
    pts = rng.random((20, 2))
    assert alpha_invariance_check(spec, pts, (0.5, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("n", [27, 29, 30])
@pytest.mark.parametrize("kind", KINDS)
def test_alpha_invariance_holds_on_lattice_ties(kind, n):
    # h**alpha rounds lattice weights one ulp apart into a tie, which (i, j)
    # breaks the other way; the tree that Kruskal then picks is another
    # minimum tree of h**alpha, not a moved one.  The check sees that from
    # the sorted weights alone and runs no union loop
    grid = np.stack(np.meshgrid(np.arange(6), np.arange(6)), -1).reshape(-1, 2) / 6
    pts = grid[np.random.default_rng(n).permutation(36)[:n]]
    with mock.patch.object(mst_module, "_merges", wraps=_merges) as merges:
        assert alpha_invariance_check(spec_from_kind(kind), pts)
    assert merges.call_count == 0


class NonMonotone(float):
    """An alpha > 0 whose power h ** alpha is cos(40 h), not increasing."""

    __array_ufunc__ = None  # so that ndarray ** alpha calls __rpow__

    def __rpow__(self, h):
        return np.cos(40.0 * h)


def test_alpha_invariance_catches_a_moved_tree():
    # every alpha is checked, so one non-monotone alpha anywhere fails
    pts = np.random.default_rng(3).random((30, 2))
    for kind in KINDS:
        spec = spec_from_kind(kind)
        assert not alpha_invariance_check(spec, pts, (NonMonotone(1.0),))
        assert not alpha_invariance_check(spec, pts, (1.0, NonMonotone(1.0), 2.0))
        assert not alpha_invariance_check(spec, pts, (1.0, 2.0, NonMonotone(1.0)))


def two_kruskal_invariance_oracle(spec, coords, alphas) -> bool:
    """The invariance check by building trees.

    Kruskal runs over the kappa order of h and, for each alpha whose kappa
    order of w = h**alpha differs, over that order too.  Both trees are
    then minimum trees of w only if their sorted w agree, since every
    minimum tree of w has the same sorted weights.
    """
    n = len(coords)
    if n < 2:
        return True
    ii, jj = _pairs(n)
    base = row_weight_fn(spec, coords)(ii, jj)
    order = _kappa_order(ii, jj, base)

    def kruskal(order):
        return [k for k, _, _ in _merges(n, ii, jj, order)]

    tree = None
    for alpha in alphas:
        w = base**alpha
        moved = _kappa_order(ii, jj, w)
        if np.array_equal(moved, order):
            continue
        if tree is None:
            tree = kruskal(order)
        if not np.array_equal(np.sort(w[tree]), np.sort(w[kruskal(moved)])):
            return False
    return True


def invariance_instance(family: str, n: int, rng) -> np.ndarray:
    if family == "spaced_line":  # equally spaced on a slanted line, so
        # pair weights tie or lie an ulp apart
        t = rng.permutation(n) / n
        return np.stack([t, 0.5 * t + 0.2], axis=1)
    return band_instance(family, n, rng)


@given(
    family=st.sampled_from(BAND_FAMILIES + ("spaced_line",)),
    kind=st.sampled_from(KINDS),
    n=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
    alphas=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
    bend=st.none() | st.integers(0, 4),
)
@example(family="lattice", kind="euclidean", n=_KRUSKAL_MAX_N + 1, seed=0,
         alphas=[0.5, 1.0, 2.0, 3.0], bend=None)
@settings(max_examples=200, deadline=None)
def test_alpha_invariance_gives_the_two_kruskal_verdict(
    family, kind, n, seed, alphas, bend
):
    # n crosses _KRUSKAL_MAX_N, where the pairs stop coming from the table
    spec = spec_from_kind(kind)
    pts = invariance_instance(family, n, np.random.default_rng(seed))
    if bend is not None:
        alphas.insert(bend % (len(alphas) + 1), NonMonotone(1.0))
    got = alpha_invariance_check(spec, pts, alphas)
    want = two_kruskal_invariance_oracle(spec, pts, alphas)
    if bend is None:
        assert got == want
    else:  # a sorted w that is nondecreasing makes every minimum tree agree
        assert want or not got


@pytest.mark.parametrize(
    "alphas", [(), (0.0,), (-1.0, 1.0), (1.0, math.nan), (2.0, math.inf)])
def test_alpha_invariance_refuses_alpha_not_positive(alphas):
    pts = np.random.default_rng(0).random((10, 2))
    with pytest.raises(ValueError, match="alpha"):
        alpha_invariance_check(euclidean_spec(), pts, alphas)


def test_alpha_invariance_holds_one_weight_per_pair():
    # 4.5 M pairs: their weights and one power of them take 72 MB, so an
    # index array over the pairs (36 MB or more) would break the bound
    pts = np.random.default_rng(0).random((3000, 2))
    tracemalloc.start()
    try:
        assert alpha_invariance_check(euclidean_spec(), pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


class TestScaleTranslate:
    def test_euclidean_scale_identity(self):
        rng = np.random.default_rng(21)
        pts = rng.random((30, 2))
        spec = euclidean_spec()
        for a, alpha in [(0.5, 1.0), (2.0, 2.0), (3.7, 0.5)]:
            lhs, rhs, same = scale_check(spec, pts, a, alpha)
            assert same
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shifted_scale_identity(self):
        # the shift term is homogeneous about the origin, so scaling
        # still multiplies every weight by the same factor
        rng = np.random.default_rng(22)
        pts = rng.random((25, 2))
        lhs, rhs, same = scale_check(shifted_spec(), pts, 1.9, 2.0)
        assert same and lhs == pytest.approx(rhs, rel=1e-12)

    def test_hotspot_not_homogeneous(self):
        pts = np.random.default_rng(23).random((10, 2))
        with pytest.raises(SpecMissingPropertyError):
            scale_check(hotspot_spec(), pts, 2.0, 1.0)

    def test_euclidean_translation_is_exact(self):
        pts = np.random.default_rng(24).random((20, 2))
        lhs, rhs, holds = translate_check(euclidean_spec(), pts, (0.3, -0.2), 1.0)
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shifted_translation_bound(self):
        rng = np.random.default_rng(25)
        for trial in range(50):
            pts = rng.random((15, 2))
            shift = rng.random(2) - 0.5
            lhs, rhs, holds = translate_check(shifted_spec(), pts, shift, 1.0)
            assert holds, f"trial {trial}: {lhs} > {rhs}"

    def test_hotspot_translation_unsupported(self):
        pts = np.random.default_rng(26).random((10, 2))
        with pytest.raises(SpecMissingPropertyError):
            translate_check(hotspot_spec(), pts, (0.1, 0.1), 1.0)
