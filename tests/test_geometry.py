"""Tiling construction, snake order, and cell lookup.

The snake-index oracle below rebuilds the serpentine walk step by step
(go down the first column, up the second, and so on), independently of
the closed-form index arithmetic in the library.  The cell oracle applies
the shared-side rule literally, one point at a time: it lists every cell
whose closed square holds the point and keeps the largest snake index.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locmst.geometry import (
    NoAdmissibleAError,
    Rect,
    Tiling,
    _snake_cell,
    build_tiling,
    cells_of,
    occupied_cells,
    snake_index,
)


def snake_walk_oracle(s: int) -> list[tuple[int, int]]:
    """(col, row-from-top) pairs in visit order, built by simulation."""
    path = []
    for col in range(s):
        rows = range(s) if col % 2 == 0 else range(s - 1, -1, -1)
        for row in rows:
            path.append((col, row))
    return path


def _axis_candidates(t: float, s: int) -> list[int]:
    """0-based cells along one axis whose closed interval holds t."""
    v = t * s
    k = int(math.floor(v))
    if k >= s:  # t == 1.0
        return [s - 1]
    if v == k and k > 0:
        return [k - 1, k]
    return [k]


@functools.cache
def _walk_position(s: int) -> dict[tuple[int, int], int]:
    return {cell: pos for pos, cell in enumerate(snake_walk_oracle(s), start=1)}


def cell_of(t: Tiling, x: float, y: float) -> int:
    """`cells_of` on one point."""
    return int(cells_of(t, np.array([[x, y]]))[0])


def cell_oracle(s: int, x: float, y: float) -> int:
    """The larger snake index among the cells that share the point."""
    pos = _walk_position(s)
    cols = _axis_candidates(x, s)
    rows = [s - 1 - b for b in _axis_candidates(y, s)]  # row from the top
    return max(pos[c, r] for c in cols for r in rows)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 8])
def test_snake_index_matches_walk(s):
    walk = snake_walk_oracle(s)
    for pos, (col, row) in enumerate(walk, start=1):
        assert snake_index(s, col, row) == pos
        assert type(snake_index(s, col, row)) is int
    cols, rows = np.array(walk, dtype=np.int64).T
    got = snake_index(s, cols, rows)
    assert got.dtype == np.int64
    assert got.tolist() == list(range(1, s * s + 1))


@pytest.mark.parametrize("s", range(1, 41))
def test_snake_order_matches_walk(s):
    cols, rows = _snake_cell(s, np.arange(1, s * s + 1))
    assert cols.dtype == rows.dtype == np.int64
    assert list(zip(cols.tolist(), rows.tolist())) == snake_walk_oracle(s)


@given(s=st.integers(min_value=2, max_value=30))
def test_consecutive_snake_cells_share_a_side(s):
    order = np.stack(_snake_cell(s, np.arange(1, s * s + 1)), axis=1)
    steps = np.abs(np.diff(order, axis=0)).sum(axis=1)
    assert (steps == 1).all()


def test_build_tiling_picks_largest_grid_in_window():
    # sqrt(10000)/100 = 1.0 exactly, so a_target=1 is hit on the nose.
    t = build_tiling(10_000, 1.0)
    assert t.s == 100
    assert math.sqrt(10_000) / t.s == 1.0
    assert t.cell_side == pytest.approx(0.01)

    # sqrt(500)/22 = 1.0163..., the smallest admissible value above 1.
    t = build_tiling(500, 1.0)
    assert t.s == 22
    lo, hi = 1.0, 1.0 + 1.0 / np.log(500)
    assert lo <= math.sqrt(500) / t.s <= hi


@given(n=st.integers(min_value=10, max_value=200_000))
@settings(max_examples=200)
def test_build_tiling_window_and_integrality(n):
    t = build_tiling(n, 1.0)
    assert t.s >= 1
    assert 1.0 <= math.sqrt(n) / t.s <= 1.0 + 1.0 / np.log(n) + 1e-12


def test_build_tiling_no_admissible_grid():
    # 10/s can never land in [2.9, 2.9 + 1/log(100)]: s=3 overshoots,
    # s=4 undershoots.
    with pytest.raises(NoAdmissibleAError):
        build_tiling(100, 2.9)


@pytest.mark.parametrize("s", [0, -2, 2.5])
def test_tiling_refuses_a_resolution_that_is_not_a_positive_integer(s):
    # Tiling(0) and Tiling(-2) would map points to cells that do not exist
    with pytest.raises(ValueError, match="resolution"):
        Tiling(s)


def test_cell_of_interior_points():
    t = Tiling(4)
    # cell side 0.25; column 1, top row -> snake index 8 in a 4-grid
    assert cell_of(t, 0.30, 0.95) == snake_index(4, 1, 0)
    assert cell_of(t, 0.05, 0.95) == snake_index(4, 0, 0)
    assert cell_of(t, 0.99, 0.01) == snake_index(4, 3, 3)


def test_cell_of_boundary_takes_larger_index():
    t = Tiling(4)
    for y in (0.1, 0.6, 0.9):
        row_left = cell_of(t, 0.25 - 1e-12, y)
        row_right = cell_of(t, 0.25 + 1e-12, y)
        assert cell_of(t, 0.25, y) == max(row_left, row_right)
    for x in (0.1, 0.6):
        below = cell_of(t, x, 0.5 - 1e-12)
        above = cell_of(t, x, 0.5 + 1e-12)
        assert cell_of(t, x, 0.5) == max(below, above)


def test_cell_of_outside_domain():
    t = Tiling(4)
    for x, y in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 1.5)]:
        with pytest.raises(ValueError):
            cell_of(t, x, y)


def test_cells_of_rejects_points_outside_the_unit_square():
    # these used to be clipped into cells 96, 8 and 8; the scalar lookup
    # rejects each of them, and so does the vectorized one now
    t = Tiling(10)
    inside = [0.5, 0.5]
    for bad in ([1.53, 0.537], [-0.31, 0.217], [np.nan, 0.217], [0.2, 1.0 + 1e-12]):
        with pytest.raises(ValueError, match="outside the unit square"):
            cell_of(t, *bad)
        with pytest.raises(ValueError, match="outside the unit square"):
            cells_of(t, np.array([inside, bad, inside]))
    assert cells_of(t, np.array([[0.0, 0.0], [1.0, 1.0]])).tolist() == [10, 100]


@given(
    s=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(max_examples=200)
def test_cells_of_agrees_with_scalar_lookup(s, data):
    t = Tiling(s)
    n = data.draw(st.integers(min_value=1, max_value=20))
    # mix generic coordinates with exact gridline multiples, 0 and 1 too
    vals = st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                  allow_nan=False),
        st.integers(min_value=0, max_value=s).map(lambda k: k / s),
    )
    pts = np.array(
        [[data.draw(vals), data.draw(vals)] for _ in range(n)], dtype=float
    )
    vec = cells_of(t, pts)
    for k in range(n):
        assert vec[k] == cell_oracle(s, pts[k, 0], pts[k, 1])
        assert cell_of(t, pts[k, 0], pts[k, 1]) == vec[k]


@pytest.mark.parametrize("s", range(1, 41))
def test_cells_of_on_every_lattice_point(s):
    # every k/s with 0 and 1, so every inner line, corner and edge of the
    # grid, and the lattices of the neighbouring resolutions, whose points
    # fall near the lines but rarely on them
    t = Tiling(s)
    vals = sorted({k / m for m in (s, s + 1, 2 * s + 1) for k in range(m + 1)})
    x, y = np.meshgrid(vals, vals)
    pts = np.stack([x.ravel(), y.ravel()], axis=1)
    want = [cell_oracle(s, a, b) for a, b in pts.tolist()]
    assert cells_of(t, pts).tolist() == want


@given(s=st.integers(1, 12), n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_occupied_cells_follow_the_scalar_lookup(s, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    pts[: n // 2] = rng.integers(0, s + 1, (n // 2, 2)) / s  # on gridlines
    t = Tiling(s)
    cells = sorted({cell_oracle(s, x, y) for x, y in pts.tolist()})
    assert occupied_cells(t, pts).tolist() == cells


def test_occupied_cells():
    t = Tiling(5)
    pts = np.array([[0.05, 0.05], [0.07, 0.07], [0.9, 0.9]])
    occ = occupied_cells(t, pts)
    assert len(occ) == 2
    assert sorted(occ) == sorted(cells_of(t, pts[[0, 2]]).tolist())


def test_rect_validation_and_area():
    r = Rect(0.0, 0.0, 0.5, 0.25)
    assert r.area == pytest.approx(0.125)
    assert r.contains(0.0, 0.0) and not r.contains(0.5, 0.1)
    assert r.contains_closed(0.5, 0.25)
    with pytest.raises(ValueError):
        Rect(0.3, 0.0, 0.3, 1.0)
    # every corner, every edge midpoint, the interior and points just
    # outside each edge: (x, y, half-open, closed)
    cases = [
        (0.0, 0.0, True, True), (0.5, 0.0, False, True),
        (0.0, 0.25, False, True), (0.5, 0.25, False, True),
        (0.25, 0.0, True, True), (0.25, 0.25, False, True),
        (0.0, 0.1, True, True), (0.5, 0.1, False, True),
        (0.25, 0.1, True, True),
        (-1e-9, 0.1, False, False), (0.5 + 1e-9, 0.1, False, False),
        (0.25, -1e-9, False, False), (0.25, 0.25 + 1e-9, False, False),
    ]
    x, y, half_open, closed = (np.array(c) for c in zip(*cases))
    np.testing.assert_array_equal(r.contains(x, y), half_open)
    np.testing.assert_array_equal(r.contains_closed(x, y), closed)
    for k in range(len(cases)):
        assert bool(r.contains(x[k], y[k])) == half_open[k]
        assert bool(r.contains_closed(x[k], y[k])) == closed[k]
    # a scalar-y, array-x mix broadcasts
    np.testing.assert_array_equal(
        r.contains(np.array([0.0, 0.5]), 0.0), [True, False]
    )
