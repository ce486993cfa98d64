"""Weight kinds, the envelope band, and the hotspot layout."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locmst.mst import minimum_spanning_tree
from locmst.weights import (
    DegenerateEdgeError,
    WeightSpec,
    _weight_fns,
    build_hotspot_layout,
    euclidean_spec,
    hotspot_spec,
    in_central_cells,
    level_scale_constant,
    pair_weight,
    row_weight_fn,
    shifted_spec,
    spec_from_kind,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False)


def test_euclidean_is_plain_distance():
    spec = euclidean_spec()
    assert pair_weight(spec, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
    assert spec.c1 == spec.c2 == 1.0


def test_shifted_weight_hand_values():
    # h(u, v) = d(u, v) + |d(u, 0) - d(v, 0)| / 2
    spec = shifted_spec()
    assert pair_weight(spec, (1.0, 0.0), (0.0, 1.0)) == pytest.approx(
        math.sqrt(2.0)
    )
    assert pair_weight(spec, (0.3, 0.0), (0.9, 0.0)) == pytest.approx(0.9)
    assert spec.c1 == 1.0 and spec.c2 == 1.5


def test_degenerate_pair_rejected():
    for spec in (euclidean_spec(), shifted_spec(), hotspot_spec()):
        with pytest.raises(DegenerateEdgeError):
            pair_weight(spec, (0.25, 0.5), (0.25, 0.5))


@given(
    ux=unit, uy=unit, vx=unit, vy=unit,
    kind=st.sampled_from(["euclidean", "hotspot", "shifted"]),
)
# near-coincident points where |r_u - r_v| rounds above d, which put the
# shifted weight at 2 d
@example(ux=0.9999999999999998, uy=0.46875, vx=0.9999999999999999,
         vy=0.46875, kind="shifted")
@settings(max_examples=300)
def test_band_c1d_le_h_le_c2d(ux, uy, vx, vy, kind):
    d = math.hypot(ux - vx, uy - vy)
    if d < 1e-150:
        # squared differences underflow and the band loses meaning
        return
    spec = spec_from_kind(kind)
    h = pair_weight(spec, (ux, uy), (vx, vy))
    assert spec.c1 * d <= h * (1 + 1e-12)
    assert h <= spec.c2 * d * (1 + 1e-12)


class TestHotspotLayout:
    def test_level_scale_constant_frozen(self):
        # ceil((10 * (2K-1) * zeta(3/2))^2)
        assert level_scale_constant(2) == 6143
        assert level_scale_constant(3) == 17062

    def test_level_scale_constant_pins_scipy_zeta(self):
        # the layout writes zeta(3/2) as a literal, so that importing
        # locmst does not load scipy; it must be the float scipy returns
        from scipy.special import zeta

        z = float(zeta(1.5))
        assert z == 2.612375348685488
        for K in range(2, 13):
            assert level_scale_constant(K) == math.ceil((10.0 * (2 * K - 1) * z) ** 2)

    def test_level_sizes_and_cell_counts(self):
        for K in (2, 3):
            layout = build_hotspot_layout(K, n_levels=3)
            D = level_scale_constant(K)
            for i in (1, 2, 3):
                lv = layout.level(i)
                assert lv.n_level == D * i**3
                assert lv.q == pytest.approx(
                    (2 * K - 1) / math.sqrt(lv.n_level)
                )
                assert lv.cell_side == pytest.approx(1 / math.sqrt(lv.n_level))
                assert len(lv.cells) == 4 * K - 3

    def test_big_squares_tile_the_diagonal(self):
        layout = build_hotspot_layout(2, n_levels=3)
        prev = None
        for i in (1, 2, 3):
            big = layout.level(i).big
            assert big.xmin == big.ymin and big.xmax == big.ymax
            if prev is not None:
                assert big.xmin == pytest.approx(prev.xmax)
            # no overlap with an earlier level: each starts at or past the
            # end of the one before it on the diagonal
            assert all(
                big.xmin >= layout.level(j).big.xmax for j in range(1, i)
            )
            prev = big

    def test_cells_sit_on_the_inner_square(self):
        layout = build_hotspot_layout(3, n_levels=1)
        lv = layout.level(1)
        x = lv.cell_side
        central = lv.cells[0]
        mid_inner = (lv.inner.xmin + lv.inner.xmax) / 2
        assert (central.xmin + central.xmax) / 2 == pytest.approx(mid_inner)
        slack = 1e-9 * lv.q
        for cell in lv.cells:
            assert cell.xmax - cell.xmin == pytest.approx(x)
            assert cell.xmin >= lv.inner.xmin - slack
            assert cell.ymin >= lv.inner.ymin - slack
            assert cell.xmax <= lv.inner.xmax + slack
            assert cell.ymax <= lv.inner.ymax + slack
        # boundary cells hug the inner perimeter at even grid offsets
        for cell in lv.cells[1:]:
            gx = (cell.xmin - lv.inner.xmin) / x
            gy = (cell.ymin - lv.inner.ymin) / x
            assert round(gx) % 2 == 0 and round(gy) % 2 == 0
            assert (
                min(round(gx), round(gy)) == 0
                or max(round(gx), round(gy)) == 2 * 3 - 2
            )

    def test_boundary_cells_are_deduped(self):
        for K in (2, 3, 4):
            lv = build_hotspot_layout(K, n_levels=1).level(1)
            corners = {(c.xmin, c.ymin) for c in lv.cells}
            assert len(corners) == 4 * K - 3


def test_hotspot_weight_cheap_iff_endpoint_in_central_cell():
    spec = hotspot_spec(K=2)
    lv = spec.layout.level(1)
    central = lv.cells[0]
    inside = ((central.xmin + central.xmax) / 2,
              (central.ymin + central.ymax) / 2)
    far = (0.9, 0.9)
    d = math.hypot(inside[0] - far[0], inside[1] - far[1])
    assert pair_weight(spec, inside, far) == pytest.approx(spec.c1 * d)
    # closed membership: the cell corner still counts
    corner = (central.xmax, central.ymax)
    d = math.hypot(corner[0] - far[0], corner[1] - far[1])
    assert pair_weight(spec, corner, far) == pytest.approx(spec.c1 * d)
    # neither endpoint special -> expensive rate
    other = (0.7, 0.95)
    d = math.hypot(other[0] - far[0], other[1] - far[1])
    assert pair_weight(spec, other, far) == pytest.approx(spec.c2 * d)


def test_in_central_cells_vectorized():
    spec = hotspot_spec(K=2)
    lv = spec.layout.level(1)
    central = lv.cells[0]
    pts = np.array(
        [
            [(central.xmin + central.xmax) / 2, (central.ymin + central.ymax) / 2],
            [central.xmax, central.ymin],
            [0.99, 0.99],
        ]
    )
    mask = in_central_cells(spec, pts)
    assert mask.tolist() == [True, True, False]


def test_hotspot_separation_constraint_enforced():
    layout = build_hotspot_layout(2)
    with pytest.raises(ValueError):
        WeightSpec(kind="hotspot", c1=0.1, c2=1.0, layout=layout)
    with pytest.raises(ValueError):
        WeightSpec(kind="hotspot", c1=0.01, c2=1.0, layout=None)
    spec = hotspot_spec(K=2)
    assert spec.c1 < spec.c2 / (8 * 2)


def test_band_ordering_validated():
    with pytest.raises(ValueError):
        WeightSpec(kind="euclidean", c1=2.0, c2=1.0)
    with pytest.raises(ValueError):
        WeightSpec(kind="euclidean", c1=0.0, c2=1.0)


NEAR = [[0.9999999999999998, 0.46875], [0.9999999999999999, 0.46875]]


def band_points() -> np.ndarray:
    """Uniform points, the centre of every discount cell, and a
    near-coincident pair where |r_u - r_v| rounds above d."""
    centres = [((c.xmin + c.xmax) / 2, (c.ymin + c.ymax) / 2)
               for c in hotspot_spec().layout.central_cells()]
    return np.vstack([np.random.default_rng(4).random((60, 2)), centres, NEAR])


@pytest.mark.parametrize("kind", ["euclidean", "hotspot", "shifted"])
def test_every_pair_lies_in_its_band_exactly(kind):
    # c1 d <= h <= c2 d, and h >= lam d with lam as mst_bands sets it, hold
    # bit for bit over every pair; mst_bands rests on the second
    spec = spec_from_kind(kind)
    pts = band_points()
    n = len(pts)
    i, j = np.triu_indices(n, k=1)
    row = row_weight_fn(spec, pts)
    h = row(i, j)
    assert h.tolist() == [pair_weight(spec, pts[a], pts[b]) for a, b in zip(i, j)]
    assert (row(j, i) == h).all()
    rows = np.stack([row(k) for k in range(n)])  # the whole-row form
    assert (rows[i, j] == h).all() and (rows[j, i] == h).all()
    assert (np.diag(rows) == 0).all()
    d = row_weight_fn(euclidean_spec(), pts)(i, j)
    assert (spec.c1 * d <= h).all() and (h <= spec.c2 * d).all()
    cheap = in_central_cells(spec, pts)
    discount = cheap[i] | cheap[j]
    # the three centres pair with the 64 other points, less 3 pairs counted twice
    assert discount.sum() == (3 * 64 - 3 if kind == "hotspot" else 0)
    lam = spec.c2 if kind == "hotspot" else 1.0
    assert (h[~discount] >= lam * d[~discount]).all()
    assert (h[discount] == spec.c1 * d[discount]).all()


@pytest.mark.parametrize("kind", ["euclidean", "hotspot", "shifted"])
def test_band_pricer_keeps_exactly_the_row_weights_below_the_limit(kind):
    # the band solver prices distance first; the pairs it keeps, and their
    # h bit for bit, are those of row_weight_fn below the limit.  Hotspot
    # pairs reach it only without a discount end.
    spec = spec_from_kind(kind)
    pts = band_points()
    i, j = np.triu_indices(len(pts), k=1)
    cheap = in_central_cells(spec, pts)
    far = ~(cheap[i] | cheap[j])
    i, j = i[far].astype(np.int32), j[far].astype(np.int32)
    row, price = _weight_fns(spec, pts)
    h = row(i, j)
    assert h.tobytes() == row_weight_fn(spec, pts)(i, j).tobytes()
    d = row_weight_fn(euclidean_spec(), pts)(i, j)
    rng = np.random.default_rng(5)
    picks = np.r_[rng.choice(len(h), 20, replace=False), len(h) - 1]  # the NEAR pair
    # limits at, just below and just above some pair's d and h: a shifted
    # pair with d just below the limit and h above it is priced and dropped
    at = np.r_[d[picks], h[picks]]
    for limit in np.r_[np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)]:
        inside = np.flatnonzero(h < limit)
        ki, kj, kh = price(i, j, limit)
        assert ki.tolist() == i[inside].tolist() and kj.tolist() == j[inside].tolist()
        assert kh.tobytes() == h[inside].tobytes()
    if kind == "shifted":
        assert ((d[picks] < h[picks]) & (np.nextafter(d[picks], np.inf) < h[picks])).any()


def test_shifted_weight_stays_in_its_band_at_near_coincident_points():
    # |r_u - r_v| rounds above d here; both weight paths used to give 2 d
    pts = np.array(NEAR)
    spec = shifted_spec()
    d = math.hypot(*(pts[0] - pts[1]))
    assert pair_weight(spec, pts[0], pts[1]) == row_weight_fn(spec, pts)(0, 1)
    assert d <= pair_weight(spec, pts[0], pts[1]) <= 1.5 * d


def test_homogeneity_and_translation_flags():
    assert euclidean_spec().homogeneous
    assert shifted_spec().homogeneous
    assert not hotspot_spec().homogeneous
    assert euclidean_spec().h0 == 1.0
    assert shifted_spec().h0 == 1.5
    assert hotspot_spec().h0 is None


def test_spec_from_kind_rejects_unknown():
    with pytest.raises(ValueError):
        spec_from_kind("manhattan")


def pin_points() -> np.ndarray:
    """Fixed uniform draws plus the centre of every discount cell."""
    centres = [((c.xmin + c.xmax) / 2, (c.ymin + c.ymax) / 2)
               for c in hotspot_spec().layout.central_cells()]
    return np.vstack([np.random.default_rng(2024).random((400, 2)), centres])


WEIGHT_PINS = {
    "euclidean": "b04bdd910fe436557daf5caf42e2d405cf66b2e13fc5bb883df140a60a1177a3",
    "hotspot": "d7b17345679ffc0604215bbdf9aa0cd92b4f49bcbbac934ef58c4d4cc0ff5a6d",
    "shifted": "ee3447d49ee1f1096f585d08cdc7c4f299ae2fcd3a0f77018aae9c81fcd846f5",
}


@pytest.mark.parametrize("kind", sorted(WEIGHT_PINS))
def test_pair_weights_and_tree_are_pinned(kind):
    # SHA-256 over the bits of every pair weight and of the solved tree;
    # any change in the weight arithmetic moves it
    spec = spec_from_kind(kind)
    pts = pin_points()
    i, j = np.triu_indices(len(pts), k=1)
    tree = minimum_spanning_tree(spec, pts)
    digest = hashlib.sha256()
    for part in (row_weight_fn(spec, pts)(i, j), tree.edge_i, tree.edge_j,
                 tree.base_weights):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == WEIGHT_PINS[kind]


# The trees of 2^16 uniform points at seed 2024: two bands for each kind,
# the second joining a few hundred components, and on hotspot weights 18
# discount points whose full rows feed both bands.  SHA-256 over the bits
# of edge_i, edge_j and base_weights.
LARGE_TREE_PINS = {
    "euclidean": "8774dcdb21a20220769e9f40f482c2bb2c6267a8071c18a647baa418c2fed0d0",
    "hotspot": "923e559193c4e40cd29affc9c98ea58ace6b10e1551d7f13b02ca64ace6059c1",
    "shifted": "8c0a887bec167521a6c5d32b38a94fb79ea4f6fd053111ba1a01d7c937213c5d",
}


@pytest.mark.parametrize("kind", sorted(LARGE_TREE_PINS))
def test_large_trees_are_pinned(kind):
    pts = np.random.default_rng(2024).random((1 << 16, 2))
    tree = minimum_spanning_tree(spec_from_kind(kind), pts)
    digest = hashlib.sha256()
    for part in (tree.edge_i, tree.edge_j, tree.base_weights):
        digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == LARGE_TREE_PINS[kind]
