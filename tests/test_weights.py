"""Weight kinds, the envelope band, and the hotspot layout."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locmst.weights import (
    DegenerateEdgeError,
    WeightSpec,
    build_hotspot_layout,
    equivalence_audit,
    euclidean_spec,
    hotspot_spec,
    in_central_cells,
    level_scale_constant,
    pair_weight,
    row_weight_fn,
    shifted_spec,
    spec_from_kind,
    weight_matrix,
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
            assert not any(
                big.intersects(layout.level(j).big) for j in range(1, i)
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


def test_weight_matrix_symmetric_and_matches_pairs():
    rng = np.random.default_rng(3)
    pts = rng.random((12, 2))
    for kind in ("euclidean", "hotspot", "shifted"):
        spec = spec_from_kind(kind)
        m = weight_matrix(spec, pts)
        assert m.shape == (12, 12)
        np.testing.assert_allclose(m, m.T)
        assert (np.diag(m) == 0).all()
        for i in range(12):
            for j in range(i + 1, 12):
                assert m[i, j] == pytest.approx(
                    pair_weight(spec, pts[i], pts[j]), rel=1e-14
                )


def test_row_weight_fn_matches_matrix():
    rng = np.random.default_rng(4)
    pts = rng.random((30, 2))
    for kind in ("euclidean", "hotspot", "shifted"):
        spec = spec_from_kind(kind)
        m = weight_matrix(spec, pts)
        row = row_weight_fn(spec, pts)
        for k in (0, 7, 29):
            np.testing.assert_allclose(row(k), m[k], rtol=1e-14, atol=0)


def test_equivalence_audit_reports_band_ratios():
    for kind in ("euclidean", "hotspot", "shifted"):
        spec = spec_from_kind(kind)
        lo, hi = equivalence_audit(spec, samples=500, seed=9)
        assert spec.c1 * (1 - 1e-9) <= lo <= hi <= spec.c2 * (1 + 1e-9)
    # euclidean ratios are exactly 1
    lo, hi = equivalence_audit(euclidean_spec(), samples=200, seed=1)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)


def test_shifted_weight_stays_in_its_band_at_near_coincident_points():
    # |r_u - r_v| rounds above d here; both weight paths used to give 2 d,
    # and the audit raised on these valid points
    pts = np.array([[0.9999999999999998, 0.46875], [0.9999999999999999, 0.46875]])
    spec = shifted_spec()
    d = math.hypot(*(pts[0] - pts[1]))
    assert pair_weight(spec, pts[0], pts[1]) == row_weight_fn(spec, pts)(0, 1)
    assert d <= pair_weight(spec, pts[0], pts[1]) <= 1.5 * d
    lo, hi = equivalence_audit(spec, samples=20, coords=pts)
    assert 1.0 <= lo <= hi <= 1.5


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
