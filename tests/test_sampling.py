"""Uniform sampling, the conditioned draw, and seeded reproducibility."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locmst.geometry import Rect
from locmst.sampling import (
    Density,
    PointSet,
    _rejection_sample,
    derive_rng,
    sample_binomial,
    sample_poisson,
)


def test_binomial_reproducible_and_in_domain():
    d = Density.uniform()
    a = sample_binomial(200, d, seed=42)
    b = sample_binomial(200, d, seed=42)
    c = sample_binomial(200, d, seed=43)
    np.testing.assert_array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)
    assert a.n == 200
    assert (a.coords >= 0.0).all() and (a.coords < 1.0).all()


def test_key_splits_the_stream():
    d = Density.uniform()
    a = sample_binomial(50, d, seed=7, key=(0,))
    b = sample_binomial(50, d, seed=7, key=(1,))
    assert not np.array_equal(a.coords, b.coords)
    again = sample_binomial(50, d, seed=7, key=(1,))
    np.testing.assert_array_equal(b.coords, again.coords)


def test_unconditioned_draw_is_the_raw_stream():
    """A draw with nothing avoided is the next 2n stream values, whatever
    the density object, and leaves the stream where they end."""
    for n in (0, 1, 257):
        rng, ref = derive_rng(3, n), derive_rng(3, n)
        np.testing.assert_array_equal(
            _rejection_sample(n, rng), ref.random((n, 2))
        )
        np.testing.assert_array_equal(rng.random(3), ref.random(3))
        np.testing.assert_array_equal(
            sample_binomial(n, Density(), seed=3, key=(n,)).coords,
            sample_binomial(n, Density.uniform(), seed=3, key=(n,)).coords,
        )


def test_poisson_draws_the_count_then_the_points():
    d = Density.uniform()
    for seed in range(4):
        ps = sample_poisson(40, d, seed=seed, key=(2,))
        ref = derive_rng(seed, 2)
        count = int(ref.poisson(40))
        assert ps.n == count
        np.testing.assert_array_equal(ps.coords, ref.random((count, 2)))
    assert sample_poisson(0, d, seed=0).coords.shape == (0, 2)


def test_uniform_draw_fills_the_grid_evenly():
    """Chi-square of a 4 x 4 grid of cells: 15 degrees of freedom, mean
    15 and sd ~5.5, so 50 is past six standard deviations."""
    ps = sample_binomial(40_000, Density.uniform(), seed=11)
    cells = np.floor(ps.coords * 4).astype(int)
    counts = np.bincount(cells[:, 0] * 4 + cells[:, 1], minlength=16)
    expected = 40_000 / 16
    assert float(((counts - expected) ** 2 / expected).sum()) < 50.0


def test_poisson_count_statistics():
    d = Density.uniform()
    counts = [sample_poisson(100, d, seed=5, key=(k,)).n for k in range(60)]
    mean = float(np.mean(counts))
    # mean 100, sd 10, standard error 10/sqrt(60) ~ 1.3
    assert abs(mean - 100.0) < 6.5
    assert len(set(counts)) > 1


def test_poisson_thinning_consistency():
    """A Poisson process restricted to a subregion is Poisson with the
    restricted mass; check mean and variance moments jointly."""
    d = Density.uniform()
    region_counts = []
    for k in range(200):
        ps = sample_poisson(60, d, seed=23, key=(k,))
        inside = (ps.coords[:, 0] < 0.25).sum()
        region_counts.append(int(inside))
    lam = 60 * 0.25
    mean = float(np.mean(region_counts))
    var = float(np.var(region_counts, ddof=1))
    assert abs(mean - lam) < 5 * np.sqrt(lam / 200)
    # variance of the sample variance of Poisson(15) over 200 draws:
    # roughly lam*sqrt(2/199) ~ 1.5; allow five of those
    assert abs(var - lam) < 7.5


def test_empty_and_invalid_requests():
    d = Density.uniform()
    assert sample_binomial(0, d, seed=0).coords.shape == (0, 2)
    with pytest.raises(ValueError):
        sample_binomial(-1, d, seed=0)
    with pytest.raises(ValueError):
        sample_poisson(-0.5, d, seed=0)


def test_point_set_shape_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((3, 3)))
    ps = PointSet(np.zeros((0, 2)))
    assert ps.n == 0


@given(seed=st.integers(min_value=0, max_value=2**31), key=st.integers(0, 99))
@settings(max_examples=25)
def test_derive_rng_is_deterministic(seed, key):
    x = derive_rng(seed, key).random(4)
    y = derive_rng(seed, key).random(4)
    np.testing.assert_array_equal(x, y)


def _sha256(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# The n = 2000 good-square moat: s = 161 cells per side, moat of 151
# cells, so the avoided square covers about 0.88 of the unit square and
# each 3 * want batch accepts only about a third of what is still wanted.
_MOAT = Rect(5 / 161, 5 / 161, 156 / 161, 156 / 161)


def test_pinned_uniform_draws():
    """Draws from a constant density, the ones every study and check
    makes, pinned from the empty draw up to several thousand points."""
    d = Density.uniform()
    binom = [
        sample_binomial(n, d, seed=s, key=(n,)).coords
        for s in range(3)
        for n in (0, 1, 30, 500, 5000)
    ]
    poiss = [
        sample_poisson(n, d, seed=s, key=(n,)).coords
        for s in range(3)
        for n in (30, 500, 5000)
    ]
    assert _sha256(*binom) == (
        "acfff8966721f85d4287c62b23c90c554db712aa08c8fb6af1d7bd5759b15b53"
    )
    assert _sha256(*poiss) == (
        "813030ea4ebe7f8ceaec3f187ba9f0dfb0837d78acac0c0d6f66ee3f95dffe3a"
    )


def test_avoid_draw_pinned_and_outside():
    """The conditioned draw good_square_probe and prop1_demo make, pinned
    over several acceptance rounds together with the stream values that
    follow it, must also miss the avoided square."""
    draws = []
    for seed in range(3):
        for n in (0, 1, 1987, 5000):
            rng = derive_rng(seed, n)
            pts = _rejection_sample(n, rng, avoid=_MOAT)
            assert pts.shape == (n, 2)
            # half-open, as the avoided square is: a point on its xmax or
            # ymax edge lies outside it and may be returned
            assert not _MOAT.contains(pts[:, 0], pts[:, 1]).any()
            assert ((pts >= 0.0) & (pts < 1.0)).all()
            draws += [pts, rng.random(4)]
    assert _sha256(*draws) == (
        "5ac6a4621ccb540fa001e83086f12f1ed2eb24cbfdc645392af10d8a0eca4369"
    )


def _draw_and_discard(n, rng, avoid):
    """The conditioned draw's use of the stream, with its acceptance
    uniforms drawn and thrown away."""
    have = 0
    while have < n:
        batch = max(1024, 3 * (n - have))
        pts = rng.random((batch, 2))
        rng.random(batch)
        outside = int((~avoid.contains(pts[:, 0], pts[:, 1])).sum())
        have += min(outside, n - have)


@pytest.mark.parametrize("avoid", [_MOAT, Rect(0.25, 0.5, 0.5, 0.75)])
def test_skipped_uniforms_leave_the_stream_where_drawing_them_would(avoid):
    # the moat leaves an eighth of the square, so the larger draws take
    # several rounds
    for seed in range(3):
        for n in (1, 1987, 5000):
            rng, ref = derive_rng(seed, n), derive_rng(seed, n)
            _rejection_sample(n, rng, avoid=avoid)
            _draw_and_discard(n, ref, avoid)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_conditioned_draw_is_uniform_off_the_square():
    """Outside the avoided square the points are uniform: the strip left
    of the moat holds its share of the remaining area."""
    pts = _rejection_sample(20_000, derive_rng(4), avoid=_MOAT)
    share = (5 / 161) / (1.0 - _MOAT.area)
    frac = float((pts[:, 0] < 5 / 161).mean())
    assert abs(frac - share) < 5 * np.sqrt(share * (1 - share) / 20_000)


def test_empty_conditioned_draw_leaves_the_stream_alone():
    rng, ref = derive_rng(9), derive_rng(9)
    assert _rejection_sample(0, rng, avoid=_MOAT).shape == (0, 2)
    np.testing.assert_array_equal(rng.random(4), ref.random(4))
