"""Densities, rejection sampling, and seeded reproducibility."""

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


def make_two_level_density() -> Density:
    # mass 0.75 on the left half, 0.25 on the right
    return Density(
        background=0.5, rects=((Rect(0.0, 0.0, 0.5, 1.0), 1.5),)
    )


class TestDensity:
    def test_uniform(self):
        d = Density.uniform()
        assert d.integral_over(Rect(0, 0, 1, 1)) == pytest.approx(1.0)
        assert d.eps1 == d.eps2 == 1.0

    def test_piecewise_integral(self):
        d = make_two_level_density()
        assert d.integral_over(Rect(0, 0, 1, 1)) == pytest.approx(1.0)
        assert d.integral_over(Rect(0.0, 0.0, 0.5, 1.0)) == pytest.approx(0.75)
        assert d.integral_over(Rect(0.25, 0.0, 0.75, 1.0)) == pytest.approx(0.5)
        assert d.eps1 == 0.5 and d.eps2 == 1.5

    def test_values_match_value(self):
        d = make_two_level_density()
        pts = np.array([[0.1, 0.5], [0.9, 0.5], [0.499, 0.0]])
        vec = d.values(pts)
        for k in range(len(pts)):
            assert vec[k] == d.value(pts[k, 0], pts[k, 1])

    def test_must_integrate_to_one(self):
        with pytest.raises(ValueError):
            Density(background=0.9, rects=())

    def test_rejects_overlapping_rects(self):
        with pytest.raises(ValueError):
            Density(
                background=1.0,
                rects=(
                    (Rect(0.0, 0.0, 0.6, 1.0), 1.2),
                    (Rect(0.5, 0.0, 1.0, 1.0), 0.7),
                ),
            )

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            Density(background=2.0, rects=((Rect(0, 0, 0.5, 1.0), 0.0),))


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


def test_rejection_respects_the_density():
    # left half carries probability 3/4; with n=40000 the observed
    # fraction should sit within five standard deviations (~0.011)
    d = make_two_level_density()
    ps = sample_binomial(40_000, d, seed=11)
    frac = float((ps.coords[:, 0] < 0.5).mean())
    assert abs(frac - 0.75) < 5 * np.sqrt(0.75 * 0.25 / 40_000)


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


def test_pinned_draws():
    """The draws are part of every seed-pinned artifact: any change to the
    batch sizes or to the order of the uniforms in the stream shows here."""
    d = make_two_level_density()
    binom = [sample_binomial(500, d, seed=s).coords for s in range(5)]
    poiss = [sample_poisson(500, d, seed=s).coords for s in range(5)]
    assert _sha256(*binom) == (
        "9def8bfd63b6f4501b7235a1b991112cfd72cecea65c1332859bc8d8f4969600"
    )
    assert _sha256(*poiss) == (
        "9eada65ea8a63adb2b0eb316f58908241bc53a001dfa0e7e26621aeb29c2dd96"
    )


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


def test_constant_density_given_as_rectangles_draws_uniform_points():
    flat = Density(
        background=1.0,
        rects=((Rect(0.0, 0.0, 0.5, 1.0), 1.0), (Rect(0.5, 0.25, 1.0, 0.5), 1.0)),
    )
    for n in (1, 30, 2000):
        np.testing.assert_array_equal(
            sample_binomial(n, flat, seed=n).coords,
            sample_binomial(n, Density.uniform(), seed=n).coords,
        )


def test_avoid_draw_pinned_and_outside():
    """The conditioned draw good_square_probe and prop1_demo make, pinned
    over several acceptance rounds, must also miss the avoided square."""
    draws = [
        _rejection_sample(1987, dens, derive_rng(seed, 1), avoid=_MOAT)
        for seed in range(3)
        for dens in (Density.uniform(), make_two_level_density())
    ]
    for pts in draws:
        assert pts.shape == (1987, 2)
        # half-open, as the avoided square is: a point on its xmax or ymax
        # edge lies outside it and may be returned
        assert not _MOAT.contains(pts[:, 0], pts[:, 1]).any()
        assert ((pts >= 0.0) & (pts < 1.0)).all()
    assert _sha256(*draws) == (
        "1beeac8c515547a8c4f70f022b7f31fdf34bc3919cef9f7ba07453c2a9107e05"
    )
