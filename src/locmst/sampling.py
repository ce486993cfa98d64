"""Point-process sampling on the unit square.

Densities are piecewise constant (a background level plus a list of
rectangles), bounded between eps1 and eps2.  Binomial samples are i.i.d.
draws from the density via rejection against the flat eps2 envelope;
Poisson samples draw the count first.  All randomness flows through
numpy SeedSequence spawn keys so that replicate r of stream e is the
deterministic function mix(seed, e, r).

A constant density (eps1 == eps2) accepts every candidate, so an
unconditioned draw from it is just ``rng.random((n, 2))``: the first n
rows of the rejection sampler's first batch, since numpy fills that batch
row-major from the same stream.  The sampler returns those rows without
drawing the batch, the acceptance uniforms or the density values, and
the points are bit for bit the ones the batch rule gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Rect

_INTEGRAL_TOL = 1e-12


@dataclass(frozen=True)
class Density:
    """Piecewise-constant probability density on [0,1]^2.

    ``rects`` must be pairwise disjoint; points not covered by any
    rectangle get the ``background`` value.
    """

    background: float = 1.0
    rects: tuple[tuple[Rect, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for k, (r, v) in enumerate(self.rects):
            if v < 0:
                raise ValueError(f"negative density value {v}")
            for r2, _ in self.rects[k + 1 :]:
                if r.intersects(r2):
                    raise ValueError("density rectangles overlap")
        if self.background < 0:
            raise ValueError("negative background density")
        total = self.integral()
        if abs(total - 1.0) > _INTEGRAL_TOL:
            raise ValueError(f"density integrates to {total}, not 1")
        if self.eps1 <= 0:
            raise ValueError("density must be bounded away from zero")

    def integral(self) -> float:
        covered = sum(r.area for r, _ in self.rects)
        return self.background * (1.0 - covered) + sum(
            v * r.area for r, v in self.rects
        )

    def integral_over(self, region: Rect) -> float:
        """Exact integral of the density over a rectangle."""
        total = self.background * region.area
        for r, v in self.rects:
            total += (v - self.background) * region.intersection_area(r)
        return total

    @property
    def eps1(self) -> float:
        return min([self.background] + [v for _, v in self.rects])

    @property
    def eps2(self) -> float:
        return max([self.background] + [v for _, v in self.rects])

    def value(self, x: float, y: float) -> float:
        for r, v in self.rects:
            if r.contains(x, y):
                return v
        return self.background

    def values(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = np.full(len(coords), self.background)
        for r, v in self.rects:
            out[r.contains(coords[:, 0], coords[:, 1])] = v
        return out

    @classmethod
    def uniform(cls) -> "Density":
        return cls()


@dataclass(frozen=True)
class PointSet:
    """Points in the unit square."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 2 or (len(c) and c.shape[1] != 2):
            raise ValueError("coords must be an (n, 2) array")
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return len(self.coords)


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` of root ``seed`` (splittable, stable)."""
    return np.random.default_rng(seed_sequence(seed, *key))


def _rejection_sample(
    n: int, density: Density, rng: np.random.Generator, avoid: Rect | None = None
) -> np.ndarray:
    """n i.i.d. density points, conditioned to miss ``avoid`` if given."""
    if n == 0:
        return np.empty((0, 2))
    env = density.eps2
    if avoid is None and density.eps1 == env:
        # u * env <= env = every density value, so all of the first batch
        # is accepted and its first n rows are returned; they are exactly
        # rng.random((n, 2)).  Conditioned draws keep the batch rule.
        return rng.random((n, 2))
    out = np.empty((n, 2))
    have = 0
    for _ in range(100_000):
        want = n - have
        # The batch sizes fix where each round's acceptance uniforms sit in
        # the stream, so they are part of every seed-pinned draw.
        if avoid is None:
            # sample_binomial and sample_poisson were pinned with 2.5 * want
            batch = max(1024, int(2.5 * want))
        else:
            # the probes' conditioned draws were pinned with 3 * want
            batch = max(1024, 3 * want)
        pts = rng.random((batch, 2))
        u = rng.random(batch)
        keep = u * env <= density.values(pts)
        if avoid is not None:
            keep &= ~avoid.contains(pts[:, 0], pts[:, 1])
        acc = pts[keep]
        take = min(len(acc), want)
        out[have : have + take] = acc[:take]
        have += take
        if have == n:
            return out
    raise RuntimeError("rejection sampling failed to converge")


def sample_binomial(
    n: int, density: Density, seed: int, *, key: tuple[int, ...] = ()
) -> PointSet:
    """n i.i.d. points from the density.  Bit-for-bit reproducible per seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = derive_rng(seed, *key)
    return PointSet(_rejection_sample(n, density, rng))


def sample_poisson(
    n: float, density: Density, seed: int, *, key: tuple[int, ...] = ()
) -> PointSet:
    """Poisson point process with intensity n * density."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = derive_rng(seed, *key)
    count = int(rng.poisson(n))
    return PointSet(_rejection_sample(count, density, rng))
