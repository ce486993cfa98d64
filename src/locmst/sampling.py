"""Point-process sampling on the unit square.

Points are i.i.d. draws from the uniform density; Poisson samples draw
the count first.  All randomness flows through numpy SeedSequence spawn
keys so that replicate r of stream e is the deterministic function
mix(seed, e, r).

An unconditioned draw of n points is ``rng.random((n, 2))``.  A draw
conditioned to miss a square takes batches of candidates and keeps those
outside it; each batch is followed in the stream by one acceptance
uniform per candidate, skipped unread, so the seed-pinned draws of the
probes keep their place in the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Rect


@dataclass(frozen=True)
class Density:
    """The uniform probability density on [0,1]^2, the one density the
    samplers draw from; they take it as an argument all the same."""

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


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` of root ``seed`` (splittable, stable)."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    )


def _rejection_sample(
    n: int, rng: np.random.Generator, avoid: Rect | None = None
) -> np.ndarray:
    """n i.i.d. uniform points, conditioned to miss ``avoid`` if given.

    A conditioned draw skips its acceptance uniforms by advancing the bit
    generator, which must be a PCG64, as ``derive_rng``'s is.
    """
    if avoid is None:
        return rng.random((n, 2))
    out = np.empty((n, 2))
    have = 0
    for _ in range(100_000):
        if have == n:
            return out
        want = n - have
        # The batch size and the skipped acceptance uniforms fix where
        # each round sits in the stream: both are part of every
        # seed-pinned conditioned draw.
        batch = max(1024, 3 * want)
        pts = rng.random((batch, 2))
        # PCG64 spends one 64-bit word per double: skipping batch words
        # leaves the stream where drawing the uniforms would
        rng.bit_generator.advance(batch)
        # flatnonzero + take: numpy's boolean subscript is several times slower
        acc = pts.take(np.flatnonzero(~avoid.contains(pts[:, 0], pts[:, 1])), axis=0)
        take = min(len(acc), want)
        out[have : have + take] = acc[:take]
        have += take
    raise RuntimeError("rejection sampling failed to converge")


def sample_binomial(
    n: int, density: Density, seed: int, *, key: tuple[int, ...] = ()
) -> PointSet:
    """n i.i.d. uniform points.  Bit-for-bit reproducible per seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = derive_rng(seed, *key)
    return PointSet(_rejection_sample(n, rng))


def sample_poisson(
    n: float, density: Density, seed: int, *, key: tuple[int, ...] = ()
) -> PointSet:
    """Poisson point process with intensity n on the unit square."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = derive_rng(seed, *key)
    count = int(rng.poisson(n))
    return PointSet(_rejection_sample(count, rng))
