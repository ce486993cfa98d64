"""Edge weight functions equivalent to the Euclidean metric.

Every weight ``h`` handled here is symmetric and sandwiched between
``c1 * d`` and ``c2 * d`` for the Euclidean distance ``d`` and constants
``0 < c1 <= c2``.  Spanning trees are then scored by ``h(e)**alpha``; the
minimizing edge set does not depend on alpha, so all tree algorithms
compare plain base weights.

Three weight kinds:

* ``euclidean`` -- h = d, c1 = c2 = 1.
* ``shifted`` -- h(u, v) = d(u, v) + |r(u) - r(v)| / 2 with r the distance
  from (0, 0); a metric with d <= h <= 1.5 d, and 1-homogeneous under
  scaling about (0, 0).
* ``hotspot`` -- h = c1 * d when either endpoint lies in one of a family
  of tiny "discount" cells, else c2 * d.  The cell family is a fixed
  multi-scale layout (below) designed so that, on a suitable occupancy
  event, the cheap cells force a high-degree star into the tree.

Hotspot layout geometry, per level i >= 1 (all quantities shrink with the
level size n_i = D * i**3):

* a big square of side 10 * q_i with q_i = (2K-1) / sqrt(n_i), packed
  corner-to-corner along the main diagonal from (0, 0); D is chosen as
  the smallest integer with sum_i 10 * q_i * sqrt(2) <= sqrt(2), i.e.
  D = ceil((10 * (2K-1) * zeta(3/2))**2), so the whole family fits inside
  the unit square;
* an inner square of side q_i co-centered with the big square;
* 4K-4 boundary cells of side 1/sqrt(n_i) tiling the inner square's
  four sides in an alternating cell/gap pattern (K per side, corner
  cells shared), plus one central cell, also of side 1/sqrt(n_i),
  co-centered with the inner square.  Only the central cells carry the
  c1 discount.

The constants c2 = 1, c1 = 1 / (16K) satisfy the requirement
c1 < c2 / (8K), which makes every central-to-boundary edge strictly
cheaper than any boundary-to-boundary edge on the occupancy event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import Rect


class DegenerateEdgeError(ValueError):
    """Weight requested for a zero-length edge (u = v)."""


@dataclass(frozen=True)
class HotspotLevel:
    n_level: int
    big: Rect
    cells: tuple[Rect, ...]  # cells[0] is the central cell

    @property
    def central(self) -> Rect:
        return self.cells[0]


@dataclass(frozen=True)
class HotspotLayout:
    K: int
    levels: tuple[HotspotLevel, ...]

    def level(self, i: int) -> HotspotLevel:
        if not 1 <= i <= len(self.levels):
            raise ValueError(f"level {i} not built (have 1..{len(self.levels)})")
        return self.levels[i - 1]

    def central_cells(self) -> list[Rect]:
        return [lv.central for lv in self.levels]


def level_scale_constant(K: int) -> int:
    """Smallest integer D with 10*(2K-1)*zeta(3/2)/sqrt(D) <= 1."""
    return math.ceil((10.0 * (2 * K - 1) * 2.612375348685488) ** 2)  # zeta(3/2)


@lru_cache(maxsize=None)
def build_hotspot_layout(K: int, n_levels: int = 3) -> HotspotLayout:
    if K < 2:
        raise ValueError("K must be >= 2")
    if n_levels < 1:
        raise ValueError("need at least one level")
    D = level_scale_constant(K)
    levels = []
    t = 0.0
    for i in range(1, n_levels + 1):
        n_i = D * i**3
        x = 1.0 / math.sqrt(n_i)
        q = (2 * K - 1) * x
        big = Rect(t, t, t + 10 * q, t + 10 * q)
        c = t + 5 * q
        inner = Rect(c - q / 2, c - q / 2, c + q / 2, c + q / 2)
        cells = [Rect(c - x / 2, c - x / 2, c + x / 2, c + x / 2)]
        # Boundary cells sit at even lattice offsets (cell, gap, cell, ...)
        # along the inner square's perimeter; corners are shared by two
        # sides, so dedupe on the integer offsets.
        slots = set()
        for m in range(K):
            g = 2 * m
            slots.update({(g, 0), (g, 2 * K - 2), (0, g), (2 * K - 2, g)})
        for gx, gy in sorted(slots, key=lambda p: (p[1], p[0])):
            x0 = inner.xmin + gx * x
            y0 = inner.ymin + gy * x
            cells.append(Rect(x0, y0, x0 + x, y0 + x))
        assert len(cells) == 4 * K - 3
        levels.append(
            HotspotLevel(n_level=n_i, big=big, cells=tuple(cells))
        )
        t += 10 * q
    if t > 1.0 + 1e-12:
        raise ValueError("levels overflow the unit square; D too small")
    return HotspotLayout(K=K, levels=tuple(levels))


@dataclass(frozen=True)
class WeightSpec:
    """Which weight function to use, together with its equivalence band."""

    kind: str
    c1: float = 1.0
    c2: float = 1.0
    layout: HotspotLayout | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("euclidean", "shifted", "hotspot"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not 0 < self.c1 <= self.c2:
            raise ValueError("need 0 < c1 <= c2")
        if self.kind == "hotspot":
            if self.layout is None:
                raise ValueError("hotspot weights need a layout")
            if not self.c1 < self.c2 / (8 * self.layout.K):
                raise ValueError("hotspot weights require c1 < c2 / (8K)")

    @property
    def homogeneous(self) -> bool:
        """True when h(a*u, a*v) = a * h(u, v) about (0, 0)."""
        return self.kind in ("euclidean", "shifted")

    @property
    def h0(self) -> float | None:
        """Translation constant: h(u+b, v+b) <= h0 * h(u, v) for all shifts b.

        Exactly 1 for the translation-invariant Euclidean metric, 3/2 for
        the shifted metric (h <= (3/2) d <= (3/2) h), absent for hotspot
        weights, whose cell layout is pinned in absolute coordinates.
        """
        if self.kind == "euclidean":
            return 1.0
        if self.kind == "shifted":
            return 1.5
        return None


def euclidean_spec() -> WeightSpec:
    return WeightSpec(kind="euclidean", c1=1.0, c2=1.0)


def shifted_spec() -> WeightSpec:
    # |r(u) - r(v)| <= d(u, v) pins the band at [1, 3/2].
    return WeightSpec(kind="shifted", c1=1.0, c2=1.5)


def hotspot_spec(K: int = 2, n_levels: int = 3) -> WeightSpec:
    layout = build_hotspot_layout(K, n_levels)
    return WeightSpec(kind="hotspot", c1=1.0 / (16 * K), c2=1.0, layout=layout)


def spec_from_kind(kind: str) -> WeightSpec:
    if kind == "euclidean":
        return euclidean_spec()
    if kind == "shifted":
        return shifted_spec()
    if kind == "hotspot":
        return hotspot_spec()
    raise ValueError(f"unknown weight kind {kind!r}")


def in_central_cells(spec: WeightSpec, coords: np.ndarray) -> np.ndarray:
    """Boolean mask of points lying in any discount cell (closed membership)."""
    coords = np.asarray(coords, dtype=float)
    mask = np.zeros(len(coords), dtype=bool)
    if spec.kind != "hotspot":
        return mask
    for cell in spec.layout.central_cells():
        mask |= cell.contains_closed(coords[:, 0], coords[:, 1])
    return mask


def _dist(ax, ay, bx, by) -> float:
    # sqrt(dx*dx + dy*dy) in exactly this operation order; the vectorized
    # paths use the same ops so every solver sees bit-identical weights
    dx = ax - bx
    dy = ay - by
    return math.sqrt(dx * dx + dy * dy)


def pair_weight(spec: WeightSpec, u, v) -> float:
    """Base weight h(u, v) of a single pair of distinct points."""
    d = _dist(u[0], u[1], v[0], v[1])
    if d == 0.0:
        raise DegenerateEdgeError(f"zero-length edge at {tuple(u)}")
    if spec.kind == "euclidean":
        return d
    if spec.kind == "shifted":
        ru = _dist(u[0], u[1], 0.0, 0.0)
        rv = _dist(v[0], v[1], 0.0, 0.0)
        # |ru - rv| <= d exactly; the min keeps rounding inside the band
        return d + 0.5 * min(abs(ru - rv), d)
    cheap = in_central_cells(spec, np.asarray([u, v]))
    return (spec.c1 if cheap.any() else spec.c2) * d


def row_weight_fn(spec: WeightSpec, coords: np.ndarray):
    """Callable (i, j=all points) -> base weights h(x_i, x_j), elementwise.

    ``row(k)`` is the whole row of point k, for matrix-free tree growth;
    ``row(i, j)`` with index arrays gives the weights of those pairs.  The
    arguments broadcast like numpy indices.  Every weight is
    d = sqrt(dx*dx + dy*dy) followed by ``+ 0.5 * min(|r_i - r_j|, d)``
    (shifted; the min only catches rounding near coincident points) or
    ``* c`` (hotspot), in exactly this operation order, the one
    ``pair_weight`` uses too, so all solvers see bit-identical weights.
    """
    return _weight_fns(spec, coords)[0]


def _weight_fns(spec: WeightSpec, coords: np.ndarray):
    """The whole pricing contract of the band solver, over one copy of the
    coordinates: ``(row, price, lam, cheap)``.

    ``row`` is ``row_weight_fn``'s callable.  ``lam`` is a constant with
    h >= lam * d for every pair without a discount end, and ``cheap`` is
    the mask of points in a discount cell, or None for kinds without
    discounts.  Pairs with a cheap end are the caller's to take from full
    rows: ``price(i, j, limit)`` returns (i, j, h) for the pairs of the
    index arrays with h < limit, pricing only pairs without one.  It
    prices the distance d of every pair first and lifts it only where
    that can matter: a shifted pair with d >= limit is never kept, since
    h >= d, and a hotspot pair without a discount end has h = c2 * d.
    The kept h are those of ``row``, bit for bit: the same operations in
    the same order.
    """
    coords = np.asarray(coords, dtype=float)
    xs, ys = coords[:, 0].copy(), coords[:, 1].copy()

    def dist(i, j=slice(None)) -> np.ndarray:
        dx = xs[j] - xs[i]
        dy = ys[j] - ys[i]
        return np.sqrt(dx * dx + dy * dy)

    def below(i, j, h, limit):
        at = np.flatnonzero(h < limit)
        return i[at], j[at], h[at]

    if spec.kind == "euclidean":
        return dist, lambda i, j, limit: below(i, j, dist(i, j), limit), 1.0, None
    if spec.kind == "shifted":
        r = np.sqrt(xs * xs + ys * ys)  # distance from (0, 0)

        def lift(i, j, d) -> np.ndarray:
            return d + 0.5 * np.minimum(np.abs(r[j] - r[i]), d)

        def row(i, j=slice(None)) -> np.ndarray:
            return lift(i, j, dist(i, j))

        def price(i, j, limit):
            i, j, d = below(i, j, dist(i, j), limit)
            return below(i, j, lift(i, j, d), limit)

        return row, price, 1.0, None
    cheap = in_central_cells(spec, coords)
    c1, c2 = spec.c1, spec.c2

    def row(i, j=slice(None)) -> np.ndarray:
        return dist(i, j) * np.where(cheap[i] | cheap[j], c1, c2)

    return row, lambda i, j, limit: below(i, j, dist(i, j) * c2, limit), c2, cheap
