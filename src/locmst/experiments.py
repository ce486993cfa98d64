"""Executable constructions: tiling statistics, bound verifiers, planted
configurations, and Monte Carlo scaling studies.

Everything here reduces a claimed inequality or structural statement to a
computation on concrete point sets:

* grid statistics G (isolated occupied cells) and S_alpha (powered snake
  gaps) with the MST lower/upper bounds they certify;
* the one-node-difference and merge bounds;
* the planted hotspot event that forces a high-degree star;
* the good-square probe where adding one node changes the tree by exactly
  one edge with a bracketed increment;
* mean/variance scaling studies over n with seed-reproducible records.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from .bounds import _check_alphas, compute_bounds
from .geometry import (
    Rect,
    Tiling,
    _snake_cell,
    build_tiling,
    cells_of,
    occupied_cells,
)
from .sampling import (
    Density,
    _rejection_sample,
    derive_rng,
    sample_binomial,
)
from .weights import (
    HotspotLayout,
    WeightSpec,
    euclidean_spec,
    hotspot_spec,
    row_weight_fn,
    spec_from_kind,
)
from .mst import _power_sum, minimum_spanning_tree, mst_with_point


class EmptyPointSetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Gap statistics over the snake order


def _gaps(s: int, occ: np.ndarray) -> list[int]:
    """The snake gaps of sorted unique occupied indices, as Python ints.

    The first gap is i_1 - 1, the middle ones are successive differences,
    and the last is s^2 - i_Q; they always sum to s^2 - 1.  With no cell
    occupied there is the single gap s^2 - 1.  S_alpha is
    ``_power_sum(gaps, alpha)``, the exactly rounded sum that prices every
    tree score; a zero gap adds 0.
    """
    if len(occ) == 0:
        return [s * s - 1]
    return [int(occ[0]) - 1, *(occ[1:] - occ[:-1]).tolist(), s * s - int(occ[-1])]


def gap_stat_monotonicity(
    tiling: Tiling, coords: np.ndarray, alpha: float, extra
) -> tuple[bool, float, float]:
    """Adding a point raises S_alpha when alpha <= 1 and lowers it when
    alpha > 1 (strictly inside an unoccupied cell, equality otherwise).

    Returns (verdict, before, after).
    """
    _check_alphas((alpha,))
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    added = np.vstack([coords, np.asarray(extra, dtype=float).reshape(1, 2)])
    cells = cells_of(tiling, added)  # the added point's cell comes last
    before = _power_sum(_gaps(tiling.s, np.unique(cells[:-1])), alpha)
    after = _power_sum(_gaps(tiling.s, np.unique(cells)), alpha)
    tol = 1e-9 * max(1.0, before)
    if alpha <= 1.0:
        return after >= before - tol, before, after
    return after <= before + tol, before, after


# ---------------------------------------------------------------------------
# Grid-certified lower and upper bounds on the MST weight


def _isolated_count(s: int, occ: np.ndarray) -> int:
    """G: occupied cells, given as sorted unique snake indices, whose 8
    corner-sharing neighbours are all empty.

    Cells on the grid boundary just use the neighbours they have.  An
    isolated cell forces an edge at least one cell side long only when
    there are nodes outside it: with fewer than two occupied cells the
    tree is internal and nothing is forced, so G is 0.
    """
    if len(occ) < 2:
        return 0
    padded = np.zeros((s + 2, s + 2), dtype=np.uint8)
    grid = padded[1:-1, 1:-1]
    grid[_snake_cell(s, occ)] = 1
    strip = padded[:-2] + padded[1:-1] + padded[2:]
    block = strip[:, :-2] + strip[:, 1:-1] + strip[:, 2:]  # occupied in 3 x 3
    return int(np.count_nonzero(grid & (block == 1)))  # alone in its block


@dataclass(frozen=True)
class LowerBoundReport:
    g_count: int
    bound: float
    mst_weight: float
    holds: bool


def lower_bound_stat(
    spec: WeightSpec, tiling: Tiling, coords: np.ndarray, alpha: float
) -> LowerBoundReport:
    """MST weight >= (G/2) * (c1 * cell_side)**alpha.

    Every isolated occupied cell must reach the rest of the configuration
    with an edge at least one cell side long, and an edge can serve two
    such cells (`_isolated_count`).  Point sets of size one are rejected
    outright.
    """
    _check_alphas((alpha,))
    coords = np.asarray(coords, dtype=float)
    if len(coords) == 1:
        raise ValueError("need zero or at least two points")
    if len(coords) == 0:
        return LowerBoundReport(g_count=0, bound=0.0, mst_weight=0.0, holds=True)
    occ = occupied_cells(tiling, coords)
    g = _isolated_count(tiling.s, occ)
    bound = 0.5 * (spec.c1 * tiling.cell_side) ** alpha * g
    w = minimum_spanning_tree(spec, coords).total_weight(alpha)
    return LowerBoundReport(
        g_count=g, bound=bound, mst_weight=w, holds=w >= bound - 1e-12
    )


@dataclass(frozen=True)
class UpperBoundReport:
    w_uni: float
    rhs: float
    mst_weight: float
    s_alpha: float
    holds: bool


def tiled_upper_bound(
    spec: WeightSpec, tiling: Tiling, coords: np.ndarray, alpha: float
) -> UpperBoundReport:
    """Explicit spanning tree built along the snake order.

    Within each occupied cell, a star on its lowest-index point; between
    consecutive occupied cells, the lexicographically-first connecting
    pair (lowest index in each cell).  Its weight W_uni satisfies
    MST <= W_uni <= (2 c2 cell_side)**alpha * (n + S_alpha).
    """
    _check_alphas((alpha,))
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if n == 0:
        raise EmptyPointSetError("the constructed tree needs at least one point")
    idx = cells_of(tiling, coords)
    order = np.argsort(idx, kind="stable")  # by cell, then by point index
    cell = idx[order]
    first = np.concatenate(([True], cell[1:] != cell[:-1]))
    reps = order[first]  # each occupied cell's lowest index, in snake order
    # a star on each cell's rep, then a chain through the reps
    a = np.concatenate([reps[np.cumsum(first) - 1][~first], reps[:-1]])
    b = np.concatenate([order[~first], reps[1:]])
    # math.fsum is exactly rounded, so the edge order does not matter
    w_uni = _power_sum(row_weight_fn(spec, coords)(a, b).tolist(), alpha)
    s_alpha = _power_sum(_gaps(tiling.s, cell[first]), alpha)
    rhs = (2.0 * spec.c2 * tiling.cell_side) ** alpha * (n + s_alpha)
    w = minimum_spanning_tree(spec, coords).total_weight(alpha)
    holds = w <= w_uni + 1e-12 and w_uni <= rhs + 1e-12
    return UpperBoundReport(
        w_uni=w_uni, rhs=rhs, mst_weight=w, s_alpha=s_alpha, holds=holds
    )


# ---------------------------------------------------------------------------
# One-node difference and merge bounds


@dataclass(frozen=True)
class OneNodeReport:
    delta: float
    f1: float
    f2: float
    holds: bool


def one_node_difference(
    spec: WeightSpec, coords: np.ndarray, j: int, alpha: float
) -> OneNodeReport:
    """|MST with X_j - MST without X_j| <= f1 + f2.

    f1 = c2**alpha * d(X_j, nearest other point)**alpha prices attaching
    X_j; f2 = (2 c2)**alpha * sum of d(X_j, v)**alpha over X_j's tree
    neighbours prices rerouting around its removal.
    """
    _check_alphas((alpha,))
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if not 0 <= j < n:
        raise IndexError(f"index {j} out of range for {n} points")
    if n < 3:
        raise ValueError("need at least three points")
    full = minimum_spanning_tree(spec, coords)
    rest = minimum_spanning_tree(spec, np.delete(coords, j, axis=0))
    delta = abs(full.total_weight(alpha) - rest.total_weight(alpha))
    dx = coords[:, 0] - coords[j, 0]
    dy = coords[:, 1] - coords[j, 1]
    d_all = np.sqrt(dx * dx + dy * dy)
    d_all[j] = np.inf
    f1 = spec.c2**alpha * float(d_all.min()) ** alpha
    nbrs = np.concatenate([full.edge_j[full.edge_i == j],
                           full.edge_i[full.edge_j == j]])
    f2 = (2.0 * spec.c2) ** alpha * _power_sum(d_all[nbrs].tolist(), alpha)
    return OneNodeReport(delta=delta, f1=f1, f2=f2,
                         holds=delta <= f1 + f2 + 1e-12)


@dataclass(frozen=True)
class MergeReport:
    merged: float
    bound: float
    holds: bool


def merge_bound_check(
    spec: WeightSpec, coords1: np.ndarray, coords2: np.ndarray, alpha: float
) -> MergeReport:
    """MST(A u B) <= MST(A) + c2**alpha * sum_{x in B} d(x, A)**alpha.

    Joining every extra point to its nearest point of A gives a spanning
    graph whose weight dominates the merged MST.
    """
    _check_alphas((alpha,))
    coords1 = np.asarray(coords1, dtype=float).reshape(-1, 2)
    coords2 = np.asarray(coords2, dtype=float).reshape(-1, 2)
    if len(coords1) < 1:
        raise ValueError("the base set must be nonempty")
    base = minimum_spanning_tree(spec, coords1).total_weight(alpha)
    if len(coords2) == 0:
        return MergeReport(merged=base, bound=base, holds=True)
    diff = coords2[:, None, :] - coords1[None, :, :]
    nearest = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
    bound = base + spec.c2**alpha * _power_sum(nearest.tolist(), alpha)
    merged = minimum_spanning_tree(
        spec, np.vstack([coords1, coords2])
    ).total_weight(alpha)
    return MergeReport(merged=merged, bound=bound, holds=merged <= bound + 1e-12)


# ---------------------------------------------------------------------------
# Planted hotspot event: the high-degree star


@dataclass(frozen=True)
class Prop1Report:
    mode: str
    K: int
    level: int
    n: int
    reps: int
    occurrences: int
    star_ok: int
    min_center_degree: int
    frequency: float
    floor_log10: float
    event_log10: float

    @property
    def ok(self) -> bool:
        return self.star_ok == self.occurrences


def _sample_in_rect(rect: Rect, rng) -> np.ndarray:
    """One uniform point in a rectangle.

    Scales the first of a batch of 32 proposals into the rectangle, and
    skips the rest of the batch and the 32 acceptance uniforms that follow
    it in the stream: the draws ``prop1_demo``'s conditional mode is
    pinned with.  PCG64, as ``derive_rng``'s is, spends one 64-bit word
    per double, so the skip is 62 + 32 words.
    """
    x, y = rng.random(2)
    rng.bit_generator.advance(94)
    return np.array([
        rect.xmin + x * (rect.xmax - rect.xmin),
        rect.ymin + y * (rect.ymax - rect.ymin),
    ])


def _detect_event(layout: HotspotLayout, level: int, coords: np.ndarray):
    """Exactly one point per special cell and nothing else in the big
    square.  Returns (occurred, center_index, special_indices)."""
    lv = layout.level(level)
    x, y = coords[:, 0], coords[:, 1]
    cell_hits = []
    for cell in lv.cells:
        inside = np.flatnonzero(cell.contains(x, y))
        if len(inside) != 1:
            return False, -1, ()
        cell_hits.append(int(inside[0]))
    if int(np.count_nonzero(lv.big.contains(x, y))) != len(lv.cells):
        return False, -1, ()
    return True, cell_hits[0], tuple(cell_hits)


def _event_log10(layout: HotspotLayout, level: int, n: int) -> float:
    """log10 of the exact probability that n i.i.d. uniform points
    realize the event: a multinomial over (cell_1, ..., cell_m, outside)."""
    from scipy.special import gammaln  # not at import: ~0.2 s and ~26 MB
    lv = layout.level(level)
    m = len(lv.cells)
    log_p = float(gammaln(n + 1) - gammaln(n - m + 1))
    for cell in lv.cells:
        log_p += math.log(cell.area)
    log_p += (n - m) * math.log1p(-lv.big.area)
    return log_p / math.log(10.0)


def prop1_floor_log10(K: int, eps1: float, eps2: float) -> float:
    """log10 of the analytic lower bound (eps1/2)^(4K-3) * exp(-2C),
    C = 100 * eps2 * (2K-1)^2.  Very loose; reported for context."""
    c = 100.0 * eps2 * (2 * K - 1) ** 2
    return (4 * K - 3) * math.log10(eps1 / 2.0) - 2.0 * c / math.log(10.0)


def prop1_demo(
    K: int,
    level: int = 1,
    reps: int = 10,
    seed: int = 0,
    mode: str = "conditional",
) -> Prop1Report:
    """Demonstrate the forced star at a hotspot.

    The event: each of the 4K-3 special cells of the given level holds
    exactly one point and the rest of that level's big square is empty.
    On the event, the MST under hotspot weights must contain every edge
    from the central point v0 to the 4K-4 boundary points (giving v0
    degree >= 4K-4), because v0 is each boundary point's strictly
    cheapest neighbour.

    Modes: "planted" pins the special points at cell centers,
    "conditional" samples the exact conditional law of the binomial
    process given the event (one uniform point per cell, the rest
    conditioned outside the big square), and "raw" samples the
    unconditioned process and scans for the event, whose probability is
    so small that zero occurrences is the expected outcome; the report
    carries the exact event probability and the analytic floor.
    """
    if mode not in ("planted", "conditional", "raw"):
        raise ValueError(f"unknown mode {mode!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    spec = hotspot_spec(K, n_levels=max(3, level))
    layout = spec.layout
    lv = layout.level(level)
    n = lv.n_level
    m = len(lv.cells)
    occurrences = 0
    star_ok = 0
    min_deg = -1
    for rep in range(reps):
        rng = derive_rng(seed, level, rep)
        if mode == "raw":
            coords = sample_binomial(
                n, Density.uniform(), seed, key=(level, rep)
            ).coords
        else:
            planted = np.empty((m, 2))
            for k, cell in enumerate(lv.cells):
                if mode == "planted":
                    planted[k] = (
                        (cell.xmin + cell.xmax) / 2.0,
                        (cell.ymin + cell.ymax) / 2.0,
                    )
                else:
                    planted[k] = _sample_in_rect(cell, rng)
            outside = _rejection_sample(n - m, rng, avoid=lv.big)
            coords = np.vstack([planted, outside])
        occurred, v0, special = _detect_event(layout, level, coords)
        if not occurred:
            continue
        occurrences += 1
        result = minimum_spanning_tree(spec, coords)
        is_special = np.zeros(len(coords), dtype=bool)
        is_special[list(special)] = True
        both = is_special[result.edge_i] & is_special[result.edge_j]
        induced = set(zip(result.edge_i[both].tolist(), result.edge_j[both].tolist()))
        want = {
            (min(v0, b), max(v0, b)) for b in special if b != v0
        }
        deg_v0 = int(result.degrees[v0])
        if induced == want and deg_v0 >= 4 * K - 4:
            star_ok += 1
        min_deg = deg_v0 if min_deg < 0 else min(min_deg, deg_v0)
    return Prop1Report(
        mode=mode,
        K=K,
        level=level,
        n=n,
        reps=reps,
        occurrences=occurrences,
        star_ok=star_ok,
        min_center_degree=min_deg,
        frequency=occurrences / reps,
        floor_log10=prop1_floor_log10(K, 1.0, 1.0),
        event_log10=_event_log10(layout, level, n),
    )


# ---------------------------------------------------------------------------
# Good-square probe: add one node, gain exactly one edge


@dataclass(frozen=True)
class GoodSquareReport:
    g: int
    s: int
    n: int
    seed: int
    alphas: tuple[float, ...]
    added_edges: tuple[tuple[int, int], ...]
    removed_edges: tuple[tuple[int, int], ...]
    new_vertex: int
    v_min: int
    edge_ok: bool
    increments: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]
    increment_ok: bool
    config_ok: bool

    @property
    def ok(self) -> bool:
        return self.edge_ok and self.increment_ok and self.config_ok


_SATELLITE_OFFSETS = tuple(
    [(dx, dy) for dy in (-3, 3) for dx in (-2, 0, 2)]
    + [(dx, dy) for dx in (-3, 3) for dy in (-2, 0, 2)]
)


def good_square_probe(
    g: int,
    n: int = 10_000,
    alpha=1.0,
    seed: int = 0,
    x_at_center: bool = False,
) -> GoodSquareReport:
    """Planted local configuration around an empty moat.

    Twelve satellite points sit at the centers of cells on the
    Chebyshev-radius-3g ring around a center cell (three per side, never
    on corners); every other cell within Chebyshev radius 15g is empty;
    background points fill the outside.  Adding one point X inside the
    center cell must extend the tree by exactly the edge (X, nearest
    satellite) and raise the weight by an amount inside
    [(3g-1)**alpha, (5g-1)**alpha] * cell_side**alpha.

    Euclidean weights only; the grid resolution is raised to
    max(30g + 11, ceil(sqrt(n))) so the moat always fits.
    """
    if g < 5:
        raise ValueError("g must be >= 5")
    if n < 100:
        raise ValueError("need at least 100 points")
    alphas = tuple(float(a) for a in (alpha if np.iterable(alpha) else (alpha,)))
    if not alphas:
        raise ValueError("need at least one alpha")
    _check_alphas(alphas)
    s = max(30 * g + 11, math.isqrt(n - 1) + 1)
    spec = euclidean_spec()
    side = 1.0 / s
    cc = s // 2  # center cell grid coords (col, row from bottom)
    satellites = np.array(
        [
            ((cc + dx * g + 0.5) * side, (cc + dy * g + 0.5) * side)
            for dx, dy in _SATELLITE_OFFSETS
        ]
    )
    moat = Rect(
        (cc - 15 * g) * side,
        (cc - 15 * g) * side,
        (cc + 15 * g + 1) * side,
        (cc + 15 * g + 1) * side,
    )
    background = _rejection_sample(n - 13, derive_rng(seed, 1), avoid=moat)
    center_cell = Rect(cc * side, cc * side, (cc + 1) * side, (cc + 1) * side)
    if x_at_center:
        x_new = np.array([(cc + 0.5) * side, (cc + 0.5) * side])
    else:
        r = derive_rng(seed, 2).random(2)
        x_new = np.array(
            [center_cell.xmin + r[0] * side, center_cell.ymin + r[1] * side]
        )
    coords_old = np.vstack([satellites, background])
    new_vertex = len(coords_old)

    sat_dx = satellites[:, 0] - x_new[0]
    sat_dy = satellites[:, 1] - x_new[1]
    d_sat = np.sqrt(sat_dx * sat_dx + sat_dy * sat_dy)
    v_min = int(np.argmin(d_sat))
    ring = np.array([(dx, dy) for dx, dy in _SATELLITE_OFFSETS], dtype=float)
    ang = np.arctan2(ring[:, 1], ring[:, 0])
    ring_order = np.argsort(ang)
    consecutive = np.hypot(
        *(satellites[ring_order] - satellites[np.roll(ring_order, 1)]).T
    )
    config_ok = bool(
        np.all(d_sat >= (3 * g - 1) * side)
        and d_sat.min() <= (5 * g - 1) * side
        and np.all(consecutive <= (2 * g + 5) * side)
    )

    t_old = minimum_spanning_tree(spec, coords_old)
    t_new = mst_with_point(spec, coords_old, t_old, x_new)
    # t_new lies in t_old plus the pairs of x, which has the largest index
    star = np.sort(t_new.edge_i[t_new.edge_j == new_vertex])
    added = tuple((i, new_vertex) for i in star.tolist())
    removed = ()
    if len(star) > 1:  # with one star edge, t_new keeps all n - 1 old edges
        # edge (lo, hi) as the key lo * m + hi: sorted keys are sorted edges
        m = new_vertex + 1
        old_keys = np.sort(t_old.edge_i * m + t_old.edge_j)
        gone = np.setdiff1d(old_keys, t_new.edge_i * m + t_new.edge_j,
                            assume_unique=True)
        removed = tuple(zip(*(k.tolist() for k in np.divmod(gone, m))))
    edge_ok = (
        len(removed) == 0
        and len(added) == 1
        and added[0] == (v_min, new_vertex)
    )
    w_new, w_old = t_new.base_weights.tolist(), t_old.base_weights.tolist()
    increments = tuple(
        _power_sum(w_new, a) - _power_sum(w_old, a) for a in alphas
    )
    brackets = tuple(
        (((3 * g - 1) * side) ** a, ((5 * g - 1) * side) ** a) for a in alphas
    )
    increment_ok = all(
        lo - 1e-9 <= inc <= hi + 1e-9
        for inc, (lo, hi) in zip(increments, brackets)
    )
    return GoodSquareReport(
        g=g, s=s, n=n, seed=seed, alphas=alphas,
        added_edges=added, removed_edges=removed,
        new_vertex=new_vertex, v_min=v_min, edge_ok=edge_ok,
        increments=increments, brackets=brackets,
        increment_ok=increment_ok, config_ok=config_ok,
    )


# ---------------------------------------------------------------------------
# Monte Carlo scaling and variance studies


@dataclass(frozen=True)
class ScalingFit:
    alpha: float
    weight_kind: str
    quantity: str  # "mean" or "variance"
    n_list: tuple[int, ...]
    values: tuple[float, ...]
    reps: int
    slope: float
    intercept: float
    stderr: float
    expected_slope: float
    corridor_low: tuple[float, ...]
    corridor_high: tuple[float, ...]
    in_corridor: bool | None


@dataclass(frozen=True)
class StudyResult:
    weight_kind: str
    n_list: tuple[int, ...]
    alphas: tuple[float, ...]
    reps: int
    seed: int
    records: tuple[dict, ...]
    weights: dict  # alpha -> (len(n_list), reps) array


# Points, reps * sum(n_list), from which a study with threads=None forks
# children.  On a 2-core VM (Python 3.11), forking one child and reaping
# it costs about 4 ms (median of 30 maps of four trivial tasks) and a
# claim two fcntl syscalls, against 3-11 us per point in one process.
# Median ms in one process / in this one and one child, euclidean,
# shifted, hotspot, alphas 1 and 2, 15 alternating pairs (7 in the last):
# n = 256..512, 2 reps (1 536 points): 13/18, 13/18, 13/18;
# n = 256..1024, 2 reps (3 584 points): 19/22, 25/23, 22/20;
# n = 64..256, 10 reps (4 480 points): 44/36, 49/38, 50/39;
# n = 256..2048, 2 reps (7 680 points): 37/31, 44/32, 38/31;
# n = 64..192, 30 reps (14 400 points): 164/103, 170/103, 164/109;
# n = 256..8192, 3 reps (48 384 points): 176/101, 201/117, 188/115.
_POOL_MIN_POINTS = 1 << 12


def _study_task(args) -> tuple:
    (kind, n, rep, seed, alphas) = args
    t0 = time.perf_counter()
    coords = sample_binomial(n, Density.uniform(), seed, key=(n, rep)).coords
    tiling = build_tiling(n)
    result = minimum_spanning_tree(spec_from_kind(kind), coords)
    occ = occupied_cells(tiling, coords)
    gaps = _gaps(tiling.s, occ)
    g_count = _isolated_count(tiling.s, occ)
    weights = result.base_weights.tolist()  # once for every alpha
    totals = {a: _power_sum(weights, a) for a in alphas}
    s_alphas = {a: _power_sum(gaps, a) for a in alphas}
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return (n, rep, totals, s_alphas, g_count, result.max_degree, runtime_ms)


def _check_study(n_list, reps: int, alphas, threads=None) -> None:
    """Refuse a study grid that would be sampled wrongly or not at all."""
    if reps < 2:
        raise ValueError("need at least two replicates")
    if any(n < 3 for n in n_list):
        raise ValueError("sizes must be >= 3")  # the tiling needs log(n) > 1
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"repeated size in {list(n_list)}")
    if len(set(alphas)) < len(alphas):
        raise ValueError(f"repeated alpha in {list(alphas)}")
    _check_alphas(alphas)
    if threads is not None and (isinstance(threads, bool)
                                or not isinstance(threads, int) or threads < 1):
        raise ValueError("threads must be >= 1")


def _check_fittable(quantity: str, n_list, reps: int) -> None:
    """The rule for a study whose slope can be fitted: 30 replicates for
    the mean, 200 for the variance, and four sizes for either."""
    min_reps = {"mean": 30, "variance": 200}.get(quantity)
    if min_reps is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    if reps < min_reps:
        raise ValueError(f"{quantity} slopes need at least {min_reps} replicates")
    if len(n_list) < 4:
        raise ValueError("need at least four sizes")


def _fork_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], shared by this process and workers - 1
    children forked once.

    Each process claims one task at a time from the unclaimed range
    [lo, hi), two int64s in shared memory, under a POSIX record lock on
    a temporary file, which the kernel releases when its holder dies: a
    child killed while it claims cannot leave the lock taken.
    Children claim from the front and this process from the back, so
    with tasks sorted largest first it solves the small ones.  A child
    sends its (position, result) pairs once, pickled, down its own pipe.
    An exception in any process empties the range and is raised here as
    it is; a child that dies raises ChildProcessError.  Every child has
    been reaped and every pipe and the lock file closed when the call
    returns or raises.
    """
    import fcntl  # not at import: only a study loads it

    span = memoryview(mmap.mmap(-1, 16)).cast("q")
    span[1] = len(tasks)
    lock = tempfile.TemporaryFile()

    def claim(front: bool, stop: bool = False) -> int | None:
        fcntl.lockf(lock, fcntl.LOCK_EX)
        try:
            lo, hi = span
            if stop or lo >= hi:
                span[0] = hi
                return None
            if front:
                span[0] = lo + 1
                return lo
            span[1] = hi - 1
            return hi - 1
        finally:
            fcntl.lockf(lock, fcntl.LOCK_UN)

    def share(front: bool) -> list:
        done = []
        while (k := claim(front)) is not None:
            done.append((k, fn(tasks[k])))
        return done

    pids, pipes, sent = [], [], []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pipes.append(r)
            try:
                if (pid := os.fork()) == 0:
                    code = 1
                    try:
                        for fd in pipes:
                            os.close(fd)
                        try:
                            payload = (True, share(front=True))
                        except BaseException as exc:
                            claim(True, stop=True)  # the others stop early
                            payload = (False, exc)
                        with open(w, "wb", closefd=False) as out:
                            out.write(pickle.dumps(payload))
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(w)
            pids.append(pid)
        done = share(front=False)
        for r in pipes:
            with open(r, "rb", closefd=False) as src:
                sent.append(src.read())
    finally:
        claim(False, stop=True)
        for fd in pipes:  # a child still writing: EPIPE
            os.close(fd)
        lock.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for pid, code, data in zip(pids, codes, sent):
        if code:
            import signal  # only to name it
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with {code}")
            raise ChildProcessError(f"study worker {pid} {how}")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        done += value
    return [result for _, result in sorted(done, key=lambda kr: kr[0])]


def run_weight_study(
    weight_kind: str,
    n_list,
    reps: int,
    alphas,
    seed: int = 0,
    threads: int | None = None,
    experiment: str = "scaling",
) -> StudyResult:
    """MST weights over a grid of sizes with shared instances across alpha.

    Each instance is n binomial points of the uniform density, scored on
    the a_n = 1 tiling.  The edge set does not depend on alpha, so each
    sampled instance is solved once and scored at every requested
    exponent.

    threads=k runs the replicates in k processes (never more than there
    are tasks): this one and k - 1 children it forks, where os.fork
    exists.  threads=1 runs them here alone.  The default, threads=None,
    uses every usable core when the study has at least _POOL_MIN_POINTS
    points in all (reps * sum(n_list)), this process runs on Linux and
    no other thread runs here, whatever multiprocessing's default start
    method is; otherwise this process runs the study alone.  Children
    take the largest instances first and this process the smallest, one
    at a time, and every child has exited when the call returns.
    Results are folded in task order either way, so the output is
    identical apart from ``runtime_ms``.
    """
    n_list = tuple(int(n) for n in n_list)
    alphas = tuple(float(a) for a in alphas)
    _check_study(n_list, reps, alphas, threads)
    spec_from_kind(weight_kind)  # refuses an unknown kind before any draw
    pos = {n: i for i, n in enumerate(n_list)}
    tasks = [  # largest first
        (weight_kind, n, rep, seed, alphas)
        for n in sorted(n_list, reverse=True)
        for rep in range(reps)
    ]
    if threads is None:  # a lock another thread held stays locked in a child
        forks = (reps * sum(n_list) >= _POOL_MIN_POINTS
                 and sys.platform == "linux" and threading.active_count() == 1)
        threads = len(os.sched_getaffinity(0)) if forks else 1
    workers = min(threads, len(tasks)) if hasattr(os, "fork") else 1
    outcomes = sorted(_fork_map(_study_task, tasks, workers),
                      key=lambda o: (pos[o[0]], o[1]))  # back in task order
    weights = {a: np.empty((len(n_list), reps)) for a in alphas}
    records = []
    for (n, rep, totals, s_alphas, g_count, max_deg, ms) in outcomes:
        for a in alphas:
            weights[a][pos[n], rep] = totals[a]
            records.append(
                {
                    "experiment": experiment,
                    "n": n,
                    "alpha": a,
                    "weight_kind": weight_kind,
                    "seed": seed,
                    "replicate": rep,
                    "mst_weight": totals[a],
                    "max_degree": max_deg,
                    "g_alpha": g_count,
                    "s_alpha": s_alphas[a],
                    "runtime_ms": ms,
                }
            )
    return StudyResult(
        weight_kind=weight_kind,
        n_list=n_list,
        alphas=alphas,
        reps=reps,
        seed=seed,
        records=tuple(records),
        weights=weights,
    )


def _ols_loglog(ns, values) -> tuple[float, float, float]:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    stderr = math.sqrt(float((resid**2).sum()) / dof / sxx)
    return slope, intercept, stderr


def fit_study(study: StudyResult, alpha: float, quantity: str) -> ScalingFit:
    """Log-log slope of the mean MST weight (expect 1 - alpha/2) or of its
    variance (expect 1 - alpha) against n, over one study's sizes."""
    _check_fittable(quantity, study.n_list, study.reps)
    if alpha not in study.weights:
        raise ValueError(f"the study did not score alpha={alpha:g}")
    w = study.weights[alpha]
    if quantity == "mean":
        values = w.mean(axis=1)
        expected = 1.0 - alpha / 2.0
        spec = spec_from_kind(study.weight_kind)
        br = compute_bounds(alpha, 1.0, 1.0, spec.c1, spec.c2)
        lows, highs = zip(*(br.bracket(n) for n in study.n_list))
        inside = bool(
            np.all((values >= np.array(lows)) & (values <= np.array(highs)))
        )
    else:
        values = w.var(axis=1, ddof=1)
        expected = 1.0 - alpha
        lows, highs, inside = (), (), None
    slope, intercept, stderr = _ols_loglog(study.n_list, values)
    return ScalingFit(
        alpha=alpha,
        weight_kind=study.weight_kind,
        quantity=quantity,
        n_list=study.n_list,
        values=tuple(float(v) for v in values),
        reps=study.reps,
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        expected_slope=expected,
        corridor_low=tuple(float(v) for v in lows),
        corridor_high=tuple(float(v) for v in highs),
        in_corridor=inside,
    )
