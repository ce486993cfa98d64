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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.special import gammaln

from .bounds import compute_bounds
from .geometry import (
    Rect,
    Tiling,
    build_tiling,
    cells_of,
    occupancy_grid,
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
    build_hotspot_layout,
    euclidean_spec,
    row_weight_fn,
    spec_from_kind,
)
from .mst import minimum_spanning_tree


class EmptyPointSetError(ValueError):
    pass


class GeometryInfeasibleError(ValueError):
    """The requested planted construction does not fit in the grid."""


# ---------------------------------------------------------------------------
# Gap statistics over the snake order


@dataclass(frozen=True)
class GapStat:
    """Occupied snake indices and the gaps between them.

    gaps[0] = i_1 - 1, middle gaps are successive differences, and the
    last gap is s^2 - i_Q; they always sum to s^2 - 1.  The empty
    configuration is represented by the single gap s^2 - 1.
    """

    s: int
    occupied: tuple[int, ...]
    gaps: tuple[int, ...]

    def s_alpha(self, alpha: float) -> float:
        positive = map(float, filter(None, self.gaps))  # gaps are >= 0
        return math.fsum(map(pow, positive, repeat(alpha)))


def gap_stat(tiling: Tiling, coords: np.ndarray) -> GapStat:
    s = tiling.s
    coords = np.asarray(coords, dtype=float)
    if len(coords) == 0:
        return GapStat(s=s, occupied=(), gaps=(s * s - 1,))
    occ = np.unique(cells_of(tiling, coords))
    gaps = np.diff(np.concatenate(([1], occ, [s * s])))
    return GapStat(s=s, occupied=tuple(occ.tolist()), gaps=tuple(gaps.tolist()))


def gap_stat_monotonicity(
    tiling: Tiling, coords: np.ndarray, alpha: float, extra
) -> tuple[bool, float, float]:
    """Adding a point raises S_alpha when alpha <= 1 and lowers it when
    alpha > 1 (strictly inside an unoccupied cell, equality otherwise).

    Returns (verdict, before, after).
    """
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    before = gap_stat(tiling, coords).s_alpha(alpha)
    added = np.vstack([coords, np.asarray(extra, dtype=float).reshape(1, 2)])
    after = gap_stat(tiling, added).s_alpha(alpha)
    tol = 1e-9 * max(1.0, before)
    if alpha <= 1.0:
        return after >= before - tol, before, after
    return after <= before + tol, before, after


# ---------------------------------------------------------------------------
# Grid-certified lower and upper bounds on the MST weight


def isolated_cell_count(tiling: Tiling, coords: np.ndarray) -> int:
    """Occupied cells whose 8 corner-sharing neighbours are all empty.

    Cells on the grid boundary just use the neighbours they have.
    """
    grid = occupancy_grid(tiling, coords)
    s = tiling.s
    padded = np.zeros((s + 2, s + 2), dtype=bool)
    padded[1:-1, 1:-1] = grid
    neighbour = np.zeros((s, s), dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            neighbour |= padded[1 + dx : s + 1 + dx, 1 + dy : s + 1 + dy]
    return int(np.count_nonzero(grid & ~neighbour))


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
    such cells.  The forcing argument needs nodes outside the cell: when
    the whole configuration sits in a single cell the tree is internal
    and nothing is forced, so G counts zero there.  Point sets of size
    one are rejected outright.
    """
    coords = np.asarray(coords, dtype=float)
    if len(coords) == 1:
        raise ValueError("need zero or at least two points")
    if len(coords) == 0:
        return LowerBoundReport(g_count=0, bound=0.0, mst_weight=0.0, holds=True)
    if len(occupied_cells(tiling, coords)) < 2:
        g = 0
    else:
        g = isolated_cell_count(tiling, coords)
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
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if n == 0:
        raise EmptyPointSetError("the constructed tree needs at least one point")
    idx = cells_of(tiling, coords)
    by_cell: dict[int, list[int]] = {}
    for point, cell in enumerate(idx):
        by_cell.setdefault(int(cell), []).append(point)
    cells = sorted(by_cell)
    edges: list[tuple[int, int]] = []
    reps = []
    for cell in cells:
        members = by_cell[cell]
        rep = min(members)
        reps.append(rep)
        edges.extend((rep, p) for p in members if p != rep)
    edges.extend(zip(reps[:-1], reps[1:]))
    a, b = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    tree_w = row_weight_fn(spec, coords)(a, b).tolist()
    w_uni = math.fsum(map(pow, tree_w, repeat(alpha)))
    s_alpha = gap_stat(tiling, coords).s_alpha(alpha)
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
    nbrs = [int(b) for a, b in zip(full.edge_i, full.edge_j) if a == j]
    nbrs += [int(a) for a, b in zip(full.edge_i, full.edge_j) if b == j]
    f2 = (2.0 * spec.c2) ** alpha * math.fsum(
        float(d_all[v]) ** alpha for v in nbrs
    )
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
    coords1 = np.asarray(coords1, dtype=float).reshape(-1, 2)
    coords2 = np.asarray(coords2, dtype=float).reshape(-1, 2)
    if len(coords1) < 1:
        raise ValueError("the base set must be nonempty")
    base = minimum_spanning_tree(spec, coords1).total_weight(alpha)
    if len(coords2) == 0:
        return MergeReport(merged=base, bound=base, holds=True)
    diff = coords2[:, None, :] - coords1[None, :, :]
    nearest = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
    bound = base + spec.c2**alpha * math.fsum(float(d) ** alpha for d in nearest)
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


def _sample_in_rect(rect: Rect, density: Density, rng) -> np.ndarray:
    """One point from the density restricted to a rectangle, by rejection.

    Kept apart from ``sampling._rejection_sample``: its fixed batches of
    32 proposals scaled into the rectangle set ``prop1_demo``'s
    conditional draws, and no shared batch rule reproduces them.
    """
    env = density.eps2
    for _ in range(100_000):
        pts = rng.random((32, 2))
        pts[:, 0] = rect.xmin + pts[:, 0] * (rect.xmax - rect.xmin)
        pts[:, 1] = rect.ymin + pts[:, 1] * (rect.ymax - rect.ymin)
        u = rng.random(32)
        ok = u * env <= density.values(pts)
        if ok.any():
            return pts[ok][0]
    raise RuntimeError("in-cell rejection sampling failed")


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


def _event_log10(layout: HotspotLayout, level: int, n: int,
                 density: Density) -> float:
    """log10 of the exact probability that n i.i.d. points realize the
    event: a multinomial over (cell_1, ..., cell_m, outside)."""
    lv = layout.level(level)
    m = len(lv.cells)
    log_p = float(gammaln(n + 1) - gammaln(n - m + 1))
    for cell in lv.cells:
        log_p += math.log(density.integral_over(cell))
    log_p += (n - m) * math.log1p(-density.integral_over(lv.big))
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
    layout: HotspotLayout | None = None,
    density: Density | None = None,
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
    process given the event (one density point per cell, the rest
    conditioned outside the big square), and "raw" samples the
    unconditioned process and scans for the event, whose probability is
    so small that zero occurrences is the expected outcome; the report
    carries the exact event probability and the analytic floor.
    """
    if mode not in ("planted", "conditional", "raw"):
        raise ValueError(f"unknown mode {mode!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if density is None:
        density = Density.uniform()
    if layout is None:
        layout = build_hotspot_layout(K, n_levels=max(3, level))
    lv = layout.level(level)
    n = lv.n_level
    m = len(lv.cells)
    spec = WeightSpec(kind="hotspot", c1=1.0 / (16 * K), c2=1.0, layout=layout)
    occurrences = 0
    star_ok = 0
    min_deg = -1
    for rep in range(reps):
        rng = derive_rng(seed, level, rep)
        if mode == "raw":
            coords = sample_binomial(n, density, seed, key=(level, rep)).coords
        else:
            planted = np.empty((m, 2))
            for k, cell in enumerate(lv.cells):
                if mode == "planted":
                    planted[k] = (
                        (cell.xmin + cell.xmax) / 2.0,
                        (cell.ymin + cell.ymax) / 2.0,
                    )
                else:
                    planted[k] = _sample_in_rect(cell, density, rng)
            outside = _rejection_sample(n - m, density, rng, avoid=lv.big)
            coords = np.vstack([planted, outside])
        occurred, v0, special = _detect_event(layout, level, coords)
        if not occurred:
            continue
        occurrences += 1
        result = minimum_spanning_tree(spec, coords)
        special_set = set(special)
        induced = {
            (int(a), int(b))
            for a, b in zip(result.edge_i, result.edge_j)
            if int(a) in special_set and int(b) in special_set
        }
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
        floor_log10=prop1_floor_log10(K, density.eps1, density.eps2),
        event_log10=_event_log10(layout, level, n, density),
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
    s: int | None = None,
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
    max(30g + 11, ceil(sqrt(n))) so the moat always fits, unless an
    explicit s is forced.
    """
    if g < 5:
        raise ValueError("g must be >= 5")
    if n < 100:
        raise ValueError("need at least 100 points")
    alphas = tuple(float(a) for a in (alpha if np.iterable(alpha) else (alpha,)))
    if s is None:
        s = max(30 * g + 11, math.isqrt(n - 1) + 1)
    if 30 * g + 11 > s:
        raise GeometryInfeasibleError(
            f"grid of {s} cells per side cannot host the radius-{15 * g} moat"
        )
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
    background = _rejection_sample(n - 13, Density.uniform(), derive_rng(seed, 1),
                                   avoid=moat)
    center_cell = Rect(cc * side, cc * side, (cc + 1) * side, (cc + 1) * side)
    if x_at_center:
        x_new = np.array([(cc + 0.5) * side, (cc + 0.5) * side])
    else:
        r = derive_rng(seed, 2).random(2)
        x_new = np.array(
            [center_cell.xmin + r[0] * side, center_cell.ymin + r[1] * side]
        )
    coords_old = np.vstack([satellites, background])
    coords_new = np.vstack([coords_old, x_new.reshape(1, 2)])
    new_vertex = len(coords_new) - 1

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
    t_new = minimum_spanning_tree(spec, coords_new)
    old_set = t_old.edge_set()
    new_set = t_new.edge_set()
    added = tuple(sorted(new_set - old_set))
    removed = tuple(sorted(old_set - new_set))
    edge_ok = (
        len(removed) == 0
        and len(added) == 1
        and added[0] == (v_min, new_vertex)
    )
    increments = tuple(
        t_new.total_weight(a) - t_old.total_weight(a) for a in alphas
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


def _study_task(args) -> tuple:
    (kind, n, rep, seed, alphas) = args
    t0 = time.perf_counter()
    coords = sample_binomial(n, Density.uniform(), seed, key=(n, rep)).coords
    tiling = build_tiling(n)
    result = minimum_spanning_tree(spec_from_kind(kind), coords)
    gs = gap_stat(tiling, coords)
    g_count = isolated_cell_count(tiling, coords)
    totals = {a: result.total_weight(a) for a in alphas}
    s_alphas = {a: gs.s_alpha(a) for a in alphas}
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return (n, rep, totals, s_alphas, g_count, result.max_degree, runtime_ms)


def _check_study(n_list, reps: int, alphas) -> None:
    """Refuse a study grid that would be sampled wrongly or not at all."""
    if reps < 2:
        raise ValueError("need at least two replicates")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"repeated size in {list(n_list)}")
    if not all(a > 0 for a in alphas):
        raise ValueError("alpha must be positive")


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
    exponent.  With threads > 1 the replicates run in separate processes;
    results are folded in task order either way, so the output is
    identical.
    """
    n_list = tuple(int(n) for n in n_list)
    alphas = tuple(float(a) for a in alphas)
    _check_study(n_list, reps, alphas)
    tasks = [
        (weight_kind, n, rep, seed, alphas)
        for n in n_list
        for rep in range(reps)
    ]
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_study_task, tasks, chunksize=8))
    else:
        outcomes = [_study_task(t) for t in tasks]
    weights = {a: np.empty((len(n_list), reps)) for a in alphas}
    records = []
    pos = {n: i for i, n in enumerate(n_list)}
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
