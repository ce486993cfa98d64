"""Minimum spanning trees under a deterministic edge order.

Edges are compared by the key kappa(e) = (h(e), i, j) with i < j, so the
tree is unique even when base weights tie (lattice inputs, duplicated
points).  Because x -> x**alpha is strictly increasing, the same edge set
minimizes sum h(e)**alpha for every alpha > 0; algorithms here therefore
sort on base weights only and alpha enters only when scoring a tree.

``minimum_spanning_tree(spec, coords)`` is the production path.  It runs

* ``mst_kruskal`` -- sort all pairs by kappa, then merge components by
  relabelling the smaller one -- up to n = _KRUSKAL_MAX_N, where its
  small constant wins; its pairs are views of one shared read-only table
  of all pairs of _KRUSKAL_MAX_N points, so no call builds them, and
* ``mst_bands`` -- the same kappa-Kruskal, fed its pairs one distance band
  at a time -- above it.

``mst_bands`` is exact, not a heuristic.  Every weight satisfies
h >= lam * d for a constant lam (1 for euclidean and shifted weights, c2
for hotspot pairs without a discount endpoint, whose other pairs come from
full rows).  So all pairs with h below a threshold T lie within distance
T / lam, and a radius search finds them.  Each band adds the pairs with h < T that join
two current components; that is a prefix of the kappa order, less pairs
that Kruskal would reject because they close a cycle.  Running Kruskal
band after band therefore gives the kappa-Kruskal tree itself, and no
certificate is needed.

The radius search runs over strips (Bentley, Stanat and Williams, "The
complexity of finding fixed-radius near neighbors", IPL 1977): points
sorted by x-strip, as wide as the radius R, then by y, each paired with
the points within y +- R in its own and the neighbouring strips.  A
joining pair has an end outside the largest component, so a band
searches from those points.  When they are more than half of all points
(always in the first band, where every component is a single point, and
on thin inputs such as the good-square probe's frame) it searches from
all points instead, and each point looks only at the later points of its
own strip up to y + R and at y +- R in the next strip: every pair is
enumerated once instead of from both ends, over an area of 3 R^2 per
point against the 4.5 R^2 of a half stencil of square cells.  That is
exact too: it yields the same pair set, only without the repeats.  A
candidate's distance is priced first and lifted to its weight only where
the weight can fall below the band's limit (``_weight_fns``).  In every
band after the first, a window whose points all lie in its searcher's
own component is skipped before it is expanded, since none of its pairs
joins two components; so a band that joins nothing, as between far
clusters, enumerates next to no pairs.

A band's joining pairs, in kappa order, are the edges of the component
multigraph, each ranked by its position.  The ranks are distinct, so
Boruvka's algorithm (``_boruvka``, numpy rounds of cheapest edge per
component) picks Kruskal's forest.  It needs no sparse matrix.  Its
picked ranks, sorted, give the band's edges in kappa order, and each
band's edges lie above the last band's, which took every joining pair
below its limit: the tree leaves the solver in kappa order, with no sort
of the finished tree.

A band that follows a stalled band, one that joined no two components,
is the last when at most _FINISH_STRAGGLERS points lie outside the
largest component.  Every pair still to join has an end among those
stragglers, so it prices their full rows (``_straggler_rows``) instead
of searching a radius, cuts each row to its kappa-cheapest pair to each
other component, and Boruvka over those pairs completes the tree.  The
kappa-minimal pair between two components is the cheapest of its own
rows, so the cut drops no edge of Kruskal's forest.  It replaces the
bands that double the radius until it reaches far points, such as the
good-square probe's satellites across their empty moat.

Index dtypes.  numpy 2.4 gathers through an intp index, and selects
through ``np.flatnonzero`` + ``take``, far faster than through an int32
index or a boolean mask.  On the 26 414 first-band pairs of an n = 8192
solve (2-core VM), gathering 8-byte values took 84 us through the int32
pairs, 42 us through intp copies of them and 37 us with ``take``;
selecting a third of them took 140 us with a boolean mask and 38 us with
``flatnonzero`` + ``take``.  So the band solver's index arrays are intp
while a chunk of pairs is searched and priced, and its stored pairs are
int32, to halve their memory; a gather or filter as long as a band goes
through ``_gather`` and ``_select``, which cast or index one _BAND_CHUNK
slice at a time, since an intp copy of a whole band's index would raise
the solver's peak memory.

``mst_with_point(spec, coords, tree, x)`` adds one point to a solved tree
without solving again.  The tree of X and x lies in the tree of X plus
the n pairs of x, its star (Chin and Houck, "Algorithms for updating
minimal spanning trees", JCSS 1978).  A star pair whose h exceeds the
tree's largest weight, other than the kappa-least star pair, is the
kappa-largest edge of the cycle it closes with that pair and the tree
path between them, so it is cut before the sort.  The same kappa sort
and ``_boruvka`` then run over the n - 1 tree edges and the few star
pairs left: on the good-square probe, the twelve satellites.  It is an
update built from the Kruskal core, not another solver, and it returns
the solvers' tree bit for bit.

Two more constructions serve as test oracles:

* ``mst_prim_dense`` -- rowwise Prim, O(n^2) time and O(n) memory.
* ``mst_brute_force`` -- enumerate every labeled spanning tree through
  Prufer sequences (n <= 8) and take the kappa-lexicographic minimum.

All solvers validate their input the same way (``_validate_coords``) and
must agree edge for edge and bit for bit on the base weights; the test
suite leans on that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .bounds import _check_alphas
from .weights import (
    DegenerateEdgeError,
    WeightSpec,
    _weight_fns,
    in_central_cells,
    row_weight_fn,
)

BRUTE_FORCE_MAX_N = 8
_COORD_LIMIT = 1e150
# Largest n that `minimum_spanning_tree` hands to `mst_kruskal`; above it
# `mst_bands` is faster.  Median solve times over 30 uniform instances (3
# calls each) on a 2-core VM, Kruskal / bands, in ms, the range over the
# three weight kinds: n = 96: 0.2-0.3 / 0.7-0.8; n = 128: 0.3-0.4 /
# 0.8-0.9; n = 144: 0.4-0.5 / 0.8-0.9; n = 160: 0.5-0.6 / 0.8; n = 176:
# 0.8-1.0 / 0.8; n = 192: 1.1-1.2 / 0.8-0.9; n = 256: 2.0-2.2 / 0.9.
_KRUSKAL_MAX_N = 160
# Every pair i < j of _KRUSKAL_MAX_N points, in colexicographic order (by
# j, then i), read-only: the pairs of n points are its first n(n - 1)/2
# entries, so the small-n paths take views instead of building them.
_PAIR_J, _PAIR_I = np.tril_indices(_KRUSKAL_MAX_N, k=-1)
_PAIR_I.flags.writeable = _PAIR_J.flags.writeable = False
# Pairs priced at once by a grid chunk or a block of rows.
_BAND_CHUNK = 1 << 14
# A band keeps pairs with h < lam * R * (1 - _BAND_SLACK), so that float
# rounding can never put such a pair outside the radius-R search.
_BAND_SLACK = 1e-9
# A band after one that joined no two components finishes the tree from
# the full rows of the points outside the largest component when there
# are at most this many.  Rows cost about 0.2 ms per straggler at
# n = 10 000 however many bands they replace.  On a 2-core VM, finishing
# band / the grid bands it replaced, in ms, n = 10 000: k satellites on
# the good-square ring, k = 12: 2.8 / 20.0 (5 bands); k = 32: 7.1 / 53.7
# (3); k = 96: 17.5 / 119 (4).  k points in empty discs that one more band
# reaches, k = 8: 1.9-2.1 / 1.3-1.9; k = 16: 4.0 / 2.5.  So the rows win
# unless one band would do, and the cap bounds that loss to a few ms.
_FINISH_STRAGGLERS = 32
# The search radius R is at least span / _GRID_CELLS, so there are at most
# _GRID_CELLS + 1 strips.  The strip search's float key, strip * W + (y -
# lo_y) with W a power of two at most 4 (span + R), then stays below about
# 2^22 (span + R) <= 2^42 R, where an ulp is about 2^-10 R.  A key and a
# window bound each carry at most a few roundings of half an ulp, so
# widening each window by 8 ulps of the largest key (at most about 2^-7 R)
# misses no pair closer than R.  The strip index's own rounding, about
# 2^-31 of a strip, is absorbed by strips 2^-20 wider than R.
_GRID_CELLS = 1 << 20


class TooLargeForBruteForceError(ValueError):
    pass


class InvalidCoordinatesError(ValueError):
    """Coordinates that are not an (n, 2) array of distinct points, each
    coordinate finite and at most 1e150 in magnitude."""


class DuplicatePointsError(InvalidCoordinatesError):
    """Coincident points make h(u, v) = 0, which the weight band forbids."""

    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"points {i} and {j} coincide")


def _reject_duplicates(coords: np.ndarray) -> None:
    x = np.sort(coords[:, 0])
    tie = x[1:] == x[:-1]
    if not tie.any():
        return  # all x distinct, so no two points coincide
    # only points that share their x can coincide; sorting them by (x, y)
    # and index finds the same first pair as sorting all points would
    rows = np.flatnonzero(np.isin(coords[:, 0], x[1:][tie]))
    order = rows[np.lexsort((coords[rows, 1], coords[rows, 0]))]
    same = np.all(coords[order[1:]] == coords[order[:-1]], axis=1)
    hit = np.flatnonzero(same)
    if len(hit):
        a, b = int(order[hit[0]]), int(order[hit[0] + 1])
        raise DuplicatePointsError(min(a, b), max(a, b))


def _validate_coords(coords) -> np.ndarray:
    """The solvers' shared input check; returns coords as a float array."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidCoordinatesError(
            f"coordinates must have shape (n, 2), got {coords.shape}"
        )
    # one pass rejects NaN and inf too; below the limit no squared
    # distance overflows, so every weight is finite
    if len(coords) and not np.abs(coords).max() <= _COORD_LIMIT:
        bad = np.flatnonzero(~(np.abs(coords) <= _COORD_LIMIT).all(axis=1))[0]
        raise InvalidCoordinatesError(
            f"point {bad} is not finite or exceeds {_COORD_LIMIT:g} in magnitude"
        )
    _reject_duplicates(coords)
    return coords


def _power_sum(values, alpha: float) -> float:
    """The exactly rounded sum of v**alpha over Python floats.

    Every score is priced here: Python's pow, not np.power, whose SIMD
    loops may round differently, and math.fsum, whose result does not
    depend on the order of the terms.  At alpha = 1 the powers are
    skipped, which moves no bit: pow(v, 1.0) == v for every positive float
    (the tests check it from the subnormals to the largest).
    """
    if alpha == 1.0:
        return math.fsum(values)
    return math.fsum(map(pow, values, repeat(alpha)))


@dataclass(frozen=True)
class MstResult:
    """A spanning tree with kappa-sorted edge arrays."""

    n: int
    edge_i: np.ndarray  # int, i < j
    edge_j: np.ndarray
    base_weights: np.ndarray

    def total_weight(self, alpha: float) -> float:
        return _power_sum(self.base_weights.tolist(), alpha)

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.edge_i, 1)
        np.add.at(deg, self.edge_j, 1)
        return deg

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n > 1 else 0

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.edge_i.tolist(), self.edge_j.tolist()))


def _tree(n: int, ei: np.ndarray, ej: np.ndarray, w: np.ndarray) -> MstResult:
    """A solver's tree, its edges in kappa order, so w[0] is its lightest
    weight.  That is 0 only where dx*dx + dy*dy underflows between two
    distinct points, below about 1e-154 apart; ``pair_weight`` refuses
    such a pair, and so does every solver."""
    if len(w) and w[0] == 0:
        raise DegenerateEdgeError(
            f"points {ei[0]} and {ej[0]} are distinct, but their weight underflows to 0"
        )
    return MstResult(n, ei, ej, w)


def _sorted_result(n: int, ei=(), ej=(), w=()) -> MstResult:
    """The tree with edges (ei, ej, w), ei < ej, sorted into kappa order
    for the oracles; no edges by default."""
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    w = np.asarray(w, dtype=float)
    order = _kappa_order(ei, ej, w)
    return _tree(n, ei[order], ej[order], w[order])


def mst_prim_dense(spec: WeightSpec, coords: np.ndarray) -> MstResult:
    coords = _validate_coords(coords)
    n = len(coords)
    if n <= 1:
        return _sorted_result(n)
    row = row_weight_fn(spec, coords)
    in_tree = np.zeros(n, dtype=bool)
    best_w = np.full(n, np.inf)
    best_i = np.full(n, -1, dtype=np.int64)
    best_j = np.full(n, -1, dtype=np.int64)
    in_tree[0] = True
    w0 = row(0)
    best_w[1:] = w0[1:]
    best_i[1:] = 0
    best_j[1:] = np.arange(1, n)
    out_i = np.empty(n - 1, np.int64)
    out_j = np.empty(n - 1, np.int64)
    out_w = np.empty(n - 1, float)
    masked = best_w.copy()
    masked[0] = np.inf
    for step in range(n - 1):
        m = masked.min()
        cand = np.flatnonzero(masked == m)
        if len(cand) > 1:
            pick = np.lexsort((best_j[cand], best_i[cand]))[0]
            v = int(cand[pick])
        else:
            v = int(cand[0])
        out_i[step], out_j[step], out_w[step] = best_i[v], best_j[v], best_w[v]
        in_tree[v] = True
        masked[v] = np.inf
        wv = row(v)
        lo = np.minimum(v, np.arange(n))
        hi = np.maximum(v, np.arange(n))
        strictly = wv < best_w
        tied = (wv == best_w) & (
            (lo < best_i) | ((lo == best_i) & (hi < best_j))
        )
        upd = (strictly | tied) & ~in_tree
        best_w[upd] = wv[upd]
        best_i[upd] = lo[upd]
        best_j[upd] = hi[upd]
        masked[upd] = wv[upd]
    return _sorted_result(n, out_i, out_j, out_w)


def _merges(n: int, ii: np.ndarray, jj: np.ndarray, order: np.ndarray):
    """Kruskal's union loop over the pairs (ii[k], jj[k]) of n points,
    taken in ``order``; stops after n - 1 merges.

    Yields (k, members_a, members_b) for each pair k that joins two
    components, members_a the larger; the lists are valid until the next
    step.  Each point carries its component's label and each component a
    list of its members; a union relabels the smaller component (weighted
    union, Cormen et al., Introduction to Algorithms, section 21.2).  The
    order is read in slices of 2n pairs, then twice as many each time,
    since the last merge usually comes early in it.
    """
    label = list(range(n))
    members = [[v] for v in range(n)]
    left = n - 1
    start, step = 0, 2 * n
    while start < len(order):
        part = order[start:start + step]
        for k, a, b in zip(part.tolist(), ii[part].tolist(), jj[part].tolist()):
            la, lb = label[a], label[b]
            if la == lb:
                continue
            if len(members[la]) < len(members[lb]):
                la, lb = lb, la
            yield k, members[la], members[lb]
            for v in members[lb]:
                label[v] = la
            members[la] += members[lb]
            left -= 1
            if left == 0:
                return
        start += step
        step *= 2


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs i < j of n points, as (i, j) index arrays."""
    if n > _KRUSKAL_MAX_N:
        return np.triu_indices(n, k=1)
    m = n * (n - 1) // 2
    return _PAIR_I[:m], _PAIR_J[:m]


def mst_kruskal(spec: WeightSpec, coords: np.ndarray) -> MstResult:
    coords = _validate_coords(coords)
    n = len(coords)
    if n <= 1:
        return _sorted_result(n)
    ii, jj = _pairs(n)
    ww = row_weight_fn(spec, coords)(ii, jj)
    # Kruskal's picks, in kappa order
    k = [k for k, _, _ in _merges(n, ii, jj, _kappa_order(ii, jj, ww))]
    return _tree(n, ii[k], jj[k], ww[k])


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Interleave zeros between the low 32 bits of each value (Morton)."""
    v = v & 0xFFFFFFFF
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def _initial_radius(coords: np.ndarray, lo: np.ndarray, span: float) -> float:
    """A search radius at which most points already join one component.

    Neighbours along the Morton (Z-order) curve are near each other in the
    plane at every scale, so the median gap between them tracks the typical
    nearest-neighbour distance, also for clustered or rescaled points.  On
    uniform points 1.5 gaps are about 3 median nearest-neighbour distances,
    where the first band already forms a giant component; at 2 distances
    it does not, and the second band then searches from nearly every point.
    """
    q = np.floor((coords - lo) * ((_GRID_CELLS - 1) / span)).astype(np.int64)
    order = np.argsort(_spread_bits(q[:, 0]) | (_spread_bits(q[:, 1]) << 1))
    # one contiguous column each: dx*dx + dy*dy in the order a row sum adds
    dx, dy = (np.diff(coords[:, k].take(order)) for k in (0, 1))
    return 1.5 * float(np.median(np.sqrt(dx * dx + dy * dy)))


def _kappa_order(i, j, h) -> np.ndarray:
    """Argsort of the pairs (i, j) by kappa = (h, i, j)."""
    order = np.argsort(h)
    sorted_h = h[order]
    tie = sorted_h[1:] == sorted_h[:-1]
    if tie.any():  # (i, j) decides, but only inside the runs of equal h
        edge = np.concatenate(([False], tie, [False]))
        at = np.flatnonzero(edge[:-1] | edge[1:])  # positions in a run
        sub = order[at]
        order[at] = sub[np.lexsort((j[sub], i[sub], sorted_h[at]))]
    return order


def _grid_neighbours(coords, lo, cell, search, comp=None):
    """Yield (s, p) chunks of pairs found by a strip search of radius
    ``cell`` (Bentley, Stanat and Williams, "The complexity of finding
    fixed-radius near neighbors", IPL 1977), as intp index arrays.

    Points are sorted by x-strip, ``cell`` wide, then by y, under one
    float key: strip * width + (y - lo_y), with ``width`` a power of two
    above the y span plus two radii.  So the points of one strip within a
    y-window are one contiguous range of the sorted order, and the window
    never reaches into another strip.  Every pair closer than ``cell``
    lies in one strip or two adjacent ones, with y within ``cell``; each
    window is widened by a few ulps of the largest key, which covers the
    key's rounding (see _GRID_CELLS).

    * A subset ``search`` takes three windows, y +- ``cell`` in its own
      strip and in both neighbouring strips: each s is paired with every
      point p (itself included) there, an area of 6 cell^2.  So every
      pair closer than ``cell`` with an end in ``search`` comes out, and
      one with both ends there comes out twice.
    * When ``search`` holds every point, the point at sorted position pos
      takes two windows: [pos + 1, y + ``cell``] in its own strip and
      y +- ``cell`` in the next strip, 3 cell^2.  A pair within one strip
      is then found only from its earlier point, and one across two
      strips only from its left point.  So each pair closer than ``cell``
      comes out exactly once, and s != p.  ``_band_forest`` passes every
      point while more than half of them lie outside the largest
      component: half of all near pairs are then fewer than the three
      windows yield from the points outside it.

    Given the component labels ``comp``, a window whose points all lie in
    its searcher's own component is skipped before it is expanded: none
    of its pairs joins two components.  A prefix count of component
    changes along the sorted order tests each window in O(1).  Without
    ``comp`` every window is expanded, as in the first band, where every
    component is a single point.

    A chunk holds about _BAND_CHUNK pairs, more only when one point's
    windows alone hold more.
    """
    off = coords[:, 1] - lo[1]
    # strips a hair wider than the radius: the index's rounding never puts
    # two points less than ``cell`` apart in x two strips apart
    strip = np.floor((coords[:, 0] - lo[0]) / (cell * (1 + 2.0**-20)))
    width = math.ldexp(1.0, math.frexp(float(off.max()) + 2 * cell)[1])
    key = strip * width + off
    reach = cell + 8 * float(np.spacing((strip.max() + 2) * width))
    del strip, off
    order = np.argsort(key)
    sorted_key = key.take(order)
    if comp is not None:
        sorted_comp = comp.take(order)
        # changes[k]: how many times the component changes before position k
        changes = np.zeros(len(order), dtype=np.int32)
        np.cumsum(sorted_comp[1:] != sorted_comp[:-1], dtype=np.int32,
                  out=changes[1:])
    half = len(search) == len(coords)
    if half:
        search = order  # position k of search is sorted position k
        strips = np.array([0.0, width])
    else:
        search = np.asarray(search, dtype=np.intp)
        search = search.take(np.argsort(key.take(search)))  # in key order too
        strips = width * np.arange(-1.0, 2.0)
    # blocks of points keep the per-point range arrays small too
    for at in np.array_split(np.arange(len(search)),
                             -(-len(search) // (_BAND_CHUNK // 16))):
        block = search.take(at)
        # one row per strip: each row of bounds ascends with the sorted
        # order, which searchsorted walks faster than interleaved bounds
        around = key.take(block) + strips[:, None]
        if half:  # the own-strip window starts right after the point
            start = np.concatenate(
                (at + 1, np.searchsorted(sorted_key, around[1] - reach)))
        else:
            start = np.searchsorted(sorted_key, around - reach).ravel()
        length = np.searchsorted(sorted_key, around + reach, side="right").ravel()
        length -= start
        owner = np.tile(block, len(strips))
        if comp is not None:
            # positions inside the order; an empty window stays empty
            first = np.minimum(start, len(order) - 1)
            last = np.maximum(start + length - 1, 0)
            own = ((changes.take(first) == changes.take(last))
                   & (sorted_comp.take(first) == comp.take(owner)))
            np.putmask(length, own, 0)
        if length.sum() <= _BAND_CHUNK:  # one chunk: no split to find
            parts = [(owner, start, length)]
        else:
            cuts = np.flatnonzero(np.diff((np.cumsum(length) - length) // _BAND_CHUNK))
            parts = ((owner.take(part), start.take(part), length.take(part))
                     for part in np.split(np.arange(len(length)), cuts + 1))
        for who, begin, ln in parts:
            run = np.cumsum(ln) - ln
            pos = np.arange(run[-1] + ln[-1]) + np.repeat(begin - run, ln)
            yield np.repeat(who, ln), order.take(pos)


def _gather(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """x[index] for an index as long as a band, such as its int32 pairs:
    cast to intp a _BAND_CHUNK slice at a time, so that no intp copy of
    the whole index is made.  An index of at most _BAND_CHUNK entries, as
    in most of Boruvka's rounds, is cast whole and taken at once: that
    copy is no larger than one slice."""
    if len(index) <= _BAND_CHUNK:
        return x.take(index.astype(np.intp))
    out = np.empty(len(index), x.dtype)
    for k in range(0, len(index), _BAND_CHUNK):
        out[k:k + _BAND_CHUNK] = x.take(index[k:k + _BAND_CHUNK].astype(np.intp))
    return out


def _select(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """[a[keep] for a in arrays], for a boolean ``keep``, through
    flatnonzero + take a _BAND_CHUNK slice at a time: no index as long
    as ``keep`` is made."""
    if len(keep) <= _BAND_CHUNK:
        at = np.flatnonzero(keep)
        return [a.take(at) for a in arrays]
    out = [np.empty(np.count_nonzero(keep), a.dtype) for a in arrays]
    end = 0
    for k in range(0, len(keep), _BAND_CHUNK):
        at = np.flatnonzero(keep[k:k + _BAND_CHUNK])
        for a, o in zip(arrays, out):
            o[end:end + len(at)] = a[k:k + _BAND_CHUNK].take(at)
        end += len(at)
    return out


def _boruvka(n_comp: int, a: np.ndarray, b: np.ndarray):
    """Minimum spanning forest of ``n_comp`` components joined by the
    int32 edges (a[k], b[k]), a[k] != b[k], where edge k has rank k.

    Returns the picked positions k, sorted, the new component count and
    each old component's new label.  Ranks are distinct, so the forest is
    unique and Boruvka's rounds (Boruvka 1926; Nesetril et al., "Otakar
    Boruvka on minimum spanning tree problem", 2001) pick the edges
    Kruskal picks in rank order.  Each round every component points across
    its cheapest edge; two components that pick the same edge point at
    each other, and the smaller label becomes their root.  Pointer jumping
    then finds each component's root, and edges inside one new component
    are dropped.
    """
    label = np.arange(n_comp, dtype=np.int32)
    pos = np.arange(len(a), dtype=np.int32)
    picked = []
    # spent arrays are dropped at once: in the first band n_comp = n
    while len(pos):
        best = np.full(n_comp, len(pos), dtype=np.int32)
        rank = np.arange(len(pos), dtype=np.int32)
        np.minimum.at(best, a, rank)
        np.minimum.at(best, b, rank)
        del rank
        src = np.flatnonzero(best < len(pos))
        e = best.take(src).astype(np.intp)
        del best
        chosen = np.zeros(len(pos), dtype=bool)
        chosen[e] = True  # a mutual pair picks its edge twice
        picked.append(pos.take(np.flatnonzero(chosen)))
        del chosen
        idx = np.arange(n_comp, dtype=np.int32)
        parent = idx.copy()
        ea, eb = a.take(e), b.take(e)
        parent[src] = np.where(ea == src, eb, ea)
        del src, e, ea, eb
        mutual = (_gather(parent, parent) == idx) & (idx < parent)
        np.putmask(parent, mutual, idx)
        del mutual
        while True:
            up = _gather(parent, parent)
            if np.array_equal(up, parent):
                break
            parent = up
        new = np.cumsum(parent == idx, dtype=np.int32)
        new -= 1
        n_comp = int(new[-1]) + 1
        new = _gather(new, parent)
        del parent, idx
        label = _gather(new, label)
        a, b = _gather(new, a), _gather(new, b)
        a, b, pos = _select(a != b, a, b, pos)
    return (np.sort(np.concatenate(picked)) if picked else pos), n_comp, label


def _straggler_rows(weigh, comp, search):
    """Every pair that joins two components and has an end in ``search``,
    cut to the cheapest few, as (i, j, h) arrays with i < j.

    The points of ``search`` are priced against every point, in blocks of
    at most _BAND_CHUNK pairs (one row, where a row alone holds more).  A
    pair with both ends in ``search`` is taken from its lower-index end
    only, so each pair comes out once.  Each row is cut to its
    kappa-minimal pair to each other component.  The pairs (s, p) of one
    row that tie in h are in kappa order by p, so over the points sorted
    by (component, index) that pair is the first of the tied minima: a
    minimum-reduce over each component's run, with no sort.  The
    kappa-minimal pair between two components is also the cheapest of the
    row it is taken from, so it is among the pairs returned.
    """
    n = len(comp)
    order = np.argsort(comp, kind="stable")
    run_comp = comp.take(order)
    first = np.flatnonzero(np.concatenate(([True], run_comp[1:] != run_comp[:-1])))
    run = np.diff(first, append=n)
    searched = np.zeros(n, dtype=bool)
    searched[search] = True
    in_search = searched.take(order)
    at = np.arange(n)
    found = []
    step = max(1, _BAND_CHUNK // n)
    for k in range(0, len(search), step):
        s = search[k:k + step, None]
        h = weigh(s, order)
        np.putmask(h, (run_comp == comp.take(s)) | (in_search & (order < s)), np.inf)
        least = np.minimum.reduceat(h, first, axis=1)
        tied = h == np.repeat(least, run, axis=1)
        del h
        pick = np.minimum.reduceat(np.where(tied, at, n), first, axis=1)
        row, group = np.nonzero(least < np.inf)
        s, p = s[row, 0], order[pick[row, group]]
        found.append((np.minimum(s, p), np.maximum(s, p), least[row, group]))
    return (np.concatenate(col) for col in zip(*found))


def _band_forest(weights, coords, lo, cell, comp, n_comp, cheap, limit, stalled):
    """Run kappa-Kruskal over one band: the pairs with h < limit that join
    two of the ``n_comp`` components labelled by ``comp``.

    Returns the tree edges (i, j, h) it adds, in kappa order, the new
    component count and the new labels.

    Every pair that joins two components has an end outside the largest
    one.  While at most half the points lie outside it, the radius search
    starts from those points, with three windows each.  When more lie
    outside, as in the first band, where every component is a single
    point, it starts from all points: two windows each then yield each
    pair once, at less cost than three windows from most points, and
    pairs inside one component are dropped.  The pair set is the same
    either way.  Pairs with a discount end come from that end's full row
    instead.  ``weights`` is the pair (row, price) of `_weight_fns`: the
    searched pairs are priced distance first, the rows by ``row``.

    After a ``stalled`` band, one that joined no two components, with at
    most _FINISH_STRAGGLERS points outside the largest component, the band
    is the last: it takes every pair, whatever ``limit``, from those
    points' full rows, each cut to its cheapest pair to each other
    component (`_straggler_rows`), and no strip search runs.

    The band's joining pairs, in kappa order, are the edges of the
    component multigraph, each ranked by its position.  The ranks are
    distinct, so Boruvka (`_boruvka`) picks Kruskal's forest.
    """
    weigh, price = weights
    n = len(comp)
    singles = n_comp == n
    has_cheap = cheap.any()
    found = []

    def keep(s, p, h):  # stored as int32 pairs
        s, p = s.astype(np.int32), p.astype(np.int32)
        found.append((np.minimum(s, p), np.maximum(s, p), h))

    search = np.arange(n)
    if not singles:
        sizes = np.bincount(comp)
        giant = sizes.argmax()
        if 2 * (n - sizes[giant]) <= n:
            search = np.flatnonzero(comp != giant)
    wide = len(search) == n
    if stalled and not wide and len(search) <= _FINISH_STRAGGLERS:
        # their rows hold every joining pair, discount pairs included
        i, j, h = _straggler_rows(weigh, comp, search)
    else:
        for s, p in _grid_neighbours(coords, lo, cell, search,
                                     None if singles else comp):
            if not singles:
                cp = comp.take(p)
                joins = comp.take(s) != cp
                if not wide:  # a pair with both ends searched is found twice
                    joins &= (cp == giant) | (s < p)
                s, p = _select(joins, s, p)
            if has_cheap:  # a pair with a discount end comes from that end's row
                s, p = _select(~(cheap.take(s) | cheap.take(p)), s, p)
            keep(*price(s, p, limit))
        for k in np.flatnonzero(cheap):
            other = comp != comp[k]
            other[:k] &= ~cheap[:k]
            p = np.flatnonzero(other)
            h = weigh(k, p)
            p, h = _select(h < limit, p, h)
            keep(np.full(len(p), k), p, h)
        # arrays are dropped as soon as they are spent: the first band's
        # transients set the solver's peak memory
        i, j, h = (np.concatenate(col) for col in zip(*found))
        del found
    del search
    by_kappa = _kappa_order(i, j, h)
    i, j, h = i.take(by_kappa), j.take(by_kappa), h.take(by_kappa)
    del by_kappa
    # in the first band comp is the identity, so the pairs are their own
    # component pairs
    if singles:
        picked, n_comp, comp = _boruvka(n_comp, i, j)
    else:
        picked, n_comp, label = _boruvka(n_comp, _gather(comp, i), _gather(comp, j))
        comp = _gather(label, comp)
    picked = picked.astype(np.intp)
    return (i.take(picked), j.take(picked), h.take(picked)), n_comp, comp


def mst_bands(spec: WeightSpec, coords: np.ndarray) -> MstResult:
    """Kappa-Kruskal fed its pairs one distance band at a time.

    Band k takes the pairs with h < lam * R_k (less a tiny slack) that join
    two current components, where h >= lam * d holds for every pair the
    strip search has to find: lam = 1 for euclidean and shifted weights,
    c2 for hotspot pairs without a discount end (pairs with one come from
    that end's full row).  So a strip search of radius R_k finds the band,
    and Kruskal over it, in kappa order, continues the kappa-Kruskal run
    exactly (see the module docstring).  R_0 follows the point spacing and
    R doubles each band until one component is left, or until the band
    after one that joined nothing finishes from the stragglers' full rows
    (see `_band_forest`).
    """
    coords = _validate_coords(coords)
    n = len(coords)
    if n <= 1:
        return _sorted_result(n)
    weights = _weight_fns(spec, coords)
    cheap = in_central_cells(spec, coords)
    # taken from the weight functions themselves, not the declared band
    lam = spec.c2 if spec.kind == "hotspot" else 1.0
    # column by column: numpy's reduction along axis 0 of an (n, 2) array
    # is about 12 times slower than one over each strided column
    x, y = coords[:, 0], coords[:, 1]
    lo = np.array([x.min(), y.min()])
    span = float(max(x.max() - lo[0], y.max() - lo[1]))
    # h / d is typically near the band's geometric mean
    radius = _initial_radius(coords, lo, span) * math.sqrt(spec.c2 / lam)
    # the strips, radius wide, must not be finer than span / _GRID_CELLS
    radius = max(radius, span / _GRID_CELLS)
    comp = np.arange(n, dtype=np.int32)
    n_comp = n
    tree: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    stalled = False
    while n_comp > 1:
        limit = lam * radius * (1.0 - _BAND_SLACK)
        edges, left, comp = _band_forest(
            weights, coords, lo, radius, comp, n_comp, cheap, limit, stalled
        )
        stalled = left == n_comp
        n_comp = left
        tree.append(edges)
        radius *= 2.0
    ei, ej, w = (np.concatenate(col) for col in zip(*tree))
    return _tree(n, ei.astype(np.int64), ej.astype(np.int64), w)


@lru_cache(maxsize=8)
def _all_trees_by_prufer(n: int) -> np.ndarray:
    """Edge arrays of all n**(n-2) labeled trees, shape (T, n-1, 2), i < j."""
    if n == 2:
        return np.array([[[0, 1]]], dtype=np.int64)
    seq_len = n - 2
    t_count = n**seq_len
    grids = np.meshgrid(*([np.arange(n)] * seq_len), indexing="ij")
    seqs = np.stack([g.ravel() for g in grids], axis=1)  # (T, n-2)
    degree = np.ones((t_count, n), dtype=np.int64)
    np.add.at(degree.reshape(-1), seqs + n * np.arange(t_count)[:, None], 1)
    rows = np.arange(t_count)
    edges = np.empty((t_count, n - 1, 2), dtype=np.int64)
    for k in range(seq_len):
        leaf = np.argmax(degree == 1, axis=1)  # smallest index with degree 1
        u = seqs[:, k]
        edges[:, k, 0] = np.minimum(leaf, u)
        edges[:, k, 1] = np.maximum(leaf, u)
        degree[rows, leaf] -= 1
        degree[rows, u] -= 1
    last = np.nonzero(degree == 1)[1].reshape(t_count, 2)
    edges[:, seq_len, 0] = last[:, 0]
    edges[:, seq_len, 1] = last[:, 1]
    return edges


def mst_brute_force(spec: WeightSpec, coords: np.ndarray) -> MstResult:
    """Exact minimum over all labeled spanning trees; n <= 8 only.

    The winner is the tree whose sorted kappa sequence is
    lexicographically smallest; that tree simultaneously minimizes
    sum h(e)**alpha for every alpha > 0.
    """
    coords = _validate_coords(coords)
    n = len(coords)
    if n > BRUTE_FORCE_MAX_N:
        raise TooLargeForBruteForceError(
            f"{n} points would need {n**(n - 2)} trees; max n is "
            f"{BRUTE_FORCE_MAX_N}"
        )
    if n <= 1:
        return _sorted_result(n)
    trees = _all_trees_by_prufer(n)
    row = row_weight_fn(spec, coords)
    tree_w = row(trees[:, :, 0], trees[:, :, 1])  # (T, n-1)
    sums = tree_w.sum(axis=1)
    cutoff = sums.min() + 1e-9 * max(1.0, abs(sums.min()))
    cand = np.flatnonzero(sums <= cutoff)
    best_key = None
    best_idx = -1
    for t in cand:
        key = sorted(
            (float(tree_w[t, k]), int(trees[t, k, 0]), int(trees[t, k, 1]))
            for k in range(n - 1)
        )
        if best_key is None or key < best_key:
            best_key = key
            best_idx = int(t)
    return _sorted_result(
        n, trees[best_idx, :, 0], trees[best_idx, :, 1], tree_w[best_idx]
    )


def minimum_spanning_tree(spec: WeightSpec, coords: np.ndarray) -> MstResult:
    small = len(coords) <= _KRUSKAL_MAX_N
    return (mst_kruskal if small else mst_bands)(spec, coords)


def mst_with_point(
    spec: WeightSpec, coords: np.ndarray, tree: MstResult, x
) -> MstResult:
    """The kappa-unique tree of coords with the point x added at index n.

    ``tree`` must be the tree of ``coords`` that the solvers return.  The
    new tree lies in ``tree`` plus the star of x (Chin and Houck,
    "Algorithms for updating minimal spanning trees", 1978): every other
    pair of the old points is the kappa-largest edge of a cycle in
    ``tree``, and that cycle is still there.  Of the star, only the pairs
    with h at most the tree's largest weight, and the kappa-least pair,
    can join: any other star pair lies above every tree edge and above
    the kappa-least star pair, so it is the kappa-largest edge of the
    cycle it closes with that pair and the tree path between their ends.
    Kruskal over the tree and the kept star pairs, as Boruvka rounds over
    their kappa ranks, gives the tree of all n + 1 points.  Old pairs keep
    their indices and recorded weights, and the star is priced as every
    solver prices its pairs, so the result is edge for edge and bit for
    bit the one a solve returns.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if tree.n != n:
        raise ValueError(f"a tree of {tree.n} points, but {n} coordinates")
    coords = _validate_coords(np.vstack([coords, np.reshape(x, (1, 2))]))
    h = row_weight_fn(spec, coords)(np.arange(n), n)
    # the star pairs that can join: h up to the tree's largest weight, ties
    # kept, or else the cheapest one alone
    star = np.flatnonzero(h <= np.max(tree.base_weights, initial=-np.inf))
    if n and not len(star):
        star = np.argmin(h, keepdims=True)  # first of ties: kappa-least
    ii = np.concatenate([tree.edge_i, star])
    jj = np.concatenate([tree.edge_j, np.full(len(star), n)])
    ww = np.concatenate([tree.base_weights, h.take(star)])
    order = _kappa_order(ii, jj, ww)
    picked, _, _ = _boruvka(n + 1, ii.take(order).astype(np.int32),
                            jj.take(order).astype(np.int32))
    picked = order.take(picked.astype(np.intp))
    return _tree(n + 1, ii.take(picked), jj.take(picked), ww.take(picked))


class NotASpanningTreeError(ValueError):
    """An edge set given as a tree that is not a spanning tree of the
    points: a wrong edge or weight count, an endpoint out of range, or
    edges that close a cycle."""


def verify_path_criterion(
    spec: WeightSpec, coords: np.ndarray, result: MstResult
) -> tuple[bool, tuple[int, int] | None]:
    """Check the tree against every non-tree pair.

    T is the minimum tree iff for each non-tree pair e = (i, j), every
    edge f on the tree path between i and j satisfies kappa(f) < kappa(e).
    The check replays Kruskal over the tree's own edges in kappa order
    (Komlos, "Linear verification for spanning trees", 1985): the edge f
    that joins components A and B is the largest on the tree path of
    every pair in A x B, so no other pair there may have a smaller kappa.
    Each pair is priced once, in numpy blocks of at most _BAND_CHUNK
    pairs: O(n^2) work, a few thousand points in well under a second.

    Returns (True, None) or (False, witness), the lexicographically first
    violating pair.  The tree's own edges are priced too: a recorded
    weight that is not bit-identical to h of its edge is the witness.  The
    coordinates are checked as the solvers check theirs, and an edge set
    that is not a spanning tree raises NotASpanningTreeError.
    """
    coords = _validate_coords(coords)
    n = len(coords)
    ei, ej = np.asarray(result.edge_i), np.asarray(result.edge_j)
    want = max(n - 1, 0)
    if not len(ei) == len(ej) == len(result.base_weights) == want:
        raise NotASpanningTreeError(
            f"a spanning tree of {n} points has {want} edges and weights, "
            f"got {len(ei)}, {len(ej)} and {len(result.base_weights)}"
        )
    outside = np.flatnonzero((ei < 0) | (ei >= n) | (ej < 0) | (ej >= n))
    if len(outside):
        k = outside[0]
        raise NotASpanningTreeError(f"edge {k} ({ei[k]}, {ej[k]}) leaves 0..{n - 1}")
    if n < 2:
        return True, None
    lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
    row = row_weight_fn(spec, coords)
    w = row(lo, hi)
    first = n * n  # the key lo * n + hi of the first violating pair
    merges = 0
    for k, big, small in _merges(n, lo, hi, _kappa_order(lo, hi, w)):
        merges += 1
        big, small = np.array(big), np.array(small)
        h_f, key_f = w[k], int(lo[k]) * n + int(hi[k])
        step = max(1, _BAND_CHUNK // len(big))
        for at in range(0, len(small), step):
            s = small[at:at + step, None]
            h = row(s, big)
            key = np.minimum(s, big) * n + np.maximum(s, big)
            bad = (h < h_f) | ((h == h_f) & (key < key_f))
            first = int(key.min(initial=first, where=bad))
    if merges < want:
        raise NotASpanningTreeError(
            f"the {want} edges close a cycle, so they do not span {n} points"
        )
    mispriced = np.flatnonzero(w != result.base_weights)
    if len(mispriced):
        k = mispriced[0]
        return False, (int(ei[k]), int(ej[k]))
    return (True, None) if first == n * n else (False, divmod(first, n))


def alpha_invariance_check(
    spec: WeightSpec, coords: np.ndarray, alphas=(0.5, 1.0, 2.0, 3.0)
) -> bool:
    """Confirm that the kappa tree of h is a minimum tree of w = h**alpha
    for each alpha in ``alphas``.

    The check builds no tree.  It sorts the weights h of all pairs once
    and passes an alpha iff w = h_sorted**alpha is nondecreasing.  That is
    exact: Kruskal's algorithm (Kruskal 1956) returns a minimum tree for
    any order of the pairs by nondecreasing weight, however it breaks
    ties.  When w is nondecreasing along the sorted h, the kappa order of
    h is such an order for w, so the kappa tree of h, which Kruskal builds
    from that order, is a minimum tree of w.  Every real alpha > 0 gives an
    increasing power, which passes; only a "power" that is not monotone
    can fail, and it fails whenever a minimum tree of w has sorted weights
    other than the kappa tree's.

    The paper's claim needs a finite alpha > 0: an empty list, or an alpha
    that is not (NaN and inf included), raises ValueError.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("need at least one alpha")
    _check_alphas(alphas)
    coords = _validate_coords(coords)
    n = len(coords)
    if n < 2:
        return True
    # the pairs' weights, priced in blocks of rows into one array: no
    # n x n index mask
    row = row_weight_fn(spec, coords)
    at = np.arange(n)
    h = np.empty(n * (n - 1) // 2)
    end = 0
    step = max(1, _BAND_CHUNK // n)
    for k in range(0, n - 1, step):
        s = at[k:k + step, None]
        block = row(s, at)[at > s]
        h[end:end + len(block)] = block
        end += len(block)
    h.sort()
    for alpha in alphas:
        w = h**alpha  # numpy's power: its 0.5 and 2 fast paths are in the verdict
        if not (w[1:] >= w[:-1]).all():
            return False
        del w
    return True


class SpecMissingPropertyError(ValueError):
    """The weight kind lacks the scaling or translation property."""


def scale_check(
    spec: WeightSpec, coords: np.ndarray, a: float, alpha: float
) -> tuple[float, float, bool]:
    """Homogeneity: MST(a * X) = a**alpha * MST(X) with the same edges.

    Returns (scaled total, a**alpha * original total, same_edge_set).
    """
    _check_alphas((alpha,))
    if not spec.homogeneous:
        raise SpecMissingPropertyError(f"{spec.kind} weights are not homogeneous")
    if a <= 0:
        raise ValueError("scale factor must be positive")
    coords = np.asarray(coords, dtype=float)
    base = minimum_spanning_tree(spec, coords)
    scaled = minimum_spanning_tree(spec, a * coords)
    return (
        scaled.total_weight(alpha),
        a**alpha * base.total_weight(alpha),
        scaled.edge_set() == base.edge_set(),
    )


def translate_check(
    spec: WeightSpec, coords: np.ndarray, b, alpha: float
) -> tuple[float, float, bool]:
    """Translation bound: MST(X + b) <= h0**alpha * MST(X) + 1e-10.

    Returns (shifted total, bound, holds).
    """
    _check_alphas((alpha,))
    if spec.h0 is None:
        raise SpecMissingPropertyError(
            f"{spec.kind} weights have no translation constant"
        )
    coords = np.asarray(coords, dtype=float)
    shift = np.asarray(b, dtype=float).reshape(1, 2)
    base = minimum_spanning_tree(spec, coords)
    moved = minimum_spanning_tree(spec, coords + shift)
    lhs = moved.total_weight(alpha)
    rhs = spec.h0**alpha * base.total_weight(alpha)
    return lhs, rhs, lhs <= rhs + 1e-10
