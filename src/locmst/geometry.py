"""Unit-square tilings and the snake cell order.

The experiments partition [0,1]^2 into an s-by-s grid of congruent square
cells and walk them in boustrophedon ("snake") order: column-major starting
at the top-left cell, alternating direction so that consecutive cells always
share an edge.  Cell indices are 1-based; ``cell 1`` is the top-left cell.

The grid resolution is tied to the sample size: for ``n`` points we pick a
side parameter ``a_n`` in ``[a_target, a_target + 1/log(n)]`` such that
``sqrt(n) / a_n`` is an integer ``s``, giving cells of side ``a_n / sqrt(n)
= 1/s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NoAdmissibleAError(ValueError):
    """No grid resolution exists in the admissible side-parameter window."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, half-open: [xmin, xmax) x [ymin, ymax)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, x, y):
        """Half-open membership, elementwise over scalars or arrays."""
        return (
            (self.xmin <= x) & (x < self.xmax) & (self.ymin <= y) & (y < self.ymax)
        )

    def contains_closed(self, x, y):
        """Closed membership; boundary points count as inside."""
        return (
            (self.xmin <= x) & (x <= self.xmax) & (self.ymin <= y) & (y <= self.ymax)
        )


@dataclass(frozen=True)
class Tiling:
    """An s x s grid of square cells over the unit square."""

    s: int

    def __post_init__(self):
        if not isinstance(self.s, (int, np.integer)) or self.s < 1:
            raise ValueError(f"the resolution must be an integer >= 1, got {self.s!r}")

    @property
    def cell_side(self) -> float:
        return 1.0 / self.s


def build_tiling(n: int, a_target: float = 1.0) -> Tiling:
    """Pick the smallest admissible side parameter >= ``a_target``.

    Admissible means: a_n = sqrt(n)/s for an integer s, with
    a_target <= a_n <= a_target + 1/log(n).  Equivalently s is the largest
    integer <= sqrt(n)/a_target that still satisfies the upper bracket.

    Raises NoAdmissibleAError when the window contains no integer ratio.
    """
    if n < 3:
        raise ValueError("need n >= 3 so that log(n) > 1")
    if a_target <= 0:
        raise ValueError("a_target must be positive")
    s = _admissible_s(n, a_target)
    if s is None:
        raise NoAdmissibleAError(
            f"no admissible side parameter for n={n}, a_target={a_target}"
        )
    return Tiling(s)


def _admissible_s(n: int, a_target: float) -> int | None:
    """Largest s with a_target <= sqrt(n)/s <= a_target + 1/log(n), or None."""
    root = math.sqrt(n)
    s = int(math.floor(root / a_target))
    # Guard against floating error when sqrt(n)/a_target is an exact integer.
    while s >= 1 and root / s < a_target:
        s -= 1
    if s >= 1 and root / s <= a_target + 1.0 / math.log(n):
        return s
    return None


def snake_index(s: int, col, row):
    """1-based snake index of the cell at 0-based (col, row-from-top).

    Even columns (0-based) run top to bottom, odd columns bottom to top, so
    consecutive indices always share an edge.  Ints give an int; integer
    arrays give an array, elementwise.
    """
    return col * s + row + 1 + (col & 1) * (s - 1 - 2 * row)


def _snake_cell(s: int, index):
    """(col, row-from-top) of a 1-based snake index; the inverse of
    `snake_index`, elementwise over integer arrays."""
    col, k = divmod(index - 1, s)
    return col, k + (col & 1) * (s - 1 - 2 * k)


def cells_of(tiling: Tiling, coords: np.ndarray) -> np.ndarray:
    """Snake index (1-based) of the cell holding each row of an (n, 2)
    coordinate array.

    Cells are half-open, [x0, x1) x [y0, y1), so floor() places most
    points.  A point on a shared side belongs to the neighbouring cell
    with the larger snake index: on an inner vertical line that is the
    right-hand column, and on an inner horizontal line the lower row in
    even columns and the upper row in odd ones.  A coordinate of 1.0
    goes to the last row or column.
    """
    coords = np.asarray(coords, dtype=float)
    # one range test for all points; NaN fails it too
    if not (coords.min(initial=0.0) >= 0.0 and coords.max(initial=1.0) <= 1.0):
        k = np.flatnonzero(~((coords >= 0.0) & (coords <= 1.0)).all(axis=1))[0]
        x, y = coords[k]
        raise ValueError(f"point ({x}, {y}) outside the unit square")
    s = tiling.s
    v = coords * s
    f = np.floor(v)
    col, up = f.astype(np.int64).T  # column, and row counted from the bottom
    exact = v == f
    if exact.any():  # on a grid line: floor() already took the right column
        col = np.minimum(col, s - 1)
        lower = exact[:, 1] & (up > 0) & (col % 2 == 0)
        up = np.minimum(up - lower, s - 1)
    return snake_index(s, col, s - 1 - up)


def occupied_cells(tiling: Tiling, coords: np.ndarray) -> np.ndarray:
    """Sorted unique snake indices of occupied cells."""
    if len(coords) == 0:
        return np.empty(0, dtype=np.int64)
    idx = np.sort(cells_of(tiling, coords))
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
