"""Closed-form bracket for the expected tree weight of n uniform-ish points.

For a weight function with band [c1 * d, c2 * d], a density bounded
between eps1 and eps2, and exponent alpha, the expected minimum tree
weight is bracketed by

    c1**alpha * beta_low * n**(1 - alpha/2)
    <= E W <= c2**alpha * beta_up * n**(1 - alpha/2),

where beta_low / beta_up come from optimizing a one-parameter family of
cell constructions over the cell side ratio A:

    lower(A) = (A**alpha / (2 A**2)) * (1 - exp(-eps1 A**2))
               * exp(-8 eps2 A**2)
    upper(A) = (2 A)**alpha * (1 + E[T**alpha] / A**2)

with T geometric on {1, 2, ...} with success probability
p = 1 - exp(-delta A**2) and delta = eps1 when alpha <= 1, else eps2
(the moment comparison flips direction at alpha = 1).

beta_low = sup_A lower(A), beta_up = inf_A upper(A); both optima are
found by a dense log grid followed by golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GRID_LO = 1e-3
_GRID_HI = 10.0
_GRID_N = 10_000
_SMALL_P = 1e-4


class InvalidPError(ValueError):
    """Success probability outside (0, 1)."""


class InvalidEpsError(ValueError):
    """Deviation parameter outside (0, 1/2)."""


@lru_cache(maxsize=None)
def _eulerian_row(r: int) -> tuple[int, ...]:
    """Eulerian numbers A(r, 0..r-1) by the standard recurrence."""
    if r == 0:
        return (1,)
    prev = _eulerian_row(r - 1)
    row = []
    for k in range(r):
        left = (k + 1) * prev[k] if k < len(prev) else 0
        right = (r - k) * prev[k - 1] if k >= 1 else 0
        row.append(left + right)
    return tuple(row)


def geometric_moment(r: float, p: float, tol: float = 1e-12) -> float:
    """E[T**r] for T geometric on {1, 2, ...}, P(T = t) = p (1-p)**(t-1).

    Integer r uses the Eulerian-polynomial closed form
    E[T**r] = (sum_k A(r, k) q**k) / p**r  (so 1/p for r = 1 and
    (2 - p) / p**2 for r = 2).  Non-integer r is summed directly,
    truncated once a rigorous geometric bound on the dropped tail falls
    below ``tol`` relative.  Below p = 1e-4 the sum is numerically
    indistinguishable from its small-p limit Gamma(r + 1) / p**r
    (relative error O(r**2 p)), which is returned directly.
    """
    if not 0.0 < p < 1.0:
        raise InvalidPError(f"p must be in (0, 1), got {p}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = 1.0 - p
    if abs(r - round(r)) < 1e-12:
        ri = int(round(r))
        row = _eulerian_row(ri)
        poly = 0.0
        for coeff in reversed(row):
            poly = poly * q + coeff
        return poly / p**ri
    if p < _SMALL_P:
        return math.gamma(r + 1.0) / p**r
    total = 0.0
    start = 1
    chunk = 4096
    while True:
        t = np.arange(start, start + chunk, dtype=float)
        total += float(np.sum(t**r * q ** (t - 1.0)))
        start += chunk
        ratio = (start / (start - 1.0)) ** r * q
        if ratio < 1.0:
            tail = start**r * q ** (start - 1.0) / (1.0 - ratio)
            if tail <= tol * max(total, 1e-300):
                break
        if start > 50_000_000:
            raise RuntimeError("geometric moment series failed to converge")
        chunk = min(2 * chunk, 1_000_000)
    return p * total


def geometric_moment_upper_bound(r: float, theta: float) -> float:
    """Gamma(r + 1) / (1 - exp(-theta))**r, an upper bound for
    E[T**r] with p = 1 - exp(-theta); exact at r = 1."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    p = -math.expm1(-theta)
    return math.gamma(r + 1.0) / p**r


def delta_for(alpha: float, eps1: float, eps2: float) -> float:
    return eps1 if alpha <= 1.0 else eps2


def lower_constant_at(
    A: float, alpha: float, eps1: float = 1.0, eps2: float = 1.0
) -> float:
    """The lower-bound cell constant at side ratio A (c1 factored out)."""
    if A <= 0:
        raise ValueError("A must be positive")
    return (
        A**alpha
        / (2.0 * A**2)
        * (-math.expm1(-eps1 * A**2))
        * math.exp(-8.0 * eps2 * A**2)
    )


def upper_constant_at(
    A: float, alpha: float, eps1: float = 1.0, eps2: float = 1.0
) -> float:
    """The upper-bound cell constant at side ratio A (c2 factored out)."""
    if A <= 0:
        raise ValueError("A must be positive")
    p = -math.expm1(-delta_for(alpha, eps1, eps2) * A**2)
    # For large A the float rounds to exactly 1; the gap variable is then
    # deterministically 1 and the moment is 1.
    moment = 1.0 if p >= 1.0 else geometric_moment(alpha, p)
    return (2.0 * A) ** alpha * (1.0 + moment / A**2)


def _golden(f, a: float, b: float, maximize: bool, tol: float = 1e-12):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = 1.0 if maximize else -1.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = sign * f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _optimize(f, maximize: bool) -> tuple[float, float]:
    grid = np.exp(np.linspace(math.log(_GRID_LO), math.log(_GRID_HI), _GRID_N))
    vals = np.array([f(a) for a in grid])
    idx = int(np.argmax(vals) if maximize else np.argmin(vals))
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    return _golden(f, float(lo), float(hi), maximize)


def beta_low(alpha: float, eps1: float = 1.0, eps2: float = 1.0):
    """sup_A lower_constant_at(A); returns (optimal A, value)."""
    return _optimize(lambda A: lower_constant_at(A, alpha, eps1, eps2), True)


def beta_up(alpha: float, eps1: float = 1.0, eps2: float = 1.0):
    """inf_A upper_constant_at(A); returns (optimal A, value)."""
    return _optimize(lambda A: upper_constant_at(A, alpha, eps1, eps2), False)


@dataclass(frozen=True)
class BoundsResult:
    alpha: float
    eps1: float
    eps2: float
    c1: float
    c2: float
    beta_low: float
    A_low: float
    beta_up: float
    A_up: float

    @property
    def delta(self) -> float:
        return delta_for(self.alpha, self.eps1, self.eps2)

    def bracket(self, n: int) -> tuple[float, float]:
        """(lower, upper) for the expected total tree weight at n points."""
        scale = float(n) ** (1.0 - self.alpha / 2.0)
        return (
            self.c1**self.alpha * self.beta_low * scale,
            self.c2**self.alpha * self.beta_up * scale,
        )


def compute_bounds(
    alpha: float,
    eps1: float = 1.0,
    eps2: float = 1.0,
    c1: float = 1.0,
    c2: float = 1.0,
) -> BoundsResult:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0 < eps1 <= eps2:
        raise ValueError("need 0 < eps1 <= eps2")
    if not 0 < c1 <= c2:
        raise ValueError("need 0 < c1 <= c2")
    a_lo, v_lo = beta_low(alpha, eps1, eps2)
    a_up, v_up = beta_up(alpha, eps1, eps2)
    return BoundsResult(
        alpha=alpha, eps1=eps1, eps2=eps2, c1=c1, c2=c2,
        beta_low=v_lo, A_low=a_lo, beta_up=v_up, A_up=a_up,
    )


def chernoff_bound(m: float, mu: float, eps: float) -> float:
    """exp(-eps**2 * m * mu / 4) for either deviation tail of a sum of m
    independent Bernoulli-dominated terms with mean mu each; the same
    expression bounds both directions."""
    if not 0.0 < eps < 0.5:
        raise InvalidEpsError(f"eps must be in (0, 1/2), got {eps}")
    if m <= 0 or mu <= 0:
        raise ValueError("m and mu must be positive")
    return math.exp(-(eps**2) * m * mu / 4.0)
