"""Initial cluster-volume distributions for the continuum solvers.

A distribution is carried as an :class:`InitialTail`: the density ``c0`` and
its tail ``w0(x) = int_x^inf c0``, normalized so the mass ``int x c0 dx`` is 1.
The tail is the primary object — the classical solver transports it exactly —
so every profile provides ``w0`` either in closed form or through an exact
polynomial antiderivative, never by generic quadrature of ``c0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "InitialTail",
    "exponential_moment",
    "compact_bump",
    "tabulated",
    "dilated",
    "cell_averages",
]


@dataclass(frozen=True)
class InitialTail:
    """Density c0, tail w0 (both vectorized callables), and support bound.

    ``x_max`` is chosen so that ``w0(x_max)`` is negligible (< 1e-15 of the
    total number); ``n0 = w0(0)`` is the total cluster number.
    """

    c0: Callable[[np.ndarray], np.ndarray]
    w0: Callable[[np.ndarray], np.ndarray]
    x_max: float
    label: str

    @property
    def n0(self) -> float:
        return float(self.w0(0.0))


def exponential_moment() -> InitialTail:
    """c0(x) = x e^{-x} / 2 (mass 1, number 1/2, mean volume 2)."""

    def c0(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x * np.exp(-x)

    def w0(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (1.0 + x) * np.exp(-x)

    return InitialTail(c0=c0, w0=w0, x_max=45.0, label="exponential-moment")


def compact_bump(a: float, b: float) -> InitialTail:
    """Normalized cubic bump supported on [a, b]: c0 ~ [(x-a)(b-x)]^3."""
    if not 0 <= a < b:
        raise ValueError("compact bump requires 0 <= a < b")
    p = (Polynomial([-a, 1.0]) * Polynomial([b, -1.0])) ** 3
    mass = (p * Polynomial([0.0, 1.0])).integ()
    amp = 1.0 / (mass(b) - mass(a))
    antideriv = p.integ()
    total = antideriv(b)

    def c0(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= a) & (x <= b)
        return np.where(inside, amp * p(np.clip(x, a, b)), 0.0)

    def w0(x):
        x = np.asarray(x, dtype=float)
        return amp * (total - antideriv(np.clip(x, a, b)))

    return InitialTail(c0=c0, w0=w0, x_max=b, label=f"compact-bump[{a},{b}]")


def tabulated(x: np.ndarray, c: np.ndarray) -> InitialTail:
    """Piecewise-linear density through sampled (x, c) pairs, mass-normalized."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if x.ndim != 1 or x.shape != c.shape or len(x) < 2:
        raise ValueError("need matching 1-D arrays with at least 2 samples")
    if np.any(np.diff(x) <= 0) or np.any(c < 0) or x[0] < 0:
        raise ValueError("x must be increasing and nonnegative, c nonnegative")
    mass = float(np.trapezoid(x * c, x))
    if not 0 < mass < np.inf:  # an overflowing mass would scale c to 0
        raise ValueError(f"tabulated data needs a finite positive mass, got {mass!r}")
    c = c / mass
    # tail of the normalized density, by exact trapezoid integration
    seg = 0.5 * (c[1:] + c[:-1]) * np.diff(x)
    tail_at_knots = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))

    def c0(q):
        q = np.asarray(q, dtype=float)
        return np.where((q >= x[0]) & (q <= x[-1]), np.interp(q, x, c), 0.0)

    def w0(q):
        q = np.asarray(q, dtype=float)
        qq = np.clip(q, x[0], x[-1])
        idx = np.clip(np.searchsorted(x, qq, side="right") - 1, 0, len(x) - 2)
        x_lo = x[idx]
        c_lo, c_hi = c[idx], c[idx + 1]
        dx = x[idx + 1] - x_lo
        s = qq - x_lo
        # remaining piece of the current segment, then the stored knot tail
        partial = (c_lo + 0.5 * (c_hi - c_lo) * (s + dx) / dx) * (dx - s)
        out = tail_at_knots[idx + 1] + partial
        return np.where(q >= x[-1], 0.0, np.where(q <= x[0], tail_at_knots[0], out))

    return InitialTail(c0=c0, w0=w0, x_max=float(x[-1]), label="table")


def dilated(tail: InitialTail, lam: float) -> InitialTail:
    """Spatial dilation x -> x/lam with mass kept at 1.

    The density becomes ``lam^2 c0(lam x)`` and the tail ``lam w0(lam x)``;
    evolving the dilated data to time t/lam and rescaling recovers the
    original solution, which is what the covariance tests exercise.
    """
    if lam <= 0:
        raise ValueError("dilation factor must be positive")

    def c0(x):
        return lam * lam * tail.c0(lam * np.asarray(x, dtype=float))

    def w0(x):
        return lam * tail.w0(lam * np.asarray(x, dtype=float))

    return InitialTail(
        c0=c0, w0=w0, x_max=tail.x_max / lam, label=f"{tail.label}/dilated{lam}"
    )


def cell_averages(tail: InitialTail, edges: np.ndarray) -> np.ndarray:
    """Exact cell averages of c0 on a grid, via differences of the tail.

    The averages are rescaled so the discrete mass (midpoint-weighted) is
    exactly 1, which the conservative solver needs as its reference value.
    """
    edges = np.asarray(edges, dtype=float)
    w = tail.w0(edges)
    widths = np.diff(edges)
    cbar = np.maximum((w[:-1] - w[1:]) / widths, 0.0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mass = float(centers @ (cbar * widths))
    if mass <= 0:
        raise ValueError("no mass on the grid")
    return cbar / mass
