"""Tridiagonal operators in LAPACK's banded layout, and a root bracket.

Every implicit step in the package solves a tridiagonal system and fixes a
scalar by a root-find.  The operators live in the ``(3, n)`` array that
``scipy.linalg.solve_banded((1, 1), ab, b)`` takes: ``ab[0, 1:]`` is the
superdiagonal, ``ab[1]`` the diagonal and ``ab[2, :-1]`` the subdiagonal, so
``ab[0, 0]`` and ``ab[2, -1]`` are unused and kept at 0.  The callers solve
and root-find through their own module's ``solve_banded`` and ``brentq``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["shifted", "matvec", "weighted_transpose", "bracket"]

_MAX_GROW = 60


def shifted(h: float, ab: np.ndarray) -> np.ndarray:
    """I - h A for the banded operator A."""
    out = -h * ab
    out[1] += 1.0
    return out


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x, summed diagonal term first, then the super- and the subdiagonal one.

    The artifacts depend on this rounding order.
    """
    return (
        ab[1] * x
        + np.concatenate((ab[0, 1:] * x[1:], [0.0]))
        + np.concatenate(([0.0], ab[2, :-1] * x[:-1]))
    )


def weighted_transpose(ab: np.ndarray, w: np.ndarray) -> np.ndarray:
    """W^{-1} A^T W with W = diag(w): the adjoint of A in the w-weighted pairing."""
    out = np.zeros_like(ab)
    out[0, 1:] = ab[2, :-1] * w[1:] / w[:-1]
    out[1] = ab[1]
    out[2, :-1] = ab[0, 1:] * w[:-1] / w[1:]
    return out


def bracket(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    origin: float,
    increasing: bool,
) -> tuple[float, float]:
    """Widen [lo, hi] about ``origin`` until f changes sign on it.

    ``increasing`` says which way f crosses zero, so which end to move: the
    lower end halves its distance to ``origin``, the upper end doubles it.
    Raises RuntimeError naming the last interval after 60 widenings.
    """
    flo, fhi = f(lo), f(hi)
    grow = 0
    while flo * fhi > 0 and grow < _MAX_GROW:
        if (flo > 0) == increasing:  # the root lies below lo
            lo = origin + 0.5 * (lo - origin)
            flo = f(lo)
        else:
            hi = origin + 2.0 * (hi - origin)
            fhi = f(hi)
        grow += 1
    if flo * fhi > 0:
        raise RuntimeError(f"could not bracket a root in [{lo!r}, {hi!r}]")
    return lo, hi
