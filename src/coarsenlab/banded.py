"""Tridiagonal operators in LAPACK's banded layout, their solve, and a root bracket.

Every implicit step in the package solves a tridiagonal system and fixes a
scalar by a root-find.  The operators live in the ``(3, n)`` array that
``scipy.linalg.solve_banded((1, 1), ab, b)`` takes: ``ab[0, 1:]`` is the
superdiagonal, ``ab[1]`` the diagonal and ``ab[2, :-1]`` the subdiagonal, so
``ab[0, 0]`` and ``ab[2, -1]`` are unused and kept at 0.  This module owns the
one solve, ``solve_banded``, which calls LAPACK's ``dgtsv`` directly.  The
callers import it and ``brentq`` into their own module, and solve and
root-find through those names.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

__all__ = ["shifted", "matvec", "weighted_transpose", "solve_banded", "bracket"]

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


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b, for A in the ``(3, n)`` layout and ``b`` of shape (n,)
    or (n, k); ``ab`` and ``b`` are left as they are.

    This is LAPACK's ``dgtsv``, the routine ``scipy.linalg.solve_banded((1, 1),
    ab, b)`` calls, so the results are identical; only scipy's generic input
    handling is skipped.  Its checks stay: ValueError when ``ab`` or ``b``
    holds a non-finite value (screened by one sum, and entry by entry only if
    that sum is not finite), LinAlgError when A is singular.
    """
    if not math.isfinite(np.add.reduce(ab, None) + np.add.reduce(b, None)) and not (
            np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if ab.shape[1] == 1:  # the wrapper of dgtsv takes no empty off-diagonals
        if ab[1, 0] == 0.0:
            raise LinAlgError("singular matrix")
        return b / ab[1, 0]
    _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


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
    while _same_sign(flo, fhi) and grow < _MAX_GROW:
        if (flo > 0) == increasing:  # the root lies below lo
            lo = origin + 0.5 * (lo - origin)
            flo = f(lo)
        else:
            hi = origin + 2.0 * (hi - origin)
            fhi = f(hi)
        grow += 1
    if _same_sign(flo, fhi):
        raise RuntimeError(f"could not bracket a root in [{lo!r}, {hi!r}]")
    return lo, hi


def _same_sign(a: float, b: float) -> bool:
    """Both positive or both negative; compared one by one, because the
    product of two tiny values of the same sign can underflow to 0.  False
    for a zero or a NaN, which end the search."""
    return (a > 0 and b > 0) or (a < 0 and b < 0)
