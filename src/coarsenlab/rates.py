"""Attachment/evaporation rate coefficients and the equilibrium cluster family.

Clusters of volume ``ell`` gain monomers at rate ``a_ell * c1`` and shed them
at rate ``b_ell``.  The rate family used throughout the package is

    a_ell = a1 * ell**(1/3),      b_ell = a_ell * (z_s + q * ell**(-1/3)),

with ``a1, z_s, q > 0``.  Detailed balance of the fluxes yields an equilibrium
family ``c_ell = Q_ell * c1**ell`` for any monomer density ``0 < c1 <= z_s``;
the equilibrium at ``c1 = z_s`` has the maximal (critical) mass density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RateModel",
    "EquilibriumTable",
    "equilibrium_table",
    "critical_density",
]


@dataclass(frozen=True)
class RateModel:
    """Coefficients (a1, z_s, q) defining the attachment/evaporation rates."""

    a1: float
    z_s: float
    q: float

    def __post_init__(self):
        if self.a1 <= 0 or self.z_s <= 0 or self.q <= 0:
            raise ValueError("RateModel requires a1 > 0, z_s > 0, q > 0")

    def attach(self, ell):
        """Attachment rate a_ell; accepts scalars or arrays."""
        ell = np.asarray(ell, dtype=float)
        return self.a1 * np.cbrt(ell)

    def detach(self, ell):
        """Evaporation rate b_ell; accepts scalars or arrays."""
        return self.attach(ell) * (self.z_s + self.q / np.cbrt(ell))


@dataclass(frozen=True)
class EquilibriumTable:
    """Equilibrium coefficients Q_ell for ell = 1..ell_max, stored as logs.

    ``Q_1 = 1`` and ``Q_{ell+1} b_{ell+1} = Q_ell a_ell`` (zero-flux condition).
    Values decay super-exponentially, so only ``log Q_ell`` is stored; the
    linear values are exponentiated on demand.
    """

    log_q: np.ndarray  # log Q_ell, index 0 <-> ell = 1
    ell_max: int

    def density(self, c1: float) -> np.ndarray:
        """Equilibrium densities c_ell = Q_ell c1**ell for ell = 1..ell_max."""
        if c1 <= 0:
            raise ValueError("monomer density must be positive")
        ells = np.arange(1, self.ell_max + 1)
        return np.exp(self.log_q + ells * math.log(c1))


def equilibrium_table(model: RateModel, ell_max: int) -> EquilibriumTable:
    """Build Q_ell for ell = 1..ell_max from the zero-flux recursion."""
    if ell_max < 2:
        raise ValueError("ell_max must be >= 2")
    ells = np.arange(1, ell_max + 1, dtype=float)
    log_a = np.log(model.attach(ells[:-1]))
    log_b_next = np.log(model.detach(ells[1:]))
    log_q = np.concatenate(([0.0], np.cumsum(log_a - log_b_next)))
    return EquilibriumTable(log_q=log_q, ell_max=ell_max)


_CRITICAL_CAP = 10**6
_CRITICAL_FIRST = 256  # terms summed first; the table doubles from there


def critical_density(model: RateModel, tol: float = 1e-12) -> float:
    """Mass density of the saturated equilibrium, sum_ell ell Q_ell z_s**ell.

    Past their peak the terms ``t_ell = ell Q_ell z_s**ell`` fall, with a
    ratio ``r_ell = t_{ell+1} / t_ell`` below 1 that creeps back up toward 1.
    The sum stops at the first ell >= 2 where the
    geometric tail ``t_{ell+1} / (1 - r_ell)`` is at most ``tol`` times the
    partial sum, and adds that tail.  Because the ratio still grows, the
    geometric tail falls short of the true one, by about 1% on the tested
    models, so the result is low by about ``tol / 100`` relative.  Raises if
    the cap of 1e6 terms is hit, which signals pathological parameters.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    log_z = math.log(model.z_s)
    n = _CRITICAL_FIRST
    while True:
        table = equilibrium_table(model, n)
        ells = np.arange(1, n + 1)
        terms = ells * table.density(model.z_s)
        totals = np.cumsum(terms)
        ratios = np.exp(np.diff(np.log(ells) + table.log_q + ells * log_z))
        # tail test t_{ell+1} <= tol * total * (1 - r_ell) for ell = 2..n-1
        stop = (ratios[1:] < 1.0) & (terms[2:] <= tol * totals[1:-1] * (1.0 - ratios[1:]))
        if stop.any():
            i = int(np.argmax(stop)) + 1  # index of the last term summed
            return float(totals[i] + terms[i + 1] / (1.0 - ratios[i]))
        if n == _CRITICAL_CAP:
            raise RuntimeError("critical_density series did not converge within 1e6 "
                               "terms; check rate parameters")
        n = min(2 * n, _CRITICAL_CAP)
