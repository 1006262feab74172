"""Time integration of the truncated Becker-Doring cluster system.

Two closures for the monomer density are supported:

* full -- the mass-conserving system: ``c1 = max(rho - sum_{ell>=2} ell c_ell, 0)``.
* dirichlet -- the coarsening system with ``c(1,t) = 0`` in the state and the
  monomer density chosen so that the mass carried by ``ell >= 2`` stays exactly
  at its (normalized) initial value 1; at vanishing step size this reduces to
  the flux-balance formula ``c1 = z_s + (a1 q g + b2 c2) / sum a_ell c_ell``.

The default integrator is a semi-implicit trapezoidal scheme: for a frozen
monomer density the truncated system is affine tridiagonal in the cluster
densities, dc/dt = A(c1) c + r(c1), so each stage is one banded solve
(``banded.solve_banded``).  The monomer density is fixed per step by a scalar
root-find that makes the closure hold at the committed state (this keeps
conservation structural rather than approximate).  For the Dirichlet closure
its bracket (``banded.bracket``) starts 1e-3 either side of the flux-balance
guess, relative to c1 - z_s.  A(c1) = A0 + c1 A1 is split once per run, so a
trial monomer density costs one band update and one solve; a step solves each
trial once, however often the root-find asks for it, and commits the solve at
the root.  The step size is controlled by Milne's device: a quadratic
predictor through the previous accepted state, the current one and the slope
there gives the trapezoid's local error from the one step each attempt takes,
so an attempt costs one root-find.  ``diagnostics.march`` clips the steps to
the output times and aborts on mass drift.  ``tests/test_bd.py`` checks the
scheme against DOP853 over ``bd_rhs``.

The model functions work on plain arrays.  ``bd_rhs`` takes the densities
c_ell for ell = 1..ell_max, whose first entry is the monomer slot; the monomer
closures take only the cluster densities for ell = 2..ell_max, which is what
the steppers carry as their state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .banded import bracket, matvec, shifted, solve_banded
from .diagnostics import (TrajectorySeries, check_window, clip_negatives, march, moments,
                          output_times)
from .rates import RateModel

__all__ = [
    "FullClosure",
    "DirichletClosure",
    "BdRunConfig",
    "BdRunError",
    "monomer_closure_full",
    "monomer_closure_dirichlet",
    "bd_rhs",
    "run_bd",
    "truncation_bound",
]


_RTOL = 1e-9  # local error tolerance of the semi-implicit stepper
_ATOL = 1e-12
# The bracket starts this far either side of c1 at the step's start, relative
# to c1 - z_s (Dirichlet) or c1 (full); on the benchmark's Dirichlet run the
# root's (c1 - z_s)/(guess - z_s) lies in [0.99986, 0.9999997] over all 3,670
# root-finds.  ``bracket`` widens it when the root lies outside.
_GUESS_SPREAD = 1e-3


class BdRunError(RuntimeError):
    """Step-size underflow or truncation overflow; mass drift raises RuntimeError in ``march``."""


@dataclass(frozen=True)
class FullClosure:
    rho: float
    name = "full"

    @property
    def mass(self) -> float:
        return self.rho

    def c1(self, c: np.ndarray, model: RateModel) -> float:
        return monomer_closure_full(c, self.rho)


@dataclass(frozen=True)
class DirichletClosure:
    name = "dirichlet"
    mass = 1.0  # on ell >= 2; the state holds no monomers

    def c1(self, c: np.ndarray, model: RateModel) -> float:
        return monomer_closure_dirichlet(c, model)


@dataclass
class BdRunConfig:
    """A field with ``json`` metadata is a ``bd`` config key: its JSON type and default."""

    model: RateModel
    closure: FullClosure | DirichletClosure
    initial: np.ndarray  # gamma_ell, ell = 1..ell_max
    t_end: float = field(default=10.0, metadata={"json": float})
    dt_init: float = field(default=1e-3, metadata={"json": float})
    output_stride: float = field(default=0.5, metadata={"json": float})

    def validate(self) -> None:
        gamma = np.asarray(self.initial, dtype=float)
        if gamma.ndim != 1:
            raise ValueError("initial data must be a 1-D array")
        if np.any(gamma < 0):
            raise ValueError("initial data must be nonnegative")
        if isinstance(self.closure, DirichletClosure) and gamma[0] != 0.0:
            raise ValueError("dirichlet closure requires gamma_1 = 0")
        ref = self.closure.mass
        mass = float(np.arange(1, len(gamma) + 1) @ gamma)
        if not np.isclose(mass, ref, rtol=1e-10, atol=1e-12):
            raise ValueError(f"the closure requires sum ell*gamma_ell = {ref}, got {mass}")
        bound = truncation_bound(ref, len(gamma))
        if not gamma[-1] <= bound:
            raise ValueError(f"ell_max: the initial density there, {gamma[-1]:.3e}, already "
                             f"exceeds the truncation bound {bound:.3e}; increase ell_max")
        check_window(self.t_end, self.output_stride)
        if self.dt_init <= 0:
            raise ValueError("dt_init must be positive")


def monomer_closure_full(c: np.ndarray, rho: float) -> float:
    """c1 = max(rho - sum_(ell>=2) ell c_ell, 0); ``c`` holds ell = 2..ell_max."""
    ells = np.arange(2, len(c) + 2)
    return float(max(rho - ells @ c, 0.0))


def monomer_closure_dirichlet(c: np.ndarray, model: RateModel) -> float:
    """Flux-balance monomer density; always exceeds z_s for nonempty states.

    ``c`` holds the cluster densities c_ell for ell = 2..ell_max.
    """
    ells = np.arange(2, len(c) + 2)
    denom = float(model.attach(ells) @ c)
    if denom <= 0.0:
        raise ZeroDivisionError("degenerate state: no clusters with ell >= 2")
    b2 = float(model.detach(2))
    numer = model.a1 * model.q * float(c.sum()) + b2 * float(c[0])
    return model.z_s + numer / denom


def bd_rhs(
    c: np.ndarray,
    model: RateModel,
    closure: FullClosure | DirichletClosure,
) -> np.ndarray:
    """Time derivatives dc_ell/dt = J_(ell-1) - J_ell for ell >= 2.

    ``c`` holds c_ell for ell = 1..ell_max; its monomer slot ``c[0]`` is not
    read, since the closure fixes the monomer density.  The monomer slot of
    the returned array carries -(J_1 + sum_ell J_ell) for the full closure (so
    the conserved total mass has zero derivative) and 0 for the Dirichlet
    closure.
    """
    # fluxes J_ell = a_ell c1 c_ell - b_(ell+1) c_(ell+1), 0 at the cutoff; the
    # c_1 in J_1 is c1 for the full closure and 0 for the Dirichlet closure
    full = isinstance(closure, FullClosure)
    cc = c.copy()
    c1 = closure.c1(c[1:], model)
    cc[0] = c1 if full else 0.0
    ells = np.arange(1, len(c) + 1, dtype=float)
    a = model.attach(ells)
    b = model.detach(ells)
    j = np.zeros(len(c))
    j[:-1] = a[:-1] * c1 * cc[:-1] - b[1:] * cc[1:]
    dc = np.zeros_like(c)
    dc[1:] = j[:-1] - j[1:]
    if full:
        dc[0] = -(j[0] + j.sum())
    return dc


# ---------------------------------------------------------------------------
# semi-implicit stepper


class _Tridiag:
    """Affine tridiagonal system dc/dt = A(c1) c + r(c1) for ell = 2..ell_max,
    with A(c1) = A0 + c1 A1 split once, in the layout of :mod:`coarsenlab.banded`."""

    def __init__(self, model: RateModel, ell_max: int, full: bool):
        ells = np.arange(2, ell_max + 1, dtype=float)
        a, b = model.attach(ells), model.detach(ells)  # a_ell, b_ell
        self.op0 = np.zeros((3, len(ells)))  # A0 = A(0)
        self.op0[0, 1:] = b[1:]
        self.op0[1] = -b
        self.op1 = np.zeros_like(self.op0)  # A1 = A(1) - A(0)
        self.op1[1, :-1] = -a[:-1]  # zero flux out of the top bin
        self.op1[2, :-1] = model.attach(ells[1:] - 1)  # a_(ell-1)
        self.a1 = model.a1
        self.full = full

    def trapezoid(self, c: np.ndarray, dt: float) -> Callable[[float], np.ndarray]:
        """c1 -> c_new with (I - h A) c_new = (I + h A) c + dt r, h = dt/2."""
        h = 0.5 * dt
        lhs0, lhs1 = shifted(h, self.op0), h * self.op1
        rhs0, rhs1 = matvec(shifted(-h, self.op0), c), matvec(lhs1, c)

        def solve(c1: float) -> np.ndarray:
            rhs = rhs0 + c1 * rhs1
            if self.full:
                rhs[0] += dt * self.a1 * c1 * c1
            return solve_banded(lhs0 - c1 * lhs1, rhs)

        return solve

    def rate(self, c: np.ndarray, c1: float) -> np.ndarray:
        """dc/dt = A(c1) c + r(c1)."""
        out = matvec(self.op0, c) + c1 * matvec(self.op1, c)
        if self.full:
            out[0] += self.a1 * c1 * c1
        return out


def _step_semi_implicit(
    c: np.ndarray,
    dt: float,
    model: RateModel,
    closure: FullClosure | DirichletClosure,
    tri: _Tridiag,
    ells: np.ndarray,
    c1_now: float,
) -> tuple[np.ndarray, float]:
    """One trapezoidal step; the monomer density is fixed by a root-find.

    The bracket starts around ``c1_now``, the closure's at ``c``, or is ``[0, rho]``.
    Each trial ``c1`` is solved once: brentq evaluates the bracket's ends
    again, and the committed state is the solve at the root it returns.
    """
    solve = tri.trapezoid(c, dt)
    solved: dict[float, np.ndarray] = {}

    def trapezoid(c1: float) -> np.ndarray:
        c_new = solved.get(c1)
        if c_new is None:
            c_new = solved[c1] = solve(c1)
        return c_new

    if isinstance(closure, FullClosure):
        origin, rho = 0.0, closure.rho
        # c1 = 0 at c up to rounding, as at t = 0 for ``bins`` data: a bracket
        # about 0 widens to the root slowly, from exactly 0 not at all
        start = (0.0, rho) if c1_now <= 1e-12 * rho else None

        def defect(c1: float) -> float:
            mid = 0.5 * (c + trapezoid(c1))
            return c1 - max(rho - float(ells @ mid), 0.0)
    else:
        origin, start, mass0 = model.z_s, None, float(ells @ c)

        def defect(c1: float) -> float:
            return float(ells @ trapezoid(c1)) - mass0

    if start is None:
        excess = c1_now - origin
        start = bracket(defect, origin + (1.0 - _GUESS_SPREAD) * excess,
                        origin + (1.0 + _GUESS_SPREAD) * excess, origin=origin, increasing=True)
    c1 = brentq(defect, *start, xtol=1e-15, rtol=8.9e-16)
    c_new = trapezoid(c1)
    # brentq's nan guard keeps ``defect`` in a reference cycle, so the states
    # and bands it reaches would outlive the step until the cycle collector runs
    solved.clear()
    del solve
    return c_new, c1


def _local_error(c: np.ndarray, c_new: np.ndarray, slope: np.ndarray, h: float,
                 previous: tuple[np.ndarray, float] | None) -> np.ndarray:
    """Milne's estimate of the local error of the trapezoid step c -> c_new of size h.

    ``slope`` is dc/dt at c; ``previous`` is (c_prev, tau), the state before
    the last accepted step and that step's size.  The quadratic predictor
    through them misses the solution by h^2 (h + tau) y3 / 6 and the
    trapezoid step by -h^3 y3 / 12, with y3 the third derivative, so
    (c_new - pred) h / (3h + 2 tau) is the trapezoid's error to leading
    order.  Without history, the difference to Euler overestimates it.
    """
    euler = c + h * slope
    if previous is None:
        return c_new - euler
    c_prev, tau = previous
    pred = euler + h * h * (c_prev - c + tau * slope) / (tau * tau)
    return (c_new - pred) * (h / (3.0 * h + 2.0 * tau))


def truncation_bound(mass: float, ell_max: int) -> float:
    """Largest density at ``ell_max`` a run accepts: above it, clusters pile
    up at the cutoff and the truncation no longer stands for the infinite
    system."""
    return 1e-10 * mass / ell_max


def run_bd(config: BdRunConfig) -> tuple[TrajectorySeries, list[tuple[float, np.ndarray]],
                                         list[float]]:
    """Integrate to t_end; returns the series, the state snapshots and ``clip_negatives``' log.

    Snapshots are (t, c) pairs with c indexed ell = 1..ell_max, taken at the
    ``output_times`` by ``march``, which raises RuntimeError on mass drift.
    A run aborts (BdRunError) on step-size underflow and on density at the cutoff.
    """
    config.validate()
    model, closure = config.model, config.closure
    full = isinstance(closure, FullClosure)
    gamma = np.asarray(config.initial, dtype=float)
    ell_max = len(gamma)
    ells = np.arange(2, ell_max + 1, dtype=float)
    bound = truncation_bound(closure.mass, ell_max)
    tri = _Tridiag(model, ell_max, full)
    c = gamma[1:].copy()
    dt = config.dt_init
    rows, snapshots, neg_log = [], [], []
    previous = None  # (state, step) of the last accepted step

    def record(t: float, _) -> None:
        rows.append(_row(t, c, config, ells))
        # the snapshot's monomer slot holds the full closure's c1; the Dirichlet state has none
        snapshots.append((t, np.concatenate(([rows[-1]["c1"] if full else 0.0], c))))

    def step(t: float, h: float, clipped: bool) -> float:
        nonlocal c, dt, previous
        c1 = closure.c1(c, model)
        slope = tri.rate(c, c1)
        while True:
            if h < 1e-14:
                raise BdRunError(f"step size underflow at t = {t}")
            c_new, _ = _step_semi_implicit(c, h, model, closure, tri, ells, c1)
            est = _local_error(c, c_new, slope, h, previous)
            scale = _ATOL + _RTOL * np.maximum(np.abs(c), np.abs(c_new))
            err = float(np.max(np.abs(est) / scale))
            committed = clip_negatives(c_new, neg_log) if err <= 1.0 else None
            if committed is not None:
                break
            clipped = False
            h *= 0.5 if err <= 1.0 else max(0.2, 0.9 * err ** (-1.0 / 3.0))
        previous, c = (c, h), committed
        cand = h * min(4.0, max(0.2, 0.9 * (max(err, 1e-12)) ** (-1.0 / 3.0)))
        dt = max(cand, dt) if clipped else cand
        if c[-1] > bound:
            raise BdRunError(f"truncation saturation: c_ell_max = {c[-1]:.3e} at "
                             f"t = {t + h}; increase ell_max")
        return h

    march(output_times(config.t_end, config.output_stride), lambda: dt, step, record,
          lambda: float(ells @ c) + (monomer_closure_full(c, closure.rho) if full else 0.0))
    return TrajectorySeries.from_rows(rows, f"bd:{closure.name}:semi-implicit"), snapshots, neg_log


def _row(t: float, c: np.ndarray, config: BdRunConfig, ells: np.ndarray) -> dict:
    """The series row of the cluster densities ``c`` (ell = 2..ell_max) at t."""
    c1 = config.closure.c1(c, config.model)
    # size-1 clusters add c1 to every moment; the Dirichlet state holds none
    monomers = c1 if isinstance(config.closure, FullClosure) else 0.0
    number, mass, energy, scale = (monomers + m for m in moments(ells, c))
    lam = mass / number if number > 0 else np.nan
    z_s = config.model.z_s
    ell_scale = (config.model.q / (c1 - z_s)) ** 3 if c1 > z_s else np.nan
    return {"t": t, "mass": mass, "c1": c1, "g": float(c.sum()), "Lambda": lam,
            "L": ell_scale, "E": energy, "M": scale, "N": number}
