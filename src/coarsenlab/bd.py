"""Time integration of the truncated Becker-Doring cluster system.

Two closures fix the monomer density c1, and each class is the one place that
knows how it differs from the other:

* ``FullClosure`` -- the mass-conserving system, ``c1 = max(rho - sum_{ell>=2}
  ell c_ell, 0)``, rho the initial mass.  c1 counts as the size-1 clusters: in
  the ell = 1 slot, in every moment, and as pair creation a1 c1^2 into ell = 2.
* ``DirichletClosure`` -- the coarsening system with ``c(1,t) = 0``: c1 keeps
  the mass on ``ell >= 2`` at 1, at vanishing step size the flux-balance
  formula ``c1 = z_s + (a1 q g + b2 c2) / sum a_ell c_ell``.  It drops the
  monomers of initial data and scales the rest to unit mass.

The integrator is a semi-implicit trapezoidal scheme: for a frozen c1 the
truncated system is affine tridiagonal in the cluster densities, dc/dt =
A(c1) c + r(c1), so each stage is one banded solve (``banded.solve_banded``).
c1 is fixed per step by a root-find on the closure's defect and bracket
(``banded.bracket``), so the closure holds at the committed state.  A(c1) =
A0 + c1 A1 is split once per run, so a trial c1 costs one band update and one
solve; a step solves each trial once and commits the solve at the root.  The
step size follows Milne's device: a quadratic predictor through the previous
accepted state, the current one and the slope there gives the trapezoid's
local error from the one step each attempt takes, so an attempt costs one
root-find.  ``diagnostics.march`` clips the steps to the output times and
aborts on mass drift.  ``tests/test_bd.py`` checks the scheme against DOP853
over ``bd_rhs``, which takes c_ell for ell = 1..ell_max; the stepper's state
and the closures' ``c1`` take only ell = 2..ell_max.
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
    "bd_rhs",
    "run_bd",
    "truncation_bound",
]


_RTOL = 1e-9  # local error tolerance of the semi-implicit stepper
_ATOL = 1e-12
# The bracket starts this far either side of c1 at the step's start, relative to
# c1 - z_s (Dirichlet) or c1 (full), and widens when the root lies outside; on the
# benchmark's Dirichlet run every root's (c1 - z_s)/(guess - z_s) is in [0.99986, 0.9999997].
_GUESS_SPREAD = 1e-3

Trapezoid = Callable[[float], np.ndarray]  # trial c1 -> the step's new cluster densities


class BdRunError(RuntimeError):
    """Step-size underflow or truncation overflow; mass drift raises RuntimeError in ``march``."""


@dataclass(frozen=True)
class FullClosure:
    rho: float
    name = "full"

    @classmethod
    def for_data(cls, gamma: np.ndarray) -> tuple[FullClosure, np.ndarray]:
        """The closure that conserves the mass of ``gamma``, and ``gamma`` as its state."""
        return cls(float(np.arange(1, len(gamma) + 1) @ gamma)), gamma

    @property
    def mass(self) -> float:
        return self.rho

    def c1(self, c: np.ndarray, model: RateModel) -> float:
        """``c`` holds the cluster densities c_ell for ell = 2..ell_max."""
        ells = np.arange(2, len(c) + 2)
        return float(max(self.rho - ells @ c, 0.0))

    def monomers(self, c1: float) -> float:
        """The density c(1, t) of size-1 clusters at monomer density c1."""
        return c1

    def root_find(self, c: np.ndarray, trapezoid: Trapezoid, ells: np.ndarray, c1_now: float,
                  model: RateModel) -> tuple[Callable[[float], float], tuple[float, float]]:
        """(defect, bracket) of the step's c1: the closure at the step's midpoint."""
        rho = self.rho

        def defect(c1: float) -> float:
            mid = 0.5 * (c + trapezoid(c1))
            return c1 - max(rho - float(ells @ mid), 0.0)

        # c1 = 0 at c up to rounding, as at t = 0 for ``bins`` data: a bracket
        # about 0 widens to the root slowly, from exactly 0 not at all
        if c1_now <= 1e-12 * rho:
            return defect, (0.0, rho)
        return defect, _bracket_about(defect, c1_now, 0.0)


@dataclass(frozen=True)
class DirichletClosure:
    name = "dirichlet"
    mass = 1.0  # on ell >= 2; the state holds no monomers

    @classmethod
    def for_data(cls, gamma: np.ndarray) -> tuple[DirichletClosure, np.ndarray]:
        """The closure, and ``gamma`` without monomers at unit mass; data without any is
        kept as it is, since scaling unit-mass data again would move its last bits."""
        if gamma[0] == 0.0:
            return cls(), gamma
        clusters = np.concatenate(([0.0], gamma[1:]))
        return cls(), clusters / float(np.arange(1, len(gamma) + 1) @ clusters)

    def c1(self, c: np.ndarray, model: RateModel) -> float:
        """Flux-balance c1, above z_s for nonempty states; ``c`` holds ell = 2..ell_max."""
        ells = np.arange(2, len(c) + 2)
        denom = float(model.attach(ells) @ c)
        if denom <= 0.0:
            raise ZeroDivisionError("degenerate state: no clusters with ell >= 2")
        numer = model.a1 * model.q * float(c.sum()) + float(model.detach(2)) * float(c[0])
        return model.z_s + numer / denom

    def monomers(self, c1: float) -> float:
        """The density c(1, t) of size-1 clusters: none."""
        return 0.0

    def root_find(self, c: np.ndarray, trapezoid: Trapezoid, ells: np.ndarray, c1_now: float,
                  model: RateModel) -> tuple[Callable[[float], float], tuple[float, float]]:
        """(defect, bracket) of the step's c1: the mass on ell >= 2 kept."""
        mass0 = float(ells @ c)

        def defect(c1: float) -> float:
            return float(ells @ trapezoid(c1)) - mass0

        return defect, _bracket_about(defect, c1_now, model.z_s)


Closure = FullClosure | DirichletClosure


def _bracket_about(defect: Callable[[float], float], c1_now: float,
                   origin: float) -> tuple[float, float]:
    """``bracket`` from ``_GUESS_SPREAD`` either side of c1_now, relative to c1_now - origin."""
    excess = c1_now - origin
    return bracket(defect, origin + (1.0 - _GUESS_SPREAD) * excess,
                   origin + (1.0 + _GUESS_SPREAD) * excess, origin=origin, increasing=True)


@dataclass
class BdRunConfig:
    """A field with ``json`` metadata is a ``bd`` config key: its JSON type and default."""

    model: RateModel
    closure: Closure
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
        if gamma[0] != self.closure.monomers(gamma[0]):  # the closure fixes the ell = 1 slot
            raise ValueError(f"{self.closure.name} closure requires gamma_1 = 0")
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


def bd_rhs(c: np.ndarray, model: RateModel, closure: Closure) -> np.ndarray:
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

    def __init__(self, model: RateModel, ell_max: int, closure: Closure):
        ells = np.arange(2, ell_max + 1, dtype=float)
        a, b = model.attach(ells), model.detach(ells)  # a_ell, b_ell
        self.op0 = np.zeros((3, len(ells)))  # A0 = A(0)
        self.op0[0, 1:] = b[1:]
        self.op0[1] = -b
        self.op1 = np.zeros_like(self.op0)  # A1 = A(1) - A(0)
        self.op1[1, :-1] = -a[:-1]  # zero flux out of the top bin
        self.op1[2, :-1] = model.attach(ells[1:] - 1)  # a_(ell-1)
        self.a1 = model.a1
        self.monomers = closure.monomers  # r(c1) = a_1 c1 c(1) at ell = 2: pair creation

    def trapezoid(self, c: np.ndarray, dt: float) -> Trapezoid:
        """c1 -> c_new with (I - h A) c_new = (I + h A) c + dt r, h = dt/2."""
        h = 0.5 * dt
        lhs0, lhs1 = shifted(h, self.op0), h * self.op1
        rhs0, rhs1 = matvec(shifted(-h, self.op0), c), matvec(lhs1, c)

        def solve(c1: float) -> np.ndarray:
            rhs = rhs0 + c1 * rhs1
            rhs[0] += dt * self.a1 * c1 * self.monomers(c1)
            return solve_banded(lhs0 - c1 * lhs1, rhs)

        return solve

    def rate(self, c: np.ndarray, c1: float) -> np.ndarray:
        """dc/dt = A(c1) c + r(c1)."""
        out = matvec(self.op0, c) + c1 * matvec(self.op1, c)
        out[0] += self.a1 * c1 * self.monomers(c1)
        return out


def _step_semi_implicit(c: np.ndarray, dt: float, model: RateModel, closure: Closure,
                        tri: _Tridiag, ells: np.ndarray,
                        c1_now: float) -> tuple[np.ndarray, float]:
    """One trapezoidal step; the monomer density is fixed by the closure's root-find.

    Its bracket starts around ``c1_now``, the closure's at ``c``.  Each trial ``c1``
    is solved once: brentq evaluates the bracket's ends again, and the committed
    state is the solve at the root it returns.
    """
    solve = tri.trapezoid(c, dt)
    solved: dict[float, np.ndarray] = {}

    def trapezoid(c1: float) -> np.ndarray:
        c_new = solved.get(c1)
        if c_new is None:
            c_new = solved[c1] = solve(c1)
        return c_new

    defect, start = closure.root_find(c, trapezoid, ells, c1_now, model)
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
    gamma = np.asarray(config.initial, dtype=float)
    ell_max = len(gamma)
    ells = np.arange(2, ell_max + 1, dtype=float)
    bound = truncation_bound(closure.mass, ell_max)
    tri = _Tridiag(model, ell_max, closure)
    c = gamma[1:].copy()
    c1 = closure.c1(c, model)  # the closure's monomer density at c
    dt = config.dt_init
    rows, snapshots, neg_log = [], [], []
    previous = None  # (state, step) of the last accepted step

    def record(t: float, _) -> None:
        rows.append(_row(t, c, c1, config, ells))
        snapshots.append((t, np.concatenate(([closure.monomers(c1)], c))))

    def step(t: float, h: float, clipped: bool) -> float:
        nonlocal c, c1, dt, previous
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
        c1 = closure.c1(c, model)
        return h

    march(output_times(config.t_end, config.output_stride), lambda: dt, step, record,
          lambda: float(ells @ c) + closure.monomers(c1))
    return TrajectorySeries.from_rows(rows, f"bd:{closure.name}:semi-implicit"), snapshots, neg_log


def _row(t: float, c: np.ndarray, c1: float, config: BdRunConfig, ells: np.ndarray) -> dict:
    """The series row at t of the cluster densities ``c`` (ell = 2..ell_max) and c1."""
    monomers = config.closure.monomers(c1)  # size-1 clusters add to every moment
    number, mass, energy, scale = (monomers + m for m in moments(ells, c))
    lam = mass / number if number > 0 else np.nan
    z_s = config.model.z_s
    ell_scale = (config.model.q / (c1 - z_s)) ** 3 if c1 > z_s else np.nan
    return {"t": t, "mass": mass, "c1": c1, "g": float(c.sum()), "Lambda": lam,
            "L": ell_scale, "E": energy, "M": scale, "N": number}
