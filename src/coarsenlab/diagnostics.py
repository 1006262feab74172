"""Coarsening functionals and inequality checks shared by all solvers.

Everything here works off either plain (size, weight) arrays (for the
pointwise moments) or a recorded :class:`TrajectorySeries` (for the
time-dependent checks), never off solver internals, so the same checks apply
to the discrete cluster system, the classical transport solver, and the
diffusive finite-volume solver.  Each invariant a run is checked for is one
function here, and :func:`run_checks` applies a table of them.  :func:`write_csv`
is the one CSV writer for every artifact.  :class:`LHistory` is the record of
the transport parameter ``L(t)`` that the classical, diffusive and Monte Carlo
solvers share.  :func:`march` is the one run loop of the Becker-Doring and
diffusive steppers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrajectorySeries",
    "LHistory",
    "moments",
    "write_csv",
    "output_times",
    "check_window",
    "march",
    "clip_negatives",
    "check",
    "run_checks",
    "nondecreasing",
    "nonincreasing",
    "strictly_decreasing",
    "bounded",
    "max_drift",
    "above",
    "kohn_otto_report",
    "coarsening_rate",
]


@dataclass
class TrajectorySeries:
    """Time series of diagnostics recorded along a run.

    ``columns`` maps names such as "Lambda", "L", "E", "M", "N", "mass" to
    arrays aligned with ``times``.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("series times must be strictly increasing")
        for name, col in self.columns.items():
            col = np.asarray(col, dtype=float)
            if col.shape != self.times.shape:
                raise ValueError(f"column {name!r} length mismatch")
            self.columns[name] = col

    @classmethod
    def from_rows(cls, rows: list[dict]) -> "TrajectorySeries":
        """Series of ``rows``, each ``"t"`` and one value per column by name.

        The columns take the order of the first row's keys.
        """
        names = [name for name in rows[0] if name != "t"]
        return cls(times=np.array([row["t"] for row in rows]),
                   columns={name: np.array([row[name] for row in rows]) for name in names})

    def __len__(self) -> int:
        return len(self.times)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def write_csv(self, path, order: list[str]) -> None:
        """Write the columns ``t,<order...>`` with :func:`write_csv`."""
        data = np.column_stack([self.times] + [self.columns[k] for k in order])
        write_csv(path, ",".join(["t"] + order), data)


L_FLOOR = 1e-8  # no L(t) is recorded below this


@dataclass(frozen=True)
class LHistory:
    """Piecewise-linear record of L(t) on strictly increasing knots."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1 or len(t) < 1:
            raise ValueError("times/values must be matching 1-D arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        if np.any(v < L_FLOOR):
            raise ValueError(f"L below floor {L_FLOOR}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float, t_end: float) -> "LHistory":
        return cls(times=np.array([0.0, t_end]), values=np.array([value, value]))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def value(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < self.times[0] - 1e-12) or np.any(s > self.times[-1] + 1e-12):
            raise ValueError("L lookup outside the recorded history")
        return np.interp(s, self.times, self.values)

    def extended(self, t_new: float, value: float) -> "LHistory":
        if t_new <= self.times[-1]:
            raise ValueError("new knot must advance in time")
        return LHistory(
            times=np.append(self.times, t_new),
            values=np.append(self.values, value),
        )


def write_csv(path, header: str, rows: np.ndarray, lead=None) -> None:
    """Write the rows of a 2-D array as ``repr(float(v))``, ',' delimited, LF endings.

    ``lead``, if given, holds one string per row, written before it: the
    leading columns, already formatted the same way, each ending in ','.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        # Python floats, converted in one pass
        for head, row in zip(lead or itertools.repeat(""), rows.tolist()):
            fh.write(head + ",".join(map(repr, row)) + "\n")


def output_times(t_end: float, stride: float) -> np.ndarray:
    """0, multiples of stride before t_end, and t_end; no gap is under stride/4 unless t_end is."""
    return np.append(np.arange(0.0, max(t_end - 0.25 * stride, 0.5 * t_end), stride), t_end)


T_SLACK = 1e-12  # a stop this close to t is reached; the run ends this close to its last
MASS_TOL = 1e-8  # mass drift, relative to max(initial mass, 1), that aborts a run
NEG_CLIP = 1e-12  # densities down to -NEG_CLIP are rounding, clipped to 0


def check_window(t_end: float, stride: float) -> None:
    """Raise ValueError unless a run to t_end steps and its output times lie over T_SLACK apart."""
    if t_end <= T_SLACK:
        raise ValueError(f"t_end must exceed {T_SLACK:g}, or the run takes no step")
    if stride < 4.0 * T_SLACK:  # the gaps of output_times exceed stride/4
        raise ValueError(f"output_stride must be at least {4.0 * T_SLACK:g}")


def march(stops, propose, attempt, at_stop, mass) -> float:
    """Step from t = 0 through the sorted ``stops``; returns the end time.

    ``attempt(t, dt, clipped)`` steps by at most dt, ``propose()`` clipped to the
    next stop (``clipped`` if it was), and returns the step it took.  At t = 0 and
    after each step, ``at_stop(t, stop)`` takes each stop within T_SLACK of t, in
    order; the last ends the run.  A drift of ``mass()`` over MASS_TOL times
    max(its value at t = 0, 1) raises RuntimeError.
    """
    t, k, mass0 = 0.0, 0, mass()
    while True:
        while k < len(stops) and stops[k] <= t + T_SLACK:
            at_stop(t, stops[k])
            k += 1
        if k == len(stops):
            return t
        dt, gap = propose(), stops[k] - t
        t += attempt(t, min(dt, gap), dt > gap)
        drift = mass() - mass0
        if abs(drift) > MASS_TOL * max(mass0, 1.0):
            raise RuntimeError(f"mass drift {drift:.3e} at t = {t}")


def clip_negatives(c: np.ndarray, log: list[float]) -> np.ndarray | None:
    """``c`` with negatives down to -NEG_CLIP set to 0, its minimum logged; None below that."""
    m = float(c.min())
    if m < -NEG_CLIP:
        return None
    if m < 0.0:
        log.append(m)
        c = np.maximum(c, 0.0)
    return c


# ---------------------------------------------------------------------------
# pointwise moments


def moments(x: np.ndarray, w: np.ndarray) -> tuple[float, float, float, float]:
    """(N, mass, E, M): the 0-, 1-, 2/3- and 4/3-moments of weights w at sizes x.

    ``w`` is the number carried at each size: cell averages times cell widths
    on a grid, or the cluster densities themselves for the discrete system.
    """
    number = float(w.sum())
    mass = float(x @ w)
    energy = float(np.cbrt(x * x) @ w)
    scale = float((np.cbrt(x) * x) @ w)
    return number, mass, energy, scale


# ---------------------------------------------------------------------------
# invariants, each returning one check's entry: name, passed, what it measured


def check(name: str, passed, **extra) -> dict:
    return {"name": name, "passed": bool(passed), **extra}


def run_checks(rows, data) -> list[dict]:
    """The check of each row (name, invariant, columns, keywords) on ``data[column]``."""
    return [invariant(name, *(data[col] for col in cols), **kw)
            for name, invariant, cols, kw in rows]


def nondecreasing(name: str, x, atol: float = 0.0, rtol: float = 0.0) -> dict:
    """No step of ``x`` falls by more than atol + rtol |x|, x the value it leaves."""
    return check(name, np.all(np.diff(x) >= -(atol + rtol * np.abs(x[:-1]))))


def _ends(x, label: str) -> dict:  # the ends of column ``label``
    return {f"{label}_first": float(x[0]), f"{label}_last": float(x[-1])}


def nonincreasing(name: str, x, atol: float, label: str) -> dict:
    """No step of ``x`` rises by more than atol; reports its ends."""
    return check(name, np.all(np.diff(x) <= atol), **_ends(x, label))


def strictly_decreasing(name: str, x, label: str | None = None) -> dict:
    """Each value of ``x`` below the one before; reports its ends, or all of it unlabelled."""
    return check(name, np.all(np.diff(x) < 0), **(_ends(x, label) if label else {"values": x}))


def max_drift(name: str, x, ref: float | None = None, *, tol: float) -> dict:
    """The largest |x - ref| at most tol max(ref, 1), reported as max_drift; without
    ``ref``, ``x`` is a residual, its largest |x| at most tol, reported as max_residual."""
    key, ref = ("max_residual", 0.0) if ref is None else ("max_drift", ref)
    drift = float(np.max(np.abs(x - ref)))
    return check(name, drift <= tol * max(ref, 1.0), **{key: drift})


def bounded(name: str, x, hi=np.inf, lo: float = -np.inf, rtol: float = 0.0, **extra) -> dict:
    """Every value of ``x`` at most hi (1 + rtol) and at least lo; reports ``extra`` as given."""
    return check(name, np.all((lo <= x) & (x <= hi * (1 + rtol))), **extra)


def above(name: str, x, lo: float, label: str) -> dict:
    """Every value of ``x`` over ``lo``; reports its least as min_<label>."""
    return check(name, np.all(x > lo), **{f"min_{label}": float(np.min(x))})


# ---------------------------------------------------------------------------
# series-level checks

_N_LADDER = 8  # T values on the R(T) ladder, halving down from the end time


def kohn_otto_report(series: TrajectorySeries) -> dict:
    """Boundedness/monotonicity report for the coarsening-rate inequalities.

    Checks, on a recorded run: the energy E is nonincreasing; the product
    E*M never drops below 1 (Schwarz, for unit mass); the finite-difference
    ratio |dM/dt|^2 / |dE/dt| stays bounded (no growth trend over the second
    half of the run); and the time-averaged rate functional
    R(T) = [T^-1 int_0^T E^2 dt]^(-3/2) / T is bounded along a ladder of T.
    """
    if len(series) < 8:
        raise ValueError("series too short for a coarsening report (< 8 samples)")
    t = series.times
    e = series.column("E")
    m = series.column("M")

    e_tol = 1e-12 * max(1.0, float(np.max(np.abs(e))))
    e_nonincreasing = nonincreasing("E_nonincreasing", e, e_tol, "E")["passed"]

    em_min = float(np.min(e * m))

    dt = np.diff(t)
    de = np.diff(e) / dt
    dm = np.diff(m) / dt
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(de) > 0, dm * dm / np.abs(de), np.inf)
    ratio = ratio[np.isfinite(ratio)]
    half = len(ratio) // 2
    ratio_late = ratio[half:]
    ratio_max = float(np.max(ratio)) if len(ratio) else float("nan")
    # "bounded" = the late-time level does not exceed the early-time level:
    # compare upper quartiles so single-sample noise does not dominate.
    ratio_bounded = len(ratio_late) < 4 or half < 4 or bounded(
        "rate_ratio_bounded", np.quantile(ratio_late, 0.75),
        1.5 * np.quantile(ratio[:half], 0.75) + 1e-30)["passed"]

    # R(T) ladder: geometric T values up to the end of the run.
    t_end = float(t[-1])
    ladder_t = t_end * 0.5 ** np.arange(_N_LADDER - 1, -1, -1, dtype=float)
    e_sq = e * e
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (e_sq[1:] + e_sq[:-1]) * dt)))
    r_values = []
    for big_t in ladder_t:
        avg = float(np.interp(big_t, t, cum)) / big_t
        r_values.append(avg ** (-1.5) / big_t)
    lam = series.columns.get("Lambda")
    if lam is not None and np.isfinite(lam[0]):
        doubled = np.nonzero(lam >= 2.0 * lam[0])[0]
        t0 = float(t[doubled[0]]) if len(doubled) else t_end
    else:
        t0 = float(t[len(t) // 4])
    tail = np.array([r for bt, r in zip(ladder_t, r_values) if bt >= t0])
    r_bounded = bounded("R_bounded", tail[1:], tail[:-1], rtol=0.05)["passed"]

    return {
        "E_nonincreasing": e_nonincreasing,
        "EM_min": em_min,
        "EM_at_least_one": bounded("EM_at_least_one", em_min, lo=1.0 - 1e-6)["passed"],
        "rate_ratio_max": ratio_max,
        "rate_ratio_bounded": ratio_bounded,
        "R_ladder": [
            {"T": float(bt), "R": float(r)} for bt, r in zip(ladder_t, r_values)
        ],
        "R_bounded": r_bounded,
        "T_doubling": t0,
    }


def coarsening_rate(series: TrajectorySeries, t: float) -> tuple[float, bool]:
    """Centered finite-difference d(Lambda)/dt with Richardson extrapolation.

    Returns (rate, smooth); ``smooth`` is False when the stride-h and
    stride-2h estimates disagree by more than 20%, flagging an unreliable
    window rather than raising.
    """
    times = series.times
    lam = series.column("Lambda")
    h = float(np.median(np.diff(times)))
    if not (times[0] + 2 * h <= t <= times[-1] - 2 * h):
        raise ValueError("t too close to the ends of the series")

    def lam_at(s: float) -> float:
        return float(np.interp(s, times, lam))

    d_h = (lam_at(t + h) - lam_at(t - h)) / (2 * h)
    d_2h = (lam_at(t + 2 * h) - lam_at(t - 2 * h)) / (4 * h)
    rate = (4.0 * d_h - d_2h) / 3.0
    scale = max(abs(rate), 1e-300)
    smooth = abs(d_h - d_2h) <= 0.2 * scale
    return rate, smooth
