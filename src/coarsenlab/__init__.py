"""Numerical laboratory for cluster coarsening.

Modules:

* :mod:`coarsenlab.rates` — attachment/evaporation rates, equilibrium family,
  critical density.
* :mod:`coarsenlab.bd` — the truncated cluster kinetics in the mass-conserving
  and Dirichlet closures.
* :mod:`coarsenlab.lsw_classical` — the transport (zero-diffusion) solver by
  the method of characteristics.
* :mod:`coarsenlab.lsw_diffusive` — the finite-volume advection-diffusion
  solver and its adjoint.
* :mod:`coarsenlab.sde` — Monte Carlo paths of the single-cluster process.
* :mod:`coarsenlab.banded` — the tridiagonal layout, its solve and the root
  bracket shared by every implicit step.
* :mod:`coarsenlab.diagnostics` — coarsening functionals, inequality checks and
  the ``L(t)`` history the solvers share.
* :mod:`coarsenlab.harness` — experiment orchestration and the CLI backend.
"""

from .rates import RateModel, critical_density, equilibrium_table

__all__ = ["RateModel", "critical_density", "equilibrium_table"]
__version__ = "0.1.0"
