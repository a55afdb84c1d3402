"""The negative-gradient semiflow, integrated by explicit Euler at step 1/L.

A *system* is any object with

* ``energy(x) -> (...)``        lattice-summed energy, batched,
* ``grad(x) -> (..., sites)``   the formal gradient (= equilibrium residual),
* ``dt_safe -> float``          the step 1 / L from the Lipschitz bound L,

where ``x`` stacks field values with the lattice axes trailing and arbitrary
leading batch axes.  The flow integrates ``dx/dt = -grad(x)`` by the Euler
map ``x - h grad(x)`` at the step ``h = dt_safe`` (the last step of a
flow is cut short to land on ``t_max``).  Every flow only has
to reach stationarity or a flow-time stop, so no step needs trajectory
accuracy: at ``h <= 1 / L`` each step lowers the energy (the descent lemma),
and under (S3) it is monotone, so box invariance and order preservation
follow from the scheme.  A step that raises the energy of any batch member
by more than ``ENERGY_INCREASE_TOL`` can only mean the system's L is wrong,
and it is a ``FlowError`` that names L and the rise.

``flow(system, x0, tol, t_max)`` returns the final state, its step count
and its worst l2 residual; it steps at the system's ``dt_safe`` and stops
once that residual is at most ``tol`` (default ``STATIONARITY_TOL``) or at
flow time ``t_max`` (default ``FLOW_T_MAX``), its only horizon.  ``tol=0.0``
runs it to ``t_max``.  ``flow_to_stationarity(system, x0, tol)`` is the flow
that must settle: it raises if ``FLOW_T_MAX`` comes first.

``refine_critical`` is the one Newton solver of the package: the
ground-state polish and the saddle refinement both call it.  It needs
``hess_matrix(x)`` as well: a ``fields.BandedHessian``, block tridiagonal in
groups of strip layers (one dense block on the torus), solved by block LU in
O(sites * block) memory.  The solve pivots inside a block only, so every
step carries a certificate: ``|H s + g| <= NEWTON_SOLVE_RTOL |g|``, checked
through the block mat-vec, or the Newton stops unconverged.  A saddle's
Hessian is indefinite, but by Haynsworth's inertia additivity its negative
eigenvalue sits in exactly one Schur complement; a singular one is
non-generic and the certificate catches it.
"""

from __future__ import annotations

import math

import numpy as np

from .defaults import (ENERGY_INCREASE_TOL, FLOW_T_MAX, NEWTON_SOLVE_RTOL,
                       STATIONARITY_TOL)
from .fields import FkSaddleError


class FlowError(FkSaddleError):
    pass


def _l2(values: np.ndarray, lat_axes: int) -> np.ndarray:
    return np.sqrt((values * values).sum(axis=tuple(range(-lat_axes, 0))))


def rk4_step(system, x: np.ndarray, dt: float, k1: np.ndarray | None = None):
    """One explicit Euler step x + dt k1 along the force k1 (by default
    -grad(x)); returns (x_next, k1)."""
    if k1 is None:
        k1 = -system.grad(x)
    return x + dt * k1, k1


def guarded_step(system, x, dt, energy, k1=None):
    """Euler step with the energy-decrease guard; returns (x, dt, energy, 0).

    A batch member whose reference ``energy`` is +inf is exempt from the
    guard.  The last entry counts step halvings and is always 0: at
    ``dt <= 1 / L`` a rise means L is wrong, and that is a FlowError.
    """
    x_new, _ = rk4_step(system, x, dt, k1)
    e_new = system.energy(x_new)
    rise = float((e_new - energy).max(initial=-np.inf))
    if math.isnan(rise):
        raise FlowError("NaN energy after a step of %g" % dt)
    if rise > ENERGY_INCREASE_TOL:
        raise FlowError("energy rose by %g in a step of %g: the Lipschitz bound "
                        "L=%g understates the Hessian" % (rise, dt, 1.0 / system.dt_safe))
    return x_new, dt, e_new, 0


def flow(system, x0: np.ndarray, tol: float = STATIONARITY_TOL,
         t_max: float = FLOW_T_MAX):
    """Integrate the semiflow from x0; returns (x, steps, residual).

    Works on batched states; ``residual`` is the worst l2 residual over the
    batch, and the flow stops once it is at most ``tol`` or at flow time
    ``t_max``.  NaN anywhere aborts: a NaN residual takes the next
    step, whose energy check raises.
    """
    x = np.asarray(x0, dtype=float).copy()
    dt = system.dt_safe
    nlat = system.lattice_ndim
    energy = system.energy(x)
    g = system.grad(x)
    res = float(_l2(g, nlat).max())
    t, steps = 0.0, 0
    while not res <= tol and t < t_max - 1e-15:
        step = min(dt, t_max - t)
        x, _, energy, _ = guarded_step(system, x, step, energy, k1=-g)
        t += step
        steps += 1
        g = system.grad(x)
        res = float(_l2(g, nlat).max())
    return x, steps, res


def flow_to_stationarity(system, x0, tol: float = STATIONARITY_TOL):
    """Flow until the l2 residual is at most ``tol``; returns (x, steps) and
    raises if the horizon ``FLOW_T_MAX`` comes first."""
    x, steps, res = flow(system, x0, tol)
    if not res <= tol:
        raise FlowError("flow did not reach residual %g within t_max=%g (%d steps, "
                        "last residual %g)" % (tol, FLOW_T_MAX, steps, res))
    return x, steps


def refine_critical(system, x0: np.ndarray, tol: float, max_iter: int = 100):
    """Damped Newton on the equilibrium residual from x0.

    Uses the squared residual norm as merit function; returns
    (x, linf_residual, converged).  The system must expose ``grad`` and
    ``hess_matrix(x)``, which returns a Hessian with ``solve(rhs)`` (it may
    raise ``np.linalg.LinAlgError``) and ``matvec(v)`` on flat state vectors;
    ``fields.BandedHessian`` is the one in use.

    Each step s is certified: unless ``|H s + g| <= NEWTON_SOLVE_RTOL |g|``
    (l2, through ``matvec``), or if a block of the solve is singular, the
    Newton stops and returns the current point and residual with
    ``converged=False``.  The block solve pivots inside a block only, so the
    check is what stands behind a step.
    """
    x = np.asarray(x0, dtype=float).copy()
    g = system.grad(x).ravel()
    merit = float(np.sum(g ** 2))
    for _ in range(max_iter):
        res = float(np.max(np.abs(g), initial=0.0))
        if res <= tol:
            return x, res, True
        H = system.hess_matrix(x)
        try:
            step = H.solve(-g)
        except np.linalg.LinAlgError:
            return x, res, False
        miss = float(np.linalg.norm(H.matvec(step) + g))
        if not miss <= NEWTON_SOLVE_RTOL * math.sqrt(merit):
            return x, res, False
        step = step.reshape(x.shape)
        alpha = 1.0
        while alpha >= 1e-6:
            x_try = x + alpha * step
            g_try = system.grad(x_try).ravel()
            m_try = float(np.sum(g_try ** 2))
            if m_try <= merit * (1.0 - 0.25 * alpha) + 1e-300:
                x, g, merit = x_try, g_try, m_try
                break
            alpha *= 0.5
        else:
            return x, res, False
    res = float(np.max(np.abs(g), initial=0.0))
    return x, res, res <= tol
