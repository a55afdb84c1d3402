"""The negative-gradient semiflow, integrated with classical RK4.

A *system* is any object with

* ``energy(x) -> (...)``        lattice-summed energy, batched,
* ``grad(x) -> (..., sites)``   the formal gradient (= equilibrium residual),
* ``dt_safe -> float``          a step bound from the Lipschitz estimate,

where ``x`` stacks field values with the lattice axes trailing and arbitrary
leading batch axes.  The flow integrates ``dx/dt = -grad(x)`` with a fixed
step; if a step raises the energy of any batch member by more than
``ENERGY_INCREASE_TOL`` the step size is halved and the step retried (at most
``MAX_DT_HALVINGS`` times), after which the run aborts.

``refine_critical`` is the one Newton solver of the package: ground-state
polish, saddle refinement and the box maximizer's polish all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .defaults import (BOX_INTERIOR_TOL, ENERGY_INCREASE_TOL, MAX_DT_HALVINGS,
                       MAX_FLOW_STEPS, STATIONARITY_TOL)
from .fields import FkSaddleError


class FlowError(FkSaddleError):
    pass


@dataclass(frozen=True)
class FlowParams:
    """Integration controls for the gradient semiflow.

    ``dt=None`` selects the Lipschitz-safe step of the system.  ``t_max``
    bounds the flow horizon; stationarity (l2 residual below
    ``stationarity_tol``) stops the flow earlier unless ``run_to_t_max``.
    ``max_steps`` is a budget guard only: the stops are set in flow time.
    """

    dt: float | None = None
    t_max: float = 200.0
    stationarity_tol: float = STATIONARITY_TOL
    max_steps: int = MAX_FLOW_STEPS
    run_to_t_max: bool = False

    def resolve_dt(self, system) -> float:
        dt = self.dt if self.dt is not None else system.dt_safe
        if dt <= 0:
            raise FlowError("dt must be positive")
        if dt > system.dt_safe * (1 + 1e-12):
            raise FlowError("dt=%g exceeds the Lipschitz-safe bound %g"
                            % (dt, system.dt_safe))
        return dt

    def with_(self, **kw) -> "FlowParams":
        return replace(self, **kw)


@dataclass
class FlowTrace:
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def record(self, t, energy, residual):
        self.times.append(t)
        self.energies.append(energy)
        self.residuals.append(residual)


def _l2(values: np.ndarray, lat_axes: int) -> np.ndarray:
    axes = tuple(range(values.ndim - lat_axes, values.ndim))
    return np.sqrt(np.sum(values ** 2, axis=axes))


def rk4_step(system, x: np.ndarray, dt: float, k1: np.ndarray | None = None):
    """One RK4 step of dx/dt = -grad(x); returns (x_next, k1)."""
    if k1 is None:
        k1 = -system.grad(x)
    k2 = -system.grad(x + 0.5 * dt * k1)
    k3 = -system.grad(x + 0.5 * dt * k2)
    k4 = -system.grad(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def guarded_step(system, x, dt, energy, k1=None):
    """RK4 step with the energy-decrease guard; returns (x, dt, energy, halved)."""
    halved = 0
    while True:
        x_new, k1 = rk4_step(system, x, dt, k1)
        e_new = system.energy(x_new)
        if np.all(e_new <= energy + ENERGY_INCREASE_TOL):
            return x_new, dt, e_new, halved
        halved += 1
        if halved > MAX_DT_HALVINGS:
            raise FlowError("energy increased for %d successive halvings; "
                            "smallest attempted dt was %g" % (halved, dt))
        dt *= 0.5


def flow(system, x0: np.ndarray, params: FlowParams):
    """Integrate the semiflow from x0; returns (x, trace, converged).

    Works on batched states; the stopping residual is the worst l2 residual
    over the batch.  NaN anywhere aborts, and so does a ``run_to_t_max`` flow
    whose step budget runs out before ``t_max``.
    """
    x = np.asarray(x0, dtype=float).copy()
    dt = params.resolve_dt(system)
    nlat = system.lattice_ndim
    trace = FlowTrace()
    energy = system.energy(x)
    g = system.grad(x)
    res = float(np.max(_l2(g, nlat)))
    trace.record(0.0, energy, res)
    t = 0.0
    for _ in range(params.max_steps):
        if not params.run_to_t_max and res <= params.stationarity_tol:
            return x, trace, True
        if t >= params.t_max - 1e-15:
            return x, trace, res <= params.stationarity_tol
        step = min(dt, params.t_max - t)
        x, dt_used, energy, halved = guarded_step(system, x, step, energy, k1=-g)
        if not np.all(np.isfinite(x)):
            raise FlowError("NaN detected during flow at t=%g" % t)
        if halved:
            dt = dt_used  # keep the reduced step for the rest of the run
        t += dt_used
        g = system.grad(x)
        res = float(np.max(_l2(g, nlat)))
        trace.record(t, energy, res)
    if params.run_to_t_max and t < params.t_max - 1e-15:
        raise FlowError("flow stopped at t=%g short of t_max=%g: the %d-step budget "
                        "ran out" % (t, params.t_max, params.max_steps))
    return x, trace, res <= params.stationarity_tol


def flow_to_stationarity(system, x0, params: FlowParams):
    """Flow until the residual tolerance is met; raise if the budget runs out."""
    x, trace, ok = flow(system, x0, params)
    if not ok:
        raise FlowError("flow did not reach residual %g within t_max=%g / %d steps "
                        "(last residual %g)" % (params.stationarity_tol, params.t_max,
                                                params.max_steps, trace.residuals[-1]))
    return x, trace


def refine_critical(system, x0: np.ndarray, tol: float, max_iter: int = 100,
                    hi: np.ndarray | None = None):
    """Damped Newton on the equilibrium residual from x0.

    Uses the squared residual norm as merit function; returns
    (x, linf_residual, converged).  The system must expose ``hess_matrix``.

    With a box ``hi``, only the free sites (more than ``BOX_INTERIOR_TOL``
    inside ``(0, hi)``) move and count toward the residual: each step solves
    the free block of the Hessian and every trial point is clipped to
    ``[0, hi]``, so sites on a face stay there.
    """
    x = np.asarray(x0, dtype=float).copy()

    def residual(x):
        g = system.grad(x)
        if hi is None:
            return g, None
        free = np.flatnonzero((x > BOX_INTERIOR_TOL) & (x < hi - BOX_INTERIOR_TOL))
        return g.ravel()[free], free

    g, free = residual(x)
    merit = float(np.sum(g ** 2))
    for _ in range(max_iter):
        res = float(np.max(np.abs(g), initial=0.0))
        if res <= tol:
            return x, res, True
        H = system.hess_matrix(x)
        if free is not None:
            H = H[np.ix_(free, free)]
        try:
            step = np.linalg.solve(H, -g.ravel())
        except np.linalg.LinAlgError:
            return x, res, False
        alpha = 1.0
        while alpha >= 1e-6:
            if free is None:
                x_try = x + alpha * step.reshape(x.shape)
            else:
                x_try = x.flatten()
                x_try[free] += alpha * step
                x_try = np.clip(x_try.reshape(x.shape), 0.0, hi)
            g_try, free_try = residual(x_try)
            m_try = float(np.sum(g_try ** 2))
            if m_try <= merit * (1.0 - 0.25 * alpha) + 1e-300:
                x, g, free, merit = x_try, g_try, free_try, m_try
                break
            alpha *= 0.5
        else:
            return x, res, False
    res = float(np.max(np.abs(g), initial=0.0))
    return x, res, res <= tol
