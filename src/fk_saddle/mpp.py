"""Mountain-pass search over paths in the order box.

The minimax value is ``d = inf over paths h from 0 to w0-v0 of max_theta
I(h(theta))``.  Two solvers compute it:

* ``node-flow``: a string-method relaxation.  The path is a chain of N
  fields; interior nodes evolve under the gradient semiflow (the endpoints
  are flow fixed points), and after every REPARAM_TIME of flow the chain is
  re-equidistributed by l2 arc length.  When the max-node energy plateaus, a
  damped Newton solve on the equilibrium residual refines the argmax node to
  the nearby critical point.  A chain with a segment midpoint far above all
  its nodes is torn and never reports success.

* ``heat-flow``: the whole path is flowed without reparametrization, tracking
  where the maximum persists.  On a finite node grid the flowed chain tears
  across basin boundaries, so each tear is resolved by bisection on the
  initial path: the bisected trajectories shadow the boundary, and their
  closest approach to a critical point (smallest residual) seeds the same
  Newton refinement.  The reported value is the largest persistent level over
  settled nodes and tear edges.

Both modes return the same value on the models shipped here; the node-flow
solver is the default and the heat-flow solver doubles as a cross-check.

This module also hosts the explicit staircase paths (``chi_path`` /
``phi_path``) whose maxima bound d - c uniformly in the axis-1 period, the
order-relation classifier ``intersects``, the monotone-path level tracking
``theta_bounds``, and the multiplicity scan over elongated tori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import (BASIN_MATCH_TOL, CLASSIFY_CHECK_TIME, COMPARE_TOL,
                       HEAT_CLASSIFY_TIME, HEAT_SETTLE_TIME, HEAT_SETTLE_TOL,
                       MAX_BISECTIONS, MAX_SWEEPS, PLATEAU_TIME, PLATEAU_TOL,
                       REFINE_TRIGGER, REPARAM_TIME, STRICT_ORDER_TOL,
                       default_node_count)
from .fields import FkSaddleError, TorusField, validate_periods
from .model import SitePotential
from .periodic import GapPair, PeriodicSystem, minimize_periodic, require_gap
from .semiflow import FlowParams, flow, guarded_step, refine_critical, rk4_step


class PathError(FkSaddleError):
    pass


class ReparametrizationError(PathError):
    pass


# ---------------------------------------------------------------------------
# explicit staircase paths
# ---------------------------------------------------------------------------

def chi_path(k: int, t, i):
    """The piecewise-linear staircase profile chi_k(t, i).

    Defined for k >= 2 and 0 <= t <= (k+5)/2.  For even k the column at
    i = 0 ramps first, columns 1..k/2-1 follow at unit spacing, and the
    middle column k/2 ramps at half speed; the profile is even in i and
    k-periodic.  Odd k reuses the k-1 construction on the longer time
    interval.  Values are always in [0, 1].
    """
    if k < 2:
        raise PathError("chi_path needs k >= 2")
    t = np.asarray(t, dtype=float)
    tmax = (k + 5) / 2.0
    if np.any(t < -1e-12) or np.any(t > tmax + 1e-12):
        raise PathError("t outside [0, %g]" % tmax)
    keff = k if k % 2 == 0 else k - 1
    i = np.asarray(i, dtype=int)
    im = ((i % k) + k) % k
    im = np.minimum(im, k - im)          # even symmetry within one period
    im = np.minimum(im, keff // 2)       # odd k: outermost column reuses k-1 rule
    t, im = np.broadcast_arrays(t, im)
    # each column is a clamped linear ramp in t
    ramp = np.where(
        im == 0, t,
        np.where(im < keff // 2, 2.0 * t - 1.0 - 2.0 * im,
                 1.0 - 0.5 * ((keff + 5) / 2.0 - t)))
    return np.clip(ramp, 0.0, 1.0)


def phi_path(k: int, theta, i):
    """Time-rescaled staircase: phi_k(theta, i) = chi_k(theta (k+5)/2, i)."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > 1.0 + 1e-12):
        raise PathError("theta outside [0, 1]")
    return chi_path(k, np.clip(theta, 0.0, 1.0) * (k + 5) / 2.0, i)


# ---------------------------------------------------------------------------
# paths on the order box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathOnBox:
    """An ordered chain of fields joining 0 to w0 - v0 inside the box."""

    periods: tuple
    nodes: np.ndarray          # (N, *p), offsets from v0
    monotone: bool = False

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 + len(self.periods) or nodes.shape[0] < 3:
            raise PathError("need at least 3 nodes shaped (N, *periods)")
        object.__setattr__(self, "nodes", nodes)


def _polyline_at(nodes: np.ndarray, theta: float) -> np.ndarray:
    """The polygonal path through ``nodes`` (evenly spaced on [0, 1]) at a
    continuous parameter."""
    N = nodes.shape[0]
    th = np.linspace(0.0, 1.0, N)
    k = max(min(int(np.searchsorted(th, theta, side="right")) - 1, N - 2), 0)
    w = (theta - th[k]) / (th[k + 1] - th[k])
    return (1.0 - w) * nodes[k] + w * nodes[k + 1]


def build_initial_path(kind: str, N: int, k: int | None, gap: GapPair,
                       periods=None) -> PathOnBox:
    """Construct the starting chain: 'linear' homotopy or the 'chi' staircase."""
    gap = require_gap(gap)
    if N < 3:
        raise PathError("need N >= 3 nodes")
    periods = validate_periods(periods) if periods is not None else gap.v0.periods
    box = gap.box_field(periods).values
    thetas = np.linspace(0.0, 1.0, N)
    if kind == "linear":
        nodes = thetas.reshape((N,) + (1,) * len(periods)) * box
    elif kind == "chi":
        if k is None or k < 2:
            raise PathError("chi path needs k >= 2")
        i1 = np.arange(periods[0])
        prof = np.stack([phi_path(k, th, i1) for th in thetas])   # (N, p1)
        prof = prof.reshape((N, periods[0]) + (1,) * (len(periods) - 1))
        nodes = prof * box
    else:
        raise PathError("unknown path kind %r" % kind)
    nodes[0] = 0.0
    nodes[-1] = box
    return PathOnBox(periods=periods, nodes=nodes, monotone=True)


def clip_to_box(u: TorusField, gap: GapPair, periods=None) -> TorusField:
    """Sitewise max(min(u, w0 - v0), 0); idempotent."""
    gap = require_gap(gap)
    periods = periods or u.periods
    box = gap.box_field(periods).values
    return TorusField(periods, np.clip(u.values, 0.0, box))


# ---------------------------------------------------------------------------
# minimax results
# ---------------------------------------------------------------------------

@dataclass
class MinimaxResult:
    value: float                   # d
    argmax_index: int
    critical: np.ndarray           # offset values at the critical point
    residual: float                # sup-site |equilibrium residual|
    iterations: int
    value_trace: np.ndarray
    success: bool
    mode: str
    string_value: float            # max of the final chain (node-flow: nodes and segment midpoints)
    c_ref: float                   # energy of the path endpoints (= c0p)
    message: str = ""
    reparam_sweeps: list = field(default_factory=list)
    final_nodes: np.ndarray | None = None
    # node-flow: the string max at the start of each sweep's flow step (after
    # any reparametrization); value_trace[m] is its max after sweep m's step
    flow_start_trace: np.ndarray | None = None

    @property
    def barrier(self) -> float:
        return self.value - self.c_ref


def _band(string_max, c_ref):
    """How far a level may sit from the string top and still belong to it: a
    discrete node chain undershoots the true path maximum by the
    interpolation dip, so the band is a fraction of the barrier."""
    return max(1e-6, 0.1 * (string_max - c_ref))


def _validate_critical(system, x, hi, energy, c_ref, string_max, tol):
    """Gate a Newton-refined point: strictly inside the box, above the ground
    level, and within :func:`_band` of the string top."""
    active = hi > 1e-12
    if (~active).any() and np.max(np.abs(x[~active])) > 1e-7:
        return False
    if np.min(x[active]) <= STRICT_ORDER_TOL:
        return False
    if np.min((hi - x)[active]) <= STRICT_ORDER_TOL:
        return False
    if energy - c_ref <= 10.0 * tol:
        return False
    if abs(energy - string_max) > _band(string_max, c_ref):
        return False
    return True


def _chain_top(system, nodes, energies, c_ref):
    """The string max over nodes and segment midpoints, and whether the chain
    is torn.

    Neighbouring nodes that sit in different basins across a higher ridge
    have a segment midpoint far above every node; a midpoint more than
    :func:`_band` above the node max marks such a tear.
    """
    node_max = float(energies.max())
    mid_max = float(system.energy(0.5 * (nodes[:-1] + nodes[1:])).max())
    return max(node_max, mid_max), mid_max > node_max + _band(node_max, c_ref)


def _reparametrize(nodes: np.ndarray) -> np.ndarray:
    """Redistribute the chain uniformly in cumulative l2 arc length."""
    N = nodes.shape[0]
    flat = nodes.reshape(N, -1)
    seg = np.linalg.norm(np.diff(flat, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] < 1e-12:
        raise ReparametrizationError("path collapsed: total arc length < 1e-12")
    s /= s[-1]
    targets = np.linspace(0.0, 1.0, N)
    k = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, N - 2)
    ds = s[k + 1] - s[k]
    w = np.where(ds > 0, (targets - s[k]) / np.where(ds > 0, ds, 1.0), 0.0)
    out = (1.0 - w)[:, None] * flat[k] + w[:, None] * flat[k + 1]
    out[0] = flat[0]
    out[-1] = flat[-1]
    return out.reshape(nodes.shape)


def _sweeps_per(time: float, dt: float) -> int:
    """The whole number of steps dt closest to a flow time (at least one)."""
    return max(1, round(time / dt))


def _minimax_node_flow(system, nodes0, hi, params):
    """The string method: flow the interior nodes, reparametrize every
    ``REPARAM_TIME`` of flow, and refine the top node by Newton once the
    string max has flattened.

    Every control is a flow time or a change of the string max per
    ``REPARAM_TIME`` of flow, so the stops do not depend on the step dt
    (E, Ren & Vanden-Eijnden, J. Chem. Phys. 126, 164103, 2007).
    ``MAX_SWEEPS`` is a budget guard only.
    """
    nodes = np.asarray(nodes0, dtype=float).copy()
    dt = params.resolve_dt(system)
    energies = system.energy(nodes)
    c_ref = float(min(energies[0], energies[-1]))
    trace = [float(energies.max())]
    starts = []
    reparam_sweeps = []
    refine_tol = params.stationarity_tol
    best_refined = None
    sweep = 0
    prev_cycle_max = None
    flat_time = 0.0
    while sweep < MAX_SWEEPS and best_refined is None:
        # one cycle is about REPARAM_TIME of flow; the string drifts within a
        # cycle and is pulled back at its end, so stationarity is judged on
        # cycle boundaries, with the per-REPARAM_TIME budgets scaled to the
        # cycle's flow time
        cycle_time = 0.0
        for _ in range(_sweeps_per(REPARAM_TIME, dt)):
            sweep += 1
            starts.append(float(energies.max()))
            new_int, dt_used, e_int, halved = guarded_step(
                system, nodes[1:-1], dt, energies[1:-1])
            if halved:
                dt = dt_used
            cycle_time += dt_used
            nodes[1:-1] = new_int
            energies[1:-1] = e_int
            trace.append(float(energies.max()))
        scale = cycle_time / REPARAM_TIME
        cycle_max = float(energies.max())
        delta = abs(cycle_max - prev_cycle_max) if prev_cycle_max is not None else np.inf
        prev_cycle_max = cycle_max
        flat_time = flat_time + cycle_time if delta < PLATEAU_TOL * scale else 0.0
        if delta < REFINE_TRIGGER * scale:
            arg = int(np.argmax(energies))
            x_ref, res_inf, ok = refine_critical(system, nodes[arg], refine_tol)
            if ok:
                e_ref = float(system.energy(x_ref))
                if _validate_critical(system, x_ref, hi, e_ref, c_ref,
                                      cycle_max, refine_tol):
                    best_refined = (x_ref, res_inf, e_ref, arg)
                    break
            if flat_time >= PLATEAU_TIME and flat_time > cycle_time:
                break  # stalled for PLATEAU_TIME and two cycles, no saddle
        nodes = _reparametrize(nodes)
        energies = system.energy(nodes)
        reparam_sweeps.append(sweep)
    top, torn = _chain_top(system, nodes, energies, c_ref)
    record = dict(iterations=sweep, value_trace=np.array(trace),
                  flow_start_trace=np.array(starts), mode="node-flow",
                  string_value=top, c_ref=c_ref, reparam_sweeps=reparam_sweeps,
                  final_nodes=nodes)
    if torn:
        message = ("torn string: a segment midpoint sits %.6g above the top "
                   "node" % (top - float(energies.max())))
    elif best_refined is None:
        message = "saddle not isolated at tolerance"
    else:
        x_ref, res_inf, e_ref, arg = best_refined
        return MinimaxResult(value=e_ref, argmax_index=arg, critical=x_ref,
                             residual=res_inf, success=True, **record)
    arg = int(np.argmax(energies))
    g = system.grad(nodes[arg])
    return MinimaxResult(value=float(energies[arg]), argmax_index=arg,
                         critical=nodes[arg], residual=float(np.max(np.abs(g))),
                         success=False, message=message, **record)


# ---------------------------------------------------------------------------
# heat-flow mode
# ---------------------------------------------------------------------------

def _classify_flow(system, x, dt, reps):
    """Flow one state toward an attractor, watching for saddle fly-bys.

    The state is compared with ``reps`` every ``CLASSIFY_CHECK_TIME`` of
    flow; ``MAX_SWEEPS`` is a budget guard only.

    Returns ``(label, dip_state, dip_residual, is_new)``.  ``label`` indexes
    ``reps``; when the trajectory settles somewhere new, its end state is
    appended to ``reps`` and ``is_new`` is true.  The dip is the smallest
    residual later confirmed by a threefold rise: the closest approach to a
    critical point the trajectory passed but did not stop at (the terminal
    decay into the attractor does not count).
    """
    x = np.asarray(x, dtype=float).copy()
    g = system.grad(x)
    rn = float(np.linalg.norm(g))
    cur_min = (rn, x.copy())
    best_dip = None
    t = 0.0
    steps = 0
    label = None
    check_every = _sweeps_per(CLASSIFY_CHECK_TIME, dt)
    while t < HEAT_CLASSIFY_TIME and steps < MAX_SWEEPS:
        if rn <= HEAT_SETTLE_TOL:
            break
        if steps % check_every == 0:
            for li, rep in enumerate(reps):
                if float(np.max(np.abs(x - rep))) <= BASIN_MATCH_TOL:
                    label = li
                    break
            if label is not None:
                break
        x, _ = rk4_step(system, x, dt, k1=-g)
        t += dt
        steps += 1
        g = system.grad(x)
        rn = float(np.linalg.norm(g))
        if rn < cur_min[0]:
            cur_min = (rn, x.copy())
        elif rn > 3.0 * cur_min[0]:
            if best_dip is None or cur_min[0] < best_dip[0]:
                best_dip = cur_min
            cur_min = (rn, x.copy())
    is_new = False
    if label is None:
        for li, rep in enumerate(reps):
            if float(np.max(np.abs(x - rep))) <= BASIN_MATCH_TOL:
                label = li
                break
    if label is None:
        reps.append(x.copy())
        label = len(reps) - 1
        is_new = True
    dip = best_dip if best_dip is not None else cur_min
    return label, dip[1], dip[0], is_new


def _minimax_heat_flow(system, path0: np.ndarray, hi, params):
    path0 = np.asarray(path0, dtype=float)
    N = path0.shape[0]
    # settle phase: flow the whole chain (endpoints are fixed points)
    nodes, settle, _ = flow(system, path0, params.with_(
        t_max=HEAT_SETTLE_TIME, stationarity_tol=HEAT_SETTLE_TOL))
    energies = settle.energies[-1]
    c_ref = float(min(settle.energies[0][0], settle.energies[0][-1]))
    dt = params.resolve_dt(system)
    # classify node limits; reps collects the attractor representatives
    reps = []
    labels = np.empty(N, dtype=int)
    thetas = np.linspace(0.0, 1.0, N)
    rep_theta = {}
    for m in range(N):
        lab, _, _, _ = _classify_flow(system, nodes[m], dt, reps)
        labels[m] = lab
        rep_theta.setdefault(lab, float(thetas[m]))
    candidates = [(float(system.energy(rep)), rep, rep_theta.get(li, -1.0))
                  for li, rep in enumerate(reps)]
    rep_energy = [c[0] for c in candidates]

    # resolve every tear in the flowed chain by bisection on the initial path;
    # a tear's persistent level is its edge state between the two basins
    work = [[thetas[m], thetas[m + 1], labels[m], labels[m + 1]]
            for m in range(N - 1) if labels[m] != labels[m + 1]]
    refine_tol = params.stationarity_tol
    unresolved = 0
    while work:
        lo, hi_th, lab_lo, lab_hi = work.pop()
        best_edge = None
        crossing_cap = -np.inf
        done = False
        for it in range(MAX_BISECTIONS):
            mid = 0.5 * (lo + hi_th)
            start = _polyline_at(path0, mid)
            crossing_cap = max(crossing_cap, float(system.energy(start)))
            lab, dip_x, dip_r, is_new = _classify_flow(system, start, dt, reps)
            if is_new:
                e_new = float(system.energy(reps[lab]))
                candidates.append((e_new, reps[lab], mid))
                rep_energy.append(e_new)
            if best_edge is None or dip_r < best_edge[0]:
                best_edge = (dip_r, dip_x)
            collapsed = hi_th - lo < 1e-13
            if (it + 1) % 6 == 0 or collapsed:
                x_ref, res_inf, ok = refine_critical(system, best_edge[1],
                                                     refine_tol)
                if ok:
                    e_ref = float(system.energy(x_ref))
                    floor = max(rep_energy[lab_lo], rep_energy[lab_hi])
                    # a genuine edge sits strictly above both basin levels and
                    # below the energy the bisected trajectories started from
                    # (the flow only descends on its way across)
                    if floor + 1e-12 < e_ref <= crossing_cap + 1e-9:
                        candidates.append((e_ref, x_ref, mid))
                        done = True
                        break
                    # a stuck saddle can be a "basin" itself; the tear is then
                    # already represented by that rep
                    if collapsed and (
                            np.max(np.abs(x_ref - reps[lab_lo])) <= BASIN_MATCH_TOL
                            or np.max(np.abs(x_ref - reps[lab_hi])) <= BASIN_MATCH_TOL):
                        done = True
                        break
            if lab == lab_lo:
                lo = mid
            elif lab == lab_hi:
                hi_th = mid
            else:
                work.append([mid, hi_th, lab, lab_hi])
                hi_th, lab_hi = mid, lab
            if hi_th - lo < 1e-14:
                break
        if not done:
            unresolved += 1
    # the persistent level is the largest candidate
    val, x_best, th_best = max(candidates, key=lambda c: c[0])
    x_ref, res_best, ok = refine_critical(system, x_best, refine_tol)
    e_ref = float(system.energy(x_ref))
    if ok and abs(e_ref - val) <= max(1e-8, 1e-8 * abs(val)):
        x_best, val = x_ref, e_ref
    else:
        res_best = float(np.max(np.abs(system.grad(x_best))))
        ok = res_best <= refine_tol
    ok = ok and unresolved == 0
    arg = int(np.argmin(np.abs(thetas - th_best))) if th_best >= 0 else int(np.argmax(energies))
    return MinimaxResult(
        value=val, argmax_index=arg, critical=x_best, residual=res_best,
        iterations=len(settle.times) - 1,
        value_trace=np.array([float(e.max()) for e in settle.energies]),
        success=bool(ok),
        mode="heat-flow", string_value=float(energies.max()), c_ref=c_ref,
        message="" if ok else ("%d unresolved tears" % unresolved
                               if unresolved else "edge refinement exceeded tolerance"),
        final_nodes=nodes)


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------

def minimax_engine(mode: str):
    """The minimax engine of a mode.

    The engine is looked up by its module-global name on every call, so a
    wrapper bound to that name (the benchmark's tracer) reaches every caller.
    """
    if mode not in ("node-flow", "heat-flow"):
        raise PathError("unknown mode %r" % mode)
    return globals()["_minimax_" + mode.replace("-", "_")]


def best_of_restarts(run, nodes: np.ndarray, hi: np.ndarray, restarts: int):
    """``run(nodes)``, then ``run`` on ``restarts`` perturbed chains; keeps the
    smallest validated minimax level (every admissible path gives an upper
    bound).

    Staircase paths carry the column symmetries of their construction, and
    the string relaxation preserves symmetry, so a symmetric chain can stall
    on a higher symmetric critical point.  Restart ``s`` adds 0.05 times
    standard normal noise drawn from seed ``s``, clipped to the box
    ``[0, hi]`` with the endpoints pinned, which breaks the symmetry.
    """
    best = run(nodes)
    for s in range(restarts):
        rng = np.random.default_rng(s)
        trial_nodes = np.clip(nodes + 0.05 * rng.standard_normal(nodes.shape),
                              0.0, hi)
        trial_nodes[0] = 0.0
        trial_nodes[-1] = hi
        trial = run(trial_nodes)
        if trial.success and (not best.success or trial.value < best.value - 1e-12):
            best = trial
    return best


def mountain_pass(potential: SitePotential, gap: GapPair, path0: PathOnBox,
                  params: FlowParams | None = None,
                  mode: str = "node-flow") -> MinimaxResult:
    """Compute the minimax level and a critical field inside the gap box.

    ``path0`` fixes the torus; its endpoints must be pinned to 0 and w0 - v0.
    On success the result's critical field (an offset from v0) has sup-site
    equilibrium residual below tolerance, sits strictly inside the box, and
    its level exceeds c0p.
    """
    gap = require_gap(gap)
    params = params or FlowParams()
    periods = path0.periods
    v0 = gap.v0.extend(periods)
    hi = gap.box_field(periods).values
    if np.max(np.abs(path0.nodes[0])) != 0.0 or np.max(np.abs(path0.nodes[-1] - hi)) > 1e-12:
        raise PathError("path endpoints must be pinned to 0 and w0 - v0")
    system = PeriodicSystem(potential, periods, v0)
    return minimax_engine(mode)(system, path0.nodes, hi, params)


def best_mountain_pass(potential, gap, path0: PathOnBox, params,
                       restarts: int = 1, mode: str = "node-flow"):
    """mountain_pass on ``path0`` plus symmetry-broken restarts
    (:func:`best_of_restarts`)."""
    hi = require_gap(gap).box_field(path0.periods).values
    return best_of_restarts(
        lambda nodes: mountain_pass(potential, gap, PathOnBox(path0.periods, nodes),
                                    params, mode=mode),
        path0.nodes, hi, restarts)


def minimax_over_unconstrained_paths_check(potential, gap: GapPair, periods,
                                           params: FlowParams | None = None,
                                           seed: int = 0, N: int | None = None,
                                           base: MinimaxResult | None = None):
    """Numerical witness that clipping free paths into the box preserves d.

    Perturbs a converged path out of the box (scaling and additive bumps),
    clips it back, re-runs the solver, and reports whether the minimax values
    agree to 1e-6.  Disagreement is reported as a finding, not raised.
    """
    gap = require_gap(gap)
    params = params or FlowParams()
    periods = validate_periods(periods)
    N = N or default_node_count(periods)
    k = max(2, periods[0])
    path0 = build_initial_path("chi" if periods[0] > 1 else "linear",
                               N, k, gap, periods)
    if base is None:
        base = mountain_pass(potential, gap, path0, params)
    rng = np.random.default_rng(seed)
    hi = gap.box_field(periods).values
    findings = []
    variants = {
        "scaled-1.5": path0.nodes * 1.5,
        "bumped": path0.nodes + 0.6 * rng.standard_normal(path0.nodes.shape),
    }
    for name, nodes in variants.items():
        clipped = np.clip(nodes, 0.0, hi)
        clipped[0] = 0.0
        clipped[-1] = hi
        res = mountain_pass(potential, gap,
                            PathOnBox(periods, clipped, monotone=False), params)
        findings.append({
            "variant": name,
            "d": res.value,
            "d_base": base.value,
            "delta": abs(res.value - base.value),
            "agrees": bool(abs(res.value - base.value) <= 1e-6),
        })
    return {"base": base, "findings": findings,
            "all_agree": all(f["agrees"] for f in findings)}


# ---------------------------------------------------------------------------
# monotone-path level tracking
# ---------------------------------------------------------------------------

@dataclass
class ThetaBounds:
    times: np.ndarray
    under: np.ndarray
    over: np.ndarray


def theta_bounds(potential: SitePotential, gap: GapPair, path: PathOnBox,
                 u0: TorusField, t, params: FlowParams | None = None,
                 eq_tol: float = COMPARE_TOL) -> ThetaBounds:
    """Track the largest flowed node below u0 and the smallest above it.

    ``u0`` is an offset field strictly inside the box.  The sup/inf are
    evaluated on the node grid only; when the path holds a plateau equal to
    u0, the bound lands on the plateau edge, matching the continuum
    definition of the supremum.
    """
    gap = require_gap(gap)
    if not path.monotone:
        raise PathError("theta tracking needs a monotone path")
    params = params or FlowParams()
    periods = path.periods
    hi = gap.box_field(periods).values
    u0v = u0.extend(periods).values if u0.periods != periods else u0.values
    if np.min(u0v) <= 0.0 or np.min(hi - u0v) <= 0.0:
        raise PathError("u0 must lie strictly inside the box")
    system = PeriodicSystem(potential, periods, gap.v0.extend(periods))
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.diff(times) < 0):
        raise PathError("times must be nondecreasing")
    nodes = path.nodes.copy()
    N = nodes.shape[0]
    thetas = np.linspace(0.0, 1.0, N)
    under = np.empty(len(times))
    over = np.empty(len(times))
    for ti, span in enumerate(np.diff(times, prepend=0.0)):
        nodes, _, _ = flow(system, nodes, params.with_(t_max=span, run_to_t_max=True))
        diff = nodes - u0v
        flat = diff.reshape(N, -1)
        below = (flat.max(axis=1) <= eq_tol) & (np.abs(flat).max(axis=1) > eq_tol)
        above = (flat.min(axis=1) >= -eq_tol) & (np.abs(flat).max(axis=1) > eq_tol)
        equal = np.abs(flat).max(axis=1) <= eq_tol
        if below.any():
            m = int(np.max(np.flatnonzero(below)))
            if m + 1 < N and equal[m + 1]:
                m += 1  # the supremum reaches the equality plateau
            under[ti] = thetas[m]
        else:
            under[ti] = 0.0
        if above.any():
            m = int(np.min(np.flatnonzero(above)))
            if m - 1 >= 0 and equal[m - 1]:
                m -= 1
            over[ti] = thetas[m]
        else:
            over[ti] = 1.0
    return ThetaBounds(times=times, under=under, over=over)


# ---------------------------------------------------------------------------
# order-relation classifier
# ---------------------------------------------------------------------------

def intersects(u, v, tol: float = COMPARE_TOL) -> str:
    """Classify the sitewise order relation between two fields.

    Returns one of 'equal', 'below', 'above', 'touch-below', 'touch-above',
    'cross'.  Torus fields are compared on the common refinement of their
    periods; strip fields on the common window.
    """
    if isinstance(u, TorusField) and isinstance(v, TorusField):
        periods = tuple(np.lcm(a, b) for a, b in zip(u.periods, v.periods))
        d = u.extend(periods).values - v.extend(periods).values
    elif hasattr(u, "half_width") and hasattr(v, "half_width"):
        W = max(u.half_width, v.half_width)
        d = u.embed(W).values - v.embed(W).values
    else:
        d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    has_pos = bool(np.max(d) > tol)
    has_neg = bool(np.min(d) < -tol)
    has_zero = bool(np.min(np.abs(d)) <= tol)
    if has_pos and has_neg:
        return "cross"
    if not has_pos and not has_neg:
        return "equal"
    if has_neg:
        return "touch-below" if has_zero else "below"
    return "touch-above" if has_zero else "above"


# ---------------------------------------------------------------------------
# multiplicity scan
# ---------------------------------------------------------------------------

@dataclass
class ScanRow:
    """One row of a barrier scan: ground level c, minimax level d, and (on
    the strip) the staircase witness of the uniform bound on d - c."""

    k: int
    c: float = math.nan
    d: float = math.nan
    witness: float = math.nan
    residual: float = math.nan
    ok: bool = False
    message: str = ""

    @property
    def barrier(self) -> float:
        return self.d - self.c

    def record(self, res: MinimaxResult) -> None:
        self.d = res.value
        self.residual = res.residual
        self.ok = res.success
        if not res.success:
            self.message = res.message


def scan_rows(k_max: int, fill) -> list:
    """Rows k = 1..k_max, each filled in place by ``fill(row)``; a row whose
    solve fails carries the error as its message and the scan continues."""
    rows = []
    for k in range(1, k_max + 1):
        row = ScanRow(k=k)
        try:
            fill(row)
        except FkSaddleError as exc:
            row.message = str(exc)
        rows.append(row)
    return rows


@dataclass
class MultiplicityScan:
    rows: list
    criticals: dict                 # k -> offset values on the lcm window
    distances: np.ndarray           # pairwise shift-normalized l-inf
    versus_first: dict              # k -> intersects classification vs k=1

    def distinct_pairs(self, tol: float = 1e-3):
        ks = sorted(self.criticals)
        out = []
        for a in range(len(ks)):
            for b in range(a + 1, len(ks)):
                if self.distances[a, b] > tol:
                    out.append((ks[a], ks[b], float(self.distances[a, b])))
        return out


def _shift_orbit_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over axis-1 shifts of the l-inf distance between extended fields."""
    best = np.inf
    for s in range(a.shape[0]):
        best = min(best, float(np.max(np.abs(np.roll(a, s, axis=0) - b))))
    return best


def multiplicity_scan(potential: SitePotential, k_max: int, gap: GapPair,
                      params: FlowParams | None = None,
                      node_count=None, restarts: int = 1) -> MultiplicityScan:
    """Mountain passes on the elongated tori p(k) = (k, 1, ..., 1), k = 1..k_max.

    Critical fields are extended to the common axis-1 period and compared
    after shift-orbit normalization; each is also classified against the
    k = 1 critical field.  Failed rows carry their error and the scan
    continues.
    """
    if k_max < 2:
        raise PathError("k_max must be >= 2")
    gap = require_gap(gap)
    params = params or FlowParams()
    n = gap.v0.n
    criticals = {}

    def fill(row):
        k = row.k
        p = (k,) + (1,) * (n - 1)
        N = node_count(p) if callable(node_count) else (
            node_count or default_node_count(p))
        kind = "chi" if k >= 2 else "linear"
        path0 = build_initial_path(kind, N, max(k, 2), gap, p)
        c0p = minimize_c0p(potential, gap, p, params)
        res = best_mountain_pass(potential, gap, path0, params,
                                 restarts=restarts)
        row.c = c0p
        row.record(res)
        criticals[k] = res.critical

    rows = scan_rows(k_max, fill)
    ks = sorted(criticals)
    L = math.lcm(*ks) if ks else 1
    extended = {}
    for k in ks:
        reps = (L // k,) + (1,) * (n - 1)
        extended[k] = np.tile(criticals[k], reps)
    dmat = np.zeros((len(ks), len(ks)))
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            dmat[a, b] = dmat[b, a] = _shift_orbit_distance(
                extended[ks[a]], extended[ks[b]])
    versus = {}
    if 1 in extended:
        for k in ks:
            versus[k] = intersects(extended[k], extended[1])
    return MultiplicityScan(rows=rows, criticals=extended, distances=dmat,
                            versus_first=versus)


def minimize_c0p(potential, gap: GapPair, periods, params) -> float:
    """Ground energy on the given torus, seeded from the gap endpoints."""
    seeds = [TorusField.constant(periods, gap.v0.values.flat[0]),
             TorusField.constant(periods, gap.w0.values.flat[0])]
    return minimize_periodic(potential, periods, seeds, params).c0p
