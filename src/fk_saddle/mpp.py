"""Mountain-pass search over paths in the order box.

The minimax value is ``d = inf over paths h from 0 to hi - lo of max_theta
I(h(theta))`` for a gap pair lo < hi.  A path is an ``(N, *p)`` array of N
fields (offsets from lo) evenly spaced in theta, on the torus and on the
strip window alike.  ``box_path`` builds the one start chain of every
mountain pass, the column ramp (column j of the box's first periodic axis,
of w columns, moves over theta in [j/w, (j+1)/w]; the linear homotopy when
w = 1), and the staircase witness phi_k.  ``check_chain`` admits a chain on both
geometries (at least 3 nodes shaped like the box, pinned to 0 and to the box
corner).  Two solvers compute the minimax:

* ``node-flow``: the climbing string method.  The path is a chain of N
  fields; interior nodes evolve under the gradient semiflow (the endpoints
  are flow fixed points), and after every REPARAM_TIME of flow the chain is
  re-equidistributed by l2 arc length.  Once the string max has flattened,
  every local maximum of the node energies climbs along the chain tangent
  and stays in place while the chain between them is equidistributed.  When
  the max flattens again, a damped Newton solve on the equilibrium residual
  polishes the top climbing node, and the result succeeds only if the chain
  through the Newton point certifies it as its top: d <= d_upper <= d +
  CHAIN_CERT_TOL.

* ``heat-flow``: the whole path is flowed without reparametrization, tracking
  where the maximum persists.  On a finite node grid the flowed chain tears
  across basin boundaries, so each tear is resolved by multisection on the
  initial path, the points of all open tears classified as one batch of
  flows per round: the trajectories shadow the boundary, and their closest
  approach to a critical point (smallest residual) seeds the same Newton
  refinement.  The reported value is the largest persistent level over
  settled nodes and tear edges, certified like a node-flow saddle.

Both solvers return the same value on the models shipped here.  Node-flow
is the default ``mode`` and the one the commands run; heat-flow runs only as
the second engine of ``verify.cross_check_mountain_pass``.

This module also hosts the explicit staircase profiles (``chi_path`` /
``phi_path``), the scan's witness, whose maxima bound d - c uniformly in the
axis-1 period; the order-relation classifier ``intersects``; and the
multiplicity scan.  The drivers ``mountain_pass`` (from a given chain),
``best_mountain_pass`` (from the ramp on given periods) and
``multiplicity_scan`` take any ``GapPair``, of ground states on the torus or
of kinks on a strip (one with a ``ground`` pair): ``GapPair.order_box``
builds the box on given periods for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import (BASIN_MATCH_TOL, CHAIN_CERT_MAX_STATES, CHAIN_CERT_TOL,
                       CLASSIFY_CHECK_TIME, COMPARE_TOL, HEAT_CLASSIFY_TIME,
                       HEAT_SETTLE_TIME, HEAT_SETTLE_TOL, MAX_SWEEPS,
                       PLATEAU_TIME, PLATEAU_TOL, REFINE_TRIGGER,
                       REPARAM_TIME, STATIONARITY_TOL, WITNESS_NODES,
                       default_node_count)
from .fields import FkSaddleError
from .model import SitePotential
from .periodic import require_gap
from .semiflow import _l2, flow, guarded_step, refine_critical


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

def box_path(box, N: int, k: int | None = None, axis: int = 0) -> np.ndarray:
    """N nodes from 0 to ``box`` across lattice axis ``axis``, of w columns:
    the column ramp, whose column j moves over theta in [j/w, (j+1)/w] (the
    linear homotopy theta * box when w = 1), or with ``k`` the staircase
    phi_k(theta, i) * box.  A box without the axis (the strip with q = ()) is
    one column."""
    box = np.asarray(box, dtype=float)
    if axis == box.ndim:
        return box_path(box[..., None], N, k, axis)[..., 0]
    thetas = np.linspace(0.0, 1.0, N)[:, None]
    width = box.shape[axis]
    columns = np.arange(width)
    prof = (np.clip(width * thetas - columns, 0.0, 1.0) if k is None
            else phi_path(k, thetas, columns))
    nodes = prof.reshape((N,) + (1,) * axis + (width,)
                         + (1,) * (box.ndim - axis - 1)) * box
    nodes[0] = 0.0
    nodes[-1] = box
    return nodes


def check_chain(nodes, hi: np.ndarray) -> np.ndarray:
    """The node array of a chain of the order box [0, hi]: at least 3 nodes
    shaped like ``hi``, pinned to 0 and to ``hi`` within 1e-12 (PathError)."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 + hi.ndim or nodes.shape[0] < 3 or nodes.shape[1:] != hi.shape:
        raise PathError("a chain is at least 3 nodes shaped (N, %s), got shape %r"
                        % (", ".join(map(str, hi.shape)), nodes.shape))
    off = (float(np.max(np.abs(nodes[0]))), float(np.max(np.abs(nodes[-1] - hi))))
    if max(off) > 1e-12:
        raise PathError("chain endpoints must be pinned to 0 and the box corner "
                        "(off by %.3g and %.3g)" % off)
    return nodes


# ---------------------------------------------------------------------------
# minimax results
# ---------------------------------------------------------------------------

@dataclass
class MinimaxResult:
    """The one record of a saddle, from either engine.  Left at its defaults
    it is a mountain pass that raised: NaN levels, no critical field, and
    the error as its message."""

    value: float = math.nan        # d
    argmax_index: int = -1
    critical: np.ndarray | None = None   # offset values at the critical point
    residual: float = math.nan     # sup-site |equilibrium residual|
    iterations: int = 0
    success: bool = False
    c_ref: float = math.nan        # energy of the path endpoints (= c0p)
    message: str = ""
    reparam_sweeps: list = field(default_factory=list)
    final_nodes: np.ndarray | None = None
    # node-flow: the chain certificate's upper bound on the chain maximum, and
    # the energy states its densification evaluated (NaN and 0 without one)
    d_upper: float = math.nan
    densified: int = 0

    @property
    def barrier(self) -> float:
        return self.value - self.c_ref


def _validate_critical(x, hi, energy, c_ref, tol):
    """Gate a Newton-refined point: inside the closed box [0, hi] to
    COMPARE_TOL and above the corner level.  Returns None when the point
    passes, else a message naming the failed check.

    Strict interior follows and is not tested site by site.  Under (S3)
    strong comparison holds (the property suite checks it): a critical point
    in the closed box that touches a corner at one site equals that corner,
    and both corners are ground states at the level c_ref.  A level above
    c_ref therefore excludes both corners, and the exact critical point near
    x lies strictly inside.  A sitewise test cannot tell this: a long-period
    saddle is a domain of flipped columns whose offsets decay by a factor of
    about 160 per column away from its wall, below the rounding of the total
    field within a few columns, where they read 0 or -1e-17.
    """
    out = max(float(np.max(-x)), float(np.max(x - hi)))
    if out > COMPARE_TOL:
        return ("critical point lies %.3g outside the box (tolerance %g)"
                % (out, COMPARE_TOL))
    if energy - c_ref <= 10.0 * tol:
        return "critical level %.12g is not above the ground level" % energy
    return None


def _certify_chain(system, nodes, hi, j, x_ref, e_ref):
    """An upper bound U on the maximum of the polygonal chain through
    ``nodes`` (clipped to the box) with node j replaced by ``x_ref``, and the
    number of energy states it took; returns (U, densified).

    On a segment [a, b] the energy stays below max(E_a, E_b) + L |b - a|^2 / 8,
    since the gradient is L-Lipschitz (L = 1 / dt_safe).  Segments whose bound
    exceeds ``e_ref + CHAIN_CERT_TOL`` are bisected along the straight line,
    with at most as many new states per energy call as the chain has nodes,
    until every bound is below it.  The bisection stops early, with U above
    that level, once a state is above it or ``CHAIN_CERT_MAX_STATES`` have
    been evaluated.
    """
    chain = np.clip(nodes, 0.0, hi)
    chain[j] = x_ref
    energies = system.energy(chain)
    N = chain.shape[0]
    ends = chain.reshape(N, -1)
    steps = np.diff(ends, axis=0)
    length2 = np.sum(steps ** 2, axis=1)
    quad = 0.125 / system.dt_safe
    target = e_ref + CHAIN_CERT_TOL
    # open segments: chain segment i, from t0 to t1, energies e0 and e1 there
    i = np.arange(N - 1)
    t0, t1 = np.zeros(N - 1), np.ones(N - 1)
    e0, e1 = energies[:-1], energies[1:]
    top = -np.inf
    densified = 0
    while True:
        bound = np.maximum(e0, e1) + quad * length2[i] * (t1 - t0) ** 2
        done = bound <= target
        top = max(top, float(np.max(bound[done], initial=-np.inf)))
        if done.all():
            return top, densified
        i, t0, t1, e0, e1 = i[~done], t0[~done], t1[~done], e0[~done], e1[~done]
        if (float(np.max(np.maximum(e0, e1))) > target
                or densified + i.size > CHAIN_CERT_MAX_STATES):
            return max(top, float(bound[~done].max())), densified
        tm = 0.5 * (t0 + t1)
        em = np.empty_like(tm)
        for b in range(0, i.size, N):
            sl = slice(b, b + N)
            states = ends[i[sl]] + tm[sl, None] * steps[i[sl]]
            em[sl] = system.energy(states.reshape((-1,) + chain.shape[1:]))
        densified += i.size
        i = np.concatenate([i, i])
        t0, t1 = np.concatenate([t0, tm]), np.concatenate([tm, t1])
        e0, e1 = np.concatenate([e0, em]), np.concatenate([em, e1])


def _interpolate(nodes: np.ndarray, s: np.ndarray, targets) -> np.ndarray:
    """The polygonal path through ``nodes`` at the nondecreasing parameters
    ``s``, evaluated at ``targets`` (a scalar or an array)."""
    k = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(s) - 2)
    ds = s[k + 1] - s[k]
    w = np.where(ds > 0, (targets - s[k]) / np.where(ds > 0, ds, 1.0), 0.0)
    w = w.reshape(np.shape(w) + (1,) * (nodes.ndim - 1))
    return (1.0 - w) * nodes[k] + w * nodes[k + 1]


def _equidistribute(nodes: np.ndarray) -> np.ndarray:
    """Redistribute a chain uniformly in cumulative l2 arc length."""
    N = nodes.shape[0]
    seg = np.linalg.norm(np.diff(nodes.reshape(N, -1), axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] < 1e-12:
        raise ReparametrizationError("path collapsed: total arc length < 1e-12")
    s /= s[-1]
    out = _interpolate(nodes, s, np.linspace(0.0, 1.0, N))
    out[0] = nodes[0]
    out[-1] = nodes[-1]
    return out


def _reparametrize(nodes: np.ndarray, fixed) -> np.ndarray:
    """Equidistribute the chain between consecutive climbing nodes
    ``fixed``, which stay in place."""
    cuts = [0, *fixed, len(nodes) - 1]
    return np.concatenate([_equidistribute(nodes[a:b + 1])[:-1]
                           for a, b in zip(cuts[:-1], cuts[1:])] + [nodes[-1:]])


def _sweeps_per(time: float, dt: float) -> int:
    """The whole number of steps dt closest to a flow time (at least one)."""
    return max(1, round(time / dt))


def _climbing_force(system, nodes, peaks):
    """The node-flow force on the interior nodes: -grad, except at the
    climbing nodes ``peaks``, each of which moves along -g + 2 (g . tau) tau,
    tau the unit tangent of x_{m+1} - x_{m-1} (Henkelman, Uberuaga &
    Jonsson, J. Chem. Phys. 113, 9901, 2000)."""
    force = -system.grad(nodes[1:-1])
    axes = tuple(range(1, nodes.ndim))
    tau = nodes[peaks + 1] - nodes[peaks - 1]
    tau /= np.sqrt(np.sum(tau ** 2, axis=axes, keepdims=True))
    f = force[peaks - 1]
    force[peaks - 1] = f - 2.0 * np.sum(f * tau, axis=axes, keepdims=True) * tau
    return force


def _minimax_node_flow(system, nodes0, hi, tol):
    """The climbing string method (E, Ren & Vanden-Eijnden, J. Chem. Phys.
    126, 164103, 2007): flow the interior nodes and reparametrize every
    ``REPARAM_TIME`` of flow.  Once the string max has flattened, the local
    maxima of the node energies climb (:func:`_climbing_force`) and stay in
    place at each reparametrization; once it flattens again, Newton polishes
    the top climbing node.

    Climbing starts late because a climbing node on an unrelaxed chain can
    ride up to the box faces.  Every local maximum climbs because a barrier
    between two nodes can be higher than the top node's saddle.  The Newton
    point succeeds only if :func:`_certify_chain` bounds the chain through
    it by its level plus ``CHAIN_CERT_TOL``, so d <= d_upper <= d0p +
    CHAIN_CERT_TOL; otherwise the string goes on.  Every control is a flow
    time or a change of the string max per ``REPARAM_TIME`` of flow, so the
    stops do not depend on the step dt.  ``MAX_SWEEPS`` is a budget guard
    only.
    """
    nodes = np.asarray(nodes0, dtype=float).copy()
    dt = system.dt_safe
    energies = system.energy(nodes)
    c_ref = float(min(energies[0], energies[-1]))
    reparam_sweeps = []
    found = None
    message = "saddle not isolated at tolerance"
    d_upper, densified = math.nan, 0
    sweep = 0
    prev_cycle_max = None
    flat_time = 0.0
    climbing = False
    while sweep < MAX_SWEEPS and found is None:
        # one cycle is about REPARAM_TIME of flow; the string drifts within a
        # cycle and is pulled back at its end, so stationarity is judged on
        # cycle boundaries, with the per-REPARAM_TIME budgets scaled to the
        # cycle's flow time
        cycle_time = 0.0
        for _ in range(_sweeps_per(REPARAM_TIME, dt)):
            sweep += 1
            e = energies
            j = 1 + int(np.argmax(e[1:-1]))
            peaks = (1 + np.flatnonzero((e[1:-1] > e[:-2]) & (e[1:-1] >= e[2:]))
                     if climbing else np.array([], dtype=int))
            ref = e[1:-1].copy()
            ref[peaks - 1] = np.inf      # the climbing nodes may rise
            nodes[1:-1], _, energies[1:-1], _ = guarded_step(
                system, nodes[1:-1], dt, ref, k1=_climbing_force(system, nodes, peaks))
            cycle_time += dt
        scale = cycle_time / REPARAM_TIME
        cycle_max = float(energies.max())
        delta = abs(cycle_max - prev_cycle_max) if prev_cycle_max is not None else np.inf
        prev_cycle_max = cycle_max
        flat_time = flat_time + cycle_time if delta < PLATEAU_TOL * scale else 0.0
        if delta < REFINE_TRIGGER * scale and not climbing:
            climbing = True
        elif delta < REFINE_TRIGGER * scale:
            # j is the top climbing node: the argmax is a local maximum
            x_ref, res_inf, ok = refine_critical(system, nodes[j], tol)
            if ok:
                e_ref = float(system.energy(x_ref))
                failed = _validate_critical(x_ref, hi, e_ref, c_ref, tol)
                if failed is None:
                    d_upper, n = _certify_chain(system, nodes, hi, j, x_ref, e_ref)
                    densified += n
                    if d_upper <= e_ref + CHAIN_CERT_TOL:
                        found = (x_ref, res_inf, e_ref)
                        break
                    failed = ("chain top not certified: the chain may reach %.6g "
                              "above the critical level %.12g" % (d_upper - e_ref, e_ref))
                message = failed
            if flat_time >= PLATEAU_TIME and flat_time > cycle_time:
                break  # stalled for PLATEAU_TIME and two cycles, no saddle
        nodes = _reparametrize(nodes, peaks)
        energies = system.energy(nodes)
        reparam_sweeps.append(sweep)
    record = dict(argmax_index=j, iterations=sweep, c_ref=c_ref,
                  reparam_sweeps=reparam_sweeps, final_nodes=nodes,
                  d_upper=d_upper, densified=densified)
    if found is not None:
        x_ref, res_inf, e_ref = found
        return MinimaxResult(value=e_ref, critical=x_ref, residual=res_inf,
                             success=True, **record)
    g = system.grad(nodes[j])
    return MinimaxResult(value=float(energies[j]), critical=nodes[j],
                         residual=float(np.max(np.abs(g))), success=False,
                         message=message, **record)


# ---------------------------------------------------------------------------
# heat-flow
# ---------------------------------------------------------------------------

def _basins_of(X, reps):
    """For each state of the batch ``X``, the index of the first
    representative in ``reps`` within BASIN_MATCH_TOL of it (l-inf), or -1."""
    if not len(reps):
        return np.full(len(X), -1)
    dist = np.abs(X.reshape(len(X), 1, -1) - np.reshape(reps, (1, len(reps), -1)))
    near = dist.max(axis=2) <= BASIN_MATCH_TOL
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


def _classify_flow(system, X, reps, energy=None):
    """Flow a batch of states toward their attractors, watching for saddle
    fly-bys.

    Each member of ``X`` (shape ``(B, *shape)``; ``energy`` holds the start
    energies when the caller has them) steps at ``system.dt_safe`` for at
    most ``HEAT_CLASSIFY_TIME`` of flow.  It stops once it settles (l2
    residual at most ``HEAT_SETTLE_TOL``) or, at a check every
    ``CLASSIFY_CHECK_TIME``, lies in the basin of one of ``reps``.  Each
    step moves the members still flowing through one guarded step.

    Returns one ``(label, dip_state, dip_residual, is_new)`` per member.
    ``label`` indexes ``reps``, which stay fixed while the batch flows.
    After it, the members that settled somewhere new are matched in member
    order; one that matches no representative appends its end state to
    ``reps`` and is new.  The dip is the smallest residual later confirmed
    by a threefold rise: the closest approach to a critical point the
    trajectory passed but did not stop at (the terminal decay into the
    attractor does not count).
    """
    X = np.array(X, dtype=float)
    dt = system.dt_safe
    frozen = np.array(reps)
    labels = np.full(len(X), -1)
    dip_r, dip_x = np.empty(len(X)), np.empty_like(X)
    # the members still flowing, by index into X, and their running states
    idx = np.arange(len(X))
    x = X
    e = system.energy(x) if energy is None else np.array(energy, dtype=float)
    g = system.grad(x)
    rn = _l2(g, system.lattice_ndim)
    cur_r, cur_x = rn.copy(), x.copy()     # the lowest residual since the last rise
    best_r, best_x = np.full(len(X), np.inf), x.copy()   # the smallest confirmed dip
    t = 0.0
    steps = 0
    check_every = _sweeps_per(CLASSIFY_CHECK_TIME, dt)
    while True:
        stop = rn <= HEAT_SETTLE_TOL
        if steps % check_every == 0:
            labels[idx] = _basins_of(x, frozen)
            stop |= labels[idx] >= 0
        if t >= HEAT_CLASSIFY_TIME:
            stop[:] = True
        if stop.any():
            done = idx[stop]
            X[done] = x[stop]
            none = stop & (best_r == np.inf)
            best_r[none], best_x[none] = cur_r[none], cur_x[none]
            dip_r[done], dip_x[done] = best_r[stop], best_x[stop]
            idx, x, e, g, rn, cur_r, cur_x, best_r, best_x = (
                v[~stop] for v in (idx, x, e, g, rn, cur_r, cur_x, best_r, best_x))
            if not idx.size:
                break
        x, _, e, _ = guarded_step(system, x, dt, e, k1=-g)
        t += dt
        steps += 1
        g = system.grad(x)
        rn = _l2(g, system.lattice_ndim)
        lower = rn < cur_r
        rose = ~lower & (rn > 3.0 * cur_r)
        dipped = rose & (cur_r < best_r)
        best_r[dipped], best_x[dipped] = cur_r[dipped], cur_x[dipped]
        moved = lower | rose
        cur_r[moved], cur_x[moved] = rn[moved], x[moved]
    out = []
    for b in range(len(X)):
        label, is_new = int(labels[b]), False
        if label < 0:
            label = int(_basins_of(X[b:b + 1], reps)[0])
            is_new = label < 0
            if is_new:
                reps.append(X[b].copy())
                label = len(reps) - 1
        out.append((label, dip_x[b], float(dip_r[b]), is_new))
    return out


@dataclass(eq=False)
class _Tear:
    """A tear of the flowed chain: the initial path at ``lo`` flows into
    basin ``lab_lo`` and at ``hi`` into ``lab_hi``.  It keeps its rounds of
    multisection, its smallest dip ``(residual, state)``, the largest start
    energy sampled in it and the candidates it found."""

    lo: float
    hi: float
    lab_lo: int
    lab_hi: int
    rounds: int = 0
    best: tuple = (math.inf, None)
    cap: float = -math.inf
    found: list = field(default_factory=list)
    open: bool = True


def _minimax_heat_flow(system, path0: np.ndarray, hi, tol):
    """Heat-flow edge tracking (Skufca, Yorke & Eckhardt, Phys. Rev. Lett.
    96, 174101, 2006).

    The chain flows for ``HEAT_SETTLE_TIME`` and its nodes are classified as
    one batch (:func:`_classify_flow`).  Neighbours in different basins make
    a tear, resolved by multisection on the initial path: each round
    classifies the 3 interior quarter points of every open tear as one
    batch, which cuts every tear into quarters (two halvings).  The leftmost
    quarter whose ends lie in different basins carries the tear on; every
    other such quarter opens a new tear.  After every 3rd round of a tear,
    and on every round of a tear narrower than 1e-13 (collapsed), Newton
    refines the tear's smallest dip.  The refined point is the tear's edge
    if its level lies above both basin levels and at most the largest start
    energy sampled in the tear; a collapsed tear whose refined point is one
    of its two representatives (a stuck saddle) is resolved by it.  A tear
    that narrows below 1e-14 is unresolved; as a tear starts at most 1/2
    wide, that ends every tear within 23 rounds.

    The tears sit in one list in the order a last-in first-out stack of
    bisections resolves them: the chain's tears last to first, each followed
    by the tears split off it, the latest round's first, left to right.  The
    value is the largest level over the representatives and the edges, the
    first of equal levels in that order.
    """
    path0 = np.asarray(path0, dtype=float)
    N = path0.shape[0]
    # settle phase: flow the whole chain (endpoints are fixed points)
    nodes, settle_steps, _ = flow(system, path0, HEAT_SETTLE_TOL, HEAT_SETTLE_TIME)
    c_ref = float(np.min(system.energy(path0[[0, -1]])))
    # classify node limits; reps collects the attractor representatives
    reps = []
    labels = [out[0] for out in _classify_flow(system, nodes, reps)]
    thetas = np.linspace(0.0, 1.0, N)
    candidates = [(float(system.energy(rep)), rep, float(thetas[labels.index(li)]))
                  for li, rep in enumerate(reps)]
    rep_energy = [c[0] for c in candidates]

    # resolve every tear in the flowed chain by multisection on the initial
    # path; a tear's persistent level is its edge state between the two basins
    tears = [_Tear(thetas[m], thetas[m + 1], labels[m], labels[m + 1])
             for m in reversed(range(N - 1)) if labels[m] != labels[m + 1]]
    unresolved = 0
    while batch := [tear for tear in tears if tear.open]:
        lo, up = np.array([[tear.lo, tear.hi] for tear in batch]).T
        mid = 0.5 * (lo + up)
        grid = np.stack([lo, 0.5 * (lo + mid), mid, 0.5 * (mid + up), up], axis=1)
        starts = _interpolate(path0, thetas, grid[:, 1:-1].ravel())
        caps = system.energy(starts)
        results = _classify_flow(system, starts, reps, caps)
        caps = caps.reshape(len(batch), 3)
        splits = {}
        for i, tear in enumerate(batch):
            row = results[3 * i:3 * i + 3]
            for (lab, dip_x, dip_r, is_new), theta in zip(row, grid[i, 1:-1]):
                if is_new:
                    e_new = float(system.energy(reps[lab]))
                    tear.found.append((e_new, reps[lab], float(theta)))
                    rep_energy.append(e_new)
                if dip_r < tear.best[0]:
                    tear.best = (dip_r, dip_x)
            tear.cap = max(tear.cap, float(caps[i].max()))
            tear.rounds += 1
            collapsed = tear.hi - tear.lo < 1e-13
            # Newton after every 3rd round of the tear, or on collapse
            if tear.rounds % 3 == 0 or collapsed:
                x_ref, _, ok = refine_critical(system, tear.best[1], tol)
                if ok:
                    e_ref = float(system.energy(x_ref))
                    floor = max(rep_energy[tear.lab_lo], rep_energy[tear.lab_hi])
                    # a genuine edge sits strictly above both basin levels and
                    # below the energy the trajectories started from (the
                    # flow only descends on its way across)
                    if floor + 1e-12 < e_ref <= tear.cap + 1e-9:
                        tear.found.append((e_ref, x_ref, float(grid[i, 2])))
                        tear.open = False
                        continue
                    # a stuck saddle can be a "basin" itself; the tear is then
                    # already represented by that rep
                    if collapsed and _basins_of(
                            x_ref[None], [reps[tear.lab_lo], reps[tear.lab_hi]])[0] >= 0:
                        tear.open = False
                        continue
            labs = [tear.lab_lo] + [r[0] for r in row] + [tear.lab_hi]
            cuts = [j for j in range(4) if labs[j] != labs[j + 1]]
            splits[tear] = [_Tear(grid[i, j], grid[i, j + 1], labs[j], labs[j + 1])
                            for j in cuts[1:]]
            j = cuts[0]
            tear.lo, tear.hi = grid[i, j], grid[i, j + 1]
            tear.lab_lo, tear.lab_hi = labs[j], labs[j + 1]
            if tear.hi - tear.lo < 1e-14:
                tear.open = False
                unresolved += 1
        # split-off tears go right after their tear, ahead of older ones
        tears = [t for tear in tears for t in [tear, *splits.get(tear, [])]]
    for tear in tears:
        candidates += tear.found
    # the persistent level is the largest candidate
    val, x_best, th_best = max(candidates, key=lambda c: c[0])
    x_ref, res_best, ok = refine_critical(system, x_best, tol)
    e_ref = float(system.energy(x_ref))
    if ok and abs(e_ref - val) <= max(1e-8, 1e-8 * abs(val)):
        x_best, val = x_ref, e_ref
    else:
        res_best = float(np.max(np.abs(system.grad(x_best))))
        ok = res_best <= tol
    # gated like a node-flow saddle, with no chain certificate
    message = ("%d unresolved tears" % unresolved if unresolved else
               "edge refinement exceeded tolerance" if not ok else
               _validate_critical(x_best, hi, val, c_ref, tol) or "")
    return MinimaxResult(
        value=val, argmax_index=int(np.argmin(np.abs(thetas - th_best))),
        critical=x_best, residual=res_best,
        iterations=settle_steps, success=not message, c_ref=c_ref,
        message=message, final_nodes=nodes)


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------

def mountain_pass(potential: SitePotential, gap, path0,
                  tol: float = STATIONARITY_TOL,
                  mode: str = "node-flow") -> MinimaxResult:
    """Compute the minimax level and a critical field inside the gap box.

    ``gap`` is a ``GapPair`` on the torus or on a strip.  ``path0``
    is an (N, *p) node array on the torus, (N, 2W+1, *q) on the strip; its
    trailing axes fix the periods, and it must be a chain of the order box
    on them (:func:`check_chain`).  On success the result's critical field
    (an offset from the box's lower corner) has sup-site equilibrium
    residual below tolerance, lies in the closed box to COMPARE_TOL, and its
    level exceeds the corner level c_ref, which by strong comparison puts
    the exact critical point strictly inside.
    """
    nodes = np.asarray(path0, dtype=float)
    lattice = nodes.ndim - len(require_gap(gap).periods)
    if lattice < 1:
        raise PathError("a chain is at least 3 nodes shaped (N, ..., *p) with "
                        "%d periods, got shape %r" % (len(gap.periods), nodes.shape))
    system, hi = gap.order_box(potential, nodes.shape[lattice:])
    if mode not in ("node-flow", "heat-flow"):
        raise PathError("unknown mode %r" % mode)
    # bare names are read from the module globals on every call, so a
    # wrapper bound to either name (the benchmark's tracer) sees every run
    engine = _minimax_node_flow if mode == "node-flow" else _minimax_heat_flow
    return engine(system, check_chain(nodes, hi), hi, tol)


def best_mountain_pass(potential: SitePotential, gap, periods=None,
                       tol: float = STATIONARITY_TOL,
                       mode: str = "node-flow", N: int | None = None) -> MinimaxResult:
    """:func:`mountain_pass` from the column ramp (:func:`box_path`) across
    the first periodic axis of the order box on ``periods`` (default: the
    gap's; the gap's ``order_box`` accepts or refuses them), on ``N`` nodes
    (default: ``default_node_count(periods)``).  Every mountain pass of the
    torus, the strip, the scan and the cross check starts here.

    The ramp moves one column after another, so the string starts on a path
    through one nucleation at a time; the staircase phi_k, which ramps the
    mirror columns together, can stall the string at an index-2 point.
    """
    gap = require_gap(gap)
    hi = gap.order_box(potential, periods)[1]
    lattice = hi.ndim - len(gap.periods)
    N = default_node_count(hi.shape[lattice:]) if N is None else N
    return mountain_pass(potential, gap, box_path(hi, N, axis=lattice), tol,
                         mode=mode)


# ---------------------------------------------------------------------------
# order-relation classifier
# ---------------------------------------------------------------------------

def intersects(u, v) -> str:
    """Classify the sitewise order relation between two fields.

    Returns one of 'equal', 'below', 'above', 'touch-below', 'touch-above',
    'cross'.  Both are value arrays of one shape (or broadcast to one).
    """
    d = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    has_pos = bool(np.max(d) > COMPARE_TOL)
    has_neg = bool(np.min(d) < -COMPARE_TOL)
    has_zero = bool(np.min(np.abs(d)) <= COMPARE_TOL)
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
    """One row of a barrier scan: the period k, the row's mountain pass
    (ground level c = ``c_ref``, minimax level d = ``value``, its chain
    certificate and its critical field on its own period; a failed result
    whose message is the error when the mountain pass raised), and the
    staircase witness of the uniform bound on d - c."""

    k: int
    result: MinimaxResult
    witness: float = math.nan


@dataclass
class MultiplicityScan:
    rows: list
    distances: np.ndarray           # pairwise shift-normalized l-inf
    versus_first: dict              # k -> intersects classification vs k=1


def _shift_orbit_distance(a: np.ndarray, b: np.ndarray, axis: int) -> float:
    """min over shifts along ``axis`` of the l-inf distance between the
    periodic fields ``a`` and ``b`` (k and m columns there) tiled to a
    common period.  Both are tiled to lcm(k, m) columns, and only gcd(k, m)
    shifts give distinct column pairs."""
    k, m = a.shape[axis], b.shape[axis]
    L = math.lcm(k, m)
    a = np.concatenate([a] * (L // k), axis=axis)
    b = np.concatenate([b] * (L // m), axis=axis)
    return min(float(np.max(np.abs(np.roll(a, s, axis=axis) - b)))
               for s in range(math.gcd(k, m)))


def multiplicity_scan(potential: SitePotential, k_max: int, gap,
                      tol: float = STATIONARITY_TOL) -> MultiplicityScan:
    """Mountain passes over the periods (k, 1, ..., 1), k = 1..k_max.

    On a torus ``GapPair`` these are the elongated tori p(k); on a strip
    pair the transverse periods q(k) of the kink window.  Each
    row runs :func:`best_mountain_pass`, which starts from the column ramp
    across the first periodic lattice axis of the order box (axis 0 of a
    torus box, axis 1 of a strip box, after the layer axis); c is the level
    of the box corners.  The witness is the highest energy on the staircase
    phi_k across the same axis at ``WITNESS_NODES`` nodes, minus c: the
    paper's uniform bound on d - c.  phi_k is even in the column index, so it
    ramps the mirror columns i and k - i together, and from k = 3 on its
    maximum sits near twice the one-column barrier and then stays flat.  For
    k = 1..8 it reads 2.000, 2.063, 4.063, then 4.123 to 4.125 on
    classical-fk tori, and 3.938, 4.000, 7.938, then 7.997 to 8.000 on the
    pinned-fk strip (W = 20).

    Critical fields stay on their own periods.  Each pair is compared after
    shift-orbit normalization along that axis, over a common period, and
    each is classified against the k = 1 critical field, which is one column
    wide and broadcasts.  Each row keeps its ``MinimaxResult``; a row whose
    mountain pass raised holds a failed one (NaN levels, no critical field)
    whose message is the error, and the scan continues.  A pair without a
    periodic axis (the 1-D chain's strip, q = ()) has no column to scan and
    raises PathError.
    """
    if k_max < 2:
        raise PathError("k_max must be >= 2")
    gap = require_gap(gap)
    if not gap.periods:
        raise PathError("the pair has no periodic axis to scan")
    rows = []
    for k in range(1, k_max + 1):
        periods = (k,) + (1,) * (len(gap.periods) - 1)
        try:
            system, hi = gap.order_box(potential, periods)
            res = best_mountain_pass(potential, gap, periods, tol)
            witness = box_path(hi, WITNESS_NODES, k if k > 1 else None,
                               hi.ndim - len(periods))
            top = float(np.max(system.energy(witness)))
            rows.append(ScanRow(k, res, top - res.c_ref))
        except FkSaddleError as exc:
            rows.append(ScanRow(k, MinimaxResult(message=str(exc))))
    criticals = {r.k: r.result.critical for r in rows if r.result.critical is not None}
    ks = sorted(criticals)
    axis = -len(gap.periods)
    dmat = np.zeros((len(ks), len(ks)))
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            dmat[a, b] = dmat[b, a] = _shift_orbit_distance(
                criticals[ks[a]], criticals[ks[b]], axis)
    # the k = 1 critical is one column wide, so it broadcasts against each k
    versus = ({k: intersects(criticals[k], criticals[1]) for k in ks}
              if 1 in criticals else {})
    return MultiplicityScan(rows=rows, distances=dmat, versus_first=versus)
