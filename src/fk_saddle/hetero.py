"""Heteroclinic states on the strip Z x (Z^{n-1}/qZ^{n-1}).

Between two adjacent periodic ground states v0 < w0, transition profiles in
the axis-1 direction carry the renormalized energy

    I(u) = sum over layers i of ( sum_{j in layer i} S_j(u) - c0 * cells ),

which is finite exactly on fields with pinned tails (v0 far left, w0 far
right).  Minimizing I gives the heteroclinic ground level c1 and a kink
profile v1; the transverse-period scaling c1^q = prod(q) * c1 mirrors the
periodic case.  An adjacent pair v1 < w1 inside the heteroclinic minimizer
family (w1 is in practice the axis-1 translate of v1) is a ``GapPair`` whose
``ground`` is the pair v0 < w0, and its ``order_box`` spans the second box
[0, w1 - v1], as on the torus; ``mpp.best_mountain_pass`` run inside it gives
the heteroclinic mountain pass d1 > c1: the Peierls-Nabarro-type barrier
between neighboring kink positions.  ``order_box`` also tiles the pair across
transverse periods that are multiples of q, so ``mpp.best_mountain_pass`` and
``mpp.multiplicity_scan`` take the strip pair as they take the torus one; the
scan gives the barrier column over q(k) = (k, 1, ..., 1) with its staircase
witnesses.  ``mountain_pass_hetero`` is ``best_mountain_pass`` on the pair's
own periods, so every strip mountain pass starts as on the torus: from the
column ramp across the transverse axis, on ``default_node_count(q)`` nodes
unless given a count; the staircase is the witness only.

A strip state is a float array of shape ``(2 W + 1, *q)``, the layers
i_1 = -W..W of a finite window; the window, the tails outside it and the
base state belong to ``periodic.StripSystem``, whose ``total`` alone writes
the tails into an array (the stencil's ghost layers, the window doubling and
the kink's translate).  The tails are the ground pair's states tiled across
q (``GapPair.frame``), and ``minimize_hetero`` reports the window its kink
``v1`` was computed on.  Every reported value must be stable under
window doubling, and the window policy grows the window until the tail
contribution bound falls below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import (DEDUP_TOL, GAP_PROBES, HETERO_SEED_SHIFTS,
                       HETERO_SEED_WIDTH, STATIONARITY_TOL, TAIL_BOUND_TOL,
                       WINDOW_CAP, WINDOW_START)
from .fields import FkSaddleError, WindowError, tile, validate_periods
from .model import SitePotential
from .mpp import MinimaxResult, best_mountain_pass
from .periodic import (GapPair, NoGapError, StripSystem, polish_limits,
                       probe_adjacency)
from .semiflow import FlowError, flow


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

@dataclass
class HeteroMinimizeResult:
    v1: np.ndarray             # the kink on the window, shape (2 window + 1, *q)
    c1q: float
    window: int
    tail_bound: float
    stability: float           # |c1q(W) - c1q(2W)| when computed
    c0: float
    c1: float
    k1_empirical: float        # largest observed dip of windowed partial sums


def default_hetero_seeds(system: StripSystem):
    """Smooth-step layer profiles from the left tail to the right one."""
    W = system.half_width
    i = np.arange(-W, W + 1, dtype=float).reshape((system.L,) + (1,) * len(system.q))
    left, right = system.tails
    seeds = []
    for sh in HETERO_SEED_SHIFTS:
        prof = left + (right - left) * 0.5 * (1.0 + np.tanh((i - sh) / HETERO_SEED_WIDTH))
        seeds.append(np.broadcast_to(prof, system.shape).copy())
    return seeds


def _tail_bound(system: StripSystem, x) -> float:
    """L * C(r) * (tail l1 mass) with the stencil-counted constants."""
    r = system.potential.r
    dev_left = np.abs(x[:r] - system.tails[0]).sum()
    dev_right = np.abs(x[-r:] - system.tails[1]).sum()
    L_const = system.potential.second_derivative_bound * system.potential.nball
    return L_const * system.potential.nball * float(dev_left + dev_right)


def _minimize_on_window(potential, q, W, gap0, tol, carried=()):
    system = StripSystem(potential, q, W, *gap0.frame(potential, q))
    arrays = list(carried) + default_hetero_seeds(system)
    # flow first, then Newton: the flow finds the basin, Newton finishes the
    # job (weakly pinned models have diffusive modes far slower than any
    # reasonable flow budget, and the flow tolerance would anyway leave junk
    # in the far layers that keeps the tail-mass bound from converging)
    x, _, _ = flow(system, np.stack(arrays), tol)
    fields = polish_limits(system, x, tol)
    if not fields:
        raise FlowError("no heteroclinic seed converged on window W=%d" % W)
    es = [float(system.energy(f)) for f in fields]
    best = int(np.argmin(es))
    return system, fields, es, best


def minimize_hetero(potential: SitePotential, q, gap0: GapPair,
                    tol: float = STATIONARITY_TOL,
                    window: int | None = None,
                    check_stability: bool = True) -> HeteroMinimizeResult:
    """Relax step profiles to the heteroclinic ground state.

    The window starts at WINDOW_START and doubles until the tail
    contribution bound drops below tolerance (capped at WINDOW_CAP); a fixed
    integer ``window`` skips the policy, ``None`` runs it.  The reported
    stability is the change of c1q under one further window doubling: the
    check relaxes the minimizer again at half-width 2W, twice the sites.
    """
    q = validate_periods(q) if len(tuple(q)) else ()
    W = int(window) if window is not None else WINDOW_START
    carried = ()
    prev_bound = math.inf
    while True:
        system, fields, es, best = _minimize_on_window(
            potential, q, W, gap0, tol, carried)
        bound = _tail_bound(system, fields[best])
        if window is not None or bound < TAIL_BOUND_TOL:
            break
        if bound > 0.25 * prev_bound:
            # a localized kink sheds tail mass by orders of magnitude per
            # doubling; anything slower is a delocalized ramp that no finite
            # window will pin down
            raise WindowError("tail mass is not localizing under window "
                              "doubling (bound %g at W=%d)" % (bound, W))
        if 2 * W > WINDOW_CAP:
            raise WindowError("window %d exceeds the cap %d with tail bound %g"
                              % (2 * W, WINDOW_CAP, bound))
        prev_bound = bound
        carried = [system.total(f, W) for f in fields]
        W *= 2
    stability = math.nan
    if check_stability:
        carried = [system.total(fields[best], W)]
        _, _, be, bb = _minimize_on_window(potential, q, 2 * W, gap0, tol, carried)
        stability = abs(es[best] - be[bb])
    # empirical lower-bound constant: worst dip of windowed partial sums
    layer = system.layer_energies(fields[best])
    run_min = 0.0
    acc = 0.0
    for val in layer:
        acc = min(val, acc + val)
        run_min = min(run_min, acc)
    prods = math.prod(q) if q else 1
    if prods > 1:
        # the one-column reference level; varying the transverse periods must
        # reproduce it exactly per cell
        ones = (1,) * len(q)
        _, _, e1, b1 = _minimize_on_window(potential, ones, W, gap0, tol)
        c1 = e1[b1]
        if abs(es[best] - prods * c1) > 1e-8 * prods:
            raise FkSaddleError(
                "transverse scaling violated: c1q=%.12g vs %d * c1=%.12g"
                % (es[best], prods, prods * c1))
    else:
        c1 = es[best]
    return HeteroMinimizeResult(
        v1=fields[best], c1q=es[best], window=W,
        tail_bound=bound, stability=stability, c0=system.c0, c1=c1,
        k1_empirical=max(0.0, -run_min))


# ---------------------------------------------------------------------------
# gap pairs in the heteroclinic family
# ---------------------------------------------------------------------------

def find_gap_pair_hetero(potential: SitePotential,
                         minimized: HeteroMinimizeResult, gap0: GapPair,
                         probes: int = GAP_PROBES, seed: int = 0,
                         tol: float = STATIONARITY_TOL):
    """Adjacent ordered pair inside the heteroclinic minimizer family.

    The partner of the kink v1 of ``minimized`` (which fixes q and the
    window) is its axis-1 translate.  Probe flows seeded between them
    certify adjacency heuristically.  ``NoGapError`` names the check that
    fails: the translate is indistinguishable, not ordered or not critical (a
    continuum of minimizers, as in the free chain), or the probes rule it out.
    """
    # w1(i) = v1(i + e_1): the window one layer on, the right tail entering
    v1, q = minimized.v1, minimized.v1.shape[1:]
    kink = StripSystem(potential, q, v1.shape[0] // 2, *gap0.frame(potential, q))
    pair = GapPair(v1, kink.total(v1, 1)[2:], ground=gap0)
    system, width = pair.order_box(potential)
    if np.max(np.abs(width)) <= DEDUP_TOL:
        raise NoGapError("the kink's translate is indistinguishable from it")
    if np.min(width) < -1e-9:
        raise NoGapError("the kink's translate is not ordered above it")
    residual = float(np.max(np.abs(system.grad(width))))
    if residual > max(1e-8, 100 * tol):
        raise NoGapError("the kink's translate is not critical (residual %.3g): "
                         "the minimizer family is a continuum" % residual)
    rng = np.random.default_rng(seed)
    pair.evidence = probe_adjacency(system, np.zeros_like(width), width,
                                    minimized.c1q, tol, probes,
                                    lambda: rng.uniform(0.05, 0.95))
    if pair.evidence["distinct_interior_minimizers"]:
        raise NoGapError("the probe evidence rules the kink pair out: %r"
                         % pair.evidence)
    return pair


# ---------------------------------------------------------------------------
# heteroclinic mountain pass
# ---------------------------------------------------------------------------

def mountain_pass_hetero(potential: SitePotential, gap1: GapPair,
                         tol: float = STATIONARITY_TOL,
                         N: int | None = None) -> MinimaxResult:
    """Minimax over strip paths from 0 to w1 - v1 inside the order box:
    :func:`mpp.best_mountain_pass` on the pair's own transverse periods, from
    the column ramp across the transverse axis (``N`` nodes, default
    ``default_node_count(q)``; the linear homotopy when q = 1 or q = ()).

    The returned critical offset rides on v1; its level d1 exceeds c1 and
    its residual is below tolerance at every window site.
    """
    return best_mountain_pass(potential, gap1, None, tol, N=N)


# ---------------------------------------------------------------------------
# asymptotics diagnostics
# ---------------------------------------------------------------------------

@dataclass
class AsymptoticsReport:
    left_tag: str
    right_tag: str
    left_decay: float          # mean log-slope of the approach, per layer
    right_decay: float


def asymptotics_report(u: np.ndarray, gap0: GapPair) -> AsymptoticsReport:
    """Tag each end of the window state ``u`` (shape ``(2 W + 1, *q)``) with
    its nearest ground state and its decay rate."""
    layer = (1,) + u.shape[1:]
    dv, dw = (np.abs(u - tile(s, layer)).reshape(u.shape[0], -1).sum(axis=1)
              for s in (gap0.lo, gap0.hi))
    W = u.shape[0] // 2
    m = max(2, W // 4)
    left_tag = "v0" if dv[:m].sum() <= dw[:m].sum() else "w0"
    right_tag = "v0" if dv[-m:].sum() <= dw[-m:].sum() else "w0"

    def decay(series):
        s = np.maximum(series, 1e-300)
        logs = np.log(s)
        return float(np.mean(np.diff(logs))) if len(s) > 1 else 0.0

    left_series = dv[:m] if left_tag == "v0" else dw[:m]
    right_series = (dv[-m:] if right_tag == "v0" else dw[-m:])[::-1]
    return AsymptoticsReport(
        left_tag=left_tag, right_tag=right_tag,
        left_decay=decay(left_series), right_decay=decay(right_series))
