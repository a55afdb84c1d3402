"""Heteroclinic states on the strip Z x (Z^{n-1}/qZ^{n-1}).

Between two adjacent periodic ground states v0 < w0, transition profiles in
the axis-1 direction carry the renormalized energy

    I(u) = sum over layers i of ( sum_{j in layer i} S_j(u) - c0 * cells ),

which is finite exactly on fields with pinned tails (v0 far left, w0 far
right).  Minimizing I gives the heteroclinic ground level c1 and a kink
profile v1; the transverse-period scaling c1^q = prod(q) * c1 mirrors the
periodic case.  An adjacent pair v1 < w1 inside the heteroclinic minimizer
family (w1 is in practice the axis-1 translate of v1) spans a second order
box [0, w1 - v1] (``HeteroGapPair.order_box``, as ``GapPair.order_box`` on
the torus), and ``mpp.best_mountain_pass`` run inside it gives the
heteroclinic mountain pass d1 > c1: the Peierls-Nabarro-type barrier between
neighboring kink positions.  ``order_box`` also tiles the pair across
transverse periods that are multiples of q, so ``mpp.best_mountain_pass`` and
``mpp.multiplicity_scan`` take the strip pair as they take the torus one; the
scan gives the barrier column over q(k) = (k, 1, ..., 1) with its staircase
witnesses.  ``mountain_pass_hetero`` is ``best_mountain_pass`` on the pair's
own periods, so every strip mountain pass starts as on the torus: from the
column ramp across the transverse axis, on ``default_node_count(q)`` nodes
unless given a count; the staircase is the witness only.

A strip state is a float array of shape ``(2 W + 1, *q)``, the layers
i_1 = -W..W of a finite window; the window, the constant tails outside it
and the base state belong to ``StripSystem``, whose ``total`` alone writes
the tails into an array (the stencil's ghost layers, the window doubling and
the kink's translate), and ``minimize_hetero`` reports the window and tails
its kink ``v1`` was computed on.  Every reported value must be stable under
window doubling, and the window policy grows the window until the tail
contribution bound falls below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import (DEDUP_TOL, GAP_PROBES, HETERO_SEED_SHIFTS,
                       HETERO_SEED_WIDTH, TAIL_BOUND_TOL, WINDOW_CAP, WINDOW_START)
from .fields import FkSaddleError, WindowError, stencil, tile, validate_periods
from .model import SitePotential
from .mpp import MinimaxResult, best_mountain_pass
from .periodic import GapPair, polish_limits, probe_adjacency, require_gap
from .semiflow import FlowError, FlowParams, flow


class StripSystem:
    """Renormalized energy system on a fixed strip window.

    States are window value arrays of shape ``(..., 2W+1, *q)``.  The total
    lattice field (:meth:`total`) is ``base + state`` inside the window and
    the constant ``tails`` (v0, w0) outside; the tails are Dirichlet data and
    do not evolve.
    """

    def __init__(self, potential: SitePotential, q, half_width: int,
                 left: float, right: float, c0: float, base=None):
        self.potential = potential
        self.q = validate_periods(q) if len(tuple(q)) else ()
        if potential.n != 1 + len(self.q):
            raise WindowError("transverse periods %r do not match dimension %d"
                              % (self.q, potential.n))
        self.half_width = int(half_width)
        if self.half_width < 0:
            raise WindowError("window half-width must be >= 0, got %d" % self.half_width)
        self.L = 2 * self.half_width + 1
        self.tails = (float(left), float(right))
        self.c0 = float(c0)
        self.shape = (self.L,) + self.q
        self.base = (np.zeros(self.shape) if base is None else
                     np.broadcast_to(np.asarray(base, dtype=float), self.shape))
        self.lattice_ndim = potential.n
        self.dt_safe = potential.dt_safe()
        self.stencil = stencil(potential.ball, self.shape, potential.r)

    def total(self, x, margin=None):
        """The field ``base + x`` with ``margin`` layers of each tail on its
        side (default: the stencil's ``2 r`` ghost layers), over any leading
        batch axes of ``x``."""
        m = self.stencil.ghosts if margin is None else margin
        out = np.empty(x.shape[:x.ndim - len(self.shape)] + (self.L + 2 * m,) + self.q)
        rest = (slice(None),) * len(self.q)
        out[(Ellipsis, slice(None, m)) + rest] = self.tails[0]
        np.add(x, self.base, out=out[(Ellipsis, slice(m, m + self.L)) + rest])
        out[(Ellipsis, slice(m + self.L, None)) + rest] = self.tails[1]
        return out

    def layer_energies(self, x):
        """Renormalized per-layer sums over layers [-W-r, W+r]."""
        e = self.stencil.energies(self.potential, self.total(x)) - self.c0
        taxes = tuple(range(e.ndim - len(self.q), e.ndim))
        return e.sum(axis=taxes) if taxes else e

    def energy(self, x):
        return self.layer_energies(x).sum(axis=-1)

    def grad(self, x):
        return self.stencil.residual(self.potential, self.total(x))

    def hess_matrix(self, x):
        """Hessian of I at x, block-tridiagonal in groups of layers."""
        return self.stencil.banded_hessian(self.potential, self.total(x))


# ---------------------------------------------------------------------------
# renormalization
# ---------------------------------------------------------------------------

def _gap_scalars(gap0: GapPair):
    v, w = gap0.v0, gap0.w0
    if np.ptp(v) > 1e-9 or np.ptp(w) > 1e-9:
        raise FkSaddleError("heteroclinic machinery needs constant ground states "
                            "(rotation vector zero)")
    return float(v.flat[0]), float(w.flat[0])


def _strip_system(potential, q, W, gap0, base=None):
    v0s, w0s = _gap_scalars(gap0)
    c0 = float(potential.energy(np.full(potential.nball, v0s)))
    return StripSystem(potential, q, W, v0s, w0s, c0, base=base)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

@dataclass
class HeteroMinimizeResult:
    v1: np.ndarray             # the kink on the window, shape (2 window + 1, *q)
    c1q: float
    window: int
    tails: tuple               # (left, right): the ground states v0 and w0
    tail_bound: float
    stability: float           # |c1q(W) - c1q(2W)| when computed
    c0: float
    c1: float
    k1_empirical: float        # largest observed dip of windowed partial sums


def default_hetero_seeds(system: StripSystem):
    """Smooth-step layer profiles from the left tail to the right one."""
    W = system.half_width
    i = np.arange(-W, W + 1, dtype=float)
    left, right = system.tails
    seeds = []
    for sh in HETERO_SEED_SHIFTS:
        prof = left + (right - left) * 0.5 * (1.0 + np.tanh((i - sh) / HETERO_SEED_WIDTH))
        seeds.append(np.broadcast_to(prof.reshape((system.L,) + (1,) * len(system.q)),
                                     system.shape).copy())
    return seeds


def _tail_bound(system: StripSystem, x) -> float:
    """L * C(r) * (tail l1 mass) with the stencil-counted constants."""
    r = system.potential.r
    dev_left = np.abs(x[:r] - system.tails[0]).sum()
    dev_right = np.abs(x[-r:] - system.tails[1]).sum()
    L_const = system.potential.second_derivative_bound * system.potential.nball
    return L_const * system.potential.nball * float(dev_left + dev_right)


def _minimize_on_window(potential, q, W, gap0, params, carried=()):
    system = _strip_system(potential, q, W, gap0)
    arrays = list(carried) + default_hetero_seeds(system)
    # flow first, then Newton: the flow finds the basin, Newton finishes the
    # job (weakly pinned models have diffusive modes far slower than any
    # reasonable flow budget, and the flow tolerance would anyway leave junk
    # in the far layers that keeps the tail-mass bound from converging)
    x, _, _ = flow(system, np.stack(arrays), params)
    fields = polish_limits(system, x, params)
    if not fields:
        raise FlowError("no heteroclinic seed converged on window W=%d" % W)
    es = [float(system.energy(f)) for f in fields]
    best = int(np.argmin(es))
    return system, fields, es, best


def minimize_hetero(potential: SitePotential, q, gap0: GapPair,
                    params: FlowParams | None = None,
                    window: int | None = None,
                    check_stability: bool = True) -> HeteroMinimizeResult:
    """Relax step profiles to the heteroclinic ground state.

    The window starts at WINDOW_START and doubles until the tail
    contribution bound drops below tolerance (capped at WINDOW_CAP); a fixed
    integer ``window`` skips the policy, ``None`` runs it.  The reported
    stability is the change of c1q under one further window doubling: the
    check relaxes the minimizer again at half-width 2W, twice the sites.
    """
    gap0 = require_gap(gap0)
    params = params or FlowParams()
    q = validate_periods(q) if len(tuple(q)) else ()
    W = int(window) if window is not None else WINDOW_START
    carried = ()
    prev_bound = math.inf
    while True:
        system, fields, es, best = _minimize_on_window(
            potential, q, W, gap0, params, carried)
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
        _, _, be, bb = _minimize_on_window(potential, q, 2 * W, gap0, params, carried)
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
        _, _, e1, b1 = _minimize_on_window(potential, ones, W, gap0, params)
        c1 = e1[b1]
        if abs(es[best] - prods * c1) > 1e-8 * prods:
            raise FkSaddleError(
                "transverse scaling violated: c1q=%.12g vs %d * c1=%.12g"
                % (es[best], prods, prods * c1))
    else:
        c1 = es[best]
    return HeteroMinimizeResult(
        v1=fields[best], c1q=es[best], window=W, tails=system.tails,
        tail_bound=bound, stability=stability, c0=system.c0, c1=c1,
        k1_empirical=max(0.0, -run_min))


# ---------------------------------------------------------------------------
# gap pairs in the heteroclinic family
# ---------------------------------------------------------------------------

@dataclass
class HeteroGapPair:
    v1: np.ndarray             # window states, shape (2 W + 1, *q)
    w1: np.ndarray
    gap0: GapPair
    evidence: dict = field(default_factory=dict)

    @property
    def periods(self) -> tuple:
        return self.v1.shape[1:]

    def order_box(self, potential: SitePotential, periods=None):
        """The order box on v1's window with the transverse ``periods``
        (default: the pair's), across which v1 and w1 are tiled: the strip
        system on offsets from v1 and the box corner w1 - v1."""
        v1, w1 = self.v1, self.w1
        if periods is not None:
            shape = v1.shape[:1] + tuple(periods)
            v1, w1 = tile(v1, shape), tile(w1, shape)
        system = _strip_system(potential, v1.shape[1:], v1.shape[0] // 2, self.gap0, base=v1)
        return system, w1 - v1


def find_gap_pair_hetero(potential: SitePotential,
                         minimized: HeteroMinimizeResult, gap0: GapPair,
                         probes: int = GAP_PROBES, seed: int = 0,
                         params: FlowParams | None = None):
    """Adjacent ordered pair inside the heteroclinic minimizer family.

    The partner of the kink v1 of ``minimized`` (which fixes q and the
    window) is its axis-1 translate.  Probe flows seeded between them
    certify adjacency heuristically; a continuum of intermediate
    minimizers (as in the free chain) returns None.
    """
    gap0 = require_gap(gap0)
    params = params or FlowParams()
    # w1(i) = v1(i + e_1): the window one layer on, the right tail entering
    v1 = minimized.v1
    kink = _strip_system(potential, v1.shape[1:], v1.shape[0] // 2, gap0)
    pair = HeteroGapPair(v1=v1, w1=kink.total(v1, 1)[2:], gap0=gap0)
    system, width = pair.order_box(potential)
    if np.max(np.abs(width)) <= DEDUP_TOL:
        return None  # translate indistinguishable: no discrete kink lattice
    if np.min(width) < -1e-9:
        return None  # translate not ordered above v1
    if np.max(np.abs(system.grad(width))) > max(1e-8, 100 * params.stationarity_tol):
        # the translate fails the equilibrium equation: the minimizer family
        # is a continuum (free-chain-like), not a discrete kink lattice
        return None
    rng = np.random.default_rng(seed)
    pair.evidence = probe_adjacency(system, np.zeros_like(width), width,
                                    minimized.c1q, params, probes,
                                    lambda: rng.uniform(0.05, 0.95))
    if pair.evidence["distinct_interior_minimizers"]:
        return None
    return pair


# ---------------------------------------------------------------------------
# heteroclinic mountain pass
# ---------------------------------------------------------------------------

def mountain_pass_hetero(potential: SitePotential, gap1: HeteroGapPair,
                         params: FlowParams | None = None,
                         N: int | None = None) -> MinimaxResult:
    """Minimax over strip paths from 0 to w1 - v1 inside the order box:
    :func:`mpp.best_mountain_pass` on the pair's own transverse periods, from
    the column ramp across the transverse axis (``N`` nodes, default
    ``default_node_count(q)``; the linear homotopy when q = 1 or q = ()).

    The returned critical offset rides on v1; its level d1 exceeds c1 and
    its residual is below tolerance at every window site.
    """
    return best_mountain_pass(potential, gap1, None, params, N=N)


# ---------------------------------------------------------------------------
# asymptotics diagnostics
# ---------------------------------------------------------------------------

@dataclass
class AsymptoticsReport:
    layers: np.ndarray
    dist_to_v0: np.ndarray     # per-layer l1 distance to the lower ground state
    dist_to_w0: np.ndarray
    left_tag: str
    right_tag: str
    left_decay: float          # mean log-slope of the approach, per layer
    right_decay: float


def asymptotics_report(u: np.ndarray, gap0: GapPair) -> AsymptoticsReport:
    """Tag each end of the window state ``u`` (shape ``(2 W + 1, *q)``) with
    its nearest ground state and its decay rate."""
    v0s, w0s = _gap_scalars(gap0)
    flat = u.reshape(u.shape[0], -1)
    dv = np.abs(flat - v0s).sum(axis=1)
    dw = np.abs(flat - w0s).sum(axis=1)
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
        layers=np.arange(-W, W + 1), dist_to_v0=dv, dist_to_w0=dw,
        left_tag=left_tag, right_tag=right_tag,
        left_decay=decay(left_series), right_decay=decay(right_series))
