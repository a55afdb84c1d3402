"""Heteroclinic states on the strip Z x (Z^{n-1}/qZ^{n-1}).

Between two adjacent periodic ground states v0 < w0, transition profiles in
the axis-1 direction carry the renormalized energy

    I(u) = sum over layers i of ( sum_{j in layer i} S_j(u) - c0 * cells ),

which is finite exactly on fields with pinned tails (v0 far left, w0 far
right).  Minimizing I gives the heteroclinic ground level c1 and a kink
profile v1; the transverse-period scaling c1^q = prod(q) * c1 mirrors the
periodic case.  An adjacent pair v1 < w1 inside the heteroclinic minimizer
family (w1 is in practice the axis-1 translate of v1) spans a second order
box [0, w1 - v1], and the same minimax engine run inside it yields the
heteroclinic mountain pass d1 > c1: the Peierls-Nabarro-type barrier between
neighboring kink positions.

All fields are stored on finite windows with constant tails; every reported
value must be stable under window doubling, and the window policy grows the
window until the tail contribution bound falls below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import DEDUP_TOL, TAIL_BOUND_TOL, WINDOW_CAP, WINDOW_START
from .fields import (FkSaddleError, StripField, WindowError, pad_layers,
                     stencil, validate_periods)
from .model import SitePotential
from .mpp import (MinimaxResult, best_of_restarts, minimax_engine, phi_path,
                  scan_rows)
from .periodic import GapPair, probe_adjacency, require_gap
from .semiflow import FlowError, FlowParams, flow, refine_critical


class StripSystem:
    """Renormalized energy system on a fixed strip window.

    States are window value arrays of shape ``(..., 2W+1, *q)``.  The total
    lattice field is ``base + state`` inside the window and the constant
    tails outside; the tails are Dirichlet data and do not evolve.
    """

    def __init__(self, potential: SitePotential, q, half_width: int,
                 left: float, right: float, c0: float, base=None):
        self.potential = potential
        self.q = validate_periods(q) if len(tuple(q)) else ()
        if potential.n != 1 + len(self.q):
            raise WindowError("transverse periods %r do not match dimension %d"
                              % (self.q, potential.n))
        self.half_width = int(half_width)
        self.L = 2 * self.half_width + 1
        self.left = float(left)
        self.right = float(right)
        self.c0 = float(c0)
        self.shape = (self.L,) + self.q
        if base is None:
            self.base = np.zeros(self.shape)
            self.base_left = 0.0
            self.base_right = 0.0
        else:
            self.base = np.broadcast_to(np.asarray(base, dtype=float), self.shape)
            self.base_left = self.left
            self.base_right = self.right
            self.left = 0.0
            self.right = 0.0
        self.lattice_ndim = potential.n
        self.dt_safe = potential.dt_safe()
        self.stencil = stencil(potential.ball, self.shape, potential.r)
        # base and state tails add; with a base present the state tails are 0
        self.tails = (self.base_left + self.left, self.base_right + self.right)

    def layer_energies(self, x):
        """Renormalized per-layer sums over layers [-W-r, W+r]."""
        e = self.stencil.energies(self.potential, x + self.base, *self.tails) - self.c0
        taxes = tuple(range(e.ndim - len(self.q), e.ndim))
        return e.sum(axis=taxes) if taxes else e

    def energy(self, x):
        return self.layer_energies(x).sum(axis=-1)

    def grad(self, x):
        return self.stencil.residual(self.potential, x + self.base, *self.tails)

    def hess_matrix(self, x):
        return self.stencil.hessian(self.potential, x + self.base, *self.tails)

    def field(self, x) -> StripField:
        """Wrap a state array as a StripField carrying the state tails."""
        return StripField(self.half_width, self.q, x, self.left, self.right)


# ---------------------------------------------------------------------------
# norms and energies
# ---------------------------------------------------------------------------

def strip_norm(u: StripField) -> float:
    """l1 + l2 norm over the strip; infinite unless the tails vanish."""
    if u.left != 0.0 or u.right != 0.0:
        return math.inf
    v = u.values
    return float(np.sum(np.abs(v)) + np.sqrt(np.sum(v ** 2)))


@dataclass
class RenormalizationConstants:
    c0: float
    c1: float
    k1_empirical: float       # largest observed dip of windowed partial sums
    window: int
    diagnostics: dict = field(default_factory=dict)


def _gap_scalars(gap0: GapPair):
    v = gap0.v0.values
    w = gap0.w0.values
    if np.ptp(v) > 1e-9 or np.ptp(w) > 1e-9:
        raise FkSaddleError("heteroclinic machinery needs constant ground states "
                            "(rotation vector zero)")
    return float(v.flat[0]), float(w.flat[0])


def _strip_system(potential, q, W, gap0, base=None):
    v0s, w0s = _gap_scalars(gap0)
    c0 = float(potential.energy(np.full(potential.nball, v0s)))
    return StripSystem(potential, q, W, v0s, w0s, c0, base=base)


def renormalized_energy(potential: SitePotential, u: StripField,
                        gap0: GapPair, layers=None) -> float:
    """Truncated renormalized energy of a total field over a layer range.

    ``layers=(p, q)`` restricts the sum; the range must cover the stored
    window plus the stencil margin ``[-W-r, W+r]`` (every layer whose local
    energies read the window), else the truncation would drop energy and a
    WindowError is raised.
    """
    system = _strip_system(potential, u.q, u.half_width, gap0)
    per_layer = system.layer_energies(u.values)
    W, r = u.half_width, potential.r
    coords = np.arange(-W - r, W + r + 1)
    if layers is None:
        return float(per_layer.sum())
    p, q = int(layers[0]), int(layers[1])
    if p > -W - r or q < W + r:
        raise WindowError("layer range [%d, %d] does not cover the window "
                          "plus margin [%d, %d]" % (p, q, -W - r, W + r))
    mask = (coords >= p) & (coords <= q)
    return float(per_layer[mask].sum())


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

@dataclass
class HeteroMinimizeResult:
    v1: StripField
    c1q: float
    limits: list
    energies: list
    window: int
    tail_bound: float
    stability: float           # |c1q(W) - c1q(2W)| when computed
    consts: RenormalizationConstants


def default_hetero_seeds(system: StripSystem, shifts=(0.0, 0.5), width: float = 5.0):
    """Smooth-step layer profiles from the left tail to the right one."""
    W = system.half_width
    i = np.arange(-W, W + 1, dtype=float)
    gap = system.right - system.left
    seeds = []
    for sh in shifts:
        prof = system.left + gap * 0.5 * (1.0 + np.tanh((i - sh) / width))
        seeds.append(np.broadcast_to(prof.reshape((system.L,) + (1,) * len(system.q)),
                                     system.shape).copy())
    return seeds


def _tail_bound(system: StripSystem, x) -> float:
    """L * C(r) * (tail l1 mass) with the stencil-counted constants."""
    r = system.potential.r
    dev_left = np.abs(x[:r] - system.left).sum()
    dev_right = np.abs(x[-r:] - system.right).sum()
    L_const = system.potential.second_derivative_bound * system.potential.nball
    return L_const * system.potential.nball * float(dev_left + dev_right)


def _minimize_on_window(potential, q, W, gap0, params, seeds, seed_arrays=None):
    system = _strip_system(potential, q, W, gap0)
    arrays = list(seed_arrays or [])
    if seeds is None:
        arrays.extend(default_hetero_seeds(system))
    else:
        for s in seeds:
            arrays.append(s.values if isinstance(s, StripField) else np.asarray(s, float))
    stacked = np.stack(arrays)
    # flow first, then Newton: the flow finds the basin, Newton finishes the
    # job (weakly pinned models have diffusive modes far slower than any
    # reasonable flow budget, and the flow tolerance would anyway leave junk
    # in the far layers that keeps the tail-mass bound from converging)
    x, _, _ = flow(system, stacked, params)
    fields, es = [], []
    for i in range(len(arrays)):
        if any(np.max(np.abs(x[i] - f)) <= DEDUP_TOL for f in fields):
            continue
        xi, res_inf, ok = refine_critical(system, x[i], tol=1e-13, max_iter=30)
        if not ok and res_inf > params.stationarity_tol:
            continue  # this seed found no stationary limit
        fields.append(xi)
        es.append(float(system.energy(xi)))
    if not fields:
        raise FlowError("no heteroclinic seed converged on window W=%d" % W)
    best = int(np.argmin(es))
    return system, fields, es, best


def minimize_hetero(potential: SitePotential, q, gap0: GapPair,
                    params: FlowParams | None = None, seeds=None,
                    start_width: int = WINDOW_START,
                    window: str | int = "auto",
                    check_stability: bool = True) -> HeteroMinimizeResult:
    """Relax step profiles to the heteroclinic ground state.

    The window starts at ``start_width`` and doubles until the tail
    contribution bound drops below tolerance (capped at WINDOW_CAP); a fixed
    integer ``window`` skips the policy.  The reported stability is the
    change of c1q under one further window doubling.
    """
    gap0 = require_gap(gap0)
    params = params or FlowParams()
    q = validate_periods(q) if len(tuple(q)) else ()
    W = int(window) if window != "auto" else start_width
    carried = None
    prev_bound = math.inf
    while True:
        system, fields, es, best = _minimize_on_window(
            potential, q, W, gap0, params, seeds, carried)
        bound = _tail_bound(system, fields[best])
        if window != "auto" or bound < TAIL_BOUND_TOL:
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
        carried = [pad_layers(f, W, system.left, system.right, system.lattice_ndim)
                   for f in fields]
        W *= 2
        seeds = None
    stability = math.nan
    if check_stability:
        big = 2 * W
        carried = [pad_layers(fields[best], big - W, system.left, system.right,
                              system.lattice_ndim)]
        _, bf, be, bb = _minimize_on_window(potential, q, big, gap0, params,
                                            None, carried)
        stability = abs(es[best] - be[bb])
    v1 = system.field(fields[best])
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
        _, f1, e1, b1 = _minimize_on_window(potential, ones, W, gap0, params,
                                            None, None)
        c1 = e1[b1]
        if abs(es[best] - prods * c1) > 1e-8 * prods:
            raise FkSaddleError(
                "transverse scaling violated: c1q=%.12g vs %d * c1=%.12g"
                % (es[best], prods, prods * c1))
    else:
        c1 = es[best]
    consts = RenormalizationConstants(
        c0=system.c0, c1=c1, k1_empirical=max(0.0, -run_min),
        window=W, diagnostics={"tail_bound": _tail_bound(system, fields[best])})
    return HeteroMinimizeResult(
        v1=v1, c1q=es[best], limits=[system.field(f) for f in fields],
        energies=es, window=W, tail_bound=consts.diagnostics["tail_bound"],
        stability=stability, consts=consts)


def flow_hetero(potential: SitePotential, u0: StripField, gap0: GapPair,
                params: FlowParams | None = None):
    """Integrate the strip semiflow with pinned tails; returns (field, trace)."""
    params = params or FlowParams()
    system = _strip_system(potential, u0.q, u0.half_width, gap0)
    x, trace, _ = flow(system, u0.values, params)
    return system.field(x), trace


# ---------------------------------------------------------------------------
# gap pairs in the heteroclinic family
# ---------------------------------------------------------------------------

@dataclass
class HeteroGapPair:
    v1: StripField
    w1: StripField
    gap0: GapPair
    evidence: dict = field(default_factory=dict)

    @property
    def width_values(self) -> np.ndarray:
        return self.w1.values - self.v1.values


def find_gap_pair_hetero(potential: SitePotential, q, gap0: GapPair,
                         probes: int = 5, seed: int = 0,
                         params: FlowParams | None = None,
                         minimized: HeteroMinimizeResult | None = None):
    """Adjacent ordered pair inside the heteroclinic minimizer family.

    The natural candidate partner of v1 is its axis-1 translate.  Probe flows
    seeded between them certify adjacency heuristically; a continuum of
    intermediate minimizers (as in the free chain) returns None.
    """
    gap0 = require_gap(gap0)
    params = params or FlowParams()
    res = minimized or minimize_hetero(potential, q, gap0, params,
                                       check_stability=False)
    v1 = res.v1
    w1 = v1.shift1(1)
    width = w1.values - v1.values
    if np.max(np.abs(width)) <= DEDUP_TOL:
        return None  # translate indistinguishable: no discrete kink lattice
    if np.min(width) < -1e-9:
        return None  # translate not ordered above v1
    plain = _strip_system(potential, q, res.window, gap0)
    if np.max(np.abs(plain.grad(w1.values))) > max(1e-8, 100 * params.stationarity_tol):
        # the translate fails the equilibrium equation: the minimizer family
        # is a continuum (free-chain-like), not a discrete kink lattice
        return None
    system = _strip_system(potential, q, res.window, gap0, base=v1.values)
    rng = np.random.default_rng(seed)
    evidence = probe_adjacency(system, np.zeros_like(width), width, res.c1q,
                               params, probes, lambda: rng.uniform(0.05, 0.95))
    if evidence["distinct_interior_minimizers"]:
        return None
    return HeteroGapPair(v1=v1, w1=w1, gap0=gap0, evidence=evidence)


def require_hetero_gap(gap1) -> HeteroGapPair:
    if gap1 is None:
        raise FkSaddleError("no heteroclinic gap pair available")
    return gap1


# ---------------------------------------------------------------------------
# heteroclinic mountain pass
# ---------------------------------------------------------------------------

def _offset_system(potential, gap1: HeteroGapPair):
    v1 = gap1.v1
    return _strip_system(potential, v1.q, v1.half_width, gap1.gap0,
                         base=v1.values)


def mountain_pass_hetero(potential: SitePotential, gap1: HeteroGapPair,
                         params: FlowParams | None = None,
                         N: int | None = None, path_nodes=None,
                         mode: str = "node-flow", restarts: int = 1) -> MinimaxResult:
    """Minimax over strip paths from 0 to w1 - v1 inside the order box.

    The returned critical offset rides on v1; its level d1 exceeds c1 and
    its residual is below tolerance at every window site.
    """
    gap1 = require_hetero_gap(gap1)
    params = params or FlowParams()
    hi = gap1.width_values
    system = _offset_system(potential, gap1)
    if path_nodes is not None:
        nodes = np.asarray(path_nodes, dtype=float)
    else:
        N = N or 65
        thetas = np.linspace(0.0, 1.0, N).reshape((N,) + (1,) * hi.ndim)
        nodes = thetas * hi
    engine = minimax_engine(mode)
    return best_of_restarts(
        lambda n: engine(system, n, hi, params), nodes, hi, restarts)


def bound_scan_hetero(potential: SitePotential, k_max: int,
                      gap1: HeteroGapPair, params: FlowParams | None = None,
                      N: int | None = None, witness_grid: int = 801):
    """Barrier column over the transverse periods q(k) = (k, 1, ..., 1).

    Each scan row records c = c1q, d = d1q, and the maximum of the
    transverse staircase path built from the same profile as the periodic
    construction; the staircase maxima witness the uniform bound on d1q - c1q.
    """
    gap1 = require_hetero_gap(gap1)
    params = params or FlowParams()
    if len(gap1.v1.q) != 1:
        raise FkSaddleError("the transverse scan needs one transverse axis "
                            "(model dimension 2)")

    def fill(row):
        k = row.k
        gk = HeteroGapPair(v1=_tile_transverse(gap1.v1, k),
                           w1=_tile_transverse(gap1.w1, k), gap0=gap1.gap0,
                           evidence=dict(gap1.evidence))
        system = _offset_system(potential, gk)
        hi = gk.width_values
        row.c = float(system.energy(np.zeros_like(hi)))
        thetas = np.linspace(0.0, 1.0, witness_grid)
        if k >= 2:
            i2 = np.arange(k)
            prof = np.stack([phi_path(k, th, i2) for th in thetas])
            nodes = prof[:, None, :] * hi
        else:
            nodes = thetas.reshape(-1, 1, 1) * hi
        row.witness = float(np.max(system.energy(nodes)) - row.c)
        sub = np.linspace(0, witness_grid - 1, N or 65).astype(int)
        row.record(mountain_pass_hetero(potential, gk, params,
                                        path_nodes=nodes[sub], restarts=1))

    return scan_rows(k_max, fill)


def _tile_transverse(u: StripField, k: int) -> StripField:
    if len(u.q) != 1:
        raise FkSaddleError("transverse tiling needs exactly one transverse axis")
    if u.q[0] != 1:
        raise FkSaddleError("transverse tiling starts from q=(1,)")
    return StripField(u.half_width, (k,), np.tile(u.values, (1, k)),
                      u.left, u.right)


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


def asymptotics_report(u: StripField, gap0: GapPair) -> AsymptoticsReport:
    """Tag each strip end with its nearest ground state and its decay rate."""
    v0s, w0s = _gap_scalars(gap0)
    flat = u.values.reshape(u.values.shape[0], -1)
    dv = np.abs(flat - v0s).sum(axis=1)
    dw = np.abs(flat - w0s).sum(axis=1)
    W = u.half_width
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
        layers=u.layer_coords(), dist_to_v0=dv, dist_to_w0=dw,
        left_tag=left_tag, right_tag=right_tag,
        left_decay=decay(left_series), right_decay=decay(right_series))
