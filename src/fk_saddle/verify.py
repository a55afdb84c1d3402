"""Independent oracles and the cross-cutting property suite.

The minimax solvers are checked against a genuinely independent computation:
on a two-site torus every field is a point (a, b) in the unit square, the
energy is a closed two-variable landscape, and the minimax over paths is the
bottleneck (widest-path) value over the 8-connected grid graph, found by
binary search on the level threshold with a connected-components flood fill.

The property suite replays, at desk scale, every inequality the theory
guarantees: submodularity of the local energies, order preservation and
strictness of the semiflow, strong comparison of stationary states, energy
decrease, box invariance, the clipping inequality, gradient consistency, and
the ground-energy scaling law.  Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .defaults import (BOX_INVARIANCE_TOL, CLIP_ENERGY_TOL, CROSS_CHECK_TOL,
                       ENERGY_INCREASE_TOL, FD_REL_TOL,
                       ORACLE_RESOLUTION, SCALING_TOL, STRICT_ORDER_TOL,
                       SUBMODULARITY_TOL)
from .fields import FkSaddleError, TorusField
from .model import SitePotential, central_differences, site_energies
from .mpp import build_initial_path, mountain_pass
from .periodic import (GapPair, PeriodicSystem, find_gap_pair,
                       minimize_periodic, require_gap)
from .semiflow import FlowParams, flow, rk4_step


# ---------------------------------------------------------------------------
# the two-variable oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleGrid2D:
    """Samples of the reduced two-variable landscape on [0, 1]^2."""

    resolution: int
    values: np.ndarray         # (R, R), values[ia, ib] = I(u_{a,b})

    @staticmethod
    def build(potential: SitePotential, gap: GapPair, resolution: int,
              chunk: int = 64) -> "OracleGrid2D":
        if resolution < 101:
            raise FkSaddleError("oracle resolution must be >= 101")
        if potential.n != 2:
            raise FkSaddleError("the 2-variable oracle needs model dimension 2")
        gap = require_gap(gap)
        system = PeriodicSystem(potential, (2, 1), gap.v0.extend((2, 1)))
        grid = np.linspace(0.0, 1.0, resolution)
        values = np.empty((resolution, resolution))
        for lo in range(0, resolution, chunk):
            hi = min(lo + chunk, resolution)
            a = grid[lo:hi][:, None]
            b = grid[None, :]
            fields = np.empty((hi - lo, resolution, 2, 1))
            fields[..., 0, 0] = np.broadcast_to(a, (hi - lo, resolution))
            fields[..., 1, 0] = np.broadcast_to(b, (hi - lo, resolution))
            values[lo:hi] = system.energy(fields)
        return OracleGrid2D(resolution=resolution, values=values)

    def grid_max(self):
        idx = np.unravel_index(np.argmax(self.values), self.values.shape)
        g = np.linspace(0.0, 1.0, self.resolution)
        return float(self.values[idx]), (float(g[idx[0]]), float(g[idx[1]]))


def bottleneck_minimax_2d(grid: OracleGrid2D, start=(0, 0), end=None) -> float:
    """Exact minimax over 8-connected grid paths from start to end.

    The value is the smallest threshold T such that start and end lie in one
    connected component of the sublevel set {values <= T}; found by binary
    search on the sorted sample values.
    """
    values = grid.values
    R = grid.resolution
    end = end if end is not None else (R - 1, R - 1)
    start = tuple(int(c) for c in start)
    end = tuple(int(c) for c in end)
    levels = np.unique(values)
    structure = np.ones((3, 3), dtype=bool)

    def connected(threshold):
        mask = values <= threshold
        if not (mask[start] and mask[end]):
            return False
        labels, _ = ndimage.label(mask, structure=structure)
        return labels[start] == labels[end]

    lo = int(np.searchsorted(levels, max(values[start], values[end])))
    hi = len(levels) - 1
    if not connected(levels[hi]):
        raise FkSaddleError("grid endpoints disconnected at the global maximum")
    while lo < hi:
        mid = (lo + hi) // 2
        if connected(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

@dataclass
class PropertyReport:
    name: str
    trials: int
    worst_margin: float        # >= 0 is healthy; sign convention per property
    passed: bool
    seed: int
    detail: str = ""


def _smooth_box_fields(system, rng, count, box):
    """Uniform box samples with one smoothing flow step applied."""
    raw = rng.uniform(0.0, 1.0, size=(count,) + box.shape) * box
    x, _ = rk4_step(system, raw, system.dt_safe)
    return np.clip(x, 0.0, box)


def _fallback_gap(potential: SitePotential, periods) -> GapPair:
    """Constant-scan gap for models whose random flows diverge."""
    ones = (1,) * len(periods)
    cs = np.linspace(0.0, 1.0, 512, endpoint=False)
    cfg = np.repeat(cs[:, None], potential.nball, axis=1)
    es = potential.energy(cfg)
    c = float(cs[int(np.argmin(es))])
    v0 = TorusField.constant(ones, c)
    return GapPair(v0=v0, w0=v0 + 1.0, evidence={"fallback": "constant scan"})


def run_property_suite(potential: SitePotential, periods, seed: int,
                       trials: int, params: FlowParams | None = None,
                       gap: GapPair | None = None):
    """Execute every numerically checkable inequality; returns reports.

    Failures are report rows, not exceptions; a property whose setup blows
    up (for instance on a model violating the standing assumptions) is
    reported failed with the error in the detail field.
    """
    params = params or FlowParams()
    periods = tuple(int(x) for x in periods)
    reports = []
    if trials == 0:
        return reports
    if gap is None:
        try:
            gap = find_gap_pair(potential, (1,) * len(periods), seed=seed,
                                params=params)
        except FkSaddleError:
            gap = None
        if gap is None:
            gap = _fallback_gap(potential, periods)
    v0 = gap.v0.extend(periods)
    box = gap.box_field(periods).values
    system = PeriodicSystem(potential, periods, v0)

    def rng_for(idx):
        return np.random.default_rng(np.random.SeedSequence([seed, idx]))

    def run(idx, name, fn):
        try:
            worst, detail = fn(rng_for(idx))
            reports.append(PropertyReport(name=name, trials=trials,
                                          worst_margin=worst,
                                          passed=bool(worst >= 0.0), seed=seed,
                                          detail=detail))
        except FkSaddleError as exc:
            reports.append(PropertyReport(name=name, trials=trials,
                                          worst_margin=-math.inf, passed=False,
                                          seed=seed, detail=str(exc)))

    def submodularity(rng):
        u = rng.uniform(-2.0, 2.0, size=(trials,) + periods)
        v = rng.uniform(-2.0, 2.0, size=(trials,) + periods)
        lat = tuple(range(1, 1 + len(periods)))
        def J(x):
            return site_energies(potential, x).sum(axis=lat)
        lhs = J(np.maximum(u, v)) + J(np.minimum(u, v))
        rhs = J(u) + J(v)
        worst = float(np.min(rhs - lhs))
        return worst + SUBMODULARITY_TOL, "min margin %g" % worst

    def gradient_fd(rng):
        count = min(trials, 25)
        u = rng.uniform(-1.0, 2.0, size=(count,) + periods)
        g = system.grad(u)
        gfd = central_differences(system.energy, u, axes=len(periods))
        rel = np.abs(g - gfd) / (1.0 + np.abs(gfd))
        worst = float(rel.max())
        return FD_REL_TOL - worst, "max rel err %g" % worst

    def flow_comparison(rng):
        a = _smooth_box_fields(system, rng, trials, box)
        b = _smooth_box_fields(system, rng, trials, box)
        u = np.minimum(a, b)
        v = np.maximum(a, b) - u + 0.01 * box  # strictly ordered pair gap
        # track the pair difference as its own variable: the contraction rate
        # within one basin is far below double subtraction resolution, and
        # the difference dynamics freezes at a tiny positive value instead of
        # cancelling to zero
        def rhs(u, v):
            g1 = system.grad(u)
            g2 = system.grad(u + v)
            return -g1, -(g2 - g1)
        dt = params.dt if params.dt is not None else system.dt_safe
        t, target = 0.0, 1.0
        while t < target - 1e-15:
            h = min(dt, target - t)
            k1u, k1v = rhs(u, v)
            k2u, k2v = rhs(u + 0.5 * h * k1u, v + 0.5 * h * k1v)
            k3u, k3v = rhs(u + 0.5 * h * k2u, v + 0.5 * h * k2v)
            k4u, k4v = rhs(u + h * k3u, v + h * k3v)
            u = u + (h / 6) * (k1u + 2 * k2u + 2 * k3u + k4u)
            v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            t += h
        worst = float(v.min())
        return worst, "min sitewise gap %g" % worst

    def strong_comparison(rng):
        seeds = _smooth_box_fields(system, rng, max(4, trials // 10), box)
        x, _, ok = flow(system, seeds, params)
        if not ok:
            raise FkSaddleError("probe flows did not converge")
        flats = x.reshape(len(seeds), -1)
        worst = math.inf
        pairs = 0
        for i in range(len(seeds)):
            for j in range(len(seeds)):
                d = flats[j] - flats[i]
                if np.all(d >= -STRICT_ORDER_TOL) and np.max(np.abs(d)) > 1e-8:
                    pairs += 1
                    worst = min(worst, float(d.min()))
        if pairs == 0:
            return 0.0, "no ordered stationary pairs found"
        return worst, "%d ordered pairs, min gap %g" % (pairs, worst)

    def energy_decrease(rng):
        seeds = _smooth_box_fields(system, rng, min(trials, 20), box)
        fp = params.with_(t_max=2.0, run_to_t_max=True)
        _, trace, _ = flow(system, seeds, fp)
        es = np.stack(trace.energies)
        worst = float(np.max(np.diff(es, axis=0)))
        return ENERGY_INCREASE_TOL - worst, "max step increase %g" % worst

    def box_invariance(rng):
        seeds = _smooth_box_fields(system, rng, min(trials, 20), box)
        fp = params.with_(t_max=1.0, run_to_t_max=True)
        x, _, _ = flow(system, seeds, fp)
        excursion = max(float(np.max(-x)), float(np.max(x - box)))
        return BOX_INVARIANCE_TOL - excursion, "max excursion %g" % excursion

    def clip_decrease(rng):
        u = rng.uniform(-0.75, 1.75, size=(trials,) + periods) * box
        clipped = np.clip(u, 0.0, box)
        rise = float(np.max(system.energy(clipped) - system.energy(u)))
        return CLIP_ENERGY_TOL - rise, "max energy rise under clip %g" % rise

    def endpoint_fixity(rng):
        path = build_initial_path("linear", 9, None, gap, periods)
        nodes = path.nodes.copy()
        before = (nodes[0].copy(), nodes[-1].copy())
        for _ in range(25):
            nodes[1:-1], _ = rk4_step(system, nodes[1:-1], system.dt_safe)
        drift = max(float(np.max(np.abs(nodes[0] - before[0]))),
                    float(np.max(np.abs(nodes[-1] - before[1]))))
        return -drift if drift > 0 else 0.0, "endpoint drift %g" % drift

    def scaling(rng):
        if len(periods) != 2:
            return 0.0, "scaling list defined for dimension 2 only"
        c0 = minimize_periodic(potential, (1, 1),
                               [gap.v0.values.flat[0]], params).c0p
        worst = 0.0
        for p in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
            res = minimize_periodic(
                potential, p,
                [TorusField.constant(p, gap.v0.values.flat[0]),
                 TorusField.constant(p, gap.w0.values.flat[0])], params)
            worst = max(worst, abs(res.c0p - math.prod(p) * c0) / math.prod(p))
        return SCALING_TOL - worst, "max scaled error %g" % worst

    checks = [("submodularity", submodularity),
              ("gradient-fd", gradient_fd),
              ("flow-comparison", flow_comparison),
              ("strong-comparison", strong_comparison),
              ("energy-decrease", energy_decrease),
              ("box-invariance", box_invariance),
              ("clip-decrease", clip_decrease),
              ("endpoint-fixity", endpoint_fixity),
              ("scaling", scaling)]
    for idx, (name, fn) in enumerate(checks):
        run(idx, name, fn)
    return reports


# ---------------------------------------------------------------------------
# three-way cross check
# ---------------------------------------------------------------------------

@dataclass
class CrossCheckReport:
    node_flow: float
    heat_flow: float
    oracle: dict               # resolution -> bottleneck value
    grid_max: float
    grid_max_at: tuple
    tolerance: float
    deltas: dict = field(default_factory=dict)
    agree: bool = False


def cross_check_mountain_pass(potential: SitePotential, gap: GapPair | None = None,
                              resolutions=(ORACLE_RESOLUTION,),
                              params: FlowParams | None = None,
                              N: int = 65, seed: int = 0,
                              tolerance: float = CROSS_CHECK_TOL) -> CrossCheckReport:
    """Compare node-flow, heat-flow, and the bottleneck oracle on p = (2, 1)."""
    if potential.n != 2:
        raise FkSaddleError("cross check is defined for model dimension 2")
    params = params or FlowParams()
    if gap is None:
        gap = find_gap_pair(potential, (1, 1), seed=seed, params=params)
    gap = require_gap(gap)
    path0 = build_initial_path("chi", N, 2, gap, (2, 1))
    node = mountain_pass(potential, gap, path0, params, mode="node-flow")
    heat = mountain_pass(potential, gap, path0, params, mode="heat-flow")
    oracle = {}
    grid_max, grid_at = math.nan, (math.nan, math.nan)
    for res in resolutions:
        grid = OracleGrid2D.build(potential, gap, res)
        oracle[res] = bottleneck_minimax_2d(grid)
        grid_max, grid_at = grid.grid_max()
    finest = oracle[max(oracle)]
    deltas = {
        "node-heat": abs(node.value - heat.value),
        "node-oracle": abs(node.value - finest),
        "heat-oracle": abs(heat.value - finest),
    }
    return CrossCheckReport(
        node_flow=node.value, heat_flow=heat.value, oracle=oracle,
        grid_max=grid_max, grid_max_at=grid_at, tolerance=tolerance,
        deltas=deltas, agree=bool(max(deltas.values()) <= tolerance))
