"""Independent oracles and the cross-cutting property suite.

The minimax solvers are checked against a genuinely independent computation:
on a two-site torus every field in the order box is a point (a, b) of
[0, hi]^2, the energy is a closed two-variable landscape, and the minimax
over paths is the bottleneck (widest-path) value over the 8-connected grid
graph, read off the fixed point of Gauss-Seidel row sweeps of the
minimax-distance field.  The oracle evaluates a certified narrow band only:
Taylor bounds at block centres (with the model's Lipschitz bound) bracket the
answer, blocks certainly below the bracket hold its low end and blocks
certainly above it are walls, and the answer and every evaluated cell are
checked against those bounds.  ``sample_landscape`` evaluates every cell.

The property suite replays, at desk scale, every inequality the theory
guarantees: submodularity of the local energies, order preservation and
strictness of the semiflow, strong comparison of stationary states, energy
decrease, box invariance, the clipping inequality, gradient consistency,
stationary box corners (the fixed chain endpoints), and the ground-energy
scaling law.  Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import (BOX_INVARIANCE_TOL, CLIP_ENERGY_TOL, CROSS_CHECK_TOL,
                       ENERGY_INCREASE_TOL, FD_REL_TOL, ORACLE_BLOCK,
                       ORACLE_BOUND_SLACK, ORACLE_RESOLUTION, PATH_NODES,
                       SCALING_TOL, STRICT_ORDER_TOL, SUBMODULARITY_TOL)
from .fields import FkSaddleError, TorusField
from .model import SitePotential, central_differences, site_energies
from .mpp import build_initial_path, mountain_pass
from .periodic import GapPair, find_gap_pair, minimize_periodic, require_gap
from .semiflow import FlowParams, flow, rk4_step

ORACLE_CHUNK = 64              # grid rows per block of the energy pass and the fixed-point check


# ---------------------------------------------------------------------------
# the two-variable oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleGrid2D:
    """The reduced two-variable landscape on a certified narrow band.

    ``values[ia, ib]`` stands for I at the offsets (a, b) = (ia, ib) hi /
    (R - 1) of the order box [0, hi]^2.  The grid is cut into blocks of
    ``ORACLE_BLOCK``^2 cells, each bounded by its centre's Taylor expansion;
    the bottlenecks of the block bounds give the ``bracket`` [Lb, U] of the
    answer.  A block bounded above by less than Lb holds Lb; a block bounded
    below by more than U is a wall holding the largest block upper bound,
    finite and above every energy of the grid; every other cell holds its
    exact energy (``evaluated`` of them).  Each cell stays on its side of
    every level in [Lb, U], so the min-max, which lies there, is the dense
    grid's bit for bit.  Walls above every level sweep like obstacles; walls
    at U would form a plateau below their neighbours that the sweeps must
    flood, which can cost a round.  A grid built by hand has no bracket and
    ``evaluated`` None.
    """

    resolution: int
    values: np.ndarray
    bracket: tuple = (-math.inf, math.inf)
    evaluated: int | None = None

    @staticmethod
    def build(potential: SitePotential, gap: GapPair, resolution: int) -> "OracleGrid2D":
        """Evaluate only the cells that can affect the bottleneck.

        Certificate: every evaluated cell lies inside its block's bounds, and
        :func:`bottleneck_minimax_2d` checks the answer against the bracket;
        either failure raises, naming the Lipschitz bound as the likely fault.
        """
        system, ga, gb = _order_box_axes(potential, gap, resolution)
        L = potential.lipschitz_bound()
        first = np.arange(0, resolution, ORACLE_BLOCK)
        last = np.minimum(first + ORACLE_BLOCK, resolution) - 1
        ca, cb = (ga[first] + ga[last]) / 2, (gb[first] + gb[last]) / 2
        ra, rb = ((ga[last] - ga[first]) / 2)[:, None], (gb[last] - gb[first]) / 2
        centres = _offset_fields(ca[:, None], cb)
        energy = system.energy(centres)
        grad = system.grad(centres)
        spread = (np.abs(grad[..., 0, 0]) * ra + np.abs(grad[..., 1, 0]) * rb
                  + L * (ra ** 2 + rb ** 2) / 2
                  + ORACLE_BOUND_SLACK * (1.0 + np.abs(energy)))
        lower, upper = energy - spread, energy + spread
        blocks = len(first)
        Lb = bottleneck_minimax_2d(OracleGrid2D(blocks, lower))
        U = bottleneck_minimax_2d(OracleGrid2D(blocks, upper))
        wall = lower > U
        active = ~wall & (upper >= Lb)
        fill = np.where(wall, upper.max(), Lb)
        block = np.arange(resolution) // ORACLE_BLOCK
        values = np.empty((resolution, resolution))
        evaluated = 0
        for lo in range(0, resolution, ORACLE_CHUNK):
            hi = min(lo + ORACLE_CHUNK, resolution)
            rows = block[lo:hi]
            values[lo:hi] = fill[rows][:, block]
            ia, ib = np.nonzero(active[rows][:, block])
            if not len(ia):
                continue
            e = system.energy(_offset_fields(ga[lo + ia], gb[ib]))
            ba, bb = rows[ia], block[ib]
            outside = (e < lower[ba, bb]) | (e > upper[ba, bb])
            if np.any(outside):
                k = int(np.argmax(outside))
                raise FkSaddleError(
                    "oracle block bound violated: I = %r at (a, b) = (%r, %r) "
                    "outside [%r, %r]; the Lipschitz bound L = %r is likely "
                    "too small" % (float(e[k]), float(ga[lo + ia[k]]),
                                   float(gb[ib[k]]), float(lower[ba[k], bb[k]]),
                                   float(upper[ba[k], bb[k]]), L))
            values[lo + ia, ib] = e
            evaluated += len(e)
        return OracleGrid2D(resolution=resolution, values=values,
                            bracket=(Lb, U), evaluated=evaluated)


def _order_box_axes(potential, gap, resolution):
    """The system on offsets from v0 and the sample offsets of a and b,
    ``resolution`` each, spanning the order box [0, hi]."""
    if resolution < 101:
        raise FkSaddleError("oracle resolution must be >= 101")
    if potential.n != 2:
        raise FkSaddleError("the 2-variable oracle needs model dimension 2")
    system, hi = require_gap(gap).order_box(potential, (2, 1))
    return (system, np.linspace(0.0, hi[0, 0], resolution),
            np.linspace(0.0, hi[1, 0], resolution))


def _offset_fields(a, b):
    """States on the (2, 1) torus with site offsets a and b (broadcast)."""
    x = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)) + (2, 1))
    x[..., 0, 0] = a
    x[..., 1, 0] = b
    return x


def sample_landscape(potential: SitePotential, gap: GapPair, resolution: int):
    """Every cell of the reduced landscape on the order box [0, hi]^2.

    Returns ``(a, b), values, vmax, (a_max, b_max)``: the sample offsets,
    ``values[ia, ib] = I(a[ia], b[ib])``, the grid maximum and its offsets.
    """
    system, ga, gb = _order_box_axes(potential, gap, resolution)
    values = np.empty((resolution, resolution))
    for lo in range(0, resolution, ORACLE_CHUNK):
        hi = min(lo + ORACLE_CHUNK, resolution)
        values[lo:hi] = system.energy(_offset_fields(ga[lo:hi, None], gb))
    ia, ib = np.unravel_index(np.argmax(values), values.shape)
    return (ga, gb), values, float(values[ia, ib]), (float(ga[ia]), float(gb[ib]))


def _sweep(D, values, rows, step):
    """One Gauss-Seidel pass over ``rows`` (ascending if step = 1): each row
    takes max(values, min(itself, its 3 neighbours in the previous row))."""
    prev = D[rows[0] - step].copy()
    row = np.empty_like(prev)
    for i in rows:
        np.minimum(D[i], prev, out=row)
        np.minimum(row[1:], prev[:-1], out=row[1:])
        np.minimum(row[:-1], prev[1:], out=row[:-1])
        np.maximum(values[i], row, out=row)
        D[i] = row
        prev, row = row, prev


def _settled(D, values):
    """Whether D = max(values, min of D over each 3x3 neighbourhood)."""
    R = len(D)
    for lo in range(0, R, ORACLE_CHUNK):
        hi = min(lo + ORACLE_CHUNK, R)
        block = np.pad(D[max(lo - 1, 0):hi + 1], ((lo == 0, hi == R), (1, 1)),
                       constant_values=np.inf)
        least = block[1:-1, 1:-1].copy()
        for a in range(3):
            for b in range(3):
                np.minimum(least, block[a:a + hi - lo, b:b + R], out=least)
        if not np.array_equal(D[lo:hi], np.maximum(values[lo:hi], least)):
            return False
    return True


def bottleneck_minimax_2d(grid: OracleGrid2D) -> float:
    """Exact minimax over 8-connected grid paths between opposite corners.

    D(x), the least path maximum from (0, 0) to x, is the unique fixed point
    of D = max(values, min of D over the 3x3 neighbourhood) with
    D(0, 0) = values(0, 0).  Sweeps from D = inf only lower D and never
    below the true field, so they stop on it exactly, and D(R-1, R-1) is
    one of the grid's own samples.  The answer must lie in the grid's
    certified bracket.
    """
    values = grid.values
    if not np.all(np.isfinite(values)):
        raise FkSaddleError("oracle grid has non-finite values")
    D = np.full(values.shape, np.inf)
    D[0, 0] = values[0, 0]
    while True:
        for d, v in ((D, values), (D.T, values.T)):
            _sweep(d, v, range(1, len(d)), 1)
            _sweep(d, v, range(len(d) - 2, -1, -1), -1)
        if _settled(D, values):
            break
    value = float(D[-1, -1])
    lo, hi = grid.bracket
    if not lo <= value <= hi:
        raise FkSaddleError("oracle bottleneck %r outside its certified bracket "
                            "[%r, %r]; the Lipschitz bound behind the block "
                            "bounds is likely too small" % (value, lo, hi))
    return value


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


def minimize_c0p(potential, gap: GapPair, periods, params) -> float:
    """Ground energy on the given torus, seeded from the gap endpoints."""
    seeds = [TorusField.constant(periods, gap.v0.values.flat[0]),
             TorusField.constant(periods, gap.w0.values.flat[0])]
    return minimize_periodic(potential, periods, seeds, params).c0p


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
    system, box = gap.order_box(potential, periods)

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
        # cancelling to zero.  Explicit Euler x - h grad(x) has Jacobian
        # 1 - h H: off the diagonal -h H_ij >= 0 under (S3), on it
        # 1 - h H_ii >= 1/2 for h <= 1/(2 L), as the Gershgorin row sum L
        # bounds H_ii.  The scheme is monotone, and every step keeps at least
        # half of each site's gap: run to flow time 15 / L (30 steps).
        dt = system.dt_safe if params.dt is None else min(system.dt_safe, params.dt)
        steps = math.ceil(15.0 / (potential.lipschitz_bound() * dt) - 1e-9)
        for _ in range(steps):
            g1 = system.grad(u)
            u, v = u - dt * g1, v - dt * (system.grad(u + v) - g1)
        worst = float(v.min())
        return worst, ("min sitewise gap %g (Euler, monotone under (S3) at "
                       "dt=%g <= 1/(2 L), %d steps to t >= 15/L)"
                       % (worst, dt, steps))

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
        # every chain is pinned to the box corners 0 and w0 - v0, so both
        # must be flow fixed points: critical points of I
        g = system.grad(np.stack([np.zeros_like(box), box]))
        worst = float(np.max(np.linalg.norm(g.reshape(2, -1), axis=1)))
        return (params.stationarity_tol - worst,
                "largest endpoint l2 residual %g" % worst)

    def scaling(rng):
        if len(periods) != 2:
            return 0.0, "scaling list defined for dimension 2 only"
        c0 = minimize_periodic(potential, (1, 1),
                               [gap.v0.values.flat[0]], params).c0p
        worst = 0.0
        for p in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
            c0p = minimize_c0p(potential, gap, p, params)
            worst = max(worst, abs(c0p - math.prod(p) * c0) / math.prod(p))
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
    tolerance: float
    deltas: dict = field(default_factory=dict)
    agree: bool = False


def cross_check_mountain_pass(potential: SitePotential, gap: GapPair | None = None,
                              resolutions=(ORACLE_RESOLUTION,),
                              params: FlowParams | None = None,
                              seed: int = 0) -> CrossCheckReport:
    """Compare node-flow, heat-flow, and the bottleneck oracle on p = (2, 1)."""
    if potential.n != 2:
        raise FkSaddleError("cross check is defined for model dimension 2")
    params = params or FlowParams()
    if gap is None:
        gap = find_gap_pair(potential, (1, 1), seed=seed, params=params)
    gap = require_gap(gap)
    path0 = build_initial_path("chi", PATH_NODES, None, gap, (2, 1))
    node = mountain_pass(potential, gap, path0, params, mode="node-flow")
    heat = mountain_pass(potential, gap, path0, params, mode="heat-flow")
    oracle = {res: bottleneck_minimax_2d(OracleGrid2D.build(potential, gap, res))
              for res in resolutions}
    finest = oracle[max(oracle)]
    deltas = {
        "node-heat": abs(node.value - heat.value),
        "node-oracle": abs(node.value - finest),
        "heat-oracle": abs(heat.value - finest),
    }
    return CrossCheckReport(
        node_flow=node.value, heat_flow=heat.value, oracle=oracle,
        tolerance=CROSS_CHECK_TOL, deltas=deltas,
        agree=bool(max(deltas.values()) <= CROSS_CHECK_TOL))
