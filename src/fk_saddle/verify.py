"""Independent oracles and the cross-cutting property suite.

The minimax solvers are checked against a genuinely independent computation:
on a two-site torus every field in the order box is a point (a, b) of
[0, hi]^2, the energy is a closed two-variable landscape, and the minimax
over paths is the bottleneck (widest-path) value over the 8-connected grid
graph, read off the fixed point of Gauss-Seidel sweeps of the
minimax-distance field.  The oracle evaluates a certified narrow band only:
Taylor bounds at block centres (with the model's Lipschitz bound) bracket the
answer, blocks certainly below the bracket hold its low end and blocks
certainly above it are walls, and the answer and every evaluated cell are
checked against those bounds.  Only the band is stored, and the sweep costs
what the band costs: blocks not holding one value are packed side by side,
the only cells swept, and each connected set of blocks holding one value is
one node.  ``sample_landscape`` evaluates every cell.

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
                       ORACLE_BOUND_SLACK, ORACLE_RESOLUTION, SCALING_TOL,
                       STRICT_ORDER_TOL, SUBMODULARITY_TOL)
from .fields import FkSaddleError
from .model import SitePotential, central_differences, site_energies
from .mpp import best_mountain_pass
from .periodic import GapPair, find_gap_pair, minimize_periodic, require_gap
from .semiflow import FlowParams, flow, rk4_step

ORACLE_BATCH = 2048            # states per energy call of the oracle; larger batches fall out of cache


# ---------------------------------------------------------------------------
# the two-variable oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleGrid2D:
    """The reduced two-variable landscape on a certified narrow band.

    Cell (ia, ib) of the grid stands for I at the offsets (a, b) = (ia, ib)
    hi / (R - 1) of the order box [0, hi]^2.  The grid is cut into blocks of
    ``ORACLE_BLOCK``^2 cells, each bounded by its centre's Taylor expansion;
    the bottlenecks of the block bounds give the ``bracket`` [Lb, U] of the
    answer.  A block bounded above by less than Lb holds Lb; a block bounded
    below by more than U is a wall holding the largest block upper bound,
    finite and above every energy of the grid; every other cell holds its
    exact energy (``evaluated`` of them).  Each cell stays on its side of
    every level in [Lb, U], so the min-max, which lies there, is the dense
    grid's bit for bit.  Only the band is stored: ``fill[i, j]`` is the
    value every cell of block (i, j) holds, NaN for a block with evaluated
    cells, and ``packed[k]`` holds the ``ORACLE_BLOCK``^2 cells of the k-th
    NaN block of ``fill`` in row-major order (a ragged last block repeats
    its edge cells); the sweep takes a connected set of equal filled blocks
    as one node and visits the others' cells only.  A hand-built grid holds
    ``values``, a dense array of any shape, and is one block of evaluated
    cells, with no bracket and ``evaluated``, ``fill`` and ``packed`` None.
    """

    resolution: int
    values: np.ndarray | None = None
    bracket: tuple = (-math.inf, math.inf)
    evaluated: int | None = None
    fill: np.ndarray | None = field(default=None, init=False)
    packed: np.ndarray | None = field(default=None, init=False)

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
        blocks = len(first)
        lower, upper = np.empty((blocks, blocks)), np.empty((blocks, blocks))
        step = max(1, ORACLE_BATCH // blocks)
        for lo in range(0, blocks, step):
            rows = slice(lo, lo + step)
            centres = _offset_fields(ca[rows, None], cb)
            energy, grad = system.energy(centres), system.grad(centres)
            spread = (np.abs(grad[..., 0, 0]) * ra[rows] + np.abs(grad[..., 1, 0]) * rb
                      + L * (ra[rows] ** 2 + rb ** 2) / 2
                      + ORACLE_BOUND_SLACK * (1.0 + np.abs(energy)))
            lower[rows], upper[rows] = energy - spread, energy + spread
        Lb = bottleneck_minimax_2d(OracleGrid2D(blocks, lower))
        U = bottleneck_minimax_2d(OracleGrid2D(blocks, upper))
        wall = lower > U
        active = ~wall & (upper >= Lb)
        I, J = np.nonzero(active)
        a, b = _block_cells(I, resolution), _block_cells(J, resolution)
        packed = np.empty((len(I), ORACLE_BLOCK, ORACLE_BLOCK))
        per = max(1, ORACLE_BATCH // ORACLE_BLOCK ** 2)
        for lo in range(0, len(I), per):
            k = slice(lo, lo + per)
            e = system.energy(_offset_fields(ga[a[k], None], gb[b[k]][:, None]))
            low = lower[I[k], J[k]][:, None, None]
            high = upper[I[k], J[k]][:, None, None]
            outside = (e < low) | (e > high)
            if np.any(outside):
                n, i, j = np.unravel_index(np.argmax(outside), e.shape)
                raise FkSaddleError(
                    "oracle block bound violated: I = %r at (a, b) = (%r, %r) "
                    "outside [%r, %r]; the Lipschitz bound L = %r is likely "
                    "too small" % (float(e[n, i, j]), float(ga[a[lo + n, i]]),
                                   float(gb[b[lo + n, j]]), float(low[n, 0, 0]),
                                   float(high[n, 0, 0]), L))
            packed[k] = e
        size = last - first + 1
        grid = OracleGrid2D(resolution=resolution, bracket=(Lb, U),
                            evaluated=int(np.sum(size[I] * size[J])))
        grid.fill = np.where(active, np.nan, np.where(wall, upper.max(), Lb))
        grid.packed = packed
        return grid


def _block_cells(blocks, n, size=ORACLE_BLOCK):
    """The indices along one axis of ``n`` cells of the ``size`` cells of
    each of ``blocks``; a ragged last block repeats its edge cell, which
    opens no new path."""
    return np.minimum(blocks[:, None] * size + np.arange(size), n - 1)


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
    rows = max(1, ORACLE_BATCH // resolution)
    for lo in range(0, resolution, rows):
        values[lo:lo + rows] = system.energy(_offset_fields(ga[lo:lo + rows, None], gb))
    ia, ib = np.unravel_index(np.argmax(values), values.shape)
    return (ga, gb), values, float(values[ia, ib]), (float(ga[ia]), float(gb[ib]))


def _sweeper(D, V):
    """A sweep of the haloed blocks ``D[k]``, all blocks at once: Gauss-Seidel
    passes down, up, right and left over their interiors, each row (column)
    taking max(V, min(itself, its 3 neighbours in the row before)).  Calling
    it runs the four passes and returns whether D changed."""
    steps = []
    for d, v in ((D, V), (D.transpose(0, 2, 1), V.transpose(0, 2, 1))):
        n, row = v.shape[1], np.empty(v.shape[::2])
        for i, step in [(i, 1) for i in range(1, n + 1)] + [(i, -1) for i in range(n, 0, -1)]:
            prev = d[:, i - step]
            steps.append((d[:, i, 1:-1], prev[:, :-2], prev[:, 1:-1], prev[:, 2:],
                          v[:, i - 1], row))

    def sweep():
        changed = False
        for cur, left, mid, right, v, row in steps:
            # max(V, min(cur, x)) = min(cur, max(V, x)), as V <= cur
            np.minimum(left, mid, out=row)
            np.minimum(row, right, out=row)
            np.maximum(v, row, out=row)
            if changed or (row < cur).any():
                np.minimum(cur, row, out=cur)
                changed = True
        return changed
    return sweep


def _components(fill):
    """Label the 8-connected sets of equal nodes (not NaN) of ``fill`` by
    union-find over the runs of equal nodes along its rows.  Returns each
    entry's component (-1 off the nodes), the components' values and the
    pairs (u, w) of touching components of different values, both ways."""
    f = np.pad(fill, ((0, 0), (0, 1)), constant_values=np.nan).ravel()
    node, K = ~np.isnan(f), fill.shape[1] + 1
    head = node & np.r_[True, f[1:] != f[:-1]]
    s, e = np.flatnonzero(head), np.flatnonzero(node & np.r_[f[:-1] != f[1:], True])
    # the runs of the next row touching [s, e] end at s - 1 or later and start at e + 1 or sooner
    lo = np.searchsorted(e, s + K - 1)
    n = np.searchsorted(s, e + K + 1, "right") - lo
    a = np.repeat(np.arange(len(s)), n)
    b = np.arange(len(a)) + np.repeat(lo + n - np.cumsum(n), n)
    same = f[s[a]] == f[s[b]]
    root, ja, jb = np.arange(len(s)), a[same], b[same]
    while np.any(root[ja] != root[jb]):
        np.minimum.at(root, np.maximum(root[ja], root[jb]), np.minimum(root[ja], root[jb]))
        while np.any(root[root] != root):
            root = root[root]
    top, run = np.unique(root, return_inverse=True)
    comp = np.full(len(f), -1, np.int32)
    comp[node] = run[np.cumsum(head)[node] - 1]
    side = np.flatnonzero(s[1:] == e[:-1] + 1)
    u, w = np.r_[a[~same], side], np.r_[b[~same], side + 1]
    return comp.reshape(-1, K)[:, :-1], f[s[top]], (run[np.r_[u, w]], run[np.r_[w, u]])


def bottleneck_minimax_2d(grid: OracleGrid2D) -> float:
    """Exact minimax over 8-connected grid paths between opposite corners.

    D(x), the least path maximum from (0, 0) to x, is the unique fixed point
    of D = max(values, min of D over the 3x3 neighbourhood) with
    D(0, 0) = values(0, 0).  D is constant on a connected set of equal
    values, so each component of equal filled blocks is one node; the other
    blocks are packed with a one-cell halo.  A round fills the halos from the
    neighbouring cells and nodes (+inf off the grid), sweeps every packed
    block at once, lowers each node by its adjacent packed cells and then
    by the touching nodes of other values until none moves.  Rounds from
    D = inf only lower D and never below the true field, so the first round
    that changes nothing stops on it exactly, and the answer is one of the
    grid's own samples.  It must lie in the grid's certified bracket.
    """
    values = grid.values
    if values is None:
        R = C = grid.resolution
        (br, bc), fill = (ORACLE_BLOCK, ORACLE_BLOCK), grid.fill
    elif grid.fill is None:
        (R, C), (br, bc), fill = values.shape, values.shape, np.full((1, 1), np.nan)
    else:
        (R, C), (br, bc), fill = values.shape, (ORACLE_BLOCK, ORACLE_BLOCK), grid.fill
    nodes = ~np.isnan(fill)
    I, J = (i.astype(np.int32) for i in np.nonzero(~nodes))
    V = grid.packed if values is None else values[
        _block_cells(I, R, br)[:, :, None], _block_cells(J, C, bc)[:, None]]
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(fill[nodes]))):
        raise FkSaddleError("oracle grid has non-finite values")
    slot, level, (u, w) = _components(fill)

    # one buffer, int32-indexed: the packed blocks, one slot per node, +inf
    S = (br + 2) * (bc + 2)
    size = len(I) * S
    E = np.full(size + len(level) + 1, np.inf)
    P, N = E[:size].reshape(len(I), br + 2, bc + 2), E[size:-1]
    slot += np.int32(size)
    slot[~nodes] = np.arange(len(I)) * S

    def at(a, b):
        """The index into E of the state of cell (a, b)."""
        ia, ib = a // br, b // bc
        inner = (a - ia * br + 1) * (bc + 2) + b - ib * bc + 1
        return slot[ia, ib] + np.where(nodes[ia, ib], 0, inner)

    ri, rj = (i.astype(np.int32) for i in
              np.nonzero(np.pad(np.zeros((br, bc), bool), 1, constant_values=True)))
    a, b = I[:, None] * br + ri - 1, J[:, None] * bc + rj - 1
    inside = (a >= 0) & (a < R) & (b >= 0) & (b < C)
    a, b = np.clip(a, 0, R - 1), np.clip(b, 0, C - 1)
    src = np.where(inside, at(a, b), len(E) - 1)
    start, end = at(0, 0), at(R - 1, C - 1)
    dst = np.arange(len(I), dtype=np.int32)[:, None] * S + ri * (bc + 2) + rj
    # each node against the packed cells next to the halo cells it fills
    k, h = np.nonzero(inside & nodes[a // br, b // bc])
    del a, b, inside, slot
    near, cell = [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ni, nj = ri[h] + di, rj[h] + dj
            ok = (ni >= 1) & (ni <= br) & (nj >= 1) & (nj <= bc)
            near.append(src[k[ok], h[ok]] - size)
            cell.append(k[ok].astype(np.int32) * S + ni[ok] * (bc + 2) + nj[ok])
    del k, h, ni, nj, ok
    near, cell = np.concatenate(near), np.concatenate(cell)
    cell = cell[np.argsort(near)]
    count = np.bincount(near, minlength=len(level))
    targets = np.flatnonzero(count)
    starts = (np.cumsum(count) - count)[targets]

    fine = _sweeper(P, V)
    E[start] = fill[0, 0] if nodes[0, 0] else V[0, 0, 0]
    changed = True
    while changed:
        E[dst] = E[src]
        changed = fine()
        low = np.maximum(level[targets], np.minimum.reduceat(E[cell], starts))
        changed |= (low < N[targets]).any()
        N[targets] = np.minimum(N[targets], low)
        moved = True
        while moved:
            low = np.maximum(level[u], N[w])
            moved = (low < N[u]).any()
            np.minimum.at(N, u, low)
            changed |= moved
    value = float(E[end])
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
    seeds = [gap.v0.flat[0], gap.w0.flat[0]]
    return minimize_periodic(potential, periods, seeds, params).c0p


def _fallback_gap(potential: SitePotential, periods) -> GapPair:
    """Constant-scan gap for models whose random flows diverge."""
    ones = (1,) * len(periods)
    cs = np.linspace(0.0, 1.0, 512, endpoint=False)
    cfg = np.repeat(cs[:, None], potential.nball, axis=1)
    es = potential.energy(cfg)
    c = float(cs[int(np.argmin(es))])
    v0 = np.full(ones, c)
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
        dt = min(0.5 * system.dt_safe, params.dt or math.inf)
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
        x, _, res = flow(system, seeds, params)
        if not res <= params.stationarity_tol:
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
        # the flow's own Euler steps to t = 2, unguarded, so that a rise is
        # measured rather than raised
        x = _smooth_box_fields(system, rng, min(trials, 20), box)
        dt, t, worst = params.resolve_dt(system), 0.0, -math.inf
        energy = system.energy(x)
        for _ in range(params.max_steps):
            if t >= 2.0 - 1e-15:
                break
            step = min(dt, 2.0 - t)
            x, _ = rk4_step(system, x, step)
            e_new = system.energy(x)
            worst = max(worst, float(np.max(e_new - energy)))
            energy, t = e_new, t + step
        return ENERGY_INCREASE_TOL - worst, "max step increase %g" % worst

    def box_invariance(rng):
        seeds = _smooth_box_fields(system, rng, min(trials, 20), box)
        x, _, _ = flow(system, seeds, params.with_(t_max=1.0, stationarity_tol=0.0))
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
                               [gap.v0.flat[0]], params).c0p
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
    band: dict = field(default_factory=dict)   # resolution -> the grid's band


def cross_check_mountain_pass(potential: SitePotential, gap: GapPair,
                              resolutions=(ORACLE_RESOLUTION,),
                              params: FlowParams | None = None) -> CrossCheckReport:
    """Compare node-flow, heat-flow, and the bottleneck oracle on p = (2, 1)."""
    if potential.n != 2:
        raise FkSaddleError("cross check is defined for model dimension 2")
    params = params or FlowParams()
    gap = require_gap(gap)
    node = best_mountain_pass(potential, gap, (2, 1), params, mode="node-flow")
    heat = best_mountain_pass(potential, gap, (2, 1), params, mode="heat-flow")
    oracle, band = {}, {}
    for res in resolutions:
        grid = OracleGrid2D.build(potential, gap, res)
        oracle[res] = bottleneck_minimax_2d(grid)
        constant = int(np.count_nonzero(~np.isnan(grid.fill)))
        band[res] = {"bracket": list(grid.bracket), "evaluated": grid.evaluated,
                     "constant_blocks": constant,
                     "packed_blocks": grid.fill.size - constant}
    finest = oracle[max(oracle)]
    deltas = {
        "node-heat": abs(node.value - heat.value),
        "node-oracle": abs(node.value - finest),
        "heat-oracle": abs(heat.value - finest),
    }
    return CrossCheckReport(
        node_flow=node.value, heat_flow=heat.value, oracle=oracle,
        tolerance=CROSS_CHECK_TOL, deltas=deltas,
        agree=bool(max(deltas.values()) <= CROSS_CHECK_TOL), band=band)
