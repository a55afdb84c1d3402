"""Independent oracles and the cross-cutting property suite.

The minimax solvers are checked against a genuinely independent computation:
on a two-site torus every field in the order box is a point (a, b) of
[0, hi]^2, the energy is a closed two-variable landscape, and the minimax
over paths is the bottleneck (widest-path) value over the 8-connected grid
graph, read off the fixed point of Gauss-Seidel sweeps of the
minimax-distance field.  The oracle evaluates a narrow band only, certified
for a window of levels: Taylor bounds at block centres, coarse to fine, send
blocks certainly below the window to its low end and blocks certainly above
it to walls, and the answer and every evaluated cell are checked against the
window and the bounds.  Only the band is stored and swept: walls are off the
grid, each connected set of low blocks is one node, and the other blocks are
packed side by side and swept while their halo falls.
``sample_landscape`` evaluates every cell.

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
                       ENERGY_INCREASE_TOL, FD_REL_TOL, GAP_PROBES, ORACLE_BLOCK,
                       ORACLE_BOUND_SLACK, ORACLE_RESOLUTION, SCALING_TOL,
                       STATIONARITY_TOL, STRICT_ORDER_TOL, SUBMODULARITY_TOL)
from .fields import FkSaddleError
from .model import SitePotential, central_differences
from .mpp import best_mountain_pass
from .periodic import GapPair, PeriodicSystem, find_gap_pair, minimize_periodic
from .semiflow import flow, flow_to_stationarity, rk4_step

ORACLE_BATCH = 2048            # states per energy call of the oracle; larger batches fall out of cache
SWEEP_BLOCKS = 256             # blocks per sweep call, so no round copies the band


# ---------------------------------------------------------------------------
# the two-variable oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleGrid2D:
    """The reduced two-variable landscape on a narrow band certified for a
    ``window`` (lo, hi] of levels.

    Cell (ia, ib) of the ``resolution``^2 grid stands for I at the offsets
    (a, b) = (ia, ib) hi / (R - 1) of the order box [0, hi]^2.  The grid is
    cut into blocks of ``ORACLE_BLOCK``^2 cells, bounded by Taylor
    expansions at their centres and at their parents' (of twice the side).
    ``fill[i, j]`` is lo for a block bounded above by less than lo, +inf for
    a wall, bounded below by more than hi, and NaN for a block whose cells
    hold their exact energies (``evaluated`` cells in all); ``packed[k]``
    holds the cells of the k-th NaN block in row-major order (a ragged last
    block repeats its edge cells).  Each cell stays on its side of every
    level in [lo, hi], so a min-max in (lo, hi] is the dense grid's bit for
    bit.
    """

    resolution: int
    window: tuple
    fill: np.ndarray
    packed: np.ndarray
    evaluated: int

    @staticmethod
    def build(potential: SitePotential, gap: GapPair, resolution: int,
              window) -> "OracleGrid2D":
        """Evaluate only the cells that can decide a bottleneck in
        ``window``, and children's centres only in parents meeting it; an
        evaluated cell outside its block's bounds raises."""
        if resolution < 101:
            raise FkSaddleError("oracle resolution must be >= 101")
        lo, hi = map(float, window)
        if not -math.inf < lo < hi < math.inf:
            raise FkSaddleError("oracle window %r is empty or infinite" % (window,))
        system, ga, gb = _order_box_axes(potential, gap, resolution)
        L = potential.lipschitz_bound()

        def bounds(size, I, J):
            out = np.empty((2, len(I)))
            for k in range(0, len(I), ORACLE_BATCH):
                i, j = (K[k:k + ORACLE_BATCH] * size for K in (I, J))
                fa, la = ga[i], ga[np.minimum(i + size, resolution) - 1]
                fb, lb = gb[j], gb[np.minimum(j + size, resolution) - 1]
                ra, rb = (la - fa) / 2, (lb - fb) / 2
                centres = _offset_fields((fa + la) / 2, (fb + lb) / 2)
                energy, grad = system.energy(centres), system.grad(centres)
                spread = (np.abs(grad[:, 0, 0]) * ra + np.abs(grad[:, 1, 0]) * rb
                          + L * (ra ** 2 + rb ** 2) / 2
                          + ORACLE_BOUND_SLACK * (1.0 + np.abs(energy)))
                out[:, k:k + ORACLE_BATCH] = energy - spread, energy + spread
            return out

        def classify(lower, upper):
            return np.where(upper < lo, lo, np.where(lower > hi, np.inf, np.nan))

        n, m = -(-resolution // ORACLE_BLOCK), -(-resolution // (2 * ORACLE_BLOCK))
        I, J = np.divmod(np.arange(m * m), m)
        parent = bounds(2 * ORACLE_BLOCK, I, J)
        fill = classify(*parent)
        meet = np.flatnonzero(np.isnan(fill))
        fill = fill.reshape(m, m).repeat(2, 0).repeat(2, 1)[:n, :n]
        I, J = (2 * I[meet, None] + (0, 0, 1, 1)).ravel(), (2 * J[meet, None] + (0, 1, 0, 1)).ravel()
        child = (I < n) & (J < n)
        I, J, parent = I[child], J[child], parent[:, np.repeat(meet, 4)[child]]
        lower, upper = bounds(ORACLE_BLOCK, I, J)
        lower, upper = np.maximum(lower, parent[0]), np.minimum(upper, parent[1])
        fill[I, J] = classify(lower, upper)
        k = np.flatnonzero(np.isnan(fill[I, J]))
        k = k[np.argsort(I[k] * n + J[k])]
        I, J, lower, upper = I[k], J[k], lower[k], upper[k]
        a, b = _block_cells(I, resolution), _block_cells(J, resolution)
        packed = np.empty((len(I), ORACLE_BLOCK, ORACLE_BLOCK))
        per = max(1, ORACLE_BATCH // ORACLE_BLOCK ** 2)
        for c in range(0, len(I), per):
            k = slice(c, c + per)
            e = system.energy(_offset_fields(ga[a[k], None], gb[b[k]][:, None]))
            low, high = lower[k, None, None], upper[k, None, None]
            outside = (e < low) | (e > high)
            if np.any(outside):
                q, i, j = np.unravel_index(np.argmax(outside), e.shape)
                raise FkSaddleError(
                    "oracle block bound violated: I = %r at (a, b) = (%r, %r) "
                    "outside [%r, %r]; the Lipschitz bound L = %r is likely "
                    "too small" % (float(e[q, i, j]), float(ga[a[c + q, i]]),
                                   float(gb[b[c + q, j]]), float(low[q, 0, 0]),
                                   float(high[q, 0, 0]), L))
            packed[k] = e
        size = np.diff(np.minimum(np.arange(n + 1) * ORACLE_BLOCK, resolution))
        return OracleGrid2D(resolution, (lo, hi), fill, packed,
                            int(np.sum(size[I] * size[J])))


def _block_cells(blocks, n):
    """The indices along one axis of ``n`` cells of the ``ORACLE_BLOCK``
    cells of each of ``blocks``; a ragged last block repeats its edge cell,
    which opens no new path."""
    return np.minimum(blocks[:, None] * ORACLE_BLOCK + np.arange(ORACLE_BLOCK), n - 1)


def _order_box_axes(potential, gap, resolution):
    """The system on offsets from lo and the sample offsets of a and b,
    ``resolution`` each, spanning the order box [0, hi]."""
    if potential.n != 2:
        raise FkSaddleError("the 2-variable oracle needs model dimension 2")
    system, hi = gap.order_box(potential, (2, 1))
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


def _sweep(P, V, k):
    """Sweep the haloed blocks ``P[k]``, all at once: Gauss-Seidel passes
    down, up, right and left over their interiors, each row (column) taking
    max(V, min(itself, its 3 neighbours in the row before)).  Returns which
    blocks changed."""
    # blocks last, so that each row operation runs along all of them
    D, W = (A[k].transpose(1, 2, 0).copy() for A in (P, V))
    for d, v in ((D, W), (D.transpose(1, 0, 2), W.transpose(1, 0, 2))):
        n, row = v.shape[0], np.empty(v.shape[1:])
        for i, step in [(i, 1) for i in range(1, n + 1)] + [(i, -1) for i in range(n, 0, -1)]:
            prev, cur = d[i - step], d[i, 1:-1]
            # max(V, min(cur, x)) = min(cur, max(V, x)), as V <= cur
            np.minimum(prev[:-2], prev[1:-1], out=row)
            np.minimum(row, prev[2:], out=row)
            np.maximum(v[i - 1], row, out=row)
            np.minimum(cur, row, out=cur)
    D = D.transpose(2, 0, 1)
    changed = (D < P[k]).any(axis=(1, 2))
    P[k] = D
    return changed


def _components(mask):
    """Label the 8-connected sets of ``mask`` by union-find over its runs
    along the rows.  Returns each entry's label (-1 off the mask) and the
    number of labels."""
    f = np.pad(mask, ((0, 0), (0, 1))).ravel()
    K = mask.shape[1] + 1
    head = f & ~np.r_[False, f[:-1]]
    s, e = np.flatnonzero(head), np.flatnonzero(f & ~np.r_[f[1:], False])
    # the runs of the next row touching [s, e] end at s - 1 or later and start at e + 1 or sooner
    lo = np.searchsorted(e, s + K - 1)
    n = np.searchsorted(s, e + K + 1, "right") - lo
    a = np.repeat(np.arange(len(s)), n)
    b = np.arange(len(a)) + np.repeat(lo + n - np.cumsum(n), n)
    root = np.arange(len(s))
    while np.any(root[a] != root[b]):
        np.minimum.at(root, np.maximum(root[a], root[b]), np.minimum(root[a], root[b]))
        while np.any(root[root] != root):
            root = root[root]
    top, run = np.unique(root, return_inverse=True)
    label = np.full(len(f), -1, np.int32)
    label[f] = run[np.cumsum(head)[f] - 1]
    return label.reshape(-1, K)[:, :-1], len(top)


def bottleneck_minimax_2d(grid: OracleGrid2D) -> float:
    """Exact minimax over 8-connected grid paths between opposite corners.

    D(x), the least path maximum from (0, 0) to x, is the unique fixed point
    of D = max(values, min of D over the 3x3 neighbourhood) with
    D(0, 0) = values(0, 0).  Walls are off the grid: their cells read +inf,
    as cells past the edge do.  D is one value, no lower than lo, on a
    connected set of low blocks, so each is one node; the packed blocks get
    a one-cell halo.  A round fills the halos from the neighbouring cells and nodes,
    sweeps the packed blocks whose halo fell or which changed in their last
    sweep (the others are at their fixed point) and lowers each node by its
    adjacent packed cells.  Rounds from D = inf only lower D and never below
    the true field, so the first round that changes nothing stops on it
    exactly, and the answer is one of the grid's own samples.  It must lie in
    the grid's window, where no path enters a wall; a band holding any other
    layout than ``OracleGrid2D.build``'s raises.
    """
    (lo, hi), fill, V, R = grid.window, grid.fill, grid.packed, grid.resolution
    B, n = ORACLE_BLOCK, -(-R // ORACLE_BLOCK)
    packed, low = np.isnan(fill), fill == lo
    bad = ~(packed | low | (fill == np.inf))
    if np.any(bad):
        raise FkSaddleError("oracle band holds a block of %r: a block holds lo = %r, "
                            "+inf or NaN" % (float(fill[bad][0]), lo))
    I, J = (i.astype(np.int32) for i in np.nonzero(packed))
    if fill.shape != (n, n) or V.shape != (len(I), B, B):
        raise FkSaddleError("oracle band at resolution %d needs fill %r and packed "
                            "%r, got %r and %r" % (R, (n, n), (len(I), B, B),
                                                   fill.shape, V.shape))
    if not np.all(np.isfinite(V)):
        raise FkSaddleError("oracle grid has non-finite values")
    slot, nodes = _components(low)

    # one buffer, int32-indexed: the packed blocks, one slot per node, +inf
    S = (B + 2) ** 2
    size = len(I) * S
    E = np.full(size + nodes + 1, np.inf)
    P, N = E[:size].reshape(len(I), B + 2, B + 2), E[size:-1]
    slot = np.where(low, slot + np.int32(size), np.int32(len(E) - 1))
    slot[packed] = np.arange(len(I)) * S

    def at(a, b):
        """The index into E of the state of cell (a, b)."""
        ia, ib = a // B, b // B
        inner = (a - ia * B + 1) * (B + 2) + b - ib * B + 1
        return slot[ia, ib] + np.where(packed[ia, ib], inner, 0)

    ri, rj = (i.astype(np.int32) for i in
              np.nonzero(np.pad(np.zeros((B, B), bool), 1, constant_values=True)))
    a, b = I[:, None] * B + ri - 1, J[:, None] * B + rj - 1
    inside = (a >= 0) & (a < R) & (b >= 0) & (b < R)
    a, b = np.clip(a, 0, R - 1), np.clip(b, 0, R - 1)
    src = np.where(inside, at(a, b), len(E) - 1)
    start, end = at(0, 0), at(R - 1, R - 1)
    halo = ri * (B + 2) + rj
    del a, b, inside, slot
    # each node against the packed cells next to the halo cells it fills
    k, h = np.nonzero((src >= size) & (src < len(E) - 1))
    near, cell = [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ni, nj = ri[h] + di, rj[h] + dj
            ok = (ni >= 1) & (ni <= B) & (nj >= 1) & (nj <= B)
            near.append(src[k[ok], h[ok]] - size)
            cell.append(k[ok].astype(np.int32) * S + ni[ok] * (B + 2) + nj[ok])
    del k, h, ni, nj, ok
    near, cell = np.concatenate(near), np.concatenate(cell)
    cell = cell[np.argsort(near)]
    count = np.bincount(near, minlength=nodes)
    targets = np.flatnonzero(count)
    starts = (np.cumsum(count) - count)[targets]

    # a wall start writes +inf to the off-grid slot, which it holds anyway
    E[start] = V[0, 0, 0] if packed[0, 0] else fill[0, 0]
    todo = np.zeros(len(I), bool)
    todo[:1] = packed[0, 0]
    flat = P.reshape(len(I), S)
    changed = True
    while changed:
        fresh = E[src]
        todo |= (fresh < flat[:, halo]).any(axis=1)
        flat[:, halo] = fresh
        del fresh
        work = np.flatnonzero(todo)
        for c in range(0, len(work), SWEEP_BLOCKS):
            k = work[c:c + SWEEP_BLOCKS]
            todo[k] = _sweep(P, V, k)
        down = np.maximum(lo, np.minimum.reduceat(E[cell], starts))
        changed = len(work) > 0 or (down < N[targets]).any()
        N[targets] = np.minimum(N[targets], down)
    value = float(E[end])
    if not lo < value <= hi:
        raise FkSaddleError("oracle bottleneck %r outside its certified window "
                            "(%r, %r]: the window or the Lipschitz bound is "
                            "wrong" % (value, lo, hi))
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


def _smooth_box_samples(system, rng, count, box):
    """Uniform box samples with one smoothing flow step applied."""
    raw = rng.uniform(0.0, 1.0, size=(count,) + box.shape) * box
    x, _ = rk4_step(system, raw, system.dt_safe)
    return np.clip(x, 0.0, box)


def minimize_c0p(potential, gap: GapPair, periods, tol: float) -> float:
    """Ground energy on the given torus, seeded from the gap endpoints."""
    seeds = [gap.lo.flat[0], gap.hi.flat[0]]
    return minimize_periodic(potential, periods, seeds, tol).c0p


def _fallback_gap(potential: SitePotential, periods) -> GapPair:
    """Constant-scan gap for models whose random flows diverge."""
    ones = (1,) * len(periods)
    cs = np.linspace(0.0, 1.0, 512, endpoint=False)
    cfg = np.repeat(cs[:, None], potential.nball, axis=1)
    es = potential.energy(cfg)
    c = float(cs[int(np.argmin(es))])
    lo = np.full(ones, c)
    return GapPair(lo, lo + 1.0, {"fallback": "constant scan"})


def run_property_suite(potential: SitePotential, periods, seed: int,
                       trials: int, tol: float = STATIONARITY_TOL,
                       gap: GapPair | None = None, probes: int = GAP_PROBES):
    """Execute every numerically checkable inequality; returns reports.

    Without a ``gap`` the suite searches the unit torus for one with
    ``probes`` adjacency probes (``find_gap_pair``'s keyword), and boxes the
    constant scan's minimizer where the search raises.  Failures are
    report rows, not exceptions; a property whose setup blows up (for
    instance on a model violating the standing assumptions) is reported
    failed with the error in the detail field.
    """
    periods = tuple(int(x) for x in periods)
    reports = []
    if trials == 0:
        return reports
    if gap is None:
        try:
            gap = find_gap_pair(potential, (1,) * len(periods), probes=probes,
                                seed=seed, tol=tol)
        except FkSaddleError:
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
        J = PeriodicSystem(potential, periods).energy
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
        a = _smooth_box_samples(system, rng, trials, box)
        b = _smooth_box_samples(system, rng, trials, box)
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
        dt, steps = 0.5 * system.dt_safe, 30
        for _ in range(steps):
            g1 = system.grad(u)
            u, v = u - dt * g1, v - dt * (system.grad(u + v) - g1)
        worst = float(v.min())
        return worst, ("min sitewise gap %g (Euler, monotone under (S3) at "
                       "dt=%g <= 1/(2 L), %d steps to t >= 15/L)"
                       % (worst, dt, steps))

    def strong_comparison(rng):
        seeds = _smooth_box_samples(system, rng, max(4, trials // 10), box)
        x, _ = flow_to_stationarity(system, seeds, tol)
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
        x = _smooth_box_samples(system, rng, min(trials, 20), box)
        dt, t, worst = system.dt_safe, 0.0, -math.inf
        energy = system.energy(x)
        while t < 2.0 - 1e-15:
            step = min(dt, 2.0 - t)
            x, _ = rk4_step(system, x, step)
            e_new = system.energy(x)
            worst = max(worst, float(np.max(e_new - energy)))
            energy, t = e_new, t + step
        return ENERGY_INCREASE_TOL - worst, "max step increase %g" % worst

    def box_invariance(rng):
        seeds = _smooth_box_samples(system, rng, min(trials, 20), box)
        x, _, _ = flow(system, seeds, 0.0, 1.0)
        excursion = max(float(np.max(-x)), float(np.max(x - box)))
        return BOX_INVARIANCE_TOL - excursion, "max excursion %g" % excursion

    def clip_decrease(rng):
        u = rng.uniform(-0.75, 1.75, size=(trials,) + periods) * box
        clipped = np.clip(u, 0.0, box)
        rise = float(np.max(system.energy(clipped) - system.energy(u)))
        return CLIP_ENERGY_TOL - rise, "max energy rise under clip %g" % rise

    def endpoint_fixity(rng):
        # every chain is pinned to the box corners 0 and hi - lo, so both
        # must be flow fixed points: critical points of I
        g = system.grad(np.stack([np.zeros_like(box), box]))
        worst = float(np.max(np.linalg.norm(g.reshape(2, -1), axis=1)))
        return tol - worst, "largest endpoint l2 residual %g" % worst

    def scaling(rng):
        if len(periods) != 2:
            return 0.0, "scaling list defined for dimension 2 only"
        c0 = minimize_periodic(potential, (1, 1),
                               [gap.lo.flat[0]], tol).c0p
        worst = 0.0
        for p in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
            c0p = minimize_c0p(potential, gap, p, tol)
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
    deltas: dict = field(default_factory=dict)
    agree: bool = False
    band: dict = field(default_factory=dict)   # resolution -> the grid's band
    failed: dict = field(default_factory=dict)  # engine -> message of a failed run


def cross_check_mountain_pass(potential: SitePotential, gap: GapPair,
                              resolutions=(ORACLE_RESOLUTION,),
                              tol: float = STATIONARITY_TOL) -> CrossCheckReport:
    """Compare node-flow, heat-flow, and the bottleneck oracle on p = (2, 1).

    The oracle is certified for node-flow's level +- CROSS_CHECK_TOL.  The
    three agree when all succeed and every pair of values lies within
    CROSS_CHECK_TOL; ``failed`` holds the message of each route that did not
    succeed (an engine's value is then only its best candidate; the oracle's
    names every resolution that failed, and its deltas are NaN when none
    succeeded).
    """
    if potential.n != 2:
        raise FkSaddleError("cross check is defined for model dimension 2")
    node = best_mountain_pass(potential, gap, (2, 1), tol, mode="node-flow")
    heat = best_mountain_pass(potential, gap, (2, 1), tol, mode="heat-flow")
    failed = {name: res.message for name, res in
              (("node-flow", node), ("heat-flow", heat)) if not res.success}
    window = (node.value - CROSS_CHECK_TOL, node.value + CROSS_CHECK_TOL)
    oracle, band, errors = {}, {}, []
    for res in resolutions:
        try:
            grid = OracleGrid2D.build(potential, gap, res, window)
            constant = int(np.count_nonzero(~np.isnan(grid.fill)))
            band[res] = {"window": list(grid.window), "evaluated": grid.evaluated,
                         "constant_blocks": constant,
                         "packed_blocks": grid.fill.size - constant}
            oracle[res] = bottleneck_minimax_2d(grid)
        except FkSaddleError as exc:
            errors.append("resolution %d: %s" % (res, exc))
    if errors:
        failed["oracle"] = "; ".join(errors)
    finest = oracle[max(oracle)] if oracle else math.nan
    deltas = {
        "node-heat": abs(node.value - heat.value),
        "node-oracle": abs(node.value - finest),
        "heat-oracle": abs(heat.value - finest),
    }
    return CrossCheckReport(
        node_flow=node.value, heat_flow=heat.value, oracle=oracle, deltas=deltas,
        agree=not failed and bool(max(deltas.values()) <= CROSS_CHECK_TOL),
        band=band, failed=failed)
