"""Lattice systems, periodic minimizers and gap pairs.

The torus energy of a p-periodic field is the sum of the shifted local
energies over one fundamental cell,

    J(u) = sum_{j in T_p} S_j(u),

and the energy relative to a reference minimizer v0 is I(u) = J(u + v0);
``PeriodicSystem`` evaluates I, its gradient and its Hessian on raw arrays,
as ``StripSystem`` does for ``hetero``'s renormalized energy on a strip
window; the torus is the frame-less case of the one ``LatticeSystem``.
Minimizing J over the torus recovers the ground energy c0p = prod(p) * c0 and
the ground states (``polish_limits`` Newton-finishes each distinct flowed
limit once, on the torus and the strip alike); between two adjacent ground
states lo < hi there is a gap, and everything downstream (mountain passes,
heteroclinics) lives inside the order box [0, hi - lo] around lo, which
``GapPair.order_box`` builds for every solver on both geometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .defaults import (DEDUP_TOL, GAP_PROBES, MINIMIZE_GRID_SEEDS,
                       MINIMIZE_RANDOM_SEEDS, MINIMIZER_ENERGY_MARGIN,
                       POLISH_MAX_ITER, POLISH_TOL, STATIONARITY_TOL,
                       STRICT_ORDER_TOL)
from .fields import (FkSaddleError, PeriodError, WindowError, stencil, tile,
                     validate_periods)
from .model import SitePotential
from .semiflow import flow_to_stationarity, refine_critical


class NoGapError(FkSaddleError):
    """Raised by ``find_gap_pair`` and ``hetero.find_gap_pair_hetero`` where
    they find no adjacent pair; the message names the reason."""


class LatticeSystem:
    """``grad`` and ``hess_matrix`` of the total field on a state ``shape``:
    the torus, or with ``tails`` the strip; subclasses sum the energy."""

    def __init__(self, potential, shape, base, margin=0, tails=None):
        self.potential = potential
        self.shape = shape
        self.base = np.zeros(shape) if base is None else tile(base, shape)
        self.tails = tails
        self.lattice_ndim = potential.n
        self.dt_safe = potential.dt_safe()
        self.stencil = stencil(potential.ball, shape, margin)

    def total(self, x, margin=None):
        """The field ``base + x``, on the strip with ``margin`` layers of each
        tail on its side (default: the stencil's ``2 r`` ghost layers)."""
        if self.tails is None:
            return x + self.base
        m = self.stencil.ghosts if margin is None else margin
        L, rest = self.shape[0], self.shape[1:]
        out = np.empty(x.shape[:x.ndim - len(self.shape)] + (L + 2 * m,) + rest)
        layers = (slice(None),) * len(rest)
        out[(Ellipsis, slice(None, m)) + layers] = self.tails[0]
        np.add(x, self.base, out=out[(Ellipsis, slice(m, m + L)) + layers])
        out[(Ellipsis, slice(m + L, None)) + layers] = self.tails[1]
        return out

    def grad(self, x):
        return self.stencil.residual(self.potential, self.total(x))

    def hess_matrix(self, x):
        """Hessian at x, block-tridiagonal in groups of layers (one dense
        block on the torus, rows in C order of the cell)."""
        return self.stencil.banded_hessian(self.potential, self.total(x))


class PeriodicSystem(LatticeSystem):
    """I(u) = J(u + v0) on the torus ``periods``, ``base`` v0 tiled to them
    (zero when absent): the lattice without a frame."""

    def __init__(self, potential: SitePotential, periods, base=None):
        periods = validate_periods(periods)
        if len(periods) != potential.n:
            raise PeriodError("periods %r do not match model dimension %d"
                              % (periods, potential.n))
        super().__init__(potential, periods, base)
        self._lattice_axes = tuple(range(-len(periods), 0))

    def energy(self, x):
        return self.stencil.energies(self.potential, self.total(x)).sum(
            axis=self._lattice_axes)

    grad = LatticeSystem.grad
    hess_matrix = LatticeSystem.hess_matrix


class StripSystem(LatticeSystem):
    """The renormalized energy on the strip window of ``2W+1`` layers with
    transverse periods ``q``, between the Dirichlet tails ``left`` and
    ``right``: constants, or one layer ``(1,) + q`` each
    (:meth:`GapPair.frame`); any other shape is a ``WindowError``."""

    def __init__(self, potential: SitePotential, q, half_width: int,
                 left, right, c0: float, base=None):
        self.q = validate_periods(q) if len(tuple(q)) else ()
        if potential.n != 1 + len(self.q):
            raise WindowError("transverse periods %r do not match dimension %d"
                              % (self.q, potential.n))
        self.half_width = int(half_width)
        if self.half_width < 0:
            raise WindowError("window half-width must be >= 0, got %d" % self.half_width)
        self.L = 2 * self.half_width + 1
        self.c0 = float(c0)
        tails = tuple(np.asarray(t, dtype=float) for t in (left, right))
        for t in tails:
            if t.ndim and t.shape != (1,) + self.q:
                raise WindowError("a strip tail is a scalar or one layer of shape %r, "
                                  "not an array of shape %r" % ((1,) + self.q, t.shape))
        super().__init__(potential, (self.L,) + self.q, base, potential.r, tails)

    def layer_energies(self, x):
        """Renormalized per-layer sums over layers [-W-r, W+r]."""
        e = self.stencil.energies(self.potential, self.total(x)) - self.c0
        taxes = tuple(range(e.ndim - len(self.q), e.ndim))
        return e.sum(axis=taxes) if taxes else e

    def energy(self, x):
        return self.layer_energies(x).sum(axis=-1)

    grad = LatticeSystem.grad
    hess_matrix = LatticeSystem.hess_matrix


# ---------------------------------------------------------------------------
# minimization and gap detection
# ---------------------------------------------------------------------------

@dataclass
class MinimizeResult:
    best: np.ndarray
    c0p: float
    limits: list           # deduplicated stationary limits, lift-normalized
    energies: list         # energies of the deduplicated limits
    iterations: int


def match(X, reps, tol):
    """For each state of the batch ``X``, the index of the first
    representative in ``reps`` within ``tol`` of it (l-inf), or -1."""
    if not len(reps):
        return np.full(len(X), -1)
    dist = np.abs(X.reshape(len(X), 1, -1) - np.reshape(reps, (1, len(reps), -1)))
    near = dist.max(axis=2) <= tol
    return np.where(near.any(axis=1), near.argmax(axis=1), -1)


def _dedup(fields, energies):
    """Lift-normalize (subtract the integer that puts the value at site 0
    into [0, 1)), then merge fields within l-inf distance DEDUP_TOL."""
    out, out_e = [], []
    for f, e in zip(fields, energies):
        nf = f - math.floor(f.flat[0])
        if match(nf[None], out, DEDUP_TOL)[0] < 0:
            out.append(nf)
            out_e.append(e)
    order = np.argsort([g.flat[0] for g in out], kind="stable")
    return [out[i] for i in order], [out_e[i] for i in order]


def polish_limits(system, x, tol: float) -> list:
    """The distinct limits of a flowed batch ``x``, Newton-finished once each.

    A state within l-inf DEDUP_TOL of a limit already kept is skipped; the
    others are polished to POLISH_TOL (flow-tolerance errors in ground states
    would leak into every downstream box and strip tail), and one whose
    Newton stalls above the flow's ``tol`` is dropped.
    """
    kept = []
    for xi in x:
        if match(xi[None], kept, DEDUP_TOL)[0] >= 0:
            continue
        xr, res_inf, ok = refine_critical(system, xi, POLISH_TOL, POLISH_MAX_ITER)
        if ok or res_inf <= tol:
            kept.append(xr)
    return kept


def minimize_periodic(potential: SitePotential, periods, seeds,
                      tol: float = STATIONARITY_TOL) -> MinimizeResult:
    """Flow every seed to stationarity and keep the lowest-energy limit.

    Seeds are floats (constant fields) or arrays of shape ``periods``.  The
    distinct flowed limits are Newton-polished once each
    (:func:`polish_limits`), then lift-normalized and deduplicated by l-inf
    distance.
    """
    periods = validate_periods(periods)
    if not seeds:
        raise FkSaddleError("minimize_periodic needs at least one seed")
    try:
        x0 = np.stack([np.broadcast_to(np.asarray(s, dtype=float), periods)
                       for s in seeds])
    except ValueError:
        raise PeriodError("seeds must be floats or arrays of shape %r" % (periods,))
    system = PeriodicSystem(potential, periods)
    x, steps = flow_to_stationarity(system, x0, tol)
    # every flowed state is stationary, so polishing drops none of them
    limits = polish_limits(system, x, tol)
    energies = [float(system.energy(f)) for f in limits]
    fields, es = _dedup(limits, energies)
    best_i = int(np.argmin(es))
    return MinimizeResult(best=fields[best_i], c0p=float(es[best_i]),
                          limits=fields, energies=es,
                          iterations=steps)


@dataclass
class GapPair:
    """Two adjacent ordered states lo < hi and the probe evidence for
    adjacency: ground states on the torus, or kinks on a strip window whose
    tails are the ``ground`` pair's states."""

    lo: np.ndarray
    hi: np.ndarray
    evidence: dict = field(default_factory=dict)
    ground: GapPair | None = None

    @property
    def periods(self) -> tuple:
        return self.lo.shape if self.ground is None else self.lo.shape[1:]

    def frame(self, potential: SitePotential, q):
        """The tails and ``c0`` of a strip over this ground pair: lo and hi
        tiled across the transverse periods ``q`` into one layer each, and
        the mean site energy of lo.  A pair of axis-0 period other than 1
        fills no single layer (PeriodError)."""
        if self.periods[0] != 1:
            raise PeriodError("a ground pair of axis-0 period %d does not fill "
                              "the strip's one-layer tails" % self.periods[0])
        layer = (1,) + tuple(q)
        torus = PeriodicSystem(potential, self.lo.shape)
        c0 = float(torus.energy(self.lo)) / self.lo.size
        return tile(self.lo, layer), tile(self.hi, layer), c0

    def order_box(self, potential: SitePotential, periods=None):
        """The order box on ``periods`` (default: the pair's), across which
        lo and hi are tiled: the system on offsets from lo and the box corner
        hi - lo.  ``periods`` are the torus's, or on a strip pair the
        transverse ones of the window."""
        lo, hi = self.lo, self.hi
        if periods is not None:
            periods = validate_periods(periods) if len(tuple(periods)) else ()
            shape = lo.shape[:lo.ndim - len(self.periods)] + periods
            lo, hi = tile(lo, shape), tile(hi, shape)
        if self.ground is None:
            return PeriodicSystem(potential, lo.shape, lo), hi - lo
        q = lo.shape[1:]
        return StripSystem(potential, q, lo.shape[0] // 2,
                           *self.ground.frame(potential, q), base=lo), hi - lo


def default_minimize_seeds(rng, periods):
    """The minimize seeds of the CLI and of ``find_gap_pair``: the constants
    j / 16, then 4 uniform random fields drawn from ``rng``."""
    seeds = [j / MINIMIZE_GRID_SEEDS for j in range(MINIMIZE_GRID_SEEDS)]
    for _ in range(MINIMIZE_RANDOM_SEEDS):
        seeds.append(rng.uniform(0.0, 1.0, size=periods))
    return seeds


def find_gap_pair(potential: SitePotential, periods, probes: int = GAP_PROBES,
                  seed: int = 0, tol: float = STATIONARITY_TOL):
    """Locate two adjacent global minimizers.

    Candidate pairs are consecutive lift-normalized minimizers (plus the
    integer-wrap pair).  Adjacency is certified heuristically: probe flows
    seeded on interior convex combinations and random interior fields must
    all fall back to the endpoints; a probe limit that is stationary but has
    energy above c0p does not break adjacency (it is not a minimizer) and is
    recorded in the evidence.  When no candidate qualifies it raises
    ``NoGapError`` with the count of minimizer orbits.
    """
    if probes < 1:
        raise FkSaddleError("probes must be >= 1")
    periods = validate_periods(periods)
    rng = np.random.default_rng(seed)
    res = minimize_periodic(potential, periods,
                            default_minimize_seeds(rng, periods), tol)
    mins = [(f, e) for f, e in zip(res.limits, res.energies)
            if e <= res.c0p + MINIMIZER_ENERGY_MARGIN]
    fields = [f for f, _ in mins]
    # adjacent candidates among the normalized representatives, plus the wrap
    candidates = [(fields[i], fields[i + 1]) for i in range(len(fields) - 1)]
    candidates.append((fields[-1] - 1.0, fields[0]))
    system = PeriodicSystem(potential, periods)
    for v, w in candidates:
        if np.min(w - v) <= STRICT_ORDER_TOL:
            continue  # not strictly ordered
        evidence = probe_adjacency(
            system, v, w, res.c0p, tol, probes,
            lambda: rng.uniform(0.05, 0.95, size=periods))
        evidence["minimizer_orbits"] = len(fields)
        if not evidence["distinct_interior_minimizers"]:
            return GapPair(v, w, evidence)
    raise NoGapError("no gap pair on the torus %r: %d minimizer orbits, and every "
                     "strictly ordered candidate pair has interior minimizers"
                     % (periods, len(fields)))


def probe_adjacency(system, lo, hi, level, tol, probes, draw) -> dict:
    """Probe-flow evidence that no minimizer lies strictly between lo < hi.

    Probe flows start on ``probes`` evenly spaced convex combinations of the
    two endpoint states and on ``max(2, probes // 2)`` random ones, whose
    weight ``draw()`` returns (a scalar, or one weight per site).  Each limit
    is sorted into endpoint (within DEDUP_TOL of lo or hi), interior critical
    point (energy above ``level + MINIMIZER_ENERGY_MARGIN``: stationary but
    not minimal, so adjacency holds) or interior minimizer (adjacency fails).
    """
    width = hi - lo
    fractions = [(k + 1) / (probes + 1) for k in range(probes)]
    fractions += [draw() for _ in range(max(2, probes // 2))]
    x, _ = flow_to_stationarity(
        system, np.stack([lo + f * width for f in fractions]), tol)
    interior = match(x, [lo, hi], DEDUP_TOL) < 0
    high = system.energy(x) > level + MINIMIZER_ENERGY_MARGIN
    return {"probes": len(fractions),
            "distinct_interior_minimizers": int(np.count_nonzero(interior & ~high)),
            "interior_critical_points": int(np.count_nonzero(interior & high))}
