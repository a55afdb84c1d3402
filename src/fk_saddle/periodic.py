"""Periodic lattice states: torus energies, the semiflow, minimizers, gaps.

The torus energy of a p-periodic field is the sum of the shifted local
energies over one fundamental cell,

    J(u) = sum_{j in T_p} S_j(u),

and the energy relative to a reference minimizer v0 is I(u) = J(u + v0).
Minimizing J over the torus recovers the ground energy c0p = prod(p) * c0 and
the ground states; between two adjacent ground states v0 < w0 there is a gap,
and everything downstream (mountain passes, heteroclinics) lives inside the
order box [0, w0 - v0] around v0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .defaults import (BOX_INTERIOR_TOL, BOX_POLISH_FACTOR, BOX_POLISH_MAX_DROP,
                       DEDUP_TOL, GAP_PROBES, MINIMIZER_ENERGY_MARGIN,
                       STRICT_ORDER_TOL)
from .fields import (FkSaddleError, PeriodError, TorusField, stencil,
                     validate_periods)
from .model import SitePotential, residual_field, site_energies
from .semiflow import FlowParams, flow, flow_to_stationarity, refine_critical


class NoGapError(FkSaddleError):
    """Raised by gap-dependent operations when no gap pair is available."""


class PeriodicSystem:
    """Energy/gradient system for I(u) = J(u + v0) on a fixed torus.

    States are raw value arrays of shape (..., *p); the reference ``base`` is
    the broadcast values of v0 (zero when absent).
    """

    def __init__(self, potential: SitePotential, periods, base=None):
        self.potential = potential
        self.periods = validate_periods(periods)
        if len(self.periods) != potential.n:
            raise PeriodError("periods %r do not match model dimension %d"
                              % (self.periods, potential.n))
        if base is None:
            self.base = np.zeros(self.periods)
        elif isinstance(base, TorusField):
            self.base = base.extend(self.periods).values
        else:
            self.base = np.broadcast_to(np.asarray(base, dtype=float), self.periods)
        self.lattice_ndim = len(self.periods)
        self.dt_safe = potential.dt_safe()
        self.stencil = stencil(potential.ball, self.periods)

    def energy(self, x):
        e = self.stencil.energies(self.potential, x + self.base)
        return e.sum(axis=tuple(range(e.ndim - self.lattice_ndim, e.ndim)))

    def grad(self, x):
        return self.stencil.residual(self.potential, x + self.base)

    def hess_matrix(self, x):
        """Dense Hessian of I at x, rows/cols in C order of the torus cell."""
        return self.stencil.hessian(self.potential, x + self.base)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def torus_energy(potential: SitePotential, u: TorusField) -> float:
    """J(u): the sum of S_j(u) over the fundamental torus cell."""
    return float(site_energies(potential, u.values).sum())


def relative_energy(potential: SitePotential, u: TorusField, v0: TorusField) -> float:
    """I(u) = J(u + v0); v0 may live on any torus whose periods divide u's."""
    return torus_energy(potential, u + v0.extend(u.periods))


def gradient(potential: SitePotential, u: TorusField, v0: TorusField) -> TorusField:
    """The formal gradient of I at u, folded onto the torus (eq. residual)."""
    vals = residual_field(potential, (u + v0.extend(u.periods)).values)
    return TorusField(u.periods, vals)


def flow_field(potential: SitePotential, u0: TorusField, v0: TorusField,
               params: FlowParams):
    """Integrate the periodic semiflow from u0; returns (field, trace)."""
    system = PeriodicSystem(potential, u0.periods, v0)
    x, trace, _ = flow(system, u0.values, params)
    return TorusField(u0.periods, x), trace


# ---------------------------------------------------------------------------
# minimization and gap detection
# ---------------------------------------------------------------------------

@dataclass
class MinimizeResult:
    best: TorusField
    c0p: float
    limits: list           # deduplicated stationary limits, lift-normalized
    energies: list         # energies of the deduplicated limits
    iterations: int


def _as_field(seed, periods) -> TorusField:
    if isinstance(seed, TorusField):
        if seed.periods != tuple(periods):
            raise PeriodError("seed periods %r != %r" % (seed.periods, periods))
        return seed
    return TorusField.constant(periods, float(seed))


def _dedup(fields, energies, tol=DEDUP_TOL):
    """Lift-normalize, then merge fields within l-inf distance tol."""
    out, out_e = [], []
    for f, e in zip(fields, energies):
        nf, _ = f.normalize_lift()
        if not any(np.max(np.abs(nf.values - g.values)) <= tol for g in out):
            out.append(nf)
            out_e.append(e)
    order = np.argsort([g.values.flat[0] for g in out], kind="stable")
    return [out[i] for i in order], [out_e[i] for i in order]


def minimize_periodic(potential: SitePotential, periods, seeds,
                      params: FlowParams | None = None) -> MinimizeResult:
    """Flow every seed to stationarity and keep the lowest-energy limit.

    Seeds may be TorusFields or plain floats (constant fields).  Limits are
    deduplicated by l-inf distance after lift normalization.
    """
    periods = validate_periods(periods)
    params = params or FlowParams()
    if not seeds:
        raise FkSaddleError("minimize_periodic needs at least one seed")
    seeds = [_as_field(s, periods) for s in seeds]
    system = PeriodicSystem(potential, periods)
    stacked = np.stack([s.values for s in seeds])
    x, trace = flow_to_stationarity(system, stacked, params)
    limits = []
    for i in range(len(seeds)):
        # Newton polish: flow-tolerance errors in ground states would leak
        # into every downstream box and strip tail
        xi, _, ok = refine_critical(system, x[i], tol=1e-13, max_iter=30)
        limits.append(TorusField(periods, xi if ok else x[i]))
    energies = [float(system.energy(f.values)) for f in limits]
    fields, es = _dedup(limits, energies)
    best_i = int(np.argmin(es))
    return MinimizeResult(best=fields[best_i], c0p=float(es[best_i]),
                          limits=fields, energies=es,
                          iterations=len(trace.times) - 1)


@dataclass
class GapPair:
    """Two adjacent ordered minimizers and the probe evidence for adjacency."""

    v0: TorusField
    w0: TorusField
    evidence: dict = field(default_factory=dict)

    @property
    def width(self) -> np.ndarray:
        return self.w0.values - self.v0.values

    def box_field(self, periods=None) -> TorusField:
        g = self.w0 - self.v0
        return g if periods is None else g.extend(periods)


def _default_minimize_seeds(rng, periods, count=16, random_count=4):
    seeds = [TorusField.constant(periods, j / count) for j in range(count)]
    for _ in range(random_count):
        seeds.append(TorusField(periods, rng.uniform(0.0, 1.0, size=periods)))
    return seeds


def find_gap_pair(potential: SitePotential, periods, probes: int = GAP_PROBES,
                  seed: int = 0, params: FlowParams | None = None):
    """Locate two adjacent global minimizers, or return None.

    Candidate pairs are consecutive lift-normalized minimizers (plus the
    integer-wrap pair).  Adjacency is certified heuristically: probe flows
    seeded on interior convex combinations and random interior fields must
    all fall back to the endpoints; a probe limit that is stationary but has
    energy above c0p does not break adjacency (it is not a minimizer) and is
    recorded in the evidence.
    """
    if probes < 1:
        raise FkSaddleError("probes must be >= 1")
    periods = validate_periods(periods)
    params = params or FlowParams()
    rng = np.random.default_rng(seed)
    res = minimize_periodic(potential, periods,
                            _default_minimize_seeds(rng, periods), params)
    mins = [(f, e) for f, e in zip(res.limits, res.energies)
            if e <= res.c0p + MINIMIZER_ENERGY_MARGIN]
    if not mins:
        return None
    fields = [f for f, _ in mins]
    # adjacent candidates among the normalized representatives, plus the wrap
    candidates = [(fields[i], fields[i + 1]) for i in range(len(fields) - 1)]
    candidates.append((fields[-1] - 1.0, fields[0]))
    system = PeriodicSystem(potential, periods)
    for v, w in candidates:
        if np.min(w.values - v.values) <= STRICT_ORDER_TOL:
            continue  # not strictly ordered
        evidence = probe_adjacency(
            system, v.values, w.values, res.c0p, params, probes,
            lambda: rng.uniform(0.05, 0.95, size=periods))
        evidence["minimizer_orbits"] = len(fields)
        if not evidence["distinct_interior_minimizers"]:
            return GapPair(v0=v, w0=w, evidence=evidence)
    return None


def probe_adjacency(system, lo, hi, level, params, probes, draw) -> dict:
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
        system, np.stack([lo + f * width for f in fractions]), params)
    energies = system.energy(x)
    minimizers = critical = 0
    for xi, e in zip(x, energies):
        if min(np.max(np.abs(xi - lo)), np.max(np.abs(xi - hi))) <= DEDUP_TOL:
            continue
        if e > level + MINIMIZER_ENERGY_MARGIN:
            critical += 1
        else:
            minimizers += 1
    return {"probes": len(fractions),
            "distinct_interior_minimizers": minimizers,
            "interior_critical_points": critical}


def require_gap(gap) -> GapPair:
    if gap is None:
        raise NoGapError("no gap found: the minimizer set has no adjacent pair")
    return gap


# ---------------------------------------------------------------------------
# order diagnostics
# ---------------------------------------------------------------------------

def is_birkhoff(u: TorusField, scan_range: int = 3, tol: float = 1e-9) -> bool:
    """True iff all lattice translates plus integer offsets order uniformly.

    Checks tau^k_j u + l against u for |j| <= scan_range, |l| <= scan_range,
    every axis k; any sign change across sites reports a crossing.
    """
    for axis in range(1, u.n + 1):
        for j in range(-scan_range, scan_range + 1):
            shifted = u.shift(axis, j)
            for l in range(-scan_range, scan_range + 1):
                d = shifted.values + l - u.values
                has_pos = np.max(d) > tol
                has_neg = np.min(d) < -tol
                if has_pos and has_neg:
                    return False
    return True


# ---------------------------------------------------------------------------
# box maximizer
# ---------------------------------------------------------------------------

@dataclass
class BoxMaxResult:
    field: TorusField          # offset from v0, inside [0, w0 - v0]
    value: float
    interior_residual: float   # worst |residual| over strictly interior sites
    lower_clipped_max_residual: float  # must be <= tol (one-sided condition)
    upper_clipped_min_residual: float
    clipped_sites: int
    iterations: int


def box_maximize(potential: SitePotential, gap: GapPair, seeds=None,
                 params: FlowParams | None = None, periods=None) -> BoxMaxResult:
    """Ascend +gradient of I with sitewise clipping to the order box.

    At convergence the maximizer must satisfy the equilibrium equation at
    every site strictly inside the box; at lower-clipped sites the residual
    can only be <= 0, at upper-clipped sites >= 0.
    """
    gap = require_gap(gap)
    params = params or FlowParams()
    periods = validate_periods(periods) if periods is not None else gap.v0.periods
    v0 = gap.v0.extend(periods)
    hi = gap.box_field(periods).values
    system = PeriodicSystem(potential, periods, v0)
    dt = params.resolve_dt(system)
    if seeds is None:
        rng = np.random.default_rng(0)
        seeds = [0.5 * hi, 0.25 * hi, 0.75 * hi,
                 np.clip(0.5 * hi + 0.2 * rng.standard_normal(periods) * hi, 0.0, hi)]
    else:
        seeds = [s.values if isinstance(s, TorusField) else np.asarray(s, float)
                 for s in seeds]
    best = None
    iterations = 0
    for x0 in seeds:
        x = np.clip(np.asarray(x0, dtype=float), 0.0, hi)
        for _ in range(params.max_steps):
            g = system.grad(x)
            x_new = np.clip(x + dt * g, 0.0, hi)
            move = np.max(np.abs(x_new - x)) / dt
            x = x_new
            iterations += 1
            if move <= params.stationarity_tol:
                break
        # Newton polish on the free sites pushes interior residuals to tol;
        # it must not fall off the maximum
        x_pol, _, _ = refine_critical(
            system, x, params.stationarity_tol * BOX_POLISH_FACTOR, max_iter=50, hi=hi)
        if system.energy(x_pol) >= system.energy(x) - BOX_POLISH_MAX_DROP:
            x = x_pol
        val = float(system.energy(x))
        if best is None or val > best[0]:
            best = (val, x)
    val, x = best
    g = system.grad(x)
    lower = x <= BOX_INTERIOR_TOL
    upper = x >= hi - BOX_INTERIOR_TOL
    interior = ~(lower | upper)
    interior_res = float(np.max(np.abs(g[interior]))) if interior.any() else 0.0
    low_res = float(np.max(g[lower])) if lower.any() else 0.0
    up_res = float(np.min(g[upper])) if upper.any() else 0.0
    return BoxMaxResult(field=TorusField(periods, x), value=val,
                        interior_residual=interior_res,
                        lower_clipped_max_residual=low_res,
                        upper_clipped_min_residual=up_res,
                        clipped_sites=int(lower.sum() + upper.sum()),
                        iterations=iterations)
