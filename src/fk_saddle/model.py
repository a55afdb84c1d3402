"""Site potentials, local energies, and the discrete Euler-Lagrange residual.

A model is a site potential ``s`` acting on configurations over the radius-r
index ball ``B = {k in Z^n : |k|_1 <= r}``.  The shifted local energies
``S_j(u) = s(u restricted to j + B)`` define the formal lattice energy; a
field is stationary when the finite sum ``sum_{|j-i|_1 <= r} d_i S_j(u)``
vanishes at every site, and that sum is what :func:`el_residual` returns.

The standard assumptions on ``s`` are:

(S1) adding the constant 1 leaves ``s`` unchanged;
(S2) ``s`` is bounded below and coercive in nearest-neighbor differences;
(S3) mixed second partials are <= 0, strictly negative between the origin and
     its nearest neighbors (ferromagnetic coupling);
(S4) all second partials are bounded by a constant ``C``.

:func:`validate_assumptions` checks these by sampling; (S2) cannot be
certified by finitely many samples and is only reported as a growth trend.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .defaults import FD_STEP, FD_REL_TOL, SHIFT_PERIODICITY_TOL
from .fields import FkSaddleError, StripField, TorusField, stencil

TWO_PI = 2.0 * np.pi


class ModelError(FkSaddleError):
    pass


def central_differences(f, x, axes: int = 1) -> np.ndarray:
    """Centered differences ``(f(x + h e) - f(x - h e)) / 2h``, h = FD_STEP, of
    a batched function along every coordinate ``e`` of the trailing ``axes``
    axes of x.

    ``f`` maps ``batch + coords`` arrays to ``batch + tail``; the result has
    shape ``batch + coords + tail``.  Each coordinate costs two calls of f.
    """
    x = np.asarray(x, dtype=float)
    split = x.ndim - axes
    flat = x.reshape(x.shape[:split] + (-1,))
    cols = []
    for k in range(flat.shape[-1]):
        up = flat.copy()
        up[..., k] += FD_STEP
        dn = flat.copy()
        dn[..., k] -= FD_STEP
        cols.append((f(up.reshape(x.shape)) - f(dn.reshape(x.shape)))
                    / (2.0 * FD_STEP))
    out = np.stack(cols, axis=split)
    return out.reshape(x.shape + out.shape[split + 1:])


def ball_offsets(n: int, r: int) -> tuple:
    """Offsets k in Z^n with |k|_1 <= r, lexicographically ordered."""
    offs = [k for k in itertools.product(range(-r, r + 1), repeat=n)
            if sum(abs(c) for c in k) <= r]
    return tuple(sorted(offs))


def l1_norm(i) -> int:
    return int(sum(abs(int(c)) for c in i))


class SitePotential:
    """Base class for local energies on the radius-r ball.

    Subclasses implement :meth:`energy` on configuration arrays of shape
    ``(..., nball)`` whose last axis enumerates :attr:`ball`.  Analytic
    derivatives are optional; the base class falls back to centered finite
    differences (step ``FD_STEP``, with the documented accuracy loss).
    """

    def __init__(self, n: int, r: int, second_derivative_bound: float):
        if n < 1 or r < 1:
            raise ModelError("need dimension n >= 1 and radius r >= 1")
        self.n = n
        self.r = r
        self.ball = ball_offsets(n, r)
        self.nball = len(self.ball)
        self.origin = self.ball.index((0,) * n)
        self.neighbor_indices = tuple(
            i for i, b in enumerate(self.ball) if l1_norm(b) == 1)
        self.second_derivative_bound = float(second_derivative_bound)

    # -- required -----------------------------------------------------------
    def energy(self, cfg: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- finite-difference fallbacks -----------------------------------------
    def gradient(self, cfg: np.ndarray) -> np.ndarray:
        return central_differences(self.energy, cfg)

    def hessian(self, cfg: np.ndarray) -> np.ndarray:
        return central_differences(self.gradient, cfg)

    # -- flow step-size bound --------------------------------------------------
    def lipschitz_bound(self) -> float:
        """C * sqrt(C(r) C1(r)) with the stencil-counting constants."""
        return self.second_derivative_bound * self.nball ** 2

    def dt_safe(self) -> float:
        return 1.0 / (2.0 * self.lipschitz_bound())


class ClassicalFKPotential(SitePotential):
    """sin(2 pi u(0)) on-site term plus quadratic nearest-neighbor springs.

    ``s(u) = amplitude * sin(2 pi u(0)) + coupling * sum_{|j|=1} [u(j)-u(0)]^2``.
    The textbook model has amplitude 1 and coupling 1/16.
    """

    def __init__(self, amplitude: float = 1.0, coupling: float = 1.0 / 16.0, n: int = 2):
        self.amplitude = float(amplitude)
        self.coupling = float(coupling)
        bound = 4.0 * np.pi ** 2 * abs(self.amplitude) + 4.0 * abs(self.coupling) * n
        super().__init__(n=n, r=1, second_derivative_bound=max(bound, 1.0))

    def _onsite(self, c0):
        return self.amplitude * np.sin(TWO_PI * c0)

    def _onsite_d1(self, c0):
        return self.amplitude * TWO_PI * np.cos(TWO_PI * c0)

    def _onsite_d2(self, c0):
        return -self.amplitude * TWO_PI ** 2 * np.sin(TWO_PI * c0)

    def energy(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        c0 = cfg[..., self.origin]
        nb = cfg[..., self.neighbor_indices]
        diffs = nb - c0[..., None]
        return self._onsite(c0) + self.coupling * np.sum(diffs ** 2, axis=-1)

    def gradient(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = np.zeros(cfg.shape)
        c0 = cfg[..., self.origin]
        nb = cfg[..., self.neighbor_indices]
        diffs = nb - c0[..., None]
        out[..., self.origin] = self._onsite_d1(c0) - 2.0 * self.coupling * np.sum(diffs, axis=-1)
        for k, idx in enumerate(self.neighbor_indices):
            out[..., idx] = 2.0 * self.coupling * diffs[..., k]
        return out

    def hessian(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = np.zeros(cfg.shape + (self.nball,))
        c0 = cfg[..., self.origin]
        o = self.origin
        out[..., o, o] = self._onsite_d2(c0) + 2.0 * self.coupling * len(self.neighbor_indices)
        for idx in self.neighbor_indices:
            out[..., o, idx] = -2.0 * self.coupling
            out[..., idx, o] = -2.0 * self.coupling
            out[..., idx, idx] = 2.0 * self.coupling
        return out


class TwoWellFKPotential(ClassicalFKPotential):
    """cos^2 on-site variant with two wells per unit period (at 1/4 and 3/4).

    ``s(u) = amplitude * cos(2 pi u(0))^2 + coupling * sum_{|j|=1} [u(j)-u(0)]^2``.
    The half-period well spacing makes gap-rich test lattices: adjacent
    minimizers sit 1/2 apart instead of 1.
    """

    def __init__(self, amplitude: float = 1.0, coupling: float = 1.0 / 16.0, n: int = 2):
        super().__init__(amplitude=amplitude, coupling=coupling, n=n)
        bound = 8.0 * np.pi ** 2 * abs(self.amplitude) + 4.0 * abs(self.coupling) * n
        self.second_derivative_bound = max(bound, 1.0)

    def _onsite(self, c0):
        return self.amplitude * np.cos(TWO_PI * c0) ** 2

    def _onsite_d1(self, c0):
        return -self.amplitude * TWO_PI * np.sin(2.0 * TWO_PI * c0)

    def _onsite_d2(self, c0):
        return -2.0 * self.amplitude * TWO_PI ** 2 * np.cos(2.0 * TWO_PI * c0)


class PluginPotential(SitePotential):
    """User-supplied potential from callables on configuration arrays.

    ``energy_fn`` (required) maps ``(..., nball)`` arrays to ``(...)``
    energies; missing derivative callables fall back to centered finite
    differences with step ``FD_STEP``.
    """

    def __init__(self, energy_fn, n: int, r: int, gradient_fn=None, hessian_fn=None,
                 second_derivative_bound: float = 100.0):
        super().__init__(n=n, r=r, second_derivative_bound=second_derivative_bound)
        self._energy_fn = energy_fn
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn

    def energy(self, cfg):
        return np.asarray(self._energy_fn(np.asarray(cfg, dtype=float)), dtype=float)

    def gradient(self, cfg):
        if self._gradient_fn is None:
            return super().gradient(cfg)
        return np.asarray(self._gradient_fn(np.asarray(cfg, dtype=float)), dtype=float)

    def hessian(self, cfg):
        if self._hessian_fn is None:
            return super().hessian(cfg)
        return np.asarray(self._hessian_fn(np.asarray(cfg, dtype=float)), dtype=float)


BUILTIN_MODELS = {
    "classical-fk": lambda params: ClassicalFKPotential(
        amplitude=params.get("amplitude", 1.0),
        coupling=params.get("coupling", 1.0 / 16.0),
        n=params.get("n", 2)),
    "pinned-fk": lambda params: ClassicalFKPotential(
        amplitude=params.get("amplitude", 2.0),
        coupling=params.get("coupling", 1.0 / 16.0),
        n=params.get("n", 2)),
    "two-well-fk": lambda params: TwoWellFKPotential(
        amplitude=params.get("amplitude", 1.0),
        coupling=params.get("coupling", 1.0 / 16.0),
        n=params.get("n", 2)),
    "free-chain": lambda params: ClassicalFKPotential(
        amplitude=0.0,
        coupling=params.get("coupling", 1.0 / 16.0),
        n=params.get("n", 2)),
}


def make_potential(name: str, **params) -> SitePotential:
    """Construct a built-in potential, or import ``module:factory`` plug-ins."""
    if name in BUILTIN_MODELS:
        return BUILTIN_MODELS[name](params)
    if ":" in name:
        import importlib

        mod_name, attr = name.split(":", 1)
        factory = getattr(importlib.import_module(mod_name), attr)
        return factory(**params)
    raise ModelError("unknown model %r (built-ins: %s)"
                     % (name, ", ".join(sorted(BUILTIN_MODELS))))


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

def _check_dim(potential: SitePotential, u) -> None:
    if u.n != potential.n:
        raise ModelError("field dimension %d does not match model dimension %d"
                         % (u.n, potential.n))


def shift(u, axis: int, offset: int):
    """The lattice translate: (shift(u))(i) = u(i + offset * e_axis)."""
    if isinstance(u, TorusField):
        return u.shift(axis, offset)
    if isinstance(u, StripField):
        if axis == 1:
            return u.shift1(offset)
        if not 2 <= axis <= u.n:
            raise ModelError("axis %d out of range 1..%d" % (axis, u.n))
        return u.with_values(np.roll(u.values, -offset, axis=axis - 1))
    raise ModelError("unsupported field type %r" % type(u))


def site_configuration(potential: SitePotential, u, j) -> np.ndarray:
    """The configuration of u on j + ball, as a flat (nball,) array."""
    _check_dim(potential, u)
    j = tuple(int(c) for c in j)
    return np.array([u.site(tuple(j[k] + b[k] for k in range(potential.n)))
                     for b in potential.ball])


def local_energy(potential: SitePotential, u, j) -> float:
    """The shifted local energy S_j(u)."""
    return float(potential.energy(site_configuration(potential, u, j)))


def site_energies(potential: SitePotential, values: np.ndarray) -> np.ndarray:
    """S_j(u) for every torus site j; values has lattice axes trailing."""
    periods = np.shape(values)[-potential.n:]
    return stencil(potential.ball, periods).energies(potential, values)


def residual_field(potential: SitePotential, values: np.ndarray) -> np.ndarray:
    """Equilibrium residual sum_{|j-i|<=r} d_i S_j(u) at every torus site."""
    periods = np.shape(values)[-potential.n:]
    return stencil(potential.ball, periods).residual(potential, values)


def el_residual(potential: SitePotential, u, i) -> float:
    """The Euler-Lagrange residual of the field u at site i."""
    _check_dim(potential, u)
    i = tuple(int(c) for c in i)
    total = 0.0
    for b in potential.ball:
        j = tuple(i[k] + b[k] for k in range(potential.n))
        g = potential.gradient(site_configuration(potential, u, j))
        # position of i within the ball around j is -b
        k = potential.ball.index(tuple(-c for c in b))
        total += float(g[k])
    return total


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst_violation: float
    witness: np.ndarray | None = None
    note: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)
    sample_count: int = 0
    seed: int = 0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.note.startswith("heuristic"))

    def check(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_assumptions(potential: SitePotential, sample_count: int = 200,
                         seed: int = 0) -> ValidationReport:
    """Sampling-based check of (S1)-(S4) plus derivative consistency.

    Configurations are drawn uniformly from [-3, 3]^ball plus integer-offset
    copies (these exercise (S1)).  (S2) coercivity cannot be certified by
    finite sampling; its entry only reports the observed growth trend and is
    marked heuristic.
    """
    if sample_count < 1:
        raise ModelError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    report = ValidationReport(sample_count=sample_count, seed=seed)
    cfg = rng.uniform(-3.0, 3.0, size=(sample_count, potential.nball))
    offsets = rng.integers(-2, 3, size=(sample_count, 1)).astype(float)

    # (S1): invariance under adding the constant 1 (and other integers)
    e0 = potential.energy(cfg)
    e1 = potential.energy(cfg + 1.0)
    ek = potential.energy(cfg + offsets)
    v1 = np.abs(e1 - e0) / (1.0 + np.abs(e0))
    vk = np.abs(ek - e0) / (1.0 + np.abs(e0))
    worst = float(max(v1.max(), vk.max()))
    i_worst = int(np.argmax(v1))
    report.checks.append(AssumptionCheck(
        "S1", worst <= SHIFT_PERIODICITY_TOL, worst, cfg[i_worst]))

    # (S2): growth trend along increasing nearest-neighbor differences
    probe = np.zeros((8, potential.nball))
    scale = np.arange(1.0, 9.0)
    for k, idx in enumerate(potential.neighbor_indices):
        probe[:, idx] = scale * (1.0 if k % 2 == 0 else -1.0)
    growth = potential.energy(probe)
    increasing = bool(np.all(np.diff(growth) > 0))
    report.checks.append(AssumptionCheck(
        "S2", increasing, float(-(np.diff(growth).min() if len(growth) > 1 else 0.0)),
        note="heuristic: coercivity cannot be certified by finite sampling"))

    # (S3): sign conditions on mixed second partials
    hess = potential.hessian(cfg)
    off = hess.copy()
    idx = np.arange(potential.nball)
    off[:, idx, idx] = -np.inf  # ignore the diagonal
    worst_off = float(off.max())
    strict = hess[:, potential.origin, potential.neighbor_indices]
    worst_strict = float(strict.max())
    s3_ok = worst_off <= 1e-12 and worst_strict < -1e-12
    report.checks.append(AssumptionCheck(
        "S3", s3_ok, max(worst_off, worst_strict),
        cfg[int(np.argmax(np.max(off, axis=(1, 2))))]))

    # (S4): uniform bound on second partials
    mag = np.abs(hess).max(axis=(1, 2))
    worst_mag = float(mag.max())
    report.checks.append(AssumptionCheck(
        "S4", worst_mag <= potential.second_derivative_bound + 1e-9,
        worst_mag - potential.second_derivative_bound,
        cfg[int(np.argmax(mag))],
        note="bound C = %.6g" % potential.second_derivative_bound))

    # derivative consistency against centered finite differences
    sub = cfg[: min(100, sample_count)]
    gfd = SitePotential.gradient(potential, sub)
    gerr = np.abs(potential.gradient(sub) - gfd) / (1.0 + np.abs(gfd))
    hfd = SitePotential.hessian(potential, sub)
    herr = np.abs(potential.hessian(sub) - hfd) / (1.0 + np.abs(hfd))
    worst_d = float(max(gerr.max(), herr.max()))
    report.checks.append(AssumptionCheck(
        "derivatives", worst_d <= FD_REL_TOL, worst_d))

    return report
