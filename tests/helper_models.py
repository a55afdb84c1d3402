"""Constructed potentials used to check that the validators have teeth,
a radius-2 plug-in for the stencil and Newton checks, and the oracles that
the stencil engine, the block Newton and the bottleneck sweep are checked
against."""

import numpy as np

from fk_saddle import PluginPotential
from fk_saddle.model import ClassicalFKPotential, ModelError, ball_offsets

TWO_PI = 2 * np.pi


# --- per-site oracles: one site, one ball, plain loops ---------------------

# A state is an array with one axis per lattice axis: on a torus its shape is
# the periods; on a strip, given its ``tails`` (left, right), it is the
# window (2 W + 1, *q) of layers -W..W.

def _check_dim(potential, u) -> None:
    if np.ndim(u) != potential.n:
        raise ModelError("field dimension %d does not match model dimension %d"
                         % (np.ndim(u), potential.n))


def site(u, i, tails=None) -> float:
    """u(i): modulo the shape on a torus; on a strip the tail constants
    outside the window and modulo q across it."""
    if tails is None:
        return float(u[tuple(int(c) % p for c, p in zip(i, u.shape))])
    i1, W = int(i[0]), u.shape[0] // 2
    if i1 < -W:
        return tails[0]
    if i1 > W:
        return tails[1]
    return float(u[(i1 + W,) + tuple(int(c) % q for c, q in zip(i[1:], u.shape[1:]))])


def site_configuration(potential, u, j, tails=None) -> np.ndarray:
    """The configuration of u on j + ball, as a flat (nball,) array."""
    _check_dim(potential, u)
    j = tuple(int(c) for c in j)
    return np.array([site(u, tuple(j[k] + b[k] for k in range(potential.n)), tails)
                     for b in potential.ball])


def local_energy(potential, u, j, tails=None) -> float:
    """The shifted local energy S_j(u)."""
    return float(potential.energy(site_configuration(potential, u, j, tails)))


def el_residual(potential, u, i, tails=None) -> float:
    """The Euler-Lagrange residual sum_{|j-i|<=r} d_i S_j(u) at site i."""
    _check_dim(potential, u)
    i = tuple(int(c) for c in i)
    total = 0.0
    for b in potential.ball:
        j = tuple(i[k] + b[k] for k in range(potential.n))
        g = potential.gradient(site_configuration(potential, u, j, tails))
        # position of i within the ball around j is -b
        k = potential.ball.index(tuple(-c for c in b))
        total += float(g[k])
    return total


def dense_hessian(system, x):
    """The dense Hessian of ``system`` at the state ``x``, rows and columns
    in C order of the state, O(size^2) memory: the oracle of the banded one.

    It is scattered through the stencil's own tables in the banded order
    (``Stencil.banded_hessian``), so a one-block Hessian equals it bit for
    bit."""
    st = system.stencil
    h = system.potential.hessian(st.gather(system.total(x)))
    tables = st._pair_tables(lambda row, col: row * st.state_size + col)
    return st._scatter(h, tables, st.state_size ** 2).reshape(st.state_size, st.state_size)


def dense(banded):
    """The full matrix of a ``BandedHessian``, O(size^2) memory."""
    count, _, n, _ = banded.blocks.shape
    rows = np.arange(count)
    out = np.zeros((count, n, count + 2, n))   # block columns -1 .. count
    for c in range(3):
        out[rows, :, rows + c] = banded.blocks[:, c]
    out = out[:, :, 1:-1].reshape(count * n, count * n)
    return out[:banded.size, :banded.size]


def _dense_pass(D, values, rows, step):
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


def dense_bottleneck(values) -> float:
    """The least path maximum between opposite corners of a square grid by
    Gauss-Seidel sweeps of the whole minimax-distance field D, repeated
    until D = max(values, min of D over each 3x3 neighbourhood)."""
    D = np.full(values.shape, np.inf)
    D[0, 0] = values[0, 0]
    while True:
        for d, v in ((D, values), (D.T, values.T)):
            _dense_pass(d, v, range(1, len(d)), 1)
            _dense_pass(d, v, range(len(d) - 2, -1, -1), -1)
        halo, least = np.pad(D, 1, constant_values=np.inf), D.copy()
        for a in range(3):
            for b in range(3):
                np.minimum(least, halo[a:a + len(D), b:b + len(D)], out=least)
        if np.array_equal(D, np.maximum(values, least)):
            return float(D[-1, -1])


# --- constructed potentials ----------------------------------------------------


class SmallStepFK(ClassicalFKPotential):
    """Classical FK that states ``factor`` times its Lipschitz bound, so
    every flow steps at 1 / (factor L); the energy is unchanged."""

    def __init__(self, factor, **kw):
        super().__init__(**kw)
        self.factor = factor

    def lipschitz_bound(self):
        return self.factor * super().lipschitz_bound()


class FlippedBondPotential(ClassicalFKPotential):
    """Classical FK with the sign of one bond's coupling flipped.

    Violates the ferromagnetic sign condition on that bond; the comparison
    principle should fail under this model.
    """

    def __init__(self, n=2):
        super().__init__(n=n)
        self.flip = self.neighbor_indices[0]

    def energy(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        base = super().energy(cfg)
        c0 = cfg[..., self.origin]
        d = cfg[..., self.flip] - c0
        return base - 2.0 * self.coupling * d ** 2

    def gradient(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = super().gradient(cfg)
        c0 = cfg[..., self.origin]
        d = cfg[..., self.flip] - c0
        out[..., self.flip] -= 4.0 * self.coupling * d
        out[..., self.origin] += 4.0 * self.coupling * d
        return out

    def hessian(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = super().hessian(cfg)
        f, o = self.flip, self.origin
        out[..., f, f] -= 4.0 * self.coupling
        out[..., o, o] -= 4.0 * self.coupling
        out[..., f, o] += 4.0 * self.coupling
        out[..., o, f] += 4.0 * self.coupling
        return out


class AntiferroAxisPotential(ClassicalFKPotential):
    """Classical FK with the axis-1 couplings negated on both bonds.

    One flipped bond cancels against its mirror in the lattice sum; negating
    the pair leaves a genuine antiferromagnetic axis whose flow mixes ordered
    data with the wrong sign.
    """

    def __init__(self, n=2):
        super().__init__(n=n)
        self.axis_bonds = tuple(
            i for i, b in enumerate(self.ball)
            if abs(b[0]) == 1 and all(c == 0 for c in b[1:]))

    def energy(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = super().energy(cfg)
        c0 = cfg[..., self.origin]
        for idx in self.axis_bonds:
            out = out - 2.0 * self.coupling * (cfg[..., idx] - c0) ** 2
        return out

    def gradient(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = super().gradient(cfg)
        c0 = cfg[..., self.origin]
        for idx in self.axis_bonds:
            d = cfg[..., idx] - c0
            out[..., idx] -= 4.0 * self.coupling * d
            out[..., self.origin] += 4.0 * self.coupling * d
        return out

    def hessian(self, cfg):
        cfg = np.asarray(cfg, dtype=float)
        out = super().hessian(cfg)
        o = self.origin
        for f in self.axis_bonds:
            out[..., f, f] -= 4.0 * self.coupling
            out[..., o, o] -= 4.0 * self.coupling
            out[..., f, o] += 4.0 * self.coupling
            out[..., o, f] += 4.0 * self.coupling
        return out


def flipped(n=2, **_):
    return AntiferroAxisPotential(n=n)


def onsite_only(n=2, **_):
    """sin on-site term with no coupling: (S3) strictness fails."""
    return ClassicalFKPotential(amplitude=1.0, coupling=0.0, n=n)


def shifted_classical(offset=0.37, n=2, **_):
    """Classical FK plus a constant: every energy shifts, differences do not."""
    base = ClassicalFKPotential(n=n)
    return PluginPotential(
        energy_fn=lambda cfg: base.energy(cfg) + offset,
        n=n, r=1,
        gradient_fn=base.gradient,
        hessian_fn=base.hessian,
        second_derivative_bound=base.second_derivative_bound)


def radius_two_springs():
    """sin on-site term plus springs to all 12 sites of the radius-2 ball."""
    ball = ball_offsets(2, 2)
    o = ball.index((0, 0))
    w = np.array([0.0 if k == o else 1.0 / 16.0 / sum(map(abs, b)) ** 2
                  for k, b in enumerate(ball)])

    def energy(cfg):
        d = cfg - cfg[..., o:o + 1]
        return np.sin(TWO_PI * cfg[..., o]) + np.sum(w * d ** 2, axis=-1)

    def gradient(cfg):
        g = 2.0 * w * (cfg - cfg[..., o:o + 1])
        g[..., o] = TWO_PI * np.cos(TWO_PI * cfg[..., o]) - g.sum(axis=-1)
        return g

    def hessian(cfg):
        h = np.zeros(cfg.shape + (len(ball),))
        h[..., range(len(ball)), range(len(ball))] = 2.0 * w
        h[..., o, :] = h[..., :, o] = -2.0 * w
        h[..., o, o] = -TWO_PI ** 2 * np.sin(TWO_PI * cfg[..., o]) + 2.0 * w.sum()
        return h

    return PluginPotential(energy, n=2, r=2, gradient_fn=gradient,
                           hessian_fn=hessian)
