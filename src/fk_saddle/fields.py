"""Lattice field containers and the stencil engine shared by all solvers.

Two storage schemes cover everything the solvers need:

* ``TorusField`` - a function on Z^n that is p-periodic, stored on the
  fundamental cell ``{0..p_1-1} x ... x {0..p_n-1}``.  All site reads resolve
  modulo the periods.
* ``StripField`` - a function on Z x (Z^{n-1}/qZ^{n-1}) stored on the layers
  ``i_1 in [-W, W]`` with constant tails pinned on both ends.  Reads outside
  the window resolve to the tail constants.

Values arrays are treated as immutable; every constructor copies and freezes
its input so fields can be shared freely across threads.

:class:`Stencil` at the bottom evaluates the local energies on either
geometry from index tables built once per lattice shape.  The lattice the
energy reads is stored as one flat *total* vector: the state values on the
torus, and on the strip the window values with ``2 r`` ghost layers on each
side that hold the tail constants, so the strip's Dirichlet data are ordinary
table entries.  Gathering the stencil configurations and scattering local
gradients into equilibrium residuals are one ``np.take`` each over any
leading batch axes (the lattice axes are always the trailing ones); the dense
Hessian is assembled from the local Hessians through the same tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class FkSaddleError(Exception):
    """Base class for all library errors."""


class PeriodError(FkSaddleError):
    pass


class WindowError(FkSaddleError):
    pass


def validate_periods(p, max_cells: int = 65536) -> tuple:
    p = tuple(int(x) for x in p)
    if len(p) == 0:
        raise PeriodError("periods must have at least one component")
    if any(x < 1 for x in p):
        raise PeriodError("periods must be >= 1, got %r" % (p,))
    if math.prod(p) > max_cells:
        raise PeriodError("torus cell count %d exceeds the configured maximum %d"
                          % (math.prod(p), max_cells))
    return p


def _frozen(values) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TorusField:
    """A p-periodic real lattice function, stored on the fundamental torus."""

    periods: tuple
    values: np.ndarray

    def __post_init__(self):
        p = validate_periods(self.periods)
        object.__setattr__(self, "periods", p)
        v = _frozen(np.broadcast_to(np.asarray(self.values, dtype=float), p))
        object.__setattr__(self, "values", v)

    @staticmethod
    def constant(periods, c: float) -> "TorusField":
        periods = validate_periods(periods)
        return TorusField(periods, np.full(periods, float(c)))

    @property
    def n(self) -> int:
        return len(self.periods)

    def site(self, i) -> float:
        idx = tuple(int(i[k]) % self.periods[k] for k in range(self.n))
        return float(self.values[idx])

    def with_values(self, values) -> "TorusField":
        return TorusField(self.periods, values)

    def extend(self, periods) -> "TorusField":
        """Re-store on a larger torus whose periods are multiples of ours."""
        periods = validate_periods(periods)
        if len(periods) != self.n:
            raise PeriodError("dimension mismatch: %r vs %r" % (periods, self.periods))
        reps = []
        for big, small in zip(periods, self.periods):
            if big % small != 0:
                raise PeriodError("periods %r do not extend %r" % (periods, self.periods))
            reps.append(big // small)
        return TorusField(periods, np.tile(self.values, reps))

    def shift(self, axis: int, offset: int) -> "TorusField":
        """The translate tau^axis_{-offset}: (result)(i) = self(i + offset e_axis)."""
        if not 1 <= axis <= self.n:
            raise PeriodError("axis %d out of range 1..%d" % (axis, self.n))
        return TorusField(self.periods, np.roll(self.values, -offset, axis=axis - 1))

    def normalize_lift(self) -> tuple:
        """Subtract the integer that puts the value at site 0 into [0, 1)."""
        k = math.floor(self.values.flat[0])
        return self - k, k

    # fields behave as immutable values; arithmetic returns new fields
    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, TorusField):
            if other.periods != self.periods:
                raise PeriodError("period mismatch: %r vs %r" % (self.periods, other.periods))
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return TorusField(self.periods, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return TorusField(self.periods, self.values - self._coerce(other))

    def __rsub__(self, other):
        return TorusField(self.periods, self._coerce(other) - self.values)

    def __mul__(self, c):
        return TorusField(self.periods, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return TorusField(self.periods, -self.values)


@dataclass(frozen=True, eq=False)
class StripField:
    """A function on Z x (Z^{n-1}/qZ^{n-1}) with constant tails.

    ``values`` has shape ``(2 W + 1, *q)``; layer index 0 corresponds to
    lattice coordinate ``i_1 = -W``.  Reads left of the window give ``left``,
    reads right of it give ``right``.
    """

    half_width: int
    q: tuple
    values: np.ndarray
    left: float
    right: float

    def __post_init__(self):
        q = validate_periods(self.q) if len(self.q) else ()
        object.__setattr__(self, "q", q)
        W = int(self.half_width)
        if W < 1:
            raise WindowError("window half-width must be >= 1")
        object.__setattr__(self, "half_width", W)
        shape = (2 * W + 1,) + q
        v = np.asarray(self.values, dtype=float)
        if v.shape != shape:
            raise WindowError("values shape %r does not match window %r" % (v.shape, shape))
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "left", float(self.left))
        object.__setattr__(self, "right", float(self.right))

    @property
    def n(self) -> int:
        return 1 + len(self.q)

    def layer_coords(self) -> np.ndarray:
        W = self.half_width
        return np.arange(-W, W + 1)

    def site(self, i) -> float:
        i1 = int(i[0])
        W = self.half_width
        if i1 < -W:
            return self.left
        if i1 > W:
            return self.right
        idx = (i1 + W,) + tuple(int(i[1 + k]) % self.q[k] for k in range(len(self.q)))
        return float(self.values[idx])

    def with_values(self, values) -> "StripField":
        return StripField(self.half_width, self.q, values, self.left, self.right)

    def padded(self, margin: int) -> np.ndarray:
        return pad_layers(self.values, margin, self.left, self.right, self.n)

    def embed(self, half_width: int) -> "StripField":
        """Re-store on a wider window, filling the new layers with the tails."""
        if half_width < self.half_width:
            raise WindowError("cannot shrink a strip window")
        extra = half_width - self.half_width
        return StripField(half_width, self.q, self.padded(extra), self.left, self.right)

    def shift1(self, offset: int) -> "StripField":
        """Axis-1 translate: (result)(i) = self(i + offset e_1), same window."""
        W = self.half_width
        ext = self.padded(abs(offset))
        lo = abs(offset) + offset
        return StripField(W, self.q, ext[lo:lo + 2 * W + 1], self.left, self.right)

    def _coerce(self, other):
        if isinstance(other, StripField):
            if other.q != self.q or other.half_width != self.half_width:
                raise WindowError("strip geometry mismatch")
            return other.values, other.left, other.right
        c = float(other)
        return c, c, c

    def __sub__(self, other):
        ov, ol, orr = self._coerce(other)
        return StripField(self.half_width, self.q, self.values - ov,
                          self.left - ol, self.right - orr)

    def __add__(self, other):
        ov, ol, orr = self._coerce(other)
        return StripField(self.half_width, self.q, self.values + ov,
                          self.left + ol, self.right + orr)

    def __mul__(self, c):
        c = float(c)
        return StripField(self.half_width, self.q, self.values * c,
                          self.left * c, self.right * c)

    __rmul__ = __mul__


def pad_layers(values: np.ndarray, margin: int, left: float, right: float, n: int) -> np.ndarray:
    """Extend the layer axis (first lattice axis) by constant tails."""
    if margin == 0:
        return values
    layer_ax = values.ndim - n
    widths = [(0, 0)] * values.ndim
    widths[layer_ax] = (margin, margin)
    cvals = [(0.0, 0.0)] * values.ndim
    cvals[layer_ax] = (left, right)
    return np.pad(values, widths, mode="constant", constant_values=cvals)


# ---------------------------------------------------------------------------
# the stencil engine (operates on raw arrays, lattice axes trailing)
# ---------------------------------------------------------------------------

class Stencil:
    """Gather/scatter tables of the stencil ``ball`` on one lattice shape.

    ``shape`` is the state shape: ``p`` on the torus (``margin = 0``) or
    ``(2 W + 1, *q)`` on the strip (``margin = r``).  The energy sites are
    the state sites plus ``margin`` layers on each side; the total vector
    adds ``2 margin`` ghost layers on each side, holding the tails.  All
    other axes (and, on the torus, the first one too) are periodic.

    * ``fwd[j, b]`` is the total index of site ``j + ball[b]`` for every
      energy site ``j``: configurations are ``total[..., fwd]``.
    * ``bwd[b, i]`` points at entry ``(i - ball[b], b)`` of the flattened
      ``(energy sites, nball)`` local gradients for every state site ``i``:
      the residual is ``grad[..., bwd].sum(-2)``, which adds the ball
      offsets one after another in ball order.
    """

    def __init__(self, ball, shape, margin=0):
        self.shape = tuple(shape)
        self.ghosts = 2 * margin
        self.energy_shape = (shape[0] + 2 * margin,) + self.shape[1:]
        total_shape = (shape[0] + 4 * margin,) + self.shape[1:]
        self.state_size = math.prod(shape)
        offsets = np.array(ball)
        cells = np.indices(total_shape).reshape(len(total_shape), -1).T
        layer = cells[:, 0]
        energy = cells[(layer >= margin) & (layer < total_shape[0] - margin)]
        state = cells[(layer >= 2 * margin) & (layer < total_shape[0] - 2 * margin)]
        near = (energy[:, None] + offsets) % total_shape
        self.fwd = np.ravel_multi_index(tuple(np.moveaxis(near, -1, 0)), total_shape)
        near = (state[:, None] - offsets) % total_shape
        near[..., 0] -= margin
        sites = np.ravel_multi_index(tuple(np.moveaxis(near, -1, 0)), self.energy_shape)
        self.bwd = (sites * len(ball) + np.arange(len(ball))).T.copy()
        for table in (self.fwd, self.bwd):
            table.setflags(write=False)

    def gather(self, values, left=0.0, right=0.0):
        """Configurations ``(..., energy sites, nball)`` of a state batch."""
        values = np.asarray(values, dtype=float)
        batch = values.shape[:values.ndim - len(self.shape)]
        ghosts = self.ghosts
        if ghosts:
            tail = (slice(None),) * (len(self.shape) - 1)
            total = np.empty(batch + (self.shape[0] + 2 * ghosts,) + self.shape[1:])
            total[(Ellipsis, slice(None, ghosts)) + tail] = left
            total[(Ellipsis, slice(ghosts, -ghosts)) + tail] = values
            total[(Ellipsis, slice(-ghosts, None)) + tail] = right
            values = total
        return np.take(values.reshape(batch + (-1,)), self.fwd, axis=-1)

    def energies(self, potential, values, left=0.0, right=0.0):
        """Local energies ``S_j`` at every energy site, in the lattice shape."""
        e = potential.energy(self.gather(values, left, right))
        return e.reshape(e.shape[:-1] + self.energy_shape)

    def residual(self, potential, values, left=0.0, right=0.0):
        """Equilibrium residual ``sum_b d_i S_{i - ball[b]}`` at every state site."""
        g = potential.gradient(self.gather(values, left, right))
        batch = g.shape[:-2]
        flat = np.take(g.reshape(batch + (-1,)), self.bwd, axis=-1)
        return flat.sum(-2).reshape(batch + self.shape)

    def hessian(self, potential, values, left=0.0, right=0.0):
        """Dense Hessian at one state, rows/cols in C order of the state.

        Each row offset ``a`` of the local Hessians is summed over the column
        offsets first, and the row offsets are added in ball order, as in
        the Hessian action ``sum_a sum_b``; entries on ghost sites are dropped.
        """
        h = potential.hessian(self.gather(values, left, right))
        size = self.state_size ** 2
        out = np.zeros(size)
        for a, (index, keep) in enumerate(self._hessian_tables):
            out += np.bincount(index, h[:, a].T.ravel()[keep], minlength=size)
        return out.reshape(self.state_size, self.state_size)

    @functools.cached_property
    def _hessian_tables(self):
        # the state index of every stencil read, -1 on the ghost layers
        sites = self.fwd.T - self.ghosts * math.prod(self.shape[1:])
        sites[(sites < 0) | (sites >= self.state_size)] = -1
        tables = []
        for row in sites:
            pair = row * self.state_size + sites
            keep = ((row >= 0) & (sites >= 0)).ravel()
            tables.append((pair.ravel()[keep], keep))
        return tables


@functools.lru_cache(maxsize=64)
def stencil(ball, shape, margin=0) -> Stencil:
    """The shared (read-only) tables for one ball, state shape and margin."""
    return Stencil(ball, shape, margin)
