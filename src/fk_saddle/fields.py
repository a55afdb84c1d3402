"""Lattice states and the stencil engine shared by all solvers.

A state is a float array whose lattice axes are the trailing axes, on both
geometries: a p-periodic function on Z^n is its values on the fundamental
cell ``{0..p_1-1} x ... x {0..p_n-1}``, and a function on the strip
Z x (Z^{n-1}/qZ^{n-1}) is its values on the layers ``i_1 in [-W, W]``, shape
``(2 W + 1, *q)``.  The geometry belongs to the systems
(``periodic.PeriodicSystem``, ``periodic.StripSystem``): they hold the
periods, the window, the tails outside it and the base state, and one
``total`` method builds the *total* field the energy reads on both.
:func:`tile` re-stores a state on periods that are multiples of its own.

:class:`Stencil` at the bottom evaluates the local energies on either
geometry from index tables built once per lattice shape.  It reads the total
field: ``base + state`` on the torus, and on the strip ``base + state`` on
the window with ``2 r`` ghost layers on each side that hold the tails
(written by ``total`` alone), so the strip's Dirichlet data are ordinary
table entries.  Gathering the stencil configurations and scattering local
gradients into equilibrium residuals are one ``np.take`` each over any
leading batch axes (the lattice axes are always the trailing ones).  The
Hessian is scattered from the local Hessians through the same tables into a
block-tridiagonal :class:`BandedHessian` (layers grouped along axis 0), so
its storage is O(sites * block).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .defaults import MAX_TORUS_CELLS, NEWTON_BLOCK_SITES


class FkSaddleError(Exception):
    """Base class for all library errors."""


class PeriodError(FkSaddleError):
    pass


class WindowError(FkSaddleError):
    pass


def validate_periods(p) -> tuple:
    p = tuple(int(x) for x in p)
    if len(p) == 0:
        raise PeriodError("periods must have at least one component")
    if any(x < 1 for x in p):
        raise PeriodError("periods must be >= 1, got %r" % (p,))
    if math.prod(p) > MAX_TORUS_CELLS:
        raise PeriodError("torus cell count %d exceeds the configured maximum %d"
                          % (math.prod(p), MAX_TORUS_CELLS))
    return p


def tile(values, shape) -> np.ndarray:
    """``values`` repeated along every axis to ``shape``, which must be a
    positive multiple of its shape axis by axis (PeriodError): a torus state
    on a larger torus, or a strip state on larger transverse periods."""
    values = np.asarray(values, dtype=float)
    shape = tuple(shape)
    if len(shape) != values.ndim or any(big % s or big < s
                                        for big, s in zip(shape, values.shape)):
        raise PeriodError("periods %r do not extend %r" % (shape, values.shape))
    return np.tile(values, tuple(big // s for big, s in zip(shape, values.shape)))


# ---------------------------------------------------------------------------
# the stencil engine (operates on raw arrays, lattice axes trailing)
# ---------------------------------------------------------------------------

class Stencil:
    """Gather/scatter tables of the stencil ``ball`` on one lattice shape.

    ``shape`` is the state shape: ``p`` on the torus (``margin = 0``) or
    ``(2 W + 1, *q)`` on the strip (``margin = r``).  The energy sites are
    the state sites plus ``margin`` layers on each side; the total field
    every method takes adds ``2 margin`` ghost layers on each side, which
    hold the tails.  All other axes (and, on the torus, the first one too)
    are periodic.

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

    def gather(self, total):
        """Configurations ``(..., energy sites, nball)`` of a total-field batch."""
        total = np.asarray(total, dtype=float)
        batch = total.shape[:total.ndim - len(self.shape)]
        return np.take(total.reshape(batch + (-1,)), self.fwd, axis=-1)

    def energies(self, potential, total):
        """Local energies ``S_j`` at every energy site, in the lattice shape."""
        e = potential.energy(self.gather(total))
        return e.reshape(e.shape[:-1] + self.energy_shape)

    def residual(self, potential, total):
        """Equilibrium residual ``sum_b d_i S_{i - ball[b]}`` at every state site."""
        g = potential.gradient(self.gather(total))
        batch = g.shape[:-2]
        flat = np.take(g.reshape(batch + (-1,)), self.bwd, axis=-1)
        return flat.sum(-2).reshape(batch + self.shape)

    def banded_hessian(self, potential, total):
        """The Hessian at one state as a :class:`BandedHessian`.

        Each row offset ``a`` of the local Hessians is summed over the
        column offsets first, and the row offsets are added in ball order,
        as in the Hessian action ``sum_a sum_b``; entries on ghost sites are
        dropped.  A one-block Hessian (every torus) is the dense matrix.
        """
        h = potential.hessian(self.gather(total))
        n, count = self.block_layout
        blocks = self._scatter(h, self._block_tables, count * 3 * n * n)
        blocks[self._block_padding] = 1.0
        return BandedHessian(blocks.reshape(count, 3, n, n), self.state_size)

    @functools.cached_property
    def block_layout(self):
        """``(block sites, block count)`` of the banded Hessian.

        A block holds whole layers along axis 0: on the strip at least the
        ``2 r`` layers a stencil spans, and whole layers up to about
        ``NEWTON_BLOCK_SITES`` sites, so only neighbouring blocks couple; the
        periodic axis 0 of the torus is one block.
        """
        layers = self.shape[0]
        width = self.state_size // layers
        per = layers
        if self.ghosts:
            per = min(layers, max(self.ghosts, -(-NEWTON_BLOCK_SITES // width)))
        return per * width, -(-layers // per)

    @functools.cached_property
    def _block_padding(self):
        # flat diagonal entries of the rows that pad the last block
        n, count = self.block_layout
        pad = np.arange(self.state_size, count * n)
        return ((3 * (pad // n) + 1) * n + pad % n) * n + pad % n

    @staticmethod
    def _scatter(h, tables, size):
        out = np.zeros(size)
        for a, (index, keep) in enumerate(tables):
            out += np.bincount(index, h[:, a].T.ravel()[keep], minlength=size)
        return out

    def _pair_tables(self, pair):
        # the state index of every stencil read, -1 on the ghost layers; the
        # tables point each (row read, column read) pair at ``pair(row, col)``
        sites = self.fwd.T - self.ghosts * math.prod(self.shape[1:])
        sites[(sites < 0) | (sites >= self.state_size)] = -1
        tables = []
        for row in sites:
            keep = ((row >= 0) & (sites >= 0)).ravel()
            tables.append((pair(row, sites).ravel()[keep], keep))
        return tables

    @functools.cached_property
    def _block_tables(self):
        n = self.block_layout[0]

        def pair(row, col):
            rb, cb = row // n, col // n
            return ((3 * rb + cb - rb + 1) * n + row % n) * n + col % n
        return self._pair_tables(pair)


class BandedHessian:
    """A block-tridiagonal Hessian with square blocks of ``n`` sites.

    ``blocks[i, 0]``, ``blocks[i, 1]`` and ``blocks[i, 2]`` are the blocks
    ``H[i, i-1]``, ``H[i, i]`` and ``H[i, i+1]`` of block row ``i`` (zero
    where that block column does not exist).  The first ``size`` rows are
    the state in C order; the rows after them pad the last block and are
    identity rows.  Storage is ``3 n`` numbers per row.
    """

    def __init__(self, blocks, size):
        self.blocks = blocks
        self.size = size

    def _blocked(self, v):
        count, _, n, _ = self.blocks.shape
        out = np.zeros(count * n)
        out[:self.size] = v
        return out.reshape(count, n)

    def matvec(self, v):
        """``H v`` for a flat state vector ``v``."""
        b, x = self.blocks, self._blocked(v)[..., None]
        y = b[:, 1] @ x
        y[1:] += b[1:, 0] @ x[:-1]
        y[:-1] += b[:-1, 2] @ x[1:]
        return y.ravel()[:self.size]

    def solve(self, rhs):
        """``H^{-1} rhs`` by block LU: one ``np.linalg.solve`` per block.

        The forward pass eliminates the sub-diagonal blocks through the Schur
        complements ``S_i = H[i, i] - H[i, i-1] S_{i-1}^{-1} H[i-1, i]``; the
        backward pass substitutes.  Rows are pivoted inside a block only, so
        the caller checks the residual; a singular ``S_i`` raises
        ``np.linalg.LinAlgError``.  One block is ``np.linalg.solve(H, rhs)``.
        """
        b, y = self.blocks, self._blocked(rhs)
        gains = []          # S_i^{-1} [H[i, i+1] | y_i]
        schur = b[0, 1]
        for i in range(len(b) - 1):
            z = np.linalg.solve(schur, np.column_stack((b[i, 2], y[i])))
            gains.append(z)
            schur = b[i + 1, 1] - b[i + 1, 0] @ z[:, :-1]
            y[i + 1] -= b[i + 1, 0] @ z[:, -1]
        y[-1] = np.linalg.solve(schur, y[-1])
        for i in range(len(b) - 2, -1, -1):
            y[i] = gains[i][:, -1] - gains[i][:, :-1] @ y[i + 1]
        return y.ravel()[:self.size]


@functools.lru_cache(maxsize=64)
def stencil(ball, shape, margin=0) -> Stencil:
    """The shared (read-only) tables for one ball, state shape and margin."""
    return Stencil(ball, shape, margin)
