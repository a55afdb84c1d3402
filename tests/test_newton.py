"""The block-banded Newton: its step against the dense solve, its memory, and
the certificate that stands behind each step.

``helper_models.dense_hessian`` (the dense matrix) is the oracle here; no
solver builds it.
"""

import tracemalloc

import numpy as np
import pytest

from fk_saddle import PeriodicSystem, StripSystem
from fk_saddle.fields import BandedHessian
from fk_saddle.semiflow import refine_critical

from helper_models import dense, dense_hessian, radius_two_springs

# every kink and saddle below is embedded in this half-width, so the strip
# Hessians have 7 to 21 blocks
WINDOW = 80


def _dense_step(system, x, g):
    H = dense_hessian(system, x)
    return H, np.linalg.solve(H, -g)


def _deviation(system, x):
    """Relative l-inf deviation of the block Newton step from the dense one."""
    g = system.grad(x).ravel()
    H, exact = _dense_step(system, x, g)
    banded = system.hess_matrix(x)
    assert np.array_equal(dense(banded), H)
    step = banded.solve(-g)
    return np.max(np.abs(step - exact)) / np.max(np.abs(exact)), np.linalg.eigvalsh(H)


def _near(x, seed):
    # a point next to the critical point, so -g is a genuine Newton right-hand side
    return x + 1e-3 * np.random.default_rng(seed).standard_normal(x.shape)


def _embed(potential, u, tails):
    """The strip state u on the window WINDOW, its new layers on the tails."""
    system = StripSystem(potential, u.shape[1:], u.shape[0] // 2, *tails, c0=0.0)
    return system.total(u, WINDOW - system.half_width)


def _widen(values, m):
    return np.repeat(values, m, axis=-1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_step_matches_dense_at_the_kink_minimizer(pinned, pinned_gap, het_gap, m):
    # no base: the state is the total field and carries the ground-state tails
    v1 = _embed(pinned, het_gap.lo, pinned_gap.frame(pinned, (1,))[:2])
    system = StripSystem(pinned, (m,), WINDOW, *pinned_gap.frame(pinned, (m,)))
    assert system.stencil.block_layout[1] >= 7
    dev, eig = _deviation(system, _near(_widen(v1, m), m))
    assert eig[0] > 0
    assert dev <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_step_matches_dense_at_the_strip_saddle(pinned, pinned_gap, het_gap, mph, m):
    # with a base: the state is the offset from v1, the strip mountain pass
    base = _widen(_embed(pinned, het_gap.lo, pinned_gap.frame(pinned, (1,))[:2]), m)
    crit = _widen(_embed(pinned, mph.critical, (0.0, 0.0)), m)
    system = StripSystem(pinned, (m,), WINDOW, *pinned_gap.frame(pinned, (m,)), base=base)
    dev, eig = _deviation(system, _near(crit, 10 + m))
    assert eig[0] < 0 < eig[-1]
    if m == 1:
        assert eig[1] > 0      # the mountain pass has index one
    assert dev <= 1e-12


def test_block_step_matches_dense_on_the_radius_two_plugin():
    pot = radius_two_springs()
    rng = np.random.default_rng(4)
    c0 = float(pot.energy(np.full(pot.nball, 0.1)))
    for q, base in (((1,), None), ((2,), rng.uniform(-0.25, 0.75, (41, 2)))):
        system = StripSystem(pot, q, 20, -0.3, 0.8, c0, base=base)
        # blocks of at least 2 r = 4 layers, so only neighbouring blocks couple
        assert system.stencil.block_layout[1] >= 2
        dev, eig = _deviation(system, rng.uniform(-0.5, 0.5, system.shape))
        assert dev <= 1e-12


def test_one_block_step_is_the_dense_solve(classical, gap, pinned):
    rng = np.random.default_rng(2)
    systems = [PeriodicSystem(classical, p, gap.lo)
               for p in ((1, 1), (2, 1), (3, 2), (8, 8))]
    systems.append(PeriodicSystem(radius_two_springs(), (2, 1)))
    systems.append(StripSystem(pinned, (2,), 3, -0.25, 0.75, c0=0.0))
    for system in systems:
        x = rng.uniform(0.0, 1.0, system.base.shape)
        g = system.grad(x).ravel()
        assert system.stencil.block_layout[1] == 1
        _, dense = _dense_step(system, x, g)
        assert np.array_equal(system.hess_matrix(x).solve(-g), dense)


def test_newton_memory_stays_linear_in_the_sites(pinned):
    # W = 640 (WINDOW_CAP), q = (3,): 3,843 sites, whose dense Hessian alone
    # is 3843^2 * 8 B = 113 MB.  The banded one stores 3 n numbers per row in
    # blocks of n sites; the assembly holds it and one bincount temporary,
    # and the solve keeps S_i^{-1} [H[i, i+1] | y_i], another n + 1 per row.
    # The local Hessians and index tables are O(sites * nball^2).  Four
    # copies of the block storage bound all of it.
    W, q = 640, (3,)
    c0 = float(pinned.energy(np.full(pinned.nball, -0.25)))
    system = StripSystem(pinned, q, W, -0.25, 0.75, c0)
    layers = np.arange(-W, W + 1)
    kink = -0.25 + 0.5 * (1.0 + np.tanh(layers / 5.0))
    x = np.repeat(kink[:, None], 3, axis=1)
    n, count = system.stencil.block_layout
    assert x.size == 3843 and n <= 32
    ceiling = 4 * (count * 3 * n * n * 8)
    dense = x.size ** 2 * 8
    assert ceiling < dense / 10
    tracemalloc.start()
    try:
        _, res, ok = refine_critical(system, x, 0.0, max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and np.isfinite(res)
    assert peak < ceiling, "Newton peak %.1f MB over %.1f MB" % (peak / 2 ** 20,
                                                                  ceiling / 2 ** 20)


class _Linear:
    """grad(x) = H x - b for one fixed block-tridiagonal H."""

    lattice_ndim = 1

    def __init__(self, H, b):
        self.H, self.b = H, b

    def grad(self, x):
        return self.H.matvec(x) - self.b

    def hess_matrix(self, x):
        return self.H


def _two_blocks(d0, u, d1):
    # H = [[d0, u], [u, d1]] as two 1x1 blocks
    return BandedHessian(np.array([[0.0, d0, u], [u, d1, 0.0]]).reshape(2, 3, 1, 1), 2)


@pytest.mark.parametrize("d0", [0.0, 1e-17])
def test_certificate_refuses_a_failed_block_solve(d0):
    # H is well conditioned, and the dense solve is exact, but its leading
    # block is singular (d0 = 0: the block solve raises) or nearly so (the
    # unpivoted elimination loses x0 entirely)
    b = np.array([1.0, 0.5])
    system = _Linear(_two_blocks(d0, 1.0, 0.0), b)
    assert np.allclose(np.linalg.solve(dense(system.H), b), [0.5, 1.0 - 0.5 * d0])
    x0 = np.zeros(2)
    x, res, ok = refine_critical(system, x0, 1e-12)
    assert not ok
    assert res == 1.0
    assert np.array_equal(x, x0)


def test_certificate_refuses_a_wrong_step(pinned, pinned_gap, het_gap, monkeypatch):
    system = StripSystem(pinned, (1,), WINDOW, *pinned_gap.frame(pinned, (1,)))
    x0 = _near(_embed(pinned, het_gap.lo, pinned_gap.frame(pinned, (1,))[:2]), 0)
    _, res_ok, ok = refine_critical(system, x0, 1e-12)
    assert ok and res_ok <= 1e-12
    true_solve = BandedHessian.solve
    monkeypatch.setattr(BandedHessian, "solve",
                        lambda self, rhs: 1.5 * true_solve(self, rhs))
    x, res, ok = refine_critical(system, x0, 1e-12)
    assert not ok
    assert res == np.max(np.abs(system.grad(x0)))
    assert np.array_equal(x, x0)
