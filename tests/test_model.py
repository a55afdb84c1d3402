import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fk_saddle import (PeriodicSystem, StripField, StripSystem, TorusField,
                       el_residual, local_energy, make_potential, shift,
                       validate_assumptions)
from fk_saddle.model import (ClassicalFKPotential, ModelError, PluginPotential,
                             ball_offsets, residual_field, site_energies)

from helper_models import FlippedBondPotential, onsite_only

TWO_PI = 2 * np.pi


def test_ball_offsets():
    ball = ball_offsets(2, 1)
    assert len(ball) == 5
    assert (0, 0) in ball
    assert all(abs(a) + abs(b) <= 1 for a, b in ball)
    assert len(ball_offsets(2, 2)) == 13


def test_shift_identity_and_period(classical):
    u = TorusField((2, 1), np.array([[0.1], [0.7]]))
    assert np.array_equal(shift(u, 1, 0).values, u.values)
    assert np.array_equal(shift(u, 1, 2).values, u.values)
    v = shift(u, 1, 1)
    assert v.values[0, 0] == u.values[1, 0]


def test_shift_constant_minimizer(classical):
    u = TorusField.constant((1, 1), -0.25)
    assert np.array_equal(shift(u, 1, 5).values, u.values)


def test_shift_axis_out_of_range():
    u = TorusField.constant((2, 1), 0.0)
    with pytest.raises(Exception):
        shift(u, 3, 1)


def test_local_energy_constants(classical):
    assert local_energy(classical, TorusField.constant((1, 1), -0.25), (0, 0)) == pytest.approx(-1.0, abs=1e-12)
    assert local_energy(classical, TorusField.constant((1, 1), 0.25), (3, -2)) == pytest.approx(1.0, abs=1e-12)
    for c in [0.1, 0.37, -0.6]:
        # coupling terms vanish for constants
        assert local_energy(classical, TorusField.constant((2, 2), c), (0, 0)) == \
            pytest.approx(np.sin(TWO_PI * c), abs=1e-12)


def test_el_residual_values(classical):
    u = TorusField.constant((1, 1), -0.25)
    for i in [(0, 0), (5, -1)]:
        assert abs(el_residual(classical, u, i)) < 1e-12
    u0 = TorusField.constant((1, 1), 0.0)
    assert el_residual(classical, u0, (0, 0)) == pytest.approx(TWO_PI, abs=1e-12)


def test_el_residual_of_converged_minimizer(classical, params):
    from fk_saddle import minimize_periodic

    res = minimize_periodic(classical, (2, 1), [0.1, 0.6], params)
    r = residual_field(classical, res.best.values)
    assert np.max(np.abs(r)) <= params.stationarity_tol


@settings(max_examples=25, deadline=None)
@given(axis=st.integers(1, 2), m=st.integers(-3, 3), data=st.data())
def test_residual_translation_equivariance(axis, m, data):
    pot = ClassicalFKPotential()
    vals = np.array(data.draw(st.lists(
        st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6))).reshape(3, 2)
    u = TorusField((3, 2), vals)
    shifted = shift(u, axis, m)
    i = (data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2)))
    target = list(i)
    target[axis - 1] += m
    assert el_residual(pot, shifted, i) == pytest.approx(
        el_residual(pot, u, tuple(target)), abs=1e-10)


def _radius_two_plugin():
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


def _torus_case(potential, periods, rng):
    base = rng.uniform(-1.0, 1.0, periods)
    system = PeriodicSystem(potential, periods, base)
    x = rng.uniform(-1.0, 1.0, periods)
    u = TorusField(periods, x + base)
    sites = list(np.ndindex(*periods))
    energy = sum(local_energy(potential, u, j) for j in sites)
    return system, x, u, sites, energy


def _strip_case(potential, rng):
    W, q, r = 3, (2,), potential.r
    c0 = float(potential.energy(np.full(potential.nball, 0.1)))
    base = rng.uniform(-0.25, 0.75, (2 * W + 1,) + q)
    system = StripSystem(potential, q, W, -0.3, 0.8, c0, base=base)
    x = rng.uniform(-0.5, 0.5, system.shape)
    u = StripField(W, q, x + base, -0.3, 0.8)
    sites = [(i - W, k) for i, k in np.ndindex(*system.shape)]
    energy = sum(local_energy(potential, u, (i, k)) - c0
                 for i in range(-W - r, W + r + 1) for k in range(q[0]))
    return system, x, u, sites, energy


@pytest.mark.parametrize("case", ["torus-3x2", "strip-q2", "plugin-r2-1x1",
                                  "plugin-r2-2x1"])
def test_stencil_engine_matches_per_site_oracle(case):
    """The gather/scatter tables reproduce the per-site loops up to rounding.

    Residuals equal ``el_residual`` at every site and energies equal the sum
    of ``local_energy``; the dense Hessian matches central differences of the
    gradient.  On the radius-2 tori the ball offsets wrap onto the same site
    several times.
    """
    rng = np.random.default_rng(11)
    pinned = make_potential("pinned-fk")
    if case == "torus-3x2":
        system, x, u, sites, energy = _torus_case(pinned, (3, 2), rng)
    elif case == "strip-q2":
        system, x, u, sites, energy = _strip_case(pinned, rng)
    else:
        periods = (1, 1) if case.endswith("1x1") else (2, 1)
        system, x, u, sites, energy = _torus_case(_radius_two_plugin(), periods, rng)
    pot = system.potential
    oracle = np.array([el_residual(pot, u, i) for i in sites]).reshape(x.shape)
    assert np.allclose(system.grad(x), oracle, rtol=0.0, atol=1e-12)
    assert system.energy(x) == pytest.approx(energy, rel=0.0, abs=1e-12)
    H = system.hess_matrix(x)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        fd = (system.grad(x + e) - system.grad(x - e)).ravel() / (2 * h)
        assert np.allclose(H[:, k], fd, rtol=0.0, atol=1e-6)


def test_s1_periodicity_bulk(classical):
    rng = np.random.default_rng(0)
    cfg = rng.uniform(-3, 3, size=(1000, classical.nball))
    e0 = classical.energy(cfg)
    e1 = classical.energy(cfg + 1.0)
    assert np.all(np.abs(e1 - e0) <= 1e-12 * (1 + np.abs(e0)))


def test_derivatives_match_finite_differences(classical):
    rng = np.random.default_rng(1)
    cfg = rng.uniform(-3, 3, size=(100, classical.nball))
    g = classical.gradient(cfg)
    h = 1e-6
    for b in range(classical.nball):
        up = cfg.copy()
        up[:, b] += h
        dn = cfg.copy()
        dn[:, b] -= h
        fd = (classical.energy(up) - classical.energy(dn)) / (2 * h)
        assert np.max(np.abs(g[:, b] - fd) / (1 + np.abs(fd))) <= 1e-6


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_submodularity_random_fields(data):
    pot = ClassicalFKPotential()
    draw = lambda: np.array(data.draw(st.lists(
        st.floats(-2, 2, allow_nan=False), min_size=4, max_size=4))).reshape(2, 2)
    u, v = draw(), draw()
    J = lambda x: float(site_energies(pot, x).sum())
    lhs = J(np.maximum(u, v)) + J(np.minimum(u, v))
    rhs = J(u) + J(v)
    assert lhs <= rhs + 1e-10


def test_validate_classical_passes(classical):
    rep = validate_assumptions(classical, 200, seed=1)
    assert rep.all_passed
    assert rep.check("S1").passed
    assert rep.check("S3").passed
    assert rep.check("S4").passed
    assert rep.check("derivatives").passed


def test_validate_flipped_bond_fails_s3():
    rep = validate_assumptions(FlippedBondPotential(), 100, seed=2)
    assert not rep.check("S3").passed


def test_validate_no_coupling_fails_s3_strictness():
    rep = validate_assumptions(onsite_only(), 100, seed=2)
    assert not rep.check("S3").passed


def test_validate_rejects_bad_sample_count(classical):
    with pytest.raises(ModelError):
        validate_assumptions(classical, 0)


def test_two_well_minima_spacing(twowell):
    # dense scan of constant configurations: wells sit half a period apart
    cs = np.linspace(0, 1, 10000, endpoint=False)
    cfg = np.repeat(cs[:, None], twowell.nball, axis=1)
    es = twowell.energy(cfg)
    mins = cs[np.nonzero((es < np.roll(es, 1)) & (es < np.roll(es, -1)))[0]]
    assert len(mins) == 2
    assert abs(mins[1] - mins[0] - 0.5) < 1e-3


def test_plugin_potential_fd_fallback():
    base = ClassicalFKPotential()
    plug = PluginPotential(energy_fn=base.energy, n=2, r=1,
                           second_derivative_bound=base.second_derivative_bound)
    rng = np.random.default_rng(3)
    cfg = rng.uniform(-1, 1, size=(10, base.nball))
    assert np.allclose(plug.gradient(cfg), base.gradient(cfg), atol=1e-6)
    assert np.allclose(plug.hessian(cfg), base.hessian(cfg), atol=1e-3)


def test_make_potential_registry():
    assert make_potential("classical-fk").amplitude == 1.0
    assert make_potential("pinned-fk").amplitude == 2.0
    assert make_potential("classical-fk", amplitude=2.5).amplitude == 2.5
    assert make_potential("free-chain").amplitude == 0.0
    with pytest.raises(ModelError):
        make_potential("no-such-model")


def test_make_potential_plugin_path():
    pot = make_potential("helper_models:flipped")
    rep = validate_assumptions(pot, 50, seed=0)
    assert not rep.check("S3").passed
