import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fk_saddle import (PeriodicSystem, StripSystem, find_gap_pair,
                       make_potential, validate_assumptions)
from fk_saddle.cli import main
from fk_saddle.model import (ClassicalFKPotential, ModelError, PluginPotential,
                             ball_offsets, residual_field, site_energies)
from fk_saddle.semiflow import rk4_step

from helper_models import (FlippedBondPotential, dense, el_residual,
                           local_energy, onsite_only, radius_two_springs)

TWO_PI = 2 * np.pi


def test_ball_offsets():
    ball = ball_offsets(2, 1)
    assert len(ball) == 5
    assert (0, 0) in ball
    assert all(abs(a) + abs(b) <= 1 for a, b in ball)
    assert len(ball_offsets(2, 2)) == 13


def test_local_energy_constants(classical):
    assert local_energy(classical, np.full((1, 1), -0.25), (0, 0)) == pytest.approx(-1.0, abs=1e-12)
    assert local_energy(classical, np.full((1, 1), 0.25), (3, -2)) == pytest.approx(1.0, abs=1e-12)
    for c in [0.1, 0.37, -0.6]:
        # coupling terms vanish for constants
        assert local_energy(classical, np.full((2, 2), c), (0, 0)) == \
            pytest.approx(np.sin(TWO_PI * c), abs=1e-12)


def test_el_residual_values(classical):
    u = np.full((1, 1), -0.25)
    for i in [(0, 0), (5, -1)]:
        assert abs(el_residual(classical, u, i)) < 1e-12
    u0 = np.full((1, 1), 0.0)
    assert el_residual(classical, u0, (0, 0)) == pytest.approx(TWO_PI, abs=1e-12)


def test_el_residual_of_converged_minimizer(classical, tol):
    from fk_saddle import minimize_periodic

    res = minimize_periodic(classical, (2, 1), [0.1, 0.6], tol)
    r = residual_field(classical, res.best)
    assert np.max(np.abs(r)) <= tol


@settings(max_examples=25, deadline=None)
@given(axis=st.integers(1, 2), m=st.integers(-3, 3), data=st.data())
def test_residual_translation_equivariance(axis, m, data):
    pot = ClassicalFKPotential()
    vals = np.array(data.draw(st.lists(
        st.floats(-2, 2, allow_nan=False), min_size=6, max_size=6))).reshape(3, 2)
    u = vals
    shifted = np.roll(vals, -m, axis=axis - 1)
    i = (data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2)))
    target = list(i)
    target[axis - 1] += m
    assert el_residual(pot, shifted, i) == pytest.approx(
        el_residual(pot, u, tuple(target)), abs=1e-10)


def _torus_case(potential, periods, rng):
    base = rng.uniform(-1.0, 1.0, periods)
    system = PeriodicSystem(potential, periods, base)
    x = rng.uniform(-1.0, 1.0, periods)
    u = x + base
    sites = list(np.ndindex(*periods))
    energy = sum(local_energy(potential, u, j) for j in sites)
    return system, x, u, None, sites, energy


def _strip_case(potential, rng):
    W, q, r = 3, (2,), potential.r
    c0 = float(potential.energy(np.full(potential.nball, 0.1)))
    base = rng.uniform(-0.25, 0.75, (2 * W + 1,) + q)
    system = StripSystem(potential, q, W, -0.3, 0.8, c0, base=base)
    x = rng.uniform(-0.5, 0.5, system.shape)
    u, tails = x + base, (-0.3, 0.8)
    sites = [(i - W, k) for i, k in np.ndindex(*system.shape)]
    energy = sum(local_energy(potential, u, (i, k), tails) - c0
                 for i in range(-W - r, W + r + 1) for k in range(q[0]))
    return system, x, u, tails, sites, energy


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
        system, x, u, tails, sites, energy = _torus_case(pinned, (3, 2), rng)
    elif case == "strip-q2":
        system, x, u, tails, sites, energy = _strip_case(pinned, rng)
    else:
        periods = (1, 1) if case.endswith("1x1") else (2, 1)
        system, x, u, tails, sites, energy = _torus_case(radius_two_springs(), periods, rng)
    pot = system.potential
    oracle = np.array([el_residual(pot, u, i, tails) for i in sites]).reshape(x.shape)
    assert np.allclose(system.grad(x), oracle, rtol=0.0, atol=1e-12)
    assert system.energy(x) == pytest.approx(energy, rel=0.0, abs=1e-12)
    H = dense(system.hess_matrix(x))
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        fd = (system.grad(x + e) - system.grad(x - e)).ravel() / (2 * h)
        assert np.allclose(H[:, k], fd, rtol=0.0, atol=1e-6)


# (potential, transverse periods q): a strip with no transverse axis, one
# with two columns, and the radius-2 plug-in's 4 ghost layers
TOTAL_CASES = {
    "chain-q()": (lambda: make_potential("pinned-fk", n=1), ()),
    "pinned-q2": (lambda: make_potential("pinned-fk"), (2,)),
    "plugin-r2-q1": (radius_two_springs, (1,)),
}


@pytest.mark.parametrize("with_base", [False, True])
@pytest.mark.parametrize("case", sorted(TOTAL_CASES))
def test_total_field_on_both_geometries(case, with_base):
    """The torus total is ``x + base``; the strip total is ``base + x``
    between ``m`` layers of each tail, ``m = 2 r`` by default."""
    make, q = TOTAL_CASES[case]
    pot = make()
    rng = np.random.default_rng(12)
    W = 3
    shape = (2 * W + 1,) + q
    base = rng.uniform(-0.25, 0.75, shape) if with_base else None
    strip = StripSystem(pot, q, W, -0.3, 0.8, 0.0, base=base)
    x = rng.uniform(-0.5, 0.5, (2,) + shape)     # a batch of two states
    inside = x if base is None else x + base
    for margin in (None, 0, 1, 5):
        m = 2 * pot.r if margin is None else margin
        total = strip.total(x, margin)
        assert total.shape == (2, 2 * W + 1 + 2 * m) + q
        assert np.all(total[:, :m] == -0.3)
        assert np.all(total[:, 2 * W + 1 + m:] == 0.8)
        assert np.array_equal(total[:, m:2 * W + 1 + m], inside)
    periods = (3,) + q
    torus = PeriodicSystem(pot, periods, rng.uniform(-0.5, 0.5, periods) if with_base else None)
    y = rng.uniform(-0.5, 0.5, (2,) + periods)
    assert np.array_equal(torus.total(y), y + torus.base)
    if not with_base:
        assert np.array_equal(torus.total(y), y)


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


def _passed(rep):
    """Each check's name and whether it passed."""
    return {c.name: c.passed for c in rep.checks}


def test_validate_classical_passes(classical):
    rep = validate_assumptions(classical, 200, seed=1)
    assert rep.all_passed
    passed = _passed(rep)
    assert passed["S1"] and passed["S3"] and passed["S4"] and passed["derivatives"]


def test_validate_flipped_bond_fails_s3():
    rep = validate_assumptions(FlippedBondPotential(), 100, seed=2)
    assert not _passed(rep)["S3"]


def test_validate_no_coupling_fails_s3_strictness():
    rep = validate_assumptions(onsite_only(), 100, seed=2)
    assert not _passed(rep)["S3"]


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


def test_free_chain_refuses_an_amplitude(tmp_path, capsys):
    # the free chain has no on-site term: an amplitude would be echoed in the
    # manifest but never used, so it is refused before any stage runs
    assert make_potential("free-chain", amplitude=0.0).amplitude == 0.0
    with pytest.raises(ModelError, match="amplitude"):
        make_potential("free-chain", amplitude=2.0)
    out = tmp_path / "never.json"
    assert main(["minimize", "--model", "free-chain", "--amplitude", "2",
                 "--out", str(out)]) == 1
    assert "amplitude" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, cause", [
    ("helper_models:radius_two_springs", "TypeError"),   # the factory takes no n
    ("helper_models:nope", "AttributeError"),
    ("nosuchmod:f", "ModuleNotFoundError"),
], ids=["factory-fails", "no-factory", "no-module"])
def test_failing_plugin_is_a_model_error(tmp_path, capsys, model, cause):
    out = tmp_path / "never.json"
    assert main(["minimize", "--model", model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plug-in model %r failed: %s" % (model, cause))
    assert not out.exists()


def test_make_potential_plugin_path():
    pot = make_potential("helper_models:flipped")
    rep = validate_assumptions(pot, 50, seed=0)
    assert not _passed(rep)["S3"]


BUILTINS = ("classical-fk", "pinned-fk", "two-well-fk", "free-chain")


@pytest.mark.parametrize("name", BUILTINS)
def test_lipschitz_bound_covers_hessian_spectrum(name):
    pot = make_potential(name)
    rng = np.random.default_rng(5)
    systems = [(PeriodicSystem(pot, p), p) for p in ((1, 1), (2, 1), (3, 2), (8, 8))]
    strip = StripSystem(pot, (2,), 6, -0.25, 0.75, c0=0.0)  # pinned tails
    systems.append((strip, strip.shape))
    for system, shape in systems:
        for _ in range(3):
            x = rng.uniform(-1.5, 1.5, size=shape)
            rho = np.max(np.abs(np.linalg.eigvalsh(dense(system.hess_matrix(x)))))
            # the free chain attains the bound (checkerboard mode on even
            # tori), so allow eigvalsh its rounding error
            assert rho <= pot.lipschitz_bound() * (1 + 1e-12)
    assert pot.lipschitz_bound() < pot.stencil_lipschitz_bound()


@pytest.mark.parametrize("name", BUILTINS[:3])
def test_euler_step_at_one_over_l_is_monotone_and_descends(name, tol):
    # at h = 1 / L the Euler map x - h grad(x) has the Jacobian 1 - h H, whose
    # entries are nonnegative under (S3), and it lowers the energy by at least
    # h |grad|^2 / 2 (the descent lemma); random ordered pairs of box states
    # on a torus and on a strip with the ground states as tails
    pot = make_potential(name)
    gap = find_gap_pair(pot, (1, 1), seed=3, tol=tol)
    v0, w0 = gap.lo.flat[0], gap.hi.flat[0]
    rng = np.random.default_rng(11)
    # torus states are offsets from v0, strip states are the field itself
    for system, shape, base in ((PeriodicSystem(pot, (3, 2), gap.lo), (3, 2), 0.0),
                                (StripSystem(pot, (2,), 6, v0, w0, c0=0.0), (13, 2), v0)):
        u = base + rng.uniform(0.0, 0.7, size=(40,) + shape) * (w0 - v0)
        v = u + rng.uniform(0.01, 0.3, size=u.shape) * (w0 - v0)
        h = system.dt_safe
        (su, ku), (sv, _) = rk4_step(system, u, h), rk4_step(system, v, h)
        assert np.all(sv > su)
        drop = 0.5 * h * np.sum(ku ** 2, axis=(-2, -1))
        assert np.all(system.energy(su) <= system.energy(u) - drop + 1e-12)


def test_gershgorin_bound_values(classical, pinned, twowell):
    assert classical.lipschitz_bound() == pytest.approx(4 * np.pi ** 2 + 2.0)
    assert pinned.lipschitz_bound() == pytest.approx(8 * np.pi ** 2 + 2.0)
    assert twowell.lipschitz_bound() == pytest.approx(8 * np.pi ** 2 + 2.0)
    assert classical.dt_safe() == 1.0 / classical.lipschitz_bound()
    # the (S4) constant C is a different bound and keeps its value
    assert classical.second_derivative_bound == 4 * np.pi ** 2 + 0.5


def test_plugin_keeps_stencil_step():
    plug = PluginPotential(lambda cfg: np.sum(cfg ** 2, axis=-1), n=2, r=1,
                           second_derivative_bound=50.0)
    assert plug.lipschitz_bound() == 50.0 * 25
    assert plug.dt_safe() == 1.0 / (50.0 * 25)


def _loop_energy_gradient(pot, cfg):
    """The per-neighbour kernel the vectorised ClassicalFKPotential replaced."""
    c0 = cfg[..., pot.origin]
    diffs = cfg[..., pot.neighbor_indices] - c0[..., None]
    energy = pot._onsite(c0) + pot.coupling * np.sum(diffs ** 2, axis=-1)
    grad = np.zeros(cfg.shape)
    grad[..., pot.origin] = (pot._onsite_d1(c0)
                             - 2.0 * pot.coupling * np.sum(diffs, axis=-1))
    for k, idx in enumerate(pot.neighbor_indices):
        grad[..., idx] = 2.0 * pot.coupling * diffs[..., k]
    return energy, grad


@pytest.mark.parametrize("name", BUILTINS)
def test_vectorised_kernel_is_bit_identical(name):
    # 2c = 1/8 scales every summand of the neighbour sum exactly
    pot = make_potential(name)
    rng = np.random.default_rng(9)
    for batch in ((23, 1, 1), (8, 2, 1), (127, 8, 1), (63, 8, 8)):
        cfg = rng.uniform(-2.0, 2.0, size=batch + (pot.nball,))
        energy, grad = _loop_energy_gradient(pot, cfg)
        assert np.array_equal(pot.energy(cfg), energy)
        assert np.array_equal(pot.gradient(cfg), grad)
