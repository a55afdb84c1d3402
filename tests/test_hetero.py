import numpy as np
import pytest

from fk_saddle import (StripField, asymptotics_report,
                       bound_scan_hetero, find_gap_pair_hetero, flow_hetero,
                       make_potential, minimize_hetero, mountain_pass_hetero,
                       renormalized_energy, strip_norm)
from fk_saddle.fields import WindowError
from fk_saddle.hetero import StripSystem, _strip_system
from fk_saddle.mpp import PathError
from fk_saddle.semiflow import flow

# Heteroclinic ground levels at window half-width 40, frozen from an
# independent brute-force route (L-BFGS-B on the windowed renormalized
# energy with analytic gradient).
BRUTE_FORCE_C1 = {
    "classical-fk": 0.123446117685522,
    "pinned-fk": 0.124215843651504,
}


@pytest.fixture(scope="module")
def het(pinned, pinned_gap, params):
    return minimize_hetero(pinned, (1,), pinned_gap, params)


@pytest.fixture(scope="module")
def het_gap(pinned, pinned_gap, params, het):
    g = find_gap_pair_hetero(pinned, (1,), pinned_gap, seed=5, params=params,
                             minimized=het)
    assert g is not None
    return g


# --- norms --------------------------------------------------------------------

def test_strip_norm_zero_and_bump():
    z = StripField(5, (1,), np.zeros((11, 1)), 0.0, 0.0)
    assert strip_norm(z) == 0.0
    vals = np.zeros((11, 1))
    vals[5, 0] = 0.7
    bump = StripField(5, (1,), vals, 0.0, 0.0)
    assert strip_norm(bump) == pytest.approx(1.4)


def test_strip_norm_infinite_with_tails(het_gap):
    assert strip_norm(het_gap.v1) == np.inf


def test_strip_norm_of_gap_width(het_gap):
    width = het_gap.w1 - het_gap.v1
    n = strip_norm(width)
    l1 = float(np.sum(np.abs(width.values)))
    assert np.isfinite(n)
    assert n <= l1 + np.sqrt(l1) + 1e-12  # l2 <= sqrt(l1) when values <= 1


# --- minimization ---------------------------------------------------------------

def test_minimize_profile_and_level(pinned, het):
    assert het.c1q > 0
    prof = het.v1.values[:, 0]
    assert np.all(np.diff(prof) >= -1e-12)   # monotone kink
    assert het.tail_bound < 1e-10
    assert het.v1.left == pytest.approx(-0.25, abs=1e-12)
    assert het.v1.right == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_C1))
def test_c1_matches_brute_force_oracle(name, params):
    pot = make_potential(name)
    from fk_saddle import find_gap_pair

    gap0 = find_gap_pair(pot, (1, 1), seed=3, params=params)
    res = minimize_hetero(pot, (1,), gap0, params, window=40,
                          check_stability=False)
    assert res.c1q == pytest.approx(BRUTE_FORCE_C1[name], abs=1e-12)


def test_window_doubling_stability(het):
    assert het.stability <= 1e-9


def test_transverse_scaling(pinned, pinned_gap, params, het):
    res2 = minimize_hetero(pinned, (2,), pinned_gap, params,
                           window=het.window, check_stability=False)
    assert abs(res2.c1q - 2 * het.consts.c1) <= 1e-8


def test_minimize_fixed_point_seed(pinned, pinned_gap, params, het):
    res = minimize_hetero(pinned, (1,), pinned_gap, params, seeds=[het.v1],
                          window=het.window, check_stability=False)
    assert np.max(np.abs(res.v1.values - het.v1.values)) < 1e-9


def test_renormalization_constants(het):
    assert het.consts.c0 == pytest.approx(-2.0, abs=1e-12)
    assert het.consts.c1 == het.c1q
    assert het.consts.k1_empirical >= 0.0


# --- renormalized energy -----------------------------------------------------

def test_energy_of_both_endpoints(pinned, pinned_gap, het, het_gap):
    Iv = renormalized_energy(pinned, het_gap.v1, pinned_gap)
    Iw = renormalized_energy(pinned, het_gap.w1, pinned_gap)
    assert Iv == pytest.approx(het.c1q, abs=1e-12)
    assert abs(Iw - Iv) <= 1e-9


def test_energy_stable_under_window_doubling(pinned, pinned_gap, het):
    small = renormalized_energy(pinned, het.v1, pinned_gap)
    big = renormalized_energy(pinned, het.v1.embed(2 * het.window), pinned_gap)
    assert abs(big - small) <= 1e-9


def test_energy_layer_range_guard(pinned, pinned_gap, het):
    with pytest.raises(WindowError):
        renormalized_energy(pinned, het.v1, pinned_gap, layers=(-5, 5))
    W, r = het.window, pinned.r
    full = renormalized_energy(pinned, het.v1, pinned_gap,
                               layers=(-W - r, W + r))
    assert full == pytest.approx(het.c1q, abs=1e-12)


def test_energy_layer_range_must_cover_margin(pinned, pinned_gap):
    # a tail-to-tail ramp still climbing at the window edges puts energy in
    # the margin layers [-W-r, -W) and (W, W+r]; dropping it must not pass
    # silently
    W, r = 6, pinned.r
    ramp = np.linspace(-0.25, 0.75, 2 * W + 3)[1:-1].reshape(-1, 1)
    u = StripField(W, (1,), ramp, -0.25, 0.75)
    full = renormalized_energy(pinned, u, pinned_gap)
    assert renormalized_energy(pinned, u, pinned_gap,
                               layers=(-W - r, W + r)) == full
    with pytest.raises(WindowError):
        renormalized_energy(pinned, u, pinned_gap, layers=(-W, W))


def test_strip_gradient_matches_finite_differences(pinned, pinned_gap, het):
    system = _strip_system(pinned, (1,), 10, pinned_gap)
    rng = np.random.default_rng(8)
    x = np.clip(het.v1.values[het.window - 10:het.window + 11]
                + 0.05 * rng.standard_normal((21, 1)), -0.25, 0.75)
    g = system.grad(x)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        fd = (system.energy(x + e) - system.energy(x - e)) / (2 * h)
        assert g.flat[k] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_strip_hessian_matches_gradient_differences(pinned, pinned_gap):
    system = _strip_system(pinned, (1,), 6, pinned_gap)
    rng = np.random.default_rng(12)
    x = rng.uniform(-0.25, 0.75, size=system.shape)
    H = system.hess_matrix(x)
    assert np.allclose(H, H.T, atol=1e-12)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        fd = (system.grad(x + e) - system.grad(x - e)).ravel() / (2 * h)
        assert np.allclose(H[:, k], fd, atol=1e-5)


# --- the strip flow ----------------------------------------------------------

def test_flow_fixed_points(pinned, pinned_gap, params, het, het_gap):
    fp = params.with_(t_max=0.5, run_to_t_max=True)
    for u in (het_gap.v1, het_gap.w1):
        out, _ = flow_hetero(pinned, u, pinned_gap, fp)
        assert np.max(np.abs(out.values - u.values)) < 1e-9


def test_flow_converges_from_box_seed(pinned, pinned_gap, params, het_gap):
    rng = np.random.default_rng(3)
    width = het_gap.width_values
    system = StripSystem(pinned, (1,), het_gap.v1.half_width, 0.0, 0.0,
                         c0=-2.0, base=None)
    u0 = het_gap.v1.values + rng.uniform(0, 1, size=width.shape) * width
    start = StripField(het_gap.v1.half_width, (1,), u0,
                       het_gap.v1.left, het_gap.v1.right)
    out, trace = flow_hetero(pinned, start, pinned_gap, params)
    assert trace.residuals[-1] <= params.stationarity_tol
    assert np.all(np.diff(np.array(trace.energies)) <= 1e-10)


def test_strip_flow_comparison_and_box_invariance(pinned, pinned_gap, params, het_gap):
    from fk_saddle.hetero import _offset_system

    system = _offset_system(pinned, het_gap)
    width = het_gap.width_values
    rng = np.random.default_rng(4)
    u1 = rng.uniform(0.0, 0.4, size=(6,) + width.shape) * width
    u2 = u1 + rng.uniform(0.1, 0.5, size=(6,) + width.shape) * width
    fp = params.with_(t_max=0.2, run_to_t_max=True)
    both, _, _ = flow(system, np.concatenate([u1, u2]), fp)
    active = width > 1e-9
    assert np.all((both[6:] - both[:6])[:, active] > 0)
    seeds = rng.uniform(0, 1, size=(6,) + width.shape) * width
    out, _, _ = flow(system, seeds, fp)
    assert np.min(out) >= -1e-10 and np.max(out - width) <= 1e-10


# --- gap pairs -----------------------------------------------------------------

def test_hetero_gap_is_translate(het, het_gap):
    assert np.max(np.abs(het_gap.w1.values - het_gap.v1.shift1(1).values)) == 0.0
    width = het_gap.width_values
    assert np.min(width) >= -1e-9
    assert np.max(width) > 0.5
    assert het_gap.evidence["distinct_interior_minimizers"] == 0


def test_hetero_gap_free_chain(params):
    free = make_potential("free-chain")
    from fk_saddle.fields import WindowError
    from fk_saddle.periodic import GapPair
    from fk_saddle import TorusField

    # the free chain has no periodic gap either; hand it the unit box
    gap0 = GapPair(v0=TorusField.constant((1, 1), 0.0),
                   w0=TorusField.constant((1, 1), 1.0))
    # its transition ramp never localizes: the window policy must diverge
    with pytest.raises(WindowError):
        minimize_hetero(free, (1,), gap0, params)
    # on a fixed window the translate of the harmonic ramp is not stationary,
    # so no adjacent pair exists (the minimizer family is a continuum)
    fixed = minimize_hetero(free, (1,), gap0, params, window=20,
                            check_stability=False)
    out = find_gap_pair_hetero(free, (1,), gap0, seed=0, params=params,
                               minimized=fixed)
    assert out is None


def test_hetero_gap_deterministic(pinned, pinned_gap, params, het):
    a = find_gap_pair_hetero(pinned, (1,), pinned_gap, seed=9, params=params,
                             minimized=het)
    b = find_gap_pair_hetero(pinned, (1,), pinned_gap, seed=9, params=params,
                             minimized=het)
    assert np.array_equal(a.v1.values, b.v1.values)
    assert a.evidence == b.evidence


# --- heteroclinic mountain pass ----------------------------------------------

@pytest.fixture(scope="module")
def mph(pinned, het_gap, params):
    return mountain_pass_hetero(pinned, het_gap, params, N=65)


def test_mph_barrier_positive(mph):
    assert mph.success
    assert mph.value - mph.c_ref > 1e-6
    assert mph.residual <= 1e-10


def test_mph_endpoints_at_ground_level(pinned, het_gap, het, params):
    from fk_saddle.hetero import _offset_system

    system = _offset_system(pinned, het_gap)
    width = het_gap.width_values
    assert float(system.energy(np.zeros_like(width))) == pytest.approx(het.c1q, abs=1e-9)
    assert float(system.energy(width)) == pytest.approx(het.c1q, abs=1e-9)


def test_mph_critical_strictly_between(mph, het_gap):
    width = het_gap.width_values
    active = width > 1e-9
    assert np.min(mph.critical[active]) > 0
    assert np.min((width - mph.critical)[active]) > 0


def test_mph_rejects_unknown_mode(pinned, het_gap, params):
    with pytest.raises(PathError, match="unknown mode 'warp'"):
        mountain_pass_hetero(pinned, het_gap, params, N=9, mode="warp")


def test_mph_stable_under_window_doubling(pinned, pinned_gap, params, het, het_gap, mph):
    big = het_gap.v1.embed(2 * het.window)
    gap_big = type(het_gap)(v1=big, w1=big.shift1(1), gap0=pinned_gap,
                            evidence=dict(het_gap.evidence))
    mp_big = mountain_pass_hetero(pinned, gap_big, params, N=65)
    assert abs(mp_big.value - mph.value) <= 1e-8


# --- the transverse bound scan ---------------------------------------------------

def test_bound_scan(pinned, het_gap, params):
    rows = bound_scan_hetero(pinned, 3, het_gap, params)
    assert [r.k for r in rows] == [1, 2, 3]
    for r in rows:
        assert r.ok, r.message
        assert 0 < r.barrier <= r.witness + 1e-9
    assert abs(rows[1].c - 2 * rows[0].c) <= 1e-8


# --- asymptotics ---------------------------------------------------------------

def test_asymptotics_tags(pinned, pinned_gap, het):
    rep = asymptotics_report(het.v1, pinned_gap)
    assert rep.left_tag == "v0"
    assert rep.right_tag == "w0"
    assert rep.left_decay < 0 or np.all(rep.dist_to_v0[:3] == 0.0)


def test_asymptotics_reversed_profile(pinned, pinned_gap, het):
    rev = StripField(het.window, (1,), het.v1.values[::-1],
                     het.v1.right, het.v1.left)
    rep = asymptotics_report(rev, pinned_gap)
    assert rep.left_tag == "w0"
    assert rep.right_tag == "v0"
