import re

import numpy as np
import pytest

from fk_saddle import (GapPair, StripSystem, asymptotics_report,
                       best_mountain_pass, find_gap_pair, find_gap_pair_hetero,
                       make_potential, minimize_hetero, mountain_pass,
                       mountain_pass_hetero, multiplicity_scan)
from fk_saddle import hetero
from fk_saddle.defaults import default_node_count
from fk_saddle.fields import PeriodError, WindowError
from fk_saddle.mpp import PathError, box_path
from fk_saddle.semiflow import flow

from helper_models import SmallStepFK, dense

# Heteroclinic ground levels at window half-width 40, frozen from an
# independent brute-force route (L-BFGS-B on the windowed renormalized
# energy with analytic gradient).
BRUTE_FORCE_C1 = {
    "classical-fk": 0.123446117685522,
    "pinned-fk": 0.124215843651504,
}


# --- minimization ---------------------------------------------------------------

def test_minimize_profile_and_level(pinned, pinned_gap, het):
    assert het.c1q > 0
    prof = het.v1[:, 0]
    assert het.v1.shape == (2 * het.window + 1, 1)
    assert np.all(np.diff(prof) >= -1e-12)   # monotone kink
    assert het.tail_bound < 1e-10
    left, right = pinned_gap.frame(pinned, (1,))[:2]
    assert left == pytest.approx(-0.25, abs=1e-12)
    assert right == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_C1))
def test_c1_matches_brute_force_oracle(name, tol):
    pot = make_potential(name)
    gap0 = find_gap_pair(pot, (1, 1), seed=3, tol=tol)
    res = minimize_hetero(pot, (1,), gap0, tol, window=40,
                          check_stability=False)
    assert res.c1q == pytest.approx(BRUTE_FORCE_C1[name], abs=1e-12)


def test_window_doubling_stability(het):
    assert het.stability <= 1e-9


def test_negative_window_is_a_window_error(pinned, pinned_gap, tol):
    with pytest.raises(WindowError, match="half-width must be >= 0, got -1"):
        minimize_hetero(pinned, (1,), pinned_gap, tol, window=-1)


def test_window_policy_stops_at_the_cap(pinned, pinned_gap, tol, monkeypatch):
    # a tail bound that never meets its tolerance doubles the window until
    # the next one would pass the cap
    monkeypatch.setattr(hetero, "TAIL_BOUND_TOL", 0.0)
    monkeypatch.setattr(hetero, "WINDOW_CAP", 20)
    with pytest.raises(WindowError, match="window 40 exceeds the cap 20"):
        minimize_hetero(pinned, (1,), pinned_gap, tol)


def test_window_policy_refuses_a_tail_that_does_not_localize(
        pinned, pinned_gap, tol, monkeypatch):
    # a kink sheds tail mass by orders of magnitude per doubling; a bound
    # that stays put is a delocalized ramp
    monkeypatch.setattr(hetero, "_tail_bound", lambda system, x: 1.0)
    with pytest.raises(WindowError, match="tail mass is not localizing"):
        minimize_hetero(pinned, (1,), pinned_gap, tol)


def test_transverse_scaling(pinned, pinned_gap, tol, het):
    res2 = minimize_hetero(pinned, (2,), pinned_gap, tol,
                           window=het.window, check_stability=False)
    assert abs(res2.c1q - 2 * het.c1) <= 1e-8


def test_renormalization_constants(het):
    assert het.c0 == pytest.approx(-2.0, abs=1e-12)
    assert het.c1 == het.c1q
    assert het.k1_empirical >= 0.0


# --- renormalized energy -----------------------------------------------------

def _strip(potential, gap0, q, W, base=None):
    """The strip window W with transverse periods q over the ground pair gap0."""
    return StripSystem(potential, q, W, *gap0.frame(potential, q), base=base)


def _kink_system(potential, u, gap0):
    """The base-free strip system on the window of the strip state u."""
    return _strip(potential, gap0, u.shape[1:], u.shape[0] // 2)


def _energy(potential, u, gap0):
    """The renormalized energy of the total strip state u on its own window."""
    return float(_kink_system(potential, u, gap0).energy(u))


def test_energy_of_both_endpoints(pinned, pinned_gap, het, het_gap):
    Iv = _energy(pinned, het_gap.lo, pinned_gap)
    Iw = _energy(pinned, het_gap.hi, pinned_gap)
    assert Iv == pytest.approx(het.c1q, abs=1e-12)
    assert abs(Iw - Iv) <= 1e-9


def test_energy_stable_under_window_doubling(pinned, pinned_gap, het):
    small = _energy(pinned, het.v1, pinned_gap)
    wide = _kink_system(pinned, het.v1, pinned_gap).total(het.v1, het.window)   # window 2W
    big = _energy(pinned, wide, pinned_gap)
    assert abs(big - small) <= 1e-9


def test_strip_gradient_matches_finite_differences(pinned, pinned_gap, het):
    system = _strip(pinned, pinned_gap, (1,), 10)
    rng = np.random.default_rng(8)
    x = np.clip(het.v1[het.window - 10:het.window + 11]
                + 0.05 * rng.standard_normal((21, 1)), -0.25, 0.75)
    g = system.grad(x)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        fd = (system.energy(x + e) - system.energy(x - e)) / (2 * h)
        assert g.flat[k] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_strip_hessian_matches_gradient_differences(pinned, pinned_gap):
    system = _strip(pinned, pinned_gap, (1,), 6)
    rng = np.random.default_rng(12)
    x = rng.uniform(-0.25, 0.75, size=system.shape)
    H = dense(system.hess_matrix(x))
    assert np.allclose(H, H.T, atol=1e-12)
    h = 1e-6
    for k in range(x.size):
        e = np.zeros_like(x)
        e.flat[k] = h
        fd = (system.grad(x + e) - system.grad(x - e)).ravel() / (2 * h)
        assert np.allclose(H[:, k], fd, atol=1e-5)


# --- the strip flow ----------------------------------------------------------

def test_flow_fixed_points(pinned, pinned_gap, het, het_gap):
    system = _strip(pinned, pinned_gap, (1,), het.window)
    for u in (het_gap.lo, het_gap.hi):
        out, _, _ = flow(system, u, 0.0, 0.5)
        assert np.max(np.abs(out - u)) < 1e-9


def test_flow_converges_from_box_seed(pinned, pinned_gap, tol, het, het_gap):
    rng = np.random.default_rng(3)
    _, width = het_gap.order_box(pinned)
    system = _strip(pinned, pinned_gap, (1,), het.window)
    u0 = het_gap.lo + rng.uniform(0, 1, size=width.shape) * width
    out, steps, res = flow(system, u0, tol)
    assert steps > 0 and res <= tol
    assert system.energy(out) <= system.energy(u0)


def test_strip_flow_comparison_and_box_invariance(pinned, pinned_gap, het_gap):
    system, width = het_gap.order_box(pinned)
    rng = np.random.default_rng(4)
    u1 = rng.uniform(0.0, 0.4, size=(6,) + width.shape) * width
    u2 = u1 + rng.uniform(0.1, 0.5, size=(6,) + width.shape) * width
    # strict order needs 1 - h H_ii >= 1/2, the step 1 / (2 L) of the
    # flow-comparison property, so flow the same energy stating 2 L; at
    # 1 / L the scheme is only monotone
    halved, _ = het_gap.order_box(SmallStepFK(2.0, amplitude=2.0))
    assert halved.dt_safe == pytest.approx(0.5 * system.dt_safe, rel=1e-12)
    both, _, _ = flow(halved, np.concatenate([u1, u2]), 0.0, 0.2)
    active = width > 1e-9
    assert np.all((both[6:] - both[:6])[:, active] > 0)
    seeds = rng.uniform(0, 1, size=(6,) + width.shape) * width
    out, _, _ = flow(system, seeds, 0.0, 0.2)
    assert np.min(out) >= -1e-10 and np.max(out - width) <= 1e-10


# --- gap pairs -----------------------------------------------------------------

def test_hetero_gap_is_translate(pinned, pinned_gap, het_gap):
    # w1(i) = v1(i + e_1): one layer to the left, the right tail entering
    assert np.array_equal(het_gap.hi[:-1], het_gap.lo[1:])
    assert np.all(het_gap.hi[-1] == pinned_gap.frame(pinned, (1,))[1])
    _, width = het_gap.order_box(pinned)
    assert np.min(width) >= -1e-9
    assert np.max(width) > 0.5
    assert het_gap.evidence["distinct_interior_minimizers"] == 0


def test_hetero_gap_free_chain(tol):
    free = make_potential("free-chain")
    # the free chain has no periodic gap either; hand it the unit box
    gap0 = GapPair(np.full((1, 1), 0.0), np.full((1, 1), 1.0))
    # its transition ramp never localizes: the window policy must diverge
    with pytest.raises(WindowError):
        minimize_hetero(free, (1,), gap0, tol)
    # on a fixed window the translate of the harmonic ramp is not stationary,
    # so no adjacent pair exists (the minimizer family is a continuum)
    fixed = minimize_hetero(free, (1,), gap0, tol, window=20,
                            check_stability=False)
    out = find_gap_pair_hetero(free, fixed, gap0, seed=0, tol=tol)
    assert out is None


def test_hetero_gap_deterministic(pinned, pinned_gap, tol, het):
    a = find_gap_pair_hetero(pinned, het, pinned_gap, seed=9, tol=tol)
    b = find_gap_pair_hetero(pinned, het, pinned_gap, seed=9, tol=tol)
    assert np.array_equal(a.lo, b.lo)
    assert a.evidence == b.evidence


# --- heteroclinic mountain pass ----------------------------------------------

def test_mph_barrier_positive(mph):
    assert mph.success
    assert mph.value - mph.c_ref > 1e-6
    assert mph.residual <= 1e-10


def test_mph_endpoints_at_ground_level(pinned, het_gap, het):
    system, width = het_gap.order_box(pinned)
    assert float(system.energy(np.zeros_like(width))) == pytest.approx(het.c1q, abs=1e-9)
    assert float(system.energy(width)) == pytest.approx(het.c1q, abs=1e-9)


def test_mph_critical_strictly_between(pinned, mph, het_gap):
    _, width = het_gap.order_box(pinned)
    active = width > 1e-9
    assert np.min(mph.critical[active]) > 0
    assert np.min((width - mph.critical)[active]) > 0


def test_mph_rejects_chains_off_the_box(pinned, het_gap, tol):
    # the strip checks its chain like the torus: pinned to 0 and w1 - v1,
    # nodes shaped like the window, and at least 3 of them
    _, width = het_gap.order_box(pinned)
    assert width.shape == (41, 1)
    with pytest.raises(PathError, match="pinned"):
        mountain_pass(pinned, het_gap, box_path(0.5 * width, 65), tol)
    with pytest.raises(PathError, match="at least 3 nodes"):
        mountain_pass(pinned, het_gap, np.zeros((9, 30, 1)), tol)
    with pytest.raises(PathError, match="at least 3 nodes"):
        mountain_pass_hetero(pinned, het_gap, tol, N=2)


def test_mph_heat_flow_certified(pinned, het_gap, tol, mph):
    heat = best_mountain_pass(pinned, het_gap, None, tol, mode="heat-flow", N=33)
    assert heat.success, heat.message
    assert abs(heat.value - mph.value) <= 1e-6
    _, width = het_gap.order_box(pinned)
    active = width > 1e-9
    assert np.min(heat.critical[active]) > 0
    assert np.min((width - heat.critical)[active]) > 0
    assert heat.value > heat.c_ref


def test_mph_stable_under_window_doubling(pinned, pinned_gap, tol, het, het_gap, mph):
    # the pair on the window 2W: the kink, and its translate
    big = _kink_system(pinned, het_gap.lo, pinned_gap).total(het_gap.lo, het.window)
    w1 = _kink_system(pinned, big, pinned_gap).total(big, 1)[2:]
    gap_big = GapPair(big, w1, dict(het_gap.evidence), ground=pinned_gap)
    mp_big = mountain_pass_hetero(pinned, gap_big, tol, N=65)
    assert abs(mp_big.value - mph.value) <= 1e-8


@pytest.fixture(scope="module")
def chain_gap(tol):
    """The 1-D chain's kink pair: a strip without transverse axes, q = ()."""
    chain = make_potential("pinned-fk", n=1)
    gap0 = find_gap_pair(chain, (1,), seed=3, tol=tol)
    het1 = minimize_hetero(chain, (), gap0, tol)
    return chain, find_gap_pair_hetero(chain, het1, gap0, seed=5, tol=tol)


def test_chain_kink_mountain_pass_is_the_strip_one(tol, mph, chain_gap):
    # the 1-D chain's strip has no transverse axis (q = ()): its column ramp
    # is the linear homotopy, and its kink barrier is the q = 1 strip's
    chain, gap1 = chain_gap
    assert gap1.periods == ()
    _, hi = gap1.order_box(chain)
    assert np.allclose(box_path(hi, 5, axis=1), np.linspace(0.0, 1.0, 5)[:, None] * hi)
    for res in (mountain_pass_hetero(chain, gap1, tol, N=65),
                best_mountain_pass(chain, gap1, tol=tol)):
        assert res.success, res.message
        assert abs(res.barrier - mph.barrier) <= 1e-9


def test_chain_empty_periods_are_the_pairs_own(tol, chain_gap):
    # the pair's order box, not a period check of its own, accepts q = ()
    chain, gap1 = chain_gap
    a = best_mountain_pass(chain, gap1, periods=(), tol=tol)
    b = best_mountain_pass(chain, gap1, periods=None, tol=tol)
    assert a.success and b.success
    assert a.value == b.value and a.residual == b.residual
    assert np.array_equal(a.critical, b.critical)
    assert np.array_equal(a.final_nodes, b.final_nodes)


def test_chain_scan_has_no_axis_to_scan(tol, chain_gap):
    chain, gap1 = chain_gap
    with pytest.raises(PathError, match="no periodic axis"):
        multiplicity_scan(chain, 3, gap1, tol)


# --- transverse periods and the strip scan ----------------------------------------

def _tiled(gap1, m):
    """The strip pair tiled m times across its transverse axis."""
    return GapPair(np.tile(gap1.lo, (1, m)), np.tile(gap1.hi, (1, m)), ground=gap1.ground)


@pytest.mark.parametrize("geometry", ["torus", "strip"])
def test_order_box_tiles_only_to_multiples_of_q(request, geometry):
    # a (2, 1) torus pair and a q = (2,) strip pair tile to multiples of their
    # periods only, and () is a period like any other, not the default
    if geometry == "torus":
        potential = request.getfixturevalue("classical")
        pair = GapPair(np.full((2, 1), -0.25), np.full((2, 1), 0.75))
        own, periods, reps = (2, 1), (4, 2), (2, 2)
        bad = ((3, 1), (4,), (), (0, 1), (-2, 1))
    else:
        potential = request.getfixturevalue("pinned")
        pair = _tiled(request.getfixturevalue("het_gap"), 2)
        own, periods, reps = (2,), (6,), (1, 3)
        bad = ((3,), (4, 1), (), (0,), (-2,))
    assert pair.periods == own
    system, hi = pair.order_box(potential, periods)
    assert system.shape == hi.shape == np.tile(pair.lo, reps).shape
    assert np.array_equal(hi, np.tile(pair.hi - pair.lo, reps))
    assert np.array_equal(system.base, np.tile(pair.lo, reps))
    for b in bad:
        with pytest.raises(PeriodError):
            pair.order_box(potential, periods=b)


def test_order_box_tiles_the_pair(pinned, het_gap):
    system, hi = het_gap.order_box(pinned, (2,))
    tiled = _tiled(het_gap, 2)
    old_system, old_hi = tiled.order_box(pinned)
    assert np.array_equal(hi, old_hi)
    assert np.array_equal(system.base, old_system.base)
    assert system.q == old_system.q == (2,)
    assert all(np.array_equal(a, b) for a, b in zip(system.tails, old_system.tails))
    assert system.c0 == old_system.c0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_framed_strip_is_the_scalar_tail_strip(pinned, het_gap, m):
    # the pair's strip, whose tails are the ground pair's arrays, against the
    # one the kernel probes build from scalar tails: equal bit for bit
    system, hi = het_gap.order_box(pinned, (m,))
    c0 = float(pinned.energy(np.full(pinned.nball, -0.25)))
    scalar = StripSystem(pinned, (m,), het_gap.lo.shape[0] // 2, -0.25, 0.75, c0,
                         base=np.tile(het_gap.lo, (1, m)))
    x = np.random.default_rng(m).uniform(0.0, 1.0, (4,) + hi.shape) * hi
    assert system.c0 == c0
    assert np.array_equal(system.energy(x), scalar.energy(x))
    assert np.array_equal(system.grad(x), scalar.grad(x))
    assert np.array_equal(system.hess_matrix(x[0]).blocks, scalar.hess_matrix(x[0]).blocks)


def test_frame_lays_the_ground_states_into_the_tails(pinned):
    # a ground pair of periods (1, 2) fills every tail layer with its own two
    # columns, tiled across q; one of axis-0 period 2 fills no single layer
    lo = np.array([[-0.3, -0.2]])
    ground = GapPair(lo, lo + 1.0)
    system = StripSystem(pinned, (4,), 3, *ground.frame(pinned, (4,)))
    m = system.stencil.ghosts
    total = system.total(np.zeros((2,) + system.shape))
    assert np.array_equal(total[:, :m], np.broadcast_to(np.tile(lo, (1, 2)), (2, m, 4)))
    assert np.array_equal(total[:, -m:], np.broadcast_to(np.tile(lo + 1.0, (1, 2)), (2, m, 4)))
    # c0 renormalizes the non-constant ground state to zero energy per layer
    left, _, c0 = ground.frame(pinned, (4,))
    flat = StripSystem(pinned, (4,), 3, left, left, c0)
    assert abs(flat.energy(np.broadcast_to(left, flat.shape))) <= 1e-12
    with pytest.raises(PeriodError, match="period 2"):
        GapPair(np.zeros((2, 1)), np.ones((2, 1))).frame(pinned, (1,))


def test_strip_refuses_tails_of_more_than_one_layer(pinned):
    # a tail is a scalar or one layer (1,) + q; two layers used to broadcast
    # into the ghost layers and give a gradient in the wrong phase
    ok = StripSystem(pinned, (1,), 3, [[0.0]], 1.0, 0.0)
    assert ok.grad(np.zeros((1,) + ok.shape)).shape == (1, 7, 1)
    for left, right, shape in (([[0.0], [0.1]], [[1.0], [1.1]], (2, 1)),
                               ([0.0], 1.0, (1,)), (0.0, [[1.0, 1.0]], (1, 2))):
        with pytest.raises(WindowError, match=r"shape \(1, 1\), not an array of "
                                              r"shape %s" % re.escape(repr(shape))):
            StripSystem(pinned, (1,), 3, left, right, 0.0)


def test_best_mountain_pass_on_the_strip_is_mph(pinned, het_gap, tol):
    # one start and one node rule: mph is best_mountain_pass on the pair's q
    a = best_mountain_pass(pinned, het_gap, tol=tol)
    b = mountain_pass_hetero(pinned, het_gap, tol)
    assert a.success and b.success
    assert len(b.final_nodes) == default_node_count(het_gap.periods) == 17
    assert a.value == b.value and a.c_ref == b.c_ref and a.residual == b.residual
    assert a.d_upper == b.d_upper and a.densified == b.densified
    assert np.array_equal(a.critical, b.critical)
    assert np.array_equal(a.final_nodes, b.final_nodes)


def test_strip_scan(pinned, het_gap, tol):
    scan = multiplicity_scan(pinned, 3, het_gap, tol)
    assert [r.k for r in scan.rows] == [1, 2, 3]
    for r in scan.rows:
        assert r.result.success, r.result.message
        assert 0 < r.result.barrier <= r.witness + 1e-6
        # each critical field on its own period
        assert r.result.critical.shape == (het_gap.lo.shape[0], r.k)
    assert abs(scan.rows[1].result.c_ref - 2 * scan.rows[0].result.c_ref) <= 1e-8
    D = scan.distances
    assert D.shape == (3, 3)
    assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0.0)
    assert sorted(scan.versus_first) == [1, 2, 3]
    assert scan.versus_first[1] == "equal"


def test_strip_column_from_the_ramp(pinned, het_gap, tol):
    # the staircase ramps mirror columns together and stalls at index-2
    # points near 8.0 from k = 4 on, which touch the box floor on sites
    # 1e-10 wide; the ramp reaches the column's index-1 saddles near 4.12
    scan = multiplicity_scan(pinned, 5, het_gap, tol)
    for r in scan.rows:
        assert r.result.success, (r.k, r.result.message)
        assert 0 < r.result.barrier <= r.witness + 1e-6
    assert scan.rows[3].result.barrier == pytest.approx(4.121897, abs=1e-6)
    assert scan.rows[4].result.barrier == pytest.approx(4.122281, abs=1e-6)


def test_long_strip_column_passes_the_gate(pinned, het_gap, tol):
    # at q = 16 the saddle's offsets fall below rounding away from its wall,
    # reading 0 on some sites; the closed-box gate accepts it at its level
    res = best_mountain_pass(pinned, het_gap, (16,), tol)
    assert res.success, res.message
    assert res.barrier == pytest.approx(4.12228314, abs=1e-8)


# --- asymptotics ---------------------------------------------------------------

def test_asymptotics_tags(pinned, pinned_gap, het):
    rep = asymptotics_report(het.v1, pinned_gap)
    assert rep.left_tag == "v0"
    assert rep.right_tag == "w0"
    assert rep.left_decay < 0 or np.all(het.v1[:3] == pinned_gap.lo)


def test_asymptotics_reversed_profile(pinned, pinned_gap, het):
    rep = asymptotics_report(het.v1[::-1], pinned_gap)
    assert rep.left_tag == "w0"
    assert rep.right_tag == "v0"
