import numpy as np
import pytest

from fk_saddle import (HeteroGapPair, asymptotics_report, best_mountain_pass,
                       find_gap_pair, find_gap_pair_hetero, make_potential,
                       minimize_hetero, mountain_pass, mountain_pass_hetero,
                       multiplicity_scan)
from fk_saddle.defaults import default_node_count
from fk_saddle.fields import PeriodError, WindowError
from fk_saddle.hetero import _strip_system
from fk_saddle.mpp import PathError, box_path
from fk_saddle.semiflow import flow

from helper_models import dense

# Heteroclinic ground levels at window half-width 40, frozen from an
# independent brute-force route (L-BFGS-B on the windowed renormalized
# energy with analytic gradient).
BRUTE_FORCE_C1 = {
    "classical-fk": 0.123446117685522,
    "pinned-fk": 0.124215843651504,
}


# --- minimization ---------------------------------------------------------------

def test_minimize_profile_and_level(pinned, het):
    assert het.c1q > 0
    prof = het.v1[:, 0]
    assert het.v1.shape == (2 * het.window + 1, 1)
    assert np.all(np.diff(prof) >= -1e-12)   # monotone kink
    assert het.tail_bound < 1e-10
    assert het.tails[0] == pytest.approx(-0.25, abs=1e-12)
    assert het.tails[1] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_C1))
def test_c1_matches_brute_force_oracle(name, params):
    pot = make_potential(name)
    gap0 = find_gap_pair(pot, (1, 1), seed=3, params=params)
    res = minimize_hetero(pot, (1,), gap0, params, window=40,
                          check_stability=False)
    assert res.c1q == pytest.approx(BRUTE_FORCE_C1[name], abs=1e-12)


def test_window_doubling_stability(het):
    assert het.stability <= 1e-9


def test_negative_window_is_a_window_error(pinned, pinned_gap, params):
    with pytest.raises(WindowError, match="half-width must be >= 0, got -1"):
        minimize_hetero(pinned, (1,), pinned_gap, params, window=-1)


def test_transverse_scaling(pinned, pinned_gap, params, het):
    res2 = minimize_hetero(pinned, (2,), pinned_gap, params,
                           window=het.window, check_stability=False)
    assert abs(res2.c1q - 2 * het.c1) <= 1e-8


def test_renormalization_constants(het):
    assert het.c0 == pytest.approx(-2.0, abs=1e-12)
    assert het.c1 == het.c1q
    assert het.k1_empirical >= 0.0


# --- renormalized energy -----------------------------------------------------

def _kink_system(potential, u, gap0):
    """The base-free strip system on the window of the strip state u."""
    return _strip_system(potential, u.shape[1:], u.shape[0] // 2, gap0)


def _energy(potential, u, gap0):
    """The renormalized energy of the total strip state u on its own window."""
    return float(_kink_system(potential, u, gap0).energy(u))


def test_energy_of_both_endpoints(pinned, pinned_gap, het, het_gap):
    Iv = _energy(pinned, het_gap.v1, pinned_gap)
    Iw = _energy(pinned, het_gap.w1, pinned_gap)
    assert Iv == pytest.approx(het.c1q, abs=1e-12)
    assert abs(Iw - Iv) <= 1e-9


def test_energy_stable_under_window_doubling(pinned, pinned_gap, het):
    small = _energy(pinned, het.v1, pinned_gap)
    wide = _kink_system(pinned, het.v1, pinned_gap).total(het.v1, het.window)   # window 2W
    big = _energy(pinned, wide, pinned_gap)
    assert abs(big - small) <= 1e-9


def test_strip_gradient_matches_finite_differences(pinned, pinned_gap, het):
    system = _strip_system(pinned, (1,), 10, pinned_gap)
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
    system = _strip_system(pinned, (1,), 6, pinned_gap)
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

def test_flow_fixed_points(pinned, pinned_gap, params, het, het_gap):
    fp = params.with_(t_max=0.5, stationarity_tol=0.0)
    system = _strip_system(pinned, (1,), het.window, pinned_gap)
    for u in (het_gap.v1, het_gap.w1):
        out, _, _ = flow(system, u, fp)
        assert np.max(np.abs(out - u)) < 1e-9


def test_flow_converges_from_box_seed(pinned, pinned_gap, params, het, het_gap):
    rng = np.random.default_rng(3)
    _, width = het_gap.order_box(pinned)
    system = _strip_system(pinned, (1,), het.window, pinned_gap)
    u0 = het_gap.v1 + rng.uniform(0, 1, size=width.shape) * width
    out, steps, res = flow(system, u0, params)
    assert steps > 0 and res <= params.stationarity_tol
    assert system.energy(out) <= system.energy(u0)


def test_strip_flow_comparison_and_box_invariance(pinned, pinned_gap, params, het_gap):
    system, width = het_gap.order_box(pinned)
    rng = np.random.default_rng(4)
    u1 = rng.uniform(0.0, 0.4, size=(6,) + width.shape) * width
    u2 = u1 + rng.uniform(0.1, 0.5, size=(6,) + width.shape) * width
    fp = params.with_(t_max=0.2, stationarity_tol=0.0)
    # strict order needs 1 - h H_ii >= 1/2, the step 1 / (2 L) of the
    # flow-comparison property; at 1 / L the scheme is only monotone
    both, _, _ = flow(system, np.concatenate([u1, u2]), fp.with_(dt=0.5 * system.dt_safe))
    active = width > 1e-9
    assert np.all((both[6:] - both[:6])[:, active] > 0)
    seeds = rng.uniform(0, 1, size=(6,) + width.shape) * width
    out, _, _ = flow(system, seeds, fp)
    assert np.min(out) >= -1e-10 and np.max(out - width) <= 1e-10


# --- gap pairs -----------------------------------------------------------------

def test_hetero_gap_is_translate(pinned, het, het_gap):
    # w1(i) = v1(i + e_1): one layer to the left, the right tail entering
    assert np.array_equal(het_gap.w1[:-1], het_gap.v1[1:])
    assert np.all(het_gap.w1[-1] == het.tails[1])
    _, width = het_gap.order_box(pinned)
    assert np.min(width) >= -1e-9
    assert np.max(width) > 0.5
    assert het_gap.evidence["distinct_interior_minimizers"] == 0


def test_hetero_gap_free_chain(params):
    free = make_potential("free-chain")
    from fk_saddle.periodic import GapPair

    # the free chain has no periodic gap either; hand it the unit box
    gap0 = GapPair(v0=np.full((1, 1), 0.0), w0=np.full((1, 1), 1.0))
    # its transition ramp never localizes: the window policy must diverge
    with pytest.raises(WindowError):
        minimize_hetero(free, (1,), gap0, params)
    # on a fixed window the translate of the harmonic ramp is not stationary,
    # so no adjacent pair exists (the minimizer family is a continuum)
    fixed = minimize_hetero(free, (1,), gap0, params, window=20,
                            check_stability=False)
    out = find_gap_pair_hetero(free, fixed, gap0, seed=0, params=params)
    assert out is None


def test_hetero_gap_deterministic(pinned, pinned_gap, params, het):
    a = find_gap_pair_hetero(pinned, het, pinned_gap, seed=9, params=params)
    b = find_gap_pair_hetero(pinned, het, pinned_gap, seed=9, params=params)
    assert np.array_equal(a.v1, b.v1)
    assert a.evidence == b.evidence


# --- heteroclinic mountain pass ----------------------------------------------

def test_mph_barrier_positive(mph):
    assert mph.success
    assert mph.value - mph.c_ref > 1e-6
    assert mph.residual <= 1e-10


def test_mph_endpoints_at_ground_level(pinned, het_gap, het, params):
    system, width = het_gap.order_box(pinned)
    assert float(system.energy(np.zeros_like(width))) == pytest.approx(het.c1q, abs=1e-9)
    assert float(system.energy(width)) == pytest.approx(het.c1q, abs=1e-9)


def test_mph_critical_strictly_between(pinned, mph, het_gap):
    _, width = het_gap.order_box(pinned)
    active = width > 1e-9
    assert np.min(mph.critical[active]) > 0
    assert np.min((width - mph.critical)[active]) > 0


def test_mph_rejects_chains_off_the_box(pinned, het_gap, params):
    # the strip checks its chain like the torus: pinned to 0 and w1 - v1,
    # nodes shaped like the window, and at least 3 of them
    _, width = het_gap.order_box(pinned)
    assert width.shape == (41, 1)
    with pytest.raises(PathError, match="pinned"):
        mountain_pass(pinned, het_gap, box_path(0.5 * width, 65), params)
    with pytest.raises(PathError, match="at least 3 nodes"):
        mountain_pass(pinned, het_gap, np.zeros((9, 30, 1)), params)
    with pytest.raises(PathError, match="at least 3 nodes"):
        mountain_pass_hetero(pinned, het_gap, params, N=2)


def test_mph_heat_flow_certified(pinned, het_gap, params, mph):
    heat = mountain_pass_hetero(pinned, het_gap, params, N=33, mode="heat-flow")
    assert heat.success, heat.message
    assert abs(heat.value - mph.value) <= 1e-6
    _, width = het_gap.order_box(pinned)
    active = width > 1e-9
    assert np.min(heat.critical[active]) > 0
    assert np.min((width - heat.critical)[active]) > 0
    assert heat.value > heat.c_ref


def test_mph_rejects_unknown_mode(pinned, het_gap, params):
    with pytest.raises(PathError, match="unknown mode 'warp'"):
        mountain_pass_hetero(pinned, het_gap, params, N=9, mode="warp")


def test_mph_stable_under_window_doubling(pinned, pinned_gap, params, het, het_gap, mph):
    # the pair on the window 2W: the kink, and its translate
    big = _kink_system(pinned, het_gap.v1, pinned_gap).total(het_gap.v1, het.window)
    w1 = _kink_system(pinned, big, pinned_gap).total(big, 1)[2:]
    gap_big = type(het_gap)(v1=big, w1=w1, gap0=pinned_gap, evidence=dict(het_gap.evidence))
    mp_big = mountain_pass_hetero(pinned, gap_big, params, N=65)
    assert abs(mp_big.value - mph.value) <= 1e-8


@pytest.fixture(scope="module")
def chain_gap(params):
    """The 1-D chain's kink pair: a strip without transverse axes, q = ()."""
    chain = make_potential("pinned-fk", n=1)
    gap0 = find_gap_pair(chain, (1,), seed=3, params=params)
    het1 = minimize_hetero(chain, (), gap0, params)
    return chain, find_gap_pair_hetero(chain, het1, gap0, seed=5, params=params)


def test_chain_kink_mountain_pass_is_the_strip_one(params, mph, chain_gap):
    # the 1-D chain's strip has no transverse axis (q = ()): its column ramp
    # is the linear homotopy, and its kink barrier is the q = 1 strip's
    chain, gap1 = chain_gap
    assert gap1.periods == ()
    _, hi = gap1.order_box(chain)
    assert np.allclose(box_path(hi, 5, axis=1), np.linspace(0.0, 1.0, 5)[:, None] * hi)
    for res in (mountain_pass_hetero(chain, gap1, params, N=65),
                best_mountain_pass(chain, gap1, params=params)):
        assert res.success, res.message
        assert abs(res.barrier - mph.barrier) <= 1e-9


def test_chain_empty_periods_are_the_pairs_own(params, chain_gap):
    # the pair's order box, not a period check of its own, accepts q = ()
    chain, gap1 = chain_gap
    a = best_mountain_pass(chain, gap1, periods=(), params=params)
    b = best_mountain_pass(chain, gap1, periods=None, params=params)
    assert a.success and b.success
    assert a.value == b.value and a.residual == b.residual
    assert np.array_equal(a.critical, b.critical)
    assert np.array_equal(a.final_nodes, b.final_nodes)


def test_chain_scan_has_no_axis_to_scan(params, chain_gap):
    chain, gap1 = chain_gap
    with pytest.raises(PathError, match="no periodic axis"):
        multiplicity_scan(chain, 3, gap1, params)


# --- transverse periods and the strip scan ----------------------------------------

def _tiled(gap1, m):
    """The strip pair tiled m times across its transverse axis."""
    return HeteroGapPair(v1=np.tile(gap1.v1, (1, m)), w1=np.tile(gap1.w1, (1, m)),
                         gap0=gap1.gap0)


def test_order_box_tiles_only_to_multiples_of_q(pinned, het_gap):
    pair = _tiled(het_gap, 2)
    assert pair.periods == (2,)
    system, hi = pair.order_box(pinned, periods=(6,))
    assert system.q == (6,) and system.half_width == het_gap.v1.shape[0] // 2
    assert np.array_equal(hi, np.tile(pair.w1 - pair.v1, (1, 3)))
    for bad in ((3,), (4, 1), (), (0,), (-2,)):
        with pytest.raises(PeriodError):
            pair.order_box(pinned, periods=bad)


def test_order_box_tiles_the_pair(pinned, het_gap):
    system, hi = het_gap.order_box(pinned, (2,))
    tiled = _tiled(het_gap, 2)
    old_system, old_hi = tiled.order_box(pinned)
    assert np.array_equal(hi, old_hi)
    assert np.array_equal(system.base, old_system.base)
    assert system.q == old_system.q == (2,)
    assert system.tails == old_system.tails and system.c0 == old_system.c0


def test_best_mountain_pass_on_the_strip_is_mph(pinned, het_gap, params):
    # one start and one node rule: mph is best_mountain_pass on the pair's q
    a = best_mountain_pass(pinned, het_gap, params=params)
    b = mountain_pass_hetero(pinned, het_gap, params)
    assert a.success and b.success
    assert len(b.final_nodes) == default_node_count(het_gap.periods) == 17
    assert a.value == b.value and a.c_ref == b.c_ref and a.residual == b.residual
    assert a.d_upper == b.d_upper and a.densified == b.densified
    assert np.array_equal(a.critical, b.critical)
    assert np.array_equal(a.final_nodes, b.final_nodes)


def test_strip_scan(pinned, het_gap, params):
    scan = multiplicity_scan(pinned, 3, het_gap, params)
    assert [r.k for r in scan.rows] == [1, 2, 3]
    for r in scan.rows:
        assert r.ok, r.message
        assert 0 < r.barrier <= r.witness + 1e-6
    assert abs(scan.rows[1].c - 2 * scan.rows[0].c) <= 1e-8
    for k, crit in scan.criticals.items():
        assert crit.shape == (het_gap.v1.shape[0], k)   # each on its own period
    D = scan.distances
    assert D.shape == (3, 3)
    assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0.0)
    assert sorted(scan.versus_first) == [1, 2, 3]
    assert scan.versus_first[1] == "equal"


def test_strip_column_from_the_ramp(pinned, het_gap, params):
    # the staircase ramps mirror columns together and stalls at index-2
    # points near 8.0 from k = 4 on, which touch the box floor on sites
    # 1e-10 wide; the ramp reaches the column's index-1 saddles near 4.12
    scan = multiplicity_scan(pinned, 5, het_gap, params)
    for r in scan.rows:
        assert r.ok, (r.k, r.message)
        assert 0 < r.barrier <= r.witness + 1e-6
    assert scan.rows[3].barrier == pytest.approx(4.121897, abs=1e-6)
    assert scan.rows[4].barrier == pytest.approx(4.122281, abs=1e-6)


# --- asymptotics ---------------------------------------------------------------

def test_asymptotics_tags(pinned, pinned_gap, het):
    rep = asymptotics_report(het.v1, pinned_gap)
    assert rep.left_tag == "v0"
    assert rep.right_tag == "w0"
    assert rep.left_decay < 0 or np.all(rep.dist_to_v0[:3] == 0.0)


def test_asymptotics_reversed_profile(pinned, pinned_gap, het):
    rep = asymptotics_report(het.v1[::-1], pinned_gap)
    assert rep.left_tag == "w0"
    assert rep.right_tag == "v0"
