import numpy as np
import pytest

from fk_saddle import (TorusField, build_initial_path, chi_path, clip_to_box,
                       intersects, minimax_over_unconstrained_paths_check,
                       mountain_pass, multiplicity_scan, phi_path, theta_bounds)
from fk_saddle import mpp
from fk_saddle.mpp import PathError, PathOnBox, _chain_top, minimize_c0p
from fk_saddle.periodic import PeriodicSystem
from fk_saddle.semiflow import FlowError

# Exact saddle level on the two-cell torus for the textbook model: the
# bottleneck configurations have one column at its half-way point and the
# other displaced by exactly half a period, so the cosine terms cancel and
# only the spring term (1/4)(1/2)^2 remains.  Pinned once against the
# 2001-point bottleneck oracle.
REFERENCE_D21 = 0.0625


# --- staircase profiles -----------------------------------------------------

def test_chi_branch_values():
    assert chi_path(4, 0.5, 0) == pytest.approx(0.5)
    assert chi_path(4, 1.0, 1) == 0.0
    assert chi_path(4, (4 + 5) / 2, 2) == 1.0


def test_chi_domain_and_k_guards():
    with pytest.raises(PathError):
        chi_path(1, 0.0, 0)
    with pytest.raises(PathError):
        chi_path(4, 4.6, 0)


def test_phi_endpoints_and_rescaling():
    for k in range(2, 9):
        i = np.arange(-k, 2 * k)
        assert np.all(phi_path(k, 0.0, i) == 0.0)
        assert np.all(phi_path(k, 1.0, i) == 1.0)
    assert phi_path(4, 2 / 9, 0) == 1.0


def test_phi_monotone_symmetric_periodic():
    ths = np.linspace(0, 1, 101)
    for k in range(2, 9):
        for i in range(k):
            v = phi_path(k, ths, i)
            assert np.all(np.diff(v) >= -1e-12)
            assert np.all((v >= 0) & (v <= 1))
        for th in (0.23, 0.61, 0.94):
            assert np.allclose(phi_path(k, th, np.arange(k)),
                               phi_path(k, th, np.arange(k) + k))
            assert phi_path(k, th, 1) == phi_path(k, th, -1)


# --- paths on the box ---------------------------------------------------------

def test_linear_path_midpoint(gap):
    path = build_initial_path("linear", 3, None, gap, (2, 1))
    box = gap.box_field((2, 1)).values
    assert np.allclose(path.nodes[1], box / 2)
    assert path.monotone


def test_chi_path_endpoints(gap):
    path = build_initial_path("chi", 9, 4, gap, (4, 1))
    assert np.all(path.nodes[0] == 0.0)
    assert np.allclose(path.nodes[-1], gap.box_field((4, 1)).values)


def test_path_guards(gap):
    with pytest.raises(PathError):
        build_initial_path("linear", 2, None, gap)
    with pytest.raises(PathError):
        build_initial_path("chi", 5, 1, gap)
    with pytest.raises(PathError):
        build_initial_path("spline", 5, None, gap)


def test_chi_witness_uniform_bound(classical, gap, params):
    # evaluating the explicit staircase path on a theta grid bounds d - c
    # uniformly in k
    witnesses = []
    for k in range(2, 9):
        p = (k, 1)
        system = PeriodicSystem(classical, p, gap.v0.extend(p))
        path = build_initial_path("chi", 201, k, gap, p)
        c0p = -float(k)
        witnesses.append(float(np.max(system.energy(path.nodes))) - c0p)
    m0 = max(witnesses)
    assert all(0 < w <= m0 for w in witnesses)
    assert m0 < 10.0  # a single desk-scale constant bounds the whole column


def test_clip_to_box(classical, gap):
    p = (2, 1)
    box = gap.box_field(p).values
    inside = TorusField(p, 0.5 * box)
    assert np.array_equal(clip_to_box(inside, gap).values, inside.values)
    doubled = TorusField(p, 2.0 * box)
    assert np.array_equal(clip_to_box(doubled, gap).values, box)
    clipped = clip_to_box(doubled, gap)
    assert np.array_equal(clip_to_box(clipped, gap).values, clipped.values)


def test_clip_decreases_energy(classical, gap, params):
    rng = np.random.default_rng(17)
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0.extend(p))
    box = gap.box_field(p).values
    u = rng.uniform(-0.75, 1.75, size=(200,) + p) * box
    clipped = np.clip(u, 0, box)
    assert np.max(system.energy(clipped) - system.energy(u)) <= 1e-10


# --- the minimax engines ---------------------------------------------------

def test_mountain_pass_single_cell(classical, gap, params):
    path = build_initial_path("linear", 33, None, gap, (1, 1))
    res = mountain_pass(classical, gap, path, params)
    assert res.success
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.critical.flat[0] == pytest.approx(0.5, abs=1e-9)
    assert res.residual <= 1e-10


@pytest.fixture(scope="module")
def mp21(classical, gap, params):
    path = build_initial_path("chi", 65, 2, gap, (2, 1))
    return mountain_pass(classical, gap, path, params)


def test_mountain_pass_two_cell_value(mp21):
    assert mp21.success
    assert mp21.value == pytest.approx(REFERENCE_D21, abs=1e-9)
    assert mp21.residual <= 1e-10


def test_mountain_pass_two_cell_critical_field(classical, gap, mp21):
    from fk_saddle.model import residual_field

    crit = mp21.critical
    assert np.ptp(crit) > 1e-3          # non-constant
    box = gap.box_field((2, 1)).values
    assert np.min(crit) > 0 and np.min(box - crit) > 0
    # the axis-1 translate is a second critical point
    translate = np.roll(crit, 1, axis=0)
    full = translate + gap.v0.extend((2, 1)).values
    assert np.max(np.abs(residual_field(classical, full))) <= 1e-10
    assert np.max(np.abs(translate - crit)) > 1e-3


def test_heat_flow_agrees(classical, gap, params, mp21):
    path = build_initial_path("chi", 65, 2, gap, (2, 1))
    heat = mountain_pass(classical, gap, path, params, mode="heat-flow")
    assert heat.success
    assert abs(heat.value - mp21.value) <= 1e-6


def test_barrier_strictly_positive(mp21, params):
    assert mp21.value - mp21.c_ref > 10 * params.stationarity_tol


def test_value_trace_nonincreasing_between_reparams(mp21):
    # every flow step is checked against the string max it started from, which
    # follows the reparametrization (interpolation can bump the discrete max)
    trace = mp21.value_trace
    starts = mp21.flow_start_trace
    assert len(starts) == len(trace) - 1 == mp21.iterations
    assert starts[0] == trace[0]
    for m in range(1, len(trace)):
        assert trace[m] <= starts[m - 1] + 1e-10


def test_node_flow_does_not_depend_on_dt(classical, gap, params):
    path = build_initial_path("chi", 65, 2, gap, (2, 1))
    dt = PeriodicSystem(classical, (2, 1)).dt_safe
    runs = [mountain_pass(classical, gap, path, params.with_(dt=h))
            for h in (dt, dt / 8)]
    assert all(r.success for r in runs)
    for r in runs:
        assert r.value == pytest.approx(REFERENCE_D21, abs=1e-10)


def test_torn_chain_is_flagged(classical, gap, params, mp21, monkeypatch):
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0.extend(p))
    hi = gap.box_field(p).values
    c_ref = float(system.energy(np.zeros(p)))
    assert not _chain_top(system, mp21.final_nodes,
                          system.energy(mp21.final_nodes), c_ref)[1]
    # one jump from the ground state straight to the saddle, across the
    # higher ridge, then on to the far corner
    nodes = np.stack([np.zeros(p), mp21.critical, hi])
    ridge = float(system.energy(0.5 * mp21.critical))
    assert ridge > mp21.value + 0.5
    top, torn = _chain_top(system, nodes, system.energy(nodes), c_ref)
    assert torn and top >= ridge
    # without reparametrization the tear cannot heal, yet Newton still
    # refines the top node to the saddle: the guard must refuse success
    monkeypatch.setattr(mpp, "_reparametrize", lambda chain: chain)
    res = mpp._minimax_node_flow(system, nodes, hi, params)
    assert not res.success
    assert "torn" in res.message
    assert res.string_value >= ridge


def test_monotone_path_preserved(classical, gap, params):
    from fk_saddle.semiflow import rk4_step

    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0.extend(p))
    path = build_initial_path("chi", 33, 2, gap, p)
    nodes = path.nodes.copy()
    for _ in range(200):
        nodes[1:-1], _ = rk4_step(system, nodes[1:-1], system.dt_safe)
    assert np.min(np.diff(nodes, axis=0)) >= -1e-12


def test_endpoints_never_move(mp21, gap):
    assert np.all(mp21.final_nodes[0] == 0.0)
    assert np.array_equal(mp21.final_nodes[-1], gap.box_field((2, 1)).values)


def test_mountain_pass_guards(classical, gap, params):
    path = build_initial_path("linear", 9, None, gap, (1, 1))
    with pytest.raises(PathError):
        mountain_pass(classical, gap, path, params, mode="quench")
    bad = PathOnBox((1, 1), path.nodes + 0.25)
    with pytest.raises(PathError):
        mountain_pass(classical, gap, bad, params)


def test_unconstrained_paths_check(classical, gap, params):
    report = minimax_over_unconstrained_paths_check(
        classical, gap, (2, 1), params, seed=4)
    assert report["all_agree"]
    assert {f["variant"] for f in report["findings"]} == {"scaled-1.5", "bumped"}
    for f in report["findings"]:
        assert f["delta"] <= 1e-6


# --- theta tracking ---------------------------------------------------------

def test_theta_bounds_bracket_midpoint(classical, gap, params):
    p = (2, 1)
    path = build_initial_path("linear", 33, None, gap, p)
    u0 = TorusField.constant(p, 0.5)
    tb = theta_bounds(classical, gap, path, u0, 0.0, params)
    assert tb.under[0] <= 0.5 <= tb.over[0]
    assert abs(tb.under[0] - 0.5) <= 1 / 32 + 1e-12
    assert abs(tb.over[0] - 0.5) <= 1 / 32 + 1e-12


def test_theta_bounds_monotone_in_time(classical, gap, params, mp21):
    p = (2, 1)
    u0 = TorusField(p, mp21.critical)
    path = build_initial_path("chi", 65, 2, gap, p)
    tb = theta_bounds(classical, gap, path, u0, [0.0, 0.05, 0.1, 0.2, 0.4], params)
    assert np.all(np.diff(tb.under) >= -1e-12)
    assert np.all(np.diff(tb.over) <= 1e-12)
    assert np.all(tb.under <= tb.over + 1e-12)


def test_theta_bounds_plateau(classical, gap, params, mp21):
    p = (2, 1)
    u0 = TorusField(p, mp21.critical)
    box = gap.box_field(p).values
    N = 21
    nodes = []
    for m in range(N):
        th = m / (N - 1)
        if th < 0.3:
            nodes.append(u0.values * (th / 0.3))
        elif th <= 0.7:
            nodes.append(u0.values.copy())
        else:
            nodes.append(u0.values + (box - u0.values) * (th - 0.7) / 0.3)
    path = PathOnBox(p, np.array(nodes), monotone=True)
    tb = theta_bounds(classical, gap, path, u0, 0.0, params)
    assert tb.under[0] == pytest.approx(0.3, abs=1e-12)
    assert tb.over[0] == pytest.approx(0.7, abs=1e-12)


def test_theta_bounds_guards(classical, gap, params):
    p = (2, 1)
    path = build_initial_path("linear", 9, None, gap, p)
    outside = TorusField.constant(p, 1.5)
    with pytest.raises(PathError):
        theta_bounds(classical, gap, path, outside, 0.0, params)
    loose = PathOnBox(p, path.nodes, monotone=False)
    with pytest.raises(PathError):
        theta_bounds(classical, gap, loose, TorusField.constant(p, 0.5), 0.0, params)
    # a step budget too small for the horizon is an error, not an early answer
    with pytest.raises(FlowError, match="budget"):
        theta_bounds(classical, gap, path, TorusField.constant(p, 0.5), 1.0,
                     params.with_(max_steps=5))


# --- order classification ------------------------------------------------------

def test_intersects_classification():
    p = (2, 1)
    v = TorusField(p, np.array([[0.3], [0.6]]))
    assert intersects(v, v) == "equal"
    assert intersects(v - 1.0, v) == "below"
    assert intersects(v + 1.0, v) == "above"
    crossing = TorusField(p, np.array([[0.4], [0.5]]))
    assert intersects(crossing, v) == "cross"
    touch = TorusField(p, np.array([[0.3], [0.5]]))
    assert intersects(touch, v) == "touch-below"
    assert intersects(v, touch) == "touch-above"


def test_intersects_different_periods():
    a = TorusField.constant((1, 1), 0.2)
    b = TorusField((2, 1), np.array([[0.1], [0.3]]))
    assert intersects(a, b) == "cross"


# --- multiplicity ------------------------------------------------------------

@pytest.fixture(scope="module")
def scan6(classical, gap, params):
    return multiplicity_scan(classical, 6, gap, params)


def test_scan_rows_converged(scan6):
    assert all(row.ok for row in scan6.rows)
    assert all(row.residual <= 1e-10 for row in scan6.rows)


def test_scan_barrier_bounded(scan6):
    barriers = [row.barrier for row in scan6.rows]
    assert all(b > 1e-6 for b in barriers)
    assert max(barriers) <= 4.5  # one desk-scale constant for the whole column


def test_scan_k1_barrier_is_two(scan6):
    row = scan6.rows[0]
    assert row.k == 1
    assert row.barrier == pytest.approx(2.0, abs=1e-8)


def test_scan_fields_distinct(scan6):
    pairs = scan6.distinct_pairs(tol=1e-3)
    assert len(pairs) >= 2


def test_scan_crossings(scan6):
    assert scan6.versus_first[1] == "equal"
    assert all(scan6.versus_first[k] == "cross" for k in range(2, 7))


def test_minimize_c0p_matches_scaling(classical, gap, params):
    assert minimize_c0p(classical, gap, (3, 1), params) == pytest.approx(-3.0, abs=1e-9)
