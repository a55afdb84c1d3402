import dataclasses
import json

import numpy as np
import pytest

from fk_saddle import (best_mountain_pass, chi_path, find_gap_pair,
                       intersects, mountain_pass, multiplicity_scan, phi_path)
from fk_saddle import mpp
from fk_saddle.cli import main
from fk_saddle.mpp import PathError, box_path
from fk_saddle.semiflow import refine_critical
from fk_saddle.verify import minimize_c0p
from fk_saddle.periodic import PeriodicSystem

# Exact saddle level on the two-cell torus for the textbook model: the
# bottleneck configurations have one column at its half-way point and the
# other displaced by exactly half a period, so the cosine terms cancel and
# only the spring term (1/4)(1/2)^2 remains.  Pinned once against the
# 2001-point bottleneck oracle.
REFERENCE_D21 = 0.0625

# The k = 3 scan rows, as the RK4 string gave them before the climbing string
# replaced it (three-site bottleneck oracles gave -0.815616, -1.813216 and
# 1.046696 on grids of spacing 1/160 and 1/120).
K3_LEVELS = {"classical": -0.8159966449038074, "pinned": -1.8142644051002965,
             "twowell": 1.046433898724926}


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
    # the ramp on a torus one column wide is the linear homotopy
    box = gap.box_field((1, 1))
    path = box_path(box, 3)
    assert np.allclose(path[1], box / 2)
    assert np.all(np.diff(path, axis=0) >= 0)


def test_chi_path_endpoints(gap):
    path = box_path(gap.box_field((4, 1)), 9, 4)
    assert np.all(path[0] == 0.0)
    assert np.allclose(path[-1], gap.box_field((4, 1)))


def test_ramp_moves_one_column_at_a_time():
    rng = np.random.default_rng(11)
    thetas = np.linspace(0.0, 1.0, 49)
    # one column: the linear homotopy, bit for bit, on a torus and a strip box
    for box, axis in ((rng.uniform(0.5, 1.0, (1, 1)), 0),
                      (rng.uniform(0.5, 1.0, (9, 1)), 1)):
        assert np.array_equal(box_path(box, 49, axis=axis),
                              thetas.reshape(-1, 1, 1) * box)
    for box, axis in ((rng.uniform(0.5, 1.0, (4, 1)), 0),
                      (rng.uniform(0.5, 1.0, (3, 2)), 0),
                      (rng.uniform(0.5, 1.0, (9, 3)), 1)):
        w = box.shape[axis]
        nodes = box_path(box, 49, axis=axis)
        assert np.all(np.diff(nodes, axis=0) >= 0)
        for j in range(w):
            col = np.take(nodes, j, axis=1 + axis)
            ref = np.take(box, j, axis=axis)
            # column j is 0 before theta = j/w and at the corner after (j+1)/w
            assert np.all(col[thetas <= j / w] == 0.0)
            assert np.all(col[thetas >= (j + 1) / w] == ref)
            inside = (thetas > j / w) & (thetas < (j + 1) / w)
            assert np.all((col[inside] > 0.0) & (col[inside] < ref))


def test_box_path_matches_the_per_theta_staircase():
    # one broadcast phi_k call builds the staircase; the per-theta loop it
    # replaced is the reference, on a torus box (axis 0) and a strip box (axis 1)
    rng = np.random.default_rng(5)
    thetas = np.linspace(0.0, 1.0, 41)
    for box, k, axis in ((rng.uniform(0.5, 1.0, (4, 1)), 4, 0),
                         (rng.uniform(0.5, 1.0, (4, 2)), 3, 0),
                         (rng.uniform(0.5, 1.0, (9, 3)), 3, 1)):
        prof = np.stack([phi_path(k, th, np.arange(box.shape[axis]))
                         for th in thetas])
        ref = np.expand_dims(prof, 2 - axis) * box
        assert np.array_equal(box_path(box, 41, k, axis), ref)
    assert np.array_equal(box_path(box[:, :1], 41, axis=1),
                          thetas[:, None, None] * box[:, :1])


def test_path_guards(classical, gap, params):
    with pytest.raises(PathError, match="at least 3 nodes"):
        best_mountain_pass(classical, gap, (1, 1), params, N=2)
    with pytest.raises(PathError):
        box_path(gap.box_field((2, 1)), 5, 1)


def test_chi_witness_uniform_bound(classical, gap, params):
    # evaluating the explicit staircase path on a theta grid bounds d - c
    # uniformly in k
    witnesses = []
    for k in range(2, 9):
        p = (k, 1)
        system = PeriodicSystem(classical, p, gap.v0)
        path = box_path(gap.box_field(p), 201, k)
        c0p = -float(k)
        witnesses.append(float(np.max(system.energy(path))) - c0p)
    m0 = max(witnesses)
    assert all(0 < w <= m0 for w in witnesses)
    assert m0 < 10.0  # a single desk-scale constant bounds the whole column


def test_clip_decreases_energy(classical, gap, params):
    rng = np.random.default_rng(17)
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0)
    box = gap.box_field(p)
    u = rng.uniform(-0.75, 1.75, size=(200,) + p) * box
    clipped = np.clip(u, 0, box)
    assert np.max(system.energy(clipped) - system.energy(u)) <= 1e-10


# --- the minimax engines ---------------------------------------------------

def test_mountain_pass_single_cell(classical, gap, params):
    res = best_mountain_pass(classical, gap, (1, 1), params, N=33)
    assert res.success
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.critical.flat[0] == pytest.approx(0.5, abs=1e-9)
    assert res.residual <= 1e-10


@pytest.fixture(scope="module")
def mp21(classical, gap, params):
    return best_mountain_pass(classical, gap, (2, 1), params, N=65)


def test_mountain_pass_two_cell_value(mp21):
    assert mp21.success
    assert mp21.value == pytest.approx(REFERENCE_D21, abs=1e-15)
    assert mp21.residual <= 1e-10
    # the chain certificate: d <= d_upper <= d0p + CHAIN_CERT_TOL
    assert REFERENCE_D21 <= mp21.d_upper <= mp21.value + 1e-6


def test_mountain_pass_two_cell_critical_field(classical, gap, mp21):
    from fk_saddle.model import residual_field

    crit = mp21.critical
    assert np.ptp(crit) > 1e-3          # non-constant
    box = gap.box_field((2, 1))
    assert np.min(crit) > 0 and np.min(box - crit) > 0
    # the axis-1 translate is a second critical point
    translate = np.roll(crit, 1, axis=0)
    full = translate + gap.v0
    assert np.max(np.abs(residual_field(classical, full))) <= 1e-10
    assert np.max(np.abs(translate - crit)) > 1e-3


def test_heat_flow_agrees(classical, gap, params, mp21):
    heat = best_mountain_pass(classical, gap, (2, 1), params, mode="heat-flow", N=65)
    assert heat.success
    assert abs(heat.value - mp21.value) <= 1e-6
    # certified like a node-flow saddle: strictly inside the box, above c0p
    box = gap.box_field((2, 1))
    assert np.min(heat.critical) > 0 and np.min(box - heat.critical) > 0
    assert heat.value > heat.c_ref


def test_critical_gate_names_the_failed_check(classical, gap, mp21):
    system, hi = gap.order_box(classical, (2, 1))
    x, e, c = mp21.critical, mp21.value, mp21.c_ref
    tol = 1e-10
    assert mpp._validate_critical(system, x, hi, e, c, tol) is None
    assert "floor" in mpp._validate_critical(system, 0.0 * x, hi, e, c, tol)
    assert "corner" in mpp._validate_critical(system, hi.copy(), hi, e, c, tol)
    assert "ground level" in mpp._validate_critical(system, x, hi, c, c, tol)


def test_critical_gate_is_relative_to_the_box_width(classical, gap):
    # a site of width 1e-10 (as on the pinned kink's box) holds a saddle at
    # 1e-15 strictly inside; only x = 0 touches the floor
    system, _ = gap.order_box(classical, (2, 1))
    hi = np.array([[1e-10], [0.5]])
    x = np.array([[1e-15], [0.25]])
    assert mpp._validate_critical(system, x, hi, 1.0, 0.0, 1e-10) is None
    x[0, 0] = 0.0
    assert "floor" in mpp._validate_critical(system, x, hi, 1.0, 0.0, 1e-10)


def test_check_chain_guards():
    hi = np.full((2, 1), 0.5)
    nodes = box_path(hi, 5)
    assert mpp.check_chain(nodes, hi) is not None
    with pytest.raises(PathError, match="at least 3 nodes"):
        mpp.check_chain(nodes[:2], hi)
    with pytest.raises(PathError, match=r"shaped \(N, 2, 1\)"):
        mpp.check_chain(np.zeros((5, 3, 1)), hi)
    with pytest.raises(PathError, match="pinned"):
        mpp.check_chain(box_path(0.5 * hi, 5), hi)
    with pytest.raises(PathError, match="pinned"):
        mpp.check_chain(nodes + 1e-9, hi)


def test_barrier_strictly_positive(mp21, params):
    assert mp21.value - mp21.c_ref > 10 * params.stationarity_tol


def test_no_non_climbing_node_rises(classical, gap, params, monkeypatch):
    # every sweep exempts only its climbing nodes, local maxima of the node
    # energies, from the energy guard (reference energy +inf): every other
    # interior node descends from its own energy
    steps = []
    step = mpp.guarded_step

    def record(system, x, dt, energy, k1=None):
        out = step(system, x, dt, energy, k1)
        steps.append((system.energy(x), energy, out[2]))
        return out

    monkeypatch.setattr(mpp, "guarded_step", record)
    res = best_mountain_pass(classical, gap, (2, 1), params, N=65)
    assert res.success and len(steps) == res.iterations
    climbed = 0
    for e, ref, after in steps:
        fixed = np.isfinite(ref)
        assert np.allclose(ref[fixed], e[fixed], rtol=0.0, atol=1e-12)
        assert np.all(after[fixed] <= e[fixed] + 1e-10)
        for m in np.flatnonzero(~fixed):
            assert e[m] >= e[max(m - 1, 0)] and e[m] >= e[min(m + 1, len(e) - 1)]
        climbed += np.count_nonzero(~fixed)
    assert climbed > 0


def test_node_flow_does_not_depend_on_dt(classical, gap, params):
    dt = PeriodicSystem(classical, (2, 1)).dt_safe
    runs = [best_mountain_pass(classical, gap, (2, 1), params.with_(dt=h), N=65)
            for h in (dt, dt / 8)]
    assert all(r.success for r in runs)
    for r in runs:
        assert r.value == pytest.approx(REFERENCE_D21, abs=1e-10)


def test_torn_chain_fails_the_certificate(classical, gap, params, mp21, monkeypatch):
    p = (2, 1)
    system, hi = gap.order_box(classical, p)
    # I(hi - x) = I(x), so the saddles come in pairs; take the one near the
    # far corner and jump from the ground state straight to it, across the
    # higher ridge, then on to the far corner
    saddle = max(mp21.critical, hi - mp21.critical, key=np.sum)
    nodes = np.stack([np.zeros(p), saddle, hi])
    ridge = float(system.energy(0.5 * saddle))
    assert ridge > mp21.value + 0.5
    # without reparametrization the tear cannot heal, yet Newton still
    # refines the climbing node to the saddle: the certificate must refuse
    # success, and its bound still covers the chain
    monkeypatch.setattr(mpp, "_reparametrize", lambda chain, fixed: chain)
    res = mpp._minimax_node_flow(system, nodes, hi, params)
    assert not res.success
    assert "not certified" in res.message
    assert res.d_upper >= ridge


def test_a_lower_critical_point_fails_the_certificate(classical, gap, params, monkeypatch):
    # on the (3, 1) torus one column half-way up and two near the ground is
    # a critical point 0.12 below d.  The string from the column ramp has
    # its top near d, so a Newton step that lands on the lower point is
    # within 10% of the barrier from it, but the chain through the point
    # rises above it
    system, _ = gap.order_box(classical, (3, 1))
    low, res, ok = refine_critical(system, np.array([[0.5], [0.01], [0.01]]), 1e-12)
    assert ok and float(system.energy(low)) == pytest.approx(-0.937102, abs=1e-6)
    monkeypatch.setattr(mpp, "refine_critical", lambda *a, **k: (low.copy(), res, True))
    result = mpp.best_mountain_pass(classical, gap, (3, 1), params, N=49)
    assert not result.success
    assert "not certified" in result.message
    assert result.d_upper > K3_LEVELS["classical"]


def test_monotone_path_preserved(classical, gap, params):
    from fk_saddle.semiflow import rk4_step

    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0)
    nodes = box_path(gap.box_field(p), 33)
    for _ in range(200):
        nodes[1:-1], _ = rk4_step(system, nodes[1:-1], system.dt_safe)
    assert np.min(np.diff(nodes, axis=0)) >= -1e-12


def test_endpoints_never_move(mp21, gap):
    assert np.all(mp21.final_nodes[0] == 0.0)
    assert np.array_equal(mp21.final_nodes[-1], gap.box_field((2, 1)))


def test_mountain_pass_guards(classical, gap, params):
    path = box_path(gap.box_field((1, 1)), 9)
    with pytest.raises(PathError):
        mountain_pass(classical, gap, path, params, mode="quench")
    bad = path + 0.25
    with pytest.raises(PathError):
        mountain_pass(classical, gap, bad, params)


def test_mountain_pass_reads_the_torus_from_the_nodes(classical, gap, params):
    # a path is its node array: too few nodes or the wrong rank is a PathError,
    # and a (3, 1) chain is checked against the (3, 1) box, not another torus
    path = box_path(gap.box_field((2, 1)), 9)
    for bad in (path[:2], path[..., 0], path[..., None]):
        with pytest.raises(PathError, match="at least 3 nodes"):
            mountain_pass(classical, gap, bad, params)
    with pytest.raises(PathError, match="pinned"):
        mountain_pass(classical, gap, np.zeros((9, 3, 1)), params)


# --- order classification ------------------------------------------------------

def test_intersects_classification():
    v = np.array([[0.3], [0.6]])
    assert intersects(v, v) == "equal"
    assert intersects(v - 1.0, v) == "below"
    assert intersects(v + 1.0, v) == "above"
    crossing = np.array([[0.4], [0.5]])
    assert intersects(crossing, v) == "cross"
    touch = np.array([[0.3], [0.5]])
    assert intersects(touch, v) == "touch-below"
    assert intersects(v, touch) == "touch-above"


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
    # pairs of critical fields more than 1e-3 apart after shift normalization
    pairs = np.count_nonzero(np.triu(scan6.distances > 1e-3, k=1))
    assert pairs >= 2


def test_scan_crossings(scan6):
    assert scan6.versus_first[1] == "equal"
    assert all(scan6.versus_first[k] == "cross" for k in range(2, 7))


def test_scan_c_is_the_lower_corner_level(classical, gap, scan6):
    for row in scan6.rows:
        system, hi = gap.order_box(classical, (row.k, 1))
        assert row.c == float(system.energy(np.zeros_like(hi)))


def test_scan_witness_bounds_the_barrier(scan6):
    for row in scan6.rows:
        assert row.barrier <= row.witness + 1e-9
    assert max(row.witness for row in scan6.rows) == pytest.approx(4.125, abs=1e-9)


def test_shift_orbit_distance_matches_every_shift_of_the_common_period():
    # the old loop tiled both fields to lcm(1..k_max) columns and rolled
    # through every shift; gcd(k, m) shifts over lcm(k, m) columns give the
    # same number bit for bit, on a torus axis and on a strip axis
    rng = np.random.default_rng(4)
    L = 24
    for axis, shape in ((-2, lambda k: (k, 1)), (-1, lambda k: (5, k))):
        fields = {k: rng.standard_normal(shape(k)) for k in (3, 4, 6, 8)}
        for k, a in fields.items():
            for m, b in fields.items():
                ea = np.concatenate([a] * (L // k), axis=axis)
                eb = np.concatenate([b] * (L // m), axis=axis)
                ref = min(float(np.max(np.abs(np.roll(ea, s, axis=axis) - eb)))
                          for s in range(L))
                assert mpp._shift_orbit_distance(a, b, axis) == ref


@pytest.mark.parametrize("how", ["raises", "unsuccessful"])
def test_a_failed_scan_row_is_reported_and_the_scan_goes_on(
        classical, gap, params, monkeypatch, tmp_path, how):
    # row 2's mountain pass raises, or returns a result that failed its gate
    real = mpp.best_mountain_pass

    def failing(potential, gap, periods=None, *args, **kwargs):
        if periods[0] != 2:
            return real(potential, gap, periods, *args, **kwargs)
        if how == "raises":
            raise PathError("row two broke")
        res = real(potential, gap, periods, *args, **kwargs)
        return dataclasses.replace(res, success=False, message="row two broke")

    monkeypatch.setattr(mpp, "best_mountain_pass", failing)
    rows = multiplicity_scan(classical, 3, gap, params).rows
    assert [r.k for r in rows] == [1, 2, 3]
    assert not rows[1].ok and rows[1].message == "row two broke"
    for r in (rows[0], rows[2]):
        assert r.ok and r.message == ""
        assert np.isfinite([r.c, r.d, r.d_upper, r.witness, r.residual]).all()

    out = tmp_path / "scan.json"
    assert main(["multiplicity", "--model", "classical-fk", "--kmax", "3",
                 "--seed", "3", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["errors"] == ["one or more scan rows failed"]
    assert [r["ok"] for r in data["tables"]["rows"]] == [True, False, True]
    assert data["tables"]["rows"][1]["message"] == "row two broke"


@pytest.mark.parametrize("model", sorted(K3_LEVELS))
def test_k3_rows_keep_their_level(request, params, model):
    pot = request.getfixturevalue(model)
    gap = find_gap_pair(pot, (1, 1), seed=3, params=params)
    row = multiplicity_scan(pot, 3, gap, params).rows[2]
    assert row.ok
    assert row.d == pytest.approx(K3_LEVELS[model], abs=1e-9)
    assert row.d <= row.d_upper <= row.d + 1e-6
    assert row.densified > 0


def test_minimize_c0p_matches_scaling(classical, gap, params):
    assert minimize_c0p(classical, gap, (3, 1), params) == pytest.approx(-3.0, abs=1e-9)
