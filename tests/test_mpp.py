import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fk_saddle import (best_mountain_pass, chi_path, find_gap_pair,
                       intersects, make_potential, mountain_pass,
                       multiplicity_scan, phi_path)
from fk_saddle import mpp
from fk_saddle.cli import main
from fk_saddle.defaults import COMPARE_TOL
from fk_saddle.fields import BandedHessian
from fk_saddle.mpp import PathError, box_path
from fk_saddle.semiflow import refine_critical
from fk_saddle.verify import minimize_c0p
from fk_saddle.periodic import PeriodicSystem

from helper_models import SmallStepFK

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

def test_linear_path_midpoint(classical, gap):
    # the ramp on a torus one column wide is the linear homotopy
    box = gap.order_box(classical, (1, 1))[1]
    path = box_path(box, 3)
    assert np.allclose(path[1], box / 2)
    assert np.all(np.diff(path, axis=0) >= 0)


def test_chi_path_endpoints(classical, gap):
    box = gap.order_box(classical, (4, 1))[1]
    path = box_path(box, 9, 4)
    assert np.all(path[0] == 0.0)
    assert np.allclose(path[-1], box)


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


def test_path_guards(classical, gap, tol):
    with pytest.raises(PathError, match="at least 3 nodes"):
        best_mountain_pass(classical, gap, (1, 1), tol, N=2)
    with pytest.raises(PathError):
        box_path(gap.order_box(classical, (2, 1))[1], 5, 1)


def test_chi_witness_uniform_bound(classical, gap):
    # evaluating the explicit staircase path on a theta grid bounds d - c
    # uniformly in k
    witnesses = []
    for k in range(2, 9):
        p = (k, 1)
        system, box = gap.order_box(classical, p)
        path = box_path(box, 201, k)
        c0p = -float(k)
        witnesses.append(float(np.max(system.energy(path))) - c0p)
    m0 = max(witnesses)
    assert all(0 < w <= m0 for w in witnesses)
    assert m0 < 10.0  # a single desk-scale constant bounds the whole column


def test_clip_decreases_energy(classical, gap):
    rng = np.random.default_rng(17)
    p = (2, 1)
    system, box = gap.order_box(classical, p)
    u = rng.uniform(-0.75, 1.75, size=(200,) + p) * box
    clipped = np.clip(u, 0, box)
    assert np.max(system.energy(clipped) - system.energy(u)) <= 1e-10


# --- the minimax engines ---------------------------------------------------

def test_mountain_pass_single_cell(classical, gap, tol):
    res = best_mountain_pass(classical, gap, (1, 1), tol, N=33)
    assert res.success
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.critical.flat[0] == pytest.approx(0.5, abs=1e-9)
    assert res.residual <= 1e-10


@pytest.fixture(scope="module")
def mp21(classical, gap, tol):
    return best_mountain_pass(classical, gap, (2, 1), tol, N=65)


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
    box = gap.order_box(classical, (2, 1))[1]
    assert np.min(crit) > 0 and np.min(box - crit) > 0
    # the axis-1 translate is a second critical point
    translate = np.roll(crit, 1, axis=0)
    full = translate + gap.lo
    assert np.max(np.abs(residual_field(classical, full))) <= 1e-10
    assert np.max(np.abs(translate - crit)) > 1e-3


def test_heat_flow_agrees(classical, gap, tol, mp21):
    heat = best_mountain_pass(classical, gap, (2, 1), tol, mode="heat-flow", N=65)
    assert heat.success
    assert abs(heat.value - mp21.value) <= 1e-6
    # certified like a node-flow saddle: strictly inside the box, above c0p
    box = gap.order_box(classical, (2, 1))[1]
    assert np.min(heat.critical) > 0 and np.min(box - heat.critical) > 0
    assert heat.value > heat.c_ref


class _Cosine:
    """One site with energy -cos(8 pi x) and its exact step bound 1 / (8 pi)^2.
    On the box [0, 1] its minima sit at 0, 1/4, ..., 1 and its maxima, the
    edges between them, at 1/8, 3/8, 5/8 and 7/8, all at level 1."""

    lattice_ndim = 1
    K = 8 * np.pi
    dt_safe = 1.0 / K ** 2

    def energy(self, x):
        return np.sum(-np.cos(self.K * x), axis=-1)

    def grad(self, x):
        return self.K * np.sin(self.K * x)

    def hess_matrix(self, x):
        block = self.K ** 2 * np.cos(self.K * x[0])
        return BandedHessian(np.array([0.0, block, 0.0]).reshape(1, 3, 1, 1), 1)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_heat_flow_bisection_finds_basins_between_nodes(N, tol, monkeypatch):
    # too few nodes to sample every basin: a tear's multisection lands in a
    # basin that no node reached, and the tear is split across it (the first
    # N members classified are the nodes)
    new = []
    classify = mpp._classify_flow

    def spy(system, X, reps, energy=None):
        out = classify(system, X, reps, energy)
        new.extend(member[3] for member in out)
        return out

    monkeypatch.setattr(mpp, "_classify_flow", spy)
    res = mpp._minimax_heat_flow(_Cosine(), np.linspace(0.0, 1.0, N)[:, None],
                                 np.ones(1), tol)
    assert any(new[N:])
    assert res.success, res.message
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_a_classify_batch_equals_one_flow_at_a_time(monkeypatch):
    # the members stop at different steps: 1e-6 starts inside the basin of 0
    # and takes no step, 0.2 founds the basin of 1/4, and the rest flow into
    # the basin of 1/2, two of them from next to the edge at 3/8
    system = _Cosine()
    X = np.array([[1e-6], [0.2], [0.45], [0.38], [0.3751], [0.6]])
    sizes = []
    step = mpp.guarded_step

    def spy(system, x, *args, **kwargs):
        sizes.append(len(x))
        return step(system, x, *args, **kwargs)

    monkeypatch.setattr(mpp, "guarded_step", spy)
    reps = [np.zeros(1), np.full(1, 0.5)]
    batch = mpp._classify_flow(system, X, reps)
    assert sizes[0] == len(X) - 1 and len(set(sizes)) >= 3
    assert [m[0] for m in batch] == [0, 2, 1, 1, 1, 1]
    assert [m[3] for m in batch] == [False, True, False, False, False, False]
    single_reps = [np.zeros(1), np.full(1, 0.5)]
    for member, x in zip(batch, X):
        (label, dip_x, dip_r, is_new), = mpp._classify_flow(system, x[None], single_reps)
        assert (member[0], member[2], member[3]) == (label, dip_r, is_new)
        assert np.array_equal(member[1], dip_x)
    assert all(np.array_equal(a, b) for a, b in zip(reps, single_reps))
    assert len(reps) == len(single_reps) == 3


# Heat-flow values and critical fields of the one-at-a-time bisection engine
# that the batched classify flows replaced, recorded at full precision.
with open(Path(__file__).with_name("heat_flow_levels.json")) as fh:
    HEAT_FLOW_LEVELS = json.load(fh)


@pytest.mark.parametrize("name", sorted(HEAT_FLOW_LEVELS))
def test_heat_flow_keeps_its_levels(request, tol, name):
    # the torus cases take the gap pair of ``seed``; the strip cases the
    # pinned-fk kink's gap pair at q = 1, on ``nodes`` nodes
    case = HEAT_FLOW_LEVELS[name]
    if case["periods"] is None:
        potential, gap = (request.getfixturevalue(f) for f in ("pinned", "het_gap"))
    else:
        potential = make_potential(case["model"])
        gap = find_gap_pair(potential, (1, 1), seed=case["seed"], tol=tol)
    res = best_mountain_pass(potential, gap, case["periods"], tol,
                             mode="heat-flow", N=case["nodes"])
    assert res.success, res.message
    assert abs(res.value - case["value"]) <= 1e-12
    assert np.max(np.abs(res.critical.ravel() - case["critical"])) <= 1e-10


def test_heat_flow_classifies_in_batches(classical, tol, monkeypatch):
    # the 33 settled nodes are one batch, and each multisection round one
    # more: on the (2,1) torus both tears resolve in three rounds
    calls = []
    classify = mpp._classify_flow

    def spy(system, X, *args):
        calls.append(len(X))
        return classify(system, X, *args)

    monkeypatch.setattr(mpp, "_classify_flow", spy)
    gap = find_gap_pair(classical, (1, 1), seed=7, tol=tol)
    res = best_mountain_pass(classical, gap, (2, 1), tol, mode="heat-flow", N=33)
    assert res.success, res.message
    assert len(calls) <= 4
    assert calls[0] == 33


def test_heat_flow_counts_the_tears_it_cannot_resolve(classical, tol, monkeypatch):
    # with every Newton failing no tear resolves, and a tear ends only when it
    # narrows below 1e-14: the two tears between the 33 nodes split into four,
    # which all end after 21 rounds ((1/32) / 4^21 < 1e-14)
    calls = []
    classify = mpp._classify_flow

    def spy(system, X, *args):
        calls.append(len(X))
        return classify(system, X, *args)

    monkeypatch.setattr(mpp, "_classify_flow", spy)
    monkeypatch.setattr(mpp, "refine_critical", lambda system, x, tol: (x, 1.0, False))
    gap = find_gap_pair(classical, (1, 1), seed=7, tol=tol)
    res = best_mountain_pass(classical, gap, (2, 1), tol, mode="heat-flow", N=33)
    assert not res.success and res.message == "4 unresolved tears"
    assert len(calls) == 22 and calls[0] == 33


def test_critical_gate_names_the_failed_check(classical, gap, mp21):
    _, hi = gap.order_box(classical, (2, 1))
    x, e, c = mp21.critical, mp21.value, mp21.c_ref
    tol = 1e-10
    assert mpp._validate_critical(x, hi, e, c, tol) is None
    assert "ground level" in mpp._validate_critical(x, hi, c, c, tol)
    # pushed past the floor or the corner by more than COMPARE_TOL, a point
    # is refused, and the message says by how much
    for site, value, over in ((0, -3e-9, "3e-09"), (1, hi.flat[1] + 2e-6, "2e-06")):
        pushed = x.copy()
        pushed.flat[site] = value
        assert "lies %s outside the box" % over in mpp._validate_critical(
            pushed, hi, e, c, tol)


def test_critical_gate_is_the_closed_box():
    # a site of width 1e-10 (as on the pinned kink's box) may hold the point
    # anywhere within COMPARE_TOL of [0, hi], floor and corner included: the
    # level, not the sites, tells a saddle from a corner, and strong
    # comparison puts the exact critical point strictly inside
    hi = np.array([[1e-10], [0.5]])
    x = np.array([[1e-15], [0.25]])
    for value in (1e-15, 0.0, -0.5 * COMPARE_TOL, 1e-10 + 0.5 * COMPARE_TOL):
        x[0, 0] = value
        assert mpp._validate_critical(x, hi, 1.0, 0.0, 1e-10) is None


# Long periods: the saddle is a domain of flipped columns whose offsets fall
# below rounding a few columns from its wall; its barrier is saturated
LONG_BARRIERS = {"classical": 2.185555254, "twowell": 1.046629798,
                 "pinned": 4.186519192}


@pytest.mark.parametrize("model", sorted(LONG_BARRIERS))
def test_long_period_rows_pass_the_gate(request, tol, model):
    pot = request.getfixturevalue(model)
    gap = find_gap_pair(pot, (1, 1), seed=3, tol=tol)
    for k in (20, 24, 64):
        res = best_mountain_pass(pot, gap, (k, 1), tol)
        assert res.success, (k, res.message)
        assert res.barrier == pytest.approx(LONG_BARRIERS[model], abs=1e-9)


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


def test_barrier_strictly_positive(mp21, tol):
    assert mp21.value - mp21.c_ref > 10 * tol


def test_no_non_climbing_node_rises(classical, gap, tol, monkeypatch):
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
    res = best_mountain_pass(classical, gap, (2, 1), tol, N=65)
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


def test_node_flow_does_not_depend_on_dt(classical, gap, tol):
    # the same energy stating 8 L flows at dt / 8
    small = SmallStepFK(8.0)
    assert PeriodicSystem(small, (2, 1)).dt_safe == pytest.approx(
        PeriodicSystem(classical, (2, 1)).dt_safe / 8, rel=1e-12)
    runs = [best_mountain_pass(pot, gap, (2, 1), tol, N=65)
            for pot in (classical, small)]
    assert all(r.success for r in runs)
    for r in runs:
        assert r.value == pytest.approx(REFERENCE_D21, abs=1e-10)


def test_torn_chain_fails_the_certificate(classical, gap, tol, mp21, monkeypatch):
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
    res = mpp._minimax_node_flow(system, nodes, hi, tol)
    assert not res.success
    assert "not certified" in res.message
    assert res.d_upper >= ridge


def test_a_lower_critical_point_fails_the_certificate(classical, gap, tol, monkeypatch):
    # on the (3, 1) torus one column half-way up and two near the ground is
    # a critical point 0.12 below d.  The string from the column ramp has
    # its top near d, so a Newton step that lands on the lower point is
    # within 10% of the barrier from it, but the chain through the point
    # rises above it
    system, _ = gap.order_box(classical, (3, 1))
    low, res, ok = refine_critical(system, np.array([[0.5], [0.01], [0.01]]), 1e-12)
    assert ok and float(system.energy(low)) == pytest.approx(-0.937102, abs=1e-6)
    monkeypatch.setattr(mpp, "refine_critical", lambda *a, **k: (low.copy(), res, True))
    result = mpp.best_mountain_pass(classical, gap, (3, 1), tol, N=49)
    assert not result.success
    assert "not certified" in result.message
    assert result.d_upper > K3_LEVELS["classical"]


def test_monotone_path_preserved(classical, gap):
    from fk_saddle.semiflow import rk4_step

    p = (2, 1)
    system, box = gap.order_box(classical, p)
    nodes = box_path(box, 33)
    for _ in range(200):
        nodes[1:-1], _ = rk4_step(system, nodes[1:-1], system.dt_safe)
    assert np.min(np.diff(nodes, axis=0)) >= -1e-12


def test_endpoints_never_move(classical, mp21, gap):
    assert np.all(mp21.final_nodes[0] == 0.0)
    assert np.array_equal(mp21.final_nodes[-1], gap.order_box(classical, (2, 1))[1])


def test_mountain_pass_guards(classical, gap, tol):
    path = box_path(gap.order_box(classical, (1, 1))[1], 9)
    with pytest.raises(PathError):
        mountain_pass(classical, gap, path, tol, mode="quench")
    bad = path + 0.25
    with pytest.raises(PathError):
        mountain_pass(classical, gap, bad, tol)


def test_mountain_pass_reads_the_torus_from_the_nodes(classical, gap, tol):
    # a path is its node array: too few nodes or the wrong rank is a PathError,
    # and a (3, 1) chain is checked against the (3, 1) box, not another torus
    path = box_path(gap.order_box(classical, (2, 1))[1], 9)
    for bad in (path[:2], path[..., 0], path[..., None]):
        with pytest.raises(PathError, match="at least 3 nodes"):
            mountain_pass(classical, gap, bad, tol)
    with pytest.raises(PathError, match="pinned"):
        mountain_pass(classical, gap, np.zeros((9, 3, 1)), tol)


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
def scan6(classical, gap, tol):
    return multiplicity_scan(classical, 6, gap, tol)


def test_scan_rows_converged(scan6):
    assert all(row.result.success for row in scan6.rows)
    assert all(row.result.residual <= 1e-10 for row in scan6.rows)


def test_scan_barrier_bounded(scan6):
    barriers = [row.result.barrier for row in scan6.rows]
    assert all(b > 1e-6 for b in barriers)
    assert max(barriers) <= 4.5  # one desk-scale constant for the whole column


def test_scan_k1_barrier_is_two(scan6):
    row = scan6.rows[0]
    assert row.k == 1
    assert row.result.barrier == pytest.approx(2.0, abs=1e-8)


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
        assert row.result.c_ref == float(system.energy(np.zeros_like(hi)))


def test_scan_witness_bounds_the_barrier(scan6):
    for row in scan6.rows:
        assert row.result.barrier <= row.witness + 1e-9
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
        classical, gap, tol, monkeypatch, tmp_path, how):
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
    rows = multiplicity_scan(classical, 3, gap, tol).rows
    assert [r.k for r in rows] == [1, 2, 3]
    assert not rows[1].result.success and rows[1].result.message == "row two broke"
    # a row whose mountain pass raised has NaN levels and no critical field
    assert (rows[1].result.critical is None) == (how == "raises")
    assert np.isnan([rows[1].result.value, rows[1].witness]).all() == (how == "raises")
    for r in (rows[0], rows[2]):
        assert r.result.success and r.result.message == ""
        assert np.isfinite([r.result.c_ref, r.result.value, r.result.d_upper,
                            r.witness, r.result.residual]).all()

    out = tmp_path / "scan.json"
    assert main(["multiplicity", "--model", "classical-fk", "--kmax", "3",
                 "--seed", "3", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["errors"] == ["one or more scan rows failed"]
    assert [r["ok"] for r in data["tables"]["rows"]] == [True, False, True]
    broke = data["tables"]["rows"][1]
    assert broke["message"] == "row two broke"
    levels = [broke[key] for key in ("c0p", "d0p", "barrier", "witness")]
    assert np.isnan(levels).all() == (how == "raises")


@pytest.mark.parametrize("model", sorted(K3_LEVELS))
def test_k3_rows_keep_their_level(request, tol, model):
    pot = request.getfixturevalue(model)
    gap = find_gap_pair(pot, (1, 1), seed=3, tol=tol)
    res = multiplicity_scan(pot, 3, gap, tol).rows[2].result
    assert res.success
    assert res.value == pytest.approx(K3_LEVELS[model], abs=1e-9)
    assert res.value <= res.d_upper <= res.value + 1e-6
    assert res.densified > 0


def test_minimize_c0p_matches_scaling(classical, gap, tol):
    assert minimize_c0p(classical, gap, (3, 1), tol) == pytest.approx(-3.0, abs=1e-9)
