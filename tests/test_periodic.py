import numpy as np
import pytest

from fk_saddle import (FlowParams, TorusField, box_maximize, find_gap_pair,
                       flow_field, gradient, is_birkhoff, local_energy,
                       make_potential, minimize_periodic, relative_energy,
                       torus_energy)
from fk_saddle.fields import PeriodError
from fk_saddle.periodic import NoGapError, PeriodicSystem, require_gap
from fk_saddle.semiflow import FlowError, flow, refine_critical


def test_torus_energy_values(classical):
    assert torus_energy(classical, TorusField.constant((1, 1), -0.25)) == pytest.approx(-1.0, abs=1e-12)
    assert torus_energy(classical, TorusField.constant((2, 1), -0.25)) == pytest.approx(-2.0, abs=1e-12)
    u = TorusField.constant((1, 1), 0.3)
    assert torus_energy(classical, u) == pytest.approx(
        local_energy(classical, u, (0, 0)), abs=1e-14)


def test_relative_energy_values(classical, gap):
    v0 = gap.v0
    p = (1, 1)
    assert relative_energy(classical, TorusField.constant(p, 0.0), v0) == pytest.approx(-1.0, abs=1e-12)
    w_minus_v = gap.w0 - gap.v0
    assert relative_energy(classical, w_minus_v, v0) == pytest.approx(-1.0, abs=1e-12)
    assert relative_energy(classical, TorusField.constant(p, 0.5), v0) == pytest.approx(1.0, abs=1e-12)


def test_relative_energy_period_mismatch(classical, gap):
    u = TorusField.constant((3, 1), 0.0)
    bad_v0 = TorusField.constant((2, 1), -0.25)
    with pytest.raises(PeriodError):
        relative_energy(classical, u, bad_v0)


def test_gradient_examples(classical, gap, params):
    # single-site derivative of the on-site term at the origin
    g = gradient(classical, TorusField.constant((1, 1), 0.25), gap.v0)
    assert g.values.flat[0] == pytest.approx(2 * np.pi, abs=1e-12)
    # stationarity of a converged minimizer offset
    res = minimize_periodic(classical, (2, 1), [0.3], params)
    off = res.best - gap.v0.extend((2, 1))
    assert np.linalg.norm(gradient(classical, off, gap.v0).values) <= params.stationarity_tol


def test_gradient_matches_finite_differences(classical, gap):
    rng = np.random.default_rng(5)
    p = (2, 2)
    u = TorusField(p, rng.uniform(-1, 2, size=p))
    g = gradient(classical, u, gap.v0)
    h = 1e-6
    for idx in np.ndindex(p):
        e = np.zeros(p)
        e[idx] = h
        fd = (relative_energy(classical, u + e, gap.v0)
              - relative_energy(classical, u - e, gap.v0)) / (2 * h)
        assert g.values[idx] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_flow_fixed_points(classical, gap, params):
    p = (2, 1)
    zero = TorusField.constant(p, 0.0)
    out, _ = flow_field(classical, zero, gap.v0,
                        params.with_(t_max=1.0, run_to_t_max=True))
    assert np.max(np.abs(out.values)) < 1e-9
    top = gap.box_field(p)
    out, _ = flow_field(classical, top, gap.v0,
                        params.with_(t_max=1.0, run_to_t_max=True))
    assert np.max(np.abs(out.values - top.values)) < 1e-9


def test_flow_converges_and_decreases_energy(classical, gap, params):
    rng = np.random.default_rng(11)
    p = (2, 1)
    u0 = TorusField(p, rng.uniform(0, 1, size=p))
    out, trace = flow_field(classical, u0, gap.v0, params)
    assert trace.residuals[-1] <= params.stationarity_tol
    es = np.array(trace.energies)
    assert np.all(np.diff(es) <= 1e-10)
    assert es[-1] <= es[0]


def test_minimize_single_cell(classical, params):
    res = minimize_periodic(classical, (1, 1), [0.0, 0.3, 0.6], params)
    assert res.c0p == pytest.approx(-1.0, abs=1e-10)
    assert res.best.values.flat[0] == pytest.approx(0.75, abs=1e-8)


def test_minimize_extension(classical, params):
    res = minimize_periodic(classical, (2, 1), [0.1, 0.6], params)
    assert res.c0p == pytest.approx(-2.0, abs=1e-10)
    # the minimizer is the single-cell minimizer extended
    assert np.max(np.abs(res.best.values - 0.75)) < 1e-8


@pytest.mark.parametrize("p", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_scaling_law(classical, params, p):
    res = minimize_periodic(classical, p, [0.1, 0.6], params)
    cells = int(np.prod(p))
    assert abs(res.c0p - cells * (-1.0)) <= 1e-9 * cells


def test_minimize_requires_seed(classical, params):
    with pytest.raises(Exception):
        minimize_periodic(classical, (1, 1), [], params)


def test_gap_pair_classical(gap):
    assert gap.v0.values.flat[0] == pytest.approx(-0.25, abs=1e-8)
    assert gap.w0.values.flat[0] == pytest.approx(0.75, abs=1e-8)
    assert gap.evidence["distinct_interior_minimizers"] == 0


def test_gap_pair_free_chain(params):
    free = make_potential("free-chain")
    assert find_gap_pair(free, (1, 1), seed=0, params=params) is None


def test_gap_pair_two_well(twowell, params):
    g = find_gap_pair(twowell, (1, 1), seed=1, params=params)
    assert g is not None
    width = g.w0.values - g.v0.values
    assert np.max(np.abs(width - 0.5)) < 1e-8


def test_require_gap_raises():
    with pytest.raises(NoGapError):
        require_gap(None)


def test_is_birkhoff(classical, params):
    assert is_birkhoff(TorusField.constant((3, 2), 0.4))
    res = minimize_periodic(classical, (2, 1), [0.3], params)
    assert is_birkhoff(res.best)
    bumped = TorusField((3, 1), np.array([[0.5], [0.1], [0.1]]))
    assert not is_birkhoff(bumped)


def test_box_maximize_single_cell(classical, gap, params):
    res = box_maximize(classical, gap, params=params)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.interior_residual <= params.stationarity_tol
    assert res.field.values.flat[0] == pytest.approx(0.5, abs=1e-8)


def test_box_maximize_two_cell(classical, gap, params):
    res = box_maximize(classical, gap, params=params, periods=(2, 1))
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.interior_residual <= params.stationarity_tol
    assert np.max(np.abs(res.field.values - 0.5)) < 1e-8
    assert res.lower_clipped_max_residual <= 1e-9
    assert res.upper_clipped_min_residual >= -1e-9


def test_box_maximize_rejects_oversized_dt(classical, gap):
    dt_safe = classical.dt_safe()
    with pytest.raises(FlowError, match="Lipschitz-safe"):
        box_maximize(classical, gap, params=FlowParams(dt=10 * dt_safe))


def test_box_maximize_zero_steps(classical, gap):
    # no ascent step at all: the seeds go straight to the Newton polish
    res = box_maximize(classical, gap, params=FlowParams(max_steps=0))
    assert res.iterations == 0
    assert 0.0 <= res.field.values.flat[0] <= 1.0
    assert res.interior_residual <= FlowParams().stationarity_tol


class _RecordingSystem:
    """A system that keeps every state its gradient is asked about."""

    def __init__(self, system):
        self.system = system
        self.states = []

    def grad(self, x):
        self.states.append(np.array(x))
        return self.system.grad(x)

    def hess_matrix(self, x):
        return self.system.hess_matrix(x)


@pytest.mark.parametrize("x0", [(0.0, 0.45), (1.0, 0.6), (0.0, 0.3)])
def test_refine_critical_in_box(classical, gap, x0):
    # site 0 sits on a face of the (2,1) box; from (0, 0.3) the full Newton
    # step overshoots and clipping puts site 1 on the upper face
    p = (2, 1)
    hi = gap.box_field(p).values
    system = _RecordingSystem(PeriodicSystem(classical, p, gap.v0.extend(p)))
    x0 = np.array(x0).reshape(p)
    tol = 1e-12
    x, res, ok = refine_critical(system, x0, tol, hi=hi)
    assert ok and res <= tol
    assert x[0, 0] == x0[0, 0]
    for state in system.states:
        assert np.all(state >= 0.0) and np.all(state <= hi)
    free = (x > 1e-9) & (x < hi - 1e-9)
    g = system.system.grad(x)
    assert np.max(np.abs(g[free]), initial=0.0) <= tol


def test_flow_comparison_order(classical, gap, params):
    # ordered initial data stays strictly ordered under the semiflow
    rng = np.random.default_rng(21)
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0.extend(p))
    u1 = rng.uniform(0.0, 0.45, size=(10,) + p)
    u2 = u1 + rng.uniform(0.05, 0.5, size=(10,) + p)
    fp = params.with_(t_max=0.25, run_to_t_max=True)
    both, _, _ = flow(system, np.concatenate([u1, u2]), fp)
    assert np.all(both[10:] - both[:10] > 0)


def test_strong_comparison_of_stationary_fields(classical, gap, params):
    p = (2, 1)
    res = minimize_periodic(
        classical, p,
        [TorusField((p), np.array([[0.1], [0.9]])),
         TorusField((p), np.array([[0.02], [0.6]])), 0.2, 0.9], params)
    flats = [f.values.ravel() for f in res.limits]
    for i in range(len(flats)):
        for j in range(len(flats)):
            d = flats[j] - flats[i]
            if np.all(d >= -1e-12) and np.max(np.abs(d)) > 1e-8:
                assert d.min() > 0


def test_box_invariance(classical, gap, params):
    rng = np.random.default_rng(9)
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.v0.extend(p))
    box = gap.box_field(p).values
    seeds = rng.uniform(0, 1, size=(20,) + p) * box
    fp = params.with_(t_max=1.0, run_to_t_max=True)
    out, _, _ = flow(system, seeds, fp)
    assert np.min(out) >= -1e-10
    assert np.max(out - box) <= 1e-10


def test_flow_rejects_oversized_dt(classical, gap):
    p = (1, 1)
    system = PeriodicSystem(classical, p, gap.v0)
    with pytest.raises(FlowError):
        flow(system, np.zeros(p), FlowParams(dt=1.0))


def test_minimize_work_count(classical, params, monkeypatch):
    # the Gershgorin step: (3,2) took 1,374 RK4 steps at 1 / (2 C nball^2)
    from fk_saddle import semiflow

    steps = []
    step = semiflow.rk4_step
    monkeypatch.setattr(semiflow, "rk4_step",
                        lambda *a, **k: steps.append(1) or step(*a, **k))
    p = (3, 2)
    res = minimize_periodic(classical, p,
                            [TorusField.constant(p, j / 8.0) for j in range(8)],
                            params)
    assert res.c0p == pytest.approx(-6.0, abs=1e-9)
    assert 0 < len(steps) <= 1374 // 10
