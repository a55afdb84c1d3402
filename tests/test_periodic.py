import numpy as np
import pytest

from fk_saddle import find_gap_pair, make_potential, minimize_periodic
from fk_saddle.fields import BandedHessian, PeriodError
from fk_saddle.model import ModelError, PluginPotential
from fk_saddle.periodic import NoGapError, PeriodicSystem
from fk_saddle.semiflow import (FlowError, flow, flow_to_stationarity,
                                refine_critical)
from fk_saddle.verify import run_property_suite

from helper_models import local_energy


def test_torus_energy_values(classical):
    for p, level in (((1, 1), -1.0), ((2, 1), -2.0)):
        energy = PeriodicSystem(classical, p).energy(np.full(p, -0.25))
        assert energy == pytest.approx(level, abs=1e-12)
    u = np.full((1, 1), 0.3)
    assert PeriodicSystem(classical, (1, 1)).energy(u) == pytest.approx(
        local_energy(classical, u, (0, 0)), abs=1e-14)


def test_relative_energy_values(classical, gap):
    p = (1, 1)
    system = PeriodicSystem(classical, p, gap.lo)
    assert system.energy(np.zeros(p)) == pytest.approx(-1.0, abs=1e-12)
    w_minus_v = gap.hi - gap.lo
    assert system.energy(w_minus_v) == pytest.approx(-1.0, abs=1e-12)
    assert system.energy(np.full(p, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_relative_energy_period_mismatch(classical, gap):
    # a (2,1) reference does not extend to the (3,1) torus
    bad_v0 = np.full((2, 1), -0.25)
    with pytest.raises(PeriodError):
        PeriodicSystem(classical, (3, 1), bad_v0)


def test_gradient_examples(classical, gap, tol):
    # single-site derivative of the on-site term at the origin
    g = PeriodicSystem(classical, (1, 1), gap.lo).grad(np.full((1, 1), 0.25))
    assert g.flat[0] == pytest.approx(2 * np.pi, abs=1e-12)
    # stationarity of a converged minimizer offset
    p = (2, 1)
    res = minimize_periodic(classical, p, [0.3], tol)
    off = res.best - gap.lo
    g = PeriodicSystem(classical, p, gap.lo).grad(off)
    assert np.linalg.norm(g) <= tol


def test_gradient_matches_finite_differences(classical, gap):
    rng = np.random.default_rng(5)
    p = (2, 2)
    system = PeriodicSystem(classical, p, gap.lo)
    x = rng.uniform(-1, 2, size=p)
    g = system.grad(x)
    h = 1e-6
    for idx in np.ndindex(p):
        e = np.zeros(p)
        e[idx] = h
        fd = (system.energy(x + e) - system.energy(x - e)) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_flow_fixed_points(classical, gap):
    p = (2, 1)
    system, top = gap.order_box(classical, p)
    out, _, _ = flow(system, np.zeros(p), 0.0, 1.0)
    assert np.max(np.abs(out)) < 1e-9
    out, _, _ = flow(system, top, 0.0, 1.0)
    assert np.max(np.abs(out - top)) < 1e-9


def test_flow_converges_and_decreases_energy(classical, gap, tol):
    rng = np.random.default_rng(11)
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.lo)
    x0 = rng.uniform(0, 1, size=p)
    out, steps, res = flow(system, x0, tol)
    assert steps > 0 and res <= tol
    assert res == pytest.approx(np.linalg.norm(system.grad(out)), rel=1e-12)
    assert system.energy(out) <= system.energy(x0)


def test_flow_horizon_short_of_stationarity_raises():
    # a horizon too short to reach stationarity is an error, not an early
    # answer: at a = 1e-3 the one step is cut to t = FLOW_T_MAX = 200 and
    # ends at residual 8e-4
    system = _Quadratic(a=1e-3)
    with pytest.raises(FlowError,
                       match=r"within t_max=200 \(1 steps, last residual 0\.0008\)"):
        flow_to_stationarity(system, np.array([1.0]))


def test_a_nan_state_is_a_flow_error(classical, gap, tol):
    # a NaN residual never counts as stationary: the flow steps, and the
    # step's energy check raises
    system = PeriodicSystem(classical, (2, 1), gap.lo)
    with pytest.raises(FlowError, match="NaN"):
        flow(system, np.full((2, 1), np.nan), tol)


def test_flow_steps_at_dt_safe_up_to_t_max(classical, gap):
    # t_max is the only horizon: whole steps of dt_safe, the last one cut
    # short to land on it
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.lo)
    for horizon, count in ((5.0, 5), (2.5, 3)):
        _, steps, _ = flow(system, np.array([[0.4], [0.2]]), 0.0,
                           horizon * system.dt_safe)
        assert steps == count


def test_minimize_single_cell(classical, tol):
    res = minimize_periodic(classical, (1, 1), [0.0, 0.3, 0.6], tol)
    assert res.c0p == pytest.approx(-1.0, abs=1e-10)
    assert res.best.flat[0] == pytest.approx(0.75, abs=1e-8)


def test_minimize_extension(classical, tol):
    res = minimize_periodic(classical, (2, 1), [0.1, 0.6], tol)
    assert res.c0p == pytest.approx(-2.0, abs=1e-10)
    # the minimizer is the single-cell minimizer extended
    assert np.max(np.abs(res.best - 0.75)) < 1e-8


@pytest.mark.parametrize("p", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_scaling_law(classical, tol, p):
    res = minimize_periodic(classical, p, [0.1, 0.6], tol)
    cells = int(np.prod(p))
    assert abs(res.c0p - cells * (-1.0)) <= 1e-9 * cells


def test_minimize_requires_seed(classical, tol):
    with pytest.raises(Exception):
        minimize_periodic(classical, (1, 1), [], tol)
    # a seed is a float or an array of the periods' shape
    with pytest.raises(PeriodError):
        minimize_periodic(classical, (2, 1), [0.3, np.zeros((3, 1))], tol)


def test_gap_pair_classical(gap):
    assert gap.lo.flat[0] == pytest.approx(-0.25, abs=1e-8)
    assert gap.hi.flat[0] == pytest.approx(0.75, abs=1e-8)
    assert gap.evidence["distinct_interior_minimizers"] == 0


def test_gap_pair_free_chain(tol):
    free = make_potential("free-chain")
    with pytest.raises(NoGapError, match=r"\d+ minimizer orbits, and every strictly "
                       r"ordered candidate pair has interior minimizers"):
        find_gap_pair(free, (1, 1), seed=0, tol=tol)


def test_gap_pair_two_well(twowell, tol):
    g = find_gap_pair(twowell, (1, 1), seed=1, tol=tol)
    width = g.hi - g.lo
    assert np.max(np.abs(width - 0.5)) < 1e-8


def test_flow_comparison_order(classical, gap):
    # ordered initial data stays strictly ordered under the semiflow
    rng = np.random.default_rng(21)
    p = (2, 1)
    system = PeriodicSystem(classical, p, gap.lo)
    u1 = rng.uniform(0.0, 0.45, size=(10,) + p)
    u2 = u1 + rng.uniform(0.05, 0.5, size=(10,) + p)
    both, _, _ = flow(system, np.concatenate([u1, u2]), 0.0, 0.25)
    assert np.all(both[10:] - both[:10] > 0)


def test_strong_comparison_of_stationary_fields(classical, gap, tol):
    p = (2, 1)
    res = minimize_periodic(
        classical, p,
        [np.array([[0.1], [0.9]]), np.array([[0.02], [0.6]]), 0.2, 0.9], tol)
    flats = [f.ravel() for f in res.limits]
    for i in range(len(flats)):
        for j in range(len(flats)):
            d = flats[j] - flats[i]
            if np.all(d >= -1e-12) and np.max(np.abs(d)) > 1e-8:
                assert d.min() > 0


def test_box_invariance(classical, gap):
    rng = np.random.default_rng(9)
    p = (2, 1)
    system, box = gap.order_box(classical, p)
    seeds = rng.uniform(0, 1, size=(20,) + p) * box
    out, _, _ = flow(system, seeds, 0.0, 1.0)
    assert np.min(out) >= -1e-10
    assert np.max(out - box) <= 1e-10


def test_nan_lipschitz_bound_is_refused():
    # a NaN second-derivative bound gives no flow step: the step's one
    # derivation refuses it, for every caller
    plug = PluginPotential(lambda cfg: np.sum(cfg ** 2, axis=-1), n=2, r=1,
                           second_derivative_bound=float("nan"))
    p = (1, 1)
    with pytest.raises(ModelError, match="finite and positive"):
        PeriodicSystem(plug, p)
    with pytest.raises(ModelError, match="finite and positive"):
        minimize_periodic(plug, p, [np.full(p, 0.3)])
    with pytest.raises(ModelError, match="finite and positive"):
        run_property_suite(plug, p, seed=0, trials=5)


def test_minimize_work_count(classical, tol, monkeypatch):
    # the Gershgorin step: (3,2) took 1,374 RK4 steps at 1 / (2 C nball^2)
    from fk_saddle import semiflow

    steps = []
    step = semiflow.rk4_step
    monkeypatch.setattr(semiflow, "rk4_step",
                        lambda *a, **k: steps.append(1) or step(*a, **k))
    p = (3, 2)
    res = minimize_periodic(classical, p,
                            [np.full(p, j / 8.0) for j in range(8)],
                            tol)
    assert res.c0p == pytest.approx(-6.0, abs=1e-9)
    assert 0 < len(steps) <= 1374 // 10


def test_minimize_polishes_each_distinct_limit_once(classical, tol, monkeypatch):
    # 20 seeds flow to a handful of limits; Newton runs once per distinct
    # flowed limit, not once per seed
    from fk_saddle import periodic
    from fk_saddle.defaults import DEDUP_TOL

    starts = []
    refine = periodic.refine_critical
    monkeypatch.setattr(periodic, "refine_critical",
                        lambda s, x0, *a, **k: starts.append(x0) or refine(s, x0, *a, **k))
    p = (1, 1)
    seeds = periodic.default_minimize_seeds(np.random.default_rng(3), p)
    assert len(seeds) == 20
    res = minimize_periodic(classical, p, seeds, tol)
    assert len(res.limits) <= len(starts) < len(seeds)
    for i in range(len(starts)):
        for j in range(i):
            assert np.max(np.abs(starts[i] - starts[j])) > DEDUP_TOL


class _Quadratic:
    """One site with energy a x^2 / 2, a step bound of 3 / a, and the
    gradient and Hessian scaled by ``grad_sign`` and ``hess_sign``."""

    lattice_ndim = 1

    def __init__(self, a=2.0, grad_sign=1.0, hess_sign=1.0):
        self.a, self.grad_sign, self.hess_sign = a, grad_sign, hess_sign
        self.dt_safe = 3.0 / a
        self.energy_calls = 0

    def energy(self, x):
        self.energy_calls += 1
        return 0.5 * self.a * np.sum(x ** 2, axis=-1)

    def grad(self, x):
        return self.grad_sign * self.a * x

    def hess_matrix(self, x):
        # one 1x1 block: H[0, 0] in the middle, no neighbouring blocks
        return BandedHessian(np.array([0.0, self.hess_sign * self.a, 0.0]).reshape(1, 3, 1, 1), 1)


def test_an_understated_lipschitz_bound_is_a_flow_error():
    # the step 3 / a claims L = a / 3 for the Hessian a: the Euler step maps
    # x to -2 x and quadruples the energy, and the error names L and the rise
    system = _Quadratic(a=2.0)
    with pytest.raises(FlowError, match=r"rose by 3 .*L=0\.666667"):
        flow(system, np.array([1.0]), 0.0, 3.0)
    assert system.energy_calls == 2


def test_heat_flow_classify_steps_are_guarded_too():
    # a heat-flow classify flow takes the same guarded step as flow, so the
    # understated L is caught there as well
    from fk_saddle.mpp import _classify_flow

    system = _Quadratic(a=2.0)
    with pytest.raises(FlowError, match=r"L=0\.666667"):
        _classify_flow(system, np.array([[1.0]]), [])


def test_flow_raises_when_no_step_lowers_the_energy():
    system = _Quadratic(grad_sign=-1.0)
    with pytest.raises(FlowError, match="Lipschitz bound"):
        flow(system, np.array([1.0]), t_max=1.0)


def test_refine_critical_refuses_an_uphill_newton_step():
    # with the Hessian's sign flipped every Newton step raises the residual,
    # so the line search runs out and the start point comes back unchanged
    x0 = np.array([1.0])
    x, res, ok = refine_critical(_Quadratic(hess_sign=-1.0), x0, 1e-12)
    assert not ok
    assert np.array_equal(x, x0)
    assert res == 2.0
