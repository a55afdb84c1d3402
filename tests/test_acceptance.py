"""Acceptance gate: every criterion checked at its stated tolerance.

The whole battery is computed once into a bundle of scalars (with per-stage
wall times); each criterion test asserts on the bundle and prints one
PASS/FAIL line.  The final criterion recomputes the entire bundle with the
same seeds and demands bit-for-bit equality of every scalar.
"""

import math
import time

import numpy as np
import pytest

from fk_saddle import (FlowParams, OracleGrid2D,
                       best_mountain_pass, bottleneck_minimax_2d,
                       bound_scan_hetero, build_initial_path, find_gap_pair,
                       find_gap_pair_hetero, make_potential, minimize_hetero,
                       minimize_periodic, mountain_pass, mountain_pass_hetero,
                       multiplicity_scan, run_property_suite)
from fk_saddle.model import residual_field
from fk_saddle.periodic import PeriodicSystem

GAP_SEED = 3
SUITE_SEED = 7
HETERO_SEED = 5


def _check(num, desc, ok):
    print("ACCEPTANCE %02d %s: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def compute_bundle():
    classical = make_potential("classical-fk")
    twowell = make_potential("two-well-fk")
    pinned = make_potential("pinned-fk")
    params = FlowParams()
    S = {}
    T = {}
    bundle = {"scalars": S, "times": T, "params": params}

    # -- criterion 1: single-cell ground state and gap pair -------------------
    t0 = time.monotonic()
    res11 = minimize_periodic(classical, (1, 1), [0.0, 0.3, 0.6], params)
    gap = find_gap_pair(classical, (1, 1), seed=GAP_SEED, params=params)
    T["c1"] = time.monotonic() - t0
    norm_min, _ = res11.best.normalize_lift()
    S["c0"] = res11.c0p
    S["minimizer_mod1"] = float(norm_min.values.flat[0])
    S["v0"] = float(gap.v0.values.flat[0])
    S["w0"] = float(gap.w0.values.flat[0])
    bundle["gap"] = gap

    # -- criterion 2: ground-energy scaling law -------------------------------
    t0 = time.monotonic()
    for p in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        r = minimize_periodic(classical, p, [0.1, 0.6], params)
        S["c0p_%d_%d" % p] = r.c0p
    T["c2"] = time.monotonic() - t0

    # -- criterion 3: three-way agreement on the two-cell torus ---------------
    t0 = time.monotonic()
    path21 = build_initial_path("chi", 65, 2, gap, (2, 1))
    node = mountain_pass(classical, gap, path21, params, mode="node-flow")
    heat = mountain_pass(classical, gap, path21, params, mode="heat-flow")
    grid2001 = OracleGrid2D.build(classical, gap, 2001)
    oracle = bottleneck_minimax_2d(grid2001)
    T["c3"] = time.monotonic() - t0
    S["d21_node"] = node.value
    S["d21_heat"] = heat.value
    S["d21_oracle"] = oracle
    S["d21_residual"] = node.residual
    crit = node.critical
    box = gap.box_field((2, 1)).values
    S["d21_crit_min"] = float(np.min(crit))
    S["d21_crit_gap_to_top"] = float(np.min(box - crit))
    S["d21_crit_span"] = float(np.ptp(crit))
    translate = np.roll(crit, 1, axis=0)
    full = translate + gap.v0.extend((2, 1)).values
    S["d21_translate_residual"] = float(np.max(np.abs(residual_field(classical, full))))
    S["d21_translate_distance"] = float(np.max(np.abs(translate - crit)))
    bundle["node21"] = node

    # -- criterion 4: landscape reproduction ----------------------------------
    t0 = time.monotonic()
    grid400 = OracleGrid2D.build(classical, gap, 400)
    vmax, at = grid400.grid_max()
    T["c4"] = time.monotonic() - t0
    S["landscape_max"] = vmax
    S["landscape_at_a"] = at[0]
    S["landscape_at_b"] = at[1]

    # -- criterion 5: strict barrier across the test matrix -------------------
    t0 = time.monotonic()
    path11 = build_initial_path("linear", 33, None, gap, (1, 1))
    mp11 = mountain_pass(classical, gap, path11, params)
    S["d11"] = mp11.value
    S["c11"] = mp11.c_ref
    matrix = {}
    gap_tw = find_gap_pair(twowell, (1, 1), seed=GAP_SEED, params=params)
    gap_pin = find_gap_pair(pinned, (1, 1), seed=GAP_SEED, params=params)
    cases = [("classical", classical, gap, (1, 1)),
             ("classical", classical, gap, (2, 1)),
             ("classical", classical, gap, (3, 1)),
             ("two-well", twowell, gap_tw, (1, 1)),
             ("two-well", twowell, gap_tw, (2, 1)),
             ("pinned", pinned, gap_pin, (1, 1))]
    for name, pot, g, p in cases:
        kind = "chi" if p[0] > 1 else "linear"
        pth = build_initial_path(kind, 33 if p[0] == 1 else 16 * p[0] + 1,
                                 max(2, p[0]), g, p)
        r = best_mountain_pass(pot, g, pth, params, restarts=1)
        matrix["%s_%d_%d" % (name, p[0], p[1])] = (r.value, r.c_ref, r.success)
        S["barrier_%s_%d_%d" % (name, p[0], p[1])] = r.value - r.c_ref
    T["c5"] = time.monotonic() - t0
    bundle["matrix"] = matrix

    # -- criterion 6: uniform bound with the staircase witness ---------------
    t0 = time.monotonic()
    witness = {}
    barrier = {}
    for k in range(2, 9):
        p = (k, 1)
        system = PeriodicSystem(classical, p, gap.v0.extend(p))
        dense = build_initial_path("chi", 201, k, gap, p)
        c0p = minimize_periodic(classical, p, [0.1, 0.6], params).c0p
        witness[k] = float(np.max(system.energy(dense.nodes))) - c0p
        pth = build_initial_path("chi", min(16 * k + 1, 257), k, gap, p)
        r = best_mountain_pass(classical, gap, pth, params, restarts=1)
        barrier[k] = r.value - c0p
        S["witness_%d" % k] = witness[k]
        S["barrier_%d" % k] = barrier[k]
    T["c6"] = time.monotonic() - t0
    bundle["witness"] = witness
    bundle["barrier"] = barrier

    # -- criterion 7: multiplicity at desk scale ------------------------------
    t0 = time.monotonic()
    scan = multiplicity_scan(classical, 6, gap, params)
    T["c7"] = time.monotonic() - t0
    for row in scan.rows:
        S["scan_d_%d" % row.k] = row.d
        S["scan_c_%d" % row.k] = row.c
    bundle["scan"] = scan

    # -- criterion 8: the property suite ---------------------------------------
    t0 = time.monotonic()
    suite = run_property_suite(classical, (2, 1), seed=SUITE_SEED, trials=100,
                               params=params, gap=gap)
    T["c8"] = time.monotonic() - t0
    for r in suite:
        S["prop_%s" % r.name] = r.worst_margin
    bundle["suite"] = suite

    # -- criterion 9: heteroclinic pipeline on the pinned model ----------------
    t0 = time.monotonic()
    het = minimize_hetero(pinned, (1,), gap_pin, params)
    het2 = minimize_hetero(pinned, (2,), gap_pin, params, window=het.window,
                           check_stability=False)
    gap1 = find_gap_pair_hetero(pinned, (1,), gap_pin, seed=HETERO_SEED,
                                params=params, minimized=het)
    mph = mountain_pass_hetero(pinned, gap1, params, N=65)
    hrows = bound_scan_hetero(pinned, 4, gap1, params, witness_grid=4001)
    T["c9"] = time.monotonic() - t0
    S["c1"] = het.consts.c1
    S["c1_stability"] = het.stability
    S["c1q2"] = het2.c1q
    S["d1"] = mph.value
    S["d1_residual"] = mph.residual
    S["d1_c_ref"] = mph.c_ref
    for r in hrows:
        S["h_barrier_%d" % r.k] = r.barrier
        S["h_witness_%d" % r.k] = r.witness
    bundle["het"] = het
    bundle["mph"] = mph
    bundle["hrows"] = hrows
    return bundle


@pytest.fixture(scope="module")
def bundle():
    return compute_bundle()


def test_criterion_01_single_cell(bundle):
    S, T = bundle["scalars"], bundle["times"]
    ok = (abs(S["c0"] + 1.0) <= 1e-8
          and abs(S["minimizer_mod1"] - 0.75) <= 1e-8
          and abs(S["v0"] + 0.25) <= 1e-8
          and abs(S["w0"] - 0.75) <= 1e-8
          and T["c1"] < 5.0)
    _check(1, "c0 = -1, minimizer = -1/4 (mod 1), gap pair (-1/4, 3/4) "
              "[%.2fs]" % T["c1"], ok)


def test_criterion_02_scaling(bundle):
    S, T = bundle["scalars"], bundle["times"]
    ok = T["c2"] < 30.0
    for p in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        cells = p[0] * p[1]
        ok = ok and abs(S["c0p_%d_%d" % p] + cells) <= 1e-8 * cells
    _check(2, "c0p = prod(p) c0 for five period vectors [%.2fs]" % T["c2"], ok)


def test_criterion_03_three_way_agreement(bundle):
    S, T = bundle["scalars"], bundle["times"]
    pairwise = max(abs(S["d21_node"] - S["d21_heat"]),
                   abs(S["d21_node"] - S["d21_oracle"]),
                   abs(S["d21_heat"] - S["d21_oracle"]))
    ok = (pairwise <= 1e-3
          and S["d21_residual"] <= 1e-8
          and S["d21_crit_min"] > 0
          and S["d21_crit_gap_to_top"] > 0
          and S["d21_crit_span"] > 1e-3
          and S["d21_translate_residual"] <= 1e-8
          and S["d21_translate_distance"] > 1e-3
          and T["c3"] < 120.0)
    _check(3, "node-flow, heat-flow, oracle agree (max delta %.2e); "
              "critical pair verified [%.1fs]" % (pairwise, T["c3"]), ok)


def test_criterion_04_landscape(bundle):
    S, T = bundle["scalars"], bundle["times"]
    h = 1.0 / 399.0
    ok = (abs(S["landscape_max"] - 2.0) <= 1e-3
          and abs(S["landscape_at_a"] - 0.5) <= h
          and abs(S["landscape_at_b"] - 0.5) <= h
          and T["c4"] < 5.0)
    _check(4, "grid max %.6f at (%.4f, %.4f) [%.2fs]"
              % (S["landscape_max"], S["landscape_at_a"],
                 S["landscape_at_b"], T["c4"]), ok)


def test_criterion_05_strict_barriers(bundle):
    S = bundle["scalars"]
    ok = abs((S["d11"] - S["c11"]) - 2.0) <= 1e-6
    for key, (d, c, success) in bundle["matrix"].items():
        ok = ok and success and (d - c) > 1e-6
    _check(5, "d - c = 2 on the single cell; d - c > 1e-6 across the "
              "model/period matrix", ok)


def test_criterion_06_uniform_bound(bundle):
    S, T = bundle["scalars"], bundle["times"]
    wmax = max(bundle["witness"].values())
    bmax = max(bundle["barrier"].values())
    ok = (bmax <= wmax + 1e-9
          and all(b > 0 for b in bundle["barrier"].values())
          and wmax <= 10.0
          and T["c6"] < 300.0)
    _check(6, "max(d-c) = %.6f <= max staircase witness = %.6f <= 10 "
              "over k = 2..8 [%.1fs]" % (bmax, wmax, T["c6"]), ok)


def test_criterion_07_multiplicity(bundle):
    scan = bundle["scan"]
    pairs = scan.distinct_pairs(tol=1e-3)
    ok = (len(pairs) >= 1
          and all(row.ok for row in scan.rows)
          and all(scan.versus_first[k] == "cross" for k in range(2, 7)))
    _check(7, "%d critical-field pairs differ by > 1e-3 after shift "
              "normalization (k = 1..6)" % len(pairs), ok)


def test_criterion_08_property_suite(bundle):
    suite, T = bundle["suite"], bundle["times"]
    failed = [r.name for r in suite if not r.passed]
    ok = not failed and len(suite) == 9 and T["c8"] < 180.0
    _check(8, "all %d seeded properties pass at 100 trials [%.1fs]%s"
              % (len(suite), T["c8"],
                 "" if not failed else " failed: %s" % failed), ok)


def test_criterion_09_heteroclinic_pipeline(bundle):
    S, T = bundle["scalars"], bundle["times"]
    ok = (S["c1_stability"] <= 1e-9
          and abs(S["c1q2"] - 2 * S["c1"]) <= 1e-8
          and (S["d1"] - S["d1_c_ref"]) > 1e-6
          and S["d1_residual"] <= 1e-8
          and T["c9"] < 600.0)
    for r in bundle["hrows"]:
        ok = ok and r.ok and r.barrier <= r.witness + 1e-6
    _check(9, "window-stable c1, exact transverse scaling, d1 - c1 = %.4f > 0, "
              "barrier column below its witness (k = 1..4) [%.1fs]"
              % (S["d1"] - S["d1_c_ref"], T["c9"]), ok)


def test_criterion_10_determinism(bundle):
    again = compute_bundle()
    first = bundle["scalars"]
    second = again["scalars"]
    mismatched = [k for k in first
                  if not (first[k] == second[k]
                          or (math.isnan(first[k]) and math.isnan(second[k])))]
    ok = set(first) == set(second) and not mismatched
    _check(10, "criteria 1-9 rerun with identical seeds reproduce all %d "
               "scalars bit-for-bit%s"
               % (len(first), "" if ok else "; mismatches: %s" % mismatched), ok)
