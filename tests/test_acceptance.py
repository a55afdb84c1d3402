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

from fk_saddle import (OracleGrid2D,
                       best_mountain_pass, bottleneck_minimax_2d,
                       find_gap_pair, find_gap_pair_hetero, make_potential,
                       minimize_hetero, minimize_periodic, mountain_pass_hetero,
                       multiplicity_scan, run_property_suite, sample_landscape)
from fk_saddle.defaults import CROSS_CHECK_TOL, STATIONARITY_TOL
from fk_saddle.model import residual_field

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
    tol = STATIONARITY_TOL
    S = {}
    T = {}
    bundle = {"scalars": S, "times": T}

    # -- criterion 1: single-cell ground state and gap pair -------------------
    t0 = time.monotonic()
    res11 = minimize_periodic(classical, (1, 1), [0.0, 0.3, 0.6], tol)
    gap = find_gap_pair(classical, (1, 1), seed=GAP_SEED, tol=tol)
    T["c1"] = time.monotonic() - t0
    S["c0"] = res11.c0p
    S["minimizer_mod1"] = float(res11.best.flat[0] % 1.0)
    S["v0"] = float(gap.lo.flat[0])
    S["w0"] = float(gap.hi.flat[0])
    bundle["gap"] = gap

    # -- criterion 2: ground-energy scaling law -------------------------------
    t0 = time.monotonic()
    for p in [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]:
        r = minimize_periodic(classical, p, [0.1, 0.6], tol)
        S["c0p_%d_%d" % p] = r.c0p
    T["c2"] = time.monotonic() - t0

    # -- criterion 3: three-way agreement on the two-cell torus ---------------
    t0 = time.monotonic()
    node = best_mountain_pass(classical, gap, (2, 1), tol, mode="node-flow", N=65)
    heat = best_mountain_pass(classical, gap, (2, 1), tol, mode="heat-flow", N=65)
    window = (node.value - CROSS_CHECK_TOL, node.value + CROSS_CHECK_TOL)
    grid2001 = OracleGrid2D.build(classical, gap, 2001, window)
    oracle = bottleneck_minimax_2d(grid2001)
    T["c3"] = time.monotonic() - t0
    S["d21_node"] = node.value
    S["d21_heat"] = heat.value
    S["d21_oracle"] = oracle
    S["d21_residual"] = node.residual
    crit = node.critical
    box = gap.order_box(classical, (2, 1))[1]
    S["d21_crit_min"] = float(np.min(crit))
    S["d21_crit_gap_to_top"] = float(np.min(box - crit))
    S["d21_crit_span"] = float(np.ptp(crit))
    translate = np.roll(crit, 1, axis=0)
    full = translate + gap.lo
    S["d21_translate_residual"] = float(np.max(np.abs(residual_field(classical, full))))
    S["d21_translate_distance"] = float(np.max(np.abs(translate - crit)))
    bundle["node21"] = node

    # -- criterion 4: landscape reproduction ----------------------------------
    t0 = time.monotonic()
    _, _, vmax, at = sample_landscape(classical, gap, 400)
    T["c4"] = time.monotonic() - t0
    S["landscape_max"] = vmax
    S["landscape_at_a"] = at[0]
    S["landscape_at_b"] = at[1]

    # -- criterion 5: strict barrier across the test matrix -------------------
    t0 = time.monotonic()
    mp11 = best_mountain_pass(classical, gap, (1, 1), tol, N=33)
    S["d11"] = mp11.value
    S["c11"] = mp11.c_ref
    matrix = {}
    gap_tw = find_gap_pair(twowell, (1, 1), seed=GAP_SEED, tol=tol)
    gap_pin = find_gap_pair(pinned, (1, 1), seed=GAP_SEED, tol=tol)
    cases = [("classical", classical, gap, (1, 1)),
             ("classical", classical, gap, (2, 1)),
             ("classical", classical, gap, (3, 1)),
             ("two-well", twowell, gap_tw, (1, 1)),
             ("two-well", twowell, gap_tw, (2, 1)),
             ("pinned", pinned, gap_pin, (1, 1))]
    for name, pot, g, p in cases:
        r = best_mountain_pass(pot, g, p, tol)
        matrix["%s_%d_%d" % (name, p[0], p[1])] = (r.value, r.c_ref, r.success)
        S["barrier_%s_%d_%d" % (name, p[0], p[1])] = r.value - r.c_ref
    T["c5"] = time.monotonic() - t0
    bundle["matrix"] = matrix

    # -- criteria 6 and 7: one multiplicity scan over k = 1..8 ---------------
    # criterion 6 reads the barriers and staircase witnesses of rows 2..8,
    # criterion 7 the rows and critical fields of k = 1..6
    t0 = time.monotonic()
    scan = multiplicity_scan(classical, 8, gap, tol)
    T["c6"] = time.monotonic() - t0
    witness = {}
    barrier = {}
    for row in scan.rows:
        S["scan_d_%d" % row.k] = row.result.value
        S["scan_c_%d" % row.k] = row.result.c_ref
        if row.k >= 2:
            witness[row.k] = row.witness
            barrier[row.k] = row.result.barrier
            S["witness_%d" % row.k] = row.witness
            S["barrier_%d" % row.k] = row.result.barrier
    bundle["witness"] = witness
    bundle["barrier"] = barrier
    bundle["scan"] = scan

    # -- criterion 8: the property suite ---------------------------------------
    t0 = time.monotonic()
    suite = run_property_suite(classical, (2, 1), seed=SUITE_SEED, trials=100,
                               tol=tol, gap=gap)
    T["c8"] = time.monotonic() - t0
    for r in suite:
        S["prop_%s" % r.name] = r.worst_margin
    bundle["suite"] = suite

    # -- criterion 9: heteroclinic pipeline on the pinned model ----------------
    t0 = time.monotonic()
    het = minimize_hetero(pinned, (1,), gap_pin, tol)
    het2 = minimize_hetero(pinned, (2,), gap_pin, tol, window=het.window,
                           check_stability=False)
    gap1 = find_gap_pair_hetero(pinned, het, gap_pin, seed=HETERO_SEED,
                                tol=tol)
    mph = mountain_pass_hetero(pinned, gap1, tol, N=65)
    hrows = multiplicity_scan(pinned, 4, gap1, tol).rows
    T["c9"] = time.monotonic() - t0
    S["c1"] = het.c1
    S["c1_stability"] = het.stability
    S["c1q2"] = het2.c1q
    S["d1"] = mph.value
    S["d1_residual"] = mph.residual
    S["d1_c_ref"] = mph.c_ref
    for r in hrows:
        S["h_barrier_%d" % r.k] = r.result.barrier
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


def test_oracle_exact_at_2001(bundle):
    # the bottleneck oracle returns one of the grid's own samples: the
    # recorded value holds bit for bit
    assert bundle["scalars"]["d21_oracle"] == 0.06249999999999989


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
    pairs = int(np.count_nonzero(np.triu(scan.distances[:6, :6] > 1e-3, k=1)))
    ok = (pairs >= 1
          and all(row.result.success for row in scan.rows[:6])
          and all(scan.versus_first[k] == "cross" for k in range(2, 7)))
    _check(7, "%d critical-field pairs differ by > 1e-3 after shift "
              "normalization (k = 1..6)" % pairs, ok)


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
        ok = ok and r.result.success and r.result.barrier <= r.witness + 1e-6
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
