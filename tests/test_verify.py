import dataclasses
import heapq
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fk_saddle import (FkSaddleError, OracleGrid2D, bottleneck_minimax_2d,
                       cross_check_mountain_pass, find_gap_pair,
                       make_potential, run_property_suite, sample_landscape,
                       verify)
from fk_saddle.defaults import CROSS_CHECK_TOL, ORACLE_BLOCK as B
from fk_saddle.model import ClassicalFKPotential
from fk_saddle.verify import CrossCheckReport

from helper_models import dense_bottleneck, flipped, shifted_classical

REFERENCE_D21 = 0.0625
LEVELS = {"classical": REFERENCE_D21, "pinned": REFERENCE_D21, "twowell": 1.015625}


def window(level=REFERENCE_D21):
    """The oracle window the cross check aims at a node-flow level."""
    return (level - CROSS_CHECK_TOL, level + CROSS_CHECK_TOL)


def widest_path_reference(values):
    """Least path maximum from corner (0, 0) to the far corner over the
    8-connected grid graph: Dijkstra with max in place of +."""
    R, C = values.shape
    best = np.full(values.shape, np.inf)
    best[0, 0] = values[0, 0]
    heap = [(values[0, 0], 0, 0)]
    while heap:
        level, i, j = heapq.heappop(heap)
        if (i, j) == (R - 1, C - 1):
            return float(level)
        if level > best[i, j]:
            continue
        for a in range(max(i - 1, 0), min(i + 2, R)):
            for b in range(max(j - 1, 0), min(j + 2, C)):
                through = max(level, values[a, b])
                if through < best[a, b]:
                    best[a, b] = through
                    heapq.heappush(heap, (through, a, b))
    raise AssertionError("far corner unreachable")


def walled_maze(rng, size):
    """Noise in corridors between high walls whose gaps alternate ends, so
    the widest path winds through every corridor."""
    values = rng.uniform(0.0, 1.0, (size, size))
    for n, row in enumerate(range(3, size - 3, 4)):
        values[row] += 10.0
        gap = slice(0, 2) if n % 2 else slice(size - 2, size)
        values[row, gap] -= 10.0
    return values


def banded(values, window):
    """The band that ``OracleGrid2D.build`` hands the sweep for the square
    grid ``values`` and the window (lo, hi], each ``ORACLE_BLOCK``^2 block
    bounded by its own cells: a block below lo holds lo, a block above hi is
    a wall (+inf), and the others are packed, a ragged last block repeating
    its edge cells."""
    R, (lo, hi) = len(values), window
    n = -(-R // B)
    fill = np.full((n, n), np.nan)
    for i, j in np.ndindex(n, n):
        cells = values[i * B:(i + 1) * B, j * B:(j + 1) * B]
        if cells.max() < lo:
            fill[i, j] = lo
        elif cells.min() > hi:
            fill[i, j] = np.inf
    I, J = np.nonzero(np.isnan(fill))
    a = np.minimum(I[:, None] * B + np.arange(B), R - 1)[:, :, None]
    b = np.minimum(J[:, None] * B + np.arange(B), R - 1)[:, None]
    return OracleGrid2D(R, (lo, hi), fill, values[a, b], np.unique(a * R + b).size)


def certified(values, half):
    """Check that the band of ``values`` for the window of half-width
    ``half`` around the widest-path reference yields the reference, and
    that the bands for windows below it, with it as their open low edge and
    above it raise, naming the window.  Returns the first band."""
    expected = widest_path_reference(values)
    band = banded(values, (expected - half, expected + half))
    assert bottleneck_minimax_2d(band) == expected
    for window in ((expected - 3 * half, expected - half), (expected, expected + 2 * half),
                   (expected + half, expected + 3 * half)):
        with pytest.raises(FkSaddleError, match=re.escape("window (%r, %r]" % window)):
            bottleneck_minimax_2d(banded(values, window))
    return band


def low_and_walls(band):
    """Whether a band holds both low blocks and walls."""
    return np.any(band.fill == band.window[0]) and np.any(band.fill == np.inf)


def plateaus(rng, values, share=0.1):
    """``values`` with a ``share`` of its blocks set to one value below all
    of its cells and as many to one above, the corner blocks kept."""
    n = -(-len(values) // B)
    kind = rng.choice(3, (n, n), p=(share, share, 1 - 2 * share))
    kind[0, 0] = kind[-1, -1] = 2
    kind = np.kron(kind, np.ones((B, B), int))[:len(values), :len(values)]
    out = values.copy()
    out[kind == 0], out[kind == 1] = values.min() - 1.0, values.max() + 1.0
    return out


def ridge():
    """Zeros crossed by a ridge of 3.5 at a = 1/2 on a 101 x 101 grid, with a
    plateau of 9 off the paths over it."""
    values = np.zeros((101, 101))
    values[50, :] = 3.5
    values[70:90, 20:40] = 9.0
    return values


def terraces(rng, size, noisy=0.3):
    """Blocks on four levels on a ``size``^2 grid, so constant blocks of
    different levels touch, with uniform noise on a share ``noisy`` of the
    blocks."""
    def cells(blocks):
        return np.kron(blocks, np.ones((B, B), blocks.dtype))[:size, :size]

    blocks = (-(-size // B),) * 2
    values = cells(rng.integers(0, 4, blocks).astype(float))
    noise = cells(rng.random(blocks) < noisy)
    values[noise] += rng.uniform(-0.5, 0.5, np.count_nonzero(noise))
    return values


def test_bottleneck_constant_landscape():
    # one value: every block is packed in a window around it
    assert np.all(np.isnan(certified(np.full((101, 101), 0.7), 0.1).fill))


def test_bottleneck_unavoidable_ridge():
    assert low_and_walls(certified(ridge(), 0.5))


def test_bottleneck_rejects_non_finite_grid():
    for bad in (np.nan, np.inf):
        values = ridge()
        values[40, 60] = bad
        with pytest.raises(FkSaddleError, match="non-finite"):
            bottleneck_minimax_2d(banded(values, (3.0, 4.0)))


@pytest.mark.parametrize("bad", [0.0, 3.5, 4.0, 9.0, -np.inf])
def test_bottleneck_rejects_a_block_of_another_value(bad):
    # a block holds lo, +inf or NaN; any other value, a finite wall among
    # them, is refused rather than read as a wall
    band = banded(ridge(), (3.0, 4.0))
    assert band.fill[8, 3] == np.inf
    band.fill[8, 3] = bad
    with pytest.raises(FkSaddleError, match=re.escape("block of %r" % bad)):
        bottleneck_minimax_2d(band)


def test_bottleneck_rejects_a_misshapen_band():
    # packed holds one B x B block for each NaN block of a fill of the
    # resolution's blocks
    band = banded(ridge(), (3.0, 4.0))
    for fill, packed in ((band.fill, band.packed[1:]), (band.fill, band.packed[:, :9]),
                         (band.fill[:-1, :-1], band.packed),
                         (band.fill, band.packed.reshape(len(band.packed), B * B))):
        with pytest.raises(FkSaddleError, match=re.escape("got %r and %r" % (
                fill.shape, packed.shape))):
            bottleneck_minimax_2d(dataclasses.replace(band, fill=fill, packed=packed))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (5, 5), (7, 7), (11, 11)])
def test_bottleneck_on_tiny_and_rectangular_grids(shape):
    # up to 7 cells a side the grid is one block, which cannot be both low
    # and a wall; the 11 x 11 grid has four, the last three ragged
    rng = np.random.default_rng(sum(shape))
    for values in (rng.uniform(0.0, 1.0, shape), terraces(rng, shape[0])):
        certified(values, 0.05)
    if shape[0] > B:
        values = rng.uniform(0.0, 1.0, shape)
        values[:B, :B], values[:B, B:] = -1.0, 9.0
        assert low_and_walls(certified(values, 0.05))


@pytest.mark.parametrize("seed", range(4))
def test_bottleneck_on_random_rectangular_grids(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        size = int(rng.integers(101, 161))
        values = plateaus(rng, rng.uniform(0.0, 1.0, (size, size)))
        assert low_and_walls(certified(values, 0.05))


@pytest.mark.parametrize("seed", range(6))
def test_sweep_exact_on_terraces(seed):
    # the best path crosses from block to block and from level to level;
    # the sizes are odd, so never multiples of the block
    rng = np.random.default_rng(seed)
    band = certified(plateaus(rng, terraces(rng, 2 * int(rng.integers(8, 48)) + 1)), 0.25)
    assert np.any(np.isnan(band.fill)) and low_and_walls(band)


@pytest.mark.parametrize("shape", [(41, 41), (57, 57), (23, 23), (11, 11), (7, 7),
                                   (1, 1)])
def test_sweep_exact_with_corners_in_constant_and_packed_blocks(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    R, C = shape
    corners = [(0, 0), (0, C - 1), (R - 1, 0), (R - 1, C - 1)]
    both = []
    for packed in np.ndindex(2, 2, 2, 2):
        values = terraces(rng, R, noisy=0.0)
        for (a, b), noisy in zip(corners, packed):
            cells = (slice(a // B * B, a // B * B + B), slice(b // B * B, b // B * B + B))
            if noisy:
                values[cells] += rng.uniform(-0.5, 0.5, values[cells].shape)
        both.append(low_and_walls(certified(values, 0.25)))
    assert any(both) == (R > B)


def test_sweep_follows_a_block_scale_maze(monkeypatch):
    # a corridor of noisy blocks winds between walls through gaps that are
    # low blocks to the far corner, in the last corridor; each round carries
    # the front one packed block further, so a sweep that stopped before a
    # round that changes nothing would miss the far corner
    n = 13
    rng = np.random.default_rng(5)
    blocks = np.ones((n, n))                      # 1: corridor
    blocks[1::2] = np.where(np.arange(n) % 3, 7.0, 8.0)
    for k, row in enumerate(range(1, n, 2)):
        blocks[row, 0 if k % 2 else n - 1] = 0.25
    values = np.kron(blocks, np.ones((B, B)))[:n * B - 3, :n * B - 3]
    corridor = values == 1.0
    values[corridor] = rng.uniform(0.0, 1.0, np.count_nonzero(corridor))
    band = certified(values, 0.05)
    assert low_and_walls(band)
    assert np.count_nonzero(np.isnan(band.fill)) <= verify.SWEEP_BLOCKS
    rounds = []
    sweep = verify._sweep
    monkeypatch.setattr(verify, "_sweep", lambda P, V, k: rounds.append(1) or sweep(P, V, k))
    bottleneck_minimax_2d(band)
    # the packed blocks' sweeps, one call a round: n - 2 hops at least
    # along each corridor
    assert len(rounds) >= (n // 2) * (n - 2)


@pytest.mark.parametrize("seed", range(4))
def test_bottleneck_matches_widest_path_reference(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(101, 161))
    uniform = plateaus(rng, rng.uniform(0.0, 1.0, (size, size)))
    assert low_and_walls(certified(uniform, 0.05))
    for values in (walled_maze(rng, size), walled_maze(rng, size).T.copy()):
        certified(values, 0.05)


# the twelve oracle cases at gap seed 3, each built for the window around
# its model's level: value, evaluated cells, constant and packed blocks
ORACLE_CASES = [
    ("classical", 401, 0.06250000000000011, 13440, 1543, 138),
    ("classical", 801, 0.06250000000000011, 26460, 6291, 270),
    ("classical", 1201, 0.0625, 41060, 14225, 416),
    ("classical", 2001, 0.06249999999999989, 70300, 39689, 712),
    ("pinned", 401, 0.0625, 13440, 1543, 138),
    ("pinned", 801, 0.0625, 26240, 6295, 266),
    ("pinned", 1201, 0.0625, 39260, 14243, 398),
    ("pinned", 2001, 0.0625, 62060, 39775, 626),
    ("twowell", 401, 1.0156249999999998, 14440, 1533, 148),
    ("twowell", 801, 1.015625, 28060, 6275, 286),
    ("twowell", 1201, 1.015625, 44680, 14187, 454),
    ("twowell", 2001, 1.0156250000000002, 87100, 39521, 880),
]


@pytest.fixture(scope="module")
def seed3_gaps(gap, pinned_gap, twowell, tol):
    return {"classical": gap, "pinned": pinned_gap,
            "twowell": find_gap_pair(twowell, (1, 1), seed=3, tol=tol)}


@pytest.mark.parametrize("model, resolution, expected, band", [
    (model, resolution, expected, band) for model, resolution, expected, *band in ORACLE_CASES
], ids=["%s-%d-%s" % case[:3] for case in ORACLE_CASES])
def test_bottleneck_exact_on_reduced_landscapes(request, seed3_gaps, model,
                                                resolution, expected, band):
    # the oracle returns one of the grid's own samples, so the recorded
    # values hold bit for bit, not to a tolerance, and so do the bands
    grid = OracleGrid2D.build(request.getfixturevalue(model), seed3_gaps[model],
                              resolution, window(LEVELS[model]))
    assert bottleneck_minimax_2d(grid) == expected
    constant = int(np.count_nonzero(~np.isnan(grid.fill)))
    assert grid.window == window(LEVELS[model])
    assert np.all(np.isin(grid.fill[~np.isnan(grid.fill)], (grid.window[0], np.inf)))
    assert [grid.evaluated, constant, grid.fill.size - constant] == band


def flood_labels(mask):
    """Breadth-first flood fill of the 8-connected sets of ``mask``: the
    labels, -1 off the mask."""
    labels = np.full(mask.shape, -1)
    for start in zip(*np.nonzero(mask)):
        if labels[start] >= 0:
            continue
        labels[start] = label = labels.max() + 1
        queue = [start]
        while queue:
            i, j = queue.pop()
            for a in range(max(i - 1, 0), min(i + 2, mask.shape[0])):
                for b in range(max(j - 1, 0), min(j + 2, mask.shape[1])):
                    if mask[a, b] and labels[a, b] < 0:
                        labels[a, b] = label
                        queue.append((a, b))
    return labels


@pytest.mark.parametrize("seed", range(4))
def test_components_match_a_flood_fill(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        shape = tuple(int(n) for n in rng.integers(15, 250, 2))
        mask = rng.random(shape) < rng.uniform(0.3, 0.7)
        slot, count = verify._components(mask)
        labels = flood_labels(mask)
        assert np.array_equal(slot >= 0, mask) and np.all(slot[~mask] == -1)
        # the same partition under a one-to-one map of the labels
        same = {(int(a), int(b)) for a, b in zip(labels[mask], slot[mask])}
        assert len(same) == count == labels.max() + 1
        assert len({b for _, b in same}) == len(same)


def block_grid(blocks, noisy, rng):
    """Cells of ``blocks`` (``B``^2 each, the last row and column ragged at
    ``B`` - 3), uniform noise on the blocks where ``noisy`` holds."""
    cells = (blocks.shape[0] * B - 3, blocks.shape[1] * B - 3)
    values = np.kron(blocks, np.ones((B, B)))[:cells[0], :cells[1]]
    mask = np.kron(noisy, np.ones((B, B), bool))[:cells[0], :cells[1]]
    values[mask] = rng.uniform(0.0, 1.0, np.count_nonzero(mask))
    return values


def test_sweep_crosses_a_constant_u_around_a_wall():
    # a U of 0.5 wraps a wall of 9, its arms joined only in its bottom row;
    # the start corner is at the top of its left arm, and the far corner is
    # reached through noise from the top of its right arm.  Below the
    # window the U is low blocks, one node
    blocks = np.full((6, 6), 9.0)
    blocks[:, 0] = blocks[5, :4] = blocks[:, 3] = 0.5
    noisy = np.zeros((6, 6), bool)
    noisy[0, 4:] = noisy[:, 5] = True
    values = block_grid(blocks, noisy, np.random.default_rng(11))
    band = certified(values, 0.05)
    low = band.fill == band.window[0]
    assert np.array_equal(low, blocks == 0.5) and low_and_walls(band)
    assert verify._components(low)[1] == 1


@pytest.mark.parametrize("first, second", [(0.3, 0.7), (0.7, 0.3)])
def test_sweep_crosses_two_touching_components(first, second):
    # the start corner's blocks of one value touch blocks of another, and
    # only those lead, through noise, to the far corner; in the window the
    # blocks of 0.3 are low and those of 0.7 packed
    blocks = np.full((4, 4), 9.0)
    blocks[0, :2] = blocks[1, 1] = first
    blocks[1:, 2] = second
    noisy = np.zeros((4, 4), bool)
    noisy[3, 3] = True
    values = block_grid(blocks, noisy, np.random.default_rng(13))
    band = certified(values, 0.15)
    assert low_and_walls(band)
    assert np.array_equal(band.fill == band.window[0], blocks == 0.3)
    assert np.all(np.isnan(band.fill[blocks == 0.7]))


def test_built_band_sweeps_only_its_packed_blocks(classical, gap, monkeypatch):
    # every sweep covers packed blocks only, at most SWEEP_BLOCKS of them;
    # the rounds sweep only the blocks whose halo fell or which changed,
    # fewer block sweeps than three rounds of every packed block would take
    sweep = verify._sweep
    for resolution, expected in ((401, 0.06250000000000011), (2001, 0.06249999999999989)):
        grid = OracleGrid2D.build(classical, gap, resolution, window())
        m, calls = len(grid.packed), []

        def recorded(P, V, k):
            assert V is grid.packed and P.shape == (m, B + 2, B + 2)
            assert 0 < len(k) <= verify.SWEEP_BLOCKS and np.all(np.diff(k) > 0)
            assert 0 <= k[0] and k[-1] < m
            calls.append(k)
            return sweep(P, V, k)

        monkeypatch.setattr(verify, "_sweep", recorded)
        assert bottleneck_minimax_2d(grid) == expected
        swept = np.concatenate(calls)
        assert np.array_equal(np.unique(swept), np.arange(m))
        assert len(swept) < 3 * m


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fk_saddle; print([m for m in "
         "sys.modules if m.split('.')[0] == 'scipy'])"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_bottleneck_on_reduced_landscape(classical, gap):
    grid = OracleGrid2D.build(classical, gap, 401, window())
    assert bottleneck_minimax_2d(grid) == pytest.approx(REFERENCE_D21, abs=1e-4)


def test_oracle_monotone_under_refinement(classical, gap):
    v_coarse = bottleneck_minimax_2d(OracleGrid2D.build(classical, gap, 101, window()))
    v_fine = bottleneck_minimax_2d(OracleGrid2D.build(classical, gap, 201, window()))
    _, coarse, _, _ = sample_landscape(classical, gap, 101)
    slack = max(np.max(np.abs(np.diff(coarse, axis=0))),
                np.max(np.abs(np.diff(coarse, axis=1))))
    assert v_fine <= v_coarse + slack


def test_oracle_resolution_guard(classical, gap):
    with pytest.raises(Exception):
        OracleGrid2D.build(classical, gap, 50, window())


def test_grid_max_location(classical, gap):
    _, _, vmax, at = sample_landscape(classical, gap, 401)
    assert vmax == pytest.approx(2.0, abs=1e-6)
    assert at == (0.5, 0.5)


@pytest.mark.parametrize("model", ["classical", "pinned", "twowell"])
def test_band_matches_dense_grid(request, tol, model):
    # every packed cell and every cell of a filled block is its exact
    # energy, the window's low end where its energy lies below it, or a
    # wall no lower than its energy above the window; packed cells are
    # evaluated, so exact; the bottleneck is the one of the dense grid,
    # swept whole
    potential = request.getfixturevalue(model)
    gap = find_gap_pair(potential, (1, 1), seed=3, tol=tol)
    for resolution in (401, 801):
        band = OracleGrid2D.build(potential, gap, resolution, window(LEVELS[model]))
        _, dense, _, _ = sample_landscape(potential, gap, resolution)
        lo, hi = band.window
        I, J = np.nonzero(np.isnan(band.fill))
        a = np.minimum(I[:, None] * B + np.arange(B), resolution - 1)[:, :, None]
        b = np.minimum(J[:, None] * B + np.arange(B), resolution - 1)[:, None]
        assert band.packed.shape == (len(I), B, B)
        assert np.array_equal(band.packed, dense[a, b])
        fill = np.kron(band.fill, np.ones((B, B)))[:resolution, :resolution]
        filled = ~np.isnan(fill)
        f, d = fill[filled], dense[filled]
        assert np.all((f == d) | ((f == lo) & (d < lo)) | ((f >= d) & (d > hi)))
        # distinct cells: a ragged last block's repeated edge cells count once
        assert band.evaluated == np.unique(a * resolution + b).size
        assert 0 < band.evaluated < resolution ** 2
        value = bottleneck_minimax_2d(band)
        assert value == dense_bottleneck(dense)
        assert lo < value <= hi


def test_band_rejects_a_too_small_lipschitz_bound(classical, gap, monkeypatch):
    L = classical.lipschitz_bound()
    monkeypatch.setattr(classical, "lipschitz_bound", lambda: L / 100)
    with pytest.raises(FkSaddleError, match="Lipschitz bound"):
        bottleneck_minimax_2d(OracleGrid2D.build(classical, gap, 401, window()))


def test_energy_decrease_measures_the_rise_of_a_too_large_step(classical, gap, monkeypatch):
    # at 100 / L the Euler steps raise the energy: the property reports the
    # rise as a failed row instead of the flow guard's error
    L = classical.lipschitz_bound()
    monkeypatch.setattr(classical, "lipschitz_bound", lambda: L / 100)
    reports = run_property_suite(classical, (2, 1), seed=0, trials=20, gap=gap)
    row = next(r for r in reports if r.name == "energy-decrease")
    assert not row.passed and row.worst_margin < 0
    assert row.detail.startswith("max step increase ")


def test_bottleneck_outside_its_window_raises():
    # the ridge's 3.5 is certified in (lo, hi] only: a window below it,
    # above it or with 3.5 as its open low edge fails, naming the window
    assert bottleneck_minimax_2d(banded(ridge(), (3.0, 3.5))) == 3.5
    for lo, hi in ((2.0, 3.0), (4.0, 5.0), (3.5, 4.0)):
        with pytest.raises(FkSaddleError, match=r"window \(%r, %r\]" % (lo, hi)):
            bottleneck_minimax_2d(banded(ridge(), (lo, hi)))


@pytest.mark.parametrize("lo, hi", [(0.05, 0.06), (0.065, 0.07),
                                    (0.06250000000000011, 0.06450000000000011)])
def test_built_band_outside_its_window_raises(classical, gap, lo, hi):
    # a band built for a window below the answer, above it, or with the
    # answer (0.06250000000000011 at R = 401) as its open low edge yields
    # a value outside the window, which fails instead of being returned
    grid = OracleGrid2D.build(classical, gap, 401, (lo, hi))
    with pytest.raises(FkSaddleError, match=r"outside its certified window \(%r, %r\]"
                       % (lo, hi)):
        bottleneck_minimax_2d(grid)


def test_oracle_window_must_be_a_finite_interval(classical, gap):
    for bad in ((0.07, 0.06), (0.06, 0.06), (-np.inf, 0.07), (0.06, np.nan)):
        with pytest.raises(FkSaddleError, match="window"):
            OracleGrid2D.build(classical, gap, 401, bad)


def test_band_evaluates_few_cells_at_2001(classical, gap):
    band = OracleGrid2D.build(classical, gap, 2001, window())
    assert band.evaluated <= 0.03 * 2001 ** 2


def test_oracle_memory_stays_below_a_dense_grid(classical, gap):
    # the band and the chunked energy passes, never the 2001^2 grid, whose
    # floats alone take 30.5 MiB, nor a grid of its 201^2 blocks
    tracemalloc.start()
    try:
        bottleneck_minimax_2d(OracleGrid2D.build(classical, gap, 2001, window()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.fixture(scope="module")
def suite(classical, tol):
    return run_property_suite(classical, (2, 1), seed=7, trials=50,
                              tol=tol)


def test_suite_all_pass(suite):
    assert suite, "empty report"
    for r in suite:
        assert r.passed, "%s failed: %s" % (r.name, r.detail)


def test_suite_covers_every_property(suite):
    names = {r.name for r in suite}
    assert names == {"submodularity", "gradient-fd", "flow-comparison",
                     "strong-comparison", "energy-decrease", "box-invariance",
                     "clip-decrease", "endpoint-fixity", "scaling"}


def test_suite_zero_trials(classical, tol):
    assert run_property_suite(classical, (2, 1), seed=7, trials=0,
                              tol=tol) == []


def test_suite_deterministic(classical, tol):
    a = run_property_suite(classical, (2, 1), seed=11, trials=20, tol=tol)
    b = run_property_suite(classical, (2, 1), seed=11, trials=20, tol=tol)
    assert [(r.name, r.worst_margin, r.passed, r.detail) for r in a] == \
           [(r.name, r.worst_margin, r.passed, r.detail) for r in b]


def test_suite_detects_sign_flip(tol):
    # flipping one bond's coupling breaks the comparison principle; the test
    # battery must have the power to see it
    reports = run_property_suite(flipped(), (2, 1), seed=7, trials=50,
                                 tol=tol)
    comparison = next(r for r in reports if r.name == "flow-comparison")
    assert not comparison.passed


def test_suite_falls_back_to_the_constant_scan(tol, monkeypatch):
    # the free chain has a continuum of minimizers and no gap pair; the suite
    # then scans constant fields for its box
    from fk_saddle import verify

    free = make_potential("free-chain")
    assert find_gap_pair(free, (1, 1), seed=7, tol=tol) is None
    fallbacks = []
    scan = verify._fallback_gap
    monkeypatch.setattr(verify, "_fallback_gap",
                        lambda *a: fallbacks.append(1) or scan(*a))
    reports = run_property_suite(free, (2, 1), seed=7, trials=20, tol=tol)
    assert fallbacks == [1]
    assert len(reports) == 9
    for r in reports:
        assert r.passed, "%s failed: %s" % (r.name, r.detail)


def test_suite_falls_back_when_the_gap_search_fails(classical, tol,
                                                     monkeypatch):
    # a gap search whose flows blow up raises; the suite still runs on the
    # constant-scan box, which for the classical model is [v0, v0 + 1]
    from fk_saddle import verify
    from fk_saddle.semiflow import FlowError

    def diverge(*args, **kwargs):
        raise FlowError("NaN detected during flow")

    monkeypatch.setattr(verify, "find_gap_pair", diverge)
    reports = run_property_suite(classical, (2, 1), seed=7, trials=20,
                                 tol=tol)
    assert len(reports) == 9
    for r in reports:
        assert r.passed, "%s failed: %s" % (r.name, r.detail)


def test_endpoint_fixity_fails_off_the_ground_states(classical, gap, tol):
    # a box whose corners are not critical points pins its chains to points
    # the flow would move
    from fk_saddle import GapPair

    off = GapPair(gap.lo + 0.1, gap.hi + 0.1)
    reports = run_property_suite(classical, (2, 1), seed=7, trials=4,
                                 tol=tol, gap=off)
    fixity = next(r for r in reports if r.name == "endpoint-fixity")
    assert not fixity.passed and fixity.worst_margin < -1.0
    good = run_property_suite(classical, (2, 1), seed=7, trials=4,
                              tol=tol, gap=gap)
    assert next(r for r in good if r.name == "endpoint-fixity").passed


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_suite_passes_on_two_well(twowell, tol, seed):
    # the pair gap decays like exp(-H_ii t); integrated too far it sank below
    # the resolution of grad(u + v) - grad(u) and flow-comparison failed on
    # roundoff at these seeds
    reports = run_property_suite(twowell, (2, 1), seed=seed, trials=100,
                                 tol=tol)
    for r in reports:
        assert r.passed, "%s failed: %s" % (r.name, r.detail)


@pytest.mark.parametrize("coupling", [-1.0 / 16.0, -1.0 / 4.0])
def test_flow_comparison_detects_antiferromagnetic_coupling(tol, coupling):
    reports = run_property_suite(ClassicalFKPotential(coupling=coupling), (2, 1),
                                 seed=7, trials=100, tol=tol)
    comparison = next(r for r in reports if r.name == "flow-comparison")
    assert not comparison.passed


def test_cross_check_threefold(classical, gap, tol):
    cc = cross_check_mountain_pass(classical, gap, resolutions=(401,),
                                   tol=tol)
    assert isinstance(cc, CrossCheckReport)
    assert cc.agree
    assert max(cc.deltas.values()) <= 1e-3
    band = cc.band[401]
    lo, hi = band["window"]
    assert (lo, hi) == window(cc.node_flow)
    assert lo < cc.oracle[401] <= hi
    assert 0 < band["evaluated"] < 401 ** 2
    assert band["packed_blocks"] > 0 and band["constant_blocks"] > 0
    assert band["packed_blocks"] + band["constant_blocks"] == 41 ** 2


def test_cross_check_band_report_at_2001(classical, gap, tol):
    # the band the verify manifest reports as oracle_band, and the oracle's
    # own sample, bit for bit
    cc = cross_check_mountain_pass(classical, gap, resolutions=(2001,),
                                   tol=tol)
    assert cc.oracle == {2001: 0.06249999999999989}
    assert cc.node_flow == REFERENCE_D21
    assert cc.band == {2001: {
        "window": [0.0615, 0.0635],
        "evaluated": 70300, "constant_blocks": 39689, "packed_blocks": 712}}


def test_cross_check_records_an_oracle_outside_its_window(classical, gap, tol,
                                                          monkeypatch):
    # a node-flow level off by more than the tolerance aims the oracle's
    # window past the answer: the oracle fails with a message naming the
    # window, reports no number and the cross check does not agree
    solve = verify.best_mountain_pass

    def off(*args, mode, **kwargs):
        res = solve(*args, mode=mode, **kwargs)
        if mode == "node-flow":
            res = dataclasses.replace(res, value=res.value + 0.01)
        return res

    monkeypatch.setattr(verify, "best_mountain_pass", off)
    cc = cross_check_mountain_pass(classical, gap, resolutions=(401,), tol=tol)
    assert cc.oracle == {} and not cc.agree
    assert set(cc.failed) == {"oracle"}
    assert cc.failed["oracle"].startswith("resolution 401: oracle bottleneck ")
    assert "outside its certified window (%r, %r]" % tuple(cc.band[401]["window"]) \
        in cc.failed["oracle"]
    assert np.isnan(cc.deltas["node-oracle"]) and np.isnan(cc.deltas["heat-oracle"])


def test_energy_offset_invariance(classical, gap, tol):
    # adding a constant to the site energy shifts every level by
    # prod(p) * constant and leaves the barrier unchanged
    from fk_saddle import best_mountain_pass
    from fk_saddle.periodic import find_gap_pair

    offset = 0.37
    pot2 = shifted_classical(offset=offset)
    gap2 = find_gap_pair(pot2, (1, 1), seed=3, tol=tol)
    base = best_mountain_pass(classical, gap, (2, 1), tol, N=65)
    res2 = best_mountain_pass(pot2, gap2, (2, 1), tol, N=65)
    assert res2.value == pytest.approx(base.value + 2 * offset, abs=1e-9)
    assert res2.c_ref == pytest.approx(base.c_ref + 2 * offset, abs=1e-9)
    assert res2.barrier == pytest.approx(base.barrier, abs=1e-9)
