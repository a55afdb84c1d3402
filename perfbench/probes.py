"""Fixed-shape kernel probes: microseconds per ``grad`` or ``energy`` call.

Each probe builds a fresh system, draws its batch from the seed, and times
blocks of back-to-back calls; the reported figure is the median block time
per call.  The small torus shapes expose per-call overhead, the strip shape
the strip stencil, and the 128,064-state energy batch (one oracle chunk at
resolution 2001) large-batch throughput.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BLOCKS = 9
BLOCK_SECONDS = 0.02


def _per_call_us(fn, x):
    fn(x)                                    # first call: allocations, imports
    t0 = time.perf_counter()
    fn(x)
    one = time.perf_counter() - t0
    reps = max(1, int(BLOCK_SECONDS / max(one, 1e-9)))
    blocks = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(x)
        blocks.append((time.perf_counter() - t0) / reps)
    return statistics.median(blocks) * 1e6


def run_probes(seed):
    """Return ``{metric name: microseconds per call}`` for every probe."""
    from fk_saddle.hetero import StripSystem
    from fk_saddle.model import make_potential
    from fk_saddle.periodic import PeriodicSystem

    rng = np.random.default_rng(seed)
    classical = make_potential("classical-fk")
    pinned = make_potential("pinned-fk")
    out = {}
    for periods, batch in (((1, 1), 23), ((8, 1), 127), ((8, 8), 63)):
        system = PeriodicSystem(classical, periods)
        x = rng.uniform(0.0, 1.0, size=(batch,) + periods)
        name = "kernel.grad_us.torus-%dx%d-b%d" % (periods + (batch,))
        out[name] = _per_call_us(system.grad, x)
    # the pinned kink window: tails at the ground states -1/4 and 3/4
    W, batch = 40, 65
    c0 = float(pinned.energy(np.full(pinned.nball, -0.25)))
    strip = StripSystem(pinned, (1,), W, -0.25, 0.75, c0)
    x = rng.uniform(-0.25, 0.75, size=(batch, 2 * W + 1, 1))
    out["kernel.grad_us.strip-w40-b65"] = _per_call_us(strip.grad, x)
    system = PeriodicSystem(classical, (2, 1))
    x = rng.uniform(0.0, 1.0, size=(128064, 2, 1))
    out["kernel.energy_us.torus-2x1-b128064"] = _per_call_us(system.energy, x)
    return out
