"""Which fk_saddle entry points the traced run wraps, and the per-layer metrics.

``PER_LAYER`` and ``WORKLOAD_TIMES`` list the per-layer metrics: name, unit,
which way is better, whether the value must repeat exactly between two traced
runs of the same inputs, and the end-to-end metric and workload(s) the metric
is expected to move (the prediction a later optimisation is judged against).
``BENCHMARK.json`` lists the names, units and directions of ``PER_LAYER``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import self_times

TORUS_SADDLE = "torus-saddle"
KINK_STRIP = "kink-strip"
VERIFY = "verify-crosscheck"
ALL = "all three workloads"

CLI_COMMANDS = ("gap", "minimize", "multiplicity", "hetero", "mph", "verify")

# (name, unit, better, exact, expected to move)
PER_LAYER = [
    # kernel: fields/model, at the PeriodicSystem/StripSystem method boundary
    ("kernel.torus_grad_calls", "count", "lower", True, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("kernel.torus_grad_sites", "count", "lower", True, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("kernel.torus_grad_s", "s", "lower", False, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("kernel.torus_grad_us_per_call", "us", "lower", False, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("kernel.strip_grad_calls", "count", "lower", True, "wall_s on %s" % KINK_STRIP),
    ("kernel.strip_grad_sites", "count", "lower", True, "wall_s on %s" % KINK_STRIP),
    ("kernel.energy_calls", "count", "lower", True, "wall_s on %s" % ALL),
    ("kernel.energy_sites", "count", "lower", True, "wall_s on %s (oracle pass)" % VERIFY),
    ("kernel.energy_s", "s", "lower", False, "wall_s on %s" % VERIFY),
    ("kernel.hess_calls", "count", "lower", True, "peak_rss_mb, wall_s on %s" % KINK_STRIP),
    ("kernel.hess_s", "s", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("kernel.hess_max_dim", "count", "lower", True, "peak_rss_mb on %s" % KINK_STRIP),
    ("kernel.hess_dense_mb", "MB", "lower", True, "peak_rss_mb on %s" % KINK_STRIP),
    # fixed-shape kernel probes (per-call overhead apart from large-batch throughput)
    ("kernel.grad_us.torus-1x1-b23", "us", "lower", False, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("kernel.grad_us.torus-8x1-b127", "us", "lower", False, "wall_s on %s" % TORUS_SADDLE),
    ("kernel.grad_us.torus-8x8-b63", "us", "lower", False, "none of the workloads (large torus)"),
    ("kernel.grad_us.strip-w40-b65", "us", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("kernel.energy_us.torus-2x1-b128064", "us", "lower", False, "wall_s on %s (oracle pass)" % VERIFY),
    # semiflow: RK4 integrator and Newton refinement
    ("semiflow.rk4_steps", "count", "lower", True, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("semiflow.dt_halvings", "count", "lower", True, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("semiflow.self_s", "s", "lower", False, "wall_s on %s, %s" % (TORUS_SADDLE, VERIFY)),
    ("semiflow.newton_calls", "count", "lower", True, "wall_s, peak_rss_mb on %s" % KINK_STRIP),
    ("semiflow.newton_iters", "count", "lower", True, "wall_s, peak_rss_mb on %s" % KINK_STRIP),
    ("semiflow.newton_ok_ratio", "ratio", "higher", True, "wall_s on %s" % KINK_STRIP),
    ("semiflow.newton_s", "s", "lower", False, "wall_s, peak_rss_mb on %s" % KINK_STRIP),
    ("semiflow.newton_self_s", "s", "lower", False, "wall_s on %s" % KINK_STRIP),
    # periodic: ground states and gap pairs (every CLI command recomputes the gap)
    ("periodic.gap_calls", "count", "lower", True, "wall_s on %s" % ALL),
    ("periodic.gap_s", "s", "lower", False, "wall_s on %s" % ALL),
    ("periodic.minimize_calls", "count", "lower", True, "wall_s on %s" % ALL),
    ("periodic.minimize_s", "s", "lower", False, "wall_s on %s" % ALL),
    # mpp: node-flow string, heat-flow edge tracking, restarts
    ("mpp.node_flow_calls", "count", "lower", True, "wall_s on %s" % TORUS_SADDLE),
    ("mpp.node_flow_s", "s", "lower", False, "wall_s on %s" % TORUS_SADDLE),
    ("mpp.sweeps", "count", "lower", True, "wall_s on %s" % TORUS_SADDLE),
    ("mpp.reparam_cycles", "count", "lower", True, "wall_s on %s" % TORUS_SADDLE),
    ("mpp.refine_accept_ratio", "ratio", "higher", True, "wall_s on %s" % TORUS_SADDLE),
    ("mpp.restart_win_ratio", "ratio", "higher", True, "wall_s on %s, %s" % (TORUS_SADDLE, KINK_STRIP)),
    ("mpp.heat_unbatched_steps", "count", "lower", True, "wall_s on %s only" % VERIFY),
    ("mpp.self_s", "s", "lower", False, "wall_s on %s" % ALL),
    # hetero: strip minimizer, window policy, kink gap pair, strip string
    ("hetero.window_max", "count", "lower", True, "peak_rss_mb on %s" % KINK_STRIP),
    # the tracer itself
    ("trace.overhead_ratio", "ratio", "lower", False, "nothing (traced wall_s / untraced wall_s)"),
]

# Time spent in layers that only some workloads enter.  On the other
# workloads they read exactly 0 and say nothing, so they are printed and kept
# in the run record but left out of the result line and of BENCHMARK.json.
WORKLOAD_TIMES = [
    # kernel on the strip, heat-flow, hetero and verify layers
    ("kernel.strip_grad_s", "s", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("kernel.strip_grad_us_per_call", "us", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("mpp.heat_flow_s", "s", "lower", False, "wall_s on %s only" % VERIFY),
    ("hetero.minimize_s", "s", "lower", False, "wall_s, peak_rss_mb on %s" % KINK_STRIP),
    ("hetero.gap_s", "s", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("hetero.mph_s", "s", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("hetero.self_s", "s", "lower", False, "wall_s on %s" % KINK_STRIP),
    ("verify.suite_s", "s", "lower", False, "wall_s on %s" % VERIFY),
    ("verify.oracle_build_s", "s", "lower", False, "wall_s on %s" % VERIFY),
    ("verify.bottleneck_s", "s", "lower", False, "wall_s on %s" % VERIFY),
    ("verify.cross_check_s", "s", "lower", False, "wall_s on %s" % VERIFY),
] + [
    # cli: one pipeline per command
    ("cli.%s_s" % c, "s", "lower", False, "wall_s of the workload running it")
    for c in CLI_COMMANDS
]

INTEGRATOR = ("semiflow.flow", "semiflow.flow_to_stationarity",
              "semiflow.guarded_step", "semiflow.rk4_step")
HESSIANS = ("PeriodicSystem.hess_matrix", "StripSystem.hess_matrix")


def _size(args, kwargs, out):
    return int(np.size(args[1]))


def _ok(args, kwargs, out):
    return bool(out[2])


def _object_id(args, kwargs, out):
    return id(out)


def _node_flow(args, kwargs, out):
    return (out.iterations, len(out.reparam_sweeps), bool(out.success), id(out))


def _result_id(note):
    return note[-1] if isinstance(note, tuple) else note


def _window(args, kwargs, out):
    return int(args[2] if len(args) > 2 else kwargs["W"])


def install(tracer):
    """Wrap the public entry points of every layer."""
    from fk_saddle import cli, hetero, mpp, periodic, semiflow, verify

    for cls in (periodic.PeriodicSystem, hetero.StripSystem):
        tracer.trace_method(cls, "grad", _size)
        tracer.trace_method(cls, "energy", _size)
        tracer.trace_method(cls, "hess_matrix", _size)
    tracer.trace_method(verify.OracleGrid2D, "build")
    tracer.trace_function(semiflow, "rk4_step")
    tracer.trace_function(semiflow, "guarded_step", lambda a, k, out: int(out[3]))
    tracer.trace_function(semiflow, "flow")
    tracer.trace_function(semiflow, "flow_to_stationarity")
    tracer.trace_function(semiflow, "refine_critical", _ok)
    tracer.trace_function(periodic, "find_gap_pair")
    tracer.trace_function(periodic, "minimize_periodic")
    tracer.trace_function(mpp, "mountain_pass", _object_id)
    tracer.trace_function(mpp, "best_mountain_pass", _object_id)
    tracer.trace_function(mpp, "multiplicity_scan")
    tracer.trace_function(mpp, "_minimax_node_flow", _node_flow)
    tracer.trace_function(mpp, "_minimax_heat_flow", _object_id)
    tracer.trace_function(mpp, "_classify_flow")
    tracer.trace_function(hetero, "minimize_hetero")
    tracer.trace_function(hetero, "_minimize_on_window", _window)
    tracer.trace_function(hetero, "find_gap_pair_hetero")
    tracer.trace_function(hetero, "mountain_pass_hetero", _object_id)
    tracer.trace_function(verify, "run_property_suite")
    tracer.trace_function(verify, "cross_check_mountain_pass")
    tracer.trace_function(verify, "bottleneck_minimax_2d")
    tracer.trace_function(cli, "run", lambda a, k, out: a[0].command)


def _ratio(num, den):
    # a layer that never ran has no base; report 0 and keep the base beside it
    return num / den if den else 0.0


def metrics(spans):
    """Per-layer metrics from the spans of one traced pass (probes and the
    overhead ratio are added by the caller)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[1] >= 0:
            children[s[1]].append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def total(*names):
        return sum((dur(i) for n in names for i in by_name[n]), 0.0)

    def self_time(pred):
        return sum((own[i] for i, s in enumerate(spans) if pred(s[0])), 0.0)

    def notes(*names):
        return [spans[i][4] for n in names for i in by_name[n]]

    def under(name, parents):
        return [i for i in by_name[name] if spans[i][1] >= 0
                and spans[spans[i][1]][0] in parents]

    m = {}
    for geo, cls in (("torus", "PeriodicSystem"), ("strip", "StripSystem")):
        calls = count(cls + ".grad")
        secs = total(cls + ".grad")
        m["kernel.%s_grad_calls" % geo] = calls
        m["kernel.%s_grad_sites" % geo] = sum(notes(cls + ".grad"))
        m["kernel.%s_grad_s" % geo] = secs
        m["kernel.%s_grad_us_per_call" % geo] = _ratio(secs, calls) * 1e6
    energy = ("PeriodicSystem.energy", "StripSystem.energy")
    m["kernel.energy_calls"] = count(*energy)
    m["kernel.energy_sites"] = sum(notes(*energy))
    m["kernel.energy_s"] = total(*energy)
    dim = max(notes(*HESSIANS), default=0)
    m["kernel.hess_calls"] = count(*HESSIANS)
    m["kernel.hess_s"] = total(*HESSIANS)
    m["kernel.hess_max_dim"] = dim
    m["kernel.hess_dense_mb"] = dim * dim * 8 / 2 ** 20

    newton = "semiflow.refine_critical"
    m["semiflow.rk4_steps"] = count("semiflow.rk4_step")
    m["semiflow.dt_halvings"] = sum(notes("semiflow.guarded_step"))
    m["semiflow.self_s"] = self_time(lambda n: n in INTEGRATOR)
    m["semiflow.newton_calls"] = count(newton)
    m["semiflow.newton_iters"] = sum(len(under(h, (newton,))) for h in HESSIANS)
    m["semiflow.newton_ok_ratio"] = _ratio(sum(notes(newton)), count(newton))
    m["semiflow.newton_s"] = total(newton)
    m["semiflow.newton_self_s"] = self_time(lambda n: n == newton)

    m["periodic.gap_calls"] = count("periodic.find_gap_pair")
    m["periodic.gap_s"] = total("periodic.find_gap_pair")
    m["periodic.minimize_calls"] = count("periodic.minimize_periodic")
    m["periodic.minimize_s"] = total("periodic.minimize_periodic")

    node = "mpp._minimax_node_flow"
    engines = (node, "mpp._minimax_heat_flow")
    node_notes = notes(node)
    m["mpp.node_flow_calls"] = len(node_notes)
    m["mpp.node_flow_s"] = total(node)
    m["mpp.sweeps"] = sum(n[0] for n in node_notes)
    m["mpp.reparam_cycles"] = sum(n[1] for n in node_notes)
    m["mpp.refine_accept_ratio"] = _ratio(sum(n[2] for n in node_notes),
                                          len(under(newton, (node,))))
    # a restart wins when the outer call returns its result, not the base run's
    restarts = wins = 0
    for outer, kinds in (("mpp.best_mountain_pass", ("mpp.mountain_pass",)),
                         ("hetero.mountain_pass_hetero", engines)):
        for i in by_name[outer]:
            runs = [_result_id(spans[c][4]) for c in children[i]
                    if spans[c][0] in kinds]
            restarts += len(runs) - 1
            wins += len(runs) > 1 and spans[i][4] != runs[0]
    m["mpp.restart_win_ratio"] = _ratio(wins, restarts)
    m["mpp.heat_flow_s"] = total("mpp._minimax_heat_flow")
    m["mpp.heat_unbatched_steps"] = len(under("semiflow.rk4_step",
                                              ("mpp._classify_flow",)))
    m["mpp.self_s"] = self_time(lambda n: n.startswith("mpp."))

    m["hetero.minimize_s"] = total("hetero.minimize_hetero")
    m["hetero.window_max"] = max(notes("hetero._minimize_on_window"), default=0)
    m["hetero.gap_s"] = total("hetero.find_gap_pair_hetero")
    m["hetero.mph_s"] = total("hetero.mountain_pass_hetero")
    m["hetero.self_s"] = self_time(lambda n: n.startswith("hetero."))

    m["verify.suite_s"] = total("verify.run_property_suite")
    m["verify.oracle_build_s"] = total("OracleGrid2D.build")
    m["verify.bottleneck_s"] = total("verify.bottleneck_minimax_2d")
    m["verify.cross_check_s"] = total("verify.cross_check_mountain_pass")

    run_spans = by_name["cli.run"]
    for c in CLI_COMMANDS:
        m["cli.%s_s" % c] = sum((dur(i) for i in run_spans if spans[i][4] == c), 0.0)
    return m
