"""Command-line interface: subcommand dispatch, structured outputs, manifests.

Every run writes a JSON manifest echoing the configuration, the library
version, wall time, all computed scalars, and an inventory (path, size,
sha256) of every file produced, so a run can be reproduced and compared
bit-for-bit.  Fields and grids go to CSV (header ``i1,...,in,value``,
scientific notation with 17 significant digits); scalars go to JSON.

Exit status: 0 on success, 1 when any stage fails (for ``verify``: when any
property fails), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (ConfigError, RunConfig, _parse_float_or_auto,
                     _parse_int_or_auto, _parse_int_tuple, config_to_dict,
                     parse_config)
from .defaults import CSV_FLOAT_FORMAT, default_node_count
from .fields import FkSaddleError, TorusField
from .hetero import (asymptotics_report, find_gap_pair_hetero,
                     minimize_hetero, mountain_pass_hetero)
from .model import make_potential, residual_field, validate_assumptions
from .mpp import best_mountain_pass, build_initial_path, multiplicity_scan
from .periodic import find_gap_pair, minimize_periodic, require_gap
from .semiflow import FlowParams
from .verify import (OracleGrid2D, cross_check_mountain_pass,
                     run_property_suite)


def _flow_params(cfg: RunConfig) -> FlowParams:
    return FlowParams(dt=cfg.dt, t_max=cfg.t_max, stationarity_tol=cfg.tol,
                      max_steps=cfg.max_steps)


def _write_field_csv(path, values, first=0):
    """One row per site: its lattice coordinates and value.  ``first`` is the
    coordinate of the first index on axis 1 (``-W`` on a strip window)."""
    values = np.asarray(values)
    rows = [",".join("i%d" % (k + 1) for k in range(values.ndim)) + ",value"]
    for idx in np.ndindex(values.shape):
        coords = ",".join(str(i) for i in (idx[0] + first,) + idx[1:])
        rows.append("%s,%s" % (coords, CSV_FLOAT_FORMAT % values[idx]))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


class Manifest:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.t0 = time.time()
        self.scalars = {}
        self.tables = {}
        self.files = []
        self.errors = []

    def add_file(self, path):
        with open(path, "rb") as fh:
            blob = fh.read()
        self.files.append({"path": path, "bytes": len(blob),
                           "sha256": hashlib.sha256(blob).hexdigest()})

    def to_dict(self):
        return {
            "config": config_to_dict(self.cfg),
            "version": __version__,
            "threads": os.environ.get("FK_SADDLE_THREADS", ""),
            "wall_time_s": time.time() - self.t0,
            "scalars": self.scalars,
            "tables": self.tables,
            "files": self.files,
            "errors": self.errors,
            "ok": not self.errors,
        }

    def write(self):
        path = self.cfg.out or ("%s.json" % self.cfg.command)
        if path.endswith(".csv"):
            # the CSV was the requested artifact; park the manifest beside it
            path = path[:-4] + ".json"
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        return path


def _default_seeds(cfg, periods):
    seeds = [TorusField.constant(periods, j / 8.0) for j in range(8)]
    if cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(4):
            seeds.append(TorusField(periods, rng.uniform(0.0, 1.0, size=periods)))
    return seeds


def _window(cfg):
    return "auto" if cfg.window is None else cfg.window


def _gap_or_fail(pot, cfg, params):
    gap = find_gap_pair(pot, (1,) * pot.n, probes=cfg.probes,
                        seed=cfg.seed or 0, params=params)
    return require_gap(gap)


def run(cfg: RunConfig) -> Manifest:
    """Dispatch one validated configuration; returns the filled manifest."""
    cfg.validate()
    pot = make_potential(cfg.model, **cfg.model_params())
    params = _flow_params(cfg)
    man = Manifest(cfg)
    cmd = cfg.command

    if cmd == "minimize":
        res = minimize_periodic(pot, cfg.p, _default_seeds(cfg, cfg.p), params)
        man.scalars["c0p"] = res.c0p
        man.scalars["iterations"] = res.iterations
        man.scalars["limits"] = [float(f.values.flat[0]) for f in res.limits]
        man.scalars["residuals"] = [
            float(np.max(np.abs(residual_field(pot, f.values))))
            for f in res.limits]
        man.tables["limit_energies"] = res.energies
        if cfg.fields_out:
            _write_field_csv(cfg.fields_out, res.best.values)
            man.add_file(cfg.fields_out)

    elif cmd == "gap":
        gap = find_gap_pair(pot, cfg.p, probes=cfg.probes, seed=cfg.seed or 0,
                            params=params)
        if gap is None:
            man.errors.append("no gap found")
        else:
            man.scalars["v0"] = float(gap.v0.values.flat[0])
            man.scalars["w0"] = float(gap.w0.values.flat[0])
            man.tables["evidence"] = gap.evidence

    elif cmd == "mpp":
        gap = _gap_or_fail(pot, cfg, params)
        N = cfg.nodes if cfg.nodes is not None else default_node_count(cfg.p)
        kind = cfg.kind if cfg.p[0] > 1 else "linear"
        k = cfg.k if cfg.k is not None else max(2, cfg.p[0])
        path0 = build_initial_path(kind, N, k, gap, cfg.p)
        res = best_mountain_pass(pot, gap, path0, params,
                                 restarts=cfg.restarts, mode=cfg.mode)
        man.scalars["d0p"] = res.value
        man.scalars["c0p"] = res.c_ref
        man.scalars["barrier"] = res.barrier
        man.scalars["residual"] = res.residual
        man.scalars["argmax_index"] = res.argmax_index
        man.scalars["iterations"] = res.iterations
        man.scalars["success"] = res.success
        if not res.success:
            man.errors.append(res.message)
        if cfg.fields_out:
            _write_field_csv(cfg.fields_out, res.critical)
            man.add_file(cfg.fields_out)

    elif cmd == "landscape":
        gap = _gap_or_fail(pot, cfg, params)
        grid = OracleGrid2D.build(pot, gap, max(cfg.grid, 101))
        sub = np.linspace(0, grid.resolution - 1, cfg.grid).astype(int)
        g = np.linspace(0.0, 1.0, grid.resolution)
        path = cfg.fields_out or (
            cfg.out if cfg.out and cfg.out.endswith(".csv") else "landscape.csv")
        rows = ["a,b,I"]
        for ia in sub:
            for ib in sub:
                rows.append("%s,%s,%s" % (CSV_FLOAT_FORMAT % g[ia],
                                          CSV_FLOAT_FORMAT % g[ib],
                                          CSV_FLOAT_FORMAT % grid.values[ia, ib]))
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        man.add_file(path)
        vmax, at = grid.grid_max()
        man.scalars["grid_max"] = vmax
        man.scalars["grid_max_at"] = list(at)

    elif cmd == "multiplicity":
        gap = _gap_or_fail(pot, cfg, params)
        scan = multiplicity_scan(pot, cfg.kmax, gap, params,
                                 restarts=cfg.restarts)
        man.tables["rows"] = [
            {"k": r.k, "c0p": r.c, "d0p": r.d, "barrier": r.barrier,
             "residual": r.residual, "ok": r.ok, "message": r.message}
            for r in scan.rows]
        man.tables["pairwise_linf"] = scan.distances.tolist()
        man.tables["intersects_versus_k1"] = scan.versus_first
        if not all(r.ok for r in scan.rows):
            man.errors.append("one or more scan rows failed")

    elif cmd == "hetero":
        gap0 = _gap_or_fail(pot, cfg, params)
        res = minimize_hetero(pot, cfg.q, gap0, params,
                              start_width=cfg.window_start,
                              window=_window(cfg))
        man.scalars["c1q"] = res.c1q
        man.scalars["c1"] = res.consts.c1
        man.scalars["c0"] = res.consts.c0
        man.scalars["window"] = res.window
        man.scalars["tails"] = [res.v1.left, res.v1.right]
        man.scalars["tail_bound"] = res.tail_bound
        man.scalars["stability"] = res.stability
        man.scalars["k1_empirical"] = res.consts.k1_empirical
        rep = asymptotics_report(res.v1, gap0)
        man.tables["asymptotics"] = {"left": rep.left_tag, "right": rep.right_tag,
                                     "left_decay": rep.left_decay,
                                     "right_decay": rep.right_decay}
        if cfg.fields_out:
            _write_field_csv(cfg.fields_out, res.v1.values, -res.v1.half_width)
            man.add_file(cfg.fields_out)

    elif cmd == "mph":
        gap0 = _gap_or_fail(pot, cfg, params)
        mres = minimize_hetero(pot, cfg.q, gap0, params,
                               start_width=cfg.window_start,
                               window=_window(cfg), check_stability=False)
        gap1 = find_gap_pair_hetero(pot, cfg.q, gap0, probes=cfg.probes,
                                    seed=cfg.seed or 0, params=params,
                                    minimized=mres)
        if gap1 is None:
            man.errors.append("no heteroclinic gap pair found")
        else:
            res = mountain_pass_hetero(pot, gap1, params, N=cfg.nodes,
                                       mode=cfg.mode, restarts=cfg.restarts)
            man.scalars["d1q"] = res.value
            man.scalars["c1q"] = res.c_ref
            man.scalars["barrier"] = res.barrier
            man.scalars["residual"] = res.residual
            man.scalars["success"] = res.success
            man.scalars["tails"] = [gap1.v1.left, gap1.v1.right]
            man.scalars["window"] = gap1.v1.half_width
            if not res.success:
                man.errors.append(res.message)
            if cfg.fields_out:
                _write_field_csv(cfg.fields_out, gap1.v1.values + res.critical,
                                 -gap1.v1.half_width)
                man.add_file(cfg.fields_out)

    elif cmd == "verify":
        reports = run_property_suite(pot, cfg.p, seed=cfg.seed or 0,
                                     trials=cfg.trials, params=params)
        man.tables["properties"] = [
            {"name": r.name, "trials": r.trials, "worst_margin": r.worst_margin,
             "passed": r.passed, "seed": r.seed, "detail": r.detail}
            for r in reports]
        failed = [r.name for r in reports if not r.passed]
        if failed:
            man.errors.append("failed properties: %s" % ", ".join(failed))
        if cfg.cross_check:
            cc = cross_check_mountain_pass(pot, resolutions=cfg.resolutions,
                                           params=params, seed=cfg.seed or 0)
            man.scalars["node_flow"] = cc.node_flow
            man.scalars["heat_flow"] = cc.heat_flow
            man.scalars["oracle"] = {str(k): v for k, v in cc.oracle.items()}
            man.scalars["cross_check_agree"] = cc.agree
            if not cc.agree:
                man.errors.append("cross check disagreement %r" % cc.deltas)

    elif cmd == "validate":
        rep = validate_assumptions(pot, sample_count=max(cfg.trials, 1),
                                   seed=cfg.seed or 0)
        man.tables["assumptions"] = [
            {"name": c.name, "passed": c.passed,
             "worst_violation": c.worst_violation, "note": c.note}
            for c in rep.checks]
        if not rep.all_passed:
            man.errors.append("assumption checks failed")

    else:  # pragma: no cover - guarded by validate()
        raise ConfigError("unhandled command %r" % cmd)

    return man


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp, seed_required):
    sp.add_argument("--model", default="classical-fk")
    sp.add_argument("--amplitude", type=float, default=None)
    sp.add_argument("--coupling", type=float, default=None)
    sp.add_argument("--p", default=None, help="periods, e.g. 2,1")
    sp.add_argument("--q", default=None, help="transverse periods, e.g. 2")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--dt", default="auto")
    sp.add_argument("--seed", type=int, required=seed_required, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--fields-out", default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fk-saddle",
        description="Stationary states of generalized Frenkel-Kontorova "
                    "lattices: minimizers, gap pairs, and mountain-pass saddles.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("minimize", help="periodic ground states on a torus")
    _add_common(sp, seed_required=False)

    sp = sub.add_parser("gap", help="adjacent minimizer pair detection")
    _add_common(sp, seed_required=True)
    sp.add_argument("--probes", type=int, default=7)

    sp = sub.add_parser("mpp", help="periodic mountain pass")
    _add_common(sp, seed_required=True)
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--path", dest="kind", choices=("linear", "chi"), default="chi")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--mode", choices=("node-flow", "heat-flow"),
                    default="node-flow")
    sp.add_argument("--restarts", type=int, default=1)

    sp = sub.add_parser("landscape", help="reduced 2-variable energy surface")
    _add_common(sp, seed_required=False)
    sp.add_argument("--grid", type=int, default=400)

    sp = sub.add_parser("multiplicity", help="mountain-pass scan over p(k)")
    _add_common(sp, seed_required=True)
    sp.add_argument("--kmax", type=int, default=6)
    sp.add_argument("--restarts", type=int, default=1)

    sp = sub.add_parser("hetero", help="heteroclinic ground state on the strip")
    _add_common(sp, seed_required=True)
    sp.add_argument("--window", default="auto")

    sp = sub.add_parser("mph", help="heteroclinic mountain pass")
    _add_common(sp, seed_required=True)
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--window", default="auto")
    sp.add_argument("--mode", choices=("node-flow", "heat-flow"),
                    default="node-flow")
    sp.add_argument("--restarts", type=int, default=1)

    sp = sub.add_parser("verify", help="property suite (nonzero exit on failure)")
    _add_common(sp, seed_required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--cross-check", action="store_true")
    sp.add_argument("--resolutions", default="2001")

    sp = sub.add_parser("validate", help="sampling check of the model assumptions")
    _add_common(sp, seed_required=True)
    sp.add_argument("--samples", type=int, default=200)

    sp = sub.add_parser("run", help="run from a configuration file")
    sp.add_argument("config", help="path to a key=value configuration file")
    return ap


def _parse_flag(flag, parser, text):
    """A free-text flag, parsed as the job file parses its key."""
    try:
        return parser(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError("%s: %s" % (flag, exc))


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.model = args.model
    cfg.amplitude = args.amplitude
    cfg.coupling = args.coupling
    if args.p:
        cfg.p = _parse_flag("--p", _parse_int_tuple, args.p)
    if args.q:
        cfg.q = _parse_flag("--q", _parse_int_tuple, args.q)
    cfg.tol = args.tol
    cfg.dt = _parse_flag("--dt", _parse_float_or_auto, args.dt)
    cfg.seed = args.seed
    cfg.out = args.out
    cfg.fields_out = args.fields_out
    for name in ("nodes", "kind", "k", "mode", "restarts", "probes", "kmax",
                 "grid", "trials", "cross_check"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "window"):
        cfg.window = _parse_flag("--window", _parse_int_or_auto, args.window)
    if hasattr(args, "resolutions") and args.resolutions:
        cfg.resolutions = _parse_flag("--resolutions", _parse_int_tuple,
                                      args.resolutions)
    if hasattr(args, "samples"):
        cfg.trials = args.samples
    return cfg.validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    try:
        man = run(cfg)
    except FkSaddleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    path = man.write()
    summary = man.to_dict()
    for key, value in sorted(summary["scalars"].items()):
        print("%s = %s" % (key, value))
    for err in summary["errors"]:
        print("FAIL: %s" % err, file=sys.stderr)
    print("manifest: %s" % path)
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
