"""Command-line interface: subcommand dispatch, structured outputs, manifests.

Every run writes a JSON manifest echoing the configuration, the library
version, wall time, all computed scalars, and an inventory (path, size,
sha256) of every file produced, so a run can be reproduced and compared
bit-for-bit.  Fields and grids go to CSV (header ``i1,...,in,value``,
scientific notation with 17 significant digits); scalars go to JSON.

Each subcommand's flags are the job-file keys it reads
(``config.COMMAND_FLAGS``): a flag given on the command line is parsed by the
key's ``config.SCHEMA`` entry, a flag left out keeps the ``RunConfig``
default, and ``RunConfig.validate`` checks the result, exactly as for
``fk-saddle run job.cfg``.

Exit status: 0 on success, 1 when any stage fails (for ``verify``: when any
property fails), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .config import (COMMAND_FLAGS, COMMON_FLAGS, SCHEMA, SEEDED, ConfigError,
                     RunConfig, config_to_dict, parse_config, set_key)
from .defaults import CSV_FLOAT_FORMAT, TAIL_BOUND_TOL
from .fields import FkSaddleError
from .hetero import (asymptotics_report, find_gap_pair_hetero,
                     minimize_hetero, mountain_pass_hetero)
from .model import make_potential, residual_field, validate_assumptions
from .mpp import best_mountain_pass, multiplicity_scan
from .periodic import (default_minimize_seeds, find_gap_pair, minimize_periodic,
                       require_gap)
from .verify import (cross_check_mountain_pass, run_property_suite,
                     sample_landscape)


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


def _gap_or_fail(pot, cfg):
    gap = find_gap_pair(pot, (1,) * pot.n, probes=cfg.probes,
                        seed=cfg.seed or 0, tol=cfg.tol)
    return require_gap(gap)


def _minimize_kink(pot, cfg, gap0, man, **kw):
    """The heteroclinic ground state on the job's window.  A fixed window
    whose tail bound is not below TAIL_BOUND_TOL fails the run (the
    doubling policy never stops short of it)."""
    res = minimize_hetero(pot, cfg.q, gap0, cfg.tol, window=cfg.window, **kw)
    if not res.tail_bound < TAIL_BOUND_TOL:
        man.errors.append("tail bound %g at window W=%d is not below "
                          "TAIL_BOUND_TOL=%g: widen the window or leave it "
                          "to the doubling policy"
                          % (res.tail_bound, res.window, TAIL_BOUND_TOL))
    return res


def _saddle(res, level, ground):
    """The manifest entries of a mountain pass ``res``: its level and its
    corner level under the keys ``level`` and ``ground``, its chain
    certificate (``d_upper``, ``densified``), its barrier and its residual.
    The saddles of mpp and mph and every multiplicity row are written here."""
    return {level: res.value, ground: res.c_ref, "d_upper": res.d_upper,
            "densified": res.densified, "barrier": res.barrier,
            "residual": res.residual}


def run(cfg: RunConfig) -> Manifest:
    """Dispatch one validated configuration; returns the filled manifest."""
    cfg.validate()
    pot = make_potential(cfg.model, **cfg.model_params())
    man = Manifest(cfg)
    cmd = cfg.command

    if cmd == "minimize":
        seeds = default_minimize_seeds(np.random.default_rng(cfg.seed or 0), cfg.p)
        res = minimize_periodic(pot, cfg.p, seeds, cfg.tol)
        man.scalars["c0p"] = res.c0p
        man.scalars["iterations"] = res.iterations
        man.scalars["residuals"] = [
            float(np.max(np.abs(residual_field(pot, f)))) for f in res.limits]
        man.tables["limits"] = [f.tolist() for f in res.limits]
        man.tables["limit_energies"] = res.energies
        if cfg.fields_out:
            _write_field_csv(cfg.fields_out, res.best)
            man.add_file(cfg.fields_out)

    elif cmd == "gap":
        gap = find_gap_pair(pot, cfg.p, probes=cfg.probes, seed=cfg.seed or 0,
                            tol=cfg.tol)
        if gap is None:
            man.errors.append("no gap found")
        else:
            man.scalars["v0"] = float(gap.lo.flat[0])
            man.scalars["w0"] = float(gap.hi.flat[0])
            man.tables["evidence"] = gap.evidence

    elif cmd == "mpp":
        gap = _gap_or_fail(pot, cfg)
        res = best_mountain_pass(pot, gap, cfg.p, cfg.tol, N=cfg.nodes)
        man.scalars.update(_saddle(res, "d0p", "c0p"), success=res.success,
                           argmax_index=res.argmax_index,
                           iterations=res.iterations)
        if not res.success:
            man.errors.append(res.message)
        if cfg.fields_out:
            _write_field_csv(cfg.fields_out, res.critical)
            man.add_file(cfg.fields_out)

    elif cmd == "landscape":
        gap = _gap_or_fail(pot, cfg)
        (ga, gb), values, vmax, at = sample_landscape(pot, gap, cfg.grid)
        path = cfg.fields_out or (
            cfg.out if cfg.out and cfg.out.endswith(".csv") else "landscape.csv")
        rows = ["a,b,I"]
        for ia in range(cfg.grid):
            for ib in range(cfg.grid):
                rows.append("%s,%s,%s" % (CSV_FLOAT_FORMAT % ga[ia],
                                          CSV_FLOAT_FORMAT % gb[ib],
                                          CSV_FLOAT_FORMAT % values[ia, ib]))
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        man.add_file(path)
        man.scalars["grid_max"] = vmax
        man.scalars["grid_max_at"] = list(at)

    elif cmd == "multiplicity":
        gap = _gap_or_fail(pot, cfg)
        scan = multiplicity_scan(pot, cfg.kmax, gap, cfg.tol)
        man.tables["rows"] = [
            dict(_saddle(r.result, "d0p", "c0p"), k=r.k, witness=r.witness,
                 ok=r.result.success, message=r.result.message)
            for r in scan.rows]
        man.tables["pairwise_linf"] = scan.distances.tolist()
        man.tables["intersects_versus_k1"] = scan.versus_first
        if not all(r.result.success for r in scan.rows):
            man.errors.append("one or more scan rows failed")

    elif cmd == "hetero":
        gap0 = _gap_or_fail(pot, cfg)
        res = _minimize_kink(pot, cfg, gap0, man)
        man.scalars["c1q"] = res.c1q
        man.scalars["c1"] = res.c1
        man.scalars["c0"] = res.c0
        man.scalars["window"] = res.window
        man.scalars["tails"] = [gap0.lo.item(), gap0.hi.item()]
        man.scalars["tail_bound"] = res.tail_bound
        man.scalars["stability"] = res.stability
        man.scalars["k1_empirical"] = res.k1_empirical
        rep = asymptotics_report(res.v1, gap0)
        man.tables["asymptotics"] = {"left": rep.left_tag, "right": rep.right_tag,
                                     "left_decay": rep.left_decay,
                                     "right_decay": rep.right_decay}
        if cfg.fields_out:
            _write_field_csv(cfg.fields_out, res.v1, -res.window)
            man.add_file(cfg.fields_out)

    elif cmd == "mph":
        gap0 = _gap_or_fail(pot, cfg)
        mres = _minimize_kink(pot, cfg, gap0, man, check_stability=False)
        gap1 = find_gap_pair_hetero(pot, mres, gap0, probes=cfg.probes,
                                    seed=cfg.seed or 0, tol=cfg.tol)
        if gap1 is None:
            man.errors.append("no heteroclinic gap pair found")
        else:
            res = mountain_pass_hetero(pot, gap1, cfg.tol, N=cfg.nodes)
            man.scalars.update(_saddle(res, "d1q", "c1q"), success=res.success,
                               tails=[gap0.lo.item(), gap0.hi.item()],
                               window=mres.window)
            if not res.success:
                man.errors.append(res.message)
            if cfg.fields_out:
                _write_field_csv(cfg.fields_out, gap1.lo + res.critical, -mres.window)
                man.add_file(cfg.fields_out)

    elif cmd == "verify":
        # the suite and the cross check share one gap pair on the unit torus
        gap = _gap_or_fail(pot, cfg) if cfg.cross_check else None
        reports = run_property_suite(pot, cfg.p, seed=cfg.seed or 0,
                                     trials=cfg.trials, tol=cfg.tol, gap=gap,
                                     probes=cfg.probes)
        man.tables["properties"] = [
            {"name": r.name, "trials": r.trials, "worst_margin": r.worst_margin,
             "passed": r.passed, "seed": r.seed, "detail": r.detail}
            for r in reports]
        failed = [r.name for r in reports if not r.passed]
        if failed:
            man.errors.append("failed properties: %s" % ", ".join(failed))
        if cfg.cross_check:
            cc = cross_check_mountain_pass(pot, gap, resolutions=cfg.resolutions,
                                           tol=cfg.tol)
            man.scalars["node_flow"] = cc.node_flow
            man.scalars["heat_flow"] = cc.heat_flow
            man.scalars["oracle"] = {str(k): v for k, v in cc.oracle.items()}
            man.scalars["oracle_band"] = {str(k): v for k, v in cc.band.items()}
            man.scalars["cross_check_agree"] = cc.agree
            man.errors.extend("cross check: %s failed: %s" % item
                              for item in cc.failed.items())
            if not (cc.agree or cc.failed):
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

# the flags (config.COMMAND_FLAGS) whose job-file key has another name
FLAG_KEYS = {"window": "size", "samples": "trials"}
HELP = {
    "minimize": "periodic ground states on a torus",
    "gap": "adjacent minimizer pair detection",
    "mpp": "periodic mountain pass",
    "landscape": "reduced 2-variable energy surface",
    "multiplicity": "mountain-pass scan over p(k)",
    "hetero": "heteroclinic ground state on the strip",
    "mph": "heteroclinic mountain pass",
    "verify": "property suite (nonzero exit on failure)",
    "validate": "sampling check of the model assumptions",
}


def schema_entry(flag):
    """The (section, key) of SCHEMA that ``--flag`` sets."""
    name = FLAG_KEYS.get(flag, flag)
    return next(entry for entry in SCHEMA if entry[1] == name)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fk-saddle", allow_abbrev=False,
        description="Stationary states of generalized Frenkel-Kontorova "
                    "lattices: minimizers, gap pairs, and mountain-pass saddles.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, flags in COMMAND_FLAGS.items():
        sp = sub.add_parser(command, help=HELP[command], allow_abbrev=False)
        for flag in COMMON_FLAGS + flags:
            key = ".".join(part for part in schema_entry(flag) if part)
            kw = {"dest": flag, "help": "job-file key " + key}
            if flag == "cross-check":
                kw.update(action="store_const", const="true")
            if flag == "seed":
                kw["required"] = command in SEEDED
            sp.add_argument("--" + flag, **kw)
    sp = sub.add_parser("run", help="run from a configuration file",
                        allow_abbrev=False)
    sp.add_argument("config", help="path to a key=value configuration file")
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for flag in COMMON_FLAGS + COMMAND_FLAGS[args.command]:
        text = getattr(args, flag)
        if text is not None:
            set_key(cfg, schema_entry(flag), text, "--" + flag)
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
