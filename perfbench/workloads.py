"""The benchmark workloads: CLI jobs, why each set was chosen, reference checks.

A workload is a list of jobs run one after another through
``fk_saddle.cli.run(RunConfig)``.  The workload seed becomes every job's
``RunConfig.seed`` (gap-probe fields, random minimizer seeds, property-suite
samples); nothing else about the inputs changes with it.

Each job carries a check on the manifest the CLI returns.  Exact values are
used where the paper or the acceptance gate fixes them; the gate's
inequalities are used elsewhere.  A check returns one message per failure,
naming the quantity, the expected value and the value obtained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

QUARTER = 0.25
D_TWO_CELL = 1.0 / 16.0          # periodic mountain pass on the (2,1) torus
RESIDUAL_MAX = 1e-8
BARRIER_MIN = 1e-6


@dataclass(frozen=True)
class Job:
    label: str                   # the equivalent fk-saddle command line
    config: dict                 # RunConfig fields (seed added per run)
    check: object                # manifest dict -> list of failure messages


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str
    jobs: tuple


def _near(fails, what, got, want, tol):
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        fails.append("%s: expected %r within %g, got %r" % (what, want, tol, got))


def _at_most(fails, what, got, limit):
    if not (isinstance(got, (int, float)) and got <= limit):
        fails.append("%s: expected <= %g, got %r" % (what, limit, got))


def _above(fails, what, got, limit):
    if not (isinstance(got, (int, float)) and got > limit):
        fails.append("%s: expected > %g, got %r" % (what, limit, got))


def _true(fails, what, got):
    if got is not True:
        fails.append("%s: expected True, got %r" % (what, got))


def check_gap(man):
    fails = []
    s = man["scalars"]
    _near(fails, "v0", s.get("v0"), -QUARTER, 1e-8)
    _near(fails, "w0", s.get("w0"), 1 - QUARTER, 1e-8)
    return fails


def check_minimize(man):
    fails = []
    s = man["scalars"]
    cells = math.prod(man["config"]["p"])
    _near(fails, "c0p", s.get("c0p"), -float(cells), 1e-8 * cells)
    _at_most(fails, "max residual", max(s.get("residuals") or [math.inf]),
             RESIDUAL_MAX)
    return fails


def check_multiplicity(man):
    fails = []
    rows = man["tables"].get("rows", [])
    if len(rows) != man["config"]["kmax"]:
        fails.append("rows: expected %d, got %d" % (man["config"]["kmax"], len(rows)))
    for r in rows:
        k = r["k"]
        _true(fails, "row k=%d ok" % k, r["ok"])
        _near(fails, "row k=%d c0p" % k, r["c0p"], -float(k), 1e-8 * k)
        _at_most(fails, "row k=%d residual" % k, r["residual"], RESIDUAL_MAX)
        _above(fails, "row k=%d barrier" % k, r["barrier"], BARRIER_MIN)
        if k == 2:
            _near(fails, "row k=2 d0p (node-flow)", r["d0p"], D_TWO_CELL, 1e-8)
    return fails


def check_hetero(man):
    fails = []
    s = man["scalars"]
    q = math.prod(man["config"]["q"])
    _near(fails, "c1q", s.get("c1q"), q * s.get("c1", math.nan), 1e-8 * q)
    _at_most(fails, "stability", s.get("stability"), 1e-9)
    return fails


def check_mph(man):
    fails = []
    s = man["scalars"]
    _true(fails, "success", s.get("success"))
    _at_most(fails, "residual", s.get("residual"), RESIDUAL_MAX)
    _above(fails, "barrier", s.get("barrier"), BARRIER_MIN)
    return fails


def check_verify(man):
    fails = []
    props = man["tables"].get("properties", [])
    if not props:
        fails.append("properties: expected the property suite, got none")
    for p in props:
        _true(fails, "property %s passed" % p["name"], p["passed"])
    s = man["scalars"]
    _true(fails, "cross_check_agree", s.get("cross_check_agree"))
    _near(fails, "d (node-flow)", s.get("node_flow"), D_TWO_CELL, 1e-8)
    _near(fails, "d (heat-flow)", s.get("heat_flow"), D_TWO_CELL, 1e-8)
    for res, value in (s.get("oracle") or {"none": None}).items():
        _near(fails, "d (oracle %s)" % res, value, D_TWO_CELL, 1e-3)
    return fails


WORKLOADS = {w.name: w for w in (
    Workload(
        name="torus-saddle", default_seed=3,
        why="The periodic pipeline (acceptance 1, 2, 7): many small-batch "
            "stencil calls on tori of 1-8 sites; the stencil engine and the "
            "flow's step count do the work, Newton almost none.",
        jobs=(
            Job("gap --p 1,1", {"command": "gap", "p": (1, 1)}, check_gap),
            Job("minimize --p 3,2", {"command": "minimize", "p": (3, 2)},
                check_minimize),
            Job("multiplicity --kmax 6", {"command": "multiplicity", "kmax": 6},
                check_multiplicity),
        )),
    Workload(
        name="kink-strip", default_seed=5,
        why="The heteroclinic pipeline: a fixed window whose stability check "
            "builds a dense 2W=320 strip Hessian (the memory peak), strip "
            "gradients, the strip string and the kink gap pair.",
        jobs=(
            Job("hetero --model pinned-fk --q 2 --window 160",
                {"command": "hetero", "model": "pinned-fk", "q": (2,),
                 "window": 160}, check_hetero),
            Job("mph --model pinned-fk --q 1 --nodes 65",
                {"command": "mph", "model": "pinned-fk", "q": (1,),
                 "nodes": 65}, check_mph),
        )),
    Workload(
        name="verify-crosscheck", default_seed=7,
        why="One kernel used three ways: batch-of-one heat-flow classify "
            "flows, batch-100 property flows and the oracle's 4M-state energy "
            "pass, plus the bottleneck flood fill.",
        jobs=(
            Job("verify --p 2,1 --trials 100 --cross-check --resolutions 2001",
                {"command": "verify", "p": (2, 1), "trials": 100,
                 "cross_check": True, "resolutions": (2001,)}, check_verify),
        )),
)}
