"""Pipeline benchmark for fk-saddle: real CLI jobs, checked against references.

Run from the repository root:

    python3 perfbench/run.py --workload torus-saddle --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all           # every workload, default seeds

Load model: one process per run, one client in a closed loop.  Jobs of a
workload run one after another (a *pass*); passes repeat while another one
is expected to end within ``--seconds``, and at least one pass runs.  No
threads are started and the BLAS/OpenMP pools are pinned to one thread
before numpy is imported.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``      median pass time, first job start to last job end;
* ``setup_s``     median over fresh child processes of the time from process
                  start to ready-to-run (``import fk_saddle``, potentials,
                  ``RunConfig.validate()``);
* ``peak_rss_mb`` ``ru_maxrss`` of this process, in MiB;
* ``ok_ratio``    jobs passing every check over jobs attempted, i.e.
                  1 - fail_ratio, which reads 0 on every healthy run and so
                  gives no base to compare against (it is printed too).

``--trace 1`` runs one untraced pass and two traced passes and reports the
per-layer metrics of ``layers.PER_LAYER`` from the first traced pass, plus
the fixed-shape kernel probes; the times of ``layers.WORKLOAD_TIMES`` are
printed and recorded but kept out of the result line.  It checks that the traced results equal the
untraced ones bit for bit, that every count repeats exactly between the two
traced passes, and that the tracer leaves no wrapper behind.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check is
named on standard error (job, expected value, value obtained) and the exit
status is 1.  Per-run details, provenance and the spans of the traced pass go
to ``.perfbench-out/`` under the repository root.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
DEFAULT_SECONDS = 40


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's acceptance seed)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)   # child mode used for setup_s
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed):
    """Import the library from ./src and validate the workload's configs."""
    sys.path.insert(0, str(SRC))
    import fk_saddle
    import fk_saddle.cli as cli
    from fk_saddle.config import RunConfig
    from fk_saddle.model import make_potential

    if Path(fk_saddle.__file__).resolve().parent != SRC / "fk_saddle":
        raise RuntimeError("fk_saddle imported from %s, not from %s"
                           % (fk_saddle.__file__, SRC))
    configs = [RunConfig(seed=seed, **job.config).validate()
               for job in workload.jobs]
    for cfg in configs:
        make_potential(cfg.model, **cfg.model_params())
    return cli, configs


def measure_setup(workload, seed):
    """Seconds from spawning a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed (exit %s): %s"
                           % (proc.returncode, err.strip()))
    return elapsed


# ---------------------------------------------------------------------------
# passes and checks
# ---------------------------------------------------------------------------

def run_pass(cli, configs):
    """Run every job once; returns (seconds, [manifest dict or traceback])."""
    results = []
    t0 = time.perf_counter()
    for cfg in configs:
        try:
            results.append(cli.run(cfg).to_dict())
        except Exception:   # a failing job is a result to report, not a crash
            results.append(traceback.format_exc())
    return time.perf_counter() - t0, results


def check_pass(workload, results):
    """{job label: [failure messages]} for every job that failed."""
    failures = {}
    for job, res in zip(workload.jobs, results):
        if isinstance(res, str):
            msgs = ["raised %s" % res.strip().splitlines()[-1]]
        else:
            msgs = [] if res["ok"] else [
                "manifest ok: expected True, got False (%s)" % "; ".join(res["errors"])]
            try:
                msgs += job.check(res)
            except (KeyError, TypeError, ValueError) as exc:
                msgs.append("manifest incomplete: %r" % exc)
        if msgs:
            failures[job.label] = msgs
    return failures


def canonical(result):
    """Exact text of a job's results (floats by repr), wall time left out."""
    if isinstance(result, str):
        return result
    return json.dumps({k: result[k] for k in ("scalars", "tables", "errors", "ok")},
                      sort_keys=True, default=repr)


# ---------------------------------------------------------------------------
# the two run modes
# ---------------------------------------------------------------------------

def untraced_run(workload, seed, seconds):
    setup_samples = [measure_setup(workload, seed) for _ in range(SETUP_PROBES)]
    cli, configs = setup(workload, seed)
    walls, problems = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        wall, results = run_pass(cli, configs)
        walls.append(wall)
        failures = check_pass(workload, results)
        attempted += len(results)
        failed += len(failures)
        problems += _messages("pass %d" % len(walls), failures)
        if time.perf_counter() - t_start + statistics.median(walls) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {"pass_wall_s": walls, "setup_samples_s": setup_samples,
              "fail_ratio": failed / attempted}
    return metrics, attempted, failed, problems, detail


def traced_run(workload, seed):
    import layers
    import probes
    import tracer

    cli, configs = setup(workload, seed)
    wall_ref, reference = run_pass(cli, configs)
    tr = tracer.Tracer()
    layers.install(tr)
    try:
        wall_a, results_a = run_pass(cli, configs)
        spans_a = tr.take()
        _, results_b = run_pass(cli, configs)
        spans_b = tr.take()
    finally:
        tr.restore()
    problems = ["tracer left a wrapper installed: %s" % name
                for name in tracer.leftover_wrappers()]
    attempted = failed = 0
    for tag, results in (("untraced", reference), ("traced 1", results_a),
                         ("traced 2", results_b)):
        failures = check_pass(workload, results)
        if tag != "untraced":
            for job, ref, res in zip(workload.jobs, reference, results):
                if canonical(res) != canonical(ref):
                    failures.setdefault(job.label, []).append(
                        "results differ from the untraced pass")
        attempted += len(results)
        failed += len(failures)
        problems += _messages(tag, failures)
    layer_a = layers.metrics(spans_a)
    layer_b = layers.metrics(spans_b)
    for name, _, _, exact, _ in layers.PER_LAYER + layers.WORKLOAD_TIMES:
        if exact and layer_a[name] != layer_b[name]:
            problems.append("count %s: expected %r (traced 1), got %r (traced 2)"
                            % (name, layer_a[name], layer_b[name]))
    layer_a.update(probes.run_probes(seed))
    layer_a["trace.overhead_ratio"] = wall_a / wall_ref
    metrics = {name: (layer_a[name], unit)
               for name, unit, _, _, _ in layers.PER_LAYER}
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(spans_a, OUT / ("%s-seed%d-spans.jsonl" % (workload.name, seed)))
    detail = {"untraced_wall_s": wall_ref, "traced_wall_s": wall_a,
              "spans": len(spans_a),
              "workload_times": {name: (layer_a[name], unit)
                                 for name, unit, _, _, _ in layers.WORKLOAD_TIMES}}
    return metrics, attempted, failed, problems, detail


def _messages(tag, failures):
    return ["%s: job '%s': %s" % (tag, label, msg)
            for label, msgs in failures.items() for msg in msgs]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def provenance():
    import numpy
    import scipy

    return {"git_commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args):
    workload = WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else workload.default_seed
    if args.setup_probe:
        setup(workload, seed)
        print("ready", flush=True)
        return 0
    if args.trace:
        metrics, attempted, failed, problems, detail = traced_run(workload, seed)
    else:
        metrics, attempted, failed, problems, detail = untraced_run(
            workload, seed, args.seconds)
    correct = not problems
    print("workload %s, seed %d, trace %d: %d jobs attempted, %d failed"
          % (workload.name, seed, args.trace, attempted, failed))
    if not args.trace:
        print("fail_ratio = %.6g ratio" % detail["fail_ratio"])
    for name, (value, unit) in (*metrics.items(),
                                *detail.get("workload_times", {}).items()):
        print("%s = %.6g %s" % (name, value, unit))
    for msg in problems:
        print("CHECK FAILED: %s" % msg, file=sys.stderr)
    record = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct,
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": detail, "provenance": provenance()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-trace%d.json" % (workload.name, seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    summary, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines() or ["null"]
        print("\n".join("[%s] %s" % (name, line) for line in lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            summary[name] = None
        if proc.returncode != 0 or summary[name] is None:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fk_saddle" / "__init__.py").is_file():
        print("perfbench: no fk_saddle sources under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
