"""The benchmark's tracer and probes (perfbench/) must still run.

``perfbench/layers.install`` wraps library functions and methods by name, and
``perfbench/probes.run_probes`` builds ``PeriodicSystem`` and ``StripSystem``
itself; a rename or a constructor change in the library would break
``perfbench/run.py --trace 1`` long after the suite passed.  These tests run
both against the current package without editing anything under perfbench/,
and run every benchmark job once through ``cli.run`` against its own check
(the only tier-1 run of the multiplicity, mph and verify --cross-check
pipelines).
"""

import sys
from pathlib import Path

from fk_saddle import RunConfig, cli, hetero, periodic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    try:
        t = tracer.Tracer()
        try:
            layers.install(t)
            assert tracer.leftover_wrappers()
        finally:
            t.restore()
        assert tracer.leftover_wrappers() == []
    finally:
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)


def test_order_box_systems_are_the_traced_classes(classical, gap, pinned, het_gap):
    # the tracer wraps grad, energy and hess_matrix in each class's own body,
    # so a system of the shared base class would drop out of the kernel counts
    assert hetero.StripSystem is periodic.StripSystem
    for pair, potential, cls in ((gap, classical, periodic.PeriodicSystem),
                                 (het_gap, pinned, periodic.StripSystem)):
        system, _ = pair.order_box(potential)
        assert type(system) is cls
        assert {"grad", "energy", "hess_matrix"} <= set(vars(cls))


def test_kernel_probes_build_their_systems(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes

    try:
        monkeypatch.setattr(probes, "BLOCKS", 1)
        monkeypatch.setattr(probes, "BLOCK_SECONDS", 0.0)
        figures = probes.run_probes(0)
        assert len(figures) == 5
        assert all(us > 0 for us in figures.values())
    finally:
        sys.modules.pop("probes", None)


def test_benchmark_jobs_pass_their_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    import workloads

    try:
        for w in workloads.WORKLOADS.values():
            for job in w.jobs:
                man = cli.run(RunConfig(seed=w.default_seed,
                                        **job.config).validate()).to_dict()
                assert man["ok"], (job.label, man["errors"])
                assert job.check(man) == [], job.label
    finally:
        sys.modules.pop("workloads", None)
