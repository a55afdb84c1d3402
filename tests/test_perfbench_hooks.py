"""The benchmark's tracer and probes (perfbench/) must still run.

``perfbench/layers.install`` wraps library functions and methods by name, and
``perfbench/probes.run_probes`` builds ``PeriodicSystem`` and ``StripSystem``
itself; a rename or a constructor change in the library would break
``perfbench/run.py --trace 1`` long after the suite passed.  These tests run
both against the current package without editing anything under perfbench/.
"""

import sys
from pathlib import Path

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
