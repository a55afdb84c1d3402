"""The benchmark's tracer (perfbench/) must still find every entry point.

``perfbench/layers.install`` wraps library functions and methods by name; a
rename in the library would break ``perfbench/run.py --trace 1`` long after
the suite passed.  This test installs and restores the tracer against the
current package without editing anything under perfbench/.
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
