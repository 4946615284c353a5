"""The benchmark harness's hooks into chromfield, checked without running it.

``perfbench/tracer.py`` wraps chromfield functions by name and
``perfbench/run.py`` reads the import times of ``chromfield.cli`` and of
numpy within it.  A renamed or deleted traced function, or numpy leaving
the CLI's imports, fails here rather than in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

from chromfield import partition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_import_times_read(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = importlib.import_module("tracer")
    run = importlib.import_module("run")
    original = partition.z_poly
    t = tracer.Tracer()
    try:
        t.install()
        assert partition.z_poly is not original
    finally:
        t.uninstall()
    assert partition.z_poly is original
    times = run.import_times()
    assert len(times) == 2
    assert all(isinstance(x, float) and x > 0 for x in times)
