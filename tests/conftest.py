"""Fixtures shared by the test modules."""
import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py``, loaded from its file (``bench/`` is no package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
