"""The seams ``perfbench/tracing.py`` wraps exist and are restored intact.

The benchmark's traced run wraps module attributes and class methods of the
package by name. Installing its patches here makes a rename or deletion of a
wrapped name fail in this suite (a ``KeyError`` at install), not only in the
benchmark. The package namespace is built from the benchmark's own module
list, from the modules already imported, so no module is re-imported.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's ``run`` and ``tracing`` modules; sys.path is restored after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("tracing")


def _attributes(pkg) -> dict:
    """Every attribute of each module and of each class the module defines."""
    found = {}
    for module in vars(pkg).values():
        owners = [module] + [
            value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for attr, value in vars(owner).items():
                found[(owner, attr)] = value
    return found


def test_patches_install_and_restore_every_attribute(bench):
    run, tracing = bench
    pkg = SimpleNamespace(**{
        name: importlib.import_module(f"interview_markets.{name}") for name in run.MODULES
    })
    before = _attributes(pkg)
    patches = tracing.Patches(tracing.Tracer(), pkg)
    try:
        patches.install()
        during = _attributes(pkg)
    finally:
        patches.uninstall()
    after = _attributes(pkg)

    wrapped = {(owner.__name__, attr) for (owner, attr), value in during.items()
               if before.get((owner, attr)) is not value}
    assert {("interview_markets.runner", "run_experiment"), ("EstimatorState", "record"),
            ("HintedBandit", "allprobe_step"), ("RunRecorder", "__call__")} <= wrapped
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
