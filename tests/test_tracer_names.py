"""The benchmark's tracer measures layers by patching module-level names
of confdist (perfbench/tracing.py); a name that disappears makes its
metrics vanish silently, so every one of them must exist."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    names = [(module, name) for module, name, _ in tracing.SPANS]
    names += tracing.BISECTIONS
    names += [(module, "noncentral_chisq2_cdf") for module in tracing.G2_CALLERS]
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
