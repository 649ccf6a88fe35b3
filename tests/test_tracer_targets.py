"""The benchmark's tracer looks blendfit functions up by module and name.

`perfbench/tracer.py` wraps each `(module, attribute)` of its `TARGETS`
with `setattr`, so a function that moves or an import that is dropped
breaks the traced benchmark run. The file is read and executed here,
not imported, so nothing is written next to it.
"""

import importlib
import sys
import types
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(_TRACER)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(_TRACER.read_text(encoding="utf-8"), str(_TRACER), "exec"),
         module.__dict__)
    return module


def test_every_tracer_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"perfbench/tracer.py targets not found: {missing}"
