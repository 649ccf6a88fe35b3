"""The benchmark's tracer looks blendfit functions up by module and name.

`perfbench/tracer.py` wraps each `(module, attribute)` of its `TARGETS`
with `setattr`, so a function that moves or an import that is dropped
breaks the traced benchmark run. The file is read and executed here,
not imported, so nothing is written next to it.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TRACER = _ROOT / "perfbench" / "tracer.py"


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


def test_every_tracer_only_import_has_a_target(monkeypatch):
    # a name imported only for the tracer (`# noqa: F401`) must still be
    # one it wraps, so the import goes when its target does
    tracer = _load_tracer(monkeypatch)
    targets = {(mod, attr) for mod, attr, _, _ in tracer.TARGETS}
    unused = []
    for path in sorted((_ROOT / "src" / "blendfit").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                unused += [(f"blendfit.{path.stem}", alias.asname or alias.name)
                           for alias in node.names]
    missing = [f"{mod}.{attr}" for mod, attr in unused if (mod, attr) not in targets]
    assert not missing, f"tracer-only imports with no perfbench/tracer.py target: {missing}"


def test_every_import_is_used_or_a_tracer_target():
    # a module's imported name must be read in that module, or carry the
    # tracer's `# noqa: F401`, which the test above ties to a target; the
    # package's re-exports in __init__.py and `from __future__` are not
    # uses to check
    unread = []
    for path in sorted((_ROOT / "src" / "blendfit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.end_lineno - 1]):
                continue
            unread += [f"{path.name}: {alias.asname or alias.name}" for alias in node.names
                       if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unread, f"imported but never read: {unread}"
