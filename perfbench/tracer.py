"""Span tracing for the benchmark's traced runs.

The tracer wraps blendfit's public functions at the names their callers
look them up by (for example both `blendfit.solver.find_correspondences`
and `blendfit.icp.find_correspondences`), so nothing under `src/` changes.
Each call records a span: name, start, end, the span that caused it, the
request it belongs to, the run phase, and the counts its return value
exposes. Spans stay in memory and are written out when the run ends.
Wrappers are installed only inside `Tracer.active`, so untraced passes
run the original functions.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 at the top
    request: int         # benchmark request (frame-producing call) id
    phase: str           # "setup", "pass<k>" or "check"
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _path_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _match_counts(args, kwargs, result):
    verts = args[0] if args else kwargs["vertices_cam"]
    return {"matched": len(result), "offered": len(verts)}


def _assemble_counts(args, kwargs, result):
    model, corrs = args[0], args[2]
    # rotated basis gather over the matched vertices: n * M * 3 float64
    return {"bytes_computed": model.n * len(corrs) * 3 * 8}


def _solve_counts(args, kwargs, result):
    return {"sweeps": len(result[1]) - 1}


def _fit_counts(args, kwargs, result):
    return {"converged": int(result.converged)}


def _icp_counts(args, kwargs, result):
    diag = result[1]
    return {"iterations": diag.iterations, "halvings": diag.halvings}


def _io_targets():
    from blendfit import io
    return [("blendfit.io", name, f"io.{name}", _path_bytes)
            for name in sorted(vars(io))
            if name.startswith(("read_", "write_")) and callable(getattr(io, name))]


# (module, attribute, span name, counts from (args, kwargs, result))
TARGETS = [
    ("blendfit.cli", "main", "cli.main", None),
    ("blendfit.cli", "generate_sequence", "synth.generate_sequence", None),
    ("blendfit.cli", "track_sequence", "solver.track_sequence", None),
    ("blendfit.cli", "initial_pose_from_depth", "icp.initial_pose_from_depth", None),
    ("blendfit.cli", "viseme_weighted_error", "metrics.viseme_weighted_error", None),
    ("blendfit.synth", "generate_frame", "synth.generate_frame", None),
    ("blendfit.synth", "render_depth", "synth.render_depth", None),
    ("blendfit.synth", "evaluate_mesh", "geometry.evaluate_mesh", None),
    ("blendfit.solver", "fit_frame", "solver.fit_frame", _fit_counts),
    ("blendfit.solver", "find_correspondences", "correspondence.find_correspondences",
     _match_counts),
    ("blendfit.solver", "assemble_quadratic", "solver.assemble_quadratic", _assemble_counts),
    ("blendfit.solver", "solve_l1_box", "solver.solve_l1_box", _solve_counts),
    ("blendfit.solver", "evaluate_objective", "solver.evaluate_objective", None),
    ("blendfit.solver", "evaluate_mesh", "geometry.evaluate_mesh", None),
    ("blendfit.solver", "initial_pose_from_depth", "icp.initial_pose_from_depth", None),
    ("blendfit.solver", "align_rigid", "icp.align_rigid", _icp_counts),
    ("blendfit.icp", "find_correspondences", "correspondence.find_correspondences",
     _match_counts),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._phase = ""
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.request, self._phase)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self, phase: str):
        """Install every wrapper for the duration of one run phase."""
        saved = []
        self._phase = phase
        try:
            for mod_name, attr, name, count in TARGETS + _io_targets():
                mod = importlib.import_module(mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig, count))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


class SpanIndex:
    """Queries over recorded spans: per-pass totals, medians, self time.

    Per-pass figures are the median over traced passes of that pass's
    total; every pass runs the same inputs, so counts repeat exactly.
    A function that is never called reads 0.
    """

    def __init__(self, spans):
        self.spans = spans
        child_ms = [0.0] * len(spans)
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child_ms[s.parent] += s.ms
                self.children[s.parent].append(i)
        self.self_ms = [s.ms - c for s, c in zip(spans, child_ms)]
        self.passes = sorted({s.phase for s in spans if s.phase.startswith("pass")})

    def select(self, name, phase="pass"):
        """Indices of spans called `name` (a prefix when it ends in '_'),
        in phases starting with `phase` ('' for every phase)."""
        match = ((lambda n: n.startswith(name)) if name.endswith("_")
                 else (lambda n: n == name))
        return [i for i, s in enumerate(self.spans)
                if match(s.name) and s.phase.startswith(phase)]

    def per_pass(self, indices, value) -> float:
        totals = {p: 0.0 for p in self.passes}
        for i in indices:
            totals[self.spans[i].phase] += value(i)
        return _median(list(totals.values()))

    def calls(self, name, phase="pass") -> float:
        if phase != "pass":
            return float(len(self.select(name, phase)))
        return self.per_pass(self.select(name), lambda i: 1.0)

    def ms_p50(self, name, phase="pass") -> float:
        return _median([self.spans[i].ms for i in self.select(name, phase)])

    def self_ms_p50(self, name, phase="pass") -> float:
        return _median([self.self_ms[i] for i in self.select(name, phase)])

    def count_mean(self, name, key) -> float:
        """Mean of a count over the calls that returned (a raise has none)."""
        return _mean([self.spans[i].counts[key] for i in self.select(name)
                      if key in self.spans[i].counts])

    def count_per_pass(self, name, key) -> float:
        return self.per_pass(self.select(name), lambda i: self.spans[i].counts.get(key, 0))

    def ms_per_pass(self, indices) -> float:
        return self.per_pass(indices, lambda i: self.spans[i].ms)

    def top_level(self, prefix):
        """Spans matching `prefix` whose caller is outside that module, so
        nested calls inside the module are not counted twice."""
        module = prefix.split(".")[0] + "."
        return [i for i in self.select(prefix)
                if self.spans[i].parent < 0
                or not self.spans[self.spans[i].parent].name.startswith(module)]

    def child_count_mean(self, parent, child) -> float:
        return _mean([sum(1 for c in self.children[i] if self.spans[c].name == child)
                      for i in self.select(parent)])
