#!/usr/bin/env python3
"""blendfit benchmark: one closed-loop workload per run, one request at a time.

    python3 perfbench/run.py --workload track-warm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke        # every workload, tiny
    python3 perfbench/run.py --self-test

Run from the repository root; blendfit is imported from `src/`. A run
sets up its workload three times (the median is `setup_s`), each set-up
followed by a third of the `--seconds` of requests in seeded passes over
the inputs (every input at least once), and finally checks every output
against exact synthetic ground truth. The last line of standard output is one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a traced run with `--trace 1`. A failed output check exits 1; a missing
`src/blendfit` exits 2 before printing a result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

DEFAULT_SEED = 1
HELDOUT_SEED = 2     # kept out of development; confirms a claimed gain
SETUPS = 3
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("synth-render", "track-warm", "track-cold-noisy")

# end-to-end metrics that every workload emits with --trace 0
END_TO_END = [("setup_s", "s"), ("frames_per_s", "frames/s"),
              ("frame_ms_p50", "ms"), ("frame_ms_tail", "ms"),
              ("peak_rss_mb", "MiB")]

ROADMAP_TABLE = [
    # (step, ROADMAP open-items figure, per-layer metric, why they differ)
    ("render_depth", "~346 ms/frame", "synth.render_depth.ms_p50",
     "host speed: same cost at every pose; see README"),
    ("track_sequence", "~61 ms/frame warm", "track_sequence_ms_per_frame",
     "moving clips need ~7 outer iterations, a still head 1-2"),
    ("assemble_quadratic", "~12 ms/call at ~1600 matches",
     "solver.assemble_quadratic.ms_p50", "scales with matches per call"),
    ("solve_l1_box", "~6.5 ms/call", "solver.solve_l1_box.ms_p50",
     "~0.13 ms/sweep; the table's figure is a full 50-sweep solve"),
    ("pose step", "~4.5 ms/call", "pose_step_ms",
     "fit_frame self time per outer iteration (pose step + objective)"),
    ("find_correspondences", "~2.4 ms/call",
     "correspondence.find_correspondences.ms_p50", "every vertex offered; host speed"),
]


def _environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def _tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, math.floor(100.0 - 1000.0 / n))) if n else 50


def _percentile(values, p) -> float:
    import numpy as np
    return float(np.percentile(values, p))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_order(seed, index, keys):
    import numpy as np
    return [keys[i] for i in
            np.random.default_rng([97, seed, index]).permutation(len(keys))]


def _serve(wl, keys, samples, outcomes, tracer=None):
    """One request at a time; records ms per frame for each request."""
    for key in keys:
        if tracer is not None:
            tracer.request += 1
        t0 = time.perf_counter()
        result = wl.run(key)
        ms = (time.perf_counter() - t0) * 1e3
        out = wl.collect(key, result)
        outcomes.append(out)
        samples.append(ms / out.frames)


def _failures(outcomes, warmup, check):
    """Frames failed at run time, by an output check, or by producing an
    output that differs from an earlier run of the same input."""
    first = {}
    for o in warmup + outcomes:
        first.setdefault(o.key, o.digest)
    failed = 0
    for o in outcomes:
        if o.failed:
            failed += o.failed
        elif o.key in check.failed_keys or o.digest != first[o.key]:
            failed += o.frames
    return failed


def _timed_slice(wl, seed, first_pass, seconds, samples, outcomes):
    """Serve requests until `seconds` have elapsed, but only after every
    input has run once. Returns (passes started, wall seconds)."""
    keys = wl.keys()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for key in _pass_order(seed, first_pass + passes, keys):
            if passes and time.perf_counter() - start >= seconds:
                break
            _serve(wl, [key], samples, outcomes)
        passes += 1
    return passes, time.perf_counter() - start


def _measure(cls, args, work):
    """Untraced run: end-to-end metrics.

    Each set-up is followed by an equal slice of the timed loop, so the
    measurement is spread over the whole run rather than one stretch of
    it, which evens out the host's speed drift.
    """
    setups, samples, outcomes, warmup = [], [], [], []
    rounds = 1 if args.smoke else SETUPS
    passes, wall = 0, 0.0
    for r in range(rounds):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = cls(args.seed, work, args.smoke)
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        if r == 0:
            _serve(wl, wl.keys()[:1], [], warmup)
        p, w = _timed_slice(wl, args.seed, passes, args.seconds / rounds, samples, outcomes)
        passes += p
        wall += w
    check = wl.check(corrupt=args.corrupt)

    frames = sum(o.frames for o in outcomes)
    tail = _tail_percentile(len(samples))
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups), "median of set-ups"),
        "frames_per_s": (frames / wall, "frames/s", frames, f"{wall:.1f} s"),
        "frame_ms_p50": (statistics.median(samples), "ms", len(samples), ""),
        "frame_ms_tail": (_percentile(samples, tail), "ms", len(samples), f"p{tail}"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB", 1, "whole process"),
    }
    return metrics, outcomes, warmup, check


def _layer_metrics(spans, overhead, frames_per_call):
    from tracer import SpanIndex
    ix = SpanIndex(spans)
    m = {}

    def add(name, value, unit):
        m[name] = (float(value), unit)

    add("synth.render_depth.calls", ix.calls("synth.render_depth"), "count")
    add("synth.render_depth.setup_calls", ix.calls("synth.render_depth", "setup"), "count")
    add("synth.render_depth.ms_p50", ix.ms_p50("synth.render_depth", ""), "ms")
    add("synth.generate_frame.self_ms", ix.self_ms_p50("synth.generate_frame", ""), "ms")
    for kind in ("write", "read"):
        top = ix.top_level(f"io.{kind}_")
        add(f"io.{kind}.ms_total", ix.ms_per_pass(top), "ms")
        add(f"io.{kind}.bytes",
            ix.per_pass(top, lambda i: spans[i].counts.get("bytes", 0)), "bytes")
    fc = "correspondence.find_correspondences"
    add(f"{fc}.calls", ix.calls(fc), "count")
    add(f"{fc}.ms_p50", ix.ms_p50(fc), "ms")
    offered = ix.count_per_pass(fc, "offered")
    add(f"{fc}.match_ratio", ix.count_per_pass(fc, "matched") / offered if offered else 0.0,
        "ratio")
    aq = "solver.assemble_quadratic"
    add(f"{aq}.calls", ix.calls(aq), "count")
    add(f"{aq}.ms_p50", ix.ms_p50(aq), "ms")
    add(f"{aq}.bytes_computed", ix.count_per_pass(aq, "bytes_computed"), "bytes")
    sl = "solver.solve_l1_box"
    add(f"{sl}.calls", ix.calls(sl), "count")
    add(f"{sl}.ms_p50", ix.ms_p50(sl), "ms")
    add(f"{sl}.sweeps_mean", ix.count_mean(sl, "sweeps"), "count")
    add("solver.evaluate_objective.calls", ix.calls("solver.evaluate_objective"), "count")
    add("solver.fit_frame.self_ms_p50", ix.self_ms_p50("solver.fit_frame"), "ms")
    outer = ix.child_count_mean("solver.fit_frame", fc)
    add("solver.outer_iterations_mean", outer, "count")
    add("solver.converged_frac", ix.count_mean("solver.fit_frame", "converged"), "frac")
    ar = "icp.align_rigid"
    add(f"{ar}.calls", ix.calls(ar), "count")
    add(f"{ar}.ms_p50", ix.ms_p50(ar), "ms")
    add(f"{ar}.iterations_mean", ix.count_mean(ar, "iterations"), "count")
    add(f"{ar}.halvings_mean", ix.count_mean(ar, "halvings"), "count")
    add("icp.initial_pose_from_depth.ms_p50", ix.ms_p50("icp.initial_pose_from_depth"), "ms")
    add("geometry.evaluate_mesh.calls", ix.calls("geometry.evaluate_mesh"), "count")
    add("geometry.evaluate_mesh.ms_total",
        ix.ms_per_pass(ix.select("geometry.evaluate_mesh")), "ms")
    add("metrics.viseme_weighted_error.ms", ix.ms_p50("metrics.viseme_weighted_error", ""),
        "ms")
    add("cli.main.ms", ix.ms_p50("cli.main"), "ms")
    add("cli.self_ms", ix.self_ms_p50("cli.main"), "ms")
    add("trace.overhead_frac", overhead, "frac")

    # figures for the ROADMAP cross-check only
    extra = {"track_sequence_ms_per_frame":
             ix.ms_p50("solver.track_sequence") / frames_per_call,
             "pose_step_ms": (m["solver.fit_frame.self_ms_p50"][0] / outer) if outer else 0.0,
             "matches_per_call": (ix.count_per_pass(fc, "matched") / m[f"{fc}.calls"][0]
                                  if m[f"{fc}.calls"][0] else 0.0)}
    return m, extra


def _trace(cls, args, work):
    """Traced run: per-layer metrics, each request served untraced and traced."""
    from tracer import Tracer
    tracer = Tracer()
    work.mkdir(parents=True)
    wl = cls(args.seed, work, args.smoke)
    with tracer.active("setup"):
        wl.setup()
    keys = wl.keys()
    warmup = []
    _serve(wl, keys[:1], [], warmup)
    plain, traced, outcomes = [], [], []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        # each request runs untraced, then traced: the pairs give the overhead
        for key in _pass_order(args.seed, passes, keys):
            _serve(wl, [key], plain, [])
            with tracer.active(f"pass{passes}"):
                _serve(wl, [key], traced, outcomes, tracer)
        passes += 1
    with tracer.active("check"):
        check = wl.check(corrupt=args.corrupt)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{cls.name}-seed{args.seed}.jsonl")

    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    frames_per_call = outcomes[0].frames
    layers, extra = _layer_metrics(tracer.spans, overhead, frames_per_call)
    return layers, extra, outcomes, warmup, check


def _print_table(rows):
    for name, value, unit, n, note in rows:
        count = f"n={n}" if n != "" else ""
        print(f"  {name:<46} {value:>14.6g} {unit:<9} {count:<8} {note}")


def _run_one(args) -> int:
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    work = WORK / f"{cls.name}-seed{args.seed}-{os.getpid()}"
    print(f"# perfbench {cls.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print(f"# env {json.dumps(_environment(), sort_keys=True)}")
    try:
        if args.trace:
            layers, extra, outcomes, warmup, check = _trace(cls, args, work)
        else:
            e2e, outcomes, warmup, check = _measure(cls, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.frames for o in outcomes)
    failed = _failures(outcomes, warmup, check)
    correct = failed == 0 and not check.messages
    for msg in check.messages[:20] + [o.error for o in outcomes if o.error][:20]:
        print(f"# FAILED {msg}")
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    print("end-to-end" if not args.trace else "per-layer (traced passes)")
    if args.trace:
        _print_table((k, v, u, "", "") for k, (v, u) in layers.items())
        print("ROADMAP cross-check (open-items table vs this traced run)")
        for step, table, key, why in ROADMAP_TABLE:
            value = layers[key][0] if key in layers else extra[key]
            if value:
                print(f"  {step:<22} table {table:<28} here {value:9.3f} ms   {why}")
        print(f"  matches per find_correspondences call: {extra['matches_per_call']:.0f}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        _print_table((k, *e2e[k]) for k in e2e)
        print("accuracy (exact ground truth; identical for a fixed seed)")
        _print_table((k, v, u, n, "") for k, (v, u, n) in check.metrics.items())
        print(f"  {'failed_frac':<46} {failed / attempted:>14.6g} {'1':<9} n={attempted}")
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k, _ in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    worst = 0
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) else None
    ok = all(r is not None for r in results.values())
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{k}": v for w, r in results.items() if r
                    for k, v in r["metrics"].items()}}))
    return worst


def _self_test() -> int:
    """Smoke-run every workload: metric names must match BENCHMARK.json in
    both modes, clean runs must pass and corrupted outputs must fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    declared = {w["name"] for w in spec["workloads"]}
    problems = []
    if declared != set(WORKLOAD_NAMES):
        problems.append(f"BENCHMARK.json workloads {sorted(declared)}")
    for name in WORKLOAD_NAMES:
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
                   "--smoke"] + (["--corrupt"] if corrupt else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            label = f"{name} trace={trace}{' corrupt' if corrupt else ''}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line\n{proc.stderr[-2000:]}")
                continue
            if corrupt:
                if proc.returncode == 0 or result["correct"] or result["failed"] == 0:
                    problems.append(f"{label}: corrupted output passed the checks")
                continue
            if proc.returncode != 0 or not result["correct"]:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(expect[trace]))} "
                                f"differ from BENCHMARK.json")
            print(f"self-test {label}: ok")
    for p in problems:
        print(f"self-test FAILED {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELDOUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time (at least one pass over the inputs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single set-up: every workload in seconds")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before the checks, which must then fail")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "blendfit" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'blendfit'} not found; run from a blendfit checkout",
              file=sys.stderr)
        return 2
    # pinned before NumPy loads; recorded in the environment line
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return _self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return _run_all(args)
    import blendfit
    if Path(blendfit.__file__).resolve().parent != (SRC / "blendfit").resolve():
        print(f"perfbench: imported blendfit from {blendfit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
