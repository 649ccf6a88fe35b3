#!/usr/bin/env python3
"""Digest every output of the benchmark's workloads, to check that a change
leaves them byte for byte as they were, or compare every fit with another
checkout's.

    python3 scripts/output_digests.py                       # this checkout
    python3 scripts/output_digests.py --tree ../parent      # another checkout
    python3 scripts/output_digests.py --smoke --seeds 1     # tiny inputs
    python3 scripts/output_digests.py --against ../parent   # fit by fit

For each workload in `perfbench/workloads.py` and each seed (default 1 2
3), the workload is set up in a temporary directory and every input runs
once, in key order. Each `collect` outcome is folded into one SHA-256 per
workload and seed: the outcome's digest, or its error text when the input
failed. A cold fit's outcome digest holds only x and the pose, so its
objective trace, `converged` flag and match counts are folded in as well.
The last line of standard output is one JSON object, {"workload/seed":
hex}; two trees that print the same object gave the same bytes.

`--tree` runs the given checkout's own `src/` and `perfbench/`, as
`scripts/record_bench.py` does, with OpenBLAS pinned to one thread as
`perfbench/run.py` pins it. Nothing under `perfbench/` is changed; its
workloads are only imported.

`--fits FILE` also records every `fit_frame` call the workloads make, in
call order: x, the pose, the outer iterations it ran (one
`find_correspondences` call each), `converged`, the depth and landmark
match counts, or the error it raised. They go to FILE as JSON, with the
digests, under the same "workload/seed" keys. `--against TREE` records
the fits of both trees that way, each in its own process, and prints per
workload and seed whether the digests match, the largest per-fit |dx|,
|dq| (quaternion) and |dt| (meters) between the trees, and whether the
iteration counts, `converged` flags, match counts and errors are
identical. Its last line is one JSON object of those figures; it exits 1
when anything but the float figures differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_COUNTS = ("iterations", "converged", "correspondences", "landmarks", "error")


def _digest(wl) -> str:
    h = hashlib.sha256()
    for key in wl.keys():
        result = wl.run(key)
        outcome = wl.collect(key, result)
        h.update(f"{key} {outcome.digest or outcome.error}\n".encode())
        if hasattr(result, "objective_trace"):
            h.update(repr((result.objective_trace, result.converged,
                           result.correspondence_count,
                           result.landmark_count)).encode())
    return h.hexdigest()


def _record_fits(solver) -> list:
    """Make every `solver.fit_frame` call append a record of its fit to
    the returned list, which the caller empties to start a new record."""
    fits, searches = [], [0]
    fit_frame, find = solver.fit_frame, solver.find_correspondences

    def counted_find(*args, **kwargs):
        searches[0] += 1
        return find(*args, **kwargs)

    def recorded_fit(*args, **kwargs):
        searches[0] = 0
        try:
            fit = fit_frame(*args, **kwargs)
        except solver.TrackingError as exc:
            fits.append({"error": str(exc)})
            raise
        fits.append({"x": fit.x.tolist(), "rotation": fit.pose.rotation.tolist(),
                     "translation": fit.pose.translation.tolist(),
                     "iterations": searches[0], "converged": fit.converged,
                     "correspondences": fit.correspondence_count,
                     "landmarks": fit.landmark_count})
        return fit

    solver.fit_frame, solver.find_correspondences = recorded_fit, counted_find
    return fits


def digests(seeds, smoke: bool, fits: dict | None = None) -> dict:
    """{"workload/seed": digest}; with `fits`, also each key's fits there."""
    from workloads import WORKLOADS

    from blendfit import solver

    record = _record_fits(solver) if fits is not None else None
    out = {}
    for name, cls in WORKLOADS.items():
        for seed in seeds:
            key = f"{name}/{seed}"
            with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
                wl = cls(seed, work, smoke)
                wl.setup()
                if record is not None:
                    record.clear()
                out[key] = _digest(wl)
                if record is not None:
                    fits[key] = list(record)
            print(f"{key} {out[key]}", flush=True)
    return out


def _max_delta(fits, other, field) -> float:
    return max((max(abs(a - b) for a, b in zip(f[field], g[field]))
                for f, g in zip(fits, other) if field in f and field in g), default=0.0)


def compare(mine: dict, theirs: dict) -> tuple[dict, bool]:
    """Per key of two `--fits` records: the digests' and counts' equality
    and the largest float differences. Also whether only floats differ."""
    report, same = {}, True
    for key in mine:
        fits, other = mine[key]["fits"], theirs[key]["fits"]
        counts = len(fits) == len(other) and all(
            f.get(c) == g.get(c) for f, g in zip(fits, other) for c in _COUNTS)
        row = {"digest": mine[key]["digest"] == theirs[key]["digest"], "fits": len(fits),
               "counts": counts, "max_dx": _max_delta(fits, other, "x"),
               "max_dq": _max_delta(fits, other, "rotation"),
               "max_dt": _max_delta(fits, other, "translation")}
        report[key] = row
        # a workload without fits (synth-render) has only its bytes to match
        same &= counts and (row["digest"] or bool(fits))
        print(f"{key}: digest {'same' if row['digest'] else 'differs'}, {len(fits)} fits"
              + (f", max |dx| {row['max_dx']:.3g}, |dq| {row['max_dq']:.3g}, "
                 f"|dt| {row['max_dt']:.3g} m, iterations, converged, match counts "
                 f"and errors {'identical' if counts else 'DIFFER'}" if fits else ""),
              flush=True)
    return report, same


def _fits_of(tree: Path, seeds, smoke: bool, out: Path) -> dict:
    cmd = [sys.executable, __file__, "--tree", str(tree), "--fits", str(out),
           "--seeds", *map(str, seeds)] + (["--smoke"] if smoke else [])
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="ascii"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's tiny inputs")
    parser.add_argument("--fits", type=Path, metavar="FILE",
                        help="also write every fit to FILE as JSON")
    parser.add_argument("--against", type=Path, metavar="TREE",
                        help="compare every fit of --tree with TREE's")
    args = parser.parse_args(argv)

    tree = args.tree.resolve()
    if args.against:
        with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
            mine, theirs = (_fits_of(t, args.seeds, args.smoke, Path(work) / f"{i}.json")
                            for i, t in enumerate((tree, args.against.resolve())))
            report, same = compare(mine, theirs)
        print(json.dumps(report, sort_keys=True))
        return 0 if same else 1

    src = tree / "src"
    if not (src / "blendfit" / "__init__.py").is_file():
        print(f"output_digests: {src / 'blendfit'} not found", file=sys.stderr)
        return 2
    # pinned before NumPy loads: the thread count can change BLAS rounding
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(src), str(tree / "perfbench")]
    import blendfit
    if Path(blendfit.__file__).resolve().parent != (src / "blendfit").resolve():
        print(f"output_digests: imported blendfit from {blendfit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    fits = {} if args.fits else None
    out = digests(args.seeds, args.smoke, fits)
    if fits is not None:
        args.fits.write_text(json.dumps({k: {"digest": out[k], "fits": fits[k]}
                                         for k in out}), encoding="ascii")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
