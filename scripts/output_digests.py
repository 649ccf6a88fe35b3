#!/usr/bin/env python3
"""Digest every output of the benchmark's workloads, to check that a change
leaves them byte for byte as they were.

    python3 scripts/output_digests.py                       # this checkout
    python3 scripts/output_digests.py --tree ../parent      # another checkout
    python3 scripts/output_digests.py --smoke --seeds 1     # tiny inputs

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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def digests(seeds, smoke: bool) -> dict:
    from workloads import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
                wl = cls(seed, work, smoke)
                wl.setup()
                out[f"{name}/{seed}"] = _digest(wl)
            print(f"{name}/{seed} {out[f'{name}/{seed}']}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's tiny inputs")
    args = parser.parse_args(argv)

    tree = args.tree.resolve()
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
    print(json.dumps(digests(args.seeds, args.smoke), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
