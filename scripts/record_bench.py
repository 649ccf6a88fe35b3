#!/usr/bin/env python3
"""Record a benchmark entry: per-metric medians of ten runs per workload.

    python3 scripts/record_bench.py BENCH_8.json                    # this checkout
    python3 scripts/record_bench.py BENCH_7.json --tree ../parent   # another checkout
    python3 scripts/record_bench.py BENCH_14.json --against ../parent BENCH_14_parent.json
    python3 scripts/record_bench.py "$(mktemp)" --smoke             # tiny inputs

Each run is `python3 perfbench/run.py --workload W --seed 1 --seconds 25
--trace 0`, started in the root of the measured tree, so that tree's own
benchmark and source are what runs. The runs go in rounds (every workload
once, ten times over), which spreads the host's speed drift over all
workloads. `--against TREE OUT` measures a second tree in the same
rounds and writes its entry to OUT: each workload runs on both trees back
to back, the pair's order flipping from one workload and round to the
next, so run i of one entry and run i of the other are a pair measured
at the same host speed. The entry holds, for each workload, every run's
end-to-end metrics and their per-metric medians, plus the `# env` lines
the runs printed, the tree's `git rev-parse HEAD`, whether its tracked
files differ from that commit (`dirty`) and, with `--against`, the other
tree's commit (`paired_with`) and, per workload and metric, `pairs`: how
many pairs this tree won, lost and tied (better as `BENCHMARK.json`
defines it) and the quartiles of this tree's runs and of the other's.
A gain may be claimed when the change won at least nine pairs in ten and
the medians differ by more than the parent's distance between quartiles.
A run that fails its output checks or exits non-zero stops the script
with exit code 1 and no entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("synth-render", "track-warm", "track-cold-noisy")
RUNS = 10
SECONDS = 25
SEED = 1


def _run(tree: Path, workload: str, smoke: bool) -> tuple[dict, list]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1" if smoke else str(SECONDS),
           "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    env = [json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")]
    return result, env


def _git(tree: Path, *args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          cwd=tree).stdout.strip()


def _entry(tree: Path, runs: dict, envs: list, smoke: bool) -> dict:
    workloads = {}
    for w, results in runs.items():
        names = results[0]["metrics"]
        workloads[w] = {
            "median": {k: {"value": statistics.median(r["metrics"][k]["value"]
                                                      for r in results),
                           "unit": names[k]["unit"]} for k in names},
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
        }
    return {"commit": _git(tree, "rev-parse", "HEAD") or None,
            "dirty": bool(_git(tree, "status", "--porcelain", "--untracked-files=no")),
            "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                       f"--seconds {1 if smoke else SECONDS} --trace 0"
                       + (" --smoke" if smoke else ""),
            "runs_per_workload": RUNS, "env": envs, "workloads": workloads}


def _quartiles(values) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def _pairs(runs: list, other: list, lower_is_better: dict) -> dict:
    """Per metric: the pairs these runs won, lost and tied against the
    other tree's run i, and both sides' quartiles."""
    out = {}
    for k, lower in lower_is_better.items():
        mine, theirs = [r[k] for r in runs], [r[k] for r in other]
        better = [(a < b) if lower else (a > b) for a, b in zip(mine, theirs)]
        tied = sum(a == b for a, b in zip(mine, theirs))
        out[k] = {"won": sum(better), "tied": tied,
                  "lost": len(mine) - sum(better) - tied,
                  "quartiles": _quartiles(mine),
                  "paired_quartiles": _quartiles(theirs)}
    return out


def record(trees: list[Path], smoke: bool) -> list[dict]:
    """One entry per tree, the trees measured in alternating order."""
    runs = [{w: [] for w in WORKLOADS} for _ in trees]
    envs = [[] for _ in trees]
    for k in range(RUNS):
        for j, w in enumerate(WORKLOADS):
            order = list(range(len(trees)))
            for i in (order if (k + j) % 2 == 0 else order[::-1]):
                result, env = _run(trees[i], w, smoke)
                runs[i][w].append(result)
                envs[i] += [e for e in env if e not in envs[i]]
    entries = [_entry(t, r, e, smoke) for t, r, e in zip(trees, runs, envs)]
    if len(entries) == 2:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
        for me, other in ((0, 1), (1, 0)):
            entries[me]["paired_with"] = entries[other]["commit"]
            for w, wl in entries[me]["workloads"].items():
                wl["pairs"] = _pairs(wl["runs"], entries[other]["workloads"][w]["runs"],
                                     lower)
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path, help="entry to write, e.g. BENCH_8.json")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--against", nargs=2, type=Path, metavar=("TREE", "OUT"),
                        help="also measure TREE, alternating with the first "
                             "tree, and write its entry to OUT")
    parser.add_argument("--smoke", action="store_true",
                        help="perfbench's tiny inputs, one second per run")
    args = parser.parse_args(argv)
    trees, outs = [args.tree.resolve()], [args.out]
    if args.against:
        trees.append(args.against[0].resolve())
        outs.append(args.against[1])
    try:
        entries = record(trees, args.smoke)
    except RuntimeError as exc:
        print(f"record_bench: {exc}", file=sys.stderr)
        return 1
    for out, entry in zip(outs, entries):
        out.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n",
                       encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
