"""Command-line front end.

Subcommands cover the full pipeline: `synth` renders a ground-truth
dataset, `track` recovers pose and coefficients from one, `personalize`
adapts a basis to example scans, `eval` scores a prediction against
ground truth, and `apply` exports per-frame meshes for inspection.

Exit codes are a stable contract: 0 success, 1 validation or usage
error, 2 runtime failure. A JSON config file (--config) supplies
defaults for any flag of the chosen subcommand; flags given on the
command line always win. `track` reads and checks its frames in one
pool of --threads workers; results are deterministic for fixed flags
and seed, whatever --threads says.

The argument parser is built once per process and never changed after:
each `main` call parses into a fresh namespace, so in-process calls
share no state through it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import io
from .geometry import CameraIntrinsics, evaluate_mesh
from .metrics import (
    UnknownPhonemeError,
    VisemeTable,
    sequence_report,
    viseme_weighted_error,
)
from .personalize import PersonalizeConfig, RankDeficiencyError, personalize
from .solver import SolverConfig, TrackingError, track_sequence
from .solver import initial_pose_from_depth  # noqa: F401  not called; perfbench/tracer.py wraps it by this name
from .synth import NoiseConfig, default_landmarks, generate_sequence, make_test_head

_TESTHEAD = "testhead"

_VALIDATION_ERRORS = (
    io.FormatError,
    UnknownPhonemeError,
    RankDeficiencyError,
    ValueError,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
)


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2; flags are
    # spelled in full, because the --config overlay knows only full names
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_model(spec: str):
    """A model file path, or the literal name 'testhead' for the
    built-in procedural model."""
    if spec == _TESTHEAD:
        return make_test_head()
    return io.read_model(spec)


def _cmd_synth(args) -> int:
    model = _load_model(args.model)
    script = io.read_bsc_sequence(args.script)
    if script.n != model.n:
        raise ValueError(
            f"script has {script.n} coefficients, model has {model.n}")
    intr = CameraIntrinsics(fx=args.fx, fy=args.fy,
                            cx=args.width / 2.0, cy=args.height / 2.0,
                            width=args.width, height=args.height)
    noise = NoiseConfig(depth_sigma=args.noise_depth,
                        landmark_sigma=args.noise_landmark,
                        landmark_dropout=args.dropout, seed=args.seed)
    # landmark vertex choice is part of the dataset definition, so it is
    # pinned to the model, not to the noise seed
    ids = default_landmarks(model)

    generated = generate_sequence(model, script, intr, ids, noise)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (frame, lms) in enumerate(zip(generated.frames, generated.landmarks)):
        depth_name = f"frame_{i:04d}.bsdf"
        lm_name = f"landmarks_{i:04d}.json"
        io.write_depth(out / depth_name, frame, intr)
        io.write_landmarks(out / lm_name, lms)
        entries.append(io.FrameEntry(depth_path=out / depth_name,
                                     timestamp=frame.timestamp,
                                     landmarks_path=out / lm_name))
    gt_path = out / "ground_truth.bscseq"
    io.write_bsc_sequence(gt_path, generated.ground_truth)
    manifest = io.DatasetManifest(camera=intr, frames=tuple(entries),
                                  ground_truth=gt_path, seed=args.seed,
                                  noise=noise)
    io.write_manifest(out / "manifest.json", manifest)
    print(f"wrote {len(entries)} frames to {out}")
    return 0


def _cmd_track(args) -> int:
    model = _load_model(args.model)
    manifest = io.read_manifest(args.dataset)
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")

    cam = manifest.camera
    stated = (cam.fx, cam.fy, cam.cx, cam.cy)

    def load(i_entry):
        i, entry = i_entry
        frame, intr = io.read_depth(entry.depth_path, frame_index=i)
        if (frame.width, frame.height) != (cam.width, cam.height):
            raise ValueError(
                f"frame {i} ({entry.depth_path}) is {frame.width}x{frame.height}, "
                f"manifest camera says {cam.width}x{cam.height}")
        got = (intr.fx, intr.fy, intr.cx, intr.cy)
        if not np.allclose(got, stated, rtol=1e-5):
            raise ValueError(
                f"frame {i} ({entry.depth_path}) has intrinsics (fx, fy, cx, cy) = "
                f"{got}, manifest camera says {stated}")
        # both come from the one float64 the dataset's writer was given
        if frame.timestamp != entry.timestamp:
            raise ValueError(
                f"frame {i} ({entry.depth_path}) has timestamp {frame.timestamp!r}, "
                f"manifest says {entry.timestamp!r}")
        lms = None
        if entry.landmarks_path is not None:
            lms = io.read_landmarks(entry.landmarks_path)
            try:
                lms.check_vertices(model.vertex_count)
            except ValueError as exc:
                raise io.FormatError(f"{entry.landmarks_path}: {exc}") from None
        return frame, lms

    # results come back in manifest order, so the first faulty frame in
    # that order is the one reported
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        frames, lms = zip(*pool.map(load, enumerate(manifest.frames)))

    cfg = SolverConfig(w_d=args.wd, w_l=args.wl, w_r=args.wr)
    result = track_sequence(model, frames, lms, manifest.camera, cfg)

    out = Path(args.out)
    io.write_bsc_sequence(out, result.sequence)
    diag = {
        "format": "trackdiag", "version": 1,
        "frame_status": list(result.frame_status),
        "fitted_frames": sum(1 for s in result.frame_status if s == "ok"),
        "config": dataclasses.asdict(cfg),
        "frames": [
            None if fit is None else {
                "objective": fit.objective,
                "correspondences": fit.correspondence_count,
                "landmarks": fit.landmark_count,
                "converged": fit.converged,
            } for fit in result.fits],
    }
    io._write_json(out.with_suffix(".diag.json"), diag)
    print(f"fitted {diag['fitted_frames']}/{len(frames)} frames -> {out}")
    return 0


def _cmd_personalize(args) -> int:
    generic = _load_model(args.generic)
    examples = io.read_examples(args.examples_dir)
    cfg = PersonalizeConfig(basis_regularization=args.lambda_,
                            landmark_weight=args.landmark_weight)
    fitted = personalize(generic, examples, cfg)
    io.write_model(args.out, fitted)
    print(f"personalized model from {len(examples)} examples -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pred = io.read_bsc_sequence(args.pred)
    gt = io.read_bsc_sequence(args.gt)
    align = io.read_alignment(args.align)
    table = (VisemeTable.default() if args.viseme_table is None
             else io.read_viseme_table(args.viseme_table))
    score, breakdown = viseme_weighted_error(pred, gt, align, table,
                                             alpha=args.alpha)
    report = sequence_report(pred, gt)
    report["viseme_weighted_error"] = score
    report["all_silence"] = breakdown.all_silence
    report["total_weight"] = breakdown.total_weight
    report["per_viseme"] = {
        v: {"weight": b.weight, "frames": b.frames,
            "mean_error": b.mean_error, "weighted_sum": b.weighted_sum}
        for v, b in breakdown.per_viseme.items()}
    if args.out is not None:
        io.write_report(args.out, report)
    flag = " (all frames silent)" if breakdown.all_silence else ""
    print(f"viseme-weighted error: {score:.6f}{flag}")
    return 0


def _cmd_apply(args) -> int:
    model = _load_model(args.model)
    seq = io.read_bsc_sequence(args.sequence)
    if seq.n != model.n:
        raise ValueError(f"sequence has {seq.n} coefficients, model has {model.n}")
    if args.every < 1:
        raise ValueError("--every must be >= 1")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for fr in seq.frames[::args.every]:
        mesh = evaluate_mesh(model, fr.coefficients)
        io.write_mesh(out / f"mesh_{fr.frame_index:06d}.obj", mesh)
        written += 1
    print(f"wrote {written} meshes to {out}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="blendfit",
                     description="Blendshape coefficient and head pose "
                                 "estimation from depth frames and 2D landmarks.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    parser.commands = sub.choices       # subcommand name -> its parser

    def add_config(p):
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults for this subcommand "
                            "(explicit flags win)")

    p = sub.add_parser("synth", help="render a synthetic dataset with ground truth")
    p.add_argument("--model", default=_TESTHEAD,
                   help=f"model file, or '{_TESTHEAD}' for the built-in "
                        f"procedural model (default: {_TESTHEAD})")
    p.add_argument("--script", required=True,
                   help="expression script: a sequence file giving per-frame "
                        "coefficients and pose")
    p.add_argument("--out-dir", required=True, help="output dataset directory")
    p.add_argument("--noise-depth", type=float, default=0.0,
                   help="depth noise sigma in meters (default: 0.0)")
    p.add_argument("--noise-landmark", type=float, default=0.0,
                   help="landmark jitter sigma in pixels (default: 0.0)")
    p.add_argument("--dropout", type=float, default=0.0,
                   help="landmark dropout probability in [0,1] (default: 0.0)")
    p.add_argument("--seed", type=int, default=0,
                   help="noise seed (default: 0)")
    p.add_argument("--width", type=int, default=320,
                   help="image width in pixels (default: 320)")
    p.add_argument("--height", type=int, default=240,
                   help="image height in pixels (default: 240)")
    p.add_argument("--fx", type=float, default=300.0,
                   help="focal length x in pixels (default: 300.0)")
    p.add_argument("--fy", type=float, default=300.0,
                   help="focal length y in pixels (default: 300.0)")
    add_config(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("track", help="recover pose and coefficients from a dataset")
    p.add_argument("--model", required=True,
                   help=f"model file, or '{_TESTHEAD}'")
    p.add_argument("--dataset", required=True, help="dataset manifest JSON")
    p.add_argument("--out", required=True, help="output sequence file")
    p.add_argument("--wd", type=float, default=SolverConfig.w_d,
                   help=f"depth term weight, 1/m^2 (default: {SolverConfig.w_d})")
    p.add_argument("--wl", type=float, default=SolverConfig.w_l,
                   help=f"landmark term weight, 1/px^2 (default: {SolverConfig.w_l})")
    p.add_argument("--wr", type=float, default=SolverConfig.w_r,
                   help=f"L1 sparsity weight, unitless (default: {SolverConfig.w_r})")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for frame loading; results are "
                        "identical for any value (default: 1)")
    add_config(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("personalize", help="adapt a generic basis to example scans")
    p.add_argument("--generic", required=True,
                   help=f"generic model file, or '{_TESTHEAD}'")
    p.add_argument("--examples-dir", required=True,
                   help="directory with examples.json and scan files")
    p.add_argument("--lambda", dest="lambda_", type=float,
                   default=PersonalizeConfig.basis_regularization,
                   help="basis regularization toward the generic, unitless "
                        f"(default: {PersonalizeConfig.basis_regularization})")
    p.add_argument("--landmark-weight", type=float,
                   default=PersonalizeConfig.landmark_weight,
                   help="weight of 2D landmark constraint rows "
                        f"(default: {PersonalizeConfig.landmark_weight})")
    p.add_argument("--out", required=True, help="output model file")
    add_config(p)
    p.set_defaults(func=_cmd_personalize)

    p = sub.add_parser("eval", help="score a predicted sequence against ground truth")
    p.add_argument("--pred", required=True, help="predicted sequence file")
    p.add_argument("--gt", required=True, help="ground-truth sequence file")
    p.add_argument("--align", required=True,
                   help="frame alignment file, one phoneme per line")
    p.add_argument("--viseme-table", default=None,
                   help="viseme table file (default: the packaged table)")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="hybrid loss mix: alpha*L1 + (1-alpha)*cosine, "
                        "in [0,1] (default: 0.5)")
    p.add_argument("--out", default=None, help="report JSON path (optional)")
    add_config(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("apply", help="export per-frame meshes from a sequence")
    p.add_argument("--model", required=True,
                   help=f"model file, or '{_TESTHEAD}'")
    p.add_argument("--sequence", required=True, help="sequence file to apply")
    p.add_argument("--out-dir", required=True, help="output mesh directory")
    p.add_argument("--every", type=int, default=1,
                   help="write every k-th frame (default: 1)")
    add_config(p)
    p.set_defaults(func=_cmd_apply)

    return parser


_DEST_ALIASES = {"lambda": "lambda_"}


def _overlay_config(args, argv, command: argparse.ArgumentParser) -> None:
    """Apply config-file values for flags not given on the command line.

    Each value must have the JSON type its flag takes, a number for a
    numeric flag and a string otherwise, and is converted with the flag's
    own type as if it had been typed on the command line.
    """
    if args.config is None:
        return
    doc = io._read_json_object(args.config)
    flags = {a.dest: a for a in command._actions
             if a.option_strings and a.dest not in ("help", "config")}
    for key, value in doc.items():
        action = flags.get(_DEST_ALIASES.get(key, key.replace("-", "_")))
        if action is None:
            raise io.FormatError(
                f"{args.config}: unknown option {key!r} for '{args.command}'")
        if any(a.split("=", 1)[0] in action.option_strings for a in argv):
            continue
        setattr(args, action.dest,
                _config_value(action, value, f"{args.config}: option {key!r}"))


def _config_value(action: argparse.Action, value, where: str):
    if action.type is None:
        if isinstance(value, str):
            return value
        raise io.FormatError(f"{where} must be a string, got {json.dumps(value)}")
    # bool is an int subclass, but JSON true/false is not a number
    if type(value) in (int, float):
        try:
            return action.type(str(value))
        except ValueError:
            pass
    kind = "an integer" if action.type is int else "a number"
    raise io.FormatError(f"{where} must be {kind}, got {json.dumps(value)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # reported by the subcommand's parser, with its usage
        parser.commands[args.command].error(
            f"unrecognized arguments: {' '.join(extra)}")
    try:
        _overlay_config(args, argv, parser.commands[args.command])
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"blendfit {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (TrackingError, OSError) as exc:
        print(f"blendfit {args.command}: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
