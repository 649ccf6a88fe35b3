"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in `setup`, then serves one
request at a time: `run(key)` is the frame-producing call the benchmark
times, `collect` turns its result into an `Outcome` outside the timer, and
`check` compares the final outputs with exact synthetic ground truth.
blendfit is driven only through its public entry points, always looked up
on the module at call time so traced runs see every call:
`blendfit.cli.main` for `synth`, `track` and `eval`, and
`blendfit.solver.fit_frame` for cold fits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blendfit import cli, solver, synth
from blendfit import io as bio
from blendfit.correspondence import DepthFrame
from blendfit.geometry import (
    BscSequence,
    CameraIntrinsics,
    RigidPose,
    SequenceFrame,
    evaluate_mesh,
    pose_delta,
    project,
    quat_from_rotvec,
)
from blendfit.metrics import FrameAlignment, VisemeTable

import oracle

# the camera `blendfit synth` uses by default
INTR = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0,
                        width=320, height=240)
FPS = 30.0
DEPTH_SIGMA = 0.002        # meters: the criterion-9 noise level
LANDMARK_SIGMA = 1.0       # pixels
LANDMARK_DROPOUT = 0.15
LANDMARK_COUNT = 40        # as `blendfit synth` picks them
MAX_ANGLE_DEG = 15.0
DISTANCE_M = (0.4, 0.7)

# output-check tolerances; the ray cast and the rasterizer agree to
# float32 rounding, the fits are gated well above their measured errors
DEPTH_TOL_MM = 0.01
LANDMARK_TOL_PX = 6.0 * LANDMARK_SIGMA
WARM_TOL = {"coef": 0.25, "rot_deg": 1.0, "trans_mm": 2.0}
# A cold noisy fit can drop an active shape or pick up a spurious one
# (criterion 9's noise sensitivity, a soft target), so one coefficient
# may be off by up to the largest true weight, 0.9. Per fit the gate
# catches what no such miss explains; coefficient accuracy is gated on
# the mean over a run's unoccluded fits, which a broken solver moves.
COLD_TOL = {"coef": 0.95, "rot_deg": 5.0, "trans_mm": 10.0}
COLD_MEAN_TOL = 0.03


@dataclass
class Outcome:
    key: int
    frames: int          # frames the call produced or should have produced
    failed: int          # frames that failed at run time
    digest: str = ""     # hash of the output, for the determinism check
    error: str = ""


@dataclass
class CheckResult:
    failed_keys: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)    # name -> (value, unit, n)

    def fail(self, key, message):
        self.failed_keys.add(key)
        self.messages.append(message)


def _cli(argv):
    """Run `blendfit <argv>` in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:            # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue().strip()


def _digest(*blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def _stratified(rng, count, lo, hi):
    """One uniform draw from each of `count` equal strata of [lo, hi],
    shuffled, so every seed covers the whole range evenly."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return lo + (hi - lo) * rng.permutation(u)


def _poses(rng, count):
    yaw = _stratified(rng, count, -MAX_ANGLE_DEG, MAX_ANGLE_DEG)
    pitch = _stratified(rng, count, -MAX_ANGLE_DEG, MAX_ANGLE_DEG)
    dist = _stratified(rng, count, *DISTANCE_M)
    poses = []
    for i in range(count):
        rotvec = np.deg2rad([pitch[i], yaw[i], rng.uniform(-5.0, 5.0)])
        t = np.array([*rng.uniform(-0.01, 0.01, 2), dist[i]])
        poses.append(RigidPose(quat_from_rotvec(rotvec), t))
    return poses


def _expressions(rng, n, count):
    """Sparse expressions with 3 to 8 active shapes, spread over the count."""
    active = 3 + rng.permutation(np.arange(count) % 6)
    xs = np.zeros((count, n))
    for i, k in enumerate(active):
        xs[i, rng.choice(n, k, replace=False)] = rng.uniform(0.2, 0.9, k)
    return xs


def _pose_errors(pred: RigidPose, truth: RigidPose):
    rot, trans = pose_delta(pred, truth)
    return float(np.rad2deg(rot)), float(trans * 1e3)


def _accuracy(check, xs_pred, xs_true, rot_deg, trans_mm):
    """Accuracy metrics; n counts frames."""
    for name, value in oracle.coefficient_errors(np.asarray(xs_pred),
                                                 np.asarray(xs_true)).items():
        check.metrics[name] = (value, "1", len(xs_true))
    check.metrics["rot_err_deg_max"] = (max(rot_deg), "deg", len(rot_deg))
    check.metrics["trans_err_mm_max"] = (max(trans_mm), "mm", len(trans_mm))


def _gate(check, key, label, errs, tol):
    for what, value in errs.items():
        if value > tol[what]:
            check.fail(key, f"{label}: {what} error {value:.4g} > {tol[what]}")


# ---------------------------------------------------------------------------

@dataclass
class _SynthItem:
    script: Path
    out: Path
    noise_seed: int
    x: np.ndarray
    pose: RigidPose


class SynthRender:
    """`blendfit synth` of one-frame scripts: varied expressions, poses
    within +-15 deg at 0.4-0.7 m, 2 mm depth and 1 px landmark noise."""

    name = "synth-render"
    tag = 11

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.count = 1 if smoke else 8

    def setup(self):
        rng = np.random.default_rng([self.tag, self.seed])
        self.model = synth.make_test_head()
        poses = _poses(rng, self.count)
        xs = _expressions(rng, self.model.n, self.count)
        self.items = []
        for i in range(self.count):
            script = self.workdir / f"script_{i}.bscseq"
            bio.write_bsc_sequence(script, BscSequence(
                self.model.names, (SequenceFrame(0, 0.0, poses[i], xs[i]),)))
            self.items.append(_SynthItem(script, self.workdir / f"out_{i}",
                                         int(rng.integers(2 ** 31)), xs[i], poses[i]))

    def keys(self):
        return list(range(self.count))

    def run(self, key):
        it = self.items[key]
        return _cli(["synth", "--script", it.script, "--out-dir", it.out,
                     "--noise-depth", repr(DEPTH_SIGMA),
                     "--noise-landmark", repr(LANDMARK_SIGMA),
                     "--seed", it.noise_seed])

    def collect(self, key, result) -> Outcome:
        rc, err = result
        if rc != 0:
            return Outcome(key, 1, 1, error=f"exit {rc}: {err}")
        out = self.items[key].out
        return Outcome(key, 1, 0, _digest(*(p.read_bytes()
                                            for p in sorted(out.iterdir()))))

    def check(self, corrupt=False) -> CheckResult:
        check = CheckResult()
        errs, checked = [], 0
        for key, it in enumerate(self.items):
            depth_path = it.out / "frame_0000.bsdf"
            if not depth_path.is_file():
                check.fail(key, f"{it.out}: no depth frame written")
                continue
            frame, _ = bio.read_depth(depth_path)
            if corrupt and key == 0:
                bumped = np.where(frame.values > 0, frame.values + 1e-3, 0.0)
                bio.write_depth(depth_path, DepthFrame(bumped, timestamp=frame.timestamp),
                                INTR)
                frame, _ = bio.read_depth(depth_path)
            depth = frame.values
            verts = it.pose.apply(evaluate_mesh(self.model, it.x).vertices)
            tris = oracle.front_facing_triangles(verts, self.model.neutral.faces)

            rows, cols = np.nonzero(depth > 0)
            if len(rows) == 0:
                check.fail(key, f"frame {key}: no valid depth")
                continue
            pick = np.random.default_rng([self.tag, self.seed, key]).choice(
                len(rows), min(256, len(rows)), replace=False)
            rows, cols = rows[pick], cols[pick]
            z_ray = oracle.ray_cast_depth(tris, cols, rows, INTR)
            if not np.all(np.isfinite(z_ray)):
                check.fail(key, f"frame {key}: depth where the ray cast hits nothing")
                continue
            # synth draws the depth noise from the stream (seed, frame index)
            noise = np.random.default_rng([it.noise_seed, 0]).normal(
                0.0, DEPTH_SIGMA, size=depth.shape)[rows, cols]
            clean = z_ray.astype(np.float32).astype(np.float64)
            expected = np.maximum(clean + noise, 1e-6).astype(np.float32)
            err_mm = np.abs(depth[rows, cols].astype(np.float64) - expected) * 1e3
            errs.append(float(err_mm.max()))
            checked += len(rows)
            if err_mm.max() > DEPTH_TOL_MM:
                check.fail(key, f"frame {key}: depth off the ray cast by "
                                f"{err_mm.max():.4g} mm > {DEPTH_TOL_MM}")

            lms = bio.read_landmarks(it.out / "landmarks_0000.json")
            dev = (np.abs(lms.pixels - project(INTR, verts[lms.vertex_indices])).max()
                   if len(lms) else np.inf)
            if dev > LANDMARK_TOL_PX:
                check.fail(key, f"frame {key}: landmarks off by {dev:.3g} px")

            gt = bio.read_bsc_sequence(it.out / "ground_truth.bscseq").frames
            if (len(gt) != 1 or not np.array_equal(gt[0].coefficients, it.x)
                    or not np.array_equal(gt[0].pose.rotation, it.pose.rotation)
                    or not np.array_equal(gt[0].pose.translation, it.pose.translation)):
                check.fail(key, f"frame {key}: ground truth differs from the script")
        check.metrics["depth_err_mm_max"] = (max(errs) if errs else np.inf, "mm", checked)
        return check


# ---------------------------------------------------------------------------

class TrackWarm:
    """`blendfit track` of short clips cut from a noise-free looped
    sequence with slow head motion: every other start frame, both
    directions. Each clip's first frame starts from the depth-centroid
    pose and zero coefficients, the rest are warm-started."""

    name = "track-warm"
    tag = 12
    period = 10      # frames in one loop of the sequence

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.frames = 2 if smoke else 5          # per clip, so per call
        self.rendered = self.frames if smoke else self.period
        self.variants = ([(0, 1)] if smoke else
                         [(o, d) for o in range(0, self.period, 2) for d in (1, -1)])

    def _script(self, rng, n):
        """Closed loop: two shapes fade in and out over a base expression
        while the head sways a degree or two around a seeded base pose, so
        any start frame and either direction give a smooth sequence. The
        fade and sway amplitudes are fixed, so every seed moves as much."""
        t = 2.0 * np.pi * np.arange(self.period) / self.period
        base = _expressions(rng, n, 1)[0]
        # two shapes the base leaves at 0, each fading between 0 and 0.5
        mods = np.zeros((2, n))
        mods[[0, 1], rng.choice(np.flatnonzero(base == 0.0), 2, replace=False)] = 0.5
        phase = rng.uniform(0.0, 2.0 * np.pi, 2)
        weights = 0.5 * (1.0 + np.cos(t[:, None] - phase[None, :]))     # (T, 2)
        xs = base + weights @ mods
        tilt = rng.uniform(-5.0, 5.0, 2)
        sway = rng.uniform(0.0, 2.0 * np.pi, 3)
        dist = rng.uniform(0.45, 0.55)
        poses = []
        for j in range(self.period):
            rotvec = np.deg2rad([tilt[0] + 1.0 * np.sin(t[j] + sway[0]),
                                 tilt[1] + 1.5 * np.sin(t[j] + sway[1]), 0.0])
            trans = [0.001 * np.sin(t[j] + sway[2]), 0.0, dist + 0.001 * np.cos(t[j])]
            poses.append(RigidPose(quat_from_rotvec(rotvec), np.array(trans)))
        return xs, poses

    def setup(self):
        rng = np.random.default_rng([self.tag, self.seed])
        model = synth.make_test_head()
        ids = synth.default_landmarks(model, count=LANDMARK_COUNT, seed=0)
        xs, poses = self._script(rng, model.n)
        script = synth.SequenceScript(tuple(
            synth.ScriptFrame(xs[j], poses[j], j / FPS) for j in range(self.rendered)))
        gen = synth.generate_sequence(model, script, INTR, ids)
        phonemes = VisemeTable.default().phonemes
        self.dirs = []
        for v, (offset, step) in enumerate(self.variants):
            d = self.workdir / f"variant_{v}"
            d.mkdir(parents=True, exist_ok=True)
            order = [(offset + step * j) % self.period for j in range(self.frames)]
            entries, truth = [], []
            for j, src in enumerate(order):
                ts = j / FPS
                depth = DepthFrame(gen.frames[src].values, frame_index=j, timestamp=ts)
                bio.write_depth(d / f"frame_{j:04d}.bsdf", depth, INTR)
                bio.write_landmarks(d / f"landmarks_{j:04d}.json", gen.landmarks[src])
                entries.append(bio.FrameEntry(d / f"frame_{j:04d}.bsdf", ts,
                                              d / f"landmarks_{j:04d}.json"))
                truth.append(SequenceFrame(j, ts, poses[src], xs[src]))
            bio.write_bsc_sequence(d / "ground_truth.bscseq",
                                   BscSequence(model.names, tuple(truth)))
            bio.write_manifest(d / "manifest.json", bio.DatasetManifest(
                camera=INTR, frames=tuple(entries),
                ground_truth=d / "ground_truth.bscseq", seed=self.seed))
            labels = rng.choice(phonemes, self.frames)
            bio.write_alignment(d / "align.txt", FrameAlignment(tuple(labels)))
            self.dirs.append(d)

    def keys(self):
        return list(range(len(self.variants)))

    def run(self, key):
        d = self.dirs[key]
        return _cli(["track", "--model", "testhead", "--dataset", d / "manifest.json",
                     "--out", d / "pred.bscseq"])

    def collect(self, key, result) -> Outcome:
        rc, err = result
        if rc != 0:
            return Outcome(key, self.frames, self.frames, error=f"exit {rc}: {err}")
        d = self.dirs[key]
        pred, diag = (d / "pred.bscseq").read_bytes(), (d / "pred.diag.json").read_bytes()
        status = json.loads(diag)["frame_status"]
        return Outcome(key, self.frames, sum(1 for s in status if s != "ok"),
                       _digest(pred, diag))

    def check(self, corrupt=False) -> CheckResult:
        check = CheckResult()
        xs_pred, xs_true, rot, trans, scores = [], [], [], [], []
        for key, d in enumerate(self.dirs):
            pred_path = d / "pred.bscseq"
            if not pred_path.is_file():
                check.fail(key, f"{d.name}: no prediction written")
                continue
            pred = bio.read_bsc_sequence(pred_path)
            if corrupt and key == 0:
                fr = pred.frames[0]
                x = fr.coefficients.copy()
                x[np.argmin(x)] = 1.0
                frames = (SequenceFrame(fr.frame_index, fr.timestamp, fr.pose, x),
                          *pred.frames[1:])
                bio.write_bsc_sequence(pred_path, BscSequence(pred.names, frames))
                pred = bio.read_bsc_sequence(pred_path)
            gt = bio.read_bsc_sequence(d / "ground_truth.bscseq")
            if [f.frame_index for f in pred.frames] != [f.frame_index for f in gt.frames]:
                check.fail(key, f"{d.name}: predicted frames differ from the truth's")
                continue
            for p, g in zip(pred.frames, gt.frames):
                r, t = _pose_errors(p.pose, g.pose)
                xs_pred.append(p.coefficients)
                xs_true.append(g.coefficients)
                rot.append(r)
                trans.append(t)
                coef = float(np.abs(p.coefficients - g.coefficients).max())
                _gate(check, key, f"{d.name} frame {p.frame_index}",
                      {"coef": coef, "rot_deg": r, "trans_mm": t}, WARM_TOL)
            rc, err = _cli(["eval", "--pred", pred_path, "--gt", d / "ground_truth.bscseq",
                            "--align", d / "align.txt", "--out", d / "report.json"])
            if rc != 0:
                check.fail(key, f"{d.name}: blendfit eval exit {rc}: {err}")
                continue
            report = json.loads((d / "report.json").read_text(encoding="ascii"))
            scores.append(report["viseme_weighted_error"])
        if xs_pred:
            _accuracy(check, xs_pred, xs_true, rot, trans)
        if scores:
            check.metrics["viseme_err"] = (float(np.mean(scores)), "1", len(scores))
        return check


# ---------------------------------------------------------------------------

@dataclass
class _ColdItem:
    depth: DepthFrame
    landmarks: object
    x: np.ndarray
    pose: RigidPose
    occluded: bool


class TrackColdNoisy:
    """Independent cold fits (no previous frame, no initial pose) at varied
    poses with 2 mm depth noise, 1 px landmark noise and 15% landmark
    dropout; every fourth distinct frame has an occluded depth band.

    A shape under the band may be unobservable, so coefficient accuracy is
    gated and reported on the unoccluded fits; pose accuracy on all."""

    name = "track-cold-noisy"
    tag = 13

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.distinct = 2 if smoke else 8
        self.pool = 2 if smoke else 64
        self.fits = {}

    def setup(self):
        rng = np.random.default_rng([self.tag, self.seed])
        self.model = synth.make_test_head()
        ids = synth.default_landmarks(self.model, count=LANDMARK_COUNT, seed=0)
        poses = _poses(rng, self.distinct)
        xs = _expressions(rng, self.model.n, self.distinct)
        clean, meshes = [], []
        occluded = [i % 4 == 3 for i in range(self.distinct)]
        for i in range(self.distinct):
            frame, _ = synth.generate_frame(self.model, synth.ScriptFrame(xs[i], poses[i], 0.0),
                                            INTR, ids, synth.NoiseConfig(), i)
            if occluded[i]:
                frame = self._occlude(frame, rng)
            clean.append(frame)
            meshes.append(evaluate_mesh(self.model, xs[i]))
        lm_noise = synth.NoiseConfig(landmark_sigma=LANDMARK_SIGMA,
                                     landmark_dropout=LANDMARK_DROPOUT)
        self.items = []
        for p in range(self.pool):
            i = p % self.distinct
            draw = np.random.default_rng([self.tag, self.seed, p])
            depth = synth.add_depth_noise(clean[i], DEPTH_SIGMA, draw)
            lms = synth.project_landmarks(meshes[i], poses[i], INTR, ids, lm_noise, draw)
            self.items.append(_ColdItem(depth, lms, xs[i], poses[i], occluded[i]))

    @staticmethod
    def _occlude(frame, rng):
        """Blank a horizontal band over a fifth of the face's rows."""
        rows = np.flatnonzero(frame.valid_mask().any(axis=1))
        height = max(1, (rows[-1] - rows[0] + 1) // 5)
        top = int(rng.integers(rows[0], rows[-1] - height + 2))
        values = np.array(frame.values)
        values[top:top + height] = 0.0
        return DepthFrame(values, frame.frame_index, frame.timestamp)

    def keys(self):
        return list(range(self.pool))

    def run(self, key):
        it = self.items[key]
        try:
            return solver.fit_frame(self.model, it.depth, it.landmarks, INTR)
        except solver.TrackingError as exc:
            return exc

    def collect(self, key, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(key, 1, 1, error=f"TrackingError: {result}")
        self.fits[key] = result
        return Outcome(key, 1, 0, _digest(result.x.tobytes(), result.pose.rotation.tobytes(),
                                          result.pose.translation.tobytes()))

    def check(self, corrupt=False) -> CheckResult:
        check = CheckResult()
        xs_pred, xs_true, rot, trans = [], [], [], []
        for key, it in enumerate(self.items):
            fit = self.fits.get(key)
            if fit is None:
                check.fail(key, f"item {key}: no fit")
                continue
            x = fit.x.copy()
            if corrupt and key == 0:
                x[np.argmin(x)] = 1.0
            r, t = _pose_errors(fit.pose, it.pose)
            rot.append(r)
            trans.append(t)
            errs = {"rot_deg": r, "trans_mm": t}
            if not it.occluded:
                xs_pred.append(x)
                xs_true.append(it.x)
                errs["coef"] = float(np.abs(x - it.x).max())
            _gate(check, key, f"item {key}", errs, COLD_TOL)
        if rot:
            _accuracy(check, xs_pred, xs_true, rot, trans)
        mean = check.metrics.get("coef_err_mean", (np.inf,))[0]
        if mean > COLD_MEAN_TOL:
            check.messages.append(f"mean coefficient error {mean:.4g} > {COLD_MEAN_TOL}")
        return check


WORKLOADS = {w.name: w for w in (SynthRender, TrackWarm, TrackColdNoisy)}
