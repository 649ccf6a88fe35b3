"""Release acceptance: one test per criterion, summarized at the end of the run.

Each test carries a `criterion(num, title)` marker; the conftest hooks turn
those into the one-line-per-criterion table printed after the suite. Soft
benchmarks report their measured value in that table instead of gating.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
from conftest import random_model, sparse_coefficients

from blendfit import (
    BlendshapeModel,
    BscSequence,
    CameraIntrinsics,
    SequenceFrame,
    evaluate_mesh,
)
from blendfit import io as bio
from blendfit.correspondence import landmark_jacobian
from blendfit.geometry import pose_delta, project, quat_from_rotvec, quat_multiply, RigidPose
from blendfit.solver import align_rigid
from blendfit.metrics import VisemeTable
from blendfit.personalize import ExampleExpression, PersonalizeConfig, personalize
from blendfit.solver import QuadraticForm, SolverConfig, fit_frame, solve_l1_box
from blendfit.synth import (
    NoiseConfig,
    constant_script,
    frontal_pose,
    generate_sequence,
    make_test_head,
    render_depth,
)


def _recovery_case(head, ids, intr, seed, noise=None):
    """One synthetic frame with sparse ground truth, fitted from the true pose."""
    rng = np.random.default_rng(seed)
    active = int(rng.integers(4, 9))
    x_true = sparse_coefficients(head.n, rng, active=active)
    pose = frontal_pose()
    generated = generate_sequence(head, constant_script(x_true, pose, count=1),
                                  intr, ids, noise)
    t0 = time.perf_counter()
    fit = fit_frame(head, generated.frames[0], generated.landmarks[0], intr,
                    cfg=SolverConfig(w_r=0.01), init_pose=pose)
    return x_true, fit, time.perf_counter() - t0


@pytest.mark.criterion(1, "noise-free sparse coefficient recovery")
def test_noise_free_recovery(head, head_landmark_ids, intr):
    worst_err = worst_inactive = worst_time = 0.0
    for seed in range(8):
        x_true, fit, elapsed = _recovery_case(head, head_landmark_ids, intr, seed)
        err = np.abs(fit.x - x_true)
        inactive = fit.x[x_true == 0.0]
        worst_err = max(worst_err, float(err.max()))
        worst_inactive = max(worst_inactive, float(inactive.max()))
        worst_time = max(worst_time, elapsed)
        assert err.max() <= 0.05, f"seed {seed}: max error {err.max():.4f}"
        assert inactive.max() < 0.02, f"seed {seed}: inactive {inactive.max():.4f}"
        assert elapsed < 5.0, f"seed {seed}: {elapsed:.2f} s/frame"
    conftest.bench_notes[1] = (f" (worst over 8 seeds: err {worst_err:.4f}, "
                               f"inactive {worst_inactive:.4f}, {worst_time:.2f} s)")


@pytest.mark.criterion(2, "rigid pose recovery from a 5 deg / 2 cm perturbed start")
def test_rigid_recovery(head, intr):
    true_pose = frontal_pose()
    frame = render_depth(head.neutral, true_pose, intr)
    axis = np.array([0.3, -0.5, 0.8])
    rotvec = axis / np.linalg.norm(axis) * np.deg2rad(5.0)
    offset = np.array([2.0, -1.0, 2.0]) / np.linalg.norm([2.0, -1.0, 2.0]) * 0.02
    init = RigidPose(quat_multiply(quat_from_rotvec(rotvec), true_pose.rotation),
                     true_pose.translation + offset)
    t0 = time.perf_counter()
    recovered, _ = align_rigid(head.neutral, frame, intr, init)
    elapsed = time.perf_counter() - t0
    rot_err, trans_err = pose_delta(recovered, true_pose)
    assert np.rad2deg(rot_err) <= 0.5
    assert trans_err <= 0.002
    assert elapsed < 1.0
    conftest.bench_notes[2] = (f" ({np.rad2deg(rot_err):.4f} deg, "
                               f"{trans_err * 1e3:.4f} mm, {elapsed:.2f} s)")


@pytest.mark.criterion(3, "inner solver matches an exhaustive grid on 100 instances")
def test_solver_matches_grid_oracle():
    rng = np.random.default_rng(11)
    axis = np.linspace(0.0, 1.0, 101)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    grid_l1 = grid.sum(axis=1)
    passes = 0
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        q = QuadraticForm(a @ a.T, rng.normal(size=3), float(rng.normal()))
        w_r = float(rng.uniform(0.0, 0.5))
        x, _ = solve_l1_box(q, w_r, sweeps=200)
        f_solver = q.value(x) + w_r * float(np.abs(x).sum())
        quad = 0.5 * np.einsum("ij,ij->i", grid @ q.H, grid)
        f_grid = float((quad + grid @ q.g + q.c + w_r * grid_l1).min())
        passes += f_solver <= f_grid + 1e-4
    assert passes == 100


@pytest.mark.criterion(4, "objective non-increasing at every coordinate update")
def test_monotone_descent_every_update():
    # each scalar update is a closed-form minimizer, so any recorded rise
    # beyond float re-evaluation noise counts as a violation
    rng = np.random.default_rng(13)
    violations = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        cols = max(1, n - int(rng.integers(0, 2)))
        a = rng.normal(size=(n, cols))
        q = QuadraticForm(a @ a.T, rng.normal(size=n), float(rng.normal()))
        w_r = float(rng.uniform(0.0, 1.0))
        x0 = rng.uniform(0.0, 1.0, n)
        _, trace = solve_l1_box(q, w_r, x0=x0, sweeps=30, record_updates=True)
        diffs = np.diff(trace)
        slack = 1e-12 * max(1.0, abs(trace[0]))
        violations += int((diffs > slack).sum())
    assert violations == 0


@pytest.mark.criterion(5, "projection Jacobian vs central differences, 1000 samples")
def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(1000):
        cam = CameraIntrinsics(fx=float(rng.uniform(200, 800)),
                               fy=float(rng.uniform(200, 800)),
                               cx=float(rng.uniform(100, 500)),
                               cy=float(rng.uniform(100, 400)),
                               width=640, height=480)
        v = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                      rng.uniform(0.3, 2.0)])
        jac = landmark_jacobian(v, cam)
        fd = np.empty((2, 3))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            fd[:, a] = (project(cam, v + e) - project(cam, v - e)) / (2 * h)
        rel = np.abs(jac - fd) / max(1.0, np.abs(fd).max())
        assert rel.max() < 1e-4


@pytest.mark.criterion(6, "convex-combination affinity on 100 random models")
def test_affinity_identity():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        model = random_model(rng)
        x = rng.uniform(0.0, 1.0, model.n)
        y = rng.uniform(0.0, 1.0, model.n)
        c = float(rng.uniform())
        mixed = evaluate_mesh(model, c * x + (1.0 - c) * y).vertices
        combo = (c * evaluate_mesh(model, x).vertices
                 + (1.0 - c) * evaluate_mesh(model, y).vertices)
        assert np.abs(mixed - combo).max() <= 1e-9


_TABLE_WEIGHTS = {
    "/P/": 1.0, "/F/": 0.97, "/SH/": 0.75, "/TH/": 0.66, "/Z/": 0.66,
    "/V2/": 0.6, "/V1/": 0.59, "/V3/": 0.58, "/L/": 0.5, "/V4/": 0.48,
    "/G/": 0.46, "/T/": 0.36, "/SIL/": 0.0,
}

_TABLE_MAPPING = {
    "/P/": ("p", "b", "m"),
    "/F/": ("f", "v"),
    "/SH/": ("sh", "zh", "ch", "jh"),
    "/TH/": ("th", "dh"),
    "/Z/": ("z", "s"),
    "/V2/": ("uw", "uh", "ow", "w"),
    "/V1/": ("aa", "ah", "ao", "aw", "er", "oy"),
    "/V3/": ("ae", "eh", "ey", "ay", "y"),
    "/L/": ("l", "el", "r"),
    "/V4/": ("ih", "iy"),
    "/G/": ("g", "ng", "k", "hh"),
    "/T/": ("t", "d", "n", "en"),
    "/SIL/": ("sil", "sp"),
}


@pytest.mark.criterion(7, "shipped viseme table matches the reference exactly")
def test_viseme_table_is_exact():
    table = VisemeTable.default()
    assert dict(table.weights) == _TABLE_WEIGHTS
    expected_of = {p: v for v, ps in _TABLE_MAPPING.items() for p in ps}
    assert dict(table.viseme_of) == expected_of


@pytest.mark.criterion(8, "perturbed-basis rig recovery from spanning examples")
def test_rig_recovery():
    rng = np.random.default_rng(21)
    true_model = random_model(rng)
    activations = [np.zeros(true_model.n)] + list(np.eye(true_model.n))
    examples = [ExampleExpression(evaluate_mesh(true_model, a), a)
                for a in activations]
    generic = BlendshapeModel(
        true_model.neutral,
        true_model.basis + rng.normal(scale=0.002, size=true_model.basis.shape),
        true_model.names)
    fitted = personalize(generic, examples,
                         PersonalizeConfig(basis_regularization=1e-6))
    rel = (np.linalg.norm(fitted.basis - true_model.basis)
           / np.linalg.norm(true_model.basis))
    assert rel <= 1e-4


@pytest.mark.criterion(9, "noisy recovery benchmark (soft, not a gate)")
def test_noisy_recovery_benchmark(head, head_landmark_ids, intr):
    # depth sigma 2 mm / landmark sigma 1 px; the 0.12 target is tracked,
    # not enforced: unfiltered central-difference normals dominate the error
    worst = 0.0
    for seed in (100, 101, 102, 103):
        noise = NoiseConfig(depth_sigma=0.002, landmark_sigma=1.0, seed=seed)
        x_true, fit, _ = _recovery_case(head, head_landmark_ids, intr, seed, noise)
        worst = max(worst, float(np.abs(fit.x - x_true).max()))
    conftest.bench_notes[9] = f" (measured max err {worst:.3f}; soft target 0.12)"
    assert np.isfinite(worst) and worst < 0.6


def _cli(*args):
    cmd = [sys.executable, "-c",
           "import sys; from blendfit.cli import main; sys.exit(main(sys.argv[1:]))",
           *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.criterion(10, "bit-identical CLI output for any --threads value")
def test_cli_determinism(tmp_path, head):
    frames = []
    for i in range(2):
        x = np.zeros(head.n)
        x[[5, 12, 30]] = (0.6, 0.4, 0.8) if i == 0 else (0.5, 0.45, 0.7)
        frames.append(SequenceFrame(i, i / 30.0, frontal_pose(), x))
    script = tmp_path / "script.bscseq"
    bio.write_bsc_sequence(script, BscSequence(head.names, tuple(frames)))

    noise = ["--noise-depth", "0.001", "--noise-landmark", "0.5", "--seed", "7"]
    _cli("synth", "--script", script, "--out-dir", tmp_path / "ds_a", *noise)
    _cli("synth", "--script", script, "--out-dir", tmp_path / "ds_b", *noise)
    gt_a = (tmp_path / "ds_a" / "ground_truth.bscseq").read_bytes()
    gt_b = (tmp_path / "ds_b" / "ground_truth.bscseq").read_bytes()
    assert gt_a == gt_b

    for threads in (1, 3):
        _cli("track", "--model", "testhead",
             "--dataset", tmp_path / "ds_a" / "manifest.json",
             "--out", tmp_path / f"pred_{threads}.bscseq",
             "--threads", threads)
    pred_1 = (tmp_path / "pred_1.bscseq").read_bytes()
    pred_3 = (tmp_path / "pred_3.bscseq").read_bytes()
    assert pred_1 == pred_3
