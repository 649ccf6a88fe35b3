"""Rigid point-to-plane alignment against rendered depth."""

import numpy as np
import pytest

from blendfit import (
    DegenerateGeometryError,
    DepthFrame,
    InsufficientDataError,
    RigidPose,
    evaluate_mesh,
    pose_delta,
)
from blendfit import icp
from blendfit.geometry import quat_from_axis_angle
from blendfit.icp import (
    _ROTATION_EPSILON,
    _TRANSLATION_EPSILON,
    align_rigid,
    initial_pose_from_depth,
)
from blendfit.synth import add_depth_noise, frontal_pose, render_depth

from conftest import flat_sheet_model, wall_frame


@pytest.fixture(scope="module")
def neutral_mesh(head):
    return evaluate_mesh(head, np.zeros(head.n))


@pytest.fixture(scope="module")
def neutral_frame(neutral_mesh, intr):
    return render_depth(neutral_mesh, frontal_pose(), intr)


@pytest.fixture(scope="module")
def noisy_frame(neutral_frame):
    # 2 mm Gaussian depth noise, the sensor model of the noisy benchmarks
    return add_depth_noise(neutral_frame, 0.002, np.random.default_rng(0))


def test_fixed_point_at_generating_pose(neutral_mesh, neutral_frame, intr):
    pose, diag = align_rigid(neutral_mesh, neutral_frame, intr, frontal_pose())
    rot, trans = pose_delta(pose, frontal_pose())
    assert np.rad2deg(rot) < _ROTATION_EPSILON * 10
    assert trans < _TRANSLATION_EPSILON * 10


def test_recovers_perturbed_pose(neutral_mesh, neutral_frame, intr):
    truth = frontal_pose()
    q = quat_from_axis_angle(np.array([0.2, 1.0, -0.3]), np.deg2rad(5.0))
    init = RigidPose(q, truth.translation + np.array([0.011, -0.012, 0.009]))
    pose, diag = align_rigid(neutral_mesh, neutral_frame, intr, init)
    rot, trans = pose_delta(pose, truth)
    assert np.rad2deg(rot) <= 0.5
    assert trans <= 0.002


def test_all_invalid_depth_raises(neutral_mesh, intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    with pytest.raises(InsufficientDataError):
        align_rigid(neutral_mesh, blank, intr, frontal_pose())


def test_returned_rotation_is_unit(neutral_mesh, neutral_frame, intr):
    q = quat_from_axis_angle(np.array([1.0, 0.2, 0.1]), np.deg2rad(3.0))
    init = RigidPose(q, frontal_pose().translation + 0.01)
    pose, _ = align_rigid(neutral_mesh, neutral_frame, intr, init)
    assert abs(np.linalg.norm(pose.rotation) - 1.0) < 1e-9


def _offset_init():
    q = quat_from_axis_angle(np.array([0.1, 0.8, 0.4]), np.deg2rad(4.0))
    return RigidPose(q, frontal_pose().translation + np.array([0.015, 0.0, -0.01]))


@pytest.mark.parametrize("frame_name", ["neutral_frame", "noisy_frame"],
                         ids=["noise-free", "noise-2mm"])
def test_mean_error_non_increasing(neutral_mesh, intr, request, frame_name):
    frame = request.getfixturevalue(frame_name)
    _, diag = align_rigid(neutral_mesh, frame, intr, _offset_init())
    errs = diag.mean_errors
    assert len(errs) >= 1
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))
    assert len(diag.correspondence_counts) == len(errs)


def test_one_association_per_step(neutral_mesh, noisy_frame, intr, monkeypatch):
    # each step is scored on the matches it was solved on; only the
    # accepted pose is matched afresh, never a halved candidate
    calls = []
    real = icp.find_correspondences

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(icp, "find_correspondences", counted)
    _, diag = align_rigid(neutral_mesh, noisy_frame, intr, _offset_init())
    assert diag.iterations >= 2
    assert len(calls) <= diag.iterations + 1


def test_alignment_invariant_to_vertex_permutation(neutral_mesh, neutral_frame, intr):
    from blendfit import Mesh
    truth = frontal_pose()
    q = quat_from_axis_angle(np.array([0.0, 1.0, 0.0]), np.deg2rad(3.0))
    init = RigidPose(q, truth.translation + np.array([0.008, 0.004, 0.0]))

    rng = np.random.default_rng(0)
    perm = rng.permutation(neutral_mesh.vertex_count)
    inv = np.argsort(perm)
    shuffled = Mesh(neutral_mesh.vertices[perm], inv[neutral_mesh.faces])

    pose_a, _ = align_rigid(neutral_mesh, neutral_frame, intr, init)
    pose_b, _ = align_rigid(shuffled, neutral_frame, intr, init)
    rot, trans = pose_delta(pose_a, pose_b)
    assert rot < 1e-6 and trans < 1e-6


def test_plane_against_plane_is_degenerate(intr):
    # a flat sheet 1 cm in front of a flat wall: every match has the same
    # normal, so the 6x6 pose system has no rank along three twist axes
    sheet = flat_sheet_model(0.99).neutral
    with pytest.raises(DegenerateGeometryError):
        align_rigid(sheet, wall_frame(intr), intr, RigidPose.identity())


def test_initial_pose_from_depth_centers_the_cloud(neutral_mesh, neutral_frame, intr):
    pose = initial_pose_from_depth(neutral_mesh, neutral_frame, intr)
    # coarse centroid alignment: within a few cm of the render pose
    _, trans = pose_delta(pose, frontal_pose())
    assert trans < 0.05


def test_initial_pose_needs_valid_depth(neutral_mesh, intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    with pytest.raises(InsufficientDataError):
        initial_pose_from_depth(neutral_mesh, blank, intr)
    # 50 valid pixels are the least it accepts
    values = np.zeros((intr.height, intr.width), dtype=np.float32)
    values.flat[:49] = 0.5
    with pytest.raises(InsufficientDataError):
        initial_pose_from_depth(neutral_mesh, DepthFrame(values.copy()), intr)
    values.flat[49] = 0.5
    initial_pose_from_depth(neutral_mesh, DepthFrame(values), intr)
