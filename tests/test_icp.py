"""The shared twist rows and step halving, the depth-centroid start, and
rigid point-to-plane alignment (`solver.align_rigid`) against rendered
depth."""

import numpy as np
import pytest

from blendfit import (
    DepthFrame,
    Mesh,
    RigidPose,
    TrackingError,
    evaluate_mesh,
    pose_delta,
)
from blendfit import solver
from blendfit.geometry import quat_from_axis_angle, quat_from_rotvec, quat_multiply
from blendfit.solver import align_rigid, backtrack, initial_pose_from_depth
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


# ---------------------------------------------------------------------------
# backtrack

def _recorded(values):
    """An evaluate that returns `values` in turn and records each point."""
    seen = []

    def evaluate(point):
        seen.append(np.array(point, copy=True))
        return values[len(seen) - 1]
    return evaluate, seen


def test_backtrack_accepts_full_step():
    evaluate, seen = _recorded([0.5])
    point, value, halvings = backtrack(np.zeros(2), np.array([4.0, -2.0]), 1.0, evaluate)
    np.testing.assert_array_equal(point, [4.0, -2.0])
    assert (value, halvings, len(seen)) == (0.5, 0, 1)


def test_backtrack_candidates_are_midpoints_toward_cur():
    evaluate, seen = _recorded([3.0, 2.0, 1.5, 0.25])
    point, value, halvings = backtrack(np.array([1.0, 3.0]), np.array([9.0, -5.0]),
                                       1.0, evaluate)
    expected = [[9.0, -5.0], [5.0, -1.0], [3.0, 1.0], [2.0, 2.0]]
    assert len(seen) == 4
    for got, want in zip(seen, expected):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(point, [2.0, 2.0])
    assert (value, halvings) == (0.25, 3)


def test_backtrack_accepts_value_equal_to_bound():
    evaluate, _ = _recorded([2.0, 1.0])
    point, value, halvings = backtrack(np.zeros(1), np.ones(1), 2.0, evaluate)
    assert (float(point[0]), value, halvings) == (1.0, 2.0, 0)


def test_backtrack_gives_up_after_five_evaluations():
    evaluate, seen = _recorded([5.0] * 6)
    assert backtrack(np.zeros(3), np.ones(3), 1.0, evaluate) == (None, None, 4)
    assert len(seen) == 5
    np.testing.assert_array_equal(seen[-1], np.full(3, 1.0 / 16.0))


def test_fixed_point_at_generating_pose(neutral_mesh, neutral_frame, intr):
    pose, _ = align_rigid(neutral_mesh, neutral_frame, intr, frontal_pose())
    rot, trans = pose_delta(pose, frontal_pose())
    assert np.rad2deg(rot) < 0.1
    assert trans < 1e-4


def test_recovers_perturbed_pose(neutral_mesh, neutral_frame, intr):
    truth = frontal_pose()
    q = quat_from_axis_angle(np.array([0.2, 1.0, -0.3]), np.deg2rad(5.0))
    init = RigidPose(q, truth.translation + np.array([0.011, -0.012, 0.009]))
    pose, _ = align_rigid(neutral_mesh, neutral_frame, intr, init)
    rot, trans = pose_delta(pose, truth)
    assert np.rad2deg(rot) <= 0.5
    assert trans <= 0.002


def _wide_starts(truth):
    """Criterion 2's start, then 20 more as far off (5 degrees, 2 cm)
    along random rotation axes and offset directions."""
    axes = [(np.array([0.3, -0.5, 0.8]), np.array([2.0, -1.0, 2.0]))]
    rng = np.random.default_rng(0)
    axes += [(rng.normal(size=3), rng.normal(size=3)) for _ in range(20)]
    starts = []
    for axis, offset in axes:
        rotvec = axis / np.linalg.norm(axis) * np.deg2rad(5.0)
        starts.append(RigidPose(quat_multiply(quat_from_rotvec(rotvec), truth.rotation),
                                truth.translation + offset / np.linalg.norm(offset) * 0.02))
    return starts


def test_align_rigid_recovers_wide_starts(neutral_mesh, neutral_frame, intr):
    # every start within criterion 2's bounds; at fit_frame's 2 cm gate
    # four of these end 2.5-15.5 degrees off, which is why align_rigid
    # gates at 5 cm
    truth = frontal_pose()
    for k, init in enumerate(_wide_starts(truth)):
        pose, _ = align_rigid(neutral_mesh, neutral_frame, intr, init)
        rot, trans = pose_delta(pose, truth)
        assert np.rad2deg(rot) <= 0.5 and trans <= 0.002, \
            f"start {k}: {np.rad2deg(rot):.3f} deg, {trans * 1e3:.3f} mm"


def test_all_invalid_depth_raises(neutral_mesh, intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    with pytest.raises(TrackingError, match="no depth correspondences"):
        align_rigid(neutral_mesh, blank, intr, frontal_pose())


def test_empty_mesh_raises(neutral_frame, intr):
    empty = Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(TrackingError, match="no depth correspondences"):
        align_rigid(empty, neutral_frame, intr, frontal_pose())


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
    _, fit = align_rigid(neutral_mesh, frame, intr, _offset_init())
    trace = fit.objective_trace
    assert len(trace) >= 1
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_one_association_per_step(neutral_mesh, noisy_frame, intr, monkeypatch):
    # each step is scored on the matches it was solved on; only the
    # accepted pose is matched afresh, never a halved candidate
    calls = []
    real = solver.find_correspondences

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "find_correspondences", counted)
    _, fit = align_rigid(neutral_mesh, noisy_frame, intr, _offset_init())
    assert len(fit.objective_trace) >= 2
    assert len(calls) <= len(fit.objective_trace) + 1


def test_alignment_invariant_to_vertex_permutation(neutral_mesh, neutral_frame, intr):
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
    # normal, so the 6x6 pose system has no rank along three twist axes,
    # and the step keeps the pose
    sheet = flat_sheet_model(0.99).neutral
    init = RigidPose.identity()
    pose, fit = align_rigid(sheet, wall_frame(intr), intr, init)
    np.testing.assert_array_equal(pose.rotation, init.rotation)
    np.testing.assert_array_equal(pose.translation, init.translation)
    assert fit.converged


def test_initial_pose_from_depth_centers_the_cloud(neutral_mesh, neutral_frame, intr):
    pose = initial_pose_from_depth(neutral_mesh, neutral_frame, intr)
    # coarse centroid alignment: within a few cm of the render pose
    _, trans = pose_delta(pose, frontal_pose())
    assert trans < 0.05


def test_initial_pose_needs_valid_depth(neutral_mesh, intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    with pytest.raises(TrackingError, match="no start for a cold fit"):
        initial_pose_from_depth(neutral_mesh, blank, intr)
    # 50 valid pixels are the least it accepts
    values = np.zeros((intr.height, intr.width), dtype=np.float32)
    values.flat[:49] = 0.5
    with pytest.raises(TrackingError, match="no start for a cold fit"):
        initial_pose_from_depth(neutral_mesh, DepthFrame(values.copy()), intr)
    values.flat[49] = 0.5
    initial_pose_from_depth(neutral_mesh, DepthFrame(values), intr)
