"""The shared twist rows and step halving, the cold starts (landmark and
depth centroid), and rigid point-to-plane alignment (`solver.align_rigid`)
against rendered depth."""

import numpy as np
import pytest

from blendfit import (
    DepthFrame,
    LandmarkSet,
    Mesh,
    RigidPose,
    TrackingError,
    evaluate_mesh,
    pose_delta,
)
from blendfit import solver
from blendfit.geometry import backproject, quat_from_axis_angle, quat_from_rotvec, quat_multiply
from blendfit.solver import align_rigid, backtrack, initial_pose_from_depth
from blendfit.synth import (
    NoiseConfig,
    add_depth_noise,
    constant_script,
    frontal_pose,
    generate_sequence,
    render_depth,
)

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


# the poses of test_fit_frame_cold_start_aligns_without_icp
_COLD_POSES = {
    "oblique-12deg": RigidPose.from_axis_angle((0.3, 1.0, 0.2), np.deg2rad(12.0),
                                               (0.01, -0.01, 0.55)),
    "pitch-15deg": RigidPose.from_axis_angle((1.0, 0.0, 0.0), np.deg2rad(15.0),
                                             (-0.02, 0.01, 0.45)),
    "roll-15deg": RigidPose.from_axis_angle((0.0, 0.0, 1.0), np.deg2rad(15.0),
                                            (0.0, 0.0, 0.7)),
}


def _neutral_capture(head, head_landmark_ids, intr, pose):
    gen = generate_sequence(head, constant_script(np.zeros(head.n), pose, 1), intr,
                            head_landmark_ids, NoiseConfig())
    return gen.frames[0], gen.landmarks[0]


def _subset(landmarks, keep):
    keep = np.asarray(keep)
    return LandmarkSet(tuple(landmarks.ids[k] for k in keep), landmarks.vertex_indices[keep],
                       landmarks.pixels[keep], landmarks.confidences[keep])


def _plus(landmarks, vertex, pixel, confidence=1.0):
    """`landmarks` with one more landmark appended."""
    return LandmarkSet(landmarks.ids + ("extra",),
                       np.append(landmarks.vertex_indices, vertex),
                       np.vstack([landmarks.pixels, pixel]),
                       np.append(landmarks.confidences, confidence))


def _assert_same_pose(a, b):
    np.testing.assert_array_equal(a.rotation, b.rotation)
    np.testing.assert_array_equal(a.translation, b.translation)


@pytest.mark.parametrize("name", list(_COLD_POSES))
def test_initial_pose_from_landmarks_is_near_the_truth(head, head_landmark_ids, intr, name):
    # Horn's closed-form alignment of the landmark vertices to their
    # backprojected pixels; the depth-centroid start keeps the identity
    # rotation, 12-15 degrees off on these poses
    truth = _COLD_POSES[name]
    frame, landmarks = _neutral_capture(head, head_landmark_ids, intr, truth)
    pose = initial_pose_from_depth(head.neutral, frame, intr, landmarks)
    rot, trans = pose_delta(pose, truth)
    assert np.rad2deg(rot) < 2.0 and trans < 2e-3
    assert pose.rotation[0] >= 0.0
    rot, _ = pose_delta(initial_pose_from_depth(head.neutral, frame, intr), truth)
    assert np.rad2deg(rot) > 10.0


def test_initial_pose_falls_back_to_the_depth_centroid(head, head_landmark_ids, intr):
    frame, landmarks = _neutral_capture(head, head_landmark_ids, intr,
                                        _COLD_POSES["oblique-12deg"])
    centroid = initial_pose_from_depth(head.neutral, frame, intr)
    np.testing.assert_array_equal(centroid.rotation, [1.0, 0.0, 0.0, 0.0])
    _assert_same_pose(initial_pose_from_depth(head.neutral, frame, intr, None), centroid)
    # five usable landmarks are one too few
    _assert_same_pose(initial_pose_from_depth(head.neutral, frame, intr,
                                              _subset(landmarks, range(5))), centroid)
    # every landmark on one vertex fixes no rotation
    one = LandmarkSet(landmarks.ids, np.full(len(landmarks), landmarks.vertex_indices[0]),
                      landmarks.pixels, landmarks.confidences)
    _assert_same_pose(initial_pose_from_depth(head.neutral, frame, intr, one), centroid)
    assert not np.array_equal(
        initial_pose_from_depth(head.neutral, frame, intr, landmarks).rotation,
        centroid.rotation)


def test_initial_pose_depth_centroid_is_unchanged(head, head_landmark_ids, intr):
    # the depth-centroid start as it was computed before the landmark
    # start came in, from the 2-D mask's nonzero rows and columns
    frame, _ = _neutral_capture(head, head_landmark_ids, intr, _COLD_POSES["pitch-15deg"])
    noisy = add_depth_noise(frame, 0.002, np.random.default_rng(4))
    for f in (frame, noisy):
        rows, cols = np.nonzero(f.valid_mask())
        cloud = backproject(intr, cols + 0.5, rows + 0.5,
                            f.values[rows, cols].astype(np.float64))
        t = cloud.mean(axis=0) - head.neutral.vertices.mean(axis=0)
        pose = initial_pose_from_depth(head.neutral, f, intr)
        np.testing.assert_array_equal(pose.rotation, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(pose.translation, t)


def _initial_pose_listing_first(mesh, frame, intr, landmarks=None):
    """initial_pose_from_depth as it was written: the valid pixels listed
    up front, their count read off the list."""
    if landmarks is not None:
        landmarks.check_vertices(mesh.vertex_count)
    valid = np.flatnonzero(frame.values > 0.0)
    if len(valid) < 50:
        raise TrackingError("too few valid depth pixels")
    if landmarks is not None and len(landmarks):
        pose = solver._landmark_pose(mesh, frame, intr, landmarks)
        if pose is not None:
            return pose
    rows, cols = np.divmod(valid, frame.width)
    cloud = backproject(intr, cols + 0.5, rows + 0.5,
                        frame.values[rows, cols].astype(np.float64))
    return RigidPose(np.array([1.0, 0.0, 0.0, 0.0]),
                     cloud.mean(axis=0) - mesh.vertices.mean(axis=0))


@pytest.mark.parametrize("name", list(_COLD_POSES))
def test_initial_pose_counts_before_listing(head, head_landmark_ids, intr, name):
    # the valid pixels are counted for the 50-pixel check and listed only
    # for the depth-centroid start: both starts are unchanged
    frame, landmarks = _neutral_capture(head, head_landmark_ids, intr, _COLD_POSES[name])
    noisy = add_depth_noise(frame, 0.002, np.random.default_rng(5))
    for f in (frame, noisy):
        for lms in (None, landmarks, _subset(landmarks, range(5))):
            _assert_same_pose(initial_pose_from_depth(head.neutral, f, intr, lms),
                              _initial_pose_listing_first(head.neutral, f, intr, lms))


def test_unusable_landmarks_leave_the_start_unchanged(head, head_landmark_ids, intr):
    frame, landmarks = _neutral_capture(head, head_landmark_ids, intr,
                                        _COLD_POSES["roll-15deg"])
    start = initial_pose_from_depth(head.neutral, frame, intr, landmarks)
    # a wild pixel: the farthest pixel over valid depth of another
    # landmark, for the vertex of landmark 0
    ix, iy = np.floor(landmarks.pixels).astype(np.int64).T
    dist = np.linalg.norm(landmarks.pixels - landmarks.pixels[0], axis=1)
    wild = landmarks.pixels[np.argmax(np.where(frame.values[iy, ix] > 0.0, dist, 0.0))]
    vertex = landmarks.vertex_indices[0]
    invalid = np.argwhere(frame.values == 0.0)[0][::-1] + 0.5      # (u, v) of a blank pixel
    for extra in (_plus(landmarks, vertex, wild, confidence=0.0),
                  _plus(landmarks, vertex, invalid)):
        _assert_same_pose(initial_pose_from_depth(head.neutral, frame, intr, extra), start)
    # off the image, even with valid depth all along its border
    walled = DepthFrame(np.where(frame.values > 0.0, frame.values, 1.0))
    walled_start = initial_pose_from_depth(head.neutral, walled, intr, landmarks)
    for extra in (_plus(landmarks, vertex, [-3.0, wild[1]]),
                  _plus(landmarks, vertex, [wild[0], intr.height + 2.0])):
        _assert_same_pose(initial_pose_from_depth(head.neutral, walled, intr, extra),
                          walled_start)
    # the same wild landmark, usable, moves the start, by as little as its
    # confidence weighs against the others'
    moved = initial_pose_from_depth(head.neutral, frame, intr, _plus(landmarks, vertex, wild))
    rot, trans = pose_delta(moved, start)
    assert np.rad2deg(rot) > 0.5 or trans > 1e-3
    slight = initial_pose_from_depth(head.neutral, frame, intr,
                                     _plus(landmarks, vertex, wild, confidence=1e-6))
    rot, trans = pose_delta(slight, start)
    assert np.rad2deg(rot) < 1e-4 and trans < 1e-7


def test_initial_pose_rejects_a_landmark_vertex_out_of_range(head, head_landmark_ids, intr):
    frame, landmarks = _neutral_capture(head, head_landmark_ids, intr,
                                        _COLD_POSES["roll-15deg"])
    bad = _plus(landmarks, head.vertex_count, landmarks.pixels[0])
    with pytest.raises(ValueError, match="out of range"):
        initial_pose_from_depth(head.neutral, frame, intr, bad)
