"""Projective depth association, residual terms, landmark Jacobian."""

import numpy as np
import pytest

from blendfit import (
    BehindCameraError,
    CameraIntrinsics,
    CorrespondenceSet,
    DepthFrame,
    LandmarkSet,
    backproject,
    find_correspondences,
    landmark_jacobian,
    project,
)
from conftest import wall_frame

WIDE = 1.0     # meters: a distance gate that rejects nothing here


def _match_one(vertex, frame, intr, max_distance):
    """One-row batch search: the match of a single vertex, or an empty set."""
    return find_correspondences(np.reshape(vertex, (1, 3)), frame, intr,
                                max_distance)


def test_wall_hit_recovers_point_and_normal(intr):
    frame = wall_frame(intr)
    vertex = np.array([0.05, -0.03, 1.0])
    corr = _match_one(vertex, frame, intr, WIDE)
    assert list(corr.vertex_indices) == [0]
    np.testing.assert_allclose(corr.points[0], vertex, atol=1e-4)
    np.testing.assert_allclose(corr.normals[0], [0.0, 0.0, -1.0], atol=1e-3)


def test_vertex_off_image_returns_none(intr):
    frame = wall_frame(intr)
    assert len(_match_one((5.0, 0.0, 1.0), frame, intr, WIDE)) == 0


def test_distance_gate_rejects_far_vertex(intr):
    frame = wall_frame(intr)
    # projects onto the wall but floats 5 cm in front of it
    assert len(_match_one((0.0, 0.0, 0.95), frame, intr, 0.02)) == 0
    assert len(_match_one((0.0, 0.0, 0.995), frame, intr, 0.02)) == 1


@pytest.mark.parametrize("max_distance", [0.0, -0.01, float("nan")])
def test_distance_gate_must_be_positive(intr, max_distance):
    with pytest.raises(ValueError, match="max_distance"):
        _match_one((0.0, 0.0, 1.0), wall_frame(intr), intr, max_distance)


def _tilted_wall(intr, degrees):
    """Depth of the plane through (0, 0, 1) whose normal is tilted
    `degrees` from the optical axis, about the y axis."""
    a = np.deg2rad(degrees)
    u = (np.arange(intr.width) + 0.5 - intr.cx) / intr.fx
    # the ray (u, v, 1) meets the plane at depth cos a / (cos a - u sin a)
    depth = np.cos(a) / (np.cos(a) - u * np.sin(a))
    row = np.where(depth > 0.0, depth, 0.0)
    return DepthFrame(np.tile(row, (intr.height, 1)))


@pytest.mark.parametrize("degrees, matches", [(50.0, 1), (70.0, 0)])
def test_incidence_gate_drops_grazing_surfaces(intr, degrees, matches):
    # the vertex lies on the wall on the optical axis, so its view ray
    # meets the wall `degrees` away from the normal; the gate is 60 degrees
    frame = _tilted_wall(intr, degrees)
    assert len(_match_one((0.0, 0.0, 1.0), frame, intr, WIDE)) == matches


def test_invalid_depth_returns_none(intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0])
        assert len(_match_one(v, blank, intr, WIDE)) == 0


def test_empty_vertex_batch_gives_empty_set(intr):
    found = find_correspondences(np.zeros((0, 3)), wall_frame(intr), intr, WIDE)
    assert len(found) == 0
    assert found.points.shape == (0, 3) and found.normals.shape == (0, 3)


def test_batch_matches_single_vertex_search(intr):
    frame = wall_frame(intr)
    rng = np.random.default_rng(1)
    verts = np.column_stack([rng.uniform(-0.8, 0.8, 40),
                             rng.uniform(-0.8, 0.8, 40),
                             np.full(40, 1.0)])
    batch = find_correspondences(verts, frame, intr, WIDE)
    singles = {i: _match_one(verts[i], frame, intr, WIDE)
               for i in range(len(verts))}
    assert set(batch.vertex_indices) == {i for i, c in singles.items() if len(c)}
    for row, i in enumerate(batch.vertex_indices):
        np.testing.assert_allclose(batch.points[row], singles[i].points[0])
        np.testing.assert_allclose(batch.normals[row], singles[i].normals[0])


def test_gating_is_monotone(intr):
    frame = wall_frame(intr)
    rng = np.random.default_rng(2)
    verts = np.column_stack([rng.uniform(-0.7, 0.7, 60),
                             rng.uniform(-0.7, 0.7, 60),
                             rng.uniform(0.97, 1.03, 60)])
    kept = None
    for dist in (0.1, 0.05, 0.02, 0.01, 0.001):
        got = set(find_correspondences(verts, frame, intr, dist).vertex_indices)
        if kept is not None:
            assert got <= kept
        kept = got


# ---------------------------------------------------------------------------
# residual terms

def _one_plane(point, normal):
    return CorrespondenceSet([0], [point], [normal])


def test_plane_residual_zero_at_target():
    corr = _one_plane((0.1, 0.2, 1.0), (0.0, 0.0, -1.0))
    assert corr.residuals(np.array([[0.1, 0.2, 1.0]]))[0] == 0.0


def test_plane_residual_ignores_tangential_slide():
    corr = _one_plane((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
    assert corr.residuals(np.array([[0.25, -0.4, 1.0]]))[0] == 0.0


def test_plane_residual_along_normal():
    rng = np.random.default_rng(3)
    n = rng.normal(size=(20, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    p = rng.normal(size=(20, 3))
    d = rng.uniform(-0.3, 0.3, 20)
    # rows name their vertices out of order; each residual reads its own row
    idx = rng.permutation(20)
    verts = np.empty((20, 3))
    verts[idx] = p + d[:, None] * n
    r = CorrespondenceSet(idx, p, n).residuals(verts)
    np.testing.assert_allclose(r, d, rtol=0, atol=1e-12)


def test_project_hits_backprojected_pixel(intr):
    u = np.array([200.25, 90.5])
    v = backproject(intr, u[0], u[1], 0.8)
    np.testing.assert_allclose(project(intr, v), u, rtol=0, atol=1e-9)


def test_reprojection_error_three_four_five(intr):
    v = np.array([0.0, 0.0, 1.0])
    u = project(intr, v) + np.array([3.0, 4.0])
    r = project(intr, v) - u
    assert abs(float(r @ r) - 25.0) < 1e-12


def test_project_matches_direct_recomputation(intr):
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                      rng.uniform(0.3, 2.0)])
        u = rng.uniform(0, [intr.width, intr.height])
        px = np.array([intr.fx * v[0] / v[2] + intr.cx,
                       intr.fy * v[1] / v[2] + intr.cy])
        np.testing.assert_allclose(project(intr, v), px, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# landmark Jacobian

def test_jacobian_on_axis_analytic():
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                           width=640, height=480)
    jac = landmark_jacobian((0.0, 0.0, 1.0), cam)
    np.testing.assert_allclose(jac, [[500.0, 0.0, 0.0], [0.0, 500.0, 0.0]],
                               atol=1e-12)


def test_jacobian_entry_scales_inverse_depth(intr):
    j1 = landmark_jacobian((0.1, 0.05, 1.0), intr)
    j2 = landmark_jacobian((0.1, 0.05, 2.0), intr)
    assert abs(j2[0, 0] - 0.5 * j1[0, 0]) < 1e-12


def test_jacobian_matches_central_differences(intr):
    rng = np.random.default_rng(5)
    h = 1e-6
    points = np.column_stack([rng.uniform(-0.3, 0.3, 200), rng.uniform(-0.3, 0.3, 200),
                              rng.uniform(0.3, 2.0, 200)])
    singles = []
    for v in points:
        jac = landmark_jacobian(v, intr)
        fd = np.empty((2, 3))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            fd[:, a] = (project(intr, v + e) - project(intr, v - e)) / (2 * h)
        rel = np.abs(jac - fd) / max(1.0, np.abs(fd).max())
        assert rel.max() < 1e-4
        singles.append(jac)
    batch = landmark_jacobian(points, intr)
    assert batch.shape == (200, 2, 3)
    np.testing.assert_array_equal(batch, np.array(singles))


def test_jacobian_rejects_points_behind_camera(intr):
    with pytest.raises(BehindCameraError):
        landmark_jacobian((0.1, 0.0, 0.0), intr)
    batch = np.array([[0.0, 0.0, 1.0], [0.1, 0.1, -0.5], [0.0, 0.1, 2.0]])
    with pytest.raises(BehindCameraError):
        landmark_jacobian(batch, intr)


# ---------------------------------------------------------------------------
# landmark sets

def test_landmark_set_validates_lengths():
    with pytest.raises(ValueError):
        LandmarkSet(("a", "b"), [0], [[1.0, 2.0]], [1.0])


def test_landmark_set_validates_confidence_range():
    with pytest.raises(ValueError):
        LandmarkSet(("a",), [0], [[1.0, 2.0]], [1.5])


def test_landmark_set_empty():
    lms = LandmarkSet.empty()
    assert len(lms) == 0


def test_landmark_set_vertex_bounds_check():
    lms = LandmarkSet(("a",), [7], [[1.0, 2.0]])
    lms.check_vertices(8)
    with pytest.raises(ValueError):
        lms.check_vertices(7)


def test_landmark_set_rejects_negative_vertex():
    with pytest.raises(ValueError, match="negative"):
        LandmarkSet(("a", "b"), [3, -1], [[1.0, 2.0], [3.0, 4.0]])
