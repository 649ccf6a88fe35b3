"""Core geometry: blendshape evaluation, poses, camera model, normals."""

import numpy as np
import pytest

from blendfit import (
    BehindCameraError,
    BlendshapeModel,
    BscSequence,
    DimensionMismatchError,
    InvalidDepthError,
    IsolatedVertexWarning,
    Mesh,
    MeshValidationError,
    RigidPose,
    SequenceFrame,
    backproject,
    check_no_degenerate_faces,
    evaluate_mesh,
    face_areas,
    pose_delta,
    project,
    validate_bsc,
    vertex_normals,
)
from blendfit.geometry import (
    apply_twist,
    quat_from_axis_angle,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_rotation_angle,
    quat_to_matrix,
    quat_to_rotvec,
)

from conftest import random_model


# ---------------------------------------------------------------------------
# evaluate_mesh

def test_evaluate_mesh_zeros_is_neutral():
    model = random_model(np.random.default_rng(0))
    mesh = evaluate_mesh(model, np.zeros(model.n))
    np.testing.assert_array_equal(mesh.vertices, model.neutral.vertices)
    np.testing.assert_array_equal(mesh.faces, model.neutral.faces)


def test_evaluate_mesh_unit_vector_adds_one_basis_column():
    model = random_model(np.random.default_rng(1))
    for k in range(model.n):
        x = np.zeros(model.n)
        x[k] = 1.0
        mesh = evaluate_mesh(model, x)
        np.testing.assert_allclose(
            mesh.vertices, model.neutral.vertices + model.basis[k], atol=1e-15)


def test_evaluate_mesh_is_affine():
    rng = np.random.default_rng(2)
    for _ in range(20):
        model = random_model(rng)
        x1 = rng.uniform(0, 1, model.n)
        x2 = rng.uniform(0, 1, model.n)
        mixed = evaluate_mesh(model, 0.5 * x1 + 0.5 * x2).vertices
        parts = 0.5 * evaluate_mesh(model, x1).vertices \
            + 0.5 * evaluate_mesh(model, x2).vertices
        np.testing.assert_allclose(mixed, parts, atol=1e-9)


def test_evaluate_mesh_rejects_wrong_length():
    model = random_model(np.random.default_rng(3))
    with pytest.raises(DimensionMismatchError):
        evaluate_mesh(model, np.zeros(model.n + 1))


# ---------------------------------------------------------------------------
# rigid poses

def test_pose_apply_identity():
    p = RigidPose.identity().apply((1.0, 2.0, 3.0))
    np.testing.assert_array_equal(p, [1.0, 2.0, 3.0])


def test_pose_apply_half_turn_about_z():
    pose = RigidPose.from_axis_angle((0, 0, 1), np.pi)
    np.testing.assert_allclose(pose.apply((1, 0, 0)), [-1, 0, 0], atol=1e-12)


def _random_pose(rng):
    axis = rng.normal(size=3)
    return RigidPose(quat_from_axis_angle(axis, rng.uniform(-np.pi, np.pi)),
                     rng.normal(size=3))


def test_pose_inverse_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pose = _random_pose(rng)
        both = pose.inverse().compose(pose)
        rot_deg, trans = pose_delta(both, RigidPose.identity())
        assert rot_deg < 1e-9 * 180 / np.pi or rot_deg < 1e-7
        assert trans < 1e-9


def test_pose_composition_associative():
    rng = np.random.default_rng(5)
    a, b, c = (_random_pose(rng) for _ in range(3))
    p = rng.normal(size=3)
    left = a.compose(b).compose(c).apply(p.reshape(1, 3))
    right = a.compose(b.compose(c)).apply(p.reshape(1, 3))
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_pose_matrix_matches_apply():
    rng = np.random.default_rng(6)
    pose = _random_pose(rng)
    p = rng.normal(size=(10, 3))
    via_matrix = p @ pose.matrix().T + pose.translation
    np.testing.assert_allclose(pose.apply(p), via_matrix, atol=1e-12)


def test_apply_twist_zero_is_identity():
    pose = _random_pose(np.random.default_rng(7))
    moved = apply_twist(pose, np.zeros(3), np.zeros(3))
    rot, trans = pose_delta(moved, pose)
    assert rot == 0.0 and trans == 0.0


def test_apply_twist_matches_left_composition():
    rng = np.random.default_rng(8)
    pose = _random_pose(rng)
    omega = rng.normal(scale=0.3, size=3)
    tau = rng.normal(scale=0.05, size=3)
    moved = apply_twist(pose, omega, tau)
    delta = RigidPose(quat_from_rotvec(omega), tau)
    expected = delta.compose(pose)
    rot, trans = pose_delta(moved, expected)
    assert rot < 1e-9 and trans < 1e-12


def test_pose_delta_analytic():
    a = RigidPose.identity()
    b = RigidPose.from_axis_angle((0, 1, 0), np.deg2rad(10.0), (0.0, 0.0, 0.03))
    rot, trans = pose_delta(a, b)
    assert abs(rot - np.deg2rad(10.0)) < 1e-12
    assert abs(trans - 0.03) < 1e-12


# ---------------------------------------------------------------------------
# quaternion helpers

def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(9)
    qa = quat_normalize(rng.normal(size=4))
    qb = quat_normalize(rng.normal(size=4))
    np.testing.assert_allclose(quat_to_matrix(quat_multiply(qa, qb)),
                               quat_to_matrix(qa) @ quat_to_matrix(qb), atol=1e-12)


def test_quat_matrix_is_special_orthogonal():
    rng = np.random.default_rng(10)
    for _ in range(20):
        r = quat_to_matrix(quat_normalize(rng.normal(size=4)))
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rotvec_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rv = rng.normal(size=3)
        rv *= rng.uniform(0, 3.0) / np.linalg.norm(rv)
        np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(rv)), rv,
                                   atol=1e-9)


def test_rotvec_round_trip_tiny_angle():
    rv = np.array([1e-13, -2e-13, 5e-14])
    np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(rv)), rv,
                               atol=1e-20)


def test_rotation_angle():
    q = quat_from_axis_angle((1, 0, 0), np.deg2rad(37.0))
    assert abs(np.rad2deg(quat_rotation_angle(q)) - 37.0) < 1e-9


def test_pose_requires_unit_quaternion():
    with pytest.raises(ValueError):
        RigidPose(np.array([0.9, 0.1, 0.2, 0.1]), np.zeros(3))


# ---------------------------------------------------------------------------
# camera model

def test_project_optical_axis(intr):
    np.testing.assert_allclose(project(intr, (0.0, 0.0, 1.0)),
                               [intr.cx, intr.cy], atol=1e-12)


def test_project_analytic_pinhole():
    from blendfit import CameraIntrinsics
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                           width=640, height=480)
    np.testing.assert_allclose(project(cam, (0.1, 0.0, 1.0)), [370.0, 240.0],
                               atol=1e-12)


def test_project_rejects_behind_camera(intr):
    with pytest.raises(BehindCameraError):
        project(intr, (0.0, 0.0, -0.5))


def test_backproject_principal_point(intr):
    np.testing.assert_allclose(backproject(intr, intr.cx, intr.cy, 0.7),
                               [0.0, 0.0, 0.7], atol=1e-15)


def test_backproject_rejects_nonpositive_depth(intr):
    with pytest.raises(InvalidDepthError):
        backproject(intr, 10.0, 10.0, 0.0)


def test_project_backproject_round_trip(intr):
    rng = np.random.default_rng(12)
    for _ in range(1000):
        u = rng.uniform(0, intr.width)
        v = rng.uniform(0, intr.height)
        d = rng.uniform(0.2, 3.0)
        uv = project(intr, backproject(intr, u, v, d))
        assert abs(uv[0] - u) < 1e-6 and abs(uv[1] - v) < 1e-6


# ---------------------------------------------------------------------------
# vertex normals

def _quad_mesh():
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, faces)


def test_normals_flat_quad_point_up():
    normals = vertex_normals(_quad_mesh())
    np.testing.assert_allclose(normals, np.tile([0.0, 0.0, 1.0], (4, 1)),
                               atol=1e-12)


def test_normals_flip_with_winding():
    mesh = _quad_mesh()
    flipped = Mesh(mesh.vertices, mesh.faces[:, ::-1])
    np.testing.assert_allclose(vertex_normals(flipped),
                               -vertex_normals(mesh), atol=1e-12)


def _uv_sphere(rings=12, segs=18):
    verts = [(0.0, 0.0, 1.0)]
    for r in range(1, rings):
        phi = np.pi * r / rings
        for s in range(segs):
            th = 2 * np.pi * s / segs
            verts.append((np.sin(phi) * np.cos(th), np.sin(phi) * np.sin(th),
                          np.cos(phi)))
    verts.append((0.0, 0.0, -1.0))
    south = len(verts) - 1
    faces = []
    ring = lambda r, s: 1 + (r - 1) * segs + (s % segs)
    for s in range(segs):
        faces.append((0, ring(1, s), ring(1, s + 1)))
        faces.append((south, ring(rings - 1, s + 1), ring(rings - 1, s)))
    for r in range(1, rings - 1):
        for s in range(segs):
            a, b = ring(r, s), ring(r, s + 1)
            c, d = ring(r + 1, s), ring(r + 1, s + 1)
            faces.append((a, d, b))
            faces.append((a, c, d))
    return Mesh(np.array(verts), np.array(faces))


def test_normals_on_sphere_point_radially():
    mesh = _uv_sphere()
    normals = vertex_normals(mesh)
    radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    dots = np.einsum("ij,ij->i", normals, radial)
    assert dots.min() > 0.99


def test_normals_unit_length():
    rng = np.random.default_rng(13)
    for _ in range(5):
        mesh = random_model(rng).neutral
        lengths = np.linalg.norm(vertex_normals(mesh), axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-6)


def test_normals_isolated_vertex_warns():
    mesh = Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], dtype=float),
                np.array([[0, 1, 2]]))
    with pytest.warns(IsolatedVertexWarning):
        normals = vertex_normals(mesh)
    np.testing.assert_array_equal(normals[3], [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# mesh and model validation

def test_mesh_rejects_out_of_range_face():
    with pytest.raises(MeshValidationError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))


def test_mesh_rejects_repeated_vertex_in_face():
    with pytest.raises(MeshValidationError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))


def test_degenerate_face_check():
    # collinear vertices: zero area without repeating an index
    mesh = Mesh(np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
                np.array([[0, 1, 2]]))
    with pytest.raises(MeshValidationError):
        check_no_degenerate_faces(mesh)


def test_face_areas_unit_triangle():
    mesh = Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                np.array([[0, 1, 2]]))
    np.testing.assert_allclose(face_areas(mesh), [0.5], atol=1e-15)


def test_model_rejects_name_count_mismatch():
    mesh = _quad_mesh()
    with pytest.raises(MeshValidationError):
        BlendshapeModel(mesh, np.zeros((2, 4, 3)), ("only_one",))


def test_model_rejects_duplicate_names():
    mesh = _quad_mesh()
    with pytest.raises(MeshValidationError):
        BlendshapeModel(mesh, np.zeros((2, 4, 3)), ("a", "a"))


def test_model_rejects_basis_vertex_mismatch():
    mesh = _quad_mesh()
    with pytest.raises(MeshValidationError):
        BlendshapeModel(mesh, np.zeros((2, 5, 3)), ("a", "b"))


def test_validate_bsc_snaps_and_rejects():
    x = validate_bsc(np.array([0.0, 1.0 + 1e-12, -1e-12]))
    assert x.min() == 0.0 and x.max() == 1.0
    with pytest.raises(ValueError):
        validate_bsc(np.array([0.5, 1.2]))
    with pytest.raises(DimensionMismatchError):
        validate_bsc(np.zeros((2, 2)))


def test_bsc_sequence_coefficient_matrix():
    frames = tuple(
        SequenceFrame(i, 0.1 * i, RigidPose.identity(), np.full(3, 0.1 * i))
        for i in range(4))
    seq = BscSequence(("a", "b", "c"), frames)
    assert seq.n == 3 and len(seq) == 4
    mat = seq.coefficient_matrix()
    assert mat.shape == (4, 3)
    np.testing.assert_allclose(mat[:, 0], [0.0, 0.1, 0.2, 0.3], atol=1e-15)
