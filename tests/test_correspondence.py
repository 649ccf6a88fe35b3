"""Projective depth association, residual terms, landmark Jacobian."""

import numpy as np
import pytest

from blendfit import (
    BehindCameraError,
    CameraIntrinsics,
    CorrespondenceSet,
    DepthFrame,
    LandmarkSet,
    RigidPose,
    backproject,
    evaluate_mesh,
    find_correspondences,
    landmark_jacobian,
    project,
)
from blendfit.geometry import apply_twist
from blendfit.synth import add_depth_noise, render_depth
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
# the column-wise search against the row-wise one it replaced

def _find_correspondences_reference(vertices_cam, frame, intr, max_distance):
    """find_correspondences as it was written on (m, 3) rows, with every
    vertex carried through every step."""
    from blendfit.correspondence import _DEPTH_WINDOW, _MAX_NORMAL_ANGLE

    verts = np.asarray(vertices_cam, dtype=np.float64).reshape(-1, 3)
    m = len(verts)

    depth = frame.values
    h, w = depth.shape
    win = _DEPTH_WINDOW

    keep = verts[:, 2] > 0.0
    uv = np.zeros((m, 2))
    z = np.where(keep, verts[:, 2], 1.0)
    uv[:, 0] = intr.fx * verts[:, 0] / z + intr.cx
    uv[:, 1] = intr.fy * verts[:, 1] / z + intr.cy

    ix = np.floor(uv[:, 0]).astype(np.int64)
    iy = np.floor(uv[:, 1]).astype(np.int64)
    keep &= (ix >= win) & (ix < w - win) & (iy >= win) & (iy < h - win)

    ixc = np.clip(ix, win, max(w - 1 - win, win))
    iyc = np.clip(iy, win, max(h - 1 - win, win))
    at = iyc * w + ixc
    d0, dxp, dxm, dyp, dym = depth.ravel()[
        at + np.array([0, win, -win, w * win, -w * win])[:, None]].astype(np.float64)
    keep &= (d0 > 0) & (dxp > 0) & (dxm > 0) & (dyp > 0) & (dym > 0)

    def lift(u_idx, v_idx, d):
        u = u_idx + 0.5
        v = v_idx + 0.5
        return np.stack([(u - intr.cx) * d / intr.fx,
                         (v - intr.cy) * d / intr.fy,
                         d], axis=-1)

    anchor = lift(ixc, iyc, d0)
    tan_u = lift(ixc + win, iyc, dxp) - lift(ixc - win, iyc, dxm)
    tan_v = lift(ixc, iyc + win, dyp) - lift(ixc, iyc - win, dym)
    normal = np.cross(tan_u, tan_v)
    nlen = np.linalg.norm(normal, axis=1)
    keep &= nlen > 0
    normal = normal / np.where(nlen > 0, nlen, 1.0)[:, None]

    flip = np.einsum("ij,ij->i", normal, anchor) > 0
    normal[flip] = -normal[flip]

    rays = np.stack([(uv[:, 0] - intr.cx) / intr.fx,
                     (uv[:, 1] - intr.cy) / intr.fy,
                     np.ones(m)], axis=-1)
    n_dot_ray = np.einsum("ij,ij->i", normal, rays)
    n_dot_anchor = np.einsum("ij,ij->i", normal, anchor)
    grazing = np.abs(n_dot_ray) < 1e-6
    t = np.where(grazing, 1.0, n_dot_anchor / np.where(grazing, 1.0, n_dot_ray))
    target = np.where((grazing | (t <= 0.0))[:, None], anchor, t[:, None] * rays)

    keep &= np.linalg.norm(verts - target, axis=1) <= max_distance

    tlen = np.linalg.norm(target, axis=1)
    keep &= tlen > 0
    to_cam = -target / np.where(tlen > 0, tlen, 1.0)[:, None]
    cos_inc = np.einsum("ij,ij->i", normal, to_cam)
    keep &= cos_inc >= np.cos(np.deg2rad(_MAX_NORMAL_ANGLE))

    idx = np.flatnonzero(keep)
    return CorrespondenceSet(idx, target[idx], normal[idx])


def _assert_matches_reference(verts, frame, intr, max_distance):
    """The same matches and normals as the reference, byte for byte; the
    points to a few units in the last place. Returns the search's set.

    The dot products n . anchor and n . ray are summed in another order
    than the reference's einsum, which moves the ray-cast point by
    rounding alone."""
    got = find_correspondences(verts, frame, intr, max_distance)
    ref = _find_correspondences_reference(verts, frame, intr, max_distance)
    assert got.vertex_indices.tobytes() == ref.vertex_indices.tobytes()
    assert got.normals.tobytes() == ref.normals.tobytes()
    err = np.abs(got.points - ref.points).max(axis=1, initial=0.0)
    assert (err <= 8 * np.finfo(float).eps * np.linalg.norm(ref.points, axis=1)).all()
    return got


def _noisy_head_frames(head):
    """(vertices, frame) pairs: the test head at several poses and
    expressions, rendered with 2 mm depth noise and a blanked band of
    rows, searched from a nearby pose at another expression."""
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0,
                            width=320, height=240)
    rng = np.random.default_rng(17)
    for _ in range(6):
        pose = RigidPose.from_axis_angle(rng.normal(size=3), np.deg2rad(rng.uniform(0, 20)),
                                         (*rng.uniform(-0.02, 0.02, 2), rng.uniform(0.4, 0.7)))
        x = rng.uniform(0, 0.8, head.n) * (rng.uniform(size=head.n) < 0.15)
        frame = add_depth_noise(render_depth(evaluate_mesh(head, x), pose, intr), 0.002, rng)
        values = np.array(frame.values)
        top = rng.integers(60, 160)
        values[top:top + 24] = 0.0
        near = apply_twist(pose, np.deg2rad(1.5) * rng.normal(size=3),
                           rng.normal(scale=0.003, size=3))
        verts = near.apply(evaluate_mesh(head, rng.uniform(0, 0.3, head.n)).vertices)
        yield intr, verts, DepthFrame(values)


def test_head_matches_reference(head):
    for intr, verts, frame in _noisy_head_frames(head):
        for max_distance in (0.02, 0.005, WIDE):
            found = _assert_matches_reference(verts, frame, intr, max_distance)
            assert len(found) > 100


def _find_correspondences_split(vertices_cam, frame, intr, max_distance):
    """find_correspondences with its column-wise tail as it was written:
    each backprojected coordinate of the five samples on its own, and the
    set built through the checking constructor."""
    from blendfit.correspondence import _DEPTH_WINDOW, _MAX_NORMAL_ANGLE

    verts = np.asarray(vertices_cam, dtype=np.float64).reshape(-1, 3)
    fx, fy, cx, cy = intr.fx, intr.fy, intr.cx, intr.cy
    depth = frame.values
    h, w = depth.shape
    win = _DEPTH_WINDOW

    vx, vy, vz = verts.T
    front = vz > 0.0
    z = np.where(front, vz, 1.0)
    u = fx * vx / z + cx
    v = fy * vy / z + cy
    ix = np.floor(u).astype(np.int64)
    iy = np.floor(v).astype(np.int64)
    idx = np.flatnonzero(front & (ix >= win) & (ix < w - win) & (iy >= win) & (iy < h - win))
    ix, iy = ix[idx], iy[idx]
    at = iy * w + ix
    samples = depth.ravel()[at + np.array([0, win, -win, w * win, -w * win])[:, None]]
    live = np.flatnonzero((samples > 0).all(axis=0))
    idx, ix, iy = idx[live], ix[live], iy[live]
    d0, dxp, dxm, dyp, dym = samples[:, live].astype(np.float64)

    gx = ix + 0.5 - cx
    gy = iy + 0.5 - cy
    ax, ay, az = gx * d0 / fx, gy * d0 / fy, d0
    tux = ((ix + win) + 0.5 - cx) * dxp / fx - ((ix - win) + 0.5 - cx) * dxm / fx
    tuy = gy * dxp / fy - gy * dxm / fy
    tuz = dxp - dxm
    tvx = gx * dyp / fx - gx * dym / fx
    tvy = ((iy + win) + 0.5 - cy) * dyp / fy - ((iy - win) + 0.5 - cy) * dym / fy
    tvz = dyp - dym
    nx = tuy * tvz - tuz * tvy
    ny = tuz * tvx - tux * tvz
    nz = tux * tvy - tuy * tvx
    nlen = np.sqrt(nx * nx + ny * ny + nz * nz)
    keep = nlen > 0
    nlen = np.where(keep, nlen, 1.0)
    nx, ny, nz = nx / nlen, ny / nlen, nz / nlen

    n_dot_anchor = nx * ax + ny * ay + nz * az
    sign = np.where(n_dot_anchor > 0, -1.0, 1.0)
    nx, ny, nz = sign * nx, sign * ny, sign * nz
    n_dot_anchor = -np.abs(n_dot_anchor)

    rx = (u[idx] - cx) / fx
    ry = (v[idx] - cy) / fy
    n_dot_ray = nx * rx + ny * ry + nz
    grazing = np.abs(n_dot_ray) < 1e-6
    t = n_dot_anchor / np.where(grazing, 1.0, n_dot_ray)
    cast = ~grazing & (t > 0.0)
    tx = np.where(cast, t * rx, ax)
    ty = np.where(cast, t * ry, ay)
    tz = np.where(cast, t, az)

    dx, dy, dz = vx[idx] - tx, vy[idx] - ty, vz[idx] - tz
    keep &= np.sqrt(dx * dx + dy * dy + dz * dz) <= max_distance
    tlen = np.sqrt(tx * tx + ty * ty + tz * tz)
    keep &= tlen > 0
    tlen = np.where(tlen > 0, tlen, 1.0)
    cos_inc = nx * (-tx / tlen) + ny * (-ty / tlen) + nz * (-tz / tlen)
    keep &= cos_inc >= np.cos(np.deg2rad(_MAX_NORMAL_ANGLE))

    sel = np.flatnonzero(keep)
    return CorrespondenceSet(idx[sel], np.column_stack((tx, ty, tz))[sel],
                             np.column_stack((nx, ny, nz))[sel])


def test_head_matches_the_split_tail_bit_for_bit(head):
    # noisy frames with an occluded band of rows: the five samples
    # backprojected as one block, and the set built from the search's own
    # arrays, give the same set byte for byte
    for intr, verts, frame in _noisy_head_frames(head):
        for max_distance in (0.02, 0.005, WIDE):
            got = find_correspondences(verts, frame, intr, max_distance)
            ref = _find_correspondences_split(verts, frame, intr, max_distance)
            assert len(got) > 100
            for name in ("vertex_indices", "points", "normals"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
                assert a.flags.c_contiguous and not a.flags.writeable


def _vertex_at(intr, u, v, z):
    """The camera-frame point at depth z that projects to pixel (u, v)."""
    return ((u - intr.cx) * z / intr.fx, (v - intr.cy) * z / intr.fy, z)


def _rejection_case(kind):
    """(intr, depth, vertices, max_distance, kept): a 16 x 16 frame, mostly
    a wall at 1 m, and three vertices, of which the middle one is built
    to fail one step of the search and the outer two match."""
    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=8.5, cy=8.5, width=16, height=16)
    depth = np.ones((16, 16))
    good = [(4.5, 11.5), (11.5, 4.5)]
    crafted = _vertex_at(intr, 8.5, 8.5, 1.0)
    max_distance = WIDE
    kept = [0, 2]
    if kind == "behind the camera":
        crafted = (0.0, 0.0, -1.0)
    elif kind == "on the camera plane":
        crafted = (0.0, 0.0, 0.0)
    elif kind == "outside the window":
        # an image pixel, but its left neighbour is not
        crafted = _vertex_at(intr, 0.5, 8.5, 1.0)
    elif kind == "invalid neighbour depth":
        depth[8, 9] = 0.0
    elif kind == "zero-length normal":
        # with positive depths the two tangents are never parallel, so
        # the normal's squared length has to underflow: a patch at the
        # smallest float32 depth, seen through a very long lens
        intr = CameraIntrinsics(fx=1e70, fy=1e70, cx=8.5, cy=8.5, width=16, height=16)
        tiny = float(np.float32(1e-45))
        depth[7:10, 7:10] = tiny
        crafted = _vertex_at(intr, 8.5, 8.5, tiny)
    elif kind == "grazing ray":
        # a wide-angle pixel whose right and lower neighbours lie 4000 km
        # away: the normal is (1, 1, -1) all but exactly, so a view ray
        # near the pixel's far corner is within 1e-6 of parallel to the
        # tangent plane, and the match falls back to the pixel's own point
        intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=8.5, cy=8.5, width=16, height=16)
        depth[8, 9] = depth[9, 8] = 4e6
        good = [(7.5, 7.5), (7.5, 8.5)]
        crafted = _vertex_at(intr, 9.0 - 2e-7, 9.0 - 2e-7, 1.0)
        kept = [0, 1, 2]
    elif kind == "distance gate":
        crafted = _vertex_at(intr, 8.5, 8.5, 1.05)
        max_distance = 0.02
    elif kind == "incidence gate":
        # the pixel's left and right neighbours differ in depth by
        # 0.5 m, a slope of about 63 degrees
        depth[8, 7], depth[8, 9] = 0.75, 1.25
    verts = np.array([_vertex_at(intr, *good[0], 1.0), crafted,
                      _vertex_at(intr, *good[1], 1.0)])
    return intr, DepthFrame(depth), verts, max_distance, kept


@pytest.mark.parametrize("kind", ["behind the camera", "on the camera plane",
                                  "outside the window", "invalid neighbour depth",
                                  "zero-length normal", "grazing ray", "distance gate",
                                  "incidence gate"])
def test_each_rejection_matches_reference(kind):
    intr, frame, verts, max_distance, kept = _rejection_case(kind)
    found = _assert_matches_reference(verts, frame, intr, max_distance)
    assert list(found.vertex_indices) == kept
    if kind == "grazing ray":
        assert list(found.points[1]) == [0.0, 0.0, 1.0]


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
