"""Synthetic data generation: rasterizer, landmarks, scripts, noise."""

import numpy as np
import pytest

from conftest import random_model

from blendfit import BlendshapeModel, CameraIntrinsics, DepthFrame, Mesh, RigidPose, evaluate_mesh
from blendfit.geometry import quat_from_rotvec, vertex_normals
from blendfit import synth
from blendfit.synth import (
    NoiseConfig,
    ScriptFrame,
    SequenceScript,
    add_depth_noise,
    constant_script,
    frontal_pose,
    generate_sequence,
    make_test_head,
    project_landmarks,
    render_depth,
)


# ---------------------------------------------------------------------------
# depth rasterizer

def test_empty_mesh_renders_all_invalid(intr):
    # no vertices, or vertices in view but no faces: nothing draws, and the
    # frame is the all-zero float32 image
    no_faces = np.zeros((0, 3), dtype=int)
    for mesh in (Mesh(np.zeros((0, 3)), no_faces),
                 Mesh(np.random.default_rng(0).uniform(-0.1, 0.1, (5, 3)) + [0, 0, 1],
                      no_faces)):
        frame = render_depth(mesh, RigidPose.identity(), intr)
        assert not frame.valid_mask().any()
        assert frame.values.tobytes() == np.zeros((intr.height, intr.width),
                                                  np.float32).tobytes()


def _facing_square(z=1.0, half=0.2):
    verts = np.array([[-half, -half, z], [half, -half, z],
                      [half, half, z], [-half, half, z]])
    faces = np.array([[0, 2, 1], [0, 3, 2]])
    return Mesh(verts, faces)


def test_square_at_one_meter_renders_exact_depth(intr):
    frame = render_depth(_facing_square(), RigidPose.identity(), intr)
    covered = frame.valid_mask()
    assert covered.any()
    assert (frame.values[covered] == 1.0).all()
    # center pixel is covered, corners are not
    assert covered[intr.height // 2, intr.width // 2]
    assert not covered[0, 0]


def test_back_face_is_culled(intr):
    mesh = _facing_square()
    away = Mesh(mesh.vertices, mesh.faces[:, ::-1])
    frame = render_depth(away, RigidPose.identity(), intr)
    assert not frame.valid_mask().any()


def _ray_triangle_depths(intr, us, vs, tri):
    """z of the intersections of the center rays of pixels (us, vs) with
    a triangle, NaN where a ray misses. Moller-Trumbore with the camera
    at the origin, one ray per row."""
    d = np.column_stack([(us + 0.5 - intr.cx) / intr.fx,
                         (vs + 0.5 - intr.cy) / intr.fy, np.ones(len(us))])
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    p = np.cross(d, e2)
    det = p @ e1
    hit = np.abs(det) >= 1e-14
    det = np.where(hit, det, 1.0)
    s = -tri[0]
    b1 = (p @ s) / det
    q = np.cross(s, e1)
    b2 = (d @ q) / det
    t = (e2 @ q) / det
    hit &= (b1 >= -1e-9) & (b2 >= -1e-9) & (b1 + b2 <= 1 + 1e-9) & (t > 0)
    return np.where(hit, t, np.nan)


def test_rasterized_depth_matches_ray_casting(intr):
    rng = np.random.default_rng(0)
    for _ in range(5):
        tri = np.column_stack([rng.uniform(-0.15, 0.15, 3),
                               rng.uniform(-0.15, 0.15, 3),
                               rng.uniform(0.6, 1.4, 3)])
        # orient toward the camera so the rasterizer draws it
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        if n @ tri.mean(axis=0) > 0:
            tri = tri[::-1].copy()
        frame = render_depth(Mesh(tri, np.array([[0, 1, 2]])),
                             RigidPose.identity(), intr)
        ys, xs = np.nonzero(frame.valid_mask())
        assert len(ys) > 20
        z = _ray_triangle_depths(intr, xs, ys, tri)
        assert not np.isnan(z).any()
        assert (np.abs(frame.values[ys, xs] - z) < 1e-5).all()


def test_nearest_surface_wins_z_buffer(intr):
    near = _facing_square(z=0.8, half=0.05)
    far = _facing_square(z=1.2, half=0.3)
    both = Mesh(np.vstack([near.vertices, far.vertices]),
                np.vstack([near.faces, far.faces + 4]))
    frame = render_depth(both, RigidPose.identity(), intr)
    cy, cx = intr.height // 2, intr.width // 2
    assert abs(frame.values[cy, cx] - 0.8) < 1e-6


def _render_depth_per_face(mesh, pose, intr):
    """Reference rasterizer: one face at a time, each over its own
    bounding-box meshgrid, z-buffered in place (the per-face loop that
    `render_depth` batches). Its box runs from `floor(min - 0.5)` to
    `ceil(max - 0.5)`, one pixel wider on each side than the pixel centers
    that `render_depth` tries, so matching it byte for byte is the check
    that the tight box loses no pixel."""
    h, w = intr.height, intr.width
    zbuf = np.full((h, w), np.inf)
    verts = pose.apply(mesh.vertices)
    tris = verts[mesh.faces]
    zs = tris[:, :, 2]
    in_front = np.all(zs > synth._Z_NEAR, axis=1)
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    facing = np.einsum("ij,ij->i", normals, tris.mean(axis=1)) < 0.0
    uv = np.empty_like(tris[:, :, :2])
    np.divide(intr.fx * tris[:, :, 0], zs, out=uv[:, :, 0], where=zs > synth._Z_NEAR)
    np.divide(intr.fy * tris[:, :, 1], zs, out=uv[:, :, 1], where=zs > synth._Z_NEAR)
    uv[:, :, 0] += intr.cx
    uv[:, :, 1] += intr.cy
    for f in np.flatnonzero(in_front & facing):
        p = uv[f]
        x0 = max(int(np.floor(p[:, 0].min() - 0.5)), 0)
        x1 = min(int(np.ceil(p[:, 0].max() - 0.5)), w - 1)
        y0 = max(int(np.floor(p[:, 1].min() - 0.5)), 0)
        y1 = min(int(np.ceil(p[:, 1].max() - 0.5)), h - 1)
        if x1 < x0 or y1 < y0:
            continue
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1) + 0.5, np.arange(y0, y1 + 1) + 0.5)
        (ax, ay), (bx, by), (cx_, cy_) = p
        denom = (bx - ax) * (cy_ - ay) - (by - ay) * (cx_ - ax)
        if denom == 0.0:
            continue
        l0 = ((bx - gx) * (cy_ - gy) - (by - gy) * (cx_ - gx)) / denom
        l1 = ((cx_ - gx) * (ay - gy) - (cy_ - gy) * (ax - gx)) / denom
        l2 = 1.0 - l0 - l1
        inside = (l0 >= 0) & (l1 >= 0) & (l2 >= 0)
        inv_z = l0 / zs[f, 0] + l1 / zs[f, 1] + l2 / zs[f, 2]
        z = np.where(inside & (inv_z > 0), 1.0 / np.where(inv_z > 0, inv_z, 1.0), np.inf)
        tile = zbuf[y0:y1 + 1, x0:x1 + 1]
        np.minimum(tile, z, out=tile)
    return np.where(np.isfinite(zbuf), zbuf, 0.0).astype(np.float32)


def _turned(yaw_degrees, distance, pitch_degrees=0.0, shift=(0.0, 0.0)):
    rotvec = np.radians([pitch_degrees, yaw_degrees, 0.0])
    return RigidPose(quat_from_rotvec(rotvec), np.array([shift[0], shift[1], distance]))


def _render_cases(head, intr):
    """(mesh, pose, camera) cases covering far, near, turned and close-up
    views at two image sizes, with and without an expression."""
    vga = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
    rng = np.random.default_rng(5)
    x = np.zeros(head.n)
    x[rng.choice(head.n, 6, replace=False)] = rng.uniform(0.2, 1.0, 6)
    smile = evaluate_mesh(head, x)
    return [
        (head.neutral, frontal_pose(0.5), intr),
        (smile, _turned(12.0, 0.55, -9.0, (0.02, -0.01)), intr),
        (smile, _turned(-15.0, 0.4, 7.0), vga),
        (head.neutral, _turned(80.0, 1.0), intr),
        (head.neutral, frontal_pose(3.0), vga),
        (head.neutral, frontal_pose(0.08), vga),       # faces larger than a chunk
        (_facing_square(z=0.05), RigidPose.identity(), intr),
    ]


def test_render_matches_per_face_reference(head, intr):
    # the 0.05 m square's two faces each span the whole image
    assert intr.width * intr.height > synth._PAIR_CHUNK
    cases = _render_cases(head, intr)
    assert render_depth(*cases[-1]).valid_mask().all()
    for mesh, pose, cam in cases:
        got = render_depth(mesh, pose, cam).values
        want = _render_depth_per_face(mesh, pose, cam)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_render_is_independent_of_pair_chunk(head, intr, monkeypatch):
    cases = [_render_cases(head, intr)[i] for i in (1, 6)]
    default = [render_depth(*case).values.tobytes() for case in cases]
    for chunk in (1, 7):
        monkeypatch.setattr(synth, "_PAIR_CHUNK", chunk)
        assert [render_depth(*case).values.tobytes() for case in cases] == default


# a camera whose pixel coordinates are exact binary fractions at z = 1
_PIN = CameraIntrinsics(fx=256.0, fy=256.0, cx=32.0, cy=24.0, width=64, height=48)


def _pixel_triangle(corners):
    """One camera-facing triangle at z = 1 whose corners `_PIN` projects
    exactly to the given (u, v) pixel coordinates."""
    uv = np.asarray(corners, dtype=float)
    tri = np.column_stack([(uv[:, 0] - _PIN.cx) / _PIN.fx,
                           (uv[:, 1] - _PIN.cy) / _PIN.fy, np.ones(3)])
    if np.cross(tri[1] - tri[0], tri[2] - tri[0]) @ tri.mean(axis=0) > 0:
        tri = tri[::-1].copy()
    return Mesh(tri, np.array([[0, 1, 2]]))


def _edge_cases():
    """Named meshes at the edges of a face's box, drawn at the identity
    pose by `_PIN`."""
    near = synth._Z_NEAR
    behind = Mesh(np.array([[-0.05, -0.05, 1.0], [0.05, -0.05, 1.0],
                            [0.0, 0.05, 1.0], [0.02, 0.03, near / 2],
                            [-0.03, 0.02, 0.0], [0.01, -0.02, -0.5]]),
                  np.array([[0, 2, 1], [0, 3, 1], [1, 2, 4], [2, 0, 5], [3, 4, 5]]))
    return {
        # the box edges fall on half-integers, so its bounds are pinned
        "on_centers": _pixel_triangle([[4.5, 4.5], [40.5, 4.5], [4.5, 30.5]]),
        "sliver": _pixel_triangle([[2.2, 10.3], [60.7, 12.1], [60.7, 12.5]]),
        "sliver_between_rows": _pixel_triangle([[3.1, 20.6], [50.2, 20.9], [50.9, 20.7]]),
        "clipped": _pixel_triangle([[-20.3, -7.7], [30.2, 60.9], [70.4, 10.1]]),
        # corners behind the near plane and at z = 0 draw nothing and
        # project without a RuntimeWarning
        "behind_near_plane": behind,
    }


def test_render_edge_cases_match_per_face_reference():
    cases = _edge_cases()
    depth = {}
    for name, mesh in cases.items():
        depth[name] = render_depth(mesh, RigidPose.identity(), _PIN).values
        want = _render_depth_per_face(mesh, RigidPose.identity(), _PIN)
        assert depth[name].tobytes() == want.tobytes(), name
    # the pixels under the three corners are drawn: both box ends inclusive
    pinned = depth["on_centers"] > 0
    assert pinned[4, 4] and pinned[4, 40] and pinned[30, 4]
    assert not pinned[3, 4] and not pinned[4, 41] and not pinned[31, 4]
    assert depth["sliver"].any() and not depth["sliver_between_rows"].any()
    clipped = depth["clipped"] > 0
    assert clipped[0].any() and clipped[-1].any()
    assert clipped[:, 0].any() and clipped[:, -1].any()
    # only the face with every corner in front of the near plane draws
    alone = Mesh(cases["behind_near_plane"].vertices, np.array([[0, 2, 1]]))
    assert depth["behind_near_plane"].any()
    assert render_depth(alone, RigidPose.identity(), _PIN).values.tobytes() \
        == depth["behind_near_plane"].tobytes()


# ---------------------------------------------------------------------------
# noise

def test_depth_noise_preserves_invalid_pixels(intr):
    frame = render_depth(_facing_square(), RigidPose.identity(), intr)
    noisy = add_depth_noise(frame, 0.005, np.random.default_rng(1))
    np.testing.assert_array_equal(noisy.valid_mask(), frame.valid_mask())
    changed = noisy.values[frame.valid_mask()] != frame.values[frame.valid_mask()]
    assert changed.all()


def test_depth_noise_deterministic_under_seed(intr):
    frame = render_depth(_facing_square(), RigidPose.identity(), intr)
    a = add_depth_noise(frame, 0.002, np.random.default_rng(7))
    b = add_depth_noise(frame, 0.002, np.random.default_rng(7))
    np.testing.assert_array_equal(a.values, b.values)


def _masked_depth_noise(frame, sigma, rng):
    # the formula add_depth_noise replaced: a copy, two boolean gathers
    # and a boolean scatter
    values = np.asarray(frame.values, dtype=np.float64).copy()
    valid = values > 0.0
    noise = rng.normal(0.0, sigma, size=values.shape)
    values[valid] = np.maximum(values[valid] + noise[valid], synth._Z_NEAR)
    return values.astype(np.float32)


@pytest.mark.parametrize("sigma", [1e-5, 0.002, 0.05, 1.0])
@pytest.mark.parametrize("covered", [True, False], ids=["square", "all-invalid"])
def test_depth_noise_matches_masked_formula(intr, sigma, covered):
    # sigma 1.0 drives many pixels of a 1 m square below the near plane,
    # so the clamp is exercised too
    frame = render_depth(_facing_square() if covered else Mesh(np.zeros((0, 3)),
                         np.zeros((0, 3), dtype=int)), RigidPose.identity(), intr)
    frame = DepthFrame(frame.values, frame_index=3, timestamp=0.1)
    noisy = add_depth_noise(frame, sigma, np.random.default_rng(11))
    expected = _masked_depth_noise(frame, sigma, np.random.default_rng(11))
    assert noisy.values.dtype == expected.dtype
    assert noisy.values.tobytes() == expected.tobytes()
    assert (noisy.frame_index, noisy.timestamp) == (3, 0.1)
    invalid = ~frame.valid_mask()
    assert invalid.any()
    assert np.all(noisy.values[invalid] == 0.0)
    assert not np.signbit(noisy.values[invalid]).any()


def test_zero_depth_noise_returns_the_frame(intr):
    frame = render_depth(_facing_square(), RigidPose.identity(), intr)
    assert add_depth_noise(frame, 0.0, np.random.default_rng(0)) is frame


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(depth_sigma=-0.001)
    with pytest.raises(ValueError):
        NoiseConfig(landmark_dropout=1.5)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_noise_config_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match=rf"noise seed must be a non-negative integer, got {seed}"):
        NoiseConfig(seed=seed)


# ---------------------------------------------------------------------------
# landmark projection

def test_landmarks_exact_without_noise(head, head_landmark_ids, intr):
    from blendfit import project
    mesh = evaluate_mesh(head, np.zeros(head.n))
    pose = frontal_pose()
    lms = project_landmarks(mesh, pose, intr, head_landmark_ids,
                            NoiseConfig(), np.random.default_rng(0))
    assert len(lms) == len(head_landmark_ids)
    for lid, vj in head_landmark_ids:
        j = lms.ids.index(lid)
        np.testing.assert_allclose(lms.pixels[j],
                                   project(intr, pose.apply(mesh.vertices[vj])),
                                   atol=1e-9)


def test_landmark_dropout_one_empties_the_set(head, head_landmark_ids, intr):
    mesh = evaluate_mesh(head, np.zeros(head.n))
    lms = project_landmarks(mesh, frontal_pose(), intr, head_landmark_ids,
                            NoiseConfig(landmark_dropout=1.0),
                            np.random.default_rng(0))
    assert len(lms) == 0


def test_landmarks_deterministic_under_seed(head, head_landmark_ids, intr):
    mesh = evaluate_mesh(head, np.zeros(head.n))
    noise = NoiseConfig(landmark_sigma=1.5, landmark_dropout=0.2, seed=3)
    a = project_landmarks(mesh, frontal_pose(), intr, head_landmark_ids, noise,
                          np.random.default_rng(3))
    b = project_landmarks(mesh, frontal_pose(), intr, head_landmark_ids, noise,
                          np.random.default_rng(3))
    assert a.ids == b.ids
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_behind_camera_landmark_is_dropped(intr):
    mesh = Mesh(np.array([[0.0, 0.0, 1.0], [0.02, 0.0, 1.0], [0.0, 0.02, -0.5]]),
                np.array([[0, 1, 2]]))
    lms = project_landmarks(mesh, RigidPose.identity(), intr,
                            [("front", 0), ("behind", 2)], NoiseConfig(),
                            np.random.default_rng(0))
    assert lms.ids == ("front",)


# ---------------------------------------------------------------------------
# scripts and sequences

def test_constant_script_timestamps_increase(head):
    script = constant_script(np.zeros(head.n), frontal_pose(), 5)
    ts = [f.timestamp for f in script.frames]
    assert all(b > a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), float("-inf")])
def test_script_frame_rejects_non_finite_timestamp(head, timestamp):
    with pytest.raises(ValueError, match=rf"timestamp {timestamp!r} is not finite"):
        ScriptFrame(np.zeros(head.n), frontal_pose(), timestamp)


def test_script_rejects_non_increasing_timestamps(head):
    frames = (ScriptFrame(np.zeros(head.n), frontal_pose(), 0.1),
              ScriptFrame(np.zeros(head.n), frontal_pose(), 0.1))
    with pytest.raises(ValueError):
        SequenceScript(frames)


def test_all_zero_script_renders_neutral(head, head_landmark_ids, intr):
    gen = generate_sequence(head, constant_script(np.zeros(head.n), frontal_pose(), 2),
                            intr, head_landmark_ids, NoiseConfig())
    neutral = render_depth(evaluate_mesh(head, np.zeros(head.n)),
                           frontal_pose(), intr)
    for frame in gen.frames:
        np.testing.assert_array_equal(frame.values, neutral.values)
    np.testing.assert_array_equal(gen.ground_truth.coefficient_matrix(),
                                  np.zeros((2, head.n)))


def test_generation_is_bit_reproducible(head, head_landmark_ids, intr):
    rng = np.random.default_rng(11)
    script = constant_script(rng.uniform(0, 1, head.n), frontal_pose(), 3)
    noise = NoiseConfig(depth_sigma=0.002, landmark_sigma=1.0,
                        landmark_dropout=0.1, seed=42)
    a = generate_sequence(head, script, intr, head_landmark_ids, noise)
    b = generate_sequence(head, script, intr, head_landmark_ids, noise)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.values, fb.values)
    for la, lb in zip(a.landmarks, b.landmarks):
        assert la.ids == lb.ids
        np.testing.assert_array_equal(la.pixels, lb.pixels)


def test_empty_script_rejected(head, head_landmark_ids, intr):
    with pytest.raises(ValueError):
        generate_sequence(head, SequenceScript(()), intr, head_landmark_ids)


# ---------------------------------------------------------------------------
# procedural test head

def test_test_head_shape_and_determinism():
    # the cached head against a fresh build
    a = make_test_head()
    b = make_test_head.__wrapped__()
    assert a is make_test_head() and b is not a
    assert a.n == 51
    assert 1500 <= a.vertex_count <= 3000
    np.testing.assert_array_equal(a.neutral.vertices, b.neutral.vertices)
    np.testing.assert_array_equal(a.basis, b.basis)
    assert a.names == b.names

    # the vertices sample a (u, v) grid row by row; every grid quad
    # (a, b, c, d) with all four corners present becomes the triangles
    # (c, b, a) and (d, c, a), quads in row-major order, wound so that
    # every vertex normal points toward the camera (-z)
    verts = a.neutral.vertices
    _, i = np.unique(verts[:, 0], return_inverse=True)
    _, j = np.unique(verts[:, 1], return_inverse=True)
    index = -np.ones((i.max() + 1, j.max() + 1), dtype=np.int64)
    index[i, j] = np.arange(len(verts))
    assert np.all(np.diff(index[index >= 0]) == 1)
    faces = []
    for r in range(index.shape[0] - 1):
        for c in range(index.shape[1] - 1):
            q0, q1, q2, q3 = index[r, c], index[r + 1, c], index[r + 1, c + 1], index[r, c + 1]
            if min(q0, q1, q2, q3) >= 0:
                faces += [(q2, q1, q0), (q3, q2, q0)]
    np.testing.assert_array_equal(a.neutral.faces, np.array(faces))
    np.testing.assert_array_equal(b.neutral.faces, a.neutral.faces)
    assert (vertex_normals(a.neutral)[:, 2] < 0).all()


def test_default_landmarks_are_pinned(head):
    # farthest-point picks over the neutral vertices; a change to the
    # distance arithmetic that changed a single pick would show here
    picks = [1728, 666, 11, 1999, 1040, 475, 269, 1276, 853, 1794, 1646, 366, 2017,
             1215, 216, 148, 0, 1661, 673, 782, 1448, 2025, 1776, 1168, 1259, 99, 710,
             1097, 1437, 1839, 448, 1282, 183, 172, 507, 1897, 1601, 387, 88, 742]
    assert synth.default_landmarks(head, 40, 0) == [
        (f"lm{i:02d}", v) for i, v in enumerate(picks)]


def _with_vertices(model, verts):
    return BlendshapeModel(Mesh(verts, model.neutral.faces), model.basis, model.names)


def _spread_picks(verts, count, seed):
    picks = synth._spread_sample(verts, count, np.random.default_rng(seed))
    return [(f"lm{i:02d}", int(v)) for i, v in enumerate(picks)]


def test_default_landmarks_returns_a_new_list(head):
    first = synth.default_landmarks(head, 40, 0)
    expected = list(first)
    first[0] = ("moved", 1)
    first.append(("extra", 2))
    second = synth.default_landmarks(head, 40, 0)
    assert second == expected
    assert second is not synth.default_landmarks(head, 40, 0)


def test_default_landmarks_follow_the_neutral_vertices(head):
    # same vertex count and faces, other positions: other picks
    verts = head.neutral.vertices[::-1].copy()
    moved = _with_vertices(head, verts)
    picks = synth.default_landmarks(moved, 40, 0)
    assert picks == _spread_picks(verts, 40, 0)
    assert picks != synth.default_landmarks(head, 40, 0)


@pytest.mark.parametrize("trial", range(6))
def test_default_landmarks_equal_spread_sample(trial):
    rng = np.random.default_rng(100 + trial)
    model = random_model(rng, side=6, n=2)
    model = _with_vertices(model, rng.normal(size=(model.vertex_count, 3)))
    for count, seed in [(1, 0), (5, trial), (20, 7), (36, 0)]:
        for _ in range(2):      # a computed call, then a remembered one
            assert synth.default_landmarks(model, count, seed) == \
                _spread_picks(model.neutral.vertices, count, seed)


def test_cached_test_head_is_read_only():
    head = make_test_head()
    for arr in (head.neutral.vertices, head.neutral.faces, head.basis,
                head._vertex_basis):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        head.basis = np.zeros_like(head.basis)


def test_frontal_pose_distance():
    pose = frontal_pose(0.62)
    np.testing.assert_allclose(pose.translation, [0.0, 0.0, 0.62], atol=1e-15)
