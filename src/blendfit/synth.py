"""Synthetic data generation with known ground truth.

Everything downstream (rigid alignment, the coefficient solver, rig
personalization) is validated against data produced here, so the
conventions are pinned down once:

* pixel (i, j) is sampled at its center (i + 0.5, j + 0.5), top-left origin;
* rasterization is perspective-correct (screen-space barycentrics with
  1/z interpolation) into a nearest-wins z-buffer. Each vertex is
  projected to the image once; a face's candidates are the pixel centers
  inside the range of its corners, and all (face, pixel) candidate pairs
  are evaluated as one batched edge-function pass in chunks of bounded
  size; the z-buffer minimum does not depend on the order faces are
  drawn, so the depth map does not depend on the chunking;
* only camera-facing triangles are drawn (back-face culling), mimicking
  what a depth sensor sees;
* uncovered pixels keep the invalid marker 0.0;
* all randomness flows from a single integer seed, and per-frame noise
  streams are derived as (seed, frame_index) so frame renders can run in
  any order and still produce bit-identical output.

The test head is procedural: a low-poly face-like shell (elliptic dome
with nose, brow, and chin features) with 51 localized smooth bump
blendshapes. It ships as a generator, not a binary asset.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .correspondence import DepthFrame, LandmarkSet
from .geometry import (
    BlendshapeModel,
    BscSequence,
    CameraIntrinsics,
    Mesh,
    RigidPose,
    SequenceFrame,
    evaluate_mesh,
    validate_bsc,
    vertex_normals,
)

log = logging.getLogger(__name__)

_Z_NEAR = 1e-6
_PAIR_CHUNK = 1 << 12       # (face, pixel) candidate pairs per rasterizer pass
_HEAD_GRID = 52             # samples per side of the test head's parameter grid
_HEAD_BLENDSHAPES = 51
_HEAD_SEED = 0


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor noise model for synthetic captures."""

    depth_sigma: float = 0.0       # meters
    landmark_sigma: float = 0.0    # pixels
    landmark_dropout: float = 0.0  # probability per landmark
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 <= s < math.inf for s in (self.depth_sigma, self.landmark_sigma)):
            raise ValueError("noise sigmas must be finite and >= 0")
        if not 0.0 <= self.landmark_dropout <= 1.0:
            raise ValueError("dropout must be a probability")


@dataclass(frozen=True)
class ScriptFrame:
    coefficients: np.ndarray
    pose: RigidPose
    timestamp: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients", validate_bsc(self.coefficients))


@dataclass(frozen=True)
class SequenceScript:
    """Ground-truth expression script: per-frame coefficients and pose."""

    frames: tuple

    def __post_init__(self):
        frames = tuple(self.frames)
        ts = [f.timestamp for f in frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("script timestamps must be strictly increasing")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)


def constant_script(x, pose: RigidPose, count: int, fps: float = 30.0) -> SequenceScript:
    """Script that holds one expression and pose for `count` frames."""
    x = np.asarray(x, dtype=np.float64)
    return SequenceScript(tuple(
        ScriptFrame(x, pose, i / fps) for i in range(count)))


def render_depth(mesh: Mesh, pose: RigidPose, intr: CameraIntrinsics) -> DepthFrame:
    """Software z-buffer rasterization of the posed mesh into a depth frame.

    One batched edge-function pass (Pineda 1988) over every drawable face.
    The vertices are projected to pixel coordinates once each and gathered
    per face corner. A face's candidate pixels are the pixel centers inside
    its corner range, `ceil(min - 0.5)` to `floor(max - 0.5)` on each axis,
    clipped to the image; they are expanded into (face, pixel) pairs, the
    barycentrics and perspective-correct depth of all pairs are evaluated
    element-wise, and the covered pairs are written with an
    order-independent `np.minimum.at` into the z-buffer. Faces with a
    corner at or behind the near plane, back faces, faces off screen,
    faces that contain no pixel center and faces of zero screen area draw
    nothing. Pairs are processed in chunks of at most `_PAIR_CHUNK`, a
    face whose box alone is larger forming its own chunk, so transient
    memory stays bounded for close-up poses.
    """
    h, w = intr.height, intr.width
    if mesh.face_count == 0 or mesh.vertex_count == 0:
        return DepthFrame(np.zeros((h, w), dtype=np.float32))
    ax, ay, bx, by, cx_, cy_, z0, z1, z2 = _screen_triangles(mesh, pose, intr)

    # the pixel centers inside each face's corner range, clipped to the image
    x0 = np.clip(np.ceil(np.minimum(np.minimum(ax, bx), cx_) - 0.5), 0, w).astype(np.int64)
    x1 = np.clip(np.floor(np.maximum(np.maximum(ax, bx), cx_) - 0.5), -1, w - 1).astype(np.int64)
    y0 = np.clip(np.ceil(np.minimum(np.minimum(ay, by), cy_) - 0.5), 0, h).astype(np.int64)
    y1 = np.clip(np.floor(np.maximum(np.maximum(ay, by), cy_) - 0.5), -1, h - 1).astype(np.int64)
    box_w = x1 - x0 + 1
    box_h = y1 - y0 + 1
    denom = (bx - ax) * (cy_ - ay) - (by - ay) * (cx_ - ax)
    keep = (box_w > 0) & (box_h > 0) & (denom != 0.0)

    counts = box_w[keep] * box_h[keep]
    ends = np.cumsum(counts)
    # per-face columns, repeated once per candidate pair of each chunk
    ints = np.stack([x0[keep], y0[keep], box_w[keep], ends - counts])
    floats = np.stack([ax, ay, bx, by, cx_, cy_, denom, z0, z1, z2])[:, keep]

    zbuf = np.full(h * w, np.inf)
    start = 0
    while start < len(counts):
        first = ends[start] - counts[start]
        stop = max(int(np.searchsorted(ends, first + _PAIR_CHUNK, side="right")), start + 1)
        n = counts[start:stop]
        x0, y0, box_w, offset = np.repeat(ints[:, start:stop], n, axis=1)
        ax, ay, bx, by, cx_, cy_, denom, z0, z1, z2 = np.repeat(floats[:, start:stop], n, axis=1)
        row, col = np.divmod(np.arange(first, ends[stop - 1]) - offset, box_w)
        px = x0 + col
        py = y0 + row
        gx = px + 0.5
        gy = py + 0.5
        l0 = ((bx - gx) * (cy_ - gy) - (by - gy) * (cx_ - gx)) / denom
        l1 = ((cx_ - gx) * (ay - gy) - (cy_ - gy) * (ax - gx)) / denom
        l2 = 1.0 - l0 - l1
        inv_z = l0 / z0 + l1 / z1 + l2 / z2
        hit = (l0 >= 0) & (l1 >= 0) & (l2 >= 0) & (inv_z > 0)
        np.minimum.at(zbuf, py[hit] * w + px[hit], 1.0 / inv_z[hit])
        start = stop

    depth = np.where(np.isfinite(zbuf), zbuf, 0.0).reshape(h, w)
    return DepthFrame(depth.astype(np.float32))


def _screen_triangles(mesh: Mesh, pose: RigidPose, intr: CameraIntrinsics) -> tuple:
    """Corner columns `(ax, ay, bx, by, cx, cy, z0, z1, z2)`, each (D,), of
    the faces that can draw (in front of the near plane and facing the
    camera): the pixel coordinates of the three corners, then their camera
    depths."""
    x, y, z = pose.apply(mesh.vertices).T
    near = z > _Z_NEAR
    # a vertex at or behind the near plane projects to junk, which only
    # faces that never draw read
    safe_z = np.where(near, z, 1.0)
    u = intr.fx * x / safe_z + intr.cx
    v = intr.fy * y / safe_z + intr.cy
    i, j, k = mesh.faces.T
    xi, xj, xk = x[i], x[j], x[k]
    yi, yj, yk = y[i], y[j], y[k]
    zi, zj, zk = z[i], z[j], z[k]
    e1x, e1y, e1z = xj - xi, yj - yi, zj - zi
    e2x, e2y, e2z = xk - xi, yk - yi, zk - zi
    # the face normal e1 x e2 against the centroid, rounded as `np.cross`
    # and `np.einsum` round them (einsum adds a row of three as
    # (first + third) + second)
    facing = ((e1y * e2z - e1z * e2y) * ((xi + xj + xk) / 3.0)
              + (e1x * e2y - e1y * e2x) * ((zi + zj + zk) / 3.0)
              + (e1z * e2x - e1x * e2z) * ((yi + yj + yk) / 3.0)) < 0.0
    drawable = np.flatnonzero(near[i] & near[j] & near[k] & facing)
    i, j, k = i[drawable], j[drawable], k[drawable]
    return u[i], v[i], u[j], v[j], u[k], v[k], z[i], z[j], z[k]


def add_depth_noise(frame: DepthFrame, sigma: float, rng: np.random.Generator) -> DepthFrame:
    """Gaussian depth noise on valid pixels only; invalid pixels stay 0."""
    if sigma == 0.0:
        return frame
    values = np.asarray(frame.values, dtype=np.float64).copy()
    valid = values > 0.0
    noise = rng.normal(0.0, sigma, size=values.shape)
    values[valid] = np.maximum(values[valid] + noise[valid], _Z_NEAR)
    return DepthFrame(values.astype(np.float32),
                      frame_index=frame.frame_index, timestamp=frame.timestamp)


def project_landmarks(mesh: Mesh, pose: RigidPose, intr: CameraIntrinsics, ids,
                      noise: NoiseConfig | None = None,
                      rng: np.random.Generator | None = None) -> LandmarkSet:
    """Project the listed (landmark_id, vertex_index) pairs into the image.

    Gaussian pixel noise and dropout are applied per the noise config.
    Landmarks behind the camera or outside the image after noise are
    dropped. Deterministic for a fixed seed; pass `rng` to share a stream
    across frames.
    """
    noise = noise or NoiseConfig()
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    ids = list(ids)

    kept_ids, kept_idx, kept_px = [], [], []
    dropped_behind = 0
    verts = pose.apply(mesh.vertices)
    for name, vi in ids:
        vi = int(vi)
        p = verts[vi]
        # draw the per-landmark randomness unconditionally so dropping a
        # landmark does not shift the stream of the remaining ones
        jitter = rng.normal(0.0, 1.0, size=2)
        drop_draw = rng.uniform()
        if p[2] <= _Z_NEAR:
            dropped_behind += 1
            continue
        if drop_draw < noise.landmark_dropout:
            continue
        u = intr.fx * p[0] / p[2] + intr.cx + noise.landmark_sigma * jitter[0]
        v = intr.fy * p[1] / p[2] + intr.cy + noise.landmark_sigma * jitter[1]
        if not (0 <= u < intr.width and 0 <= v < intr.height):
            continue
        kept_ids.append(str(name))
        kept_idx.append(vi)
        kept_px.append((u, v))
    if dropped_behind:
        log.debug("dropped %d landmarks behind the camera", dropped_behind)

    if not kept_ids:
        return LandmarkSet.empty()
    return LandmarkSet(tuple(kept_ids), np.array(kept_idx, dtype=np.int64),
                       np.array(kept_px), np.ones(len(kept_ids)),
                       image_size=(intr.width, intr.height))


@dataclass(frozen=True)
class GeneratedSequence:
    frames: tuple
    landmarks: tuple
    ground_truth: BscSequence


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    # derived stream: deterministic regardless of render order
    return np.random.default_rng([seed, frame_index])


def generate_frame(model: BlendshapeModel, script_frame: ScriptFrame,
                   intr: CameraIntrinsics, ids, noise: NoiseConfig,
                   frame_index: int) -> tuple[DepthFrame, LandmarkSet]:
    """Render one script frame with its derived noise stream."""
    mesh = evaluate_mesh(model, script_frame.coefficients)
    frame = render_depth(mesh, script_frame.pose, intr)
    frame = DepthFrame(frame.values, frame_index=frame_index,
                       timestamp=script_frame.timestamp)
    rng = _frame_rng(noise.seed, frame_index)
    frame = add_depth_noise(frame, noise.depth_sigma, rng)
    lms = project_landmarks(mesh, script_frame.pose, intr, ids, noise, rng)
    return frame, lms


def generate_sequence(model: BlendshapeModel, script: SequenceScript,
                      intr: CameraIntrinsics, ids,
                      noise: NoiseConfig | None = None) -> GeneratedSequence:
    """Render a whole script: depth frames, landmark sets, and ground truth."""
    if len(script) == 0:
        raise ValueError("script is empty")
    noise = noise or NoiseConfig()
    ids = list(ids)

    frames, lm_sets, gt = [], [], []
    for i, sf in enumerate(script.frames):
        frame, lms = generate_frame(model, sf, intr, ids, noise, i)
        frames.append(frame)
        lm_sets.append(lms)
        gt.append(SequenceFrame(i, sf.timestamp, sf.pose, sf.coefficients))
    truth = BscSequence(model.names, tuple(gt))
    return GeneratedSequence(tuple(frames), tuple(lm_sets), truth)


# ---------------------------------------------------------------------------
# procedural test head

@functools.cache
def make_test_head() -> BlendshapeModel:
    """Procedural face-like blendshape model (2032 vertices, 51 shapes).

    The base mesh is the camera-facing half of an elliptic dome with a
    nose, brow ridge, and chin so the surface constrains all six rigid
    degrees of freedom. Each blendshape is a localized smooth bump along
    the local surface normal, centers spread over the face interior.
    The head is built once per process: every call returns the same
    immutable model, whose arrays are read-only.
    """
    half_w, half_h = 0.08, 0.11   # face half-extent, meters
    us = np.linspace(-1.0, 1.0, _HEAD_GRID)
    vs = np.linspace(-1.0, 1.0, _HEAD_GRID)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    rr = uu ** 2 + vv ** 2
    inside = rr <= 1.0

    index = -np.ones((_HEAD_GRID, _HEAD_GRID), dtype=np.int64)
    index[inside] = np.arange(int(inside.sum()))

    x = uu * half_w
    y = vv * half_h
    # dome toward the camera (-z), plus face features
    dome = 0.05 * np.sqrt(np.clip(1.0 - rr, 0.0, None))
    nose = 0.022 * np.exp(-((uu / 0.16) ** 2 + ((vv - 0.05) / 0.28) ** 2))
    brow = 0.010 * np.exp(-((uu / 0.55) ** 2 + ((vv + 0.38) / 0.12) ** 2))
    chin = 0.012 * np.exp(-((uu / 0.22) ** 2 + ((vv - 0.72) / 0.16) ** 2))
    cheek_l = 0.008 * np.exp(-(((uu + 0.45) / 0.18) ** 2 + ((vv - 0.12) / 0.2) ** 2))
    cheek_r = 0.008 * np.exp(-(((uu - 0.45) / 0.18) ** 2 + ((vv - 0.12) / 0.2) ** 2))
    z = -(dome + nose + brow + chin + cheek_l + cheek_r)

    verts = np.stack([x[inside], y[inside], z[inside]], axis=1)

    # split each grid quad (a, b, c, d) with all corners inside into the
    # triangles (a, b, c) and (a, c, d), quads in row-major order
    quads = np.stack([index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]],
                     axis=-1).reshape(-1, 4)
    quads = quads[np.all(quads >= 0, axis=1)]
    faces = np.stack([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]], axis=1).reshape(-1, 3)
    mesh = Mesh(verts, faces)

    # orient faces so vertex normals point toward the camera (-z)
    normals = vertex_normals(mesh)
    if np.median(normals[:, 2]) > 0:
        mesh = Mesh(verts, mesh.faces[:, ::-1])
        normals = vertex_normals(mesh)

    rng = np.random.default_rng(_HEAD_SEED)
    param_r = np.sqrt(rr[inside])
    candidates = np.flatnonzero(param_r <= 0.78)
    centers = _spread_sample(verts[candidates], _HEAD_BLENDSHAPES, rng)
    centers = candidates[centers]

    # sigma sets the bump footprint; it must stay well below the center
    # spacing (~2 cm for 51 shapes) or neighboring blendshapes become
    # too correlated for sparse recovery, and the flank slope amp/sigma
    # must stay shallow enough to survive the view-incidence gate
    sigma = 0.01
    basis = np.zeros((_HEAD_BLENDSHAPES, len(verts), 3))
    for k, ci in enumerate(centers):
        amp = rng.uniform(0.012, 0.022)
        d2 = np.sum((verts - verts[ci]) ** 2, axis=1)
        weight = np.exp(-d2 / (2.0 * sigma * sigma))
        weight[weight < 1e-4] = 0.0
        basis[k] = (amp * weight)[:, None] * normals[ci]

    names = tuple(f"bump{k:02d}" for k in range(_HEAD_BLENDSHAPES))
    return BlendshapeModel(mesh, basis, names)


def _spread_sample(points: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy farthest-point sampling; first pick seeded from rng."""
    if count > len(points):
        raise ValueError("fewer candidate points than requested samples")
    px, py, pz = np.asarray(points, dtype=np.float64).T.copy()

    def distance_to(i):
        # np.linalg.norm(points - points[i], axis=1), summed in its order
        dx, dy, dz = px - px[i], py - py[i], pz - pz[i]
        return np.sqrt(dx * dx + dy * dy + dz * dz)

    first = int(rng.integers(len(points)))
    chosen = [first]
    dist = distance_to(first)
    for _ in range(count - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, distance_to(nxt))
    return np.array(chosen, dtype=np.int64)


def default_landmarks(model: BlendshapeModel, count: int = 40,
                      seed: int = 0) -> list:
    """Deterministic (landmark_id, vertex_index) pairs spread over the face."""
    rng = np.random.default_rng(seed)
    verts = model.neutral.vertices
    picks = _spread_sample(verts, count, rng)
    return [(f"lm{i:02d}", int(v)) for i, v in enumerate(picks)]


def frontal_pose(distance: float = 0.5) -> RigidPose:
    """Head facing the camera at the given distance along +z."""
    return RigidPose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, distance]))
