"""Depth-map correspondences, landmark sets and the projection Jacobian.

Association is projective: a camera-frame vertex is projected into the
depth image, the depth under it is read, and the backprojected pixel
center becomes the correspondence target. The target normal is estimated
by central differences of the backprojected 4-neighborhood (cross product
of the u- and v-direction tangents), oriented toward the camera.

Two robustness gates reject unusable matches: a point-distance gate at
the caller's `max_distance`, and a view-incidence gate that drops targets
whose normal is more than 60 degrees (`_MAX_NORMAL_ANGLE`) away from the
direction back to the camera (grazing surfaces, where depth-map normals
are unreliable). Normals are differenced 1 pixel (`_DEPTH_WINDOW`) either
side of the matched pixel. Both are fixed, as are the rejection
thresholds of each ICP variant in Rusinkiewicz & Levoy 2001, "Efficient
Variants of the ICP Algorithm".

A depth value of exactly 0 marks an invalid pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BehindCameraError,
    CameraIntrinsics,
    _readonly,
)

_MAX_NORMAL_ANGLE = 60.0    # degrees, view-incidence limit
_DEPTH_WINDOW = 1           # pixel offset for normal estimation


@dataclass(frozen=True)
class DepthFrame:
    """Metric depth image, row-major (height, width), 0.0 = invalid pixel."""

    values: np.ndarray
    frame_index: int = 0
    timestamp: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 2:
            raise ValueError(f"depth values must be 2-D, got shape {v.shape}")
        if v.size == 0:
            raise ValueError(f"depth image is empty (shape {v.shape})")
        if not np.all(np.isfinite(v)) or v.min() < 0.0:
            raise ValueError("depth values must be finite and >= 0")
        if not math.isfinite(self.timestamp):
            raise ValueError(f"timestamp {self.timestamp!r} is not finite")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def valid_mask(self) -> np.ndarray:
        return self.values > 0.0


@dataclass(frozen=True)
class CorrespondenceSet:
    """Batch of depth correspondences as parallel arrays.

    vertex_indices (M,) int, points (M, 3), normals (M, 3): vertex
    vertex_indices[i] is matched to the plane through points[i] with
    unit normal normals[i].
    """

    vertex_indices: np.ndarray
    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.vertex_indices, dtype=np.int64).reshape(-1)
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        nrm = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
        if not (len(idx) == len(pts) == len(nrm)):
            raise ValueError("correspondence arrays must have equal length")
        object.__setattr__(self, "vertex_indices", _readonly(idx))
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "normals", _readonly(nrm))

    @classmethod
    def _of_arrays(cls, idx, pts, nrm) -> "CorrespondenceSet":
        """The set of arrays the caller made itself, of the right dtypes,
        shapes and lengths: (M,) int64 and two C-contiguous (M, 3)
        float64; they are marked read-only in place, unchecked."""
        c = object.__new__(cls)
        for name, a in (("vertex_indices", idx), ("points", pts), ("normals", nrm)):
            a.flags.writeable = False
            object.__setattr__(c, name, a)
        return c

    def __len__(self) -> int:
        return len(self.vertex_indices)

    def residuals(self, vertices) -> np.ndarray:
        """Signed point-to-plane distances n . (v - p) of the matched rows
        of `vertices` (V, 3), meters; one per correspondence."""
        v = vertices[self.vertex_indices]
        return np.einsum("ij,ij->i", self.normals, v - self.points)


def find_correspondences(vertices_cam, frame: DepthFrame, intr: CameraIntrinsics,
                         max_distance: float) -> CorrespondenceSet:
    """Vectorized projective association for a batch of camera-frame vertices.

    For each vertex: project to a pixel, read the depth there, estimate
    the surface normal from the backprojected 4-neighborhood, and take as
    target the intersection of the vertex's own view ray with the tangent
    plane at the backprojected pixel center. The ray cast removes the
    half-pixel tangential quantization a raw pixel-center point carries,
    and is exact on locally planar surfaces. Distance (`max_distance`,
    meters) and incidence gates apply last; vertices that fail any step
    are simply absent from the result. Raises ValueError unless
    `max_distance` is positive.

    The search runs on x, y, z columns and compacts the batch twice: to
    the vertices in front of the camera whose normal window lies inside
    the image, then to those whose five depth samples are all valid, so
    the later steps run on the survivors alone. The gates, thresholds and
    grazing-ray fallback act as if every vertex went through every step.
    """
    # written so that NaN fails
    if not max_distance > 0:
        raise ValueError(f"max_distance must be positive, got {max_distance!r}")
    verts = np.asarray(vertices_cam, dtype=np.float64).reshape(-1, 3)
    fx, fy, cx, cy = intr.fx, intr.fy, intr.cx, intr.cy

    depth = frame.values        # float32; only the samples read are widened
    h, w = depth.shape
    win = _DEPTH_WINDOW

    vx, vy, vz = verts.T
    front = vz > 0.0
    z = np.where(front, vz, 1.0)
    u = fx * vx / z + cx
    v = fy * vy / z + cy
    ix = np.floor(u).astype(np.int64)
    iy = np.floor(v).astype(np.int64)
    # the normal window must also be inside the image
    idx = np.flatnonzero(front & (ix >= win) & (ix < w - win) & (iy >= win) & (iy < h - win))
    ix, iy = ix[idx], iy[idx]

    # the pixel and its four neighbours, as offsets into the flat image
    at = iy * w + ix
    samples = depth.ravel()[at + np.array([0, win, -win, w * win, -w * win])[:, None]]
    live = np.flatnonzero((samples > 0).all(axis=0))
    idx, ix, iy = idx[live], ix[live], iy[live]
    d = samples[:, live].astype(np.float64)

    # the five samples backprojected at their pixel centers, as one
    # (5, k) block per coordinate: the anchor, and the u- and v-tangents
    # between the neighbours either side of it
    px = (ix + np.array([0, win, -win, 0, 0])[:, None]) + 0.5 - cx
    py = (iy + np.array([0, 0, 0, win, -win])[:, None]) + 0.5 - cy
    bx, by = px * d / fx, py * d / fy
    ax, ay, az = bx[0], by[0], d[0]
    tux, tuy, tuz = bx[1] - bx[2], by[1] - by[2], d[1] - d[2]
    tvx, tvy, tvz = bx[3] - bx[4], by[3] - by[4], d[3] - d[4]
    nx = tuy * tvz - tuz * tvy
    ny = tuz * tvx - tux * tvz
    nz = tux * tvy - tuy * tvx
    nlen = np.sqrt(nx * nx + ny * ny + nz * nz)
    keep = nlen > 0
    nlen = np.where(keep, nlen, 1.0)
    nx, ny, nz = nx / nlen, ny / nlen, nz / nlen

    # orient toward the camera: afterwards n . anchor = -|n . anchor|
    n_dot_anchor = nx * ax + ny * ay + nz * az
    sign = np.where(n_dot_anchor > 0, -1.0, 1.0)
    nx, ny, nz = sign * nx, sign * ny, sign * nz
    n_dot_anchor = -np.abs(n_dot_anchor)

    # cast the vertex's view ray (rx, ry, 1) onto the tangent plane at the
    # anchor; keep the anchor itself when the ray grazes the plane
    rx = (u[idx] - cx) / fx
    ry = (v[idx] - cy) / fy
    n_dot_ray = nx * rx + ny * ry + nz
    grazing = np.abs(n_dot_ray) < 1e-6
    t = n_dot_anchor / np.where(grazing, 1.0, n_dot_ray)
    cast = ~grazing & (t > 0.0)
    tx = np.where(cast, t * rx, ax)
    ty = np.where(cast, t * ry, ay)
    tz = np.where(cast, t, az)

    # distance gate
    dx, dy, dz = vx[idx] - tx, vy[idx] - ty, vz[idx] - tz
    keep &= np.sqrt(dx * dx + dy * dy + dz * dz) <= max_distance

    # view-incidence gate: angle between the normal and the ray back to
    # the camera
    tlen = np.sqrt(tx * tx + ty * ty + tz * tz)
    keep &= tlen > 0
    tlen = np.where(tlen > 0, tlen, 1.0)
    cos_inc = nx * (-tx / tlen) + ny * (-ty / tlen) + nz * (-tz / tlen)
    keep &= cos_inc >= np.cos(np.deg2rad(_MAX_NORMAL_ANGLE))

    sel = np.flatnonzero(keep)
    return CorrespondenceSet._of_arrays(idx[sel], np.column_stack((tx[sel], ty[sel], tz[sel])),
                                        np.column_stack((nx[sel], ny[sel], nz[sel])))


def landmark_jacobian(v_cam, intr: CameraIntrinsics) -> np.ndarray:
    """Analytic Jacobian of the pinhole projection at camera-frame point(s).

    Accepts (3,) or (..., 3); returns (2, 3) or (..., 2, 3). Raises
    BehindCameraError if any point has z <= 0.
    """
    p = np.asarray(v_cam, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if np.any(z <= 0.0):
        raise BehindCameraError("cannot linearize projection behind the camera")
    jac = np.zeros(p.shape[:-1] + (2, 3))
    jac[..., 0, 0] = intr.fx / z
    jac[..., 0, 2] = -intr.fx * x / (z * z)
    jac[..., 1, 1] = intr.fy / z
    jac[..., 1, 2] = -intr.fy * y / (z * z)
    return jac


@dataclass(frozen=True)
class LandmarkSet:
    """2D facial landmarks bound to mesh vertices.

    Parallel arrays: ids (M,), vertex_indices (M,), pixels (M, 2),
    confidences (M,) in [0, 1].
    """

    ids: tuple
    vertex_indices: np.ndarray
    pixels: np.ndarray
    confidences: np.ndarray = field(default=None)
    image_size: tuple = field(default=None)

    def __post_init__(self):
        ids = tuple(str(s) for s in self.ids)
        idx = np.asarray(self.vertex_indices, dtype=np.int64).reshape(-1)
        px = np.asarray(self.pixels, dtype=np.float64).reshape(-1, 2)
        conf = self.confidences
        if conf is None:
            conf = np.ones(len(ids))
        conf = np.asarray(conf, dtype=np.float64).reshape(-1)
        if not (len(ids) == len(idx) == len(px) == len(conf)):
            raise ValueError("landmark arrays must have equal length")
        # written so that NaN fails
        if len(conf) and not (conf.min() >= 0 and conf.max() <= 1):
            raise ValueError("confidences must be in [0, 1]")
        if not np.isfinite(px).all():
            raise ValueError("landmark pixels must be finite")
        if len(idx) and idx.min() < 0:
            raise ValueError(f"landmark vertex index {int(idx.min())} is negative")
        if self.image_size is not None and len(px):
            w, h = self.image_size
            if px[:, 0].min() < 0 or px[:, 0].max() >= w or \
               px[:, 1].min() < 0 or px[:, 1].max() >= h:
                raise ValueError("landmark pixels outside image bounds")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "vertex_indices", _readonly(idx))
        object.__setattr__(self, "pixels", _readonly(px))
        object.__setattr__(self, "confidences", _readonly(conf))
        object.__setattr__(self, "image_size",
                           None if self.image_size is None else tuple(self.image_size))

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls) -> "LandmarkSet":
        return cls((), np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros(0))

    def check_vertices(self, vertex_count: int) -> None:
        if len(self) and self.vertex_indices.max() >= vertex_count:
            raise ValueError(
                f"landmark vertex index {int(self.vertex_indices.max())} out of "
                f"range for a model with {vertex_count} vertices")
