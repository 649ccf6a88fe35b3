"""Core mesh, blendshape-model, pose, and camera math.

Conventions
-----------
All geometry is metric (meters). The camera sits at the origin looking
down +z, so the "world" frame and the camera frame coincide; a RigidPose
maps model-local coordinates into that frame. Pixel coordinates are
continuous with the origin at the top-left image corner; pixel (i, j)
covers [i, i+1) x [j, j+1) and its center is (i + 0.5, j + 0.5).

Blendshape basis columns are *delta* displacements added to the neutral
mesh, not absolute target shapes: the additive mesh-generation formula
only makes sense for deltas, and that is the convention used throughout.

All container types are immutable after construction (arrays are marked
read-only), so every operation here is a pure function that is safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DimensionMismatchError(ValueError):
    """Coefficient vector length does not match the model."""


class MeshValidationError(ValueError):
    """Mesh topology or geometry violates an invariant."""


class BehindCameraError(ValueError):
    """Point has non-positive depth and cannot be projected."""


class InvalidDepthError(ValueError):
    """Non-positive depth value where a valid one is required."""


class IsolatedVertexWarning(RuntimeWarning):
    """A vertex referenced by no non-degenerate face got a zero normal."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z ordering)

def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def quat_multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([w, -x, -y, -z])


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_axis_angle(axis, angle_rad: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle_rad
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / n))


def quat_from_rotvec(rotvec) -> np.ndarray:
    """Quaternion for a rotation vector (axis * angle, radians)."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    angle = np.linalg.norm(rotvec)
    if angle < 1e-12:
        # first-order expansion keeps small updates exact enough
        q = np.concatenate(([1.0], 0.5 * rotvec))
        return quat_normalize(q)
    return quat_from_axis_angle(rotvec / angle, angle)


def quat_rotation_angle(q) -> float:
    """Rotation angle in radians encoded by a unit quaternion."""
    w = np.clip(abs(float(q[0])), 0.0, 1.0)
    return 2.0 * float(np.arccos(w))


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Mesh:
    """Triangle mesh: vertices (V, 3) in meters, faces (F, 3) vertex indices."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        f = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if f.size:
            if f.min() < 0 or f.max() >= len(v):
                raise MeshValidationError(
                    f"face index out of range (vertex count {len(v)})")
            same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
            if same.any():
                bad = int(np.flatnonzero(same)[0])
                raise MeshValidationError(
                    f"face {bad} references the same vertex twice")
        object.__setattr__(self, "vertices", _readonly(v))
        object.__setattr__(self, "faces", _readonly(f))

    @classmethod
    def _of_checked(cls, vertices: np.ndarray, faces: np.ndarray) -> "Mesh":
        """A mesh on the faces of an existing mesh, with new vertices: a
        C-contiguous (V, 3) float64 array, for as many vertices as that
        mesh has. The faces were checked when that mesh was built, so
        the constructor's checks are skipped; the vertices are marked
        read-only in place."""
        vertices.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "vertices", vertices)
        object.__setattr__(m, "faces", faces)
        return m

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def face_count(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class BlendshapeModel:
    """Neutral mesh plus per-blendshape displacement fields.

    basis has shape (n, V, 3): basis[k] is the full per-vertex delta
    displacement of blendshape k, added to the neutral with weight x_k.
    The solver gathers the Jacobian from a vertex-major (V, 3, n) copy
    of the basis (`_vertex_basis`), built on first use.
    """

    neutral: Mesh
    basis: np.ndarray
    names: tuple

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        names = tuple(str(s) for s in self.names)
        if basis.ndim != 3 or basis.shape[2] != 3:
            raise MeshValidationError(f"basis must have shape (n, V, 3), got {basis.shape}")
        if basis.shape[1] != self.neutral.vertex_count:
            raise MeshValidationError(
                f"basis vertex count {basis.shape[1]} != neutral {self.neutral.vertex_count}")
        if basis.shape[0] < 1:
            raise MeshValidationError("model needs at least one blendshape")
        if len(names) != basis.shape[0]:
            raise MeshValidationError(
                f"{len(names)} names for {basis.shape[0]} blendshapes")
        if len(set(names)) != len(names):
            raise MeshValidationError("blendshape names must be unique")
        object.__setattr__(self, "basis", _readonly(basis))
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def vertex_count(self) -> int:
        return self.neutral.vertex_count

    @cached_property
    def _vertex_basis(self) -> np.ndarray:
        """The basis as (V, 3, n): block v holds every shape's delta at
        vertex v, one row per coordinate, so gathering the blocks of a
        vertex subset is one contiguous copy per vertex and each block
        is a (3, n) matrix to multiply a row gradient into. Built on
        first use and kept."""
        return _readonly(self.basis.transpose(1, 2, 0))


def validate_bsc(x, n: int | None = None, atol: float = 1e-9) -> np.ndarray:
    """Check a blendshape coefficient vector: 1-D, length n, values in [0, 1].

    Returns the vector as a float64 array; values within atol of the box
    are snapped onto it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError(f"coefficients must be 1-D, got shape {x.shape}")
    if n is not None and len(x) != n:
        raise DimensionMismatchError(f"expected {n} coefficients, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise ValueError("coefficients must be finite")
    if x.size and (x.min() < -atol or x.max() > 1.0 + atol):
        raise ValueError(
            f"coefficients outside [0, 1]: min {x.min():.6g}, max {x.max():.6g}")
    return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True)
class RigidPose:
    """Rigid transform: unit quaternion (w, x, y, z) plus translation (meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=np.float64).reshape(4)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        # NaN fails both checks; kept cheap, as every candidate pose of
        # the fitter's joint step is built here
        if not abs(np.linalg.norm(q) - 1.0) <= 1e-9:
            raise ValueError(f"quaternion norm {np.linalg.norm(q)!r} not unit")
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError(f"translation {t.tolist()!r} is not finite")
        object.__setattr__(self, "rotation", _readonly(q))
        object.__setattr__(self, "translation", _readonly(t))

    @classmethod
    def identity(cls) -> "RigidPose":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_axis_angle(cls, axis, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidPose":
        return cls(quat_from_axis_angle(axis, angle_rad), np.asarray(translation, dtype=np.float64))

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or a batch (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.matrix().T + self.translation

    def compose(self, other: "RigidPose") -> "RigidPose":
        """self after other: (self o other)(p) = self(other(p))."""
        q = quat_normalize(quat_multiply(self.rotation, other.rotation))
        t = self.apply(other.translation)
        return RigidPose(q, t)

    def inverse(self) -> "RigidPose":
        q = quat_conjugate(self.rotation)
        q = quat_normalize(q)
        return RigidPose(q, -(quat_to_matrix(q) @ self.translation))


def apply_twist(pose: RigidPose, omega, tau) -> RigidPose:
    """Left-multiplied small-motion update: p' = dR (R p + t) + tau with
    dR the rotation for rotation vector omega."""
    dq = quat_from_rotvec(omega)
    q = quat_normalize(quat_multiply(dq, pose.rotation))
    t = quat_to_matrix(dq) @ pose.translation + np.asarray(tau, dtype=np.float64)
    return RigidPose(q, t)


def pose_delta(a: RigidPose, b: RigidPose) -> tuple[float, float]:
    """(rotation angle in radians, translation distance) between two poses."""
    rel = quat_multiply(quat_conjugate(a.rotation), b.rotation)
    return quat_rotation_angle(quat_normalize(rel)), float(
        np.linalg.norm(a.translation - b.translation))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Undistorted pinhole camera: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")


@dataclass(frozen=True)
class SequenceFrame:
    """One tracked frame: pose plus coefficient vector at a timestamp."""

    frame_index: int
    timestamp: float
    pose: RigidPose
    coefficients: np.ndarray

    def __post_init__(self):
        x = validate_bsc(self.coefficients)
        object.__setattr__(self, "coefficients", _readonly(x))


@dataclass(frozen=True)
class BscSequence:
    """Per-frame coefficient vectors with pose and timestamps."""

    names: tuple
    frames: tuple = field(default_factory=tuple)

    def __post_init__(self):
        names = tuple(str(s) for s in self.names)
        frames = tuple(self.frames)
        n = len(names)
        for fr in frames:
            if len(fr.coefficients) != n:
                raise DimensionMismatchError(
                    f"frame {fr.frame_index} has {len(fr.coefficients)} coefficients, "
                    f"header names {n}")
        ts = [fr.timestamp for fr in frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("frame timestamps must be strictly increasing")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "frames", frames)

    @property
    def n(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return len(self.frames)

    def coefficient_matrix(self) -> np.ndarray:
        """(T, n) array of all coefficient vectors."""
        if not self.frames:
            return np.zeros((0, self.n))
        return np.stack([fr.coefficients for fr in self.frames])


# ---------------------------------------------------------------------------
# operations

def evaluate_mesh(model: BlendshapeModel, x) -> Mesh:
    """Generate the expression mesh: neutral vertices plus the weighted sum
    of basis displacement columns. Faces are shared with the neutral mesh.

    Only the shapes with a nonzero coefficient are summed, since a fit
    activates a few of them: x = 0 gives the neutral vertices, one
    nonzero x_k gives b0 + x_k B_k exactly, and otherwise the sum
    differs from the dense one by rounding alone."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise DimensionMismatchError(
            f"coefficient vector shape {x.shape} does not match model n={model.n}")
    nz = np.flatnonzero(x)
    vertices = (x[nz] @ model.basis.reshape(model.n, 3 * model.vertex_count)[nz]).reshape(-1, 3)
    vertices += model.neutral.vertices
    return Mesh._of_checked(vertices, model.neutral.faces)


def project(intr: CameraIntrinsics, p_cam) -> np.ndarray:
    """Pinhole projection of camera-frame point(s) to continuous pixel coords.

    Accepts (3,) or (..., 3); returns (2,) or (..., 2). Raises
    BehindCameraError if any point has z <= 0.
    """
    p = np.asarray(p_cam, dtype=np.float64)
    z = p[..., 2]
    if np.any(z <= 0.0):
        raise BehindCameraError("point has non-positive depth")
    u = intr.fx * p[..., 0] / z + intr.cx
    v = intr.fy * p[..., 1] / z + intr.cy
    return np.stack([u, v], axis=-1)


def backproject(intr: CameraIntrinsics, u, v, depth) -> np.ndarray:
    """Lift pixel coordinates and metric depth to a camera-frame 3D point.

    Broadcasts over array inputs; returns (..., 3). Raises
    InvalidDepthError for non-positive depth.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = np.asarray(depth, dtype=np.float64)
    if np.any(d <= 0.0):
        raise InvalidDepthError("depth must be positive")
    x = (u - intr.cx) * d / intr.fx
    y = (v - intr.cy) * d / intr.fy
    return np.stack(np.broadcast_arrays(x, y, d), axis=-1)


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Per-vertex unit normals by area-weighted face-normal accumulation.

    Orientation follows the face winding (right-hand rule). Vertices
    referenced by no face keep a zero normal and trigger an
    IsolatedVertexWarning.
    """
    import warnings

    tri = mesh.vertices[mesh.faces]
    # cross product length is twice the face area, so plain accumulation
    # is already area-weighted
    fn = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    acc = np.zeros_like(mesh.vertices)
    for k in range(3):
        np.add.at(acc, mesh.faces[:, k], fn)
    norms = np.linalg.norm(acc, axis=1)
    isolated = norms == 0.0
    if isolated.any():
        warnings.warn(
            f"{int(isolated.sum())} vertices have no incident non-degenerate face; "
            "their normals are zero", IsolatedVertexWarning, stacklevel=2)
        norms[isolated] = 1.0
    return acc / norms[:, None]
