"""Rigid alignment of the expression mesh to a depth frame, and the
Gauss-Newton pose step it shares with the frame fitter.

`point_to_plane_rows` linearizes the residuals n . (v - p) for a small
left twist (3 rotation + 3 translation); `pose_step` solves stacked rows
for a twist and halves it, up to four times, until the caller's error
does not rise. `align_rigid` is point-to-plane ICP with projective
association on that step: every candidate pose is scored by its mean
squared error on matches gathered afresh under it, so the accepted error
trace is non-increasing even on noisy data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correspondence import CorrespondenceSet, DepthFrame, GateConfig, find_correspondences
from .geometry import CameraIntrinsics, Mesh, RigidPose, apply_twist

_MAX_HALVINGS = 4
_COND_LIMIT = 1e12


class InsufficientDataError(RuntimeError):
    """Too few depth correspondences to constrain the rigid pose."""


class DegenerateGeometryError(RuntimeError):
    """The 6x6 point-to-plane system is singular (e.g. a single plane)."""


@dataclass(frozen=True)
class IcpConfig:
    max_iterations: int = 30
    translation_epsilon: float = 1e-5             # meters
    rotation_epsilon: float = 0.01                # degrees
    gates: GateConfig = field(
        default_factory=lambda: GateConfig(max_point_distance=0.05))
    min_correspondences: int = 6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.translation_epsilon <= 0 or self.rotation_epsilon <= 0:
            raise ValueError("epsilons must be positive")
        if self.min_correspondences < 6:
            raise ValueError("min_correspondences must be >= 6 (6-DOF problem)")


@dataclass
class IcpDiagnostics:
    iterations: int = 0
    correspondence_counts: list = field(default_factory=list)
    mean_errors: list = field(default_factory=list)   # mean squared point-to-plane
    halvings: int = 0
    converged: bool = False


def point_to_plane_rows(verts_cam, corrs: CorrespondenceSet):
    """Gauss-Newton rows of the point-to-plane residuals for a left twist
    (omega, tau): the (M, 6) Jacobian [v x n, n] and the (M,) residuals
    n . (v - p), for camera-frame vertices `verts_cam` (V, 3)."""
    v = verts_cam[corrs.vertex_indices]
    jac = np.concatenate([np.cross(v, corrs.normals), corrs.normals], axis=1)
    return jac, corrs.residuals(verts_cam)


def pose_step(pose: RigidPose, jac, res, f_cur: float, evaluate):
    """One Gauss-Newton twist step on `pose` from stacked rows (jac, res).

    The full step is tried first and halved up to four times until
    `evaluate(candidate_pose)` is not above `f_cur`; `evaluate` returns
    None to reject a candidate outright. Returns (pose, value, twist,
    halvings): the accepted pose, its value and the applied 6-vector
    twist, or the unchanged `pose`, `f_cur` and twist None when every
    candidate was rejected. Raises DegenerateGeometryError when the 6x6
    normal equations are singular.
    """
    jtj = jac.T @ jac
    jtr = jac.T @ res
    if np.linalg.cond(jtj) > _COND_LIMIT:
        raise DegenerateGeometryError("pose normal equations are singular")
    step = -np.linalg.solve(jtj, jtr)

    scale = 1.0
    for halvings in range(_MAX_HALVINGS + 1):
        twist = scale * step
        cand = apply_twist(pose, twist[:3], twist[3:])
        f_cand = evaluate(cand)
        if f_cand is not None and f_cand <= f_cur:
            return cand, f_cand, twist, halvings
        scale *= 0.5
    return pose, f_cur, None, _MAX_HALVINGS


def initial_pose_from_depth(mesh: Mesh, frame: DepthFrame,
                            intr: CameraIntrinsics,
                            min_pixels: int = 50) -> RigidPose:
    """Coarse pose guess: translate the mesh centroid onto the centroid
    of the observed depth cloud, identity rotation.

    Good enough to seed ICP for roughly frontal captures. Raises
    InsufficientDataError when the frame has fewer than min_pixels valid
    depth values.
    """
    from .geometry import backproject

    mask = frame.valid_mask()
    if int(mask.sum()) < min_pixels:
        raise InsufficientDataError(
            f"{int(mask.sum())} valid depth pixels < required {min_pixels}")
    rows, cols = np.nonzero(mask)
    cloud = backproject(intr, cols + 0.5, rows + 0.5,
                        frame.values[rows, cols].astype(np.float64))
    t = cloud.mean(axis=0) - mesh.vertices.mean(axis=0)
    return RigidPose(np.array([1.0, 0.0, 0.0, 0.0]), t)


def align_rigid(mesh: Mesh, frame: DepthFrame, intr: CameraIntrinsics,
                init: RigidPose, cfg: IcpConfig | None = None
                ) -> tuple[RigidPose, IcpDiagnostics]:
    """Point-to-plane ICP from `init`; returns the refined pose and diagnostics.

    Raises InsufficientDataError when fewer than min_correspondences
    vertices match at `init` (a candidate pose with fewer is rejected),
    DegenerateGeometryError when the normal equations are singular.
    """
    cfg = cfg or IcpConfig()
    if mesh.vertex_count == 0:
        raise InsufficientDataError("empty mesh")

    matched = None   # (camera-frame vertices, correspondences) at the last pose scored

    def mean_sq_error(cand):
        nonlocal matched
        verts = cand.apply(mesh.vertices)
        matched = verts, find_correspondences(verts, frame, intr, cfg.gates)
        if len(matched[1]) < cfg.min_correspondences:
            return None
        r = matched[1].residuals(verts)
        return float(np.mean(r * r))

    pose = init
    err = mean_sq_error(pose)
    verts_cam, corrs = matched
    if err is None:
        raise InsufficientDataError(
            f"{len(corrs)} correspondences < required {cfg.min_correspondences}")

    diag = IcpDiagnostics()
    for _ in range(cfg.max_iterations):
        diag.iterations += 1
        diag.correspondence_counts.append(len(corrs))
        diag.mean_errors.append(err)

        jac, res = point_to_plane_rows(verts_cam, corrs)
        pose, err, twist, halvings = pose_step(pose, jac, res, err, mean_sq_error)
        diag.halvings += halvings
        if twist is None:
            break
        verts_cam, corrs = matched   # the accepted candidate was scored last
        if np.linalg.norm(twist[:3]) < np.deg2rad(cfg.rotation_epsilon) and \
           np.linalg.norm(twist[3:]) < cfg.translation_epsilon:
            diag.converged = True
            break

    diag.correspondence_counts.append(len(corrs))
    diag.mean_errors.append(err)
    return pose, diag
