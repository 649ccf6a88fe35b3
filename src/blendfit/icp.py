"""Rigid alignment of the expression mesh to a depth frame, and the
Gauss-Newton pose step it shares with the frame fitter.

`twist_rows` linearizes, for a small left twist (3 rotation + 3
translation), residuals that each depend on one camera-frame point p
with gradient g: row [p x g, g], with g = n for point-to-plane rows.
`backtrack` halves a step toward its start, up to four times, until the
caller's value does not rise; the pose step, the coefficient step and
the rig refinement all use it. `pose_step` solves stacked rows for a
twist and backtracks it from zero. `align_rigid` is point-to-plane ICP
with projective association on that step, iterated as the fitter
iterates: candidates are scored on the matches they were solved on,
and fresh matches at the accepted pose judge the step, so the accepted
error trace is non-increasing even on noisy data.

ICP settings are module constants: at most 30 iterations
(`_MAX_ITERATIONS`), converged once a step moves less than 0.01 degrees
(`_ROTATION_EPSILON`) and 1e-5 m (`_TRANSLATION_EPSILON`), at least 6
matches per pose (`_MIN_CORRESPONDENCES`, the six degrees of freedom),
matches gated at 5 cm (`_MAX_DISTANCE`; the incidence gate and normal
window are `correspondence`'s `_MAX_NORMAL_ANGLE` and `_DEPTH_WINDOW`).
`initial_pose_from_depth` needs 50 valid depth pixels
(`_MIN_DEPTH_PIXELS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .correspondence import DepthFrame, find_correspondences
from .geometry import CameraIntrinsics, Mesh, RigidPose, apply_twist

_MAX_HALVINGS = 4
_COND_LIMIT = 1e12
_MAX_ITERATIONS = 30
_TRANSLATION_EPSILON = 1e-5     # meters
_ROTATION_EPSILON = 0.01        # degrees
_MIN_CORRESPONDENCES = 6
_MAX_DISTANCE = 0.05            # meters
_MIN_DEPTH_PIXELS = 50


class InsufficientDataError(RuntimeError):
    """Too few depth correspondences to constrain the rigid pose."""


class DegenerateGeometryError(RuntimeError):
    """The 6x6 point-to-plane system is singular (e.g. a single plane)."""


@dataclass
class IcpDiagnostics:
    iterations: int = 0
    correspondence_counts: list = field(default_factory=list)
    mean_errors: list = field(default_factory=list)   # mean squared point-to-plane
    halvings: int = 0
    converged: bool = False


def twist_rows(points, grads) -> np.ndarray:
    """(M, 6) Jacobian [p x g, g] for a left twist (omega, tau) of M
    residuals, residual i depending only on camera-frame point points[i]
    with gradient grads[i] (M, 3) there."""
    return np.concatenate([np.cross(points, grads), grads], axis=1)


def backtrack(cur, full, bound: float, evaluate):
    """(point, value, halvings) for the first of `full` and up to four
    repeated midpoints 0.5 * (cand + cur) whose value, whatever
    `evaluate` returned for it, compares `<= bound`; (None, None, 4)
    when none does."""
    cand = full
    for halvings in range(_MAX_HALVINGS + 1):
        value = evaluate(cand)
        if value <= bound:
            return cand, value, halvings
        cand = 0.5 * (cand + cur)
    return None, None, _MAX_HALVINGS


def pose_step(pose: RigidPose, jac, res, f_cur: float, evaluate):
    """One Gauss-Newton twist step on `pose` from stacked rows (jac, res).

    The twist is backtracked from zero until `evaluate(candidate_pose)`
    compares `<= f_cur`. Returns (pose, value, twist, halvings): the
    accepted pose, what `evaluate` returned for it and the applied
    6-vector twist, or the unchanged `pose`, `f_cur` itself and twist
    None when no candidate did. Raises DegenerateGeometryError when the
    6x6 normal equations are singular.
    """
    jtj = jac.T @ jac
    jtr = jac.T @ res
    if np.linalg.cond(jtj) > _COND_LIMIT:
        raise DegenerateGeometryError("pose normal equations are singular")
    step = -np.linalg.solve(jtj, jtr)

    twist, value, halvings = backtrack(
        np.zeros(6), step, f_cur, lambda t: evaluate(apply_twist(pose, t[:3], t[3:])))
    if twist is None:
        return pose, f_cur, None, halvings
    return apply_twist(pose, twist[:3], twist[3:]), value, twist, halvings


def initial_pose_from_depth(mesh: Mesh, frame: DepthFrame,
                            intr: CameraIntrinsics) -> RigidPose:
    """Coarse pose guess: translate the mesh centroid onto the centroid
    of the observed depth cloud, identity rotation.

    Good enough to seed ICP for roughly frontal captures. Raises
    InsufficientDataError when the frame has fewer than 50 valid depth
    values.
    """
    from .geometry import backproject

    mask = frame.valid_mask()
    if int(mask.sum()) < _MIN_DEPTH_PIXELS:
        raise InsufficientDataError(
            f"{int(mask.sum())} valid depth pixels < required {_MIN_DEPTH_PIXELS}")
    rows, cols = np.nonzero(mask)
    cloud = backproject(intr, cols + 0.5, rows + 0.5,
                        frame.values[rows, cols].astype(np.float64))
    t = cloud.mean(axis=0) - mesh.vertices.mean(axis=0)
    return RigidPose(np.array([1.0, 0.0, 0.0, 0.0]), t)


def align_rigid(mesh: Mesh, frame: DepthFrame, intr: CameraIntrinsics,
                init: RigidPose) -> tuple[RigidPose, IcpDiagnostics]:
    """Point-to-plane ICP from `init`; returns the refined pose and diagnostics.

    Fresh matches at each stepped pose judge the step: a pose with fewer
    than 6 matches scores an infinite error, and an error above the last
    keeps the last pose and stops ICP. Raises InsufficientDataError when
    fewer than 6 vertices match at `init`, DegenerateGeometryError when
    the normal equations are singular.
    """
    if mesh.vertex_count == 0:
        raise InsufficientDataError("empty mesh")

    def associate(pose):
        verts = pose.apply(mesh.vertices)
        corrs = find_correspondences(verts, frame, intr, _MAX_DISTANCE)
        if len(corrs) < _MIN_CORRESPONDENCES:
            return verts, corrs, np.inf
        return verts, corrs, float(np.mean(corrs.residuals(verts) ** 2))

    pose = init
    verts_cam, corrs, err = associate(pose)
    if len(corrs) < _MIN_CORRESPONDENCES:
        raise InsufficientDataError(
            f"{len(corrs)} correspondences < required {_MIN_CORRESPONDENCES}")

    diag = IcpDiagnostics()
    for _ in range(_MAX_ITERATIONS):
        diag.iterations += 1
        diag.correspondence_counts.append(len(corrs))
        diag.mean_errors.append(err)

        cand, _, twist, halvings = pose_step(
            pose, twist_rows(verts_cam[corrs.vertex_indices], corrs.normals),
            corrs.residuals(verts_cam), err,
            lambda p: float(np.mean(corrs.residuals(p.apply(mesh.vertices)) ** 2)))
        diag.halvings += halvings
        if twist is None:
            break
        cand_verts, cand_corrs, cand_err = associate(cand)
        if cand_err > err:
            break
        pose, verts_cam, corrs, err = cand, cand_verts, cand_corrs, cand_err
        if np.linalg.norm(twist[:3]) < np.deg2rad(_ROTATION_EPSILON) and \
           np.linalg.norm(twist[3:]) < _TRANSLATION_EPSILON:
            diag.converged = True
            break

    diag.correspondence_counts.append(len(corrs))
    diag.mean_errors.append(err)
    return pose, diag
