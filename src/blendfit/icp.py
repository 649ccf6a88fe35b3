"""The twist rows and step-halving rule that the fitter's steps share,
and the depth-centroid start of a cold fit.

`twist_rows` linearizes, for a small left twist (3 rotation + 3
translation), residuals that each depend on one camera-frame point p
with gradient g: row [p x g, g], with g = n for point-to-plane rows; the
fitter's joint pose-and-coefficient step eliminates the twist from them,
and `_COND_LIMIT` is the condition number of their 6x6 normal equations
above which it keeps the pose. `backtrack` halves a step toward its
start, up to four times, until the caller's value does not rise; the
fitter's joint step and the rig refinement both use it.
`initial_pose_from_depth` moves the mesh centroid onto the centroid of
the valid depth pixels (at least 50, `_MIN_DEPTH_PIXELS`), which is
where every cold `solver.fit_frame` starts.
"""

from __future__ import annotations

import numpy as np

from .correspondence import DepthFrame
from .correspondence import find_correspondences  # noqa: F401  not called; perfbench/tracer.py wraps it by this name
from .geometry import CameraIntrinsics, Mesh, RigidPose, backproject

_MAX_HALVINGS = 4
_COND_LIMIT = 1e12
_MIN_DEPTH_PIXELS = 50


class InsufficientDataError(RuntimeError):
    """Fewer than 50 valid depth pixels for the depth-centroid start."""


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


def initial_pose_from_depth(mesh: Mesh, frame: DepthFrame,
                            intr: CameraIntrinsics) -> RigidPose:
    """Coarse pose guess: translate the mesh centroid onto the centroid
    of the observed depth cloud, identity rotation.

    Every cold `solver.fit_frame` starts from it, and the fitter's joint
    steps do the alignment, so it only has to be close enough for
    roughly frontal captures. Raises InsufficientDataError when the
    frame has fewer than 50 valid depth values.
    """
    mask = frame.valid_mask()
    if int(mask.sum()) < _MIN_DEPTH_PIXELS:
        raise InsufficientDataError(
            f"{int(mask.sum())} valid depth pixels < required {_MIN_DEPTH_PIXELS}")
    rows, cols = np.nonzero(mask)
    cloud = backproject(intr, cols + 0.5, rows + 0.5,
                        frame.values[rows, cols].astype(np.float64))
    t = cloud.mean(axis=0) - mesh.vertices.mean(axis=0)
    return RigidPose(np.array([1.0, 0.0, 0.0, 0.0]), t)
