"""Ground-truth oracles for the output checks.

`ray_cast_depth` is a vectorized Moller-Trumbore ray cast of pixel-center
rays against the posed mesh, independent of blendfit's rasterizer. It
follows the rasterizer's conventions: pixel (i, j) is sampled at its
center, only camera-facing triangles in front of the camera are drawn,
and the nearest hit wins.
"""

from __future__ import annotations

import numpy as np

_Z_NEAR = 1e-6
_RAY_CHUNK = 64


def front_facing_triangles(vertices_cam: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """(F', 3, 3) camera-frame triangles the rasterizer would draw."""
    tris = vertices_cam[faces]
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    facing = np.einsum("ij,ij->i", normals, tris.mean(axis=1)) < 0.0
    in_front = np.all(tris[:, :, 2] > _Z_NEAR, axis=1)
    return tris[facing & in_front]


def ray_cast_depth(tris: np.ndarray, cols, rows, intr) -> np.ndarray:
    """Depth of the nearest triangle hit by each pixel-center ray; inf on a miss.

    The ray direction has unit z, so the ray parameter t is the depth.
    """
    cols = np.asarray(cols, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.float64)
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    s = -v0
    q = np.cross(s, e1)                                   # (F, 3)
    e2q = np.einsum("fc,fc->f", e2, q)
    out = np.full(len(cols), np.inf)
    for lo in range(0, len(cols), _RAY_CHUNK):
        hi = min(lo + _RAY_CHUNK, len(cols))
        d = np.stack([(cols[lo:hi] + 0.5 - intr.cx) / intr.fx,
                      (rows[lo:hi] + 0.5 - intr.cy) / intr.fy,
                      np.ones(hi - lo)], axis=1)          # (K, 3)
        p = np.cross(d[:, None, :], e2[None, :, :])      # (K, F, 3)
        det = np.einsum("fc,kfc->kf", e1, p)
        ok = np.abs(det) >= 1e-14
        inv = 1.0 / np.where(ok, det, 1.0)
        b1 = np.einsum("fc,kfc->kf", s, p) * inv
        b2 = (d @ q.T) * inv
        t = e2q[None, :] * inv
        hit = (ok & (b1 >= -1e-9) & (b2 >= -1e-9) & (b1 + b2 <= 1 + 1e-9)
               & (t > 0))
        out[lo:hi] = np.where(hit, t, np.inf).min(axis=1)
    return out


def coefficient_errors(pred: np.ndarray, truth: np.ndarray) -> dict:
    """Accuracy of (T, n) fitted coefficients against (T, n) ground truth."""
    err = np.abs(pred - truth)
    inactive = pred[truth == 0.0]
    return {"coef_err_max": float(err.max()),
            "coef_err_mean": float(err.mean()),
            "inactive_max": float(inactive.max()) if inactive.size else 0.0}
