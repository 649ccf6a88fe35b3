"""Blendshape coefficient estimation.

The per-frame objective combines a point-to-plane depth term, a
reprojection term for 2D landmarks, and an L1 penalty on the
coefficient vector:

    f(x) = w_d * sum_i (n_i . (v_i(x) - p_i))^2
         + w_l * sum_j ||proj(v_j(x)) - u_j||^2
         + w_r * ||x||_1        subject to 0 <= x <= 1

with v(x) = b0 + B x pushed through the rigid pose. Sums are raw, not
averaged; the weights absorb all scaling. Both smooth terms are one
vector of weighted residual rows (`_residual_rows`), each row a function
of one vertex. The depth term is exactly quadratic in x; the landmark
term is linearized once per outer iteration (Gauss-Newton). Each row
of the quadratic's Jacobian is the row's gradient times one (3, n)
block of a vertex-major (V, 3, n) copy of the basis, built once per
model, all rows in one batched matmul, and the quadratic is read from
the Gram matrix of the Jacobian and the residuals. The resulting
box-constrained lasso is solved by cyclic coordinate descent with a
closed-form soft-threshold update, which decreases the objective at
every single coordinate update; the scalar loop runs on Python floats,
which round exactly as float64 does. Sweeps find the face (which
coefficients sit at 0, which at 1, which are free); after each sweep
that moved, one linear solve on the free coefficients jumps to that
face's exact minimizer, kept only when it stays inside the box and
lowers the objective (the subspace step of Wen, Yin, Goldfarb & Zhang
2010). The next sweep then only checks it, so a solve ends in a few
sweeps where coordinate descent alone crawls along correlated shapes.

Frame fitting refreshes the depth correspondences once per outer
iteration, then takes one Gauss-Newton step on the rigid pose and the
coefficients together against the same full objective, on that frozen
set. The pose enters through the twist rows (`twist_rows`) of every
weighted residual, depth and landmark alike. The twist has no penalty
and no box, so it is eliminated exactly (the Schur complement of bundle
adjustment, Triggs et al. 2000): one Gram matrix N of the twist rows J,
the coefficient rows and the residuals gives the quadratic in x as the
Schur complement of J^T J in N, and the twist that goes with the solved
x from J^T J's solve. When J^T J is too ill-conditioned to fix the twist
(a plane against a plane), the step moves the coefficients alone. The
step goes through `backtrack`, halved until it does not increase the
objective, so the recorded per-iteration trace is non-increasing. The
fitter holds one evaluation of its current (pose, x): the objective, the
pose, the mesh vertices in the camera frame and the residual rows on the
current correspondence set. The correspondence search and the quadratic
read it. Evaluations compare by their objective, so the held one is the
bound the step's candidates are scored against, and the evaluation the
step hands back (the accepted candidate's, or the bound itself when
every candidate is rejected) is held next; an outer iteration builds
one pose and one mesh per scored candidate and nothing twice. Each mesh
sums only the shapes whose coefficient is nonzero (`evaluate_mesh`), and
a candidate is scored from its residuals alone: the gradient rows, the
landmark Jacobian among them, are built only for the evaluation the
quadratic is assembled from, by the same residual function, so a score
is bit for bit the value `evaluate_objective` gives. A cold fit
starts from `initial_pose_from_depth`: the neutral mesh's landmark
vertices aligned rigidly, in closed form (Horn 1987), to their pixels
backprojected at the depth under them, when at least six landmarks are
usable and not collinear; else the mesh centroid moved onto the centroid
of the valid depth pixels.

Rigid alignment (`align_rigid`) is the same loop on the mesh alone: a
model whose one shape is all zeros, so the joint step is the
Gauss-Newton twist, with a 5 cm match gate in place of the fitter's
2 cm one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .correspondence import (
    CorrespondenceSet,
    DepthFrame,
    LandmarkSet,
    find_correspondences,
    landmark_jacobian,
)
from .geometry import (
    BehindCameraError,
    BlendshapeModel,
    BscSequence,
    CameraIntrinsics,
    DimensionMismatchError,
    Mesh,
    RigidPose,
    SequenceFrame,
    apply_twist,
    backproject,
    evaluate_mesh,
    project,
    quat_to_matrix,
)

log = logging.getLogger(__name__)

_MAX_DISTANCE = 0.02            # meters, fit_frame's depth match gate
_RIGID_MAX_DISTANCE = 0.05      # meters, align_rigid's
_SWEEP_TOL = 1e-10
_MAX_ITERATIONS = 10            # outer iterations of one fit_frame
_OBJECTIVE_REL_TOL = 1e-6       # fit_frame's stall rule
_MAX_HALVINGS = 4               # backtrack's midpoints toward the start
_COND_LIMIT = 1e12              # cond(J^T J) above which the twist stays 0
_MIN_DEPTH_PIXELS = 50          # initial_pose_from_depth's least valid depth
_MIN_LANDMARKS = 6              # its least usable landmarks for the landmark start


class TrackingError(RuntimeError):
    """A frame (or a whole sequence) could not be fit."""


@dataclass(frozen=True)
class SolverConfig:
    """The weights of the objective's three terms.

    Weights assume depths in meters and landmarks in pixels. w_d must be
    large enough that a residual rigid mis-explanation of the depth map
    costs more than the L1 spend on the true coefficients; w_l folds the
    pixel scale back toward meters for a ~300-500 px focal length at
    roughly half a meter; w_r is large enough to pin unsupported
    coefficients to exact zero without visibly biasing active ones. The
    values below came from a sweep on the synthetic recovery suite.
    """
    w_d: float = 200.0
    w_l: float = 8e-3
    w_r: float = 0.05

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(0.0 <= w < math.inf for w in (self.w_d, self.w_l, self.w_r)):
            raise ValueError("weights must be finite and non-negative")


@dataclass(frozen=True)
class QuadraticForm:
    """q(x) = 0.5 x^T H x + g^T x + c with H symmetric PSD."""
    H: np.ndarray
    g: np.ndarray
    c: float

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or g.shape != (H.shape[0],):
            raise DimensionMismatchError(f"bad quadratic shapes {H.shape} / {g.shape}")
        if not np.allclose(H, H.T, atol=1e-9):
            raise ValueError("H must be symmetric")
        H = 0.5 * (H + H.T)
        if H.size and float(np.linalg.eigvalsh(H)[0]) < -1e-8:
            raise ValueError("H must be positive semidefinite")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "c", float(self.c))

    @classmethod
    def _of_gram(cls, S) -> "QuadraticForm":
        """||a x + h||^2 from the (n + 1) x (n + 1) Gram matrix S of [a h],
        the fitter's form: H = 2 S_aa, g = 2 S_ah, c = S_hh. H is
        symmetric PSD by construction, up to rounding, so only a
        non-finite H or g is checked for. H is still symmetrized exactly,
        as the constructor does, because solve_l1_box updates with rows
        of H in place of columns."""
        n = S.shape[0] - 1
        H = 2.0 * S[:n, :n]
        g = 2.0 * S[:n, n]
        if not (np.isfinite(H).all() and np.isfinite(g).all()):
            raise ValueError("quadratic form has non-finite entries")
        q = object.__new__(cls)
        object.__setattr__(q, "H", 0.5 * (H + H.T))
        object.__setattr__(q, "g", g)
        object.__setattr__(q, "c", float(S[n, n]))
        return q

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.g @ x + self.c)


@dataclass(frozen=True)
class FrameFit:
    """Result of fitting one frame. `x` is the coefficient estimate and
    `objective` the objective at the returned (pose, x) on the last
    correspondence set."""
    pose: RigidPose
    x: np.ndarray
    objective: float
    objective_trace: tuple
    correspondence_count: int
    landmark_count: int
    converged: bool


@dataclass(frozen=True)
class TrackResult:
    sequence: BscSequence
    frame_status: tuple          # one "ok" / "failed: ..." string per input frame
    fits: tuple                  # FrameFit or None per input frame


def _residual_rows(verts_cam, corrs: CorrespondenceSet,
                   landmarks: LandmarkSet | None,
                   intr: CameraIntrinsics | None, cfg: SolverConfig,
                   gradients: bool = True):
    """The smooth part of the objective as weighted residual rows.

    Returns (idx (m,), grad (m, 3), r (m,)): row i is a function of the
    camera-frame vertex verts_cam[idx[i]] alone, with gradient grad[i]
    there, and r . r is the weighted depth plus landmark sum. One row per
    depth match, sqrt(w_d) n . (v - p); two per landmark (u and v),
    sqrt(w_l conf) (proj(v) - u) with the projection Jacobian rows.
    Without `gradients`, idx and grad are None and r is the same, bit
    for bit. Each part is written into its slice of one array per output.
    """
    k = len(corrs)
    n_land = 0 if landmarks is None else len(landmarks)
    if n_land and intr is None:
        raise ValueError("landmark terms require camera intrinsics")
    m = k + 2 * n_land
    idx = grad = None
    r = np.empty(m)
    sw = np.sqrt(cfg.w_d)
    np.multiply(sw, corrs.residuals(verts_cam), out=r[:k])
    if gradients:
        idx, grad = np.empty(m, dtype=np.int64), np.empty((m, 3))
        idx[:k] = corrs.vertex_indices
        np.multiply(sw, corrs.normals, out=grad[:k])
    if n_land:
        v = verts_cam[landmarks.vertex_indices]
        sw = np.sqrt(cfg.w_l * landmarks.confidences)[:, None]     # (L, 1)
        if gradients:
            idx[k:].reshape(-1, 2)[:] = landmarks.vertex_indices[:, None]
            np.multiply(sw[:, :, None], landmark_jacobian(v, intr),
                        out=grad[k:].reshape(-1, 2, 3))
        np.multiply(sw, project(intr, v) - landmarks.pixels, out=r[k:].reshape(-1, 2))
    return idx, grad, r


def assemble_quadratic(model: BlendshapeModel, pose: RigidPose,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, x_lin,
                       cfg: SolverConfig, rows=None, eliminate=None):
    """Build the smooth part of the objective as a quadratic in x.

    The form is ||r + a (x - x_lin)||^2 for the weighted residual rows r
    at `x_lin` and a = dr/dx: exact for the depth term, the Gauss-Newton
    linearization at `x_lin` for the landmark term. The rows are built
    here from the mesh of `x_lin`; `rows` and `eliminate` are for
    `fit_frame` alone. `rows` passes the rows of the evaluation it holds
    at (pose, x_lin) on `corrs` instead. `eliminate`, the (m, 6) twist
    rows J of those rows, adds a free twist t to the model,
    ||r + J t + a (x - x_lin)||^2, and minimizes it out: the form is the
    Schur complement of J^T J in the Gram matrix N of [J a h], with
    h = r - a x_lin, and (form, T, t0) is returned, where t = T x + t0
    is the minimizing twist at each x. When J has rank below 6
    numerically (fewer than 6 rows, or cond(J^T J) above
    `_COND_LIMIT`), the twist stays 0: the form is the plain one,
    read from N, and T, t0 are zeros. Row i of a
    is the rotated gradient (1, 3) times the (3, n) block of the
    vertex-major basis at the row's vertex, every shape's delta there,
    all rows in one batched matmul. J, a and h are written into one
    C-ordered (m, 6 + n + 1) buffer, (m, n + 1) without J, and N is the
    Gram matrix of that buffer. With neither correspondences nor
    landmarks there are no rows, and the form is the empty sum: H, g and
    c are 0, as with zero weights, and T, t0 are zeros.
    """
    n = model.n
    x_lin = np.asarray(x_lin, dtype=float)
    if x_lin.shape != (n,):
        raise DimensionMismatchError(f"x_lin has shape {x_lin.shape}, expected ({n},)")
    if landmarks is not None:
        landmarks.check_vertices(model.vertex_count)

    rot = quat_to_matrix(pose.rotation)
    if rows is None:
        rows = _evaluate_at(model, pose, x_lin, corrs, landmarks, intr, cfg).rows
    idx, grad, r = rows
    k = 0 if eliminate is None else 6
    M = np.empty((len(idx), k + n + 1))
    if eliminate is not None:
        M[:, :k] = eliminate
    a = M[:, k:k + n]
    # n . (R b) = (R^T n) . b: rotate the m gradients, not the basis
    np.matmul((grad @ rot)[:, None, :], model._vertex_basis[idx], out=a[:, None, :])
    np.subtract(r, a @ x_lin, out=M[:, k + n])
    N = M.T @ M                                          # (k + n + 1, k + n + 1)
    if eliminate is None:
        return QuadraticForm._of_gram(N)
    if len(idx) < 6 or np.linalg.cond(N[:6, :6]) > _COND_LIMIT:
        return QuadraticForm._of_gram(N[6:, 6:]), np.zeros((6, n)), np.zeros(6)
    # the twist minimizing ||J t + a x + h|| is -X (x, 1); what is left
    # is the Schur complement of N_JJ
    X = np.linalg.solve(N[:6, :6], N[:6, 6:])                        # (6, n + 1)
    S = N[6:, 6:] - N[6:, :6] @ X
    return QuadraticForm._of_gram(S), -X[:, :n], -X[:, n]


def solve_l1_box(q: QuadraticForm, w_r: float, x0=None, sweeps: int = 50,
                 record_updates: bool = False):
    """Minimize q(x) + w_r ||x||_1 on [0, 1]^n: coordinate descent that
    ends with an exact solve on the face it finds.

    Each sweep is cyclic coordinate descent: every coordinate update is
    the exact minimizer of the one-dimensional restriction (soft
    threshold, then clamp to the box). Coordinates with H_kk == 0 do not
    appear in the objective and are left at their start value. After a
    sweep that moved a coordinate by more than 1e-10, the face step
    holds the coordinates at 0 or 1 and solves for the free ones F
    (0 < x_k < 1) exactly, H[F, F] y = -(g[F] + w_r + H[F, N] x[N]) with
    N the rest; y is taken only when it lies strictly inside the box and
    strictly lowers the objective, and skipped when H[F, F] is singular.
    The next sweep then checks the optimality conditions: the solve
    stops once a sweep moves no coordinate by more than 1e-10, or after
    `sweeps` sweeps, a cap. The objective never increases.

    Returns (x, trace) where trace[0] is the objective at x0 and later
    entries are per-sweep values, or per-coordinate-update values when
    record_updates is set, plus one entry for each face step taken.
    Raises ValueError for a negative or non-finite w_r or a non-finite
    x0.

    The per-coordinate loop runs on Python floats (g, diag(H) and H x as
    lists, H x re-listed after each move), which round exactly as NumPy
    float64 scalars do, so the iterates are those of the NumPy loop, only
    cheaper. A move updates H x with the row H[k], bit-equal to the
    column because QuadraticForm symmetrizes H exactly.
    """
    n = q.n
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatchError(f"x0 has shape {x.shape}, expected ({n},)")
        if not np.isfinite(x).all():
            raise ValueError("x0 must be finite")
        x = np.clip(x, 0.0, 1.0)
    # written so that NaN fails
    if not 0.0 <= w_r < math.inf:
        raise ValueError("w_r must be finite and non-negative")

    H = q.H
    hx = H @ x
    observed = np.diag(H) > 0.0

    def f(x, hx) -> float:
        return float(0.5 * x @ hx + q.g @ x + q.c + w_r * np.sum(np.abs(x)))

    g, diag, xs, hxs = q.g.tolist(), np.diag(H).tolist(), x.tolist(), hx.tolist()
    trace = [f(x, hx)]
    for _ in range(sweeps):
        max_move = 0.0
        for k in range(n):
            d = diag[k]
            if d <= 0.0:
                continue
            # soft threshold at w_r, then clamp to the box: below +w_r
            # the thresholded value is at most 0 and clamps to 0, so only
            # rho - w_r is needed (a NaN rho gives 0, as thresholding did)
            t = -(g[k] + hxs[k] - d * xs[k]) - w_r
            if t > 0.0:
                new = t / d
                if new > 1.0:
                    new = 1.0
            else:
                new = 0.0
            delta = new - xs[k]
            if delta != 0.0:
                hx += H[k] * delta
                hxs = hx.tolist()
                x[k] = xs[k] = new
                if abs(delta) > max_move:
                    max_move = abs(delta)
            if record_updates:
                trace.append(f(x, hx))
        if not record_updates:
            trace.append(f(x, hx))
        if max_move <= _SWEEP_TOL:
            break
        # the face step: the free coordinates' exact minimizer with the
        # rest held where the sweep left them
        free = observed & (x > 0.0) & (x < 1.0)
        if not free.any():
            continue
        try:
            y = np.linalg.solve(H[np.ix_(free, free)],
                                -(q.g[free] + w_r + H[free] @ np.where(free, 0.0, x)))
        except np.linalg.LinAlgError:
            continue
        if not ((y > 0.0).all() and (y < 1.0).all()):
            continue
        x_face = x.copy()
        x_face[free] = y
        hx_face = H @ x_face
        f_face = f(x_face, hx_face)
        if f_face < trace[-1]:
            x, hx = x_face, hx_face
            xs, hxs = x.tolist(), hx.tolist()
            trace.append(f_face)
    return x, trace


def twist_rows(points, grads) -> np.ndarray:
    """(M, 6) Jacobian [p x g, g] for a left twist (omega, tau) of M
    residuals, residual i depending only on camera-frame point points[i]
    with gradient grads[i] (M, 3) there. The cross product is written
    column by column, each as np.cross rounds it."""
    (px, py, pz), (gx, gy, gz) = points.T, grads.T
    J = np.empty((len(grads), 6))
    np.subtract(py * gz, pz * gy, out=J[:, 0])
    np.subtract(pz * gx, px * gz, out=J[:, 1])
    np.subtract(px * gy, py * gx, out=J[:, 2])
    J[:, 3:] = grads
    return J


def backtrack(cur, full, bound: float, evaluate):
    """(point, value, halvings) for the first of `full` and up to four
    repeated midpoints 0.5 * (cand + cur) whose value, whatever
    `evaluate` returned for it, compares `<= bound`; (None, None, 4)
    when none does. The fitter's joint step and the rig refinement both
    use it."""
    cand = full
    for halvings in range(_MAX_HALVINGS + 1):
        value = evaluate(cand)
        if value <= bound:
            return cand, value, halvings
        cand = 0.5 * (cand + cur)
    return None, None, _MAX_HALVINGS


@dataclass(frozen=True, order=True)
class _Evaluation:
    """The objective at one (pose, x) on a frozen correspondence set,
    with what it was computed from: the pose, the mesh vertices of x
    through it, and the residual rows (idx, grad, r) on the set, or
    None when only the value was asked for. Evaluations compare by their
    objective alone, so one can be the bound that `backtrack` scores
    candidates against."""
    f: float
    pose: RigidPose = field(compare=False)
    verts_cam: np.ndarray = field(compare=False)
    rows: tuple | None = field(compare=False)


def _evaluate(pose: RigidPose, verts_cam, x, corrs: CorrespondenceSet, landmarks,
              intr, cfg: SolverConfig, gradients: bool = True) -> _Evaluation:
    """Evaluate the joint objective at (pose, x) for the mesh vertices of
    x, given as `verts_cam` through the pose. Without `gradients` the
    residual rows are not kept, and the value is the same, bit for bit."""
    idx, grad, r = _residual_rows(verts_cam, corrs, landmarks, intr, cfg, gradients)
    f = float(r @ r) + cfg.w_r * float(np.sum(np.abs(x)))
    return _Evaluation(f, pose, verts_cam, (idx, grad, r) if gradients else None)


def _evaluate_at(model: BlendshapeModel, pose: RigidPose, x, corrs,
                 landmarks, intr, cfg: SolverConfig,
                 gradients: bool = True) -> _Evaluation:
    """Build the mesh of x and evaluate the joint objective at (pose, x)."""
    verts = evaluate_mesh(model, x).vertices
    return _evaluate(pose, pose.apply(verts), x, corrs, landmarks, intr, cfg, gradients)


def evaluate_objective(model: BlendshapeModel, pose: RigidPose, x,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, cfg: SolverConfig) -> float:
    """Exact (non-linearized) objective value at (pose, x)."""
    x = np.asarray(x, dtype=float)
    return _evaluate_at(model, pose, x, corrs, landmarks, intr, cfg, gradients=False).f


def initial_pose_from_depth(mesh: Mesh, frame: DepthFrame, intr: CameraIntrinsics,
                            landmarks: LandmarkSet | None = None) -> RigidPose:
    """Coarse pose guess for a cold fit: the landmark start when the
    frame's landmarks allow it, else the depth-centroid start.

    Landmark start: a landmark is usable when its confidence is positive
    and the pixel (floor(u), floor(v)) under it is inside the image with
    valid depth; its point is its pixel backprojected at that depth. With
    at least `_MIN_LANDMARKS` usable landmarks whose mesh vertices are not
    collinear, the mesh's landmark vertices are aligned rigidly to those
    points, each weighted by its confidence, in closed form (Horn 1987,
    "Closed-form solution of absolute orientation using unit
    quaternions"); the quaternion has w >= 0. Depth-centroid start: the
    mesh centroid moved onto the centroid of the valid depth pixels,
    identity rotation. The fitter's joint steps do the rest of the
    alignment. Raises TrackingError when the frame has fewer than 50
    valid depth values, ValueError when a landmark names a vertex the
    mesh does not have.
    """
    if landmarks is not None:
        landmarks.check_vertices(mesh.vertex_count)
    n_valid = np.count_nonzero(frame.values > 0.0)
    if n_valid < _MIN_DEPTH_PIXELS:
        raise TrackingError(f"no start for a cold fit: {n_valid} valid depth "
                            f"pixels < required {_MIN_DEPTH_PIXELS}")
    if landmarks is not None and len(landmarks):
        pose = _landmark_pose(mesh, frame, intr, landmarks)
        if pose is not None:
            return pose
    rows, cols = np.divmod(np.flatnonzero(frame.values > 0.0), frame.width)
    cloud = backproject(intr, cols + 0.5, rows + 0.5,
                        frame.values[rows, cols].astype(np.float64))
    t = cloud.mean(axis=0) - mesh.vertices.mean(axis=0)
    return RigidPose(np.array([1.0, 0.0, 0.0, 0.0]), t)


def _landmark_pose(mesh: Mesh, frame: DepthFrame, intr: CameraIntrinsics,
                   landmarks: LandmarkSet) -> RigidPose | None:
    """`initial_pose_from_depth`'s landmark start, or None when too few
    landmarks are usable or their vertices are collinear."""
    u, v = landmarks.pixels.T
    ix, iy = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
    inside = (ix >= 0) & (ix < frame.width) & (iy >= 0) & (iy < frame.height)
    depth = np.zeros(len(landmarks))
    depth[inside] = frame.values[iy[inside], ix[inside]]
    use = np.flatnonzero((landmarks.confidences > 0.0) & (depth > 0.0))
    if len(use) < _MIN_LANDMARKS:
        return None
    P = mesh.vertices[landmarks.vertex_indices[use]]
    if np.linalg.matrix_rank(P - P[0]) < 2:
        return None
    Q = backproject(intr, u[use], v[use], depth[use])
    w = landmarks.confidences[use] / landmarks.confidences[use].sum()
    p_bar, q_bar = w @ P, w @ Q
    S = (w[:, None] * (P - p_bar)).T @ (Q - q_bar)
    (sxx, sxy, sxz), (syx, syy, syz), (szx, szy, szz) = S
    K = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, syy - sxx - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, szz - sxx - syy],
    ])
    q = np.linalg.eigh(K)[1][:, -1]
    q = -q if q[0] < 0.0 else q
    return RigidPose(q, q_bar - quat_to_matrix(q) @ p_bar)


def fit_frame(model: BlendshapeModel, frame: DepthFrame,
              landmarks: LandmarkSet | None, intr: CameraIntrinsics,
              prev: FrameFit | None = None, cfg: SolverConfig | None = None,
              init_pose: RigidPose | None = None) -> FrameFit:
    """Estimate pose and coefficients for one frame.

    The pose starts from `init_pose` if given, else from `prev` (the
    previous frame's fit), else from `initial_pose_from_depth` on this
    frame and its landmarks (the landmark start, or the depth-centroid
    start when too few landmarks are usable), which the fitter's own
    steps then align; a frame with too little depth for a start fails
    with TrackingError. The coefficients start from `prev.x`, else zero.
    Each outer iteration refreshes the depth correspondences, gated at
    2 cm, then takes one Gauss-Newton step on the pose and the
    coefficients together on that frozen set: the coefficients are
    solved on the quadratic with the twist eliminated, the twist is read
    back from them, and the stacked step is halved toward the current
    state until it does not increase the objective, so the recorded
    per-iteration trace is non-increasing. This repeats until an
    iteration lowers the full objective by at most `_OBJECTIVE_REL_TOL`
    of its start value (the fit converged), for at most
    `_MAX_ITERATIONS` iterations; each coefficient solve is capped by
    `solve_l1_box`'s default sweep count. When the twist rows are
    singular (a plane against a plane) the step keeps the pose and moves
    the coefficients alone.
    Raises TrackingError when the frame carries no usable data,
    ValueError when a landmark names a vertex the model does not have.
    """
    cfg = cfg or SolverConfig()
    if landmarks is not None:
        landmarks.check_vertices(model.vertex_count)
    if init_pose is not None:
        pose = init_pose
    elif prev is not None:
        pose = prev.pose
    else:
        pose = initial_pose_from_depth(model.neutral, frame, intr, landmarks)
    x = np.zeros(model.n) if prev is None else np.asarray(prev.x, dtype=float).copy()
    return _fit(model, frame, landmarks, intr, pose, x, cfg, _MAX_DISTANCE)


def align_rigid(mesh: Mesh, frame: DepthFrame, intr: CameraIntrinsics,
                init: RigidPose) -> tuple[RigidPose, FrameFit]:
    """Point-to-plane rigid alignment of `mesh` to the depth of `frame`
    from `init`; returns the refined pose and the fit that produced it.

    This is `fit_frame`'s loop on a rigid model, the mesh with one
    all-zero shape held at 0, with no landmarks, the default weights and
    a 5 cm match gate, which pulls in starts 5 degrees and 2 cm off that
    `fit_frame`'s 2 cm gate loses. The zero shape has H_kk = 0, so
    `solve_l1_box` leaves it at 0 and each joint step is the
    Gauss-Newton twist. On a plane against a plane the twist is singular
    and `init` comes back unchanged.
    Raises TrackingError when no vertex matches the frame.
    """
    rigid = BlendshapeModel(mesh, np.zeros((1, mesh.vertex_count, 3)), ("rigid",))
    fit = _fit(rigid, frame, None, intr, init, np.zeros(1), SolverConfig(),
               _RIGID_MAX_DISTANCE)
    return fit.pose, fit


def _fit(model: BlendshapeModel, frame: DepthFrame, landmarks: LandmarkSet | None,
         intr: CameraIntrinsics, pose: RigidPose, x, cfg: SolverConfig,
         gate: float) -> FrameFit:
    """The outer iterations of `fit_frame` from (pose, x), depth matches
    gated at `gate` meters."""
    n_land = 0 if landmarks is None else len(landmarks)
    trace: list[float] = []
    converged = False
    corr_count = 0
    try:
        verts_cam = pose.apply(evaluate_mesh(model, x).vertices)
        for _ in range(_MAX_ITERATIONS):
            corrs = find_correspondences(verts_cam, frame, intr, gate)
            corr_count = len(corrs)
            if corr_count == 0 and n_land == 0:
                raise TrackingError("no depth correspondences and no landmarks")

            cur = _evaluate(pose, verts_cam, x, corrs, landmarks, intr, cfg)
            f_ref = cur.f

            # one Gauss-Newton step on (twist, x): the quadratic has the
            # twist eliminated, and the twist is read back from the
            # solved x; the landmark linearization can overshoot, so the
            # stacked step falls back toward (0, x) until it descends
            idx, grad, _ = cur.rows
            quad, T, t0 = assemble_quadratic(
                model, pose, corrs, landmarks, intr, x, cfg, rows=cur.rows,
                eliminate=twist_rows(cur.verts_cam[idx], grad))
            x_new, _ = solve_l1_box(quad, cfg.w_r, x0=x)
            step, scored, _ = backtrack(
                np.concatenate([np.zeros(6), x]),
                np.concatenate([T @ x_new + t0, x_new]), cur,
                lambda s: _evaluate_at(model, apply_twist(pose, s[:3], s[3:6]), s[6:],
                                       corrs, landmarks, intr, cfg, gradients=False))
            if step is not None:
                x, cur = step[6:], scored
            pose, verts_cam = cur.pose, cur.verts_cam

            if trace and cur.f > trace[-1]:
                # the refreshed set raised the raw sum and the descent on
                # it could not get back below the recorded trace; stop
                # rather than record an increase
                break
            trace.append(cur.f)
            if f_ref - cur.f <= _OBJECTIVE_REL_TOL * max(1.0, abs(f_ref)):
                converged = True
                break
    except BehindCameraError as exc:
        raise TrackingError(f"geometry moved behind the camera: {exc}") from exc

    return FrameFit(pose=pose, x=x, objective=cur.f, objective_trace=tuple(trace),
                    correspondence_count=corr_count, landmark_count=n_land,
                    converged=converged)


def track_sequence(model: BlendshapeModel, frames, landmarks_per_frame,
                   intr: CameraIntrinsics,
                   cfg: SolverConfig | None = None) -> TrackResult:
    """Fit every frame of a sequence, carrying the previous fit forward.

    `landmarks_per_frame` is a list parallel to `frames` (entries may be
    None). Each frame is fit by `fit_frame` from the last fit that
    succeeded, or cold, from its own landmarks and depth
    (`initial_pose_from_depth`), when there is none yet. Frames that
    fail to fit are recorded as gaps and do not stop the tracker; if
    every frame fails, TrackingError is raised with the first frame's
    reason.
    """
    cfg = cfg or SolverConfig()
    frames = list(frames)
    lms = list(landmarks_per_frame)
    if len(lms) != len(frames):
        raise DimensionMismatchError(
            f"{len(lms)} landmark sets for {len(frames)} frames")

    fits: list[FrameFit | None] = []
    status: list[str] = []
    seq_frames = []
    last_fit = None
    for frame, lm in zip(frames, lms):
        try:
            fit = fit_frame(model, frame, lm, intr, prev=last_fit, cfg=cfg)
        except TrackingError as exc:
            fits.append(None)
            status.append(f"failed: {exc}")
            log.warning("frame %d failed: %s", frame.frame_index, exc)
            continue
        fits.append(fit)
        status.append("ok")
        last_fit = fit
        seq_frames.append(SequenceFrame(frame_index=frame.frame_index,
                                        timestamp=frame.timestamp,
                                        pose=fit.pose,
                                        coefficients=fit.x))
    if last_fit is None:
        first = f": frame {frames[0].frame_index} {status[0]}" if frames else ""
        raise TrackingError(f"all frames failed to fit{first}")
    seq = BscSequence(names=model.names, frames=tuple(seq_frames))
    return TrackResult(sequence=seq, frame_status=tuple(status), fits=tuple(fits))
