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
of the quadratic's Jacobian is computed only for the shapes that move
the row's vertex, read from the model's per-vertex shape table, built
once per model; the rest of the row is exact zeros. A model whose
shapes are not localized enough for the table to pay (a personalized
basis has no exact zeros) is gathered whole instead. The resulting
box-constrained lasso is solved by cyclic coordinate descent with a
closed-form soft-threshold update, which decreases the objective at
every single coordinate update; the scalar loop runs on Python floats,
which round exactly as float64 does.

Frame fitting refreshes the depth correspondences once per outer
iteration, re-solves the coefficients on the frozen set, then takes one
Gauss-Newton step on the rigid pose against the same full objective:
`icp.pose_step` on the twist rows of every weighted residual, depth and
landmark alike, scored on the frozen set.
The coefficient solve runs first because it tolerates slightly stale
correspondences far better than the pose does: point-to-plane rigid
alignment of a wrongly-expressed face can slide into a cheaper but
wrong pose, while the expression solve attributes most displacement
correctly even on early correspondence sets. Both steps go through
`icp.backtrack`, halved until they do not increase the objective, so the
recorded per-iteration trace is non-increasing. The fitter holds one
evaluation of its current (pose, x): the objective, the mesh vertices,
the same vertices in the camera frame and the residual rows on the
current correspondence set. The correspondence search, the quadratic
and the pose step read it. Evaluations compare by their objective, so
the held one is the bound each step's candidates are scored against,
and the evaluation the step hands back (the accepted candidate's, or
the bound itself when every candidate is rejected) is held next; an
outer iteration builds one mesh per scored coefficient candidate and
nothing twice.
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
    NoDataError,
    find_correspondences,
    landmark_jacobian,
)
from .geometry import (
    BehindCameraError,
    BlendshapeModel,
    BscSequence,
    CameraIntrinsics,
    DimensionMismatchError,
    RigidPose,
    SequenceFrame,
    evaluate_mesh,
    project,
    quat_to_matrix,
)
from .icp import (
    DegenerateGeometryError,
    InsufficientDataError,
    align_rigid,  # noqa: F401  not called; perfbench/tracer.py wraps it by this name
    backtrack,
    initial_pose_from_depth,
    pose_step,
    twist_rows,
)

log = logging.getLogger(__name__)

_MAX_DISTANCE = 0.02            # meters, the depth match gate
_SWEEP_TOL = 1e-10


class TrackingError(RuntimeError):
    """A frame (or a whole sequence) could not be fit."""


@dataclass(frozen=True)
class SolverConfig:
    """Weights and iteration limits for coefficient fitting.

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
    outer_iterations: int = 10
    gs_sweeps: int = 50
    objective_rel_tol: float = 1e-6

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(0.0 <= w < math.inf for w in (self.w_d, self.w_l, self.w_r)):
            raise ValueError("weights must be finite and non-negative")
        if not (self.outer_iterations >= 1 and self.gs_sweeps >= 1):
            raise ValueError("iteration counts must be >= 1")
        if not 0.0 < self.objective_rel_tol < math.inf:
            raise ValueError("objective_rel_tol must be positive and finite")


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
    def _of_rows(cls, a, h) -> "QuadraticForm":
        """||a x + h||^2, the fitter's form: H = 2 a^T a is symmetric PSD
        by construction, so only a non-finite H or g is checked for. H is
        still symmetrized exactly, as the constructor does, because
        solve_l1_box updates with rows of H in place of columns."""
        H = 2.0 * (a.T @ a)
        g = 2.0 * (a.T @ h)
        if not (np.isfinite(H).all() and np.isfinite(g).all()):
            raise ValueError("quadratic form has non-finite entries")
        q = object.__new__(cls)
        object.__setattr__(q, "H", 0.5 * (H + H.T))
        object.__setattr__(q, "g", g)
        object.__setattr__(q, "c", float(h @ h))
        return q

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.H @ x + self.g @ x + self.c)


@dataclass(frozen=True)
class FrameFit:
    """Result of fitting one frame. `x` is the coefficient estimate."""
    pose: RigidPose
    x: np.ndarray
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
                   intr: CameraIntrinsics | None, cfg: SolverConfig):
    """The smooth part of the objective as weighted residual rows.

    Returns (idx (m,), grad (m, 3), r (m,)): row i is a function of the
    camera-frame vertex verts_cam[idx[i]] alone, with gradient grad[i]
    there, and r . r is the weighted depth plus landmark sum. One row per
    depth match, sqrt(w_d) n . (v - p); two per landmark (u and v),
    sqrt(w_l conf) (proj(v) - u) with the projection Jacobian rows.
    """
    sw = np.sqrt(cfg.w_d)
    idx = [corrs.vertex_indices]
    grad = [sw * corrs.normals]
    res = [sw * corrs.residuals(verts_cam)]
    if landmarks is not None and len(landmarks) > 0:
        if intr is None:
            raise ValueError("landmark terms require camera intrinsics")
        v = verts_cam[landmarks.vertex_indices]
        sw = np.sqrt(cfg.w_l * landmarks.confidences)[:, None]     # (L, 1)
        idx.append(np.repeat(landmarks.vertex_indices, 2))
        grad.append((sw[:, :, None] * landmark_jacobian(v, intr)).reshape(-1, 3))
        res.append((sw * (project(intr, v) - landmarks.pixels)).reshape(-1))
    return np.concatenate(idx), np.concatenate(grad), np.concatenate(res)


def assemble_quadratic(model: BlendshapeModel, pose: RigidPose,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, x_lin,
                       cfg: SolverConfig, rows=None) -> QuadraticForm:
    """Build the smooth part of the objective as a quadratic in x.

    The form is ||r + a (x - x_lin)||^2 for the weighted residual rows r
    at `x_lin` and a = dr/dx: exact for the depth term, the Gauss-Newton
    linearization at `x_lin` for the landmark term. The rows are built
    here from the mesh of `x_lin`; `rows` is for `fit_frame` alone,
    which passes the rows of the evaluation it holds at (pose, x_lin) on
    `corrs` instead. Row i of a is read from the model's table of the
    shapes that move vertex idx[i], summing over the three coordinates
    innermost, and scattered into its columns; every other entry is an
    exact zero. The sums and their order are those of a gather from the
    full (n, V, 3) basis, so the form is bit-identical to one; for a
    model whose table is not narrow enough to pay, a is that gather.
    Raises NoDataError when there are neither correspondences nor
    landmarks.
    """
    n = model.n
    x_lin = np.asarray(x_lin, dtype=float)
    if x_lin.shape != (n,):
        raise DimensionMismatchError(f"x_lin has shape {x_lin.shape}, expected ({n},)")
    n_land = 0 if landmarks is None else len(landmarks)
    if len(corrs) == 0 and n_land == 0:
        raise NoDataError("no depth correspondences and no landmarks")
    if n_land > 0:
        landmarks.check_vertices(model.vertex_count)

    rot = quat_to_matrix(pose.rotation)
    if rows is None:
        rows = _evaluate_at(model, pose, x_lin, corrs, landmarks, intr, cfg).rows
    idx, grad, r = rows
    shapes, deltas = model._shape_table
    # n . (R b) = (R^T n) . b: rotate the m gradients, not the basis
    a = np.einsum("mc,mjc->mj", grad @ rot, deltas[idx])     # (m, w) or (m, n)
    if shapes is not None:
        # padded slots land in the extra last column, which is dropped
        full = np.zeros((len(idx), n + 1))
        full[np.arange(len(idx))[:, None], shapes[idx]] = a
        a = full[:, :n]                                              # (m, n)
    h = r - a @ x_lin
    return QuadraticForm._of_rows(a, h)


def solve_l1_box(q: QuadraticForm, w_r: float, x0=None, sweeps: int = 50,
                 record_updates: bool = False):
    """Cyclic coordinate descent for min q(x) + w_r ||x||_1 on [0, 1]^n.

    Each coordinate update is the exact minimizer of the one-dimensional
    restriction (soft threshold, then clamp to the box), so the recorded
    objective never increases. Coordinates with H_kk == 0 do not appear
    in the objective and are left at their start value.

    Returns (x, trace) where trace[0] is the objective at x0 and later
    entries are per-sweep values, or per-coordinate-update values when
    record_updates is set. Stops early once a full sweep moves no
    coordinate by more than 1e-10.

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
        x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
        if x.shape != (n,):
            raise DimensionMismatchError(f"x0 has shape {x.shape}, expected ({n},)")
    if w_r < 0:
        raise ValueError("w_r must be non-negative")

    H = q.H
    hx = H @ x

    def f() -> float:
        return float(0.5 * x @ hx + q.g @ x + q.c + w_r * np.sum(np.abs(x)))

    g, diag, xs, hxs = q.g.tolist(), np.diag(H).tolist(), x.tolist(), hx.tolist()
    trace = [f()]
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
                trace.append(f())
        if not record_updates:
            trace.append(f())
        if max_move <= _SWEEP_TOL:
            break
    return x, trace


@dataclass(frozen=True, order=True)
class _Evaluation:
    """The objective at one (pose, x) on a frozen correspondence set,
    with what it was computed from: the mesh vertices of x, those
    vertices through the pose, and the residual rows (idx, grad, r) on
    the set. Evaluations compare by their objective alone, so one can be
    the bound that `backtrack` and `pose_step` score candidates against."""
    f: float
    verts: np.ndarray = field(compare=False)
    verts_cam: np.ndarray = field(compare=False)
    rows: tuple = field(compare=False)


def _evaluate(verts, verts_cam, x, corrs: CorrespondenceSet, landmarks,
              intr, cfg: SolverConfig) -> _Evaluation:
    """Evaluate the joint objective at x for the mesh vertices `verts` of
    x, given as `verts_cam` through the pose."""
    rows = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    r = rows[2]
    f = float(r @ r) + cfg.w_r * float(np.sum(np.abs(x)))
    return _Evaluation(f, verts, verts_cam, rows)


def _evaluate_at(model: BlendshapeModel, pose: RigidPose, x, corrs,
                 landmarks, intr, cfg: SolverConfig) -> _Evaluation:
    """Build the mesh of x and evaluate the joint objective at (pose, x)."""
    verts = evaluate_mesh(model, x).vertices
    return _evaluate(verts, pose.apply(verts), x, corrs, landmarks, intr, cfg)


def evaluate_objective(model: BlendshapeModel, pose: RigidPose, x,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, cfg: SolverConfig) -> float:
    """Exact (non-linearized) objective value at (pose, x)."""
    x = np.asarray(x, dtype=float)
    return _evaluate_at(model, pose, x, corrs, landmarks, intr, cfg).f


def fit_frame(model: BlendshapeModel, frame: DepthFrame,
              landmarks: LandmarkSet | None, intr: CameraIntrinsics,
              prev: FrameFit | None = None, cfg: SolverConfig | None = None,
              init_pose: RigidPose | None = None) -> FrameFit:
    """Estimate pose and coefficients for one frame.

    The pose starts from `init_pose` if given, else from `prev` (the
    previous frame's fit), else from the depth-centroid start of
    `icp.initial_pose_from_depth` on this frame, which the pose steps
    then align; a frame with too little depth for that start fails with
    TrackingError. Each outer iteration refreshes the depth
    correspondences, then re-solves the coefficients and takes one
    Gauss-Newton pose step on that frozen set, until the full objective
    stalls; each step is halved until it does not increase the
    objective, so the recorded per-iteration trace is non-increasing.
    Raises TrackingError when the frame carries no usable data,
    ValueError when a landmark names a vertex the model does not have.
    """
    cfg = cfg or SolverConfig()
    n_land = 0 if landmarks is None else len(landmarks)
    if n_land:
        landmarks.check_vertices(model.vertex_count)
    if init_pose is not None:
        pose = init_pose
    elif prev is not None:
        pose = prev.pose
    else:
        try:
            pose = initial_pose_from_depth(model.neutral, frame, intr)
        except InsufficientDataError as exc:
            raise TrackingError(f"no start for a cold fit: {exc}") from exc
    x = np.zeros(model.n) if prev is None else np.asarray(prev.x, dtype=float).copy()

    trace: list[float] = []
    converged = False
    corr_count = 0
    try:
        verts = evaluate_mesh(model, x).vertices
        verts_cam = pose.apply(verts)
        for _ in range(cfg.outer_iterations):
            corrs = find_correspondences(verts_cam, frame, intr, _MAX_DISTANCE)
            corr_count = len(corrs)
            if corr_count == 0 and n_land == 0:
                raise TrackingError("no depth correspondences and no landmarks")

            cur = _evaluate(verts, verts_cam, x, corrs, landmarks, intr, cfg)
            f_ref = cur.f

            # coefficients first: the expression solve tolerates slightly
            # stale associations far better than the pose does
            quad = assemble_quadratic(model, pose, corrs, landmarks, intr,
                                      x, cfg, rows=cur.rows)
            x_cand, _ = solve_l1_box(quad, cfg.w_r, x0=x, sweeps=cfg.gs_sweeps)
            # the landmark linearization can overshoot; fall back toward
            # the previous coefficients until it descends
            x_cand, scored, _ = backtrack(
                x, x_cand, cur,
                lambda xc: _evaluate_at(model, pose, xc, corrs, landmarks, intr, cfg))
            if x_cand is not None:
                x, cur = x_cand, scored

            # the pose step on the twist rows of every weighted residual;
            # a singular system keeps the pose
            verts = cur.verts
            idx, grad, r = cur.rows
            try:
                pose, cur, _, _ = pose_step(
                    pose, twist_rows(cur.verts_cam[idx], grad), r, cur,
                    lambda p: _evaluate(verts, p.apply(verts), x, corrs,
                                        landmarks, intr, cfg))
            except DegenerateGeometryError:
                pass
            verts_cam = cur.verts_cam

            if trace and cur.f > trace[-1]:
                # the refreshed set raised the raw sum and the descent on
                # it could not get back below the recorded trace; stop
                # rather than record an increase
                break
            trace.append(cur.f)
            if f_ref - cur.f <= cfg.objective_rel_tol * max(1.0, abs(f_ref)):
                converged = True
                break
    except BehindCameraError as exc:
        raise TrackingError(f"geometry moved behind the camera: {exc}") from exc

    return FrameFit(pose=pose, x=x, objective_trace=tuple(trace),
                    correspondence_count=corr_count, landmark_count=n_land,
                    converged=converged)


def track_sequence(model: BlendshapeModel, frames, landmarks_per_frame,
                   intr: CameraIntrinsics,
                   cfg: SolverConfig | None = None) -> TrackResult:
    """Fit every frame of a sequence, carrying the previous fit forward.

    `landmarks_per_frame` is a list parallel to `frames` (entries may be
    None). Each frame is fit by `fit_frame` from the last fit that
    succeeded, or cold when there is none yet. Frames that fail to fit
    are recorded as gaps and do not stop the tracker; if every frame
    fails, TrackingError is raised with the first frame's reason.
    """
    cfg = cfg or SolverConfig()
    frames = list(frames)
    lms = list(landmarks_per_frame) if landmarks_per_frame is not None else [None] * len(frames)
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
