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
term is linearized once per outer iteration (Gauss-Newton). The
resulting box-constrained lasso is solved by cyclic coordinate descent
with a closed-form soft-threshold update, which decreases the objective
at every single coordinate update.

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
recorded per-iteration trace is non-increasing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .correspondence import (
    CorrespondenceSet,
    DepthFrame,
    GateConfig,
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
    align_rigid,
    backtrack,
    initial_pose_from_depth,
    pose_step,
    twist_rows,
)

log = logging.getLogger(__name__)

_GATES = GateConfig()
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
        if self.w_d < 0 or self.w_l < 0 or self.w_r < 0:
            raise ValueError("weights must be non-negative")
        if self.outer_iterations < 1 or self.gs_sweeps < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.objective_rel_tol <= 0:
            raise ValueError("objective_rel_tol must be positive")


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
                       cfg: SolverConfig) -> QuadraticForm:
    """Build the smooth part of the objective as a quadratic in x.

    The form is ||r + a (x - x_lin)||^2 for the weighted residual rows r
    at `x_lin` and a = dr/dx: exact for the depth term, the Gauss-Newton
    linearization at `x_lin` for the landmark term. Raises NoDataError
    when there are neither correspondences nor landmarks.
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
    verts_cam = pose.apply(evaluate_mesh(model, x_lin).vertices)
    idx, grad, r = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    # n . (R b) = (R^T n) . b: rotate the m gradients, not the basis
    a = np.einsum("mc,kmc->mk", grad @ rot, model.basis[:, idx, :])    # (m, n)
    h = r - a @ x_lin
    return QuadraticForm(2.0 * (a.T @ a), 2.0 * (a.T @ h), float(h @ h))


def _soft(rho: float, lam: float) -> float:
    if rho > lam:
        return rho - lam
    if rho < -lam:
        return rho + lam
    return 0.0


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
    diag = np.diag(H).copy()
    hx = H @ x

    def f() -> float:
        return float(0.5 * x @ hx + q.g @ x + q.c + w_r * np.sum(np.abs(x)))

    trace = [f()]
    for _ in range(sweeps):
        max_move = 0.0
        for k in range(n):
            if diag[k] <= 0.0:
                continue
            rho = -(q.g[k] + hx[k] - diag[k] * x[k])
            new = min(max(_soft(rho, w_r) / diag[k], 0.0), 1.0)
            delta = new - x[k]
            if delta != 0.0:
                hx += H[:, k] * delta
                x[k] = new
                max_move = max(max_move, abs(delta))
            if record_updates:
                trace.append(f())
        if not record_updates:
            trace.append(f())
        if max_move <= _SWEEP_TOL:
            break
    return x, trace


def _objective_on(verts_model, pose, x, corrs: CorrespondenceSet,
                  landmarks, intr, cfg: SolverConfig) -> float:
    """Joint objective at (pose, x) for fixed model-space vertices and a
    frozen correspondence set."""
    _, _, r = _residual_rows(pose.apply(verts_model), corrs, landmarks, intr, cfg)
    return float(r @ r) + cfg.w_r * float(np.sum(np.abs(x)))


def evaluate_objective(model: BlendshapeModel, pose: RigidPose, x,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, cfg: SolverConfig) -> float:
    """Exact (non-linearized) objective value at (pose, x)."""
    x = np.asarray(x, dtype=float)
    return _objective_on(evaluate_mesh(model, x).vertices, pose, x,
                         corrs, landmarks, intr, cfg)


def _pose_step(verts_model, pose, x, corrs, landmarks, intr,
               cfg: SolverConfig, f_cur: float):
    """One Gauss-Newton twist step on the pose against the full
    objective, on a frozen correspondence set: the shared step on the
    twist rows of every weighted residual. Keeps the old pose when every
    halved step increases the objective or the normal equations are
    singular."""
    verts_cam = pose.apply(verts_model)
    idx, grad, r = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    try:
        pose, f_cur, _, _ = pose_step(
            pose, twist_rows(verts_cam[idx], grad), r, f_cur,
            lambda cand: _objective_on(verts_model, cand, x, corrs, landmarks,
                                       intr, cfg))
    except DegenerateGeometryError:
        pass
    return pose, f_cur


def fit_frame(model: BlendshapeModel, frame: DepthFrame,
              landmarks: LandmarkSet | None, intr: CameraIntrinsics,
              prev: FrameFit | None = None, cfg: SolverConfig | None = None,
              init_pose: RigidPose | None = None) -> FrameFit:
    """Estimate pose and coefficients for one frame.

    Initialization comes from `init_pose` if given, else from `prev`
    (the previous frame's fit), else a depth-centroid guess followed by
    rigid pre-alignment of the neutral mesh. Each outer iteration
    refreshes the depth correspondences, then alternates a Gauss-Newton
    pose step with a coefficient re-solve on that frozen set until the
    full objective stalls; every step is halved until it does not
    increase the objective, so the recorded per-iteration trace is
    non-increasing. Raises TrackingError when the frame carries no
    usable data, ValueError when a landmark names a vertex the model
    does not have.
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
        pose = RigidPose.identity()
        try:
            pose = initial_pose_from_depth(model.neutral, frame, intr)
            pose, _ = align_rigid(model.neutral, frame, intr, pose)
        except (InsufficientDataError, DegenerateGeometryError):
            pass
    x = np.zeros(model.n) if prev is None else np.asarray(prev.x, dtype=float).copy()

    trace: list[float] = []
    converged = False
    corr_count = 0
    try:
        mesh = evaluate_mesh(model, x)
        for _ in range(cfg.outer_iterations):
            corrs = find_correspondences(pose.apply(mesh.vertices),
                                         frame, intr, _GATES)
            corr_count = len(corrs)
            if corr_count == 0 and n_land == 0:
                raise TrackingError("no depth correspondences and no landmarks")

            f_ref = f_cur = _objective_on(mesh.vertices, pose, x, corrs,
                                          landmarks, intr, cfg)

            # coefficients first: the expression solve tolerates slightly
            # stale associations far better than the pose does
            quad = assemble_quadratic(model, pose, corrs, landmarks, intr,
                                      x, cfg)
            x_cand, _ = solve_l1_box(quad, cfg.w_r, x0=x, sweeps=cfg.gs_sweeps)
            # the landmark linearization can overshoot; fall back toward
            # the previous coefficients until it descends
            x_cand, f_cand, _ = backtrack(
                x, x_cand, f_cur,
                lambda xc: evaluate_objective(model, pose, xc, corrs, landmarks, intr, cfg))
            if x_cand is not None:
                x, f_cur = x_cand, f_cand
                mesh = evaluate_mesh(model, x)

            pose, f_cur = _pose_step(mesh.vertices, pose, x, corrs,
                                     landmarks, intr, cfg, f_cur)

            if trace and f_cur > trace[-1]:
                # the refreshed set raised the raw sum and the descent on
                # it could not get back below the recorded trace; stop
                # rather than record an increase
                break
            trace.append(f_cur)
            if f_ref - f_cur <= cfg.objective_rel_tol * max(1.0, abs(f_ref)):
                converged = True
                break
    except BehindCameraError as exc:
        raise TrackingError(f"geometry moved behind the camera: {exc}") from exc

    return FrameFit(pose=pose, x=x, objective_trace=tuple(trace),
                    correspondence_count=corr_count, landmark_count=n_land,
                    converged=converged)


def track_sequence(model: BlendshapeModel, frames, landmarks_per_frame,
                   intr: CameraIntrinsics, cfg: SolverConfig | None = None,
                   init_pose: RigidPose | None = None) -> TrackResult:
    """Fit every frame of a sequence, carrying the previous fit forward.

    `landmarks_per_frame` is a list parallel to `frames` (entries may be
    None). Frames that fail to fit are recorded as gaps and do not stop
    the tracker; if every frame fails, TrackingError is raised.
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
            fit = fit_frame(model, frame, lm, intr, prev=last_fit, cfg=cfg,
                            init_pose=init_pose if last_fit is None else None)
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
        raise TrackingError("all frames failed to fit")
    seq = BscSequence(names=model.names, frames=tuple(seq_frames))
    return TrackResult(sequence=seq, frame_status=tuple(status), fits=tuple(fits))
