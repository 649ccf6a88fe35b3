"""Blendshape coefficient estimation.

The per-frame objective combines a point-to-plane depth term, a
reprojection term for 2D landmarks, and an L1 penalty on the
coefficient vector:

    f(x) = w_d * sum_i (n_i . (v_i(x) - p_i))^2
         + w_l * sum_j ||proj(v_j(x)) - u_j||^2
         + w_r * ||x||_1        subject to 0 <= x <= 1

with v(x) = b0 + B x pushed through the rigid pose. Sums are raw, not
averaged; the weights absorb all scaling. The depth term is exactly
quadratic in x; the landmark term is linearized once per outer
iteration (Gauss-Newton). The resulting box-constrained lasso is solved
by cyclic coordinate descent with a closed-form soft-threshold update,
which decreases the objective at every single coordinate update.

Frame fitting refreshes the depth correspondences once per outer
iteration, re-solves the coefficients on the frozen set, then takes one
Gauss-Newton step on the rigid pose against the same full objective:
the point-to-plane step of `icp.pose_step` with weighted landmark
reprojection rows appended, scored on the frozen set.
The coefficient solve runs first because it tolerates slightly stale
correspondences far better than the pose does: point-to-plane rigid
alignment of a wrongly-expressed face can slide into a cheaper but
wrong pose, while the expression solve attributes most displacement
correctly even on early correspondence sets. Every step is halved until
it does not increase the objective, so the recorded per-iteration trace
is non-increasing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    IcpConfig,
    InsufficientDataError,
    align_rigid,
    initial_pose_from_depth,
    point_to_plane_rows,
    pose_step,
)

log = logging.getLogger(__name__)

_MAX_HALVINGS = 4


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
    gates: GateConfig = field(default_factory=GateConfig)
    icp: IcpConfig = field(default_factory=IcpConfig)

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


def assemble_quadratic(model: BlendshapeModel, pose: RigidPose,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, x_lin,
                       cfg: SolverConfig) -> QuadraticForm:
    """Build the smooth part of the objective as a quadratic in x.

    The depth term is exact. The landmark term is the Gauss-Newton
    linearization of the reprojection residual at `x_lin`. Raises
    NoDataError when there are neither correspondences nor landmarks.
    """
    n = model.n
    x_lin = np.asarray(x_lin, dtype=float)
    if x_lin.shape != (n,):
        raise DimensionMismatchError(f"x_lin has shape {x_lin.shape}, expected ({n},)")
    n_land = 0 if landmarks is None else len(landmarks)
    if len(corrs) == 0 and n_land == 0:
        raise NoDataError("no depth correspondences and no landmarks")

    H = np.zeros((n, n))
    g = np.zeros(n)
    c = 0.0
    rot = quat_to_matrix(pose.rotation)

    if len(corrs) > 0:
        vidx = corrs.vertex_indices
        nrm = corrs.normals                                   # (M, 3)
        # rotated basis displacements restricted to matched vertices
        rb = np.einsum("rc,kmc->kmr", rot, model.basis[:, vidx, :])   # (n, M, 3)
        a = np.einsum("mr,kmr->mk", nrm, rb)                  # (M, n)
        base = model.neutral.vertices[vidx] @ rot.T + pose.translation
        d = np.einsum("mr,mr->m", nrm, base - corrs.points)   # (M,)
        H += 2.0 * cfg.w_d * (a.T @ a)
        g += 2.0 * cfg.w_d * (a.T @ d)
        c += cfg.w_d * float(d @ d)

    if n_land > 0:
        if intr is None:
            raise ValueError("landmark terms require camera intrinsics")
        landmarks.check_vertices(model.vertex_count)
        verts = pose.apply(evaluate_mesh(model, x_lin).vertices)
        conf = landmarks.confidences
        for j in range(n_land):
            vj = landmarks.vertex_indices[j]
            v_cam = verts[vj]
            jac = landmark_jacobian(v_cam, intr)              # (2, 3)
            gj = jac @ (rot @ model.basis[:, vj, :].T)        # (2, n)
            r0 = project(intr, v_cam) - landmarks.pixels[j]
            h = r0 - gj @ x_lin
            w = cfg.w_l * conf[j]
            H += 2.0 * w * (gj.T @ gj)
            g += 2.0 * w * (gj.T @ h)
            c += w * float(h @ h)

    return QuadraticForm(H, g, c)


def _soft(rho: float, lam: float) -> float:
    if rho > lam:
        return rho - lam
    if rho < -lam:
        return rho + lam
    return 0.0


def solve_l1_box(q: QuadraticForm, w_r: float, x0=None, sweeps: int = 50,
                 tol: float = 1e-10, record_updates: bool = False):
    """Cyclic coordinate descent for min q(x) + w_r ||x||_1 on [0, 1]^n.

    Each coordinate update is the exact minimizer of the one-dimensional
    restriction (soft threshold, then clamp to the box), so the recorded
    objective never increases. Coordinates with H_kk == 0 do not appear
    in the objective and are left at their start value.

    Returns (x, trace) where trace[0] is the objective at x0 and later
    entries are per-sweep values, or per-coordinate-update values when
    record_updates is set. Stops early once a full sweep moves no
    coordinate by more than `tol`.
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
        if max_move <= tol:
            break
    return x, trace


def _objective_on(verts_model, pose, x, corrs: CorrespondenceSet,
                  landmarks, intr, cfg: SolverConfig) -> float:
    """Joint objective at (pose, x) for fixed model-space vertices and a
    frozen correspondence set."""
    verts = pose.apply(verts_model)
    total = cfg.w_r * float(np.sum(np.abs(x)))
    if len(corrs) > 0:
        r = corrs.residuals(verts)
        total += cfg.w_d * float(r @ r)
    if landmarks is not None and len(landmarks) > 0:
        if intr is None:
            raise ValueError("landmark terms require camera intrinsics")
        res = project(intr, verts[landmarks.vertex_indices]) - landmarks.pixels
        total += cfg.w_l * float(np.sum(landmarks.confidences * np.sum(res * res, axis=1)))
    return total


def evaluate_objective(model: BlendshapeModel, pose: RigidPose, x,
                       corrs, landmarks: LandmarkSet | None,
                       intr: CameraIntrinsics | None, cfg: SolverConfig) -> float:
    """Exact (non-linearized) objective value at (pose, x)."""
    x = np.asarray(x, dtype=float)
    return _objective_on(evaluate_mesh(model, x).vertices, pose, x,
                         corrs, landmarks, intr, cfg)


def _skew(v) -> np.ndarray:
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _pose_step(verts_model, pose, x, corrs, landmarks, intr,
               cfg: SolverConfig, f_cur: float):
    """One Gauss-Newton twist step on the pose against the full
    objective, on a frozen correspondence set: the shared point-to-plane
    step with weighted landmark rows appended. Keeps the old pose when
    every halved step increases the objective or the normal equations
    are singular."""
    verts_cam = pose.apply(verts_model)
    rows_j = []
    rows_r = []
    if len(corrs) > 0:
        jac, r = point_to_plane_rows(verts_cam, corrs)
        sw = np.sqrt(cfg.w_d)
        rows_j.append(sw * jac)
        rows_r.append(sw * r)
    if landmarks is not None and len(landmarks) > 0:
        for j in range(len(landmarks)):
            vj = verts_cam[landmarks.vertex_indices[j]]
            jac = landmark_jacobian(vj, intr)                 # (2, 3)
            # left twist: dv/domega = -[v]x, dv/dtau = identity
            jp = np.concatenate([jac @ (-_skew(vj)), jac], axis=1)
            sw = np.sqrt(cfg.w_l * landmarks.confidences[j])
            rows_j.append(sw * jp)
            rows_r.append(sw * (project(intr, vj) - landmarks.pixels[j]))
    try:
        pose, f_cur, _, _ = pose_step(
            pose, np.concatenate(rows_j, axis=0), np.concatenate(rows_r), f_cur,
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
    rigid pre-alignment of the neutral mesh under `cfg.icp`. Each outer
    iteration refreshes the depth correspondences, then alternates a
    Gauss-Newton pose step with a coefficient re-solve on that frozen
    set until the full objective stalls; every step is halved until it
    does not increase the objective, so the recorded per-iteration trace
    is non-increasing. Raises TrackingError when the frame carries no
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
            pose, _ = align_rigid(model.neutral, frame, intr, pose, cfg.icp)
        except (InsufficientDataError, DegenerateGeometryError):
            pass
    x = np.zeros(model.n) if prev is None else np.asarray(prev.x, dtype=float).copy()

    trace: list[float] = []
    converged = False
    corr_count = 0
    try:
        for _ in range(cfg.outer_iterations):
            mesh = evaluate_mesh(model, x)
            corrs = find_correspondences(pose.apply(mesh.vertices),
                                         frame, intr, cfg.gates)
            corr_count = len(corrs)
            if corr_count == 0 and n_land == 0:
                raise TrackingError("no depth correspondences and no landmarks")

            f_ref = _objective_on(mesh.vertices, pose, x, corrs, landmarks,
                                  intr, cfg)
            f_cur = f_ref

            # coefficients first: the expression solve tolerates slightly
            # stale associations far better than the pose does
            quad = assemble_quadratic(model, pose, corrs, landmarks, intr,
                                      x, cfg)
            x_cand, _ = solve_l1_box(quad, cfg.w_r, x0=x, sweeps=cfg.gs_sweeps)
            # the landmark linearization can overshoot; fall back toward
            # the previous coefficients until it descends
            f_cand = evaluate_objective(model, pose, x_cand, corrs,
                                        landmarks, intr, cfg)
            for _h in range(_MAX_HALVINGS):
                if f_cand <= f_cur:
                    break
                x_cand = 0.5 * (x_cand + x)
                f_cand = evaluate_objective(model, pose, x_cand, corrs,
                                            landmarks, intr, cfg)
            if f_cand <= f_cur:
                x = x_cand
                f_cur = f_cand
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
