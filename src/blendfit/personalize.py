"""Example-based adaptation of a generic blendshape basis to one subject.

Given scans of prototypical expressions with known activations (neutral,
mouth open, smile, ...), the neutral scan replaces b0 and the basis is
re-solved per vertex as the regularized least squares

    min_B  sum_e || (b0 + B x_e) - s_e ||^2  +  lambda_B || B - B_generic ||_F^2

which decomposes into independent n x n systems sharing one activation
Gram matrix, so a single factorization covers every vertex and axis.
Optional 2D landmark constraints add Gauss-Newton reprojection rows,
weighted by each landmark's confidence, for the constrained vertices
only; those vertices are re-solved as coupled 3n x 3n systems whose
steps `solver.backtrack` halves against the true objective, so the
result never scores worse than the generic initializer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .correspondence import LandmarkSet, landmark_jacobian
from .geometry import (
    BehindCameraError,
    BlendshapeModel,
    CameraIntrinsics,
    Mesh,
    MeshValidationError,
    RigidPose,
    project,
    validate_bsc,
)
from .solver import backtrack

log = logging.getLogger(__name__)

_MAX_GN_ITERATIONS = 5


class RankDeficiencyError(RuntimeError):
    """Activations do not span the basis and no regularization was given."""


@dataclass(frozen=True)
class ExampleExpression:
    """One example scan with its known prototype activation.

    The scan must share the model topology (same vertex count and order).
    When 2D landmark constraints are supplied, `camera` and `pose` locate
    the scan in the image those landmarks were annotated on.
    """
    scan: Mesh
    activation: np.ndarray
    landmarks: LandmarkSet | None = None
    camera: CameraIntrinsics | None = None
    pose: RigidPose | None = None

    def __post_init__(self):
        x = validate_bsc(self.activation)
        object.__setattr__(self, "activation", x)
        if self.landmarks is not None and len(self.landmarks) > 0:
            if self.camera is None or self.pose is None:
                raise ValueError("landmark constraints require camera and pose")


@dataclass(frozen=True)
class PersonalizeConfig:
    basis_regularization: float = 1e-3
    landmark_weight: float = 10.0

    def __post_init__(self):
        if not all(0.0 <= w < math.inf
                   for w in (self.basis_regularization, self.landmark_weight)):
            raise ValueError("weights must be finite and non-negative")


def _landmark_objective(example: ExampleExpression, b0_v, basis_v, vj) -> float:
    """The squared reprojection error of vertex vj, weighted by confidence
    and summed over every landmark of `example` bound to it."""
    lm = example.landmarks
    v_model = b0_v + basis_v.T @ example.activation
    uv = project(example.camera, example.pose.apply(v_model))
    on_vj = lm.vertex_indices == vj
    total = 0.0
    for pixel, conf in zip(lm.pixels[on_vj], lm.confidences[on_vj]):
        res = uv - pixel
        total += float(conf * (res @ res))
    return total


def personalize(generic: BlendshapeModel, examples, cfg: PersonalizeConfig | None = None
                ) -> BlendshapeModel:
    """Fit a subject-specific model from example expressions.

    Requires at least one example and a neutral example (activation all
    zero), whose scan becomes the new b0. Raises RankDeficiencyError when
    the activations do not span all n coefficients and
    basis_regularization is zero.
    """
    cfg = cfg or PersonalizeConfig()
    examples = list(examples)
    if not examples:
        raise ValueError("at least one example is required")
    n = generic.n
    nv = generic.vertex_count
    for e, ex in enumerate(examples):
        if ex.scan.vertex_count != nv:
            raise MeshValidationError(
                f"example {e} scan has {ex.scan.vertex_count} vertices, model has {nv}")
        if ex.activation.shape != (n,):
            raise MeshValidationError(
                f"example {e} activation length {len(ex.activation)} != n={n}")

    neutral_ex = next((ex for ex in examples if not ex.activation.any()), None)
    if neutral_ex is None:
        raise ValueError("a neutral example (activation all zero) is required")
    b0 = neutral_ex.scan.vertices

    x_mat = np.stack([ex.activation for ex in examples])         # (E, n)
    lam = cfg.basis_regularization
    gram = x_mat.T @ x_mat
    if lam == 0.0 and np.linalg.matrix_rank(x_mat) < n:
        raise RankDeficiencyError(
            f"activation matrix has rank {np.linalg.matrix_rank(x_mat)} < {n} "
            "and basis_regularization is zero")

    # global solve, shared by all vertices and axes:
    #   (X^T X + lam I) B_flat = X^T (S - b0) + lam B_generic_flat
    resid = np.stack([ex.scan.vertices - b0 for ex in examples])  # (E, V, 3)
    rhs = (np.tensordot(x_mat.T, resid, axes=1).reshape(n, nv * 3)
           + lam * generic.basis.reshape(n, nv * 3))
    basis = np.linalg.solve(gram + lam * np.eye(n), rhs).reshape(n, nv, 3)

    constrained = _constrained_vertices(examples)
    if constrained:
        basis = basis.copy()
        for vj in sorted(constrained):
            basis[:, vj, :] = _solve_constrained_vertex(
                generic, examples, cfg, b0[vj], basis[:, vj, :], vj, gram, lam)

    return BlendshapeModel(neutral=Mesh(b0, generic.neutral.faces),
                           basis=basis, names=generic.names)


def _constrained_vertices(examples) -> set:
    out = set()
    for ex in examples:
        if ex.landmarks is not None:
            out.update(int(v) for v in ex.landmarks.vertex_indices)
    return out


def _vertex_objective(examples, cfg, b0_v, basis_v, generic_slice, vj) -> float:
    """True (non-linearized) per-vertex objective, landmark term included."""
    total = cfg.basis_regularization * float(np.sum((basis_v - generic_slice) ** 2))
    for ex in examples:
        r = b0_v + basis_v.T @ ex.activation - ex.scan.vertices[vj]
        total += float(r @ r)
        if ex.landmarks is not None and vj in set(int(v) for v in ex.landmarks.vertex_indices):
            total += cfg.landmark_weight * _landmark_objective(ex, b0_v, basis_v, vj)
    return total


def _solve_constrained_vertex(generic, examples, cfg, b0_v, basis_v, vj,
                              gram, lam) -> np.ndarray:
    """Gauss-Newton refinement of one vertex's (n, 3) basis slice under
    scan, regularization, and landmark reprojection terms, each landmark
    weighted by `landmark_weight` times its confidence."""
    n = generic.n
    generic_slice = generic.basis[:, vj, :]
    # scan + regularizer contributions are constant across GN iterations
    a_const = np.kron(gram + lam * np.eye(n), np.eye(3))
    rhs_scan = np.zeros(3 * n)
    for ex in examples:
        rhs_scan += np.kron(ex.activation, ex.scan.vertices[vj] - b0_v)
    rhs_const = rhs_scan + lam * generic_slice.reshape(-1)

    cur = basis_v
    f_cur = _vertex_objective(examples, cfg, b0_v, cur, generic_slice, vj)
    for _ in range(_MAX_GN_ITERATIONS):
        a = a_const.copy()
        rhs = rhs_const.copy()
        for ex in examples:
            if ex.landmarks is None:
                continue
            on_vj = ex.landmarks.vertex_indices == vj
            pixels = ex.landmarks.pixels[on_vj]
            if not len(pixels):
                continue
            v_model = b0_v + cur.T @ ex.activation
            v_cam = ex.pose.apply(v_model)
            jac_px = landmark_jacobian(v_cam, ex.camera)          # (2, 3)
            # d v_cam / d vec(B_v) with vec index k*3+c
            jr = jac_px @ ex.pose.matrix()                        # (2, 3)
            big_j = np.kron(ex.activation[None, :], jr).reshape(2, 3 * n)
            uv = project(ex.camera, v_cam)
            # two rows per landmark on vj, all sharing the Jacobian
            for pixel, conf in zip(pixels, ex.landmarks.confidences[on_vj]):
                r0 = uv - pixel
                w = cfg.landmark_weight * conf
                a += w * (big_j.T @ big_j)
                rhs += w * (big_j.T @ (big_j @ cur.reshape(-1) - r0))
        try:
            new = np.linalg.solve(a, rhs).reshape(n, 3)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"vertex {vj} landmark system is singular") from exc

        # accept only true-objective descent; halve toward current otherwise
        def score(b):
            try:
                return _vertex_objective(examples, cfg, b0_v, b, generic_slice, vj)
            except BehindCameraError:
                # a step that moves the vertex behind a camera is a rise
                return np.inf

        new, f_new, _ = backtrack(cur, new, f_cur + 1e-15, score)
        if new is None:
            break
        step = float(np.max(np.abs(new - cur)))
        cur, f_cur = new, f_new
        if step < 1e-12:
            break
    return cur
