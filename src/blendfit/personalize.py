"""Example-based adaptation of a generic blendshape basis to one subject.

Given scans of prototypical expressions with known activations (neutral,
mouth open, smile, ...), the neutral scan replaces b0 and the basis is
re-solved per vertex as the regularized least squares

    min_B  sum_e || (b0 + B x_e) - s_e ||^2  +  lambda_B || B - B_generic ||_F^2

which decomposes into independent n x n systems sharing one activation
Gram matrix, so a single factorization covers every vertex and axis.
Optional 2D landmark constraints add reprojection rows, weighted by
each landmark's confidence, for the constrained vertices only; those
vertices are re-solved by Gauss-Newton on coupled 3n x 3n systems. One
function gives each example's residual rows at the vertex and their
gradients (`_example_rows`): the step is built from those rows, and
`solver.backtrack` halves it against their sum of squares plus the
ridge, so the result never scores worse than the global solve it
starts from.
"""

from __future__ import annotations

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
        if ex.landmarks is not None:
            try:
                ex.landmarks.check_vertices(nv)
            except ValueError as exc:
                raise ValueError(f"example {e}: {exc}") from None

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
                generic, examples, cfg, b0[vj], basis[:, vj, :], vj)

    return BlendshapeModel(neutral=Mesh(b0, generic.neutral.faces),
                           basis=basis, names=generic.names)


def _constrained_vertices(examples) -> set:
    out = set()
    for ex in examples:
        if ex.landmarks is not None:
            out.update(int(v) for v in ex.landmarks.vertex_indices)
    return out


def _example_rows(example: ExampleExpression, cfg: PersonalizeConfig, vj, v):
    """The residual rows of `example` at vertex vj, which its activation
    puts at v: (r (m,), g (m, 3)), g[i] the gradient of r[i] at v.

    Three scan rows, v - s_e, with gradient I; two per landmark of the
    example bound to vj (u and v), sqrt(landmark_weight conf)
    (proj(R v + t) - u), with the projection Jacobian rows times R.
    """
    r, g = v - example.scan.vertices[vj], np.eye(3)
    lm = example.landmarks
    if lm is None or not (on_vj := lm.vertex_indices == vj).any():
        return r, g
    rot = example.pose.matrix()
    v_cam = rot @ v + example.pose.translation
    sw = np.sqrt(cfg.landmark_weight * lm.confidences[on_vj])[:, None]   # (L, 1)
    r_lm = sw * (project(example.camera, v_cam) - lm.pixels[on_vj])
    g_lm = sw[:, :, None] * (landmark_jacobian(v_cam, example.camera) @ rot)
    return np.concatenate([r, r_lm.reshape(-1)]), np.concatenate([g, g_lm.reshape(-1, 3)])


def _solve_constrained_vertex(generic, examples, cfg, b0_v, basis_v, vj) -> np.ndarray:
    """Gauss-Newton refinement of one vertex's (n, 3) basis slice B_v
    against sum_e r_e . r_e + lambda_B ||B_v - B_generic,v||^2, r_e the
    rows of example e (`_example_rows`). Example e puts the vertex at
    b0_v + B_v^T a_e, so a row with gradient g there has gradient
    a_e (x) g with respect to B_v, flattened with index k*3+c."""
    n = generic.n
    lam = cfg.basis_regularization
    generic_slice = generic.basis[:, vj, :]
    x_mat = np.stack([ex.activation for ex in examples])         # (E, n)

    def rows(b):
        return [_example_rows(ex, cfg, vj, v)
                for ex, v in zip(examples, b0_v + x_mat @ b)]

    def score(b):
        try:
            total = sum(float(r @ r) for r, _ in rows(b))
        except BehindCameraError:
            # a step that moves the vertex behind a camera is a rise
            return np.inf
        return total + lam * float(np.sum((b - generic_slice) ** 2))

    cur = basis_v
    f_cur = score(cur)
    for _ in range(_MAX_GN_ITERATIONS):
        rg = rows(cur)
        # sum_e (a_e a_e^T) (x) (g_e^T g_e) as [k, l, c, d], then [k, c, l, d]
        g_gram = np.stack([g.T @ g for _, g in rg]).reshape(-1, 1, 9)
        normal = (x_mat.T @ (x_mat[:, :, None] * g_gram).reshape(len(examples), 9 * n)
                  ).reshape(n, n, 3, 3).transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
        grad = x_mat.T @ np.stack([g.T @ r for r, g in rg]) + lam * (cur - generic_slice)
        try:
            delta = np.linalg.solve(normal + lam * np.eye(3 * n), grad.reshape(-1))
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"vertex {vj} landmark system is singular") from exc

        # accept only true-objective descent; halve toward current otherwise
        new, f_new, _ = backtrack(cur, cur - delta.reshape(n, 3), f_cur + 1e-15, score)
        if new is None:
            break
        step = float(np.max(np.abs(new - cur)))
        cur, f_cur = new, f_new
        if step < 1e-12:
            break
    return cur
