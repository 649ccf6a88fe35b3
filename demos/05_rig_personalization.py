"""Personalization: bending a generic rig to fit example expressions.

A user's face never matches the generic basis. Given a handful of
scanned expressions with known activations, the personalization solve
re-estimates every blendshape displacement, pulled toward the generic
rig where the examples say nothing. Here the 'scans' come from a known
ground-truth rig, so recovery error is measurable.
"""

import numpy as np

from blendfit import BlendshapeModel, CameraIntrinsics, evaluate_mesh, project
from blendfit.personalize import ExampleExpression, PersonalizeConfig, personalize
from blendfit.synth import (NoiseConfig, default_landmarks, frontal_pose, make_test_head,
                            project_landmarks)

rng = np.random.default_rng(7)
true_rig = make_test_head()

# the generic rig we hand to the solver: same topology, wrong deltas
generic = BlendshapeModel(
    true_rig.neutral,
    true_rig.basis + rng.normal(scale=2e-4, size=true_rig.basis.shape),
    true_rig.names)
start_err = np.linalg.norm(generic.basis - true_rig.basis) / np.linalg.norm(true_rig.basis)
print(f"generic rig starts {start_err:.2%} away from the true basis (Frobenius)")

# examples: the neutral scan plus each shape at full strength,
# "captured" by evaluating the true rig
activations = [np.zeros(true_rig.n)] + list(np.eye(true_rig.n))
examples = [ExampleExpression(evaluate_mesh(true_rig, a), a) for a in activations]
print(f"{len(examples)} example expressions (neutral + one per shape)")

fitted = personalize(generic, examples, PersonalizeConfig(basis_regularization=1e-6))
rel = np.linalg.norm(fitted.basis - true_rig.basis) / np.linalg.norm(true_rig.basis)
print(f"after personalization: {rel:.2e} relative error")

# with fewer examples the regularizer keeps unconstrained shapes generic
few = examples[:8]
partial = personalize(generic, few, PersonalizeConfig(basis_regularization=1e-3))
vs_true = np.linalg.norm(partial.basis - true_rig.basis, axis=(1, 2))
vs_generic = np.linalg.norm(partial.basis - generic.basis, axis=(1, 2))
print(f"\nwith only {len(few)} examples (neutral + 7 shapes):")
print(f"  covered shapes move to the true rig:   mean |B - B_true| {vs_true[:7].mean():.2e}")
print(f"  uncovered shapes stay at the generic:  mean |B - B_gen|  {vs_generic[7:].mean():.2e}")

# the same examples also seen by a camera, 40 landmarks each at 1 px noise
# (1 px is 1 mm at 0.5 m): the landmark vertices are re-solved against scans
# and reprojections together. These scans are exact, so landmark_weight
# trades their fit for the noisy pixels'.
cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)
pose = frontal_pose(0.5)
ids = default_landmarks(true_rig)
noise = NoiseConfig(landmark_sigma=1.0)
seen = [ExampleExpression(ex.scan, ex.activation, camera=cam, pose=pose,
                          landmarks=project_landmarks(ex.scan, pose, cam, ids, noise, rng))
        for ex in few]
constrained = personalize(generic, seen, PersonalizeConfig(basis_regularization=1e-3))
lm_v = [v for _, v in ids]


def landmark_delta_rms_mm(model):
    """RMS of B - B_true over the covered shapes at the landmark vertices."""
    return 1e3 * np.sqrt(np.mean((model.basis - true_rig.basis)[:7, lm_v] ** 2))


def reprojection_rms(model):
    res = [project(cam, pose.apply(evaluate_mesh(model, ex.activation).vertices[
        ex.landmarks.vertex_indices])) - ex.landmarks.pixels for ex in seen]
    return np.sqrt(np.mean(np.concatenate(res) ** 2))


print(f"\nthe same {len(seen)} examples with {len(ids)} landmarks each at 1 px noise:")
print(f"  reprojection RMS {reprojection_rms(constrained):.2f} px"
      f" (scans alone {reprojection_rms(partial):.2f} px)")
print(f"  landmark vertices off the true rig by {landmark_delta_rms_mm(constrained):.2f} mm RMS"
      f" (scans alone {landmark_delta_rms_mm(partial):.4f} mm)")
