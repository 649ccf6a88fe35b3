"""Example-based rig adaptation."""

import numpy as np
import pytest

from blendfit import (
    BlendshapeModel,
    CameraIntrinsics,
    ExampleExpression,
    LandmarkSet,
    Mesh,
    MeshValidationError,
    PersonalizeConfig,
    RankDeficiencyError,
    RigidPose,
    evaluate_mesh,
    personalize,
    project,
)
from blendfit.synth import frontal_pose

from conftest import random_model


def _scan(model, x):
    return evaluate_mesh(model, x)


def _spanning_examples(model, rng=None, from_model=None):
    """Neutral plus one unit-activation example per blendshape."""
    source = from_model if from_model is not None else model
    examples = [ExampleExpression(_scan(source, np.zeros(model.n)),
                                  np.zeros(model.n))]
    for k in range(model.n):
        x = np.eye(model.n)[k]
        examples.append(ExampleExpression(_scan(source, x), x))
    return examples


def _objective(generic, fitted, examples, lam):
    total = lam * float(np.sum((fitted.basis - generic.basis) ** 2))
    for ex in examples:
        pred = fitted.neutral.vertices + np.tensordot(ex.activation, fitted.basis, 1)
        total += float(np.sum((pred - ex.scan.vertices) ** 2))
    return total


def test_consistent_examples_return_generic_basis():
    model = random_model(np.random.default_rng(0))
    for lam in (0.0, 1e-6, 1e-3, 1.0):
        fitted = personalize(model, _spanning_examples(model),
                             PersonalizeConfig(basis_regularization=lam))
        np.testing.assert_allclose(fitted.basis, model.basis, atol=1e-8)


def test_recovers_perturbed_basis():
    rng = np.random.default_rng(1)
    generic = random_model(rng)
    true = BlendshapeModel(generic.neutral,
                           generic.basis + rng.normal(scale=0.002,
                                                      size=generic.basis.shape),
                           generic.names)
    examples = _spanning_examples(generic, from_model=true)
    fitted = personalize(generic, examples,
                         PersonalizeConfig(basis_regularization=1e-6))
    rel = np.linalg.norm(fitted.basis - true.basis) / np.linalg.norm(true.basis)
    assert rel <= 1e-4


def test_neutral_only_keeps_generic_basis():
    model = random_model(np.random.default_rng(2))
    neutral = ExampleExpression(_scan(model, np.zeros(model.n)), np.zeros(model.n))
    fitted = personalize(model, [neutral],
                         PersonalizeConfig(basis_regularization=1.0))
    np.testing.assert_allclose(fitted.basis, model.basis, atol=1e-12)


def test_neutral_scan_replaces_b0():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    bumped = Mesh(model.neutral.vertices + rng.normal(scale=0.001,
                                                      size=(model.vertex_count, 3)),
                  model.neutral.faces)
    neutral = ExampleExpression(bumped, np.zeros(model.n))
    fitted = personalize(model, [neutral])
    np.testing.assert_array_equal(fitted.neutral.vertices, bumped.vertices)


def test_rank_deficiency_without_regularization():
    model = random_model(np.random.default_rng(4))
    examples = _spanning_examples(model)[:2]     # neutral + one activation only
    with pytest.raises(RankDeficiencyError):
        personalize(model, examples, PersonalizeConfig(basis_regularization=0.0))
    # with regularization the same data is solvable
    personalize(model, examples, PersonalizeConfig(basis_regularization=1e-3))


def test_requires_neutral_example():
    model = random_model(np.random.default_rng(5))
    only_active = _spanning_examples(model)[1:]
    with pytest.raises(ValueError):
        personalize(model, only_active)


def test_rejects_topology_mismatch():
    model = random_model(np.random.default_rng(6))
    other = random_model(np.random.default_rng(7), side=4)
    with pytest.raises(MeshValidationError):
        personalize(model, [ExampleExpression(other.neutral, np.zeros(model.n))])


def test_order_invariance():
    rng = np.random.default_rng(8)
    generic = random_model(rng)
    true = BlendshapeModel(generic.neutral,
                           generic.basis + rng.normal(scale=0.002,
                                                      size=generic.basis.shape),
                           generic.names)
    examples = _spanning_examples(generic, from_model=true)
    a = personalize(generic, examples)
    b = personalize(generic, list(reversed(examples)))
    np.testing.assert_allclose(a.basis, b.basis, atol=1e-9)


def test_descent_from_generic():
    rng = np.random.default_rng(9)
    generic = random_model(rng)
    true = BlendshapeModel(generic.neutral,
                           generic.basis + rng.normal(scale=0.003,
                                                      size=generic.basis.shape),
                           generic.names)
    examples = _spanning_examples(generic, from_model=true)
    lam = 1e-3
    fitted = personalize(generic, examples,
                         PersonalizeConfig(basis_regularization=lam))
    start = BlendshapeModel(examples[0].scan, generic.basis, generic.names)
    assert _objective(generic, fitted, examples, lam) \
        <= _objective(generic, start, examples, lam) + 1e-12


def test_landmark_constraints_consistent_data():
    rng = np.random.default_rng(10)
    model = random_model(rng)
    cam = CameraIntrinsics(fx=400.0, fy=400.0, cx=80.0, cy=60.0,
                           width=160, height=120)
    pose = frontal_pose(0.4)
    examples = []
    for ex in _spanning_examples(model):
        verts = pose.apply(ex.scan.vertices)
        picks = [0, 4, 8]
        lms = LandmarkSet(tuple(f"l{j}" for j in picks), picks,
                          np.stack([project(cam, verts[j]) for j in picks]))
        examples.append(ExampleExpression(ex.scan, ex.activation,
                                          landmarks=lms, camera=cam, pose=pose))
    fitted = personalize(model, examples,
                         PersonalizeConfig(basis_regularization=1e-6))
    np.testing.assert_allclose(fitted.basis, model.basis, atol=1e-6)


def test_every_landmark_on_a_vertex_counts():
    # two landmarks bound to vertex 0, one of them off by (4, -3) px: the
    # fit must weigh both, so their order does not matter
    rng = np.random.default_rng(10)
    model = random_model(rng)
    cam = CameraIntrinsics(fx=400.0, fy=400.0, cx=80.0, cy=60.0,
                           width=160, height=120)
    pose = frontal_pose(0.4)

    def fit(order):
        examples = []
        for ex in _spanning_examples(model):
            px = project(cam, pose.apply(ex.scan.vertices)[0])
            pixels = np.stack([px, px + [4.0, -3.0]])[list(order)]
            lms = LandmarkSet(("a", "b"), [0, 0], pixels)
            examples.append(ExampleExpression(ex.scan, ex.activation,
                                              landmarks=lms, camera=cam, pose=pose))
        return personalize(model, examples).basis[:, 0, :]

    np.testing.assert_allclose(fit((0, 1)), fit((1, 0)), rtol=0, atol=1e-10)


def test_step_behind_the_camera_is_halved_not_fatal():
    # noisy landmarks pull the full Gauss-Newton step of a constrained
    # vertex behind the camera; that candidate must count as a rise
    rng = np.random.default_rng(0)
    model = random_model(rng)
    cam = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0,
                           width=320, height=240)
    pose = frontal_pose(0.4)
    eye = np.eye(model.n)
    picks = [0, 4, 8]
    examples = []
    for x in [np.zeros(model.n), *eye, *(0.5 * eye)]:
        scan = _scan(model, x)
        verts = pose.apply(scan.vertices)
        pixels = np.stack([project(cam, verts[j]) for j in picks])
        lms = LandmarkSet(tuple(f"l{j}" for j in picks), picks,
                          pixels + rng.normal(scale=3.0, size=pixels.shape))
        examples.append(ExampleExpression(scan, x, landmarks=lms, camera=cam,
                                          pose=pose))
    fitted = personalize(model, examples)
    assert fitted.basis.shape == model.basis.shape
    assert np.isfinite(fitted.basis).all()
    for ex in examples:
        # every constrained vertex stays in front of the camera
        verts = pose.apply(evaluate_mesh(fitted, ex.activation).vertices)
        assert (verts[picks, 2] > 0).all()


def test_landmarks_require_camera_and_pose():
    model = random_model(np.random.default_rng(11))
    lms = LandmarkSet(("a",), [0], [[5.0, 5.0]])
    with pytest.raises(ValueError):
        ExampleExpression(_scan(model, np.zeros(model.n)), np.zeros(model.n),
                          landmarks=lms)


def test_config_validation():
    with pytest.raises(ValueError):
        PersonalizeConfig(basis_regularization=-1.0)
