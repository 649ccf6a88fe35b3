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
from blendfit.personalize import _example_rows
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


def _objective(generic, fitted, examples, lam, landmark_weight=0.0):
    total = lam * float(np.sum((fitted.basis - generic.basis) ** 2))
    for ex in examples:
        pred = fitted.neutral.vertices + np.tensordot(ex.activation, fitted.basis, 1)
        total += float(np.sum((pred - ex.scan.vertices) ** 2))
        if ex.landmarks is not None:
            lm = ex.landmarks
            uv = project(ex.camera, ex.pose.apply(pred[lm.vertex_indices]))
            total += landmark_weight * float(
                np.sum(lm.confidences[:, None] * (uv - lm.pixels) ** 2))
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


def test_rejects_landmark_vertex_off_model():
    model = random_model(np.random.default_rng(6))
    cam = CameraIntrinsics(fx=400.0, fy=400.0, cx=80.0, cy=60.0, width=160, height=120)
    examples = _spanning_examples(model)
    lms = LandmarkSet(("a",), [model.vertex_count], [[80.0, 60.0]])
    examples[1] = ExampleExpression(examples[1].scan, examples[1].activation,
                                    landmarks=lms, camera=cam, pose=frontal_pose(0.4))
    with pytest.raises(ValueError, match=f"example 1: landmark vertex index "
                                         f"{model.vertex_count} out of range"):
        personalize(model, examples)


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


def _fit_offset_landmark(confidence=None, weight=10.0):
    """Basis slice of vertex 0 fitted with one landmark on it, off by
    (4, -3) px with the given confidence; no landmark when None."""
    model = random_model(np.random.default_rng(10))
    cam = CameraIntrinsics(fx=400.0, fy=400.0, cx=80.0, cy=60.0,
                           width=160, height=120)
    pose = frontal_pose(0.4)
    examples = []
    for ex in _spanning_examples(model):
        if confidence is None:
            examples.append(ex)
            continue
        px = project(cam, pose.apply(ex.scan.vertices)[0]) + [4.0, -3.0]
        lms = LandmarkSet(("a",), [0], [px], [confidence])
        examples.append(ExampleExpression(ex.scan, ex.activation,
                                          landmarks=lms, camera=cam, pose=pose))
    fitted = personalize(model, examples, PersonalizeConfig(landmark_weight=weight))
    return fitted.basis[:, 0, :]


def test_zero_confidence_landmark_is_ignored():
    np.testing.assert_allclose(_fit_offset_landmark(0.0), _fit_offset_landmark(None),
                               rtol=0, atol=1e-10)
    # the offset landmark does pull the slice at full confidence
    assert np.abs(_fit_offset_landmark(1.0) - _fit_offset_landmark(None)).max() > 1e-3


def test_confidence_scales_the_landmark_weight():
    for conf, weight in ((0.5, 10.0), (0.25, 3.0)):
        np.testing.assert_allclose(_fit_offset_landmark(conf, weight),
                                   _fit_offset_landmark(1.0, conf * weight),
                                   rtol=0, atol=1e-12)


def _noisy_landmark_examples():
    """(model, examples, picks): a random model's neutral and each shape's
    unit and half activation, with 3 px noisy landmarks on the vertices
    `picks`; the full Gauss-Newton step of one of them lands behind the
    camera."""
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
    return model, examples, picks


def test_step_behind_the_camera_is_halved_not_fatal():
    # noisy landmarks pull the full Gauss-Newton step of a constrained
    # vertex behind the camera; that candidate must count as a rise
    model, examples, picks = _noisy_landmark_examples()
    fitted = personalize(model, examples)
    assert fitted.basis.shape == model.basis.shape
    assert np.isfinite(fitted.basis).all()
    for ex in examples:
        # every constrained vertex stays in front of the camera
        verts = ex.pose.apply(evaluate_mesh(fitted, ex.activation).vertices)
        assert (verts[picks, 2] > 0).all()


def test_landmark_refinement_descends_from_the_global_solve():
    # the refinement starts at the global solve, which ignores landmarks,
    # and may only lower the full objective from there
    model, examples, _ = _noisy_landmark_examples()
    cfg = PersonalizeConfig()
    fitted = personalize(model, examples, cfg)
    start = personalize(model, [ExampleExpression(ex.scan, ex.activation)
                                for ex in examples], cfg)
    full = [_objective(model, m, examples, cfg.basis_regularization, cfg.landmark_weight)
            for m in (fitted, start)]
    assert full[0] <= full[1] + 1e-12
    # the landmarks do move the constrained vertices
    assert np.abs(fitted.basis - start.basis).max() > 1e-4


def _example_vertices(model, examples):
    """(E, V, 3): the mesh each example's activation gives `model`."""
    return np.stack([_scan(model, ex.activation).vertices for ex in examples])


def _turned_head_examples():
    """(model, examples, picks): a random model's spanning examples seen
    turned 0.3 rad about an oblique axis, with 1 px noisy landmarks on the
    vertices `picks`."""
    rng = np.random.default_rng(12)
    model = random_model(rng)
    cam = CameraIntrinsics(fx=400.0, fy=400.0, cx=80.0, cy=60.0,
                           width=160, height=120)
    pose = RigidPose.from_axis_angle([1.0, 2.0, 0.5], 0.3, [0.0, 0.0, 0.4])
    picks = [0, 4, 8]
    examples = []
    for ex in _spanning_examples(model):
        pixels = project(cam, pose.apply(ex.scan.vertices[picks])) + rng.normal(size=(3, 2))
        examples.append(ExampleExpression(ex.scan, ex.activation,
                                          landmarks=LandmarkSet(("a", "b", "c"), picks, pixels),
                                          camera=cam, pose=pose))
    return model, examples, picks


def test_rows_sum_to_the_objective():
    model, examples, _ = _turned_head_examples()
    rng = np.random.default_rng(1)
    other = BlendshapeModel(examples[0].scan,
                            model.basis + rng.normal(scale=0.003, size=model.basis.shape),
                            model.names)
    cfg = PersonalizeConfig(basis_regularization=0.1, landmark_weight=3.0)
    # half confidence on one landmark of each example
    examples = [ExampleExpression(ex.scan, ex.activation,
                                  landmarks=LandmarkSet(ex.landmarks.ids,
                                                        ex.landmarks.vertex_indices,
                                                        ex.landmarks.pixels, [1.0, 0.5, 1.0]),
                                  camera=ex.camera, pose=ex.pose) for ex in examples]
    verts = _example_vertices(other, examples)
    rows = [[_example_rows(ex, cfg, vj, v) for ex, v in zip(examples, verts[:, vj])]
            for vj in range(model.vertex_count)]
    total = (sum(float(r @ r) for per_vertex in rows for r, _ in per_vertex)
             + cfg.basis_regularization * float(np.sum((other.basis - model.basis) ** 2)))
    expected = _objective(model, other, examples, cfg.basis_regularization,
                          cfg.landmark_weight)
    assert total == pytest.approx(expected, rel=1e-12)
    # three scan rows per example everywhere, two more per landmark on 0, 4, 8
    assert [len(rows[vj][0][0]) for vj in range(model.vertex_count)] == \
        [5, 3, 3, 3, 5, 3, 3, 3, 5]


def test_row_gradients_match_central_differences():
    model, examples, picks = _turned_head_examples()
    cfg = PersonalizeConfig(landmark_weight=3.0)
    h = 1e-7
    verts = _example_vertices(model, examples)
    for vj in picks:
        for ex, v in zip(examples, verts[:, vj]):
            _, g = _example_rows(ex, cfg, vj, v)
            fd = np.stack([(_example_rows(ex, cfg, vj, v + h * e)[0]
                            - _example_rows(ex, cfg, vj, v - h * e)[0]) / (2 * h)
                           for e in np.eye(3)], axis=1)
            assert g.shape == (5, 3)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-4)


def test_refinement_reaches_a_stationary_point():
    # every constrained basis entry's central difference of the full
    # objective vanishes at the fit; at the global solve they reach ~5e4
    model, examples, picks = _turned_head_examples()
    rng = np.random.default_rng(13)
    generic = BlendshapeModel(model.neutral,
                              model.basis + rng.normal(scale=0.002, size=model.basis.shape),
                              model.names)
    cfg = PersonalizeConfig(basis_regularization=0.1)
    fitted = personalize(generic, examples, cfg)

    def full(basis):
        return _objective(generic, BlendshapeModel(fitted.neutral, basis, generic.names),
                          examples, cfg.basis_regularization, cfg.landmark_weight)

    h = 1e-7
    for vj in picks:
        for k in range(model.n):
            for step in h * np.eye(3):
                plus, minus = np.array(fitted.basis), np.array(fitted.basis)
                plus[k, vj] += step
                minus[k, vj] -= step
                assert abs(full(plus) - full(minus)) / (2 * h) < 1e-4


def test_landmarks_require_camera_and_pose():
    model = random_model(np.random.default_rng(11))
    lms = LandmarkSet(("a",), [0], [[5.0, 5.0]])
    with pytest.raises(ValueError):
        ExampleExpression(_scan(model, np.zeros(model.n)), np.zeros(model.n),
                          landmarks=lms)


def test_config_validation():
    with pytest.raises(ValueError):
        PersonalizeConfig(basis_regularization=-1.0)
