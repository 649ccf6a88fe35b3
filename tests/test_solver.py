"""Quadratic assembly, the L1/box coordinate solver, and frame fitting."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from blendfit import (
    BlendshapeModel,
    CorrespondenceSet,
    DepthFrame,
    LandmarkSet,
    Mesh,
    NoDataError,
    QuadraticForm,
    RigidPose,
    SolverConfig,
    TrackingError,
    assemble_quadratic,
    evaluate_mesh,
    evaluate_objective,
    find_correspondences,
    fit_frame,
    pose_delta,
    solve_l1_box,
    track_sequence,
)
from blendfit import solver
from blendfit.correspondence import landmark_jacobian
from blendfit.geometry import apply_twist, project, quat_from_rotvec, quat_to_matrix
from blendfit.solver import _COND_LIMIT, _MAX_DISTANCE, _residual_rows, twist_rows
from blendfit.synth import (
    NoiseConfig,
    ScriptFrame,
    constant_script,
    frontal_pose,
    generate_frame,
    generate_sequence,
)

from conftest import (
    flat_sheet_model,
    localized_model,
    random_model,
    sparse_coefficients,
    wall_frame,
)


@pytest.fixture(scope="module")
def scene(head, head_landmark_ids, intr):
    """One noise-free rendered frame with known sparse coefficients."""
    rng = np.random.default_rng(3)
    x_true = sparse_coefficients(head.n, rng)
    gen = generate_sequence(head, constant_script(x_true, frontal_pose(), 1),
                            intr, head_landmark_ids, NoiseConfig())
    return x_true, gen.frames[0], gen.landmarks[0]


# ---------------------------------------------------------------------------
# QuadraticForm

def test_quadratic_form_value():
    q = QuadraticForm(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([1.0, -1.0]), 3.0)
    x = np.array([0.5, 0.25])
    expect = 0.5 * (2 * 0.25 + 4 * 0.0625) + (0.5 - 0.25) + 3.0
    assert abs(q.value(x) - expect) < 1e-12


def test_quadratic_form_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticForm(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), 0.0)


def test_quadratic_form_rejects_indefinite():
    with pytest.raises(ValueError):
        QuadraticForm(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), 0.0)


# ---------------------------------------------------------------------------
# assemble_quadratic

def _one_vertex_model(normal):
    verts = np.array([[0.0, 0.0, 1.0], [0.02, 0.0, 1.0], [0.0, 0.02, 1.0]])
    faces = np.array([[0, 1, 2]])
    basis = np.zeros((1, 3, 3))
    basis[0, 0] = normal          # vertex 0 moves 1 m along n per unit x
    return BlendshapeModel(Mesh(verts, faces), basis, ("push",))


def test_assemble_single_correspondence_symbolic():
    n = np.array([0.0, 0.0, -1.0])
    model = _one_vertex_model(n)
    gap = 0.07
    corr = CorrespondenceSet([0], [model.neutral.vertices[0] + gap * n], [n])
    cfg = SolverConfig(w_d=1.0, w_l=0.0)
    q = assemble_quadratic(model, RigidPose.identity(), corr, None, None,
                           np.zeros(1), cfg)
    # D(x) = (x - d)^2 with d the normal-projected gap
    np.testing.assert_allclose(q.H, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(q.g, [-2.0 * gap], atol=1e-12)
    assert abs(q.c - gap * gap) < 1e-12
    assert abs(q.value(np.array([gap]))) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "overflow"])
def test_assemble_rejects_non_finite_form(bad):
    # the fitter's form skips the constructor's symmetry and PSD checks,
    # which were all that stopped a NaN or an infinity before; a 1e200
    # delta overflows H = 2 a^T a to inf
    n = np.array([0.0, 0.0, -1.0])
    model = _one_vertex_model(np.array([0.0, 0.0, bad]))
    corr = CorrespondenceSet([0], [model.neutral.vertices[0] + 0.07 * n], [n])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        assemble_quadratic(model, RigidPose.identity(), corr, None, None,
                           np.zeros(1), SolverConfig(w_d=1.0, w_l=0.0))


def test_assembled_form_is_exactly_symmetric(scene, head, intr):
    # solve_l1_box updates H x with rows of H in place of columns
    _, frame, landmarks = scene
    pose = frontal_pose()
    x_lin = np.random.default_rng(6).uniform(0, 0.5, head.n)
    corrs = find_correspondences(pose.apply(evaluate_mesh(head, x_lin).vertices),
                                 frame, intr, _MAX_DISTANCE)
    q = assemble_quadratic(head, pose, corrs, landmarks, intr, x_lin, SolverConfig())
    assert q.H.tobytes() == q.H.T.copy().tobytes()


def test_assemble_zero_weights_gives_zero_form(scene, head, intr):
    _, frame, landmarks = scene
    pose = frontal_pose()
    verts = pose.apply(evaluate_mesh(head, np.zeros(head.n)).vertices)
    corrs = find_correspondences(verts, frame, intr, _MAX_DISTANCE)
    cfg = SolverConfig(w_d=0.0, w_l=0.0)
    q = assemble_quadratic(head, pose, corrs, landmarks, intr, np.zeros(head.n), cfg)
    assert not q.H.any() and not q.g.any() and q.c == 0.0


def test_assemble_requires_some_data(head, intr):
    with pytest.raises(NoDataError):
        assemble_quadratic(head, frontal_pose(),
                           CorrespondenceSet([], np.zeros((0, 3)), np.zeros((0, 3))),
                           LandmarkSet.empty(), intr, np.zeros(head.n), SolverConfig())


def test_assembled_value_matches_direct_residuals(scene, head, intr):
    _, frame, landmarks = scene
    pose = frontal_pose()
    rng = np.random.default_rng(4)
    x_lin = rng.uniform(0, 0.5, head.n)

    verts_model = evaluate_mesh(head, x_lin).vertices
    corrs = find_correspondences(pose.apply(verts_model), frame, intr,
                                 _MAX_DISTANCE)
    cfg = SolverConfig()
    q = assemble_quadratic(head, pose, corrs, landmarks, intr, x_lin, cfg)

    # reference: one row at a time, straight from the objective's definition
    posed = pose.apply(verts_model)
    direct = 0.0
    for i, p, n in zip(corrs.vertex_indices, corrs.points, corrs.normals):
        d = float(n @ (posed[i] - p))
        direct += cfg.w_d * d * d
    for vj, px, conf in zip(landmarks.vertex_indices, landmarks.pixels,
                            landmarks.confidences):
        x, y, z = posed[vj]
        du = intr.fx * x / z + intr.cx - px[0]
        dv = intr.fy * y / z + intr.cy - px[1]
        direct += cfg.w_l * conf * (du * du + dv * dv)
    assert abs(q.value(x_lin) - direct) <= 1e-8 * max(1.0, abs(direct))


def _assemble_reference(model, pose, corrs, landmarks, intr, x_lin, cfg,
                        contract=None):
    """The plain form straight from model.basis, not its cached copy:
    the (m, n) Jacobian from the (m, 3, n) blocks gathered out of a
    vertex-major view of the (n, V, 3) basis, and the form read from the
    Gram matrix of [a h]. `contract` maps the rotated gradients (m, 3)
    and those blocks to the Jacobian; by default it is the solver's
    batched matmul. The blocks are made contiguous, as a gather from the
    cached copy is, because matmul's rounding depends on the layout."""
    rot = quat_to_matrix(pose.rotation)
    verts_cam = pose.apply(evaluate_mesh(model, x_lin).vertices)
    idx, grad, r = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    if contract is None:
        def contract(g, b):
            return (g[:, None, :] @ b)[:, 0]
    a = contract(grad @ rot, np.ascontiguousarray(model.basis.transpose(1, 2, 0)[idx]))
    M = np.column_stack([a, r - a @ x_lin])
    N = M.T @ M
    n = model.n
    return QuadraticForm(2.0 * N[:n, :n], 2.0 * N[:n, n], float(N[n, n]))


def _assert_same_form(got, ref):
    assert got.H.tobytes() == ref.H.tobytes()
    assert got.g.tobytes() == ref.g.tobytes()
    assert got.c == ref.c


def _assert_matches_reference(model, pose, corrs, landmarks, intr, x_lin, cfg):
    """The assembly, with and without the fitter's rows, against the
    dense reference, byte for byte."""
    ref = _assemble_reference(model, pose, corrs, landmarks, intr, x_lin, cfg)
    _assert_same_form(assemble_quadratic(model, pose, corrs, landmarks, intr,
                                         x_lin, cfg), ref)
    rows = _residual_rows(pose.apply(evaluate_mesh(model, x_lin).vertices),
                          corrs, landmarks, intr, cfg)
    _assert_same_form(assemble_quadratic(model, pose, corrs, landmarks, intr,
                                         x_lin, cfg, rows=rows), ref)


@pytest.mark.parametrize("with_landmarks", [True, False], ids=["landmarks", "depth-only"])
def test_assemble_bit_identical_to_basis_gather(scene, head, intr, with_landmarks):
    _, frame, landmarks = scene
    landmarks = landmarks if with_landmarks else None
    rng = np.random.default_rng(12)
    cfg = SolverConfig()
    poses = [frontal_pose(),
             RigidPose.from_axis_angle((0.2, 1.0, -0.1), np.deg2rad(3.0),
                                       frontal_pose().translation + (0.004, -0.002, 0.003))]
    for pose in poses:
        for x_lin in (np.zeros(head.n), rng.uniform(0, 0.5, head.n)):
            corrs = find_correspondences(pose.apply(evaluate_mesh(head, x_lin).vertices),
                                         frame, intr, _MAX_DISTANCE)
            assert len(corrs) > 100
            _assert_matches_reference(head, pose, corrs, landmarks, intr, x_lin, cfg)


def _small_model_cases(kind):
    """A dense random basis (every shape moves every vertex) or a
    localized one with a vertex no shape moves, at eight random poses, on
    hand-made matches that include that vertex and repeat vertices, with
    landmarks in every other case: (model, pose, corrs, landmarks, x_lin)."""
    rng = np.random.default_rng(32)
    model = random_model(rng, side=4, n=6) if kind == "dense" else localized_model(rng)
    V = model.vertex_count
    for case in range(8):
        pose = RigidPose.from_axis_angle(rng.normal(size=3), np.deg2rad(10.0),
                                         (0.0, 0.0, 0.5) + rng.normal(scale=0.01, size=3))
        x_lin = rng.uniform(0, 1, model.n) * (rng.uniform(size=model.n) < 0.7)
        idx = np.concatenate([[0], rng.integers(0, V, size=20)])
        normals = rng.normal(size=(len(idx), 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        verts = pose.apply(evaluate_mesh(model, x_lin).vertices)
        corrs = CorrespondenceSet(idx, verts[idx] + rng.normal(scale=0.003, size=(len(idx), 3)),
                                  normals)
        lm_idx = rng.choice(V, size=5, replace=False)
        landmarks = LandmarkSet(tuple(f"lm{j}" for j in range(5)), lm_idx,
                                rng.uniform(100, 200, size=(5, 2)), rng.uniform(0.2, 1.0, 5))
        yield model, pose, corrs, landmarks if case % 2 else None, x_lin


@pytest.mark.parametrize("kind", ["dense", "unmoved-vertex"])
def test_assemble_bit_identical_on_small_models(intr, kind):
    for model, pose, corrs, landmarks, x_lin in _small_model_cases(kind):
        _assert_matches_reference(model, pose, corrs, landmarks, intr, x_lin, SolverConfig())


def _einsum_contraction(g, b):
    return np.einsum("mc,mck->mk", g, b)


@pytest.mark.parametrize("kind", ["head", "dense", "unmoved-vertex"])
def test_assemble_matches_einsum_contraction(scene, head, intr, kind):
    # the batched matmul sums each row's three products in another order
    # than einsum does, so the forms agree to rounding, not bit for bit
    if kind == "head":
        _, frame, landmarks = scene
        pose = frontal_pose()
        x_lin = np.random.default_rng(13).uniform(0, 0.5, head.n)
        corrs = find_correspondences(pose.apply(evaluate_mesh(head, x_lin).vertices),
                                     frame, intr, _MAX_DISTANCE)
        cases = [(head, pose, corrs, landmarks, x_lin)]
    else:
        cases = _small_model_cases(kind)
    for model, pose, corrs, landmarks, x_lin in cases:
        got = assemble_quadratic(model, pose, corrs, landmarks, intr, x_lin, SolverConfig())
        ref = _assemble_reference(model, pose, corrs, landmarks, intr, x_lin, SolverConfig(),
                                  contract=_einsum_contraction)
        for x, y in ((got.H, ref.H), (got.g, ref.g), (got.c, ref.c)):
            assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


@pytest.fixture(scope="module")
def turned_scene(head, head_landmark_ids, intr):
    """A frame of the head at a turned, shifted pose, with depth matches
    and landmarks gathered at a random coefficient vector x_lin."""
    rng = np.random.default_rng(11)
    pose = RigidPose.from_axis_angle((0.3, -1.0, 0.2), np.deg2rad(12.0),
                                     (0.01, -0.005, 0.5))
    gen = generate_sequence(head, constant_script(sparse_coefficients(head.n, rng), pose, 1),
                            intr, head_landmark_ids, NoiseConfig())
    x_lin = rng.uniform(0, 0.5, head.n)
    corrs = find_correspondences(pose.apply(evaluate_mesh(head, x_lin).vertices),
                                 gen.frames[0], intr, _MAX_DISTANCE)
    assert len(corrs) > 500
    return pose, x_lin, corrs, gen.landmarks[0]


def _central_gradient(f, x0, h):
    grad = np.empty(len(x0))
    for k in range(len(x0)):
        e = np.zeros(len(x0))
        e[k] = h
        grad[k] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return grad


def test_quadratic_gradient_matches_objective(turned_scene, head, intr):
    pose, x_lin, corrs, landmarks = turned_scene
    cfg = SolverConfig()
    q = assemble_quadratic(head, pose, corrs, landmarks, intr, x_lin, cfg)

    def smooth(x):
        return (evaluate_objective(head, pose, x, corrs, landmarks, intr, cfg)
                - cfg.w_r * np.sum(np.abs(x)))

    fd = _central_gradient(smooth, x_lin, 1e-6)
    err = np.abs(q.H @ x_lin + q.g - fd).max()
    assert err <= 1e-6 * np.abs(fd).max()


def test_pose_rows_match_objective_under_twist(turned_scene, head, intr):
    pose, x, corrs, landmarks = turned_scene
    cfg = SolverConfig()
    verts_cam = pose.apply(evaluate_mesh(head, x).vertices)
    idx, grad, r = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    analytic = 2.0 * twist_rows(verts_cam[idx], grad).T @ r

    def under_twist(xi):
        return evaluate_objective(head, apply_twist(pose, xi[:3], xi[3:]), x,
                                  corrs, landmarks, intr, cfg)

    fd = _central_gradient(under_twist, np.zeros(6), 1e-6)
    assert np.abs(analytic - fd).max() <= 1e-6 * np.abs(fd).max()


def test_eliminated_twist_gives_the_joint_least_squares_step(intr):
    # with no L1 weight and a solution inside the box, the step solved on
    # the form with the twist eliminated, plus the twist read back from
    # it, is the joint Gauss-Newton step: the least-squares solution of
    # [J a] (t, x - x_lin) = -r. The form's value there is that
    # solution's residual, which only holds when r, too, is projected
    rng = np.random.default_rng(41)
    model = random_model(rng, side=4, n=6)
    cfg = SolverConfig(w_r=0.0)
    x_true = rng.uniform(0.3, 0.7, model.n)
    truth = RigidPose.from_axis_angle((0.2, 1.0, 0.1), np.deg2rad(8.0), (0.01, 0.0, 0.5))
    target = truth.apply(evaluate_mesh(model, x_true).vertices)
    pose = apply_twist(truth, np.deg2rad(1.0) * np.array([0.3, -0.5, 0.8]),
                       (0.002, -0.001, 0.001))
    x_lin = x_true + rng.uniform(-0.05, 0.05, model.n)
    idx = np.concatenate([np.arange(model.vertex_count),
                          rng.integers(0, model.vertex_count, size=8)])
    normals = rng.normal(size=(len(idx), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    corrs = CorrespondenceSet(idx, target[idx], normals)
    lm_idx = rng.choice(model.vertex_count, size=4, replace=False)
    landmarks = LandmarkSet(tuple(f"lm{j}" for j in range(4)), lm_idx,
                            project(intr, target[lm_idx]), np.ones(4))

    verts_cam = pose.apply(evaluate_mesh(model, x_lin).vertices)
    rows = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    ridx, grad, r = rows
    J = twist_rows(verts_cam[ridx], grad)
    quad, T, t0 = assemble_quadratic(model, pose, corrs, landmarks, intr, x_lin, cfg,
                                     rows=rows, eliminate=J)
    x_new, _ = solve_l1_box(quad, 0.0, x0=x_lin, sweeps=10000)
    t = T @ x_new + t0

    a = np.einsum("mc,mkc->mk", grad @ quat_to_matrix(pose.rotation),
                  model.basis.transpose(1, 0, 2)[ridx])
    ref = np.linalg.lstsq(np.hstack([J, a]), -r, rcond=None)[0]
    assert (0.0 < x_lin + ref[6:]).all() and (x_lin + ref[6:] < 1.0).all()
    assert np.abs(ref[:6]).max() > 1e-3                 # the twist moves
    np.testing.assert_allclose(x_new, x_lin + ref[6:], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(t, ref[:6], rtol=0.0, atol=1e-9)
    joint = r + J @ ref[:6] + a @ ref[6:]
    assert abs(quad.value(x_new) - joint @ joint) <= 1e-9 * max(1.0, joint @ joint)


def _assemble_qr_reference(model, pose, rows, x_lin, J):
    """assemble_quadratic(..., eliminate=J) as it was before the Gram
    matrix: with J = QR, the form is built from a and h with range(J)
    projected out, and the twist is read back from R."""
    idx, grad, r = rows
    n = model.n
    a = np.einsum("mc,mkc->mk", grad @ quat_to_matrix(pose.rotation),
                  model.basis.transpose(1, 0, 2)[idx])
    h = r - a @ x_lin

    def form(a, h):
        return QuadraticForm(2.0 * (a.T @ a), 2.0 * (a.T @ h), float(h @ h))

    Q, R = np.linalg.qr(J)
    if R.shape[0] < 6 or np.linalg.cond(R) ** 2 > _COND_LIMIT:
        return form(a, h), np.zeros((6, n)), np.zeros(6)
    qa, qh = Q.T @ a, Q.T @ h
    back = -np.linalg.solve(R, np.column_stack([qa, qh]))          # (6, n + 1)
    return form(a - Q @ qa, h - Q @ qh), back[:, :n], back[:, n]


def _eliminated_and_reference(model, pose, corrs, landmarks, intr, x_lin):
    """(form, T, t0) from assemble_quadratic and from the QR reference,
    on the same rows and twist rows."""
    cfg = SolverConfig()
    verts_cam = pose.apply(evaluate_mesh(model, x_lin).vertices)
    rows = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
    J = twist_rows(verts_cam[rows[0]], rows[1])
    got = assemble_quadratic(model, pose, corrs, landmarks, intr, x_lin, cfg,
                             rows=rows, eliminate=J)
    return got, _assemble_qr_reference(model, pose, rows, x_lin, J)


def _assert_close_to_reference(got, ref):
    # the Gram matrix squares the conditioning of the subtraction, so the
    # two agree to rounding, not bit for bit
    (q, T, t0), (rq, rT, rt0) = got, ref
    for x, y in ((q.H, rq.H), (q.g, rq.g), (q.c, rq.c), (T, rT), (t0, rt0)):
        assert np.abs(x - y).max() <= 1e-12 * np.abs(y).max()


@pytest.mark.parametrize("with_landmarks", [True, False], ids=["landmarks", "depth-only"])
def test_eliminated_form_matches_qr_reference(turned_scene, head, intr, with_landmarks):
    pose, x_lin, corrs, landmarks = turned_scene
    got, ref = _eliminated_and_reference(head, pose, corrs,
                                         landmarks if with_landmarks else None, intr, x_lin)
    assert np.abs(ref[1]).max() > 0.0
    _assert_close_to_reference(got, ref)


@pytest.mark.parametrize("kind", ["dense", "unmoved-vertex"])
def test_eliminated_form_matches_qr_reference_on_small_models(intr, kind):
    for model, pose, corrs, landmarks, x_lin in _small_model_cases(kind):
        got, ref = _eliminated_and_reference(model, pose, corrs, landmarks, intr, x_lin)
        assert np.abs(ref[1]).max() > 0.0
        _assert_close_to_reference(got, ref)


def test_eliminated_form_falls_back_with_the_qr_reference(turned_scene, head, intr):
    # a plane against a plane (J^T J singular) and five rows (too few for
    # six twist components): both keep the twist at 0 and return the
    # plain form
    sheet = flat_sheet_model(0.99)
    wall_pose = RigidPose.from_axis_angle((0.0, 0.0, 1.0), 0.02, (0.003, -0.002, 0.0))
    wall = find_correspondences(wall_pose.apply(sheet.neutral.vertices), wall_frame(intr),
                                intr, _MAX_DISTANCE)
    assert len(wall) > 6
    head_pose, head_x, head_corrs, _ = turned_scene
    five = CorrespondenceSet(head_corrs.vertex_indices[:5], head_corrs.points[:5],
                             head_corrs.normals[:5])
    for model, pose, corrs, x_lin in ((sheet, wall_pose, wall, np.zeros(1)),
                                      (head, head_pose, five, head_x)):
        got, ref = _eliminated_and_reference(model, pose, corrs, None, intr, x_lin)
        for _, T, t0 in (got, ref):
            assert not T.any() and not t0.any()
        plain = assemble_quadratic(model, pose, corrs, None, intr, x_lin, SolverConfig())
        _assert_close_to_reference(got, (plain, ref[1], ref[2]))
        _assert_close_to_reference(ref, (plain, ref[1], ref[2]))


def _residual_rows_reference(verts_cam, corrs, landmarks, intr, cfg):
    """_residual_rows as it was written, one list per output joined by
    np.concatenate."""
    sw = np.sqrt(cfg.w_d)
    idx = [corrs.vertex_indices]
    grad = [sw * corrs.normals]
    res = [sw * corrs.residuals(verts_cam)]
    if landmarks is not None and len(landmarks) > 0:
        v = verts_cam[landmarks.vertex_indices]
        sw = np.sqrt(cfg.w_l * landmarks.confidences)[:, None]
        idx.append(np.repeat(landmarks.vertex_indices, 2))
        grad.append((sw[:, :, None] * landmark_jacobian(v, intr)).reshape(-1, 3))
        res.append((sw * (project(intr, v) - landmarks.pixels)).reshape(-1))
    return np.concatenate(idx), np.concatenate(grad), np.concatenate(res)


def _assemble_eliminated_reference(model, pose, rows, x_lin, J):
    """assemble_quadratic(..., eliminate=J) as it was written: a from the
    batched matmul into its own array, then [J a h] joined by
    np.column_stack before its Gram matrix is taken."""
    idx, grad, r = rows
    n = model.n
    blocks = np.ascontiguousarray(model.basis.transpose(1, 2, 0)[idx])
    a = ((grad @ quat_to_matrix(pose.rotation))[:, None, :] @ blocks)[:, 0]
    M = np.column_stack([J, a, r - a @ x_lin])
    N = M.T @ M
    if len(idx) < 6 or np.linalg.cond(N[:6, :6]) > _COND_LIMIT:
        return QuadraticForm._of_gram(N[6:, 6:]), np.zeros((6, n)), np.zeros(6)
    X = np.linalg.solve(N[:6, :6], N[:6, 6:])
    return QuadraticForm._of_gram(N[6:, 6:] - N[6:, :6] @ X), -X[:, :n], -X[:, n]


def _eliminated_cases(turned_scene, head, kind):
    if kind == "head":
        pose, x_lin, corrs, landmarks = turned_scene
        five = CorrespondenceSet(corrs.vertex_indices[:5], corrs.points[:5],
                                 corrs.normals[:5])
        return [(head, pose, corrs, landmarks, x_lin), (head, pose, corrs, None, x_lin),
                (head, pose, five, None, x_lin)]
    return list(_small_model_cases(kind))


@pytest.mark.parametrize("kind", ["head", "dense", "unmoved-vertex"])
def test_eliminated_form_bit_identical_to_column_stack(turned_scene, head, intr, kind):
    # [J a h] written into one buffer gives the Gram matrix, and so the
    # form and the twist, of the three blocks joined after the fact
    cfg = SolverConfig()
    for model, pose, corrs, landmarks, x_lin in _eliminated_cases(turned_scene, head, kind):
        verts_cam = pose.apply(evaluate_mesh(model, x_lin).vertices)
        rows = _residual_rows(verts_cam, corrs, landmarks, intr, cfg)
        J = twist_rows(verts_cam[rows[0]], rows[1])
        got = assemble_quadratic(model, pose, corrs, landmarks, intr, x_lin, cfg,
                                 rows=rows, eliminate=J)
        ref = _assemble_eliminated_reference(model, pose, rows, x_lin, J)
        _assert_same_form(got[0], ref[0])
        assert got[1].tobytes() == ref[1].tobytes()
        assert got[2].tobytes() == ref[2].tobytes()


def test_twist_rows_match_np_cross(turned_scene, head, intr):
    pose, x, corrs, landmarks = turned_scene
    verts_cam = pose.apply(evaluate_mesh(head, x).vertices)
    idx, grad, _ = _residual_rows(verts_cam, corrs, landmarks, intr, SolverConfig())
    rng = np.random.default_rng(43)
    cases = [(verts_cam[idx], grad), (np.zeros((3, 3)), -np.eye(3)),
             (np.array([[-0.0, 0.0, 1.0]]), np.array([[0.0, -0.0, -0.0]]))]
    cases += [(rng.normal(scale=s, size=(200, 3)), rng.normal(scale=1 / s, size=(200, 3)))
              for s in (1e-3, 1.0, 1e3)]
    for points, grads in cases:
        ref = np.concatenate([np.cross(points, grads), grads], axis=1)
        got = twist_rows(points, grads)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _random_states(head, pose, rng, count=4):
    """(pose, x) pairs near `pose`: small twists, sparse and dense x."""
    for j in range(count):
        moved = apply_twist(pose, np.deg2rad(2.0) * rng.normal(size=3),
                            rng.normal(scale=0.003, size=3))
        x = rng.uniform(0, 0.6, head.n)
        yield moved, x * (rng.uniform(size=head.n) < 0.2) if j % 2 else x


@pytest.mark.parametrize("with_landmarks", [True, False], ids=["landmarks", "depth-only"])
def test_candidate_score_is_the_objective_bit_for_bit(turned_scene, head, intr,
                                                      with_landmarks):
    # a candidate is scored without gradient rows; its value, the held
    # evaluation's (with the rows) and evaluate_objective's are one
    # number, and the rows are those of the concatenating reference
    pose, _, corrs, landmarks = turned_scene
    landmarks = landmarks if with_landmarks else None
    cfg = SolverConfig()
    for moved, x in _random_states(head, pose, np.random.default_rng(44)):
        score = solver._evaluate_at(head, moved, x, corrs, landmarks, intr, cfg,
                                    gradients=False)
        held = solver._evaluate_at(head, moved, x, corrs, landmarks, intr, cfg)
        assert score.rows is None
        assert score.f == held.f == evaluate_objective(head, moved, x, corrs, landmarks,
                                                       intr, cfg)
        ref = _residual_rows_reference(held.verts_cam, corrs, landmarks, intr, cfg)
        for got, want in zip(held.rows, ref):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # a rounding step apart in one r_i can leave r . r as it was, so the
        # residuals are compared, not only the value
        alone = _residual_rows(held.verts_cam, corrs, landmarks, intr, cfg, gradients=False)
        assert alone[:2] == (None, None) and alone[2].tobytes() == ref[2].tobytes()
        r = ref[2]
        assert score.f == float(r @ r) + cfg.w_r * float(np.sum(np.abs(x)))


# ---------------------------------------------------------------------------
# solve_l1_box

def _separable(t, scale=2.0):
    n = len(t)
    return QuadraticForm(scale * np.eye(n), -scale * np.asarray(t, dtype=float), 0.0)


def test_solver_soft_threshold_analytic():
    q = _separable([0.8, 0.8, 0.8])
    x, trace = solve_l1_box(q, w_r=0.6, sweeps=50)
    np.testing.assert_allclose(x, [0.5, 0.5, 0.5], atol=1e-12)
    # separable: the first sweep lands every coordinate on its optimum and
    # the second, which moves nothing, ends the solve
    assert len(trace) == 3


def test_solver_full_shrinkage():
    q = _separable([0.8, 0.8])
    x, _ = solve_l1_box(q, w_r=1.6)
    assert (x == 0.0).all()
    x, _ = solve_l1_box(q, w_r=5.0)
    assert (x == 0.0).all()


def test_solver_boundary_tie_prefers_zero():
    # |response| exactly equal to w_r shrinks fully
    q = _separable([0.8])
    x, _ = solve_l1_box(q, w_r=1.6, x0=np.array([0.3]))
    assert x[0] == 0.0


def test_solver_clamps_to_box():
    q = _separable([1.7, -0.9])
    x, _ = solve_l1_box(q, w_r=0.0)
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)


def test_solver_freezes_unobserved_coordinate():
    H = np.diag([2.0, 0.0])
    q = QuadraticForm(H, np.array([-1.6, -1.0]), 0.0)
    x, _ = solve_l1_box(q, w_r=0.0, x0=np.array([0.0, 0.77]))
    assert x[1] == 0.77


def test_solver_trace_starts_at_x0_and_descends():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 4))
    q = QuadraticForm(a.T @ a, rng.normal(size=4), 1.0)
    x0 = rng.uniform(0, 1, 4)
    x, trace = solve_l1_box(q, w_r=0.3, x0=x0, record_updates=True)
    assert abs(trace[0] - (q.value(x0) + 0.3 * np.abs(x0).sum())) < 1e-12
    diffs = np.diff(trace)
    assert diffs.max() <= 1e-12 * max(1.0, abs(trace[0]))
    assert abs(trace[-1] - (q.value(x) + 0.3 * np.abs(x).sum())) < 1e-12


def _random_psd_instance(rng, n=3):
    rows = int(rng.integers(2, 6))
    a = rng.normal(size=(rows, n))
    g = rng.normal(scale=2.0, size=n)
    return QuadraticForm(a.T @ a, g, float(rng.normal()))


def _grid_optimum(q, w_r, res=101):
    g = np.linspace(0.0, 1.0, res)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = 0.5 * np.einsum("ij,ij->i", pts @ q.H, pts) + pts @ q.g + q.c \
        + w_r * pts.sum(axis=1)
    return float(vals.min())


def test_solver_matches_grid_oracle_sample():
    rng = np.random.default_rng(6)
    for _ in range(20):
        q = _random_psd_instance(rng)
        w_r = float(rng.uniform(0, 2))
        x, trace = solve_l1_box(q, w_r, sweeps=200)
        assert trace[-1] <= _grid_optimum(q, w_r) + 1e-4


def test_solver_sparsity_monotone_in_weight():
    rng = np.random.default_rng(7)
    for _ in range(10):
        q = _random_psd_instance(rng)
        nnz_prev = None
        for w_r in (0.0, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
            x, _ = solve_l1_box(q, w_r, sweeps=300)
            nnz = int(np.count_nonzero(x > 1e-12))
            if nnz_prev is not None:
                assert nnz <= nnz_prev
            nnz_prev = nnz


def _soft_reference(rho, lam):
    if rho > lam:
        return rho - lam
    if rho < -lam:
        return rho + lam
    return 0.0


def _solve_l1_box_reference(q, w_r, x0=None, sweeps=50, record_updates=False,
                            face_step=True):
    """solve_l1_box as it was before the Python-float loop: the same
    coordinate descent on NumPy scalars, updating with the column H[:, k],
    and the same face step after each sweep that moved; `face_step=False`
    is plain coordinate descent."""
    n = q.n
    x = np.zeros(n) if x0 is None else np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    H = q.H
    diag = np.diag(H).copy()
    hx = H @ x

    def f():
        return float(0.5 * x @ hx + q.g @ x + q.c + w_r * np.sum(np.abs(x)))

    trace = [f()]
    for _ in range(sweeps):
        max_move = 0.0
        for k in range(n):
            if diag[k] <= 0.0:
                continue
            rho = -(q.g[k] + hx[k] - diag[k] * x[k])
            new = min(max(_soft_reference(rho, w_r) / diag[k], 0.0), 1.0)
            delta = new - x[k]
            if delta != 0.0:
                hx += H[:, k] * delta
                x[k] = new
                max_move = max(max_move, abs(delta))
            if record_updates:
                trace.append(f())
        if not record_updates:
            trace.append(f())
        if max_move <= 1e-10:
            break
        if not face_step:
            continue
        free = (diag > 0.0) & (x > 0.0) & (x < 1.0)
        if not free.any():
            continue
        bound = x.copy()
        bound[free] = 0.0
        try:
            y = np.linalg.solve(H[np.ix_(free, free)],
                                -(q.g[free] + w_r + H[free] @ bound))
        except np.linalg.LinAlgError:
            continue
        if not ((y > 0.0).all() and (y < 1.0).all()):
            continue
        x_prev, hx_prev = x, hx
        x = x.copy()
        x[free] = y
        hx = H @ x
        f_face = f()
        if f_face < trace[-1]:
            trace.append(f_face)
        else:
            x, hx = x_prev, hx_prev
    return x, trace


def _assert_same_solve(q, w_r, **kwargs):
    x, trace = solve_l1_box(q, w_r, **kwargs)
    x_ref, trace_ref = _solve_l1_box_reference(q, w_r, **kwargs)
    assert x.tobytes() == x_ref.tobytes()
    assert np.array(trace).tobytes() == np.array(trace_ref).tobytes()


def test_solver_bit_identical_to_numpy_loop():
    rng = np.random.default_rng(13)
    for case in range(48):
        n = (1, 4, 12, 51)[case % 4]
        a = rng.normal(size=(n + int(rng.integers(-n // 2, 3)) or 1, n))
        if n > 1 and case % 3 == 0:
            a[:, rng.choice(n, size=max(1, n // 4), replace=False)] = 0.0   # H_kk == 0
        q = QuadraticForm(a.T @ a, rng.normal(scale=2.0, size=n), float(rng.normal()))
        w_r = float((0.0, 0.05, 0.5, 3.0)[(case // 4) % 4])
        # warm starts include values outside the box, which are clipped
        x0 = None if case % 2 else rng.uniform(-0.2, 1.2, n)
        _assert_same_solve(q, w_r, x0=x0, sweeps=(50, 3)[case % 5 == 0],
                           record_updates=bool((case // 2) % 2))


def test_solver_bit_identical_on_assembled_quadratic(scene, head, intr):
    # a warm solve as the fitter runs it, on the head's real quadratic
    x_true, frame, landmarks = scene
    pose = frontal_pose()
    x0 = np.clip(x_true + np.random.default_rng(14).normal(scale=0.05, size=head.n), 0, 1)
    corrs = find_correspondences(pose.apply(evaluate_mesh(head, x0).vertices),
                                 frame, intr, _MAX_DISTANCE)
    q = assemble_quadratic(head, pose, corrs, landmarks, intr, x0, SolverConfig())
    for record_updates in (False, True):
        _assert_same_solve(q, SolverConfig().w_r, x0=x0, record_updates=record_updates)


def _kkt_violation(q, w_r, x):
    """Largest violation of the box-lasso optimality conditions at x: the
    gradient H x + g + w_r is 0 on free coordinates, >= 0 at 0, <= 0 at 1."""
    grad = q.H @ x + q.g + w_r
    free = (x > 0.0) & (x < 1.0)
    return max(np.abs(grad[free]).max(initial=0.0),
               (-grad[x == 0.0]).max(initial=0.0),
               grad[x == 1.0].max(initial=0.0))


def test_solver_face_step_solves_ill_conditioned_instance():
    # six nearly parallel columns (cond(H) in the thousands): coordinate
    # descent crawls along the valley and stops at the 50-sweep cap
    rng = np.random.default_rng(17)
    a = rng.normal(size=(20, 1)) + 0.1 * rng.normal(size=(20, 6))
    b = a @ rng.uniform(0.3, 0.6, 6)
    q = QuadraticForm(2.0 * a.T @ a, -2.0 * a.T @ b, float(b @ b))
    w_r = 1e-3
    x_cd, trace_cd = _solve_l1_box_reference(q, w_r, face_step=False)
    assert len(trace_cd) == 51 and _kkt_violation(q, w_r, x_cd) > 1e-3
    x, trace = solve_l1_box(q, w_r)
    assert len(trace) < 10
    assert _kkt_violation(q, w_r, x) <= 1e-9
    assert np.diff(trace).max() <= 1e-12 * abs(trace[0])


def test_solver_skips_singular_face_step(monkeypatch):
    # columns 0 and 1 are identical, so once both are free H[F, F] is
    # exactly singular: the face step is skipped and the solve is plain
    # coordinate descent
    rng = np.random.default_rng(18)
    a = rng.normal(size=(8, 4))
    a[:, 1] = a[:, 0]
    q = QuadraticForm(a.T @ a, -a.T @ (a @ np.array([0.3, 0.3, 0.5, 0.6])), 0.0)
    real_solve, raised = np.linalg.solve, []

    def recording(*args):
        try:
            return real_solve(*args)
        except np.linalg.LinAlgError:
            raised.append(True)
            raise

    monkeypatch.setattr(np.linalg, "solve", recording)
    x0 = np.array([0.2, 0.4, 0.1, 0.1])
    x, trace = solve_l1_box(q, 0.01, x0=x0)
    monkeypatch.undo()
    assert raised
    assert 0.0 < x[0] < 1.0 and 0.0 < x[1] < 1.0
    assert np.diff(trace).max() <= 1e-12 * abs(trace[0])
    x_cd, trace_cd = _solve_l1_box_reference(q, 0.01, x0=x0, face_step=False)
    assert x.tobytes() == x_cd.tobytes()
    assert np.array(trace).tobytes() == np.array(trace_cd).tobytes()


@pytest.mark.parametrize("w_r", [np.nan, np.inf, -0.1])
def test_solver_rejects_bad_weight(w_r):
    with pytest.raises(ValueError, match="w_r"):
        solve_l1_box(_separable([0.8, 0.8]), w_r)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solver_rejects_non_finite_start(bad):
    with pytest.raises(ValueError, match="x0"):
        solve_l1_box(_separable([0.8, 0.8]), 0.1, x0=np.array([0.5, bad]))


# ---------------------------------------------------------------------------
# fit_frame

def test_fit_frame_recovers_sparse_truth(scene, head, intr):
    x_true, frame, landmarks = scene
    fit = fit_frame(head, frame, landmarks, intr,
                    cfg=SolverConfig(w_r=0.01), init_pose=frontal_pose())
    err = np.abs(fit.x - x_true)
    assert err.max() <= 0.05
    assert err[x_true == 0.0].max() < 0.02
    assert fit.converged
    assert fit.correspondence_count > 100
    # returned state obeys the FrameFit invariants
    assert fit.x.min() >= 0.0 and fit.x.max() <= 1.0
    trace = np.asarray(fit.objective_trace)
    assert (np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))).all()


def test_fit_frame_builds_each_mesh_once(scene, head, intr, monkeypatch):
    # per outer iteration one mesh, for scoring the joint step; it is
    # kept as the accepted state's mesh, so the next correspondence search
    # and quadratic reuse it. The mesh of the starting coefficients is
    # built once before the loop. Calls are counted through the module globals
    # the fitter looks them up by, which are the names the benchmark's
    # tracer wraps: a call it could not see would count 0 here
    counts = Counter()

    def counting(name):
        real = getattr(solver, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("evaluate_mesh", "find_correspondences", "assemble_quadratic",
                 "solve_l1_box"):
        monkeypatch.setattr(solver, name, counting(name))
    _, frame, landmarks = scene
    fit_frame(head, frame, landmarks, intr, cfg=SolverConfig(w_r=0.01),
              init_pose=frontal_pose())
    iterations = counts["find_correspondences"]
    assert iterations >= 2
    assert counts["assemble_quadratic"] == iterations
    assert counts["solve_l1_box"] == iterations
    # every coefficient step was accepted whole, so no halved candidate
    # added a mesh
    assert counts["evaluate_mesh"] == iterations + 1


def test_fit_frame_halved_coefficient_steps_keep_the_trace(scene, head, intr, monkeypatch):
    # a first coefficient solve that returns all ones, far past its
    # solution, forces backtrack to halve the joint step, a path no
    # unmodified fit reaches: each halved candidate builds one more mesh.
    # (A constant overshoot does not do it: the twist is solved from the
    # overshot coefficients and absorbs much of it.) The fit then reports
    # the objective of the state it returns, on the last correspondence
    # set, as its last trace value
    real_solve = solver.solve_l1_box
    solves = Counter()

    def overshooting(q, w_r, x0=None, **kwargs):
        x, trace = real_solve(q, w_r, x0=x0, **kwargs)
        solves["calls"] += 1
        return (np.ones_like(x) if solves["calls"] == 1 else x), trace

    meshes = Counter()
    real_mesh = solver.evaluate_mesh

    def counted_mesh(*args, **kwargs):
        meshes["calls"] += 1
        return real_mesh(*args, **kwargs)

    searches = []
    real_search = solver.find_correspondences

    def captured_search(*args, **kwargs):
        searches.append(real_search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(solver, "solve_l1_box", overshooting)
    monkeypatch.setattr(solver, "evaluate_mesh", counted_mesh)
    monkeypatch.setattr(solver, "find_correspondences", captured_search)
    _, frame, landmarks = scene
    cfg = SolverConfig(w_r=0.01)
    fit = fit_frame(head, frame, landmarks, intr, cfg=cfg, init_pose=frontal_pose())
    iterations = len(searches)
    assert meshes["calls"] > iterations + 1          # some candidates were halved
    trace = np.asarray(fit.objective_trace)
    assert (np.diff(trace) <= 0.0).all()
    assert fit.converged or len(trace) == solver._MAX_ITERATIONS
    assert evaluate_objective(head, fit.pose, fit.x, searches[-1], landmarks, intr,
                              cfg) == trace[-1] == fit.objective


@pytest.mark.parametrize("halved", [False, True], ids=["full-steps", "halved-steps"])
def test_fit_frame_scores_candidates_as_evaluate_objective(scene, head, intr, monkeypatch,
                                                          halved):
    # every candidate the joint step scores, whole or halved, is worth
    # what evaluate_objective gives at its (pose, x) on that iteration's
    # set, bit for bit; the pose and the set are read off the assembly's
    # arguments. The halved path is forced by a first coefficient solve
    # that returns all ones
    held = []
    real_assemble = solver.assemble_quadratic

    def recording_assemble(model, pose, corrs, *args, **kwargs):
        held.append((pose, corrs))
        return real_assemble(model, pose, corrs, *args, **kwargs)

    scored = []
    real_backtrack = solver.backtrack

    def recording_backtrack(cur, full, bound, evaluate):
        def scoring(s):
            value = evaluate(s)
            scored.append((held[-1], s.copy(), value.f))
            return value
        return real_backtrack(cur, full, bound, scoring)

    real_solve = solver.solve_l1_box

    def solve(q, w_r, x0=None, **kwargs):
        x, trace = real_solve(q, w_r, x0=x0, **kwargs)
        return (np.ones_like(x) if halved and len(held) == 1 else x), trace

    monkeypatch.setattr(solver, "assemble_quadratic", recording_assemble)
    monkeypatch.setattr(solver, "backtrack", recording_backtrack)
    monkeypatch.setattr(solver, "solve_l1_box", solve)
    _, frame, landmarks = scene
    cfg = SolverConfig(w_r=0.01)
    fit_frame(head, frame, landmarks, intr, cfg=cfg, init_pose=frontal_pose())
    assert (len(scored) > len(held)) == halved and len(held) >= 2
    for (pose, corrs), s, f in scored:
        assert f == evaluate_objective(head, apply_twist(pose, s[:3], s[3:6]), s[6:],
                                       corrs, landmarks, intr, cfg)


def test_fit_frame_objective_is_the_returned_state_after_the_break(
        head, head_landmark_ids, intr, monkeypatch):
    # a noisy cold fit stops when the refreshed set raises the raw sum
    # above the recorded trace; that last value is not in the trace, but
    # it is the objective of the returned state on the last set
    searches = []
    real_search = solver.find_correspondences

    def captured_search(*args, **kwargs):
        searches.append(real_search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(solver, "find_correspondences", captured_search)
    x_true = sparse_coefficients(head.n, np.random.default_rng(2))
    gen = generate_sequence(head, constant_script(x_true, frontal_pose(), 1), intr,
                            head_landmark_ids,
                            NoiseConfig(depth_sigma=0.002, landmark_sigma=1.0, seed=2))
    fit = fit_frame(head, gen.frames[0], gen.landmarks[0], intr)
    trace = fit.objective_trace
    assert not fit.converged and len(searches) == len(trace) + 1 < solver._MAX_ITERATIONS
    assert fit.objective > trace[-1]
    assert evaluate_objective(head, fit.pose, fit.x, searches[-1], gen.landmarks[0],
                              intr, SolverConfig()) == fit.objective


def test_fit_frame_l1_domination_zeroes_everything(scene, head, intr):
    _, frame, landmarks = scene
    fit = fit_frame(head, frame, landmarks, intr,
                    cfg=SolverConfig(w_r=1e3), init_pose=frontal_pose())
    assert (fit.x == 0.0).all()


def test_fit_frame_neutral_cold_start(head, head_landmark_ids, intr):
    gen = generate_sequence(head, constant_script(np.zeros(head.n), frontal_pose(), 1),
                            intr, head_landmark_ids, NoiseConfig())
    fit = fit_frame(head, gen.frames[0], gen.landmarks[0], intr)
    assert fit.x.max() < 0.02


@pytest.mark.parametrize("pose", [
    RigidPose.from_axis_angle((0.3, 1.0, 0.2), np.deg2rad(12.0), (0.01, -0.01, 0.55)),
    RigidPose.from_axis_angle((1.0, 0.0, 0.0), np.deg2rad(15.0), (-0.02, 0.01, 0.45)),
    RigidPose.from_axis_angle((0.0, 0.0, 1.0), np.deg2rad(15.0), (0.0, 0.0, 0.7)),
], ids=["oblique-12deg", "pitch-15deg", "roll-15deg"])
def test_fit_frame_cold_start_aligns_without_icp(head, head_landmark_ids, intr,
                                                 monkeypatch, pose):
    # a cold fit starts from its landmarks and its own pose steps align
    # the head; align_rigid is never called
    def no_icp(*args, **kwargs):
        raise AssertionError("fit_frame called align_rigid")

    monkeypatch.setattr(solver, "align_rigid", no_icp)
    x_true = sparse_coefficients(head.n, np.random.default_rng(0), active=4)
    gen = generate_sequence(head, constant_script(x_true, pose, 1),
                            intr, head_landmark_ids, NoiseConfig())
    fit = fit_frame(head, gen.frames[0], gen.landmarks[0], intr)
    rot, trans = pose_delta(fit.pose, pose)
    assert np.rad2deg(rot) < 0.5
    assert trans < 0.5e-3
    assert np.abs(fit.x - x_true).max() < 0.1


def _noisy_cold_frames(head, head_landmark_ids, intr):
    """Eight cold frames built as the benchmark's noisy cold fits are:
    yaw and pitch within 15 degrees at 0.4-0.7 m, a few active shapes,
    2 mm depth noise, 1 px landmark noise and 15% landmark dropout; the
    last frame has a blank band over a fifth of the face's rows."""
    rng = np.random.default_rng(11)
    noise = NoiseConfig(depth_sigma=0.002, landmark_sigma=1.0, landmark_dropout=0.15)
    frames = []
    for i in range(8):
        pitch, yaw = rng.uniform(-15.0, 15.0, 2)
        truth = RigidPose(quat_from_rotvec(np.deg2rad([pitch, yaw, rng.uniform(-5.0, 5.0)])),
                          [*rng.uniform(-0.01, 0.01, 2), rng.uniform(0.4, 0.7)])
        x_true = sparse_coefficients(head.n, rng, active=4)
        frame, landmarks = generate_frame(head, ScriptFrame(x_true, truth, 0.0), intr,
                                          head_landmark_ids, replace(noise, seed=i), i)
        if i == 7:
            rows = np.flatnonzero(frame.valid_mask().any(axis=1))
            top, height = rows[0] + (rows[-1] - rows[0]) // 2, (rows[-1] - rows[0]) // 5
            values = np.array(frame.values)
            values[top:top + height] = 0.0
            frame = DepthFrame(values)
        frames.append((frame, landmarks, truth))
    return frames


def test_fit_frame_landmark_start_saves_searches(head, head_landmark_ids, intr,
                                                 monkeypatch):
    # a cold fit starts from the landmark start; started from the depth
    # centroid instead, the same fits spend 1.6 more searches each
    # turning the head into place, and end no closer to the truth
    searches = []
    real = solver.find_correspondences

    def counted(*args, **kwargs):
        searches.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "find_correspondences", counted)
    calls, worst = Counter(), Counter()
    for frame, landmarks, truth in _noisy_cold_frames(head, head_landmark_ids, intr):
        for start in ("landmarks", "centroid"):
            init = (None if start == "landmarks" else
                    solver.initial_pose_from_depth(head.neutral, frame, intr))
            before = len(searches)
            fit = fit_frame(head, frame, landmarks, intr, init_pose=init)
            calls[start] += len(searches) - before
            rot, _ = pose_delta(fit.pose, truth)
            worst[start] = max(worst[start], np.rad2deg(rot))
    assert worst["landmarks"] <= worst["centroid"]
    assert (calls["landmarks"], calls["centroid"]) == (28, 41)


def test_fit_frame_landmarks_only(scene, head, intr):
    _, _, landmarks = scene
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    fit = fit_frame(head, blank, landmarks, intr,
                    cfg=SolverConfig(w_r=0.01), init_pose=frontal_pose())
    assert fit.correspondence_count == 0
    assert fit.landmark_count == len(landmarks)
    trace = np.asarray(fit.objective_trace)
    assert trace[-1] <= trace[0]


def test_fit_frame_keeps_pose_when_pose_system_is_singular(intr):
    # plane against plane: the pose step's normal equations are singular,
    # so every outer iteration keeps the initial pose as it is
    init = RigidPose.from_axis_angle((0.0, 0.0, 1.0), 0.02, (0.003, -0.002, 0.0))
    fit = fit_frame(flat_sheet_model(0.99), wall_frame(intr), None, intr,
                    init_pose=init)
    assert fit.correspondence_count > 0
    np.testing.assert_array_equal(fit.pose.rotation, init.rotation)
    np.testing.assert_array_equal(fit.pose.translation, init.translation)


def test_fit_frame_keeps_pose_with_fewer_rows_than_twist(scene, head, intr):
    # two landmarks and no depth give four residual rows, too few to fix
    # the six twist components: the pose is kept, the coefficients move
    _, _, landmarks = scene
    moved = np.abs(head.basis[:, landmarks.vertex_indices]).sum(axis=(0, 2))
    pick = np.argsort(moved)[-2:]                  # two that shapes move
    two = LandmarkSet(tuple(landmarks.ids[k] for k in pick), landmarks.vertex_indices[pick],
                      landmarks.pixels[pick] + 3.0, landmarks.confidences[pick])
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    init = frontal_pose()
    fit = fit_frame(head, blank, two, intr, cfg=SolverConfig(w_r=0.0), init_pose=init)
    np.testing.assert_array_equal(fit.pose.rotation, init.rotation)
    np.testing.assert_array_equal(fit.pose.translation, init.translation)
    assert fit.objective_trace[-1] < fit.objective_trace[0]


def test_fit_frame_requires_some_data(head, intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    with pytest.raises(TrackingError):
        fit_frame(head, blank, None, intr, init_pose=frontal_pose())


def test_fit_frame_ground_truth_is_near_fixed_point(scene, head, intr):
    # with no regularization the exact-data objective stays at the
    # rasterization floor and the coefficients do not drift from truth
    x_true, frame, landmarks = scene
    fit = fit_frame(head, frame, landmarks, intr,
                    cfg=SolverConfig(w_r=0.0), init_pose=frontal_pose())
    assert fit.objective_trace[-1] < 5e-4
    assert np.abs(fit.x - x_true).max() < 0.02


def test_fit_frame_permutation_invariance(scene, head, intr):
    x_true, frame, landmarks = scene
    rng = np.random.default_rng(8)
    perm = rng.permutation(head.n)
    shuffled = BlendshapeModel(head.neutral, head.basis[perm],
                               tuple(head.names[k] for k in perm))
    cfg = SolverConfig(w_r=0.01)
    fit_a = fit_frame(head, frame, landmarks, intr, cfg=cfg,
                      init_pose=frontal_pose())
    fit_b = fit_frame(shuffled, frame, landmarks, intr, cfg=cfg,
                      init_pose=frontal_pose())
    # coefficient j of the shuffled model is coefficient perm[j] of the original
    np.testing.assert_allclose(fit_b.x, fit_a.x[perm], atol=1e-8)


# ---------------------------------------------------------------------------
# track_sequence

def test_track_single_frame_reduces_to_fit_frame(scene, head, intr):
    _, frame, landmarks = scene
    cfg = SolverConfig(w_r=0.01)
    res = track_sequence(head, [frame], [landmarks], intr, cfg=cfg)
    fit = fit_frame(head, frame, landmarks, intr, cfg=cfg)
    assert res.frame_status == ("ok",)
    np.testing.assert_array_equal(res.fits[0].x, fit.x)
    rot, trans = pose_delta(res.fits[0].pose, fit.pose)
    assert rot == 0.0 and trans == 0.0


def test_track_constant_sequence(head, head_landmark_ids, intr):
    rng = np.random.default_rng(9)
    x_true = sparse_coefficients(head.n, rng)
    gen = generate_sequence(head, constant_script(x_true, frontal_pose(), 5),
                            intr, head_landmark_ids, NoiseConfig())
    res = track_sequence(head, gen.frames, gen.landmarks, intr,
                         cfg=SolverConfig(w_r=0.01))
    assert res.frame_status == ("ok",) * 5
    for fit in res.fits:
        assert np.abs(fit.x - x_true).max() <= 0.05


def test_track_ramp_is_monotone_within_band(head, head_landmark_ids, intr):
    from blendfit.synth import ScriptFrame, SequenceScript
    k = 17
    count = 30
    frames = tuple(
        ScriptFrame(coefficients=np.eye(head.n)[k] * (t / (count - 1)),
                    pose=frontal_pose(), timestamp=t / 30.0)
        for t in range(count))
    gen = generate_sequence(head, SequenceScript(frames), intr,
                            head_landmark_ids, NoiseConfig())
    res = track_sequence(head, gen.frames, gen.landmarks, intr,
                         cfg=SolverConfig(w_r=0.01))
    rec = np.array([fit.x[k] for fit in res.fits])
    truth = np.arange(count) / (count - 1)
    assert np.abs(rec - truth).max() <= 0.05
    assert (np.diff(rec) >= -0.05).all()


def test_track_records_gaps_and_continues(scene, head, intr):
    _, frame, landmarks = scene
    first = DepthFrame(frame.values, frame_index=0, timestamp=0.0)
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32),
                       frame_index=1, timestamp=1 / 30)
    third = DepthFrame(frame.values, frame_index=2, timestamp=2 / 30)
    res = track_sequence(head, [first, blank, third],
                         [landmarks, None, landmarks], intr,
                         cfg=SolverConfig(w_r=0.01))
    assert res.frame_status[0] == "ok"
    assert res.frame_status[1].startswith("failed")
    assert res.frame_status[2] == "ok"
    assert res.fits[1] is None
    assert len(res.sequence) == 2


def test_track_all_failed_raises(head, intr):
    blank = DepthFrame(np.zeros((intr.height, intr.width), dtype=np.float32))
    with pytest.raises(TrackingError):
        track_sequence(head, [blank, blank], [None, None], intr)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(w_d=-1.0)
