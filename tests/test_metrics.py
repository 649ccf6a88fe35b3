"""Viseme-weighted scoring and sequence diagnostics."""

import numpy as np
import pytest

from blendfit import (
    BscSequence,
    DimensionMismatchError,
    FrameAlignment,
    RigidPose,
    SequenceFrame,
    UnknownPhonemeError,
    VisemeTable,
    hybrid_l1_cosine,
    phoneme_to_viseme,
    sequence_report,
    viseme_weighted_error,
)

EXPECTED_WEIGHTS = {
    "/P/": 1.0, "/F/": 0.97, "/SH/": 0.75, "/TH/": 0.66, "/Z/": 0.66,
    "/V2/": 0.6, "/V1/": 0.59, "/V3/": 0.58, "/L/": 0.5, "/V4/": 0.48,
    "/G/": 0.46, "/T/": 0.36, "/SIL/": 0.0,
}


def _seq(rows, names=("a", "b")):
    frames = tuple(
        SequenceFrame(i, i / 30.0, RigidPose.identity(), np.asarray(row, dtype=float))
        for i, row in enumerate(rows))
    return BscSequence(tuple(names), frames)


# ---------------------------------------------------------------------------
# viseme table

def test_default_table_matches_published_weights():
    table = VisemeTable.default()
    assert set(table.visemes) == set(EXPECTED_WEIGHTS)
    for viseme, weight in EXPECTED_WEIGHTS.items():
        assert table.weights[viseme] == weight


def test_phoneme_examples():
    table = VisemeTable.default()
    assert phoneme_to_viseme(table, "p") == ("/P/", 1.0)
    assert phoneme_to_viseme(table, "uw") == ("/V2/", 0.6)
    assert phoneme_to_viseme(table, "sil") == ("/SIL/", 0.0)


def test_every_listed_phoneme_resolves():
    table = VisemeTable.default()
    for ph in table.phonemes:
        viseme, weight = phoneme_to_viseme(table, ph)
        assert viseme in EXPECTED_WEIGHTS
        assert weight == EXPECTED_WEIGHTS[viseme]


def test_unknown_phoneme_raises():
    with pytest.raises(UnknownPhonemeError):
        phoneme_to_viseme(VisemeTable.default(), "qq")


def test_table_rejects_out_of_range_weight():
    with pytest.raises(ValueError):
        VisemeTable({"x": "/A/"}, {"/A/": 1.5})


def test_table_requires_zero_silence_weight():
    with pytest.raises(ValueError):
        VisemeTable({"sil": "/SIL/"}, {"/SIL/": 0.2})


# ---------------------------------------------------------------------------
# hybrid loss

def test_hybrid_zero_on_equal_nonzero():
    a = np.array([0.3, 0.0, 0.7])
    assert hybrid_l1_cosine(a, a, 0.5) == 0.0


def test_hybrid_orthogonal_pure_cosine():
    assert abs(hybrid_l1_cosine(np.eye(3)[0], np.eye(3)[1], alpha=0.0) - 1.0) < 1e-12


def test_hybrid_hand_computed():
    val = hybrid_l1_cosine(np.array([0.5, 0.0]), np.array([0.25, 0.0]), alpha=0.5)
    assert abs(val - 0.0625) < 1e-12


def test_hybrid_zero_vector_conventions():
    z = np.zeros(3)
    a = np.array([0.2, 0.0, 0.1])
    assert hybrid_l1_cosine(z, z, alpha=0.0) == 0.0
    assert abs(hybrid_l1_cosine(a, z, alpha=0.0) - 1.0) < 1e-12
    assert abs(hybrid_l1_cosine(z, a, alpha=0.0) - 1.0) < 1e-12


def test_hybrid_alpha_one_is_mean_absolute_error():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0, 1, 5)
        b = rng.uniform(0, 1, 5)
        assert abs(hybrid_l1_cosine(a, b, alpha=1.0) - np.mean(np.abs(a - b))) < 1e-12


def test_hybrid_non_negative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.uniform(0, 1, 4)
        b = rng.uniform(0, 1, 4)
        assert hybrid_l1_cosine(a, b, float(rng.uniform(0, 1))) >= 0.0


# ---------------------------------------------------------------------------
# viseme-weighted error

def test_weighted_error_zero_for_identical():
    seq = _seq([[0.5, 0.2], [0.1, 0.9]])
    score, breakdown = viseme_weighted_error(
        seq, seq, FrameAlignment(("p", "t")), VisemeTable.default())
    assert score == 0.0
    assert not breakdown.all_silence


def test_weighted_error_all_silence_flag():
    pred = _seq([[0.5, 0.2], [0.1, 0.9]])
    gt = _seq([[0.0, 0.0], [1.0, 0.0]])
    score, breakdown = viseme_weighted_error(
        pred, gt, FrameAlignment(("sil", "sp")), VisemeTable.default())
    assert score == 0.0
    assert breakdown.all_silence


def test_weighted_error_hand_computed():
    # frame errors chosen via the alpha=1 reduction: e = mean|pred - gt|
    pred = _seq([[0.2, 0.2], [0.5, 0.5]])
    gt = _seq([[0.0, 0.0], [0.0, 0.0]])
    score, breakdown = viseme_weighted_error(
        pred, gt, FrameAlignment(("p", "t")), VisemeTable.default(), alpha=1.0)
    expect = (1.0 * 0.2 + 0.36 * 0.5) / 1.36
    assert abs(score - expect) < 1e-12
    assert abs(expect - 0.2794117647058824) < 1e-12
    assert breakdown.per_viseme["/P/"].frames == 1
    assert breakdown.per_viseme["/T/"].frames == 1
    assert abs(breakdown.total_weight - 1.36) < 1e-12


def test_weighted_error_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        viseme_weighted_error(_seq([[0.1, 0.1]]), _seq([[0.1, 0.1], [0.2, 0.2]]),
                              FrameAlignment(("p",)), VisemeTable.default())
    with pytest.raises(DimensionMismatchError):
        viseme_weighted_error(_seq([[0.1, 0.1]]), _seq([[0.1, 0.1]]),
                              FrameAlignment(("p", "t")), VisemeTable.default())


def test_weighted_error_scales_with_viseme_weight():
    pred = _seq([[0.2, 0.2], [0.5, 0.5]])
    gt = _seq([[0.0, 0.0], [0.0, 0.0]])
    align = FrameAlignment(("a1", "b1"))
    for c in (1.0, 0.5, 0.25):
        table = VisemeTable({"a1": "/A/", "b1": "/B/"},
                            {"/A/": c * 0.8, "/B/": 0.4, "/SIL/": 0.0})
        _, breakdown = viseme_weighted_error(pred, gt, align, table, alpha=1.0)
        # weighted-mean structure: the bucket numerator is linear in its weight
        assert abs(breakdown.per_viseme["/A/"].weighted_sum - c * 0.8 * 0.2) < 1e-12


# ---------------------------------------------------------------------------
# sequence report

def test_report_identical_sequences():
    seq = _seq([[0.5, 0.0], [0.25, 0.5]])
    report = sequence_report(seq, seq)
    assert report["rmse_overall"] == 0.0
    assert all(v == 0.0 for v in report["rmse_per_blendshape"].values())
    assert report["max_abs_error"] == 0.0
    assert report["range_violations"] == []


def test_report_constant_sequence_has_zero_delta():
    seq = _seq([[0.3, 0.6], [0.3, 0.6], [0.3, 0.6]])
    assert sequence_report(seq)["mean_abs_frame_delta"] == 0.0


def test_report_hand_computed_rmse():
    pred = _seq([[0.5, 0.0], [0.5, 0.0]])
    gt = _seq([[0.3, 0.0], [0.1, 0.0]])
    report = sequence_report(pred, gt)
    # per-shape RMSE: sqrt(mean([0.2^2, 0.4^2])) and 0
    assert abs(report["rmse_per_blendshape"]["a"] - np.sqrt(0.1)) < 1e-12
    assert report["rmse_per_blendshape"]["b"] == 0.0
    assert abs(report["rmse_overall"] - np.sqrt(0.05)) < 1e-12
    assert abs(report["max_abs_error"] - 0.4) < 1e-12


def test_report_sparsity_fraction():
    seq = _seq([[0.0, 0.4], [0.0, 0.0]])
    assert sequence_report(seq)["sparsity_fraction"] == 0.75


@pytest.mark.parametrize("gt, error, message", [
    (_seq([[0.5, 0.0]]), DimensionMismatchError, "sequence lengths differ: 2 vs 1"),
    (_seq([[0.5, 0.0], [0.5, 0.0]], names=("a", "c")), ValueError,
     "sequences index different blendshape names"),
], ids=["length", "names"])
def test_reports_reject_mismatched_pair(gt, error, message):
    # eval's two reports reject a mismatched pair alike
    pred = _seq([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(error, match=message):
        sequence_report(pred, gt)
    with pytest.raises(error, match=message):
        viseme_weighted_error(pred, gt, FrameAlignment(("p", "t")), VisemeTable.default())


def test_report_rejects_empty():
    with pytest.raises(ValueError):
        sequence_report(BscSequence(("a",), ()))
