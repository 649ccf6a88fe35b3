"""Viseme-weighted scoring of coefficient sequences.

Speech frames are not equally important to perceived animation quality:
a missed lip closure during /p/ is far more visible than a slightly
wrong tongue position during /t/. The table shipped with the package
assigns each phoneme to a viseme cluster with an importance weight in
[0, 1] (silence weighs zero), and sequence error is the weighted mean of
a per-frame hybrid loss mixing mean absolute difference with cosine
distance.

Weighting by the frame's viseme means a sequence spoken entirely in
silence scores exactly 0 no matter what the predictor did; callers get
an explicit flag for that case instead of a misleading perfect score.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .geometry import BscSequence, DimensionMismatchError

_SILENCE = "/SIL/"


class UnknownPhonemeError(LookupError):
    """Phoneme not covered by the viseme table."""


def _norm_phoneme(p: str) -> str:
    return str(p).strip().strip("/").lower()


def _norm_viseme(v: str) -> str:
    v = str(v).strip()
    if not (v.startswith("/") and v.endswith("/") and len(v) > 2):
        raise ValueError(f"viseme name must be /SLASHED/, got {v!r}")
    return "/" + v.strip("/").upper() + "/"


@dataclass(frozen=True)
class VisemeTable:
    """Phoneme-to-viseme clustering with per-viseme importance weights.

    `viseme_of` maps bare lowercase phonemes to slashed viseme names;
    `weights` maps each viseme to its importance in [0, 1].
    """
    viseme_of: dict
    weights: dict

    def __post_init__(self):
        vis = {}
        for p, v in dict(self.viseme_of).items():
            key = _norm_phoneme(p)
            if key in vis:
                raise ValueError(f"phoneme {key!r} mapped to more than one viseme")
            vis[key] = _norm_viseme(v)
        wts = {_norm_viseme(v): float(w) for v, w in dict(self.weights).items()}
        missing = sorted(set(vis.values()) - set(wts))
        if missing:
            raise ValueError(f"visemes without weights: {missing}")
        for v, w in wts.items():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight for {v} is {w}, outside [0, 1]")
        if _SILENCE in wts and wts[_SILENCE] != 0.0:
            raise ValueError(f"{_SILENCE} weight must be exactly 0")
        object.__setattr__(self, "viseme_of", MappingProxyType(vis))
        object.__setattr__(self, "weights", MappingProxyType(wts))

    @classmethod
    def default(cls) -> "VisemeTable":
        """The table shipped with the package."""
        from importlib.resources import files

        from .io import parse_viseme_table
        text = (files("blendfit") / "data" / "visemes.txt").read_text(encoding="ascii")
        return parse_viseme_table(text, source="<packaged visemes.txt>")

    @property
    def visemes(self) -> tuple:
        return tuple(sorted(self.weights))

    @property
    def phonemes(self) -> tuple:
        return tuple(sorted(self.viseme_of))


def phoneme_to_viseme(table: VisemeTable, phoneme: str) -> tuple[str, float]:
    """Resolve a phoneme to its (viseme, weight) pair."""
    key = _norm_phoneme(phoneme)
    try:
        viseme = table.viseme_of[key]
    except KeyError:
        raise UnknownPhonemeError(f"phoneme {phoneme!r} not in viseme table") from None
    return viseme, table.weights[viseme]


@dataclass(frozen=True)
class FrameAlignment:
    """Time-aligned phoneme label per scored frame."""
    labels: tuple

    def __post_init__(self):
        labels = tuple(_norm_phoneme(p) for p in self.labels)
        if any(not p for p in labels):
            raise ValueError("empty phoneme label")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)


def hybrid_l1_cosine(a, b, alpha: float = 0.5) -> float:
    """alpha * mean|a-b| + (1-alpha) * cosine distance.

    Zero vectors have no direction, so the cosine part is defined as 0
    when both vectors are all-zero and 1 when exactly one is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatchError(f"vector shapes differ: {a.shape} vs {b.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if np.array_equal(a, b):
        # exact-zero identity; the norm product below rounds by an ulp
        return 0.0
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        cosdist = 0.0 if (na == 0.0 and nb == 0.0) else 1.0
    else:
        cosdist = 1.0 - float(np.clip(a @ b / (na * nb), -1.0, 1.0))
    return alpha * float(np.mean(np.abs(a - b))) + (1.0 - alpha) * cosdist


@dataclass(frozen=True)
class VisemeBucket:
    """Per-viseme aggregation of frame errors."""
    weight: float
    frames: int
    error_sum: float          # sum of per-frame hybrid losses
    weighted_sum: float       # contribution to the score numerator

    @property
    def mean_error(self) -> float:
        return self.error_sum / self.frames if self.frames else 0.0


@dataclass(frozen=True)
class ErrorBreakdown:
    per_viseme: dict
    total_weight: float
    all_silence: bool

    def __post_init__(self):
        object.__setattr__(self, "per_viseme", MappingProxyType(dict(self.per_viseme)))


def viseme_weighted_error(pred: BscSequence, gt: BscSequence,
                          align: FrameAlignment, table: VisemeTable,
                          alpha: float = 0.5) -> tuple[float, ErrorBreakdown]:
    """Weighted-mean hybrid error over a labeled sequence pair.

    Returns (score, breakdown). The score is
    sum_t w_t * e(pred_t, gt_t) / sum_t w_t with w_t the weight of frame
    t's viseme; when every frame has zero weight the score is 0 and the
    breakdown carries all_silence=True.
    """
    _check_pair(pred, gt)
    if len(align) != len(pred):
        raise DimensionMismatchError(
            f"{len(align)} labels for {len(pred)} frames")
    for p, g in zip(pred.frames, gt.frames):
        if abs(p.timestamp - g.timestamp) > 1e-9:
            raise ValueError(
                f"timestamps diverge at frame {p.frame_index}: "
                f"{p.timestamp} vs {g.timestamp}")

    num = 0.0
    den = 0.0
    acc: dict[str, list] = {}
    for p, g, label in zip(pred.frames, gt.frames, align.labels):
        viseme, w = phoneme_to_viseme(table, label)
        e = hybrid_l1_cosine(p.coefficients, g.coefficients, alpha)
        num += w * e
        den += w
        bucket = acc.setdefault(viseme, [w, 0, 0.0])
        bucket[1] += 1
        bucket[2] += e
    per_viseme = {v: VisemeBucket(weight=b[0], frames=b[1], error_sum=b[2],
                                  weighted_sum=b[0] * b[2])
                  for v, b in sorted(acc.items())}
    all_silence = den == 0.0
    score = 0.0 if all_silence else num / den
    return score, ErrorBreakdown(per_viseme=per_viseme, total_weight=den,
                                 all_silence=all_silence)


def sequence_report(pred: BscSequence, gt: BscSequence | None = None) -> dict:
    """Diagnostic summary of a tracked sequence, as a JSON-ready dict.

    Always includes activation sparsity (fraction of coefficients at
    zero, tolerance 1e-6), mean absolute frame-to-frame delta, and the
    list of out-of-range coefficients (empty for any valid sequence).
    With ground truth, adds per-blendshape and overall RMSE.
    """
    if len(pred) == 0:
        raise ValueError("cannot report on an empty sequence")
    mat = pred.coefficient_matrix()
    report = {
        "frame_count": len(pred),
        "blendshape_count": pred.n,
        "names": list(pred.names),
        "sparsity_fraction": float(np.mean(mat <= 1e-6)),
        "mean_abs_frame_delta": (
            float(np.mean(np.abs(np.diff(mat, axis=0)))) if len(pred) > 1 else 0.0),
        "range_violations": [
            {"frame": int(pred.frames[t].frame_index), "blendshape": pred.names[k],
             "value": float(mat[t, k])}
            for t, k in zip(*np.nonzero((mat < 0.0) | (mat > 1.0)))],
    }
    if gt is not None:
        _check_pair(pred, gt)
        diff = mat - gt.coefficient_matrix()
        per_shape = np.sqrt(np.mean(diff * diff, axis=0))
        report["rmse_per_blendshape"] = {
            name: float(v) for name, v in zip(pred.names, per_shape)}
        report["rmse_overall"] = float(np.sqrt(np.mean(diff * diff)))
        report["max_abs_error"] = float(np.max(np.abs(diff))) if diff.size else 0.0
    return report


def _check_pair(pred: BscSequence, gt: BscSequence) -> None:
    if len(pred) != len(gt):
        raise DimensionMismatchError(
            f"sequence lengths differ: {len(pred)} vs {len(gt)}")
    if pred.names != gt.names:
        raise ValueError("sequences index different blendshape names")
