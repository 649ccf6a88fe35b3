"""Readers and writers for every persistent artifact.

All formats are versioned and little-endian; text formats always use '.'
as the decimal separator and write floats with repr(), the shortest
decimal string that round-trips the exact float64. Readers reject
unknown versions and unknown fields instead of guessing. Text files are
ASCII: any other byte is a FormatError naming the file, and writers
encode before they open the file, so a failed write leaves it as it was.
Every number read is finite: NaN or an infinity, in a text record, a
JSON document (where Python's json module would accept it) or a model's
arrays, is a FormatError naming the file and the line or field.

Formats
-------
mesh            plain-text OBJ subset: 'v x y z' and 'f a b c' records
                (1-based indices, triangles only), '#' comments
depth frame     binary, magic "BSDF": version u16, width u32, height
                u32, fx fy cx cy f32, timestamp f64, then width*height
                f32 row-major depth values, 0.0 meaning invalid
model           binary, magic "BSBM": version u16, n u32, V u32, F u32,
                n length-prefixed utf-8 names, neutral vertices V*3 f64,
                faces F*3 u32, basis n*V*3 f64
sequence        text, first line "bscseq 1", then a comma-separated
                header (frame,timestamp,qw,qx,qy,qz,tx,ty,tz,names...)
                and one record per frame
landmarks       JSON document, format "landmarks" version 1
viseme table    text, first line "visemes 1", then one cluster per
                line: viseme weight phonemes...
manifest        JSON document, format "dataset" version 1; file paths
                are relative to the manifest's directory
report          JSON document, format "bscreport" version 1
alignment       text, one phoneme label per line, '#' comments
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correspondence import DepthFrame, LandmarkSet
from .geometry import (
    BlendshapeModel,
    BscSequence,
    CameraIntrinsics,
    Mesh,
    RigidPose,
    SequenceFrame,
)
from .metrics import FrameAlignment, VisemeTable
from .synth import NoiseConfig


class FormatError(ValueError):
    """File content violates its format contract."""


class ParseError(FormatError):
    """Malformed text record; carries the 1-based line number."""

    def __init__(self, source, line_number: int, message: str):
        self.source = str(source)
        self.line_number = line_number
        super().__init__(f"{source}:{line_number}: {message}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _float(text: str, source, line_number: int, what: str) -> float:
    """The finite float a text record spells; anything else is a
    ParseError at its line."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(source, line_number, f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(source, line_number, f"{what}: {text!r} is not finite")
    return value


# ---------------------------------------------------------------------------
# OBJ mesh subset

def write_mesh(path, mesh: Mesh) -> None:
    lines = ["# triangle mesh, meters"]
    for v in mesh.vertices:
        lines.append(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    _write_text(path, "\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    vertices = []
    faces = []
    for ln, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "v":
            if len(args) != 3:
                raise ParseError(path, ln, f"vertex needs 3 coordinates, got {len(args)}")
            vertices.append([_float(a, path, ln, "vertex coordinate") for a in args])
        elif kind == "f":
            if len(args) != 3:
                raise ParseError(
                    path, ln, f"only triangle faces are supported, got {len(args)} indices")
            idx = []
            for a in args:
                if "/" in a:
                    raise ParseError(
                        path, ln, "texture/normal face indices are not supported")
                try:
                    i = int(a)
                except ValueError:
                    raise ParseError(path, ln, f"bad face index {a!r}") from None
                if i < 1:
                    raise ParseError(path, ln, f"face indices are 1-based, got {i}")
                idx.append(i - 1)
            faces.append(idx)
        else:
            raise ParseError(path, ln, f"unsupported record {kind!r}")
    try:
        return Mesh(np.array(vertices, dtype=np.float64).reshape(-1, 3),
                    np.array(faces, dtype=np.int64).reshape(-1, 3))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# depth frames

_DEPTH_MAGIC = b"BSDF"
_DEPTH_VERSION = 1
_DEPTH_HEADER = struct.Struct("<4sHIIffffd")


def write_depth(path, frame: DepthFrame, intr: CameraIntrinsics) -> None:
    if (frame.width, frame.height) != (intr.width, intr.height):
        raise FormatError(
            f"frame is {frame.width}x{frame.height}, camera says {intr.width}x{intr.height}")
    header = _DEPTH_HEADER.pack(_DEPTH_MAGIC, _DEPTH_VERSION,
                                frame.width, frame.height,
                                intr.fx, intr.fy, intr.cx, intr.cy,
                                frame.timestamp)
    payload = np.ascontiguousarray(frame.values, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_depth(path, frame_index: int = 0) -> tuple[DepthFrame, CameraIntrinsics]:
    blob = Path(path).read_bytes()
    if len(blob) < _DEPTH_HEADER.size:
        raise FormatError(
            f"{path}: header needs {_DEPTH_HEADER.size} bytes, file has {len(blob)}")
    magic, version, width, height, fx, fy, cx, cy, ts = _DEPTH_HEADER.unpack_from(blob)
    if magic != _DEPTH_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_DEPTH_MAGIC!r}")
    if version != _DEPTH_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _DEPTH_HEADER.size + 4 * width * height
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {width}x{height}, got {len(blob)}")
    values = np.frombuffer(blob, dtype="<f4", offset=_DEPTH_HEADER.size)
    frame = _construct(str(path), DepthFrame, values.reshape(height, width),
                       frame_index=frame_index, timestamp=ts)
    intr = _construct(str(path), CameraIntrinsics, fx=fx, fy=fy, cx=cx, cy=cy,
                      width=width, height=height)
    return frame, intr


# ---------------------------------------------------------------------------
# blendshape models

_MODEL_MAGIC = b"BSBM"
_MODEL_VERSION = 1
_MODEL_HEADER = struct.Struct("<4sHIII")


def write_model(path, model: BlendshapeModel) -> None:
    n, nv, nf = model.n, model.vertex_count, model.neutral.face_count
    parts = [_MODEL_HEADER.pack(_MODEL_MAGIC, _MODEL_VERSION, n, nv, nf)]
    for name in model.names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    parts.append(np.ascontiguousarray(model.neutral.vertices, dtype="<f8").tobytes())
    parts.append(np.ascontiguousarray(model.neutral.faces, dtype="<u4").tobytes())
    parts.append(np.ascontiguousarray(model.basis, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_model(path) -> BlendshapeModel:
    blob = Path(path).read_bytes()
    if len(blob) < _MODEL_HEADER.size:
        raise FormatError(
            f"{path}: header needs {_MODEL_HEADER.size} bytes, file has {len(blob)}")
    magic, version, n, nv, nf = _MODEL_HEADER.unpack_from(blob)
    if magic != _MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_MODEL_MAGIC!r}")
    if version != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    off = _MODEL_HEADER.size
    names = []
    for _ in range(n):
        if off + 2 > len(blob):
            raise FormatError(f"{path}: truncated name table")
        (ln,) = struct.unpack_from("<H", blob, off)
        off += 2
        if off + ln > len(blob):
            raise FormatError(f"{path}: truncated name table")
        try:
            names.append(blob[off:off + ln].decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(
                f"{path}: blendshape name {len(names)} is not valid UTF-8") from None
        off += ln
    need = nv * 3 * 8 + nf * 3 * 4 + n * nv * 3 * 8
    if len(blob) - off != need:
        raise FormatError(
            f"{path}: expected {need} payload bytes after names, got {len(blob) - off}")
    verts = np.frombuffer(blob, dtype="<f8", count=nv * 3, offset=off).reshape(nv, 3)
    off += nv * 3 * 8
    faces = np.frombuffer(blob, dtype="<u4", count=nf * 3, offset=off).reshape(nf, 3)
    off += nf * 3 * 4
    basis = np.frombuffer(blob, dtype="<f8", count=n * nv * 3, offset=off).reshape(n, nv, 3)
    for what, values in (("neutral vertices", verts), ("basis", basis)):
        if not np.isfinite(values).all():
            raise FormatError(f"{path}: {what} must be finite")
    neutral = _construct(str(path), Mesh, verts, faces.astype(np.int64))
    return _construct(str(path), BlendshapeModel, neutral=neutral, basis=basis,
                      names=tuple(names))


# ---------------------------------------------------------------------------
# coefficient sequences

_SEQ_TAG = "bscseq 1"
_SEQ_FIXED = ["frame", "timestamp", "qw", "qx", "qy", "qz", "tx", "ty", "tz"]


def write_bsc_sequence(path, seq: BscSequence) -> None:
    for name in seq.names:
        # the reader splits the header at commas and strips each name
        if not (name.isascii() and name.isprintable()) or "," in name \
                or name != name.strip():
            raise FormatError(f"{path}: blendshape name {name!r} cannot be stored: "
                              "names are printable ASCII without commas or "
                              "leading or trailing spaces")
    lines = [_SEQ_TAG, ",".join(_SEQ_FIXED + list(seq.names))]
    for fr in seq.frames:
        q, t = fr.pose.rotation, fr.pose.translation
        fields = ([str(fr.frame_index), _fmt(fr.timestamp)]
                  + [_fmt(v) for v in q] + [_fmt(v) for v in t]
                  + [_fmt(v) for v in fr.coefficients])
        lines.append(",".join(fields))
    _write_text(path, "\n".join(lines) + "\n")


def read_bsc_sequence(path) -> BscSequence:
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != _SEQ_TAG:
        raise FormatError(f"{path}: first line must be {_SEQ_TAG!r}")
    if len(lines) < 2:
        raise FormatError(f"{path}: missing header row")
    header = [h.strip() for h in lines[1].split(",")]
    if header[:len(_SEQ_FIXED)] != _SEQ_FIXED:
        raise ParseError(path, 2, f"header must start with {','.join(_SEQ_FIXED)}")
    names = tuple(header[len(_SEQ_FIXED):])
    n = len(names)
    frames = []
    for ln, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != len(_SEQ_FIXED) + n:
            raise ParseError(
                path, ln, f"expected {len(_SEQ_FIXED) + n} fields, got {len(fields)}")
        try:
            frame_index = int(fields[0])
        except ValueError:
            raise ParseError(path, ln, f"frame: {fields[0]!r} is not an integer") from None
        vals = [_float(v, path, ln, column) for v, column in zip(fields[1:], header[1:])]
        coeffs = np.array(vals[8:])
        if coeffs.size and (coeffs.min() < 0.0 or coeffs.max() > 1.0):
            raise FormatError(
                f"{path}: frame {frame_index} has coefficient outside [0, 1] "
                f"(min {coeffs.min()!r}, max {coeffs.max()!r})")
        try:
            pose = RigidPose(np.array(vals[1:5]), np.array(vals[5:8]))
            frames.append(SequenceFrame(frame_index=frame_index, timestamp=vals[0],
                                        pose=pose, coefficients=coeffs))
        except ValueError as exc:
            raise ParseError(path, ln, str(exc)) from None
    try:
        return BscSequence(names=names, frames=tuple(frames))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# landmarks

_LM_FORMAT = "landmarks"
_LM_VERSION = 1
_LM_POINT_KEYS = {"id", "vertex", "u", "v", "confidence"}


def write_landmarks(path, lms: LandmarkSet) -> None:
    points = []
    for i, lid in enumerate(lms.ids):
        points.append({"id": lid, "vertex": int(lms.vertex_indices[i]),
                       "u": float(lms.pixels[i, 0]), "v": float(lms.pixels[i, 1]),
                       "confidence": float(lms.confidences[i])})
    doc = {"format": _LM_FORMAT, "version": _LM_VERSION, "points": points}
    if lms.image_size is not None:
        doc["image_size"] = [int(lms.image_size[0]), int(lms.image_size[1])]
    _write_json(path, doc)


def read_landmarks(path) -> LandmarkSet:
    doc = _read_json(path, _LM_FORMAT, _LM_VERSION,
                     allowed={"format", "version", "points", "image_size"})
    points = doc.get("points")
    if not isinstance(points, list):
        raise FormatError(f"{path}: 'points' must be a list")
    ids, vids, px, conf = [], [], [], []
    for i, p in enumerate(points):
        where = f"{path}: points[{i}]"
        _fields(p, where, _LM_POINT_KEYS, required=("id", "vertex", "u", "v"))
        ids.append(str(p["id"]))
        vids.append(_integer(p["vertex"], f"{where} vertex"))
        px.append([_number(p["u"], f"{where} u"), _number(p["v"], f"{where} v")])
        conf.append(_number(p.get("confidence", 1.0), f"{where} confidence"))
    image_size = doc.get("image_size")
    if image_size is not None:
        if not (isinstance(image_size, list) and len(image_size) == 2
                and all(type(s) is int for s in image_size)):
            raise FormatError(
                f"{path}: 'image_size' must be two integers [width, height]")
        image_size = tuple(image_size)
    if not ids:
        return LandmarkSet.empty()
    return _construct(str(path), LandmarkSet, tuple(ids), np.array(vids, dtype=np.int64),
                      np.array(px), np.array(conf), image_size=image_size)


# ---------------------------------------------------------------------------
# viseme tables

_VIS_TAG = "visemes 1"


def parse_viseme_table(text: str, source="<string>") -> VisemeTable:
    lines = text.splitlines()
    if not lines or lines[0].split("#", 1)[0].strip() != _VIS_TAG:
        raise FormatError(f"{source}: first line must be {_VIS_TAG!r}")
    viseme_of = {}
    weights = {}
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(source, ln,
                             "cluster rows are: viseme weight phoneme...")
        viseme = parts[0]
        weight = _float(parts[1], source, ln, "weight")
        if viseme in weights:
            raise ParseError(source, ln, f"viseme {viseme} listed twice")
        weights[viseme] = weight
        for p in parts[2:]:
            if p in viseme_of:
                raise ParseError(source, ln, f"phoneme {p!r} already mapped")
            viseme_of[p] = viseme
    try:
        return VisemeTable(viseme_of=viseme_of, weights=weights)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def read_viseme_table(path) -> VisemeTable:
    return parse_viseme_table(_read_text(path), source=path)


# ---------------------------------------------------------------------------
# alignments

def read_alignment(path) -> FrameAlignment:
    labels = []
    for raw in _read_text(path).split("\n"):
        line = raw.split("#", 1)[0].strip()
        if line:
            labels.append(line)
    return FrameAlignment(tuple(labels))


def write_alignment(path, align: FrameAlignment) -> None:
    for label in align.labels:
        # the reader cuts each line at '#' and strips it
        if label.split() != [label] or "#" in label \
                or not (label.isascii() and label.isprintable()):
            raise FormatError(f"{path}: phoneme label {label!r} cannot be stored: "
                              "labels are non-empty printable ASCII without "
                              "whitespace or '#'")
    _write_text(path, "\n".join(align.labels) + "\n")


# ---------------------------------------------------------------------------
# reports

_REPORT_FORMAT = "bscreport"
_REPORT_VERSION = 1


def write_report(path, report: dict) -> None:
    doc = {"format": _REPORT_FORMAT, "version": _REPORT_VERSION}
    overlap = set(doc) & set(report)
    if overlap:
        raise FormatError(f"report keys collide with the envelope: {sorted(overlap)}")
    doc.update(report)
    _write_json(path, doc)


# ---------------------------------------------------------------------------
# dataset manifests

_MANIFEST_FORMAT = "dataset"
_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class FrameEntry:
    depth_path: Path
    timestamp: float
    landmarks_path: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Index of one captured or generated dataset.

    Paths are absolute after loading. Every referenced file must exist
    at load time.
    """
    camera: CameraIntrinsics
    frames: tuple
    ground_truth: Path | None = None
    seed: int | None = None
    noise: NoiseConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        ts = [f.timestamp for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("frame timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frames)


def write_manifest(path, manifest: DatasetManifest) -> None:
    base = Path(path).parent

    def rel(p):
        # stored paths are manifest-relative; fall back to absolute for
        # files outside the manifest directory
        p = Path(p).resolve()
        try:
            return str(p.relative_to(base.resolve()))
        except ValueError:
            return str(p)

    frames = []
    for f in manifest.frames:
        entry = {"depth": rel(f.depth_path), "timestamp": f.timestamp}
        if f.landmarks_path is not None:
            entry["landmarks"] = rel(f.landmarks_path)
        frames.append(entry)
    doc = {
        "format": _MANIFEST_FORMAT, "version": _MANIFEST_VERSION,
        "camera": _camera_doc(manifest.camera),
        "frames": frames,
    }
    if manifest.ground_truth is not None:
        doc["ground_truth"] = rel(manifest.ground_truth)
    if manifest.seed is not None:
        doc["seed"] = int(manifest.seed)
    if manifest.noise is not None:
        doc["noise"] = {"depth_sigma": manifest.noise.depth_sigma,
                        "landmark_sigma": manifest.noise.landmark_sigma,
                        "landmark_dropout": manifest.noise.landmark_dropout}
    _write_json(path, doc)


def read_manifest(path) -> DatasetManifest:
    base = Path(path).parent
    doc = _read_json(path, _MANIFEST_FORMAT, _MANIFEST_VERSION,
                     allowed={"format", "version", "camera", "frames",
                              "ground_truth", "seed", "noise"})
    cam = _read_camera(doc.get("camera"), f"{path}: camera")

    entries = doc.get("frames", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: 'frames' must be a list")
    frames = []
    for i, entry in enumerate(entries):
        where = f"{path}: frames[{i}]"
        _fields(entry, where, {"depth", "timestamp", "landmarks"},
                required=("depth", "timestamp"))
        depth = _file(base, entry["depth"], f"{where} depth")
        ts = _number(entry["timestamp"], f"{where} timestamp")
        lm = _file(base, entry["landmarks"], f"{where} landmarks") \
            if "landmarks" in entry else None
        if not depth.is_file():
            raise FormatError(f"{where} depth file {depth} does not exist")
        if lm is not None and not lm.is_file():
            raise FormatError(f"{where} landmark file {lm} does not exist")
        frames.append(FrameEntry(depth_path=depth, timestamp=ts, landmarks_path=lm))

    gt = None
    if "ground_truth" in doc:
        gt = _file(base, doc["ground_truth"], f"{path}: ground_truth")
        if not gt.is_file():
            raise FormatError(f"{path}: ground truth file {gt} does not exist")
    seed = doc.get("seed")
    if seed is not None:
        _integer(seed, f"{path}: seed")
    noise = None
    if "noise" in doc:
        nd = _fields(doc["noise"], f"{path}: noise",
                     {"depth_sigma", "landmark_sigma", "landmark_dropout"})
        noise = _construct(f"{path}: noise", NoiseConfig,
                           **{k: _number(v, f"{path}: noise {k}") for k, v in nd.items()},
                           seed=seed or 0)
    return _construct(str(path), DatasetManifest, camera=cam, frames=tuple(frames),
                      ground_truth=gt, seed=seed, noise=noise)


# ---------------------------------------------------------------------------
# personalization example sets

_EXAMPLES_FORMAT = "examples"
_EXAMPLES_VERSION = 1


def write_examples(dir_path, examples) -> None:
    """Write an example-expression directory: one OBJ per scan plus an
    examples.json index (landmarks, camera, and pose when present)."""
    from .personalize import ExampleExpression

    base = Path(dir_path)
    base.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, ex in enumerate(examples):
        if not isinstance(ex, ExampleExpression):
            raise TypeError(f"examples[{i}] is {type(ex).__name__}, not ExampleExpression")
        scan_name = f"scan_{i:02d}.obj"
        write_mesh(base / scan_name, ex.scan)
        entry = {"scan": scan_name,
                 "activation": [float(v) for v in ex.activation]}
        if ex.landmarks is not None:
            lm_name = f"landmarks_{i:02d}.json"
            write_landmarks(base / lm_name, ex.landmarks)
            entry["landmarks"] = lm_name
            entry["camera"] = _camera_doc(ex.camera)
            entry["pose"] = {"rotation": [float(v) for v in ex.pose.rotation],
                             "translation": [float(v) for v in ex.pose.translation]}
        entries.append(entry)
    _write_json(base / "examples.json",
                {"format": _EXAMPLES_FORMAT, "version": _EXAMPLES_VERSION,
                 "examples": entries})


def read_examples(dir_path) -> list:
    """Load an example-expression directory written by write_examples."""
    from .personalize import ExampleExpression

    base = Path(dir_path)
    index = base / "examples.json"
    if not index.is_file():
        raise FormatError(f"{index}: examples index not found")
    doc = _read_json(index, _EXAMPLES_FORMAT, _EXAMPLES_VERSION,
                     allowed={"format", "version", "examples"})
    entries = doc.get("examples", [])
    if not isinstance(entries, list):
        raise FormatError(f"{index}: 'examples' must be a list")
    out = []
    for i, entry in enumerate(entries):
        where = f"{index}: examples[{i}]"
        _fields(entry, where, {"scan", "activation", "landmarks", "camera", "pose"},
                required=("scan", "activation"))
        scan = read_mesh(_file(base, entry["scan"], f"{where} scan"))
        activation = _numbers(entry["activation"], f"{where} activation")
        lms = camera = pose = None
        if "landmarks" in entry:
            lms = read_landmarks(_file(base, entry["landmarks"], f"{where} landmarks"))
            if "camera" not in entry or "pose" not in entry:
                raise FormatError(f"{where} has landmarks but no camera/pose")
            camera = _read_camera(entry["camera"], f"{where} camera")
            pose_doc = _fields(entry["pose"], f"{where} pose",
                               {"rotation", "translation"},
                               required=("rotation", "translation"))
            pose = _construct(f"{where} pose", RigidPose,
                              _numbers(pose_doc["rotation"], f"{where} pose rotation"),
                              _numbers(pose_doc["translation"],
                                       f"{where} pose translation"))
        out.append(_construct(where, ExampleExpression, scan=scan,
                              activation=activation, landmarks=lms,
                              camera=camera, pose=pose))
    return out


# ---------------------------------------------------------------------------
# text and JSON plumbing

def _read_text(path) -> str:
    """The text of an ASCII file, newlines translated as `open` does; a
    byte outside ASCII is a FormatError naming the file."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.object[exc.start]:#04x} at offset "
                          f"{exc.start} is not ASCII") from None


def _write_text(path, text: str) -> None:
    """Write `text` as ASCII. It is encoded before the file is opened, so
    text that cannot be written leaves an existing file as it was."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"{path}: cannot write non-ASCII text "
                          f"{exc.object[exc.start:exc.end]!r}") from None
    Path(path).write_bytes(raw)


def _write_json(path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


class _JsonConstant(str):
    """NaN, Infinity or -Infinity in a JSON text, kept by name so that its
    place can be reported."""


def _constant_at(value, where: str) -> tuple[str, str] | None:
    """(where, name) of the first _JsonConstant in a decoded JSON value,
    or None."""
    if isinstance(value, _JsonConstant):
        return where, value
    if isinstance(value, dict):
        items = ((f"{where}.{k}" if where else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for place, item in items:
        found = _constant_at(item, place)
        if found is not None:
            return found
    return None


def _read_json_object(path) -> dict:
    """The top-level JSON object of `path`. NaN, Infinity and -Infinity,
    which Python's json module accepts but JSON does not, are a
    FormatError naming the field."""
    text = _read_text(path)
    try:
        doc = json.loads(text, parse_constant=_JsonConstant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    # only a text that spells a constant can hold one
    found = _constant_at(doc, "") if "NaN" in text or "Infinity" in text else None
    if found is not None:
        raise FormatError(f"{path}: {found[0]} is {found[1]}, which JSON does not allow")
    return doc


def _read_json(path, expected_format: str, expected_version: int, allowed: set) -> dict:
    doc = _read_json_object(path)
    if doc.get("format") != expected_format:
        raise FormatError(
            f"{path}: format is {doc.get('format')!r}, expected {expected_format!r}")
    if doc.get("version") != expected_version:
        raise FormatError(
            f"{path}: unsupported version {doc.get('version')!r}")
    return _fields(doc, f"{path}: top level", allowed)


def _fields(doc, where: str, allowed: set, required=()) -> dict:
    """`doc` checked to be a JSON object with only `allowed` keys and
    every `required` one."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where} must be an object, got {doc!r}")
    unknown = set(doc) - allowed
    if unknown:
        raise FormatError(f"{where} has unknown fields {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise FormatError(f"{where} missing field {key!r}")
    return doc


def _number(value, where: str) -> float:
    # bool is an int subclass, but JSON true/false is not a number
    if type(value) not in (int, float):
        raise FormatError(f"{where} must be a number, got {value!r}")
    # past float64's range, json reads a float literal such as 1e999 as
    # inf, and float() of an integer literal raises OverflowError
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise FormatError(f"{where} is out of float64 range")
    return number


def _integer(value, where: str) -> int:
    if type(value) is not int:
        raise FormatError(f"{where} must be an integer, got {value!r}")
    return value


def _numbers(values, where: str) -> np.ndarray:
    if not isinstance(values, list):
        raise FormatError(f"{where} must be a list of numbers, got {values!r}")
    return np.array([_number(v, f"{where}[{k}]") for k, v in enumerate(values)])


def _file(base: Path, value, where: str) -> Path:
    if not isinstance(value, str):
        raise FormatError(f"{where} must be a path string, got {value!r}")
    return base / value


def _construct(where: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), with the ValueError its validation raises
    reported as a FormatError at `where`."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


_CAMERA_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


def _camera_doc(cam: CameraIntrinsics) -> dict:
    return {key: getattr(cam, key) for key in _CAMERA_KEYS}


def _read_camera(doc, where: str) -> CameraIntrinsics:
    _fields(doc, where, set(_CAMERA_KEYS), required=_CAMERA_KEYS)
    return _construct(where, CameraIntrinsics,
                      *(_number(doc[k], f"{where} {k}") for k in ("fx", "fy", "cx", "cy")),
                      *(_integer(doc[k], f"{where} {k}") for k in ("width", "height")))
