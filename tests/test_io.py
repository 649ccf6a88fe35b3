"""File formats: round-trips, hand-authored fixtures, rejection paths."""

import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from blendfit import (
    BscSequence,
    CameraIntrinsics,
    DepthFrame,
    LandmarkSet,
    Mesh,
    RigidPose,
    SequenceFrame,
)
from blendfit import io as bio
from blendfit.io import (
    DatasetManifest,
    FormatError,
    FrameEntry,
    ParseError,
    read_alignment,
    read_bsc_sequence,
    read_depth,
    read_examples,
    read_landmarks,
    read_manifest,
    read_mesh,
    read_model,
    read_viseme_table,
    write_alignment,
    write_bsc_sequence,
    write_depth,
    write_examples,
    write_landmarks,
    write_manifest,
    write_mesh,
    write_model,
    write_report,
)
from blendfit.metrics import FrameAlignment, VisemeTable
from blendfit.personalize import ExampleExpression
from blendfit.synth import frontal_pose

from conftest import random_model


# ---------------------------------------------------------------------------
# meshes (OBJ subset)

def test_mesh_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mesh = random_model(rng).neutral
    path = tmp_path / "m.obj"
    write_mesh(path, mesh)
    back = read_mesh(path)
    np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-9)
    np.testing.assert_array_equal(back.faces, mesh.faces)


def test_mesh_round_trip_is_exact(tmp_path):
    # repr-based floats reproduce the exact float64, not just 1e-9
    verts = np.array([[0.1, 0.2, 0.30000000000000004],
                      [1 / 3, -2 / 7, 1e-17], [5.0, 6.0, 7.0]])
    path = tmp_path / "m.obj"
    write_mesh(path, Mesh(verts, np.array([[0, 1, 2]])))
    np.testing.assert_array_equal(read_mesh(path).vertices, verts)


def test_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    assert err.value.line_number == 5


def test_malformed_vertex_line_reports_number(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 oops 0\n")
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    assert err.value.line_number == 2


def test_reference_cube_parses_exactly(tmp_path):
    path = tmp_path / "cube.obj"
    path.write_text(
        "# unit cube\n"
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"
        "v 0 0 1\nv 1 0 1\nv 1 1 1\nv 0 1 1\n"
        "f 1 3 2\nf 1 4 3\nf 5 6 7\nf 5 7 8\n"
        "f 1 2 6\nf 1 6 5\nf 2 3 7\nf 2 7 6\n"
        "f 3 4 8\nf 3 8 7\nf 4 1 5\nf 4 5 8\n")
    mesh = read_mesh(path)
    corners = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)])
    assert mesh.vertex_count == 8 and mesh.face_count == 12
    assert {tuple(v) for v in mesh.vertices} == {tuple(c) for c in corners}


# ---------------------------------------------------------------------------
# depth frames (binary)

def test_depth_round_trip_bit_exact(tmp_path, intr):
    rng = np.random.default_rng(1)
    values = rng.uniform(0.3, 2.0, (intr.height, intr.width)).astype(np.float32)
    values[rng.uniform(size=values.shape) < 0.2] = 0.0
    frame = DepthFrame(values, timestamp=1.25)
    path = tmp_path / "d.bsdf"
    write_depth(path, frame, intr)
    back, cam = read_depth(path)
    np.testing.assert_array_equal(back.values, values)
    assert back.timestamp == 1.25
    assert (cam.fx, cam.fy, cam.cx, cam.cy) == (intr.fx, intr.fy, intr.cx, intr.cy)
    assert (cam.width, cam.height) == (intr.width, intr.height)


def test_depth_hand_built_fixture(tmp_path):
    header = struct.pack("<4sHIIffffd", b"BSDF", 1, 2, 2,
                         100.0, 100.0, 1.0, 1.0, 0.5)
    payload = struct.pack("<4f", 1.0, 0.0, 0.25, 2.0)
    path = tmp_path / "tiny.bsdf"
    path.write_bytes(header + payload)
    frame, cam = read_depth(path)
    np.testing.assert_array_equal(frame.values, [[1.0, 0.0], [0.25, 2.0]])
    assert frame.timestamp == 0.5
    assert cam.width == 2 and cam.fx == 100.0


def test_depth_truncation_names_byte_counts(tmp_path, intr):
    frame = DepthFrame(np.full((intr.height, intr.width), 1.0, dtype=np.float32))
    path = tmp_path / "t.bsdf"
    write_depth(path, frame, intr)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError) as err:
        read_depth(path)
    assert str(len(blob)) in str(err.value)
    assert str(len(blob) - 8) in str(err.value)


def test_depth_bad_magic(tmp_path):
    path = tmp_path / "bad.bsdf"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(FormatError):
        read_depth(path)


def test_depth_unknown_version(tmp_path, intr):
    frame = DepthFrame(np.full((intr.height, intr.width), 1.0, dtype=np.float32))
    path = tmp_path / "v.bsdf"
    write_depth(path, frame, intr)
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_depth(path)


def _depth_blob(width, height, values, fx=100.0):
    header = struct.pack("<4sHIIffffd", b"BSDF", 1, width, height,
                         fx, 100.0, 0.5 * width, 0.5 * height, 0.0)
    return header + struct.pack(f"<{len(values)}f", *values)


@pytest.mark.parametrize("blob, message", [
    (_depth_blob(2, 1, [1.0, float("nan")]), "finite"),
    (_depth_blob(2, 1, [1.0, -0.5]), ">= 0"),
    (_depth_blob(2, 1, [1.0, 1.0], fx=0.0), "focal lengths"),
    (_depth_blob(0, 0, []), "empty"),
], ids=["nan-depth", "negative-depth", "zero-focal", "zero-size"])
def test_invalid_depth_content_names_file(tmp_path, blob, message):
    path = tmp_path / "bad.bsdf"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_depth(path)
    assert str(path) in str(err.value) and message in str(err.value)


# ---------------------------------------------------------------------------
# blendshape models (binary)

def test_model_round_trip(tmp_path):
    model = random_model(np.random.default_rng(2))
    path = tmp_path / "m.bsbm"
    write_model(path, model)
    back = read_model(path)
    np.testing.assert_array_equal(back.neutral.vertices, model.neutral.vertices)
    np.testing.assert_array_equal(back.neutral.faces, model.neutral.faces)
    np.testing.assert_array_equal(back.basis, model.basis)
    assert back.names == model.names


def test_model_bad_magic(tmp_path):
    path = tmp_path / "bad.bsbm"
    path.write_bytes(b"XXXX" + bytes(30))
    with pytest.raises(FormatError):
        read_model(path)


def _model_blob(names, faces):
    """A model file with a 3-vertex neutral, the given raw name bytes and
    face rows, and a zero basis per name."""
    parts = [struct.pack("<4sHIII", b"BSBM", 1, len(names), 3, len(faces))]
    for raw in names:
        parts.append(struct.pack("<H", len(raw)) + raw)
    parts.append(np.eye(3).astype("<f8").tobytes())
    parts.append(np.array(faces, dtype="<u4").tobytes())
    parts.append(np.zeros((len(names), 3, 3), dtype="<f8").tobytes())
    return b"".join(parts)


@pytest.mark.parametrize("blob, message", [
    (_model_blob([b"jaw"], [[0, 1, 99999]]), "face index out of range"),
    (_model_blob([b"jaw"], [[0, 1, 1]]), "same vertex twice"),
    (_model_blob([b"jaw", b"jaw"], [[0, 1, 2]]), "unique"),
    (_model_blob([], [[0, 1, 2]]), "at least one blendshape"),
    (_model_blob([b"\xff\xfe"], [[0, 1, 2]]), "UTF-8"),
], ids=["face-out-of-range", "repeated-vertex", "duplicate-name", "no-shapes",
        "bad-utf8-name"])
def test_invalid_model_content_names_file(tmp_path, blob, message):
    path = tmp_path / "bad.bsbm"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_model(path)
    assert str(path) in str(err.value) and message in str(err.value)


def test_valid_hand_built_model_loads(tmp_path):
    path = tmp_path / "tiny.bsbm"
    path.write_bytes(_model_blob([b"jaw"], [[0, 1, 2]]))
    model = read_model(path)
    assert model.names == ("jaw",) and model.neutral.face_count == 1


# ---------------------------------------------------------------------------
# coefficient sequences (text)

def _sample_sequence():
    rng = np.random.default_rng(3)
    frames = tuple(
        SequenceFrame(i, i / 30.0,
                      RigidPose.from_axis_angle((0, 1, 0), 0.01 * i, (0, 0, 0.5)),
                      rng.uniform(0, 1, 3))
        for i in range(4))
    return BscSequence(("brow", "jaw", "smile"), frames)


def test_sequence_round_trip(tmp_path):
    seq = _sample_sequence()
    path = tmp_path / "s.bscseq"
    write_bsc_sequence(path, seq)
    back = read_bsc_sequence(path)
    assert back.names == seq.names
    np.testing.assert_allclose(back.coefficient_matrix(),
                               seq.coefficient_matrix(), atol=1e-9)
    for fa, fb in zip(seq.frames, back.frames):
        assert fa.frame_index == fb.frame_index
        assert fa.timestamp == fb.timestamp
        np.testing.assert_allclose(fa.pose.rotation, fb.pose.rotation, atol=1e-15)


def test_sequence_out_of_range_coefficient_names_frame(tmp_path):
    path = tmp_path / "bad.bscseq"
    path.write_text("bscseq 1\n"
                    "frame,timestamp,qw,qx,qy,qz,tx,ty,tz,a\n"
                    "0,0.0,1,0,0,0,0,0,0,0.5\n"
                    "7,0.1,1,0,0,0,0,0,0,1.2\n")
    with pytest.raises(FormatError) as err:
        read_bsc_sequence(path)
    assert "frame 7" in str(err.value)


def test_sequence_hand_authored_fixture(tmp_path):
    path = tmp_path / "fix.bscseq"
    path.write_text("bscseq 1\n"
                    "frame,timestamp,qw,qx,qy,qz,tx,ty,tz,a,b\n"
                    "0,0.0,1,0,0,0,0,0,0.5,0.25,0\n"
                    "1,0.125,1,0,0,0,0.01,0,0.5,1,0.75\n"
                    "2,0.25,1,0,0,0,0,0.02,0.5,0,0\n")
    seq = read_bsc_sequence(path)
    assert seq.names == ("a", "b") and len(seq) == 3
    np.testing.assert_array_equal(seq.coefficient_matrix(),
                                  [[0.25, 0.0], [1.0, 0.75], [0.0, 0.0]])
    np.testing.assert_array_equal(seq.frames[1].pose.translation, [0.01, 0, 0.5])
    assert seq.frames[2].timestamp == 0.25


def test_sequence_wrong_tag(tmp_path):
    path = tmp_path / "x.bscseq"
    path.write_text("wrong 1\n")
    with pytest.raises(FormatError):
        read_bsc_sequence(path)


def test_sequence_field_count_error_names_line(tmp_path):
    path = tmp_path / "short.bscseq"
    path.write_text("bscseq 1\n"
                    "frame,timestamp,qw,qx,qy,qz,tx,ty,tz,a\n"
                    "0,0.0,1,0,0,0,0,0,0\n")
    with pytest.raises(ParseError) as err:
        read_bsc_sequence(path)
    assert err.value.line_number == 3


def _named_sequence(name):
    return BscSequence(("jaw", name), (
        SequenceFrame(0, 0.0, RigidPose.identity(), np.array([0.25, 0.5])),))


@pytest.mark.parametrize("name", ["brow_L", "mouth-open.2", "a b", ""])
def test_sequence_name_round_trip(tmp_path, name):
    path = tmp_path / "s.bscseq"
    write_bsc_sequence(path, _named_sequence(name))
    assert read_bsc_sequence(path).names == ("jaw", name)


@pytest.mark.parametrize("name", [" a", "a ", "a\rb", "a\nb", "a,b", "caf\u00e9"],
                         ids=["leading-space", "trailing-space", "carriage-return",
                              "newline", "comma", "non-ascii"])
def test_sequence_unstorable_name_rejected(tmp_path, name):
    # each would read back as another name, fail to parse or not encode
    path = tmp_path / "s.bscseq"
    with pytest.raises(FormatError) as err:
        write_bsc_sequence(path, _named_sequence(name))
    assert repr(name) in str(err.value)
    assert not path.exists()


# ---------------------------------------------------------------------------
# landmarks (JSON)

def test_landmarks_round_trip(tmp_path):
    lms = LandmarkSet(("nose", "chin"), [12, 40],
                      [[160.5, 120.25], [161.0, 200.0]], [1.0, 0.5],
                      image_size=(320, 240))
    path = tmp_path / "l.json"
    write_landmarks(path, lms)
    back = read_landmarks(path)
    assert back.ids == lms.ids
    np.testing.assert_array_equal(back.vertex_indices, lms.vertex_indices)
    np.testing.assert_array_equal(back.pixels, lms.pixels)
    np.testing.assert_array_equal(back.confidences, lms.confidences)
    assert back.image_size == (320, 240)


def test_empty_landmark_file(tmp_path):
    path = tmp_path / "empty.json"
    write_landmarks(path, LandmarkSet.empty())
    assert len(read_landmarks(path)) == 0


def test_landmarks_unknown_field_rejected(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format": "landmarks", "version": 1,
                                "points": [], "color": "red"}))
    with pytest.raises(FormatError):
        read_landmarks(path)


_LM_POINT = {"id": "nose", "vertex": 3, "u": 10.0, "v": 20.0}


@pytest.mark.parametrize("doc, where", [
    ({"points": [_LM_POINT, 1]}, "points[1]"),
    ({"points": [dict(_LM_POINT, u=None)]}, "points[0]"),
    ({"points": [dict(_LM_POINT, vertex="x")]}, "points[0]"),
    ({"points": [dict(_LM_POINT, vertex=3.7)]}, "points[0]"),
    ({"points": [_LM_POINT], "image_size": [320]}, "image_size"),
], ids=["non-object", "null-u", "string-vertex", "fractional-vertex",
        "short-image-size"])
def test_landmarks_malformed_point_rejected(tmp_path, doc, where):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format": "landmarks", "version": 1, **doc}))
    with pytest.raises(FormatError) as err:
        read_landmarks(path)
    assert str(path) in str(err.value) and where in str(err.value)


# ---------------------------------------------------------------------------
# viseme tables (text)

def test_shipped_viseme_table_loads():
    table = VisemeTable.default()
    assert len(table.visemes) == 13
    assert table.weights["/P/"] == 1.0


def test_viseme_table_file_matches_packaged(tmp_path):
    from importlib.resources import files

    path = tmp_path / "v.txt"
    path.write_text((files("blendfit") / "data" / "visemes.txt").read_text(encoding="ascii"))
    back = read_viseme_table(path)
    assert back.weights == VisemeTable.default().weights
    assert back.viseme_of == VisemeTable.default().viseme_of


def test_duplicate_phoneme_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("visemes 1\n/P/ 1.0 p b\n/T/ 0.36 t p\n/SIL/ 0.0 sil\n")
    with pytest.raises(FormatError):
        read_viseme_table(path)


def test_viseme_table_unknown_version(tmp_path):
    path = tmp_path / "v2.txt"
    path.write_text("visemes 2\n/P/ 1.0 p\n")
    with pytest.raises(FormatError):
        read_viseme_table(path)


# ---------------------------------------------------------------------------
# alignments and reports

def test_alignment_round_trip(tmp_path):
    align = FrameAlignment(("sil", "p", "aa", "t"))
    path = tmp_path / "a.txt"
    write_alignment(path, align)
    assert read_alignment(path).labels == align.labels


@pytest.mark.parametrize("label", ["a-b", "x_1", "~", "'", "ae1", "hh"])
def test_alignment_labels_round_trip(tmp_path, label):
    align = FrameAlignment(("sil", label))
    path = tmp_path / "a.txt"
    write_alignment(path, align)
    assert read_alignment(path).labels == align.labels


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a#b", "#", "a\x01", "\u00e9"],
                         ids=["empty", "space", "tab", "hash", "only-hash", "control",
                              "non-ascii"])
def test_alignment_rejects_labels_that_cannot_round_trip(tmp_path, label):
    # labels stand in for a FrameAlignment, which would refuse the empty one
    align = SimpleNamespace(labels=("sil", label))
    path = tmp_path / "a.txt"
    with pytest.raises(FormatError) as err:
        write_alignment(path, align)
    assert str(path) in str(err.value)
    assert not path.exists()


def test_alignment_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("# utterance 1\nsil\n\np\n  aa\n")
    assert read_alignment(path).labels == ("sil", "p", "aa")


@pytest.mark.parametrize("write, value", [
    (write_alignment, FrameAlignment(("sil", "\u00e9"))),
    (write_bsc_sequence, _named_sequence("caf\u00e9")),
], ids=["alignment", "sequence"])
def test_failed_write_leaves_file_unchanged(tmp_path, write, value):
    path = tmp_path / "old.txt"
    path.write_bytes(b"previous contents\n")
    with pytest.raises(FormatError) as err:
        write(path, value)
    assert str(path) in str(err.value)
    assert path.read_bytes() == b"previous contents\n"


def test_report_writes_json(tmp_path):
    path = tmp_path / "r.json"
    write_report(path, {"rmse_overall": 0.25, "frame_count": 3})
    doc = json.loads(path.read_text())
    assert doc["format"] == "bscreport"
    assert doc["rmse_overall"] == 0.25


# ---------------------------------------------------------------------------
# dataset manifests

def _tiny_dataset(tmp_path, intr):
    rng = np.random.default_rng(4)
    ds = tmp_path / "ds"
    ds.mkdir()
    entries = []
    for i in range(2):
        values = rng.uniform(0.5, 1.5, (intr.height, intr.width)).astype(np.float32)
        write_depth(ds / f"frame_{i}.bsdf",
                    DepthFrame(values, frame_index=i, timestamp=i / 30.0), intr)
        write_landmarks(ds / f"lm_{i}.json",
                        LandmarkSet((f"l{i}",), [i], [[10.0 + i, 20.0]]))
        entries.append(FrameEntry(depth_path=ds / f"frame_{i}.bsdf",
                                  timestamp=i / 30.0,
                                  landmarks_path=ds / f"lm_{i}.json"))
    return ds, DatasetManifest(camera=intr, frames=tuple(entries))


def test_manifest_round_trip(tmp_path, intr):
    ds, manifest = _tiny_dataset(tmp_path, intr)
    write_manifest(ds / "manifest.json", manifest)
    back = read_manifest(ds / "manifest.json")
    assert len(back) == 2
    assert (back.camera.fx, back.camera.width) == (intr.fx, intr.width)
    for i, entry in enumerate(back.frames):
        assert entry.depth_path.is_file()
        assert entry.landmarks_path.is_file()
        assert entry.timestamp == i / 30.0


def test_manifest_paths_are_directory_relative(tmp_path, intr):
    # the dataset directory must be relocatable as a unit
    ds, manifest = _tiny_dataset(tmp_path, intr)
    write_manifest(ds / "manifest.json", manifest)
    doc = json.loads((ds / "manifest.json").read_text())
    for entry in doc["frames"]:
        assert not entry["depth"].startswith("/")
    moved = tmp_path / "moved"
    ds.rename(moved)
    back = read_manifest(moved / "manifest.json")
    assert all(e.depth_path.is_file() for e in back.frames)


def test_manifest_missing_file_rejected(tmp_path, intr):
    ds, manifest = _tiny_dataset(tmp_path, intr)
    write_manifest(ds / "manifest.json", manifest)
    (ds / "frame_1.bsdf").unlink()
    with pytest.raises(FormatError):
        read_manifest(ds / "manifest.json")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("edit, where", [
    (lambda d: d.update(frames=[1]), "frames[0]"),
    (lambda d: d.update(frames="abc"), "'frames'"),
    (lambda d: d["camera"].update(fx=None), "camera fx"),
    (lambda d: d.update(noise=3), "noise"),
    (lambda d: d["frames"][1].update(timestamp=None), "frames[1] timestamp"),
    (lambda d: d["camera"].update(width=d["camera"]["width"] + 0.5), "camera width"),
], ids=["non-object-frame", "string-frames", "null-fx", "number-noise",
        "null-timestamp", "fractional-width"])
def test_manifest_malformed_entry_rejected(tmp_path, intr, edit, where):
    ds, manifest = _tiny_dataset(tmp_path, intr)
    path = ds / "manifest.json"
    write_manifest(path, manifest)
    _edit_json(path, edit)
    with pytest.raises(FormatError) as err:
        read_manifest(path)
    assert str(path) in str(err.value) and where in str(err.value)


# ---------------------------------------------------------------------------
# example-expression directories

def _example_dir(tmp_path):
    """A two-example directory: a neutral scan, then one with a landmark."""
    model = random_model(np.random.default_rng(5))
    cam = CameraIntrinsics(fx=400.0, fy=400.0, cx=80.0, cy=60.0,
                           width=160, height=120)
    lms = LandmarkSet(("tip",), [2], [[30.0, 40.0]])
    examples = [
        ExampleExpression(model.neutral, np.zeros(model.n)),
        ExampleExpression(model.neutral, np.eye(model.n)[1],
                          landmarks=lms, camera=cam, pose=frontal_pose()),
    ]
    write_examples(tmp_path / "ex", examples)
    return model, tmp_path / "ex"


def test_examples_round_trip(tmp_path):
    model, ex_dir = _example_dir(tmp_path)
    back = read_examples(ex_dir)
    assert len(back) == 2
    np.testing.assert_allclose(back[0].scan.vertices, model.neutral.vertices,
                               atol=1e-12)
    np.testing.assert_array_equal(back[1].activation, np.eye(model.n)[1])
    assert back[1].landmarks.ids == ("tip",)
    assert back[1].camera.fx == 400.0
    np.testing.assert_allclose(back[1].pose.translation,
                               frontal_pose().translation, atol=1e-12)


@pytest.mark.parametrize("edit, where", [
    (lambda d: d.update(examples=[1]), "examples[0]"),
    (lambda d: d["examples"][1].update(activation=None), "examples[1] activation"),
    (lambda d: d["examples"][1]["camera"].pop("fx"), "examples[1] camera missing field 'fx'"),
], ids=["non-object-example", "null-activation", "camera-without-fx"])
def test_examples_malformed_entry_rejected(tmp_path, edit, where):
    _, ex_dir = _example_dir(tmp_path)
    index = ex_dir / "examples.json"
    _edit_json(index, edit)
    with pytest.raises(FormatError) as err:
        read_examples(ex_dir)
    assert str(index) in str(err.value) and where in str(err.value)


# ---------------------------------------------------------------------------
# every text reader

@pytest.mark.parametrize("reader, name", [
    (read_mesh, "m.obj"),
    (read_bsc_sequence, "s.bscseq"),
    (read_landmarks, "l.json"),
    (read_manifest, "manifest.json"),
    (read_viseme_table, "v.txt"),
    (read_alignment, "a.txt"),
    (lambda path: read_examples(path.parent), "examples.json"),
], ids=["mesh", "sequence", "landmarks", "manifest", "viseme-table", "alignment",
        "examples"])
def test_non_ascii_byte_names_file(tmp_path, reader, name):
    path = tmp_path / name
    path.write_bytes(b"# \xff\n")
    with pytest.raises(FormatError) as err:
        reader(path)
    assert str(path) in str(err.value) and "0xff" in str(err.value)


# ---------------------------------------------------------------------------
# non-finite numbers

def _json_file(path, doc):
    path.write_text(json.dumps(doc))        # writes float("nan") as NaN
    return path


def _landmarks_nan_u(tmp_path, intr):
    path = _json_file(tmp_path / "lm.json", {"format": "landmarks", "version": 1,
                                            "points": [dict(_LM_POINT, u=float("nan"))]})
    return path, lambda: read_landmarks(path), "points[0].u is NaN"


def _manifest_nan_timestamp(tmp_path, intr):
    ds, manifest = _tiny_dataset(tmp_path, intr)
    path = ds / "manifest.json"
    write_manifest(path, manifest)
    _edit_json(path, lambda d: d["frames"][1].update(timestamp=float("nan")))
    return path, lambda: read_manifest(path), "frames[1].timestamp is NaN"


def _manifest_timestamp_literal(tmp_path, intr, literal):
    """A valid manifest whose frames[1] timestamp is spelt `literal`,
    which json.dumps cannot write."""
    ds, manifest = _tiny_dataset(tmp_path, intr)
    path = ds / "manifest.json"
    write_manifest(path, manifest)
    _edit_json(path, lambda d: d["frames"][1].update(timestamp="@"))
    path.write_text(path.read_text().replace('"@"', literal))
    return path, lambda: read_manifest(path), "frames[1] timestamp"


def _manifest_overflowing_float_timestamp(tmp_path, intr):
    return _manifest_timestamp_literal(tmp_path, intr, "1e999")


def _manifest_overflowing_integer_timestamp(tmp_path, intr):
    return _manifest_timestamp_literal(tmp_path, intr, "9" * 400)


def _examples_inf_activation(tmp_path, intr):
    _, ex_dir = _example_dir(tmp_path)
    path = ex_dir / "examples.json"
    _edit_json(path, lambda d: d["examples"][1]["activation"].__setitem__(0, float("inf")))
    return path, lambda: read_examples(ex_dir), "examples[1].activation[0] is Infinity"


def _mesh_nan_vertex(tmp_path, intr):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n")
    return path, lambda: read_mesh(path), ":2: vertex coordinate: 'nan' is not finite"


def _sequence_row(tmp_path, row):
    path = tmp_path / "s.bscseq"
    path.write_text("bscseq 1\nframe,timestamp,qw,qx,qy,qz,tx,ty,tz,a\n"
                    "0,0.0,1,0,0,0,0,0,0.5,0.25\n" + row + "\n")
    return path


def _sequence_nan_quaternion(tmp_path, intr):
    path = _sequence_row(tmp_path, "1,0.1,nan,0,0,0,0,0,0.5,0.25")
    return path, lambda: read_bsc_sequence(path), ":4: qw: 'nan' is not finite"


def _sequence_inf_translation(tmp_path, intr):
    path = _sequence_row(tmp_path, "1,0.1,1,0,0,0,0,0,-inf,0.25")
    return path, lambda: read_bsc_sequence(path), ":4: tz: '-inf' is not finite"


def _model_with(tmp_path, offset, value):
    """A valid one-shape model file with one float64 at `offset` bytes
    past the name table overwritten."""
    blob = bytearray(_model_blob([b"jaw"], [[0, 1, 2]]))
    start = struct.calcsize("<4sHIII") + 2 + 3 + offset
    blob[start:start + 8] = struct.pack("<d", value)
    path = tmp_path / "m.bsbm"
    path.write_bytes(bytes(blob))
    return path


def _model_nan_basis(tmp_path, intr):
    # the neutral's 9 float64 and the face's 3 uint32 come before the basis
    path = _model_with(tmp_path, 9 * 8 + 3 * 4 + 5 * 8, float("nan"))
    return path, lambda: read_model(path), "basis must be finite"


def _model_inf_neutral(tmp_path, intr):
    path = _model_with(tmp_path, 4 * 8, float("inf"))
    return path, lambda: read_model(path), "neutral vertices must be finite"


def _depth_with_header(tmp_path, **fields):
    header = {"fx": 100.0, "ts": 0.0, **fields}
    path = tmp_path / "d.bsdf"
    path.write_bytes(struct.pack("<4sHIIffffd", b"BSDF", 1, 2, 1, header["fx"], 100.0,
                                 1.0, 0.5, header["ts"]) + struct.pack("<2f", 1.0, 1.0))
    return path


def _depth_nan_timestamp(tmp_path, intr):
    path = _depth_with_header(tmp_path, ts=float("nan"))
    return path, lambda: read_depth(path), "timestamp nan is not finite"


def _depth_inf_focal(tmp_path, intr):
    path = _depth_with_header(tmp_path, fx=float("inf"))
    return path, lambda: read_depth(path), "focal lengths must be positive and finite"


@pytest.mark.parametrize("case", [
    _landmarks_nan_u, _manifest_nan_timestamp, _manifest_overflowing_float_timestamp,
    _manifest_overflowing_integer_timestamp, _examples_inf_activation,
    _mesh_nan_vertex, _sequence_nan_quaternion, _sequence_inf_translation,
    _model_nan_basis, _model_inf_neutral, _depth_nan_timestamp, _depth_inf_focal,
], ids=["landmarks-nan-u", "manifest-nan-timestamp", "manifest-1e999-timestamp",
        "manifest-400-digit-timestamp", "examples-inf-activation",
        "mesh-nan-vertex", "sequence-nan-quaternion", "sequence-inf-translation",
        "model-nan-basis", "model-inf-neutral", "depth-nan-timestamp",
        "depth-inf-focal"])
def test_non_finite_number_names_file_and_place(tmp_path, intr, case):
    path, read, where = case(tmp_path, intr)
    with pytest.raises(FormatError) as err:
        read()
    assert str(path) in str(err.value) and where in str(err.value)


def test_json_string_spelling_a_constant_loads(tmp_path):
    path = _json_file(tmp_path / "lm.json", {"format": "landmarks", "version": 1,
                                            "points": [dict(_LM_POINT, id="NaN")]})
    assert read_landmarks(path).ids == ("NaN",)
