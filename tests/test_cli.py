"""Command-line pipeline: synth, track, eval, apply, personalize, exit codes."""

import json
import shutil

import numpy as np
import pytest

from blendfit import (
    BscSequence,
    CameraIntrinsics,
    DepthFrame,
    SequenceFrame,
    evaluate_mesh,
)
from blendfit import cli
from blendfit import io as bio
from blendfit.cli import main
from blendfit.personalize import ExampleExpression
from blendfit.synth import frontal_pose, make_test_head

from conftest import random_model


def _write_script(path, model, rows):
    """rows: list of {index: value} dicts, one per frame."""
    frames = []
    for i, row in enumerate(rows):
        x = np.zeros(model.n)
        for k, v in row.items():
            x[k] = v
        frames.append(SequenceFrame(i, i / 30.0, frontal_pose(), x))
    bio.write_bsc_sequence(path, BscSequence(model.names, tuple(frames)))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run synth then track once; later tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    model = make_test_head()
    script = root / "script.bscseq"
    _write_script(script, model, [{3: 0.7, 10: 0.5}, {3: 0.7, 10: 0.5, 20: 0.4}])
    assert main(["synth", "--script", str(script),
                 "--out-dir", str(root / "ds"), "--seed", "5"]) == 0
    assert main(["track", "--model", "testhead",
                 "--dataset", str(root / "ds" / "manifest.json"),
                 "--out", str(root / "pred.bscseq")]) == 0
    return root


def test_synth_writes_dataset(workspace):
    ds = workspace / "ds"
    for name in ("manifest.json", "ground_truth.bscseq",
                 "frame_0000.bsdf", "landmarks_0001.json"):
        assert (ds / name).is_file()
    manifest = bio.read_manifest(ds / "manifest.json")
    assert len(manifest) == 2
    assert manifest.seed == 5
    assert manifest.camera.width == 320


def test_track_writes_sequence_and_diagnostics(workspace):
    seq = bio.read_bsc_sequence(workspace / "pred.bscseq")
    assert len(seq) == 2
    diag = json.loads((workspace / "pred.diag.json").read_text())
    assert diag["format"] == "trackdiag"
    assert diag["fitted_frames"] == 2
    assert all(s == "ok" for s in diag["frame_status"])
    assert all(f["converged"] in (True, False) for f in diag["frames"])


def test_eval_scores_prediction(workspace, capsys):
    align = workspace / "align.txt"
    align.write_text("# two frames\np\naa\n")
    report_path = workspace / "report.json"
    rc = main(["eval", "--pred", str(workspace / "pred.bscseq"),
               "--gt", str(workspace / "ds" / "ground_truth.bscseq"),
               "--align", str(align), "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "viseme-weighted error:" in out
    report = json.loads(report_path.read_text())
    assert report["format"] == "bscreport"
    assert report["frame_count"] == 2
    assert not report["all_silence"]
    assert set(report["per_viseme"]) == {"/P/", "/V1/"}
    # noise-free dataset, so the tracked sequence should score well
    assert report["viseme_weighted_error"] < 0.15
    assert report["rmse_overall"] < 0.12
    assert report["range_violations"] == []


def test_apply_exports_meshes(workspace):
    out = workspace / "meshes"
    rc = main(["apply", "--model", "testhead",
               "--sequence", str(workspace / "pred.bscseq"),
               "--out-dir", str(out), "--every", "2"])
    assert rc == 0
    files = sorted(out.glob("*.obj"))
    assert [f.name for f in files] == ["mesh_000000.obj"]
    mesh = bio.read_mesh(files[0])
    assert mesh.vertex_count == make_test_head().neutral.vertex_count


def test_unknown_flag_is_usage_error(capsys):
    # every required flag is given, so only --nope can fail the parse,
    # and the subcommand's parser reports it with its own usage
    with pytest.raises(SystemExit) as exc:
        main(["track", "--model", "testhead", "--dataset", "x", "--out", "y", "--nope"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: blendfit track")
    assert "blendfit track: error: unrecognized arguments: --nope" in err


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["track", "--model", "testhead"])
    assert exc.value.code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_input_file_exits_1(tmp_path, capsys):
    rc = main(["track", "--model", "testhead",
               "--dataset", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o.bscseq")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_mismatched_script_exits_1(tmp_path, capsys):
    script = tmp_path / "s.bscseq"
    script.write_text("bscseq 1\n"
                      "frame,timestamp,qw,qx,qy,qz,tx,ty,tz,a,b\n"
                      "0,0.0,1,0,0,0,0,0,0.5,0.5,0\n")
    rc = main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "d")])
    assert rc == 1
    assert "coefficients" in capsys.readouterr().err


def test_untrackable_dataset_exits_2(tmp_path, capsys):
    # valid files, but no depth anywhere: a runtime failure, not bad usage
    intr = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0,
                            width=320, height=240)
    blank = DepthFrame(np.zeros((240, 320), dtype=np.float32))
    bio.write_depth(tmp_path / "f0.bsdf", blank, intr)
    manifest = bio.DatasetManifest(
        camera=intr,
        frames=(bio.FrameEntry(depth_path=tmp_path / "f0.bsdf", timestamp=0.0),))
    bio.write_manifest(tmp_path / "manifest.json", manifest)
    rc = main(["track", "--model", "testhead",
               "--dataset", str(tmp_path / "manifest.json"),
               "--out", str(tmp_path / "o.bscseq")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "failed" in err
    # the first frame's reason reaches the user
    assert "0 valid depth pixels" in err


def test_frame_without_depth_fails_alone(tmp_path):
    # frame 0 keeps its landmarks but loses its depth: with no start of
    # its own it is recorded as failed, frame 1 fits cold and frame 2
    # from frame 1
    model = make_test_head()
    script = tmp_path / "script.bscseq"
    _write_script(script, model, [{5: 0.5}] * 3)
    ds = tmp_path / "ds"
    assert main(["synth", "--script", str(script), "--out-dir", str(ds)]) == 0
    frame, intr = bio.read_depth(ds / "frame_0000.bsdf")
    bio.write_depth(ds / "frame_0000.bsdf",
                    DepthFrame(np.zeros_like(frame.values)), intr)
    out = tmp_path / "pred.bscseq"
    assert main(["track", "--model", "testhead",
                 "--dataset", str(ds / "manifest.json"),
                 "--out", str(out)]) == 0
    status = json.loads(out.with_suffix(".diag.json").read_text())["frame_status"]
    assert status[0].startswith("failed: ")
    assert "valid depth pixels" in status[0]
    assert status[1:] == ["ok", "ok"]
    assert len(bio.read_bsc_sequence(out)) == 2


@pytest.mark.parametrize("vertex", [99999, -1, pytest.param(None, id="non-object")])
def test_track_rejects_bad_landmark_vertex(workspace, tmp_path, capsys, vertex):
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    lm_path = ds / "landmarks_0001.json"
    doc = json.loads(lm_path.read_text())
    # None stands for a point that is not a JSON object at all
    doc["points"][0] = 7 if vertex is None else dict(doc["points"][0], vertex=vertex)
    lm_path.write_text(json.dumps(doc))
    rc = main(["track", "--model", "testhead",
               "--dataset", str(ds / "manifest.json"),
               "--out", str(tmp_path / "o.bscseq")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("blendfit track: error:")
    assert "landmarks_0001.json" in err
    assert "Traceback" not in err


def test_track_rejects_malformed_manifest(workspace, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    manifest = ds / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["frames"] = [1]
    manifest.write_text(json.dumps(doc))
    rc = main(["track", "--model", "testhead", "--dataset", str(manifest),
               "--out", str(tmp_path / "o.bscseq")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("blendfit track: error:")
    assert str(manifest) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shift", [pytest.param(None, id="repeats-frame-0"),
                                   pytest.param(1e-3, id="still-increasing")])
def test_track_rejects_depth_timestamp_off_manifest(workspace, tmp_path, capsys,
                                                    monkeypatch, shift):
    # frame 1's depth header disagrees with its manifest entry, either by
    # repeating frame 0's timestamp or by a shift that keeps them increasing;
    # the run stops before any fit and names the file and both values
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    stated = bio.read_manifest(ds / "manifest.json").frames[1].timestamp
    frame, intr = bio.read_depth(ds / "frame_0001.bsdf")
    header = (bio.read_depth(ds / "frame_0000.bsdf")[0].timestamp if shift is None
              else stated + shift)
    bio.write_depth(ds / "frame_0001.bsdf", DepthFrame(frame.values, timestamp=header), intr)
    monkeypatch.setattr(cli, "track_sequence", lambda *a, **k: pytest.fail("fit ran"))
    rc = main(["track", "--model", "testhead", "--dataset", str(ds / "manifest.json"),
               "--out", str(tmp_path / "o.bscseq")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("blendfit track: error: frame 1")
    assert "frame_0001.bsdf" in err and repr(header) in err and repr(stated) in err


def _track_argv(ds, tmp_path, *extra, model="testhead"):
    return ["track", "--model", str(model), "--dataset", str(ds / "manifest.json"),
            "--out", str(tmp_path / "o.bscseq"), *extra]


def _nan_landmark(workspace, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(workspace / "ds", ds)
    lm_path = ds / "landmarks_0001.json"
    doc = json.loads(lm_path.read_text())
    doc["points"][0]["u"] = float("nan")
    lm_path.write_text(json.dumps(doc))
    return _track_argv(ds, tmp_path), [str(lm_path), "points[0].u is NaN"]


def _nan_model_basis(workspace, tmp_path):
    model = make_test_head()
    basis = np.array(model.basis)
    basis[3, 100, 2] = np.nan
    path = tmp_path / "m.bsbm"
    bio.write_model(path, type(model)(model.neutral, basis, model.names))
    return (_track_argv(workspace / "ds", tmp_path, model=path),
            [str(path), "basis must be finite"])


def _nan_weight_flag(workspace, tmp_path):
    return _track_argv(workspace / "ds", tmp_path, "--wd", "nan"), ["weights"]


def _nan_config_value(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wd": float("nan")}))
    return (_track_argv(workspace / "ds", tmp_path, "--config", str(cfg)),
            [str(cfg), "wd is NaN"])


def _nan_script_quaternion(workspace, tmp_path):
    script = tmp_path / "s.bscseq"
    _write_script(script, make_test_head(), [{3: 0.5}])
    lines = script.read_text().splitlines()
    lines[2] = lines[2].replace(",1.0,", ",nan,", 1)
    script.write_text("\n".join(lines) + "\n")
    return (["synth", "--script", str(script), "--out-dir", str(tmp_path / "d")],
            [f"{script}:3", "qw: 'nan' is not finite"])


@pytest.mark.parametrize("case", [_nan_landmark, _nan_model_basis, _nan_weight_flag,
                                  _nan_config_value, _nan_script_quaternion],
                         ids=["landmark-file", "model-file", "weight-flag",
                              "config-file", "script-file"])
def test_non_finite_input_exits_1(workspace, tmp_path, capsys, case):
    argv, expected = case(workspace, tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"blendfit {argv[0]}: error:")
    for text in expected:
        assert text in err
    assert "Traceback" not in err


def test_config_file_defaults_with_flag_override(tmp_path):
    model = make_test_head()
    script = tmp_path / "s.bscseq"
    _write_script(script, model, [{3: 0.5}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width": 64, "height": 48,
                               "fx": 80.0, "fy": 80.0, "seed": 9}))
    rc = main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "d"),
               "--config", str(cfg), "--seed", "11"])
    assert rc == 0
    manifest = bio.read_manifest(tmp_path / "d" / "manifest.json")
    assert manifest.camera.width == 64          # from the config file
    assert manifest.camera.fx == 80.0
    assert manifest.seed == 11                  # explicit flag beats the config


def test_abbreviated_flag_is_usage_error(tmp_path):
    # the --config overlay knows only full flag names, so a prefix such as
    # --see for --seed must not parse at all rather than lose to the file
    model = make_test_head()
    script = tmp_path / "s.bscseq"
    _write_script(script, model, [{3: 0.5}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9}))
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "d"),
              "--see", "11", "--config", str(cfg)])
    assert exc.value.code == 1
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("flag", ["--tol", "--gs-sweeps", "--outer-iters"])
def test_track_has_no_iteration_flags(workspace, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(_track_argv(workspace / "ds", tmp_path, flag, "1"))
    assert exc.value.code == 1


@pytest.mark.parametrize("key", ["tol", "gs_sweeps", "outer_iters"])
def test_track_config_rejects_iteration_keys(workspace, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert main(_track_argv(workspace / "ds", tmp_path, "--config", str(cfg))) == 1
    err = capsys.readouterr().err
    assert err.startswith("blendfit track: error:")
    assert repr(key) in err


def test_track_diagnostics_record_the_weights(workspace, tmp_path):
    assert main(_track_argv(workspace / "ds", tmp_path, "--wr", "0.04")) == 0
    diag = json.loads((tmp_path / "o.diag.json").read_text())
    assert diag["config"] == {"w_d": 200.0, "w_l": 8e-3, "w_r": 0.04}


def test_config_unknown_key_exits_1(tmp_path, capsys):
    model = make_test_head()
    script = tmp_path / "s.bscseq"
    _write_script(script, model, [{3: 0.5}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "d"),
               "--config", str(cfg)])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"width": "64"}, {"noise_depth": None},
                                 {"seed": 1.5}, {"dropout": True}, {"model": 3}])
def test_config_rejects_wrongly_typed_value(tmp_path, capsys, doc):
    model = make_test_head()
    script = tmp_path / "s.bscseq"
    _write_script(script, model, [{3: 0.5}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "d"),
               "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("blendfit synth: error:")
    assert str(cfg) in err
    assert repr(next(iter(doc))) in err
    assert "Traceback" not in err


def test_config_non_ascii_byte_names_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"alpha": 0.5, "x": "\xff"}')
    rc = main(["eval", "--pred", "p", "--gt", "g", "--align", "a",
               "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("blendfit eval: error:")
    assert str(cfg) in err and "0xff" in err


def test_personalize_command(tmp_path):
    model = random_model(np.random.default_rng(8))
    generic_path = tmp_path / "generic.bsbm"
    bio.write_model(generic_path, model)
    activations = [np.zeros(model.n)] + [np.eye(model.n)[k] for k in range(model.n)]
    examples = [ExampleExpression(evaluate_mesh(model, a), a) for a in activations]
    bio.write_examples(tmp_path / "ex", examples)
    rc = main(["personalize", "--generic", str(generic_path),
               "--examples-dir", str(tmp_path / "ex"),
               "--lambda", "1e-6", "--out", str(tmp_path / "fitted.bsbm")])
    assert rc == 0
    fitted = bio.read_model(tmp_path / "fitted.bsbm")
    # examples generated by the generic model itself leave it unchanged
    np.testing.assert_allclose(fitted.basis, model.basis, atol=1e-6)
    assert fitted.names == model.names


def test_apply_rejects_bad_stride(tmp_path, workspace, capsys):
    rc = main(["apply", "--model", "testhead",
               "--sequence", str(workspace / "pred.bscseq"),
               "--out-dir", str(tmp_path / "m"), "--every", "0"])
    assert rc == 1
    assert "--every" in capsys.readouterr().err
