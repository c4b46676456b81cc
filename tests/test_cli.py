import ctypes
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs import cli, parallel, pipeline
from vqs.cli import dispatch
from vqs.masks import annotation_from_dict
from vqs.metrics import evaluate_run
from vqs.optim import load_params, save_params
from vqs.autodiff import Tensor
from vqs.optim import ParamStore
from vqs.pipeline import PipelineConfig, init_params
from vqs.synth import load_manifest, load_scene_gt, read_ppm, write_ppm


def run_cli(*argv):
    return dispatch([str(a) for a in argv])


def run_python(*argv, timeout=None):
    """`python ...` in a child process that imports this checkout's vqs; with
    `timeout`, a child still running after that many seconds is killed and the
    call raises subprocess.TimeoutExpired."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def run_module(*argv, timeout=None):
    """`python -m vqs.cli ...` through `run_python`."""
    return run_python("-m", "vqs.cli", *argv, timeout=timeout)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = run_cli(
        "gen", "--scenes", 3, "--seed", 11, "--out", out,
        "--frames", "8:12", "--frame-sizes", "32x32", "--occurrences", "1:2",
        "--distractors", "0:1",
    )
    assert code == 0
    return out


class TestDispatch:
    def test_unknown_flag_usage_error(self, capsys):
        assert run_cli("gen", "--bogus") == 2
        capsys.readouterr()

    def test_unknown_command_usage_error(self, capsys):
        assert run_cli("frobnicate") == 2
        capsys.readouterr()

    def test_error_line_is_machine_readable(self, capsys):
        code = run_cli("validate", "--data", "/nonexistent/nowhere")
        out = capsys.readouterr()
        # validate reports unreadable manifests as violations, not a crash
        assert code == 1
        assert "violation" in out.out

    def test_missing_pred_file_json_error(self, capsys):
        code = run_cli("eval", "--gt", "/nonexistent", "--pred", "/also/nope")
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.err.strip())
        assert "error" in payload

    @pytest.mark.parametrize("argv, names", [
        (("train", "--steps", 2, "--log-interval", 0), "--log-interval must be >= 1, got 0"),
        (("gradcheck", "--coords", 0), "--coords must be >= 1, got 0"),
        (("gradcheck", "--coords", -1), "--coords must be >= 1, got -1"),
        (("infer", "--heads", 0), "num_heads must be >= 1"),
        (("infer", "--heads", -2), "num_heads must be >= 1"),
        (("train", "--heads", 0), "num_heads must be >= 1"),
        (("infer", "--model-dim", 0), "model_dim must be >= 2"),
        (("train", "--lr", -1), "invalid input: --lr must be finite and >= 0, got -1.0"),
        (("train", "--lr", "inf"), "invalid input: --lr must be finite and >= 0, got inf"),
        (("train", "--weight-decay", "nan"), "invalid input: --weight-decay must be finite and >= 0, got nan"),
        (("train", "--weight-decay", -0.1), "invalid input: --weight-decay must be finite and >= 0, got -0.1"),
        (("train", "--beta1", 2), "invalid input: --beta1 must be in [0, 1), got 2.0"),
        (("train", "--beta1", -0.5), "invalid input: --beta1 must be in [0, 1), got -0.5"),
        (("train", "--beta2", 1), "invalid input: --beta2 must be in [0, 1), got 1.0"),
        (("train", "--beta2", "nan"), "invalid input: --beta2 must be in [0, 1), got nan"),
        (("train", "--eps", 0), "invalid input: --eps must be finite and > 0, got 0.0"),
        (("train", "--eps", "1e400"), "invalid input: --eps must be finite and > 0, got inf"),
        (("train", "--gamma", "nan,1"), "stage weights (--gamma) must be finite and >= 0, got [nan, 1.0]"),
        (("train", "--gamma", "0.5,-1"), "stage weights (--gamma) must be finite and >= 0, got [0.5, -1.0]"),
        (("infer", "--gamma", "inf,1"), "stage weights (--gamma) must be finite and >= 0, got [inf, 1.0]"),
        (("gen", "--scale", "nan:nan"), "--scale range must be finite, got nan:nan"),
        (("gen", "--scale", "0.1:inf"), "--scale range must be finite, got 0.1:inf"),
        (("gen", "--drift", "nan:0.1"), "--drift range must be finite, got nan:0.1"),
        (("gen", "--fps", 0), "--fps must be >= 1, got 0"),
        (("gen", "--fps", -3), "--fps must be >= 1, got -3"),
        (("gen", "--frame-sizes", "64x64,7x64"),
         "--frame-sizes 7x64: each side must be >= 8 and a frame at most 16777216 pixels"),
        (("gen", "--frame-sizes", "100000x100000"),
         "--frame-sizes 100000x100000: each side must be >= 8 and a frame at most 16777216 pixels"),
        (("gen", "--frames", "5:3"), "--frames range 5:3 is reversed: LO must not exceed HI"),
        (("gen", "--distractors", "2:1"), "--distractors range 2:1 is reversed: LO must not exceed HI"),
        (("gen", "--scale", "0.3:0.1"), "--scale range 0.3:0.1 is reversed: LO must not exceed HI"),
        (("gen", "--drift", "0.5:0.1"), "--drift range 0.5:0.1 is reversed: LO must not exceed HI"),
        (("gen", "--occurrences", "3:1"), "--occurrences range 3:1 is reversed: LO must not exceed HI"),
        (("gen", "--occurrences", "0:0"), "--occurrences range must start at >= 1, got 0:0"),
        (("gen", "--occurrences", "3:5"), "--occurrences range must start at <= 2 to fit in 4 frames, got 3:5"),
        (("gen", "--frames", "0:3"), "--frames range must start at >= 1, got 0:3"),
        (("gen", "--distractors=-1:2"), "--distractors range must start at >= 0, got -1:2"),
        (("gen", "--scale", "0.01:0.2"), "--scale range must start at >= 0.02, got 0.01:0.2"),
        (("gen", "--scale", "0.1:0.5"), "--scale range must end at <= 0.49, got 0.1:0.5"),
        (("gen", "--drift", "0:2"), "--drift range must end at <= 1.0, got 0.0:2.0"),
        (("gen", "--distractors", "0:100000000"), "--distractors range must end at <= 64, got 0:100000000"),
        (("gen", "--frames", "1:100000000"), "--frames 1:100000000: a scene of 100000000 16x16 frames "
                                             "needs 76800000000 bytes, more than the 1073741824 allowed"),
    ], ids=lambda v: " ".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_out_of_range_flag_rejected(self, dataset, tmp_path, capsys, monkeypatch, argv, names):
        def no_work(*args, **kwargs):
            raise AssertionError("a rejected flag reached the command's work")

        for work in ("overfit_train", "gradient_check_report", "parallel_map", "generate_dataset",
                     "load_manifest"):
            monkeypatch.setattr(cli, work, no_work)
        command, *flags = argv
        paths = {"infer": ("--data", dataset, "--out", tmp_path / "p.json"),
                 "train": ("--data", dataset, "--ckpt-out", tmp_path / "c.ckpt"),
                 "gen": ("--scenes", 1, "--frames", "4:4", "--frame-sizes", "16x16", "--out", tmp_path / "ds"),
                 "gradcheck": ()}[command]
        assert run_cli(command, *paths, *flags) == 1
        assert one_json_error_line(capsys.readouterr().err) == names
        assert list(tmp_path.iterdir()) == []

    def test_cached_parser_keeps_no_state(self, dataset, tmp_path, capsys, monkeypatch):
        """Calls in one process print and write what each prints and writes alone."""
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal's width
        gt_objects = [json.loads((dataset / e["gt"]).read_text()) for e in load_manifest(dataset)["scenes"]]
        pred = tmp_path / "pred.json"
        pred.write_text(json.dumps(gt_objects[1:] + [dict(gt_objects[0], occurrences=[])]))
        calls = [("eval", "--gt", dataset, "--pred", pred, "--format", "csv"),
                 ("eval", "--gt", dataset, "--pred", pred, "--out", tmp_path / "{}.json"),
                 ("--help",)]
        together, alone = [], []
        for side, results in (("together", together), ("alone", alone)):
            for call in calls:
                argv = [str(a).format(side) for a in call]
                if side == "together":
                    code = run_cli(*argv)
                    out = capsys.readouterr()
                    results.append((code, out.out, out.err))
                else:
                    proc = run_module(*argv)
                    results.append((proc.returncode, proc.stdout, proc.stderr))
        assert together == alone
        assert [r[0] for r in together] == [0, 0, 0] and "stAP" in together[0][1]
        assert (tmp_path / "together.json").read_bytes() == (tmp_path / "alone.json").read_bytes()
        assert (tmp_path / "together.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()

    def test_console_script_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        for sub in ("gen", "infer", "train", "eval", "stats", "validate", "gradcheck"):
            assert sub in proc.stdout

    def test_help_lists_flag_defaults(self):
        proc = run_module("infer", "--help")
        assert proc.returncode == 0
        for flag, default in (("--tau-t", "0.5"), ("--tau-d", "0.5"), ("--tau-s", "0.7"),
                              ("--nt", "2"), ("--nd", "1"), ("--stages", "2"),
                              ("--clip-len", "7")):
            assert flag in proc.stdout
            assert default in proc.stdout


def one_json_error_line(stderr: str) -> str:
    lines = stderr.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])["error"]


@pytest.fixture(scope="module")
def two_videos(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli2") / "ds"
    assert run_cli("gen", "--scenes", 2, "--seed", 4, "--out", out, "--frames", "8:8",
                   "--frame-sizes", "32x32", "--occurrences", "1:1", "--distractors", "0:0") == 0
    return out


class TestNonFiniteErrors:
    def checkpoint(self, path, edit):
        store = init_params(PipelineConfig(model_dim=16))
        for name, p in store.params.items():
            edit(name, p.value)
        save_params(store, str(path))
        return path

    def test_non_finite_checkpoint_rejected(self, dataset, tmp_path, capsys):
        def poison(name, value):
            if name == "stt_mlp.b2":
                value[0] = np.nan

        ckpt = self.checkpoint(tmp_path / "nan.ckpt", poison)
        code = run_cli("infer", "--data", dataset, "--out", tmp_path / "p.json",
                       "--ckpt", ckpt, "--model-dim", 16)
        assert code == 1
        assert "stt_mlp.b2" in one_json_error_line(capsys.readouterr().err)
        assert not (tmp_path / "p.json").exists()

    def test_overflowing_checkpoint_reported_on_one_line(self, dataset, tmp_path):
        def blow_up(name, value):
            value *= 1e200

        ckpt = self.checkpoint(tmp_path / "big.ckpt", blow_up)
        proc = run_module("infer", "--data", dataset, "--out", tmp_path / "p.json",
                          "--ckpt", ckpt, "--model-dim", 16)
        assert proc.returncode == 1
        assert "non-finite" in one_json_error_line(proc.stderr)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_finite_forward_names_video(self, two_videos, tmp_path, capsys, jobs):
        def blow_up(name, value):
            value *= 1e200

        ckpt = self.checkpoint(tmp_path / "big.ckpt", blow_up)
        code = run_cli("infer", "--data", two_videos, "--out", tmp_path / "p.json",
                       "--ckpt", ckpt, "--model-dim", 16, "--jobs", jobs)
        assert code == 1
        message = one_json_error_line(capsys.readouterr().err)
        # STT mixes every frame of the first clip, so its first frame is the first bad one
        assert message == "video 'scene_0000': non-finite decoder output for frame 0"
        assert not (tmp_path / "p.json").exists()

    def test_diverging_training_reported(self, dataset, tmp_path, capsys):
        code = run_cli("train", "--data", dataset, "--ckpt-out", tmp_path / "t.ckpt",
                       "--steps", 5, "--lr", 1e160, "--model-dim", 16)
        assert code == 1
        assert "at step" in one_json_error_line(capsys.readouterr().err)
        assert not (tmp_path / "t.ckpt").exists()


class TestGen:
    def test_deterministic_trees(self, tmp_path, capsys):
        args = ["gen", "--scenes", 2, "--seed", 5, "--frames", "6:8",
                "--frame-sizes", "32x32", "--occurrences", "1:1"]
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b") == 0
        capsys.readouterr()
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_sidecar_written(self, dataset):
        sidecar = json.loads((dataset / "run_config.json").read_text())
        assert sidecar["command"] == "gen"
        assert sidecar["options"]["seed"] == 11
        assert "config_digest" in sidecar


# an annotation's height or width that vqs never writes, and the error naming it
DIMENSION_DEFECTS = {
    "float": (2.5, "annotation {field!r} must be an integer >= 1, got 2.5"),
    "string": ("2", "annotation {field!r} must be an integer >= 1, got '2'"),
    "bool": (True, "annotation {field!r} must be an integer >= 1, got True"),
    "zero": (0, "annotation {field!r} must be an integer >= 1, got 0"),
    "negative": (-1, "annotation {field!r} must be an integer >= 1, got -1"),
    "missing": (None, "malformed annotation object: {field!r}"),
}


class TestEval:
    @pytest.mark.parametrize("field", ["height", "width"])
    @pytest.mark.parametrize("defect", sorted(DIMENSION_DEFECTS))
    def test_gt_array_dimension_rejected(self, tmp_path, capsys, field, defect):
        value, message = DIMENSION_DEFECTS[defect]
        gt = {"video_id": "v", "height": 2, "width": 4, "num_frames": 1,
              "occurrences": [{"start": 0, "end": 0, "masks": ["8"]}]}
        (tmp_path / "pred.json").write_text(json.dumps([gt]))
        gt = {k: v for k, v in gt.items() if k != field} if value is None else {**gt, field: value}
        (tmp_path / "gt.json").write_text(json.dumps([gt]))
        assert run_cli("eval", "--gt", tmp_path / "gt.json", "--pred", tmp_path / "pred.json") == 1
        assert one_json_error_line(capsys.readouterr().err) == message.format(field=field)

    @pytest.mark.parametrize("occurrence, message", [
        ({"start": 0.9, "end": 0.9, "masks": "8"}, "'start' must be an integer, got 0.9"),
        ({"start": float("nan"), "end": 0, "masks": ["8"]}, "'start' must be an integer, got nan"),
        ({"start": 0, "end": float("inf"), "masks": ["8"]}, "'end' must be an integer, got inf"),
        ({"start": "0", "end": 0, "masks": ["8"]}, "'start' must be an integer, got '0'"),
        ({"start": False, "end": 0, "masks": ["8"]}, "'start' must be an integer, got False"),
        ({"start": 0, "end": 0, "masks": "8"}, "'masks' must be a list of strings, got '8'"),
    ], ids=["float-and-string", "nan", "infinity", "string", "false", "masks-string"])
    def test_malformed_occurrence_field_rejected(self, tmp_path, capsys, occurrence, message):
        # the first case used to score frame 0 with the string's characters as its masks, and exit 0
        gt = {"video_id": "v", "height": 2, "width": 4, "num_frames": 1,
              "occurrences": [{"start": 0, "end": 0, "masks": ["8"]}]}
        (tmp_path / "gt.json").write_text(json.dumps([gt]))
        (tmp_path / "pred.json").write_text(json.dumps([{**gt, "occurrences": [occurrence]}]))
        assert run_cli("eval", "--gt", tmp_path / "gt.json", "--pred", tmp_path / "pred.json") == 1
        assert one_json_error_line(capsys.readouterr().err) == f"malformed annotation object: occurrence 0 {message}"

    def test_perfect_prediction_scores_100(self, dataset, tmp_path, capsys):
        manifest = load_manifest(dataset)
        gt_objects = [json.loads((dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
        pred_path = tmp_path / "gt_as_pred.json"
        pred_path.write_text(json.dumps(gt_objects))
        out_path = tmp_path / "report.json"
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path, "--out", out_path) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert set(report["overall"].values()) == {100.0}
        csv_text = out_path.with_suffix(".csv").read_text()
        assert csv_text.splitlines()[1].startswith("overall,3,100.00")

    def test_csv_out_refused_before_reading(self, dataset, tmp_path, capsys):
        # the CSV report goes to the --out path with suffix .csv: here, --out itself
        out_path = tmp_path / "rep.csv"
        argv = ["eval", "--gt", dataset, "--pred", tmp_path / "missing.json", "--out", out_path]
        assert run_cli(*argv) == 1
        assert one_json_error_line(capsys.readouterr().err) == (
            f"{out_path}: --out names the JSON report, and the CSV report beside it would "
            f"overwrite it; give --out a suffix other than .csv")
        assert not out_path.exists()

    def test_low_scores_still_exit_zero(self, dataset, tmp_path, capsys):
        manifest = load_manifest(dataset)
        empties = []
        for entry in manifest["scenes"]:
            empties.append({"video_id": entry["id"], "height": entry["height"],
                            "width": entry["width"], "occurrences": []})
        pred_path = tmp_path / "empty_preds.json"
        pred_path.write_text(json.dumps(empties))
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path) == 0
        capsys.readouterr()

    def test_missing_video_fails(self, dataset, tmp_path, capsys):
        pred_path = tmp_path / "short.json"
        pred_path.write_text(json.dumps([]))
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path) == 1
        err = capsys.readouterr().err
        assert "missing predictions" in err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mask_size_mismatch_names_video(self, tmp_path, capsys, jobs):
        def annotation(vid, size):
            return {"video_id": vid, "height": size, "width": size,
                    "occurrences": [{"start": 0, "end": 0, "masks": [f"0,{size * size}"]}]}

        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        gt_path.write_text(json.dumps([annotation("scene_0000", 64), annotation("scene_0001", 64)]))
        pred_path.write_text(json.dumps([annotation("scene_0000", 32), annotation("scene_0001", 64)]))
        assert run_cli("eval", "--gt", gt_path, "--pred", pred_path, "--jobs", jobs) == 1
        message = one_json_error_line(capsys.readouterr().err)
        assert message == "video 'scene_0000': gt masks are (64, 64), predictions are (32, 32)"

    @pytest.mark.parametrize("frame_of", [lambda n: -5, lambda n: -1, lambda n: n, lambda n: 900],
                             ids=["minus-5", "minus-1", "num-frames", "900"])
    def test_out_of_range_frame_rejected(self, dataset, tmp_path, capsys, frame_of):
        manifest = load_manifest(dataset)
        preds = [json.loads((dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
        frame = frame_of(manifest["scenes"][1]["num_frames"])
        mask = preds[1]["occurrences"][0]["masks"][0]
        preds[1]["occurrences"] = [{"start": frame, "end": frame, "masks": [mask]}]
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(preds))
        out_path = tmp_path / "report.json"
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path, "--out", out_path) == 1
        message = one_json_error_line(capsys.readouterr().err)
        assert repr(preds[1]["video_id"]) in message and f"frame {frame};" in message
        assert not out_path.exists()

    @pytest.mark.parametrize("num_frames", ["12", 0, [12]], ids=["string", "zero", "list"])
    def test_malformed_gt_length_rejected(self, dataset, tmp_path, capsys, num_frames):
        manifest = load_manifest(dataset)
        gts = [json.loads((dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(gts))
        gts[0]["num_frames"] = num_frames
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gts))
        assert run_cli("eval", "--gt", gt_path, "--pred", pred_path) == 1
        assert "num_frames" in one_json_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("mangle, expected", [
        (lambda preds: {"predictions": 5}, "predictions must be an array"),
        (lambda preds: {"predictions": "scene_0000"}, "predictions must be an array"),
        (lambda preds: 5, "predictions must be an array"),
        (lambda preds: [{**preds[0], "occurrences": [{"start": 0, "end": 0, "masks": 5}]}],
         "malformed annotation object"),
        (lambda preds: [{**preds[0], "occurrences": [{"start": 0, "end": 0, "masks": [5]}]}],
         "malformed annotation object"),
        (lambda preds: [{**preds[0], "occurrences": 5}], "malformed annotation object"),
        (lambda preds: [{**preds[0], "occurrences": [5]}], "malformed annotation object"),
    ], ids=["predictions-int", "predictions-string", "top-level-int", "masks-int",
            "mask-int", "occurrences-int", "occurrence-int"])
    def test_malformed_predictions_rejected(self, dataset, tmp_path, capsys, mangle, expected):
        manifest = load_manifest(dataset)
        preds = [json.loads((dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(mangle(preds)))
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path) == 1
        assert expected in one_json_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("which", ["gt", "pred"])
    def test_repeated_video_id_rejected(self, dataset, tmp_path, capsys, which):
        manifest = load_manifest(dataset)
        objects = [json.loads((dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
        paths = {"gt": tmp_path / "gt.json", "pred": tmp_path / "pred.json"}
        for name, path in paths.items():
            path.write_text(json.dumps(objects + [objects[0]] if name == which else objects))
        assert run_cli("eval", "--gt", paths["gt"], "--pred", paths["pred"]) == 1
        what = {"gt": "ground truth", "pred": "prediction"}[which]
        assert one_json_error_line(capsys.readouterr().err) == \
            f"{paths[which]}: duplicate {what} for 'scene_0000'"


class TestInferEvalEquivalence:
    def test_cli_matches_library(self, dataset, tmp_path, capsys):
        preds = tmp_path / "preds.json"
        code = run_cli("infer", "--data", dataset, "--out", preds,
                       "--model-dim", 16, "--seed", 3)
        assert code == 0
        report_path = tmp_path / "report.json"
        assert run_cli("eval", "--gt", dataset, "--pred", preds, "--out", report_path) == 0
        capsys.readouterr()
        cli_report = json.loads(report_path.read_text())

        manifest = load_manifest(dataset)
        gt = {}
        for entry in manifest["scenes"]:
            response, _ = load_scene_gt(dataset, entry)
            gt[entry["id"]] = response
        payload = json.loads(preds.read_text())
        pred = {}
        for obj in payload["predictions"]:
            response, _, _ = annotation_from_dict(obj)
            pred[response.video_id] = response
        lib_report = evaluate_run(gt, pred).as_dict()
        assert cli_report["overall"] == lib_report["overall"]
        assert cli_report["per_subset"] == lib_report["per_subset"]

    def test_predictions_carry_provenance(self, dataset, tmp_path, capsys):
        preds = tmp_path / "p.json"
        run_cli("infer", "--data", dataset, "--out", preds, "--model-dim", 16)
        capsys.readouterr()
        payload = json.loads(preds.read_text())
        assert payload["format"] == "vqs-predictions-v1"
        assert "config_digest" in payload
        for record in payload["predictions"]:
            assert "provenance" in record
            assert record["provenance"]["clips"]
        assert (tmp_path / "p.json.config.json").exists()


class TestTrain:
    def test_short_training_run(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "model.bin"
        curve = tmp_path / "curve.csv"
        code = run_cli(
            "train", "--data", dataset, "--scene", 0, "--steps", 2,
            "--lr", "1e-4", "--ckpt-out", ckpt, "--curve-out", curve,
            "--model-dim", 16, "--clip-len", 6,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "step" in out
        store = load_params(str(ckpt))
        assert len(store.params) > 10
        assert curve.read_text().count("\n") == 3
        sidecar = json.loads((tmp_path / "model.bin.config.json").read_text())
        assert sidecar["options"]["log_interval"] == 10
        assert "log_interval" not in sidecar["options"]["train"]

    def test_empty_query_mask_rejected(self, two_videos, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        gt_path = data / load_manifest(data)["scenes"][0]["gt"]
        gt = json.loads(gt_path.read_text())
        gt["query_mask"] = str(gt["height"] * gt["width"])
        gt_path.write_text(json.dumps(gt))
        code = run_cli("train", "--data", data, "--steps", 1, "--model-dim", 16,
                       "--ckpt-out", tmp_path / "t.ckpt")
        assert code == 1
        assert capsys.readouterr().err.strip() == '{"error": "query mask is empty"}'
        assert not (tmp_path / "t.ckpt").exists()

    def test_adjacent_one_frame_occurrences_accepted(self, tmp_path, capsys):
        data = tmp_path / "ds"
        assert run_cli("gen", "--scenes", 2, "--seed", 13, "--frames", "14:14", "--out", data) == 0
        gt_path = data / load_manifest(data)["scenes"][0]["gt"]
        gt = json.loads(gt_path.read_text())
        mask = gt["occurrences"][0]["masks"][0]
        gt["occurrences"] = [{"start": t, "end": t, "masks": [mask]} for t in range(8)]
        gt_path.write_text(json.dumps(gt))
        ckpt = tmp_path / "t.ckpt"
        assert run_cli("train", "--data", data, "--steps", 1, "--model-dim", 16,
                       "--ckpt-out", ckpt) == 0
        capsys.readouterr()
        sidecar = json.loads((tmp_path / "t.ckpt.config.json").read_text())
        assert set(sidecar["options"]["train"]) == {
            "steps", "lr", "beta1", "beta2", "eps", "weight_decay", "seed"}

    @pytest.mark.parametrize("start,end,first_late", [(20, 21, 20), (6, 9, 8)], ids=["past", "straddling"])
    def test_gt_past_the_video_rejected(self, two_videos, tmp_path, capsys, start, end, first_late):
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        entry = load_manifest(data)["scenes"][0]
        gt_path = data / entry["gt"]
        gt = json.loads(gt_path.read_text())
        mask = gt["occurrences"][0]["masks"][0]
        gt["occurrences"] = [{"start": start, "end": end, "masks": [mask] * (end - start + 1)}]
        gt_path.write_text(json.dumps(gt))
        code = run_cli("train", "--data", data, "--steps", 1, "--model-dim", 16,
                       "--ckpt-out", tmp_path / "t.ckpt")
        assert code == 1
        assert one_json_error_line(capsys.readouterr().err) == (
            f"video {entry['id']!r}: ground truth has frame {first_late}, but the video has 8 frames")
        assert not (tmp_path / "t.ckpt").exists()

    def test_bad_scene_index(self, dataset, capsys):
        code = run_cli("train", "--data", dataset, "--scene", 99, "--steps", 1,
                       "--ckpt-out", "/tmp/never.bin")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestStatsValidateGradcheck:
    def test_stats(self, dataset, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run_cli("stats", "--data", dataset, "--out", out) == 0
        capsys.readouterr()
        stats = json.loads(out.read_text())
        assert stats["scenes"] == 3
        assert "video_length_sec" in stats

    def test_validate_clean(self, dataset, capsys):
        assert run_cli("validate", "--data", dataset) == 0
        capsys.readouterr()

    def test_validate_corrupted(self, dataset, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(dataset, broken)
        victim = next((broken / "scenes").glob("*/gt.json"))
        obj = json.loads(victim.read_text())
        obj["occurrences"] = obj["occurrences"] + obj["occurrences"]
        victim.write_text(json.dumps(obj))
        code = run_cli("validate", "--data", broken, "--format", "json")
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["violations"]

    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--coords", 2) == 0
        out = capsys.readouterr().out
        assert "stage_frame_loss" in out
        assert "FAIL" not in out


class TestJobsFlag:
    def test_parallel_gen_matches_serial(self, tmp_path, capsys):
        base = ["gen", "--scenes", 3, "--seed", 9, "--frames", "6:8",
                "--frame-sizes", "32x32", "--occurrences", "1:1"]
        assert run_cli(*base, "--out", tmp_path / "serial") == 0
        assert run_cli(*base, "--out", tmp_path / "par", "--jobs", 2) == 0
        capsys.readouterr()
        assert tree_bytes(tmp_path / "serial") == tree_bytes(tmp_path / "par")

    def test_parallel_infer_matches_serial(self, dataset, tmp_path, capsys):
        base = ["infer", "--data", dataset, "--model-dim", 16, "--seed", 2]
        assert run_cli(*base, "--out", tmp_path / "serial.json") == 0
        assert run_cli(*base, "--out", tmp_path / "par.json", "--jobs", 2) == 0
        capsys.readouterr()
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "par.json").read_bytes()

    def test_parallel_eval_matches_serial(self, dataset, tmp_path, capsys):
        manifest = load_manifest(dataset)
        gt_objects = [json.loads((dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps(gt_objects))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path, "--out", out_a) == 0
        assert run_cli("eval", "--gt", dataset, "--pred", pred_path, "--out", out_b, "--jobs", 2) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_workers_run_heads_serially(self, two_videos, tmp_path, capsys, monkeypatch):
        # --jobs 1 starts the head threads in this process; the --jobs 2
        # workers forked after it must still run their heads one at a time
        if parallel.available_cpus() < 2:
            pytest.skip("needs 2 CPUs")
        monkeypatch.setattr(cli, "_infer_one", _infer_one_reporting_heads)
        monkeypatch.setattr(sys.modules[__name__], "head_reports", tmp_path / "heads.jsonl")
        base = ["infer", "--data", two_videos, "--model-dim", 16, "--seed", 2]
        assert run_cli(*base, "--out", tmp_path / "serial.json", "--jobs", 1) == 0
        assert run_cli(*base, "--out", tmp_path / "par.json", "--jobs", 2) == 0
        capsys.readouterr()
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "par.json").read_bytes()
        reports = [json.loads(line) for line in head_reports.read_text().splitlines()]
        assert [r["width"] for r in reports if r["pid"] == os.getpid()] == [2, 2]
        workers = [r for r in reports if r["pid"] != os.getpid()]
        assert len(workers) == 2 and [r["width"] for r in workers] == [1, 1]

    @pytest.mark.parametrize("command", ["gen", "infer", "eval"])
    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, dataset, tmp_path, capsys, command, jobs):
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--scenes", 1, "--out", out],
            "infer": ["infer", "--data", dataset, "--out", out],
            "eval": ["eval", "--gt", dataset, "--pred", dataset / "missing.json", "--out", out],
        }[command]
        assert run_cli(*argv, "--jobs", jobs) == 1
        assert "--jobs" in one_json_error_line(capsys.readouterr().err)
        assert not out.exists()


MANIFEST_DEFECTS = {
    "top-level-list": (lambda m: [m], "manifest: top level must be an object"),
    "scenes-object": (lambda m: {**m, "scenes": {}}, "manifest: 'scenes' must be a list"),
    "entry-int": (lambda m: {**m, "scenes": [5]}, "manifest: scenes[0] must be an object"),
    "frames-list": (lambda m: {**m, "scenes": [{**m["scenes"][0], "frames": [m["scenes"][0]["frames"]]}]},
                    "manifest: scenes[0]: 'frames' must be a string"),
    "frame-int": (lambda m: {**m, "scenes": [m["scenes"][0], {**m["scenes"][1], "frames": 3}]},
                  "manifest: scenes[1]: 'frames' must be a string"),
    "id-int": (lambda m: {**m, "scenes": [{**m["scenes"][0], "id": 7}]},
               "manifest: scenes[0]: 'id' must be a string"),
    "query-list": (lambda m: {**m, "scenes": [{**m["scenes"][0], "query": ["q.ppm"]}]},
                   "manifest: scenes[0]: 'query' must be a string"),
    "gt-null": (lambda m: {**m, "scenes": [{**m["scenes"][0], "gt": None}]},
                "manifest: scenes[0]: 'gt' must be a string"),
    "repeated-id": (lambda m: {**m, "scenes": [m["scenes"][0], {**m["scenes"][1], "id": m["scenes"][0]["id"]}]},
                    "manifest: scenes[1]: repeated id 'scene_0000'"),
    "fps-zero": (lambda m: {**m, "scenes": [{**m["scenes"][0], "fps": 0}]},
                 "manifest: scenes[0]: 'fps' must be a positive integer, got 0"),
    "fps-string": (lambda m: {**m, "scenes": [m["scenes"][0], {**m["scenes"][1], "fps": "6"}]},
                   "manifest: scenes[1]: 'fps' must be a positive integer, got '6'"),
    "num-frames-missing": (lambda m: {**m, "scenes": [{k: v for k, v in m["scenes"][0].items() if k != "num_frames"}]},
                           "manifest: scenes[0]: missing 'num_frames'"),
    "fps-missing": (lambda m: {**m, "scenes": [m["scenes"][0], {k: v for k, v in m["scenes"][1].items() if k != "fps"}]},
                    "manifest: scenes[1]: missing 'fps'"),
    "id-missing": (lambda m: {**m, "scenes": [{k: v for k, v in m["scenes"][0].items() if k != "id"}]},
                   "manifest: scenes[0]: missing 'id'"),
    "frames-missing": (lambda m: {**m, "scenes": [{k: v for k, v in m["scenes"][0].items() if k != "frames"}]},
                       "manifest: scenes[0]: missing 'frames'"),
    "query-missing": (lambda m: {**m, "scenes": [m["scenes"][0], {k: v for k, v in m["scenes"][1].items() if k != "query"}]},
                      "manifest: scenes[1]: missing 'query'"),
    "gt-missing": (lambda m: {**m, "scenes": [{k: v for k, v in m["scenes"][0].items() if k != "gt"}]},
                   "manifest: scenes[0]: missing 'gt'"),
    "num-frames-null": (lambda m: {**m, "scenes": [{**m["scenes"][0], "num_frames": None}]},
                        "manifest: scenes[0]: 'num_frames' must be a positive integer, got None"),
    "num-frames-string": (lambda m: {**m, "scenes": [{**m["scenes"][0], "num_frames": "8"}]},
                          "manifest: scenes[0]: 'num_frames' must be a positive integer, got '8'"),
    "height-bool": (lambda m: {**m, "scenes": [{**m["scenes"][0], "height": True}]},
                    "manifest: scenes[0]: 'height' must be a positive integer, got True"),
    "width-negative": (lambda m: {**m, "scenes": [{**m["scenes"][0], "width": -32}]},
                       "manifest: scenes[0]: 'width' must be a positive integer, got -32"),
}


class TestManifestShape:
    @pytest.mark.parametrize("command", ["validate", "infer", "stats", "train", "eval"])
    @pytest.mark.parametrize("defect", sorted(MANIFEST_DEFECTS))
    def test_malformed_manifest_is_one_error(self, two_videos, tmp_path, capsys, command, defect):
        mangle, message = MANIFEST_DEFECTS[defect]
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        manifest_path = data / "manifest.json"
        manifest_path.write_text(json.dumps(mangle(json.loads(manifest_path.read_text()))))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text("[]")
        argv = {
            "validate": ["validate", "--data", data],
            "infer": ["infer", "--data", data, "--out", tmp_path / "p.json"],
            "stats": ["stats", "--data", data],
            "train": ["train", "--data", data, "--ckpt-out", tmp_path / "t.ckpt"],
            "eval": ["eval", "--gt", data, "--pred", pred_path],
        }[command]
        assert run_cli(*argv) == 1
        out = capsys.readouterr()
        if command == "validate":
            assert out.out.splitlines() == [f"violation: {message}", f"1 violation(s) in {data}"]
        else:
            assert one_json_error_line(out.err) == message


class TestOldDataset:
    """A dataset in any format but MANIFEST_FORMAT, such as the one PPM file per
    frame of vqs-dataset-v1, is one error naming the format, with no second loader."""

    @pytest.mark.parametrize("command", ["validate", "infer", "stats", "train", "eval"])
    @pytest.mark.parametrize("found", ["vqs-dataset-v1", "vqs-dataset-v3", None, "missing"])
    def test_other_format_is_one_error(self, tmp_path, capsys, command, found):
        data = tmp_path / "ds"
        (data / "scenes/s/frames").mkdir(parents=True)
        frames = [f"scenes/s/frames/{t:04d}.ppm" for t in range(2)]
        for t, rel in enumerate(frames):
            write_ppm(data / rel, np.full((8, 8, 3), t, dtype=np.uint8))
        write_ppm(data / "scenes/s/query.ppm", np.full((8, 8, 3), 9, dtype=np.uint8))
        (data / "scenes/s/gt.json").write_text(json.dumps({
            "video_id": "s", "height": 8, "width": 8, "num_frames": 2, "fps": 6,
            "occurrences": [{"start": 0, "end": 0, "masks": ["60,4"]}], "query_mask": "60,4"}))
        manifest = {"format": found, "seed": 0, "config": {}, "scenes": [{
            "id": "s", "seed": 0, "height": 8, "width": 8, "num_frames": 2, "fps": 6,
            "frames": frames, "query": "scenes/s/query.ppm", "gt": "scenes/s/gt.json"}]}
        if found == "missing":
            del manifest["format"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text("[]")
        argv = {
            "validate": ["validate", "--data", data],
            "infer": ["infer", "--data", data, "--out", tmp_path / "p.json"],
            "stats": ["stats", "--data", data],
            "train": ["train", "--data", data, "--ckpt-out", tmp_path / "t.ckpt"],
            "eval": ["eval", "--gt", data, "--pred", pred_path],
        }[command]
        assert run_cli(*argv) == 1
        message = (f"manifest: format {None if found == 'missing' else found!r} is not 'vqs-dataset-v2'; "
                   f"regenerate the dataset with vqs gen")
        out = capsys.readouterr()
        if command == "validate":
            assert out.out.splitlines() == [f"violation: {message}", f"1 violation(s) in {data}"]
        else:
            assert one_json_error_line(out.err) == message
        assert not (tmp_path / "p.json").exists() and not (tmp_path / "t.ckpt").exists()


class TestNumFramesCount:
    def test_validate_reports_num_frames_unlike_frames(self, two_videos, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        manifest_path = data / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["scenes"][0]["num_frames"] += 5
        manifest_path.write_text(json.dumps(manifest))
        assert run_cli("validate", "--data", data) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"violation: scene_0000: {data / 'scenes/scene_0000/frames.ppm'}: holds 8 PPM images, expected 13",
            f"1 violation(s) in {data}",
        ]


# a bad header to write in place of frame 0's in a frames file, and the text of
# the error after the frame's name; {payload} is the byte count after the header
PPM_HEADER_DEFECTS = {
    "huge": (b"P6\n1000000 1000000\n255\n",
             "pixel payload holds {payload} bytes, a 1000000x1000000 image needs 3000000000000"),
    "negative": (b"P6\n-1 -1\n255\n", "PPM width and height must be positive integers, got -1 -1"),
    "zero-width": (b"P6\n0 4\n255\n", "PPM width and height must be positive integers, got 0 4"),
    "non-integer": (b"P6\n32 3e1\n255\n", "PPM width and height must be positive integers, got 32 3e1"),
    "maxval": (b"P6\n32 32\n65535\n", "unsupported maxval 65535"),
    "no-header": (b"P6\n32 32", "truncated PPM header"),
}


class TestFifoSceneFile:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("victim", ["frame", "gt"])
    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_fifo_rejected(self, two_videos, tmp_path, command, victim):
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        entry = load_manifest(data)["scenes"][0]
        path = data / (entry["frames"] if victim == "frame" else entry["gt"])
        path.unlink()
        os.mkfifo(path)  # opening it for reading would wait for a writer
        out = ["--out", tmp_path / "p.json"] if command == "infer" else ["--ckpt-out", tmp_path / "t.ckpt", "--steps", 1]
        proc = run_module(command, "--data", data, "--model-dim", 16, *out, timeout=60)
        assert proc.returncode == 1
        assert one_json_error_line(proc.stderr) == f"{path}: no readable regular file"


class TestFifoInput:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("victim", ["manifest", "ckpt", "pred", "gt-array"])
    def test_fifo_rejected(self, two_videos, tmp_path, victim):
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        pred = tmp_path / "pred.json"
        pred.write_text("[]")
        fifo = data / "manifest.json" if victim == "manifest" else tmp_path / "fifo"
        fifo.unlink(missing_ok=True)
        os.mkfifo(fifo)  # opening it for reading would wait for a writer
        argv = {
            "manifest": ["infer", "--data", data, "--out", tmp_path / "p.json"],
            "ckpt": ["infer", "--data", data, "--ckpt", fifo, "--out", tmp_path / "p.json"],
            "pred": ["eval", "--gt", data, "--pred", fifo],
            "gt-array": ["eval", "--gt", fifo, "--pred", pred],
        }[victim]
        proc = run_module(*argv, timeout=60)
        assert proc.returncode == 1
        assert one_json_error_line(proc.stderr) == f"{fifo}: no readable regular file"


class TestFifoOutput:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("command, victim", [
        ("gen", "run_config.json"), ("gen", "manifest.json"),
        ("gen", "scenes/scene_0000/frames.ppm"), ("gen", "scenes/scene_0000/query.ppm"),
        ("gen", "scenes/scene_0000/gt.json"),
        ("infer", "p.json"), ("infer", "p.json.config.json"),
        ("train", "t.ckpt"), ("train", "t.ckpt.config.json"), ("train", "curve.csv"),
        ("eval", "r.json"), ("eval", "r.csv"), ("eval", "r.json.config.json"),
        ("stats", "s.json"), ("stats", "s.json.config.json"),
    ])
    def test_fifo_rejected(self, two_videos, tmp_path, command, victim):
        out = tmp_path / "out"
        (out / victim).parent.mkdir(parents=True)
        os.mkfifo(out / victim)  # opening it for writing would wait for a reader
        pred = tmp_path / "pred.json"  # the ground truth itself
        pred.write_text(json.dumps([json.loads((two_videos / entry["gt"]).read_text())
                                    for entry in load_manifest(two_videos)["scenes"]]))
        argv = {
            "gen": ["gen", "--scenes", 1, "--frames", "4:4", "--frame-sizes", "16x16", "--out", out],
            "infer": ["infer", "--data", two_videos, "--model-dim", 16, "--out", out / "p.json"],
            "train": ["train", "--data", two_videos, "--model-dim", 16, "--steps", 1,
                      "--ckpt-out", out / "t.ckpt", "--curve-out", out / "curve.csv"],
            "eval": ["eval", "--gt", two_videos, "--pred", pred, "--out", out / "r.json"],
            "stats": ["stats", "--data", two_videos, "--out", out / "s.json"],
        }[command]
        proc = run_module(*argv, timeout=60)
        assert proc.returncode == 1
        assert one_json_error_line(proc.stderr) == f"{out / victim}: no writable regular file"


class TestScorePreflight:
    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_oversized_attention_rejected(self, two_videos, tmp_path, capsys, monkeypatch, command):
        # two_videos: 8 frames of 32x32, so 8 clip frames of 8x8 patches at --patch-size 4
        needed = 2 * 8 * (8 * 8 * 8) ** 2
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", needed - 1)
        out = ["--out", tmp_path / "p.json"] if command == "infer" else ["--ckpt-out", tmp_path / "t.ckpt", "--steps", 1]
        argv = [command, "--data", two_videos, "--model-dim", 16, "--patch-size", 4, "--clip-len", 8, *out]
        assert run_cli(*argv) == 1
        assert one_json_error_line(capsys.readouterr().err) == (
            f"attention over clips of 8 frames of 8x8 patches needs {needed} bytes of scores "
            f"for 2 heads, above the limit of {needed - 1}; use a larger --patch-size or a smaller --clip-len")
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", needed)
        assert run_cli(*argv) == 0
        capsys.readouterr()

    def test_oversized_memory_attention_rejected(self, two_videos, tmp_path, capsys, monkeypatch):
        # one head over one-frame clips of 8x8 patches: STT needs 8 * 64**2 bytes, while
        # memory attention over 1 + 2 targets + 1 distractor entries needs four times that
        needed = 4 * 8 * 64 * 64
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", needed - 1)
        argv = ["infer", "--data", two_videos, "--model-dim", 16, "--patch-size", 4, "--heads", 1,
                "--clip-len", 1, "--out", tmp_path / "p.json"]
        assert run_cli(*argv) == 1
        assert one_json_error_line(capsys.readouterr().err) == (
            f"memory attention over clips of 1 frames of 8x8 patches needs {needed} bytes of "
            f"scores for 1 heads of 4 memory entries, above the limit of {needed - 1}; use a larger "
            f"--patch-size or a smaller --clip-len")
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", needed)
        assert run_cli(*argv) == 0
        capsys.readouterr()

    def test_memory_attention_counts_every_head(self, two_videos, tmp_path, capsys, monkeypatch):
        # the one attention node holds every head's exp-scores at once: two heads over
        # 4 entries of one-frame clips of 8x8 patches need twice what one head does
        per_head = 4 * 8 * 64 * 64
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", per_head)
        argv = ["infer", "--data", two_videos, "--model-dim", 16, "--patch-size", 4, "--heads", 2,
                "--clip-len", 1, "--out", tmp_path / "p.json"]
        assert run_cli(*argv) == 1
        assert one_json_error_line(capsys.readouterr().err) == (
            f"memory attention over clips of 1 frames of 8x8 patches needs {2 * per_head} bytes of "
            f"scores for 2 heads of 4 memory entries, above the limit of {per_head}; use a larger "
            f"--patch-size or a smaller --clip-len")
        assert not (tmp_path / "p.json").exists()
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", 2 * per_head)
        assert run_cli(*argv) == 0
        capsys.readouterr()


class TestPpmHeader:
    @pytest.mark.parametrize("via", ["read_ppm", "validate", "infer"])
    @pytest.mark.parametrize("defect", sorted(PPM_HEADER_DEFECTS))
    def test_bad_header_names_the_frame(self, two_videos, tmp_path, capsys, via, defect):
        header, message = PPM_HEADER_DEFECTS[defect]
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        entry = load_manifest(data)["scenes"][0]
        frame = data / entry["frames"]
        payload = frame.read_bytes()[len(b"P6\n32 32\n255\n"):]  # frame 0's, then the other frames
        frame.write_bytes(header + (b"" if defect == "no-header" else payload))
        error = f"frame 0 of {frame}: {message.format(payload=len(payload))}"
        if via == "read_ppm":
            tracemalloc.start()
            try:
                with pytest.raises(ValueError) as exc:
                    read_ppm(frame, entry["num_frames"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(exc.value) == error
            assert peak < 64 * len(payload)  # the header's size is never allocated
        elif via == "validate":
            assert run_cli("validate", "--data", data) == 1
            assert capsys.readouterr().out.splitlines() == [
                "violation: manifest: digest does not match dataset content",
                f"violation: scene_0000: {error}",
                f"2 violation(s) in {data}",
            ]
        else:
            assert run_cli("infer", "--data", data, "--out", tmp_path / "p.json") == 1
            assert one_json_error_line(capsys.readouterr().err) == f"invalid input: {error}"


QUERY_MASK_DEFECTS = {
    "int": (lambda gt: {**gt, "query_mask": 5}, "query_mask must be a string of runs, got 5"),
    "list": (lambda gt: {**gt, "query_mask": [1023, 1]}, "query_mask must be a string of runs, got [1023, 1]"),
    "missing": (lambda gt: {k: v for k, v in gt.items() if k != "query_mask"}, "missing query_mask"),
}


class TestQueryMaskField:
    @pytest.mark.parametrize("command", ["validate", "infer", "stats", "train", "eval"])
    @pytest.mark.parametrize("defect", sorted(QUERY_MASK_DEFECTS))
    def test_bad_query_mask_is_one_error(self, two_videos, tmp_path, capsys, command, defect):
        mangle, message = QUERY_MASK_DEFECTS[defect]
        data = tmp_path / "ds"
        shutil.copytree(two_videos, data)
        entry = load_manifest(data)["scenes"][0]
        gt_path = data / entry["gt"]
        gt_path.write_text(json.dumps(mangle(json.loads(gt_path.read_text()))))
        pred_path = tmp_path / "pred.json"
        pred_path.write_text("[]")
        argv = {
            "validate": ["validate", "--data", data],
            "infer": ["infer", "--data", data, "--out", tmp_path / "p.json"],
            "stats": ["stats", "--data", data],
            "train": ["train", "--data", data, "--ckpt-out", tmp_path / "t.ckpt"],
            "eval": ["eval", "--gt", data, "--pred", pred_path],
        }[command]
        assert run_cli(*argv) == 1
        out = capsys.readouterr()
        if command == "validate":
            assert out.out.splitlines() == [
                "violation: manifest: digest does not match dataset content",
                f"violation: {entry['id']}: bad query mask ({message})",
                f"2 violation(s) in {data}",
            ]
        else:
            assert one_json_error_line(out.err) == message
        assert not (tmp_path / "p.json").exists() and not (tmp_path / "t.ckpt").exists()


class TestCheckpointFit:
    def run_infer(self, data, tmp_path, store):
        ckpt = tmp_path / "c.ckpt"
        save_params(store, str(ckpt))
        code = run_cli("infer", "--data", data, "--out", tmp_path / "p.json", "--ckpt", ckpt)
        assert not (tmp_path / "p.json").exists()
        return code, ckpt

    def test_extra_parameter_named(self, two_videos, tmp_path, capsys):
        params = dict(init_params(PipelineConfig()).params)
        params["extra.w"] = Tensor(np.zeros(2), name="extra.w")
        code, ckpt = self.run_infer(two_videos, tmp_path, ParamStore(params))
        assert code == 1
        assert one_json_error_line(capsys.readouterr().err) == \
            f"{ckpt}: checkpoint parameter 'extra.w' has shape (2,); the model has no such parameter"

    def test_missing_parameter_named(self, two_videos, tmp_path, capsys):
        params = dict(init_params(PipelineConfig()).params)
        del params["dec_mask.w"]
        code, ckpt = self.run_infer(two_videos, tmp_path, ParamStore(params))
        assert code == 1
        assert one_json_error_line(capsys.readouterr().err) == \
            f"{ckpt}: checkpoint parameter 'dec_mask.w' is missing; the model expects shape (32, 3)"

    def test_model_dim_mismatch_named(self, two_videos, tmp_path, capsys):
        code, ckpt = self.run_infer(two_videos, tmp_path, init_params(PipelineConfig(model_dim=16)))
        assert code == 1
        assert one_json_error_line(capsys.readouterr().err) == \
            f"{ckpt}: checkpoint parameter 'amg_distractor.b1' has shape (16,); the model expects shape (32,)"


class TestInferReadsOnce:
    def test_each_scene_file_read_once(self, two_videos, monkeypatch):
        """`infer` reads a scene through the loader `train` uses, each file once."""
        root = two_videos.resolve()
        entry = load_manifest(two_videos)["scenes"][0]
        cfg = PipelineConfig(model_dim=16)
        opened, loads = [], []
        real_load = cli.load_scene_record

        def counting(real_open):
            def counting_open(path, *args, **kwargs):
                opened.append(Path(path).resolve())
                return real_open(path, *args, **kwargs)

            return counting_open

        def counting_load(*args):
            loads.append(args)
            return real_load(*args)

        monkeypatch.setattr(cli, "load_scene_record", counting_load)
        # files are opened through open() or, where a FIFO must not block, os.open()
        monkeypatch.setattr("builtins.open", counting(open))
        monkeypatch.setattr(os, "open", counting(os.open))
        record = cli._infer_one((str(two_videos), entry, asdict(cfg), init_params(cfg).copy_values()))
        monkeypatch.undo()
        assert record["video_id"] == entry["id"]
        assert loads == [(str(two_videos), entry)]
        expected = sorted(root / rel for rel in (entry["frames"], entry["query"], entry["gt"]))
        assert sorted(opened) == expected


class TestCheckpointReadOnce:
    def test_one_read_per_run(self, two_videos, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "c.ckpt"
        save_params(init_params(PipelineConfig(model_dim=16)), str(ckpt))
        reads = []

        def counting_load(path):
            reads.append(path)
            return load_params(path)

        monkeypatch.setattr(cli, "load_params", counting_load)
        assert run_cli("infer", "--data", two_videos, "--out", tmp_path / "p.json",
                       "--ckpt", ckpt, "--model-dim", 16, "--jobs", 1) == 0
        capsys.readouterr()
        assert reads == [str(ckpt)]

    def test_bad_checkpoint_fails_before_workers(self, two_videos, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"not a checkpoint")
        monkeypatch.setattr(cli, "parallel_map", lambda *args: pytest.fail("workers started"))
        assert run_cli("infer", "--data", two_videos, "--out", tmp_path / "p.json",
                       "--ckpt", ckpt, "--jobs", 2) == 1
        assert "truncated" in one_json_error_line(capsys.readouterr().err)


real_infer_one = cli._infer_one
head_reports = None  # the file `_infer_one_reporting_heads` appends to; forked workers inherit it


def _infer_one_reporting_heads(work):
    """`cli._infer_one`, appending its process id and head thread count to `head_reports`."""
    record = real_infer_one(work)
    with open(head_reports, "a") as fh:
        fh.write(json.dumps({"pid": os.getpid(), "width": parallel.thread_count(2)}) + "\n")
    return record


def _blas_threads():
    get_threads = parallel._openblas_function("get")
    if get_threads is None:
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    return get_threads()


class TestThreadMap:
    @pytest.fixture(autouse=True)
    def two_cpus(self):
        if parallel.available_cpus() < 2:
            pytest.skip("needs 2 CPUs")

    def test_order_kept_over_every_thread(self):
        def work(i):
            time.sleep(0.05)  # releases the interpreter lock, so every thread takes items
            return i, threading.get_ident()

        results = parallel.thread_map(work, range(7))
        assert [i for i, _ in results] == list(range(7))
        assert len({ident for _, ident in results}) == parallel.thread_count(7)

    def test_caller_context_holds_on_every_thread(self):
        with np.errstate(over="raise"), ad.no_record():
            seen = parallel.thread_map(lambda _: (np.geterr()["over"], ad._recording.get()), range(4))
        assert seen == [("raise", False)] * 4

    @pytest.mark.parametrize("failing", [0, 3])
    def test_error_raised_after_every_other_item(self, failing):
        finished = []

        def work(i):
            if i == failing:
                raise KeyError(i)
            finished.append(i)

        with pytest.raises(KeyError):
            parallel.thread_map(work, range(4))
        assert sorted(finished) == [i for i in range(4) if i != failing]

    def test_blas_pinned_to_one_thread(self):
        parallel.thread_map(abs, [-1, -2])
        if _blas_threads() is None:
            pytest.skip("needs a loaded OpenBLAS")
        assert _blas_threads() == 1


class RecordingPool:
    """A stand-in for `ProcessPoolExecutor` that records how it was started
    in `started` and runs its map in the calling process."""

    started: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.started.append((max_workers, initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


# Run in a fresh interpreter, so that no earlier test has pinned its BLAS:
# `infer --jobs 2`, each worker appending its process id, OS thread count and
# BLAS thread count to a file once its video is done, then the parent's.
WORKER_THREADS_SCRIPT = """
import ctypes, json, os, sys
from vqs import cli, parallel

data, out, reports = sys.argv[1:]
real_infer_one = cli._infer_one

def report(fh):
    tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    get_threads = parallel._openblas_function("get")
    if get_threads is not None:
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    blas = None if get_threads is None else get_threads()
    fh.write(json.dumps({"pid": os.getpid(), "tasks": tasks, "blas": blas}) + "\\n")

def reporting_infer_one(work):
    record = real_infer_one(work)
    with open(reports, "a") as fh:
        report(fh)
    return record

cli._infer_one = reporting_infer_one
code = cli.dispatch(["infer", "--data", data, "--out", out, "--model-dim", "16", "--jobs", "2"])
report(sys.stdout)
sys.exit(code)
"""


@pytest.fixture(scope="module")
def worker_threads(two_videos, tmp_path_factory):
    """What WORKER_THREADS_SCRIPT reports: the parent's record and the workers'."""
    if parallel.available_cpus() < 2:
        pytest.skip("needs 2 CPUs")
    tmp = tmp_path_factory.mktemp("worker-threads")
    proc = run_python("-c", WORKER_THREADS_SCRIPT, two_videos, tmp / "p.json", tmp / "reports.jsonl",
                      timeout=120)
    assert proc.returncode == 0, proc.stderr
    parent = json.loads(proc.stdout.strip().splitlines()[-1])
    workers = [json.loads(line) for line in (tmp / "reports.jsonl").read_text().splitlines()]
    assert len(workers) == 2 and parent["pid"] not in {w["pid"] for w in workers}
    return parent, workers


def _threaded_item(_item):
    """A worker's head threads for two items, and its OS threads after running them."""
    parallel.thread_map(lambda _: time.sleep(0.01), range(2))
    return parallel.thread_count(2), len(os.listdir("/proc/self/task"))


class TestWorkerCount:
    def test_clamped_to_work_and_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
        assert parallel.worker_count(1, 10) == 1
        assert parallel.worker_count(3, 10) == 3
        assert parallel.worker_count(10_000, 10) == 4
        assert parallel.worker_count(10_000, 2) == 2
        assert parallel.worker_count(5, 0) == 1

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError):
            parallel.worker_count(jobs, 10)

    def test_parallel_map_starts_clamped_pool(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "started", [])
        monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        assert parallel.parallel_map(abs, [-1, -2, -3, -4, -5], jobs=10_000) == [1, 2, 3, 4, 5]
        assert parallel.parallel_map(abs, [-7], jobs=10_000) == [7]
        assert RecordingPool.started == [(3, parallel._take_thread_share, (1,))]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_workers_times_threads_within_cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        for jobs in range(1, 7):
            for items in range(1, 7):
                monkeypatch.setattr(RecordingPool, "started", [])
                assert parallel.parallel_map(abs, range(-items, 0), jobs) == list(range(items, 0, -1))
                if RecordingPool.started:
                    [(workers, initializer, (threads,))] = RecordingPool.started
                    assert initializer is parallel._take_thread_share and workers > 1
                else:
                    workers, threads = 1, parallel.thread_count(items)
                assert 1 <= threads and workers * threads <= cpus
                if cpus == 2 and jobs == 2 and items >= 2:
                    assert (workers, threads) == (2, 1)

    def test_worker_keeps_its_share(self, monkeypatch):
        monkeypatch.setattr(parallel, "_thread_share", None)
        for share in (1, 2):
            parallel._take_thread_share(share)
            assert parallel.thread_count(8) == share
            assert parallel.worker_count(8, 8) == share

    @pytest.mark.skipif(not (os.path.isdir("/proc/self/task") and hasattr(os, "sched_getaffinity")),
                        reason="needs /proc/self/task and CPU affinity")
    def test_worker_share_of_two_starts_no_blas_thread(self, monkeypatch):
        # four CPUs seen, two workers: each runs its heads on two threads, the
        # calling one and one pool thread, and no OpenBLAS thread besides
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert parallel.parallel_map(_threaded_item, range(2), jobs=2) == [(2, 2), (2, 2)]

    def test_workers_run_one_blas_thread(self, worker_threads):
        parent, workers = worker_threads
        if parent["blas"] is None:
            pytest.skip("needs a loaded OpenBLAS")
        # the parent pins its BLAS before it forks, and the workers inherit the pin
        assert [w["blas"] for w in workers] == [1, 1]
        assert parent["blas"] == 1

    def test_workers_run_one_os_thread(self, worker_threads):
        _, workers = worker_threads
        if workers[0]["tasks"] is None:
            pytest.skip("needs /proc/self/task")
        assert [w["tasks"] for w in workers] == [1, 1]

    def test_blas_pin_silent_without_maps(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "_MAPS", str(tmp_path / "missing-maps"))
        assert parallel._openblas_function("set") is None
        parallel.pin_one_blas_thread.__wrapped__()

    def test_blas_pin_silent_without_symbol(self, tmp_path, monkeypatch):
        try:
            with open("/proc/self/maps") as fh:
                libc = next(line.split()[-1] for line in fh if "/libc.so" in line or "/libc-" in line)
        except (OSError, StopIteration):
            pytest.skip("needs /proc/self/maps listing libc")
        stub = tmp_path / "libopenblas_stub.so"
        stub.symlink_to(libc)
        fake_maps = tmp_path / "maps"
        fake_maps.write_text(
            "7f0000000000-7f0000001000 rw-p 00000000 00:00 0\n"
            f"7f0000001000-7f0000002000 r-xp 00000000 00:00 0 {tmp_path / 'libopenblas_gone.so'}\n"
            f"7f0000002000-7f0000003000 r-xp 00000000 00:00 0 {stub}\n"
        )
        monkeypatch.setattr(parallel, "_MAPS", str(fake_maps))
        assert parallel._openblas_function("set") is None
        parallel.pin_one_blas_thread.__wrapped__()
