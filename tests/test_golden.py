"""Golden digests: byte-level behaviour contract for refactors.

Each digest is the sha256 of an artifact produced from fixed seeds. A change
that moves one must re-pin it and say why the bytes had to move.
"""

import hashlib
import json

import pytest

from vqs.cli import dispatch
from vqs.optim import save_params
from vqs.pipeline import PipelineConfig
from vqs.synth import SceneConfig, generate_scene
from vqs.training import TrainConfig, overfit_train, write_curve_csv

PREDICTIONS_DEFAULT = "a34286b22aaef94ca092c0c1f17a6e4da1ac4bdeac7190e9b2bccc4086747f18"
PREDICTIONS_SEED5_TAU_S = "1017c3e86803ce107ceec2e36d7ae638a80e71859ba7494cc28d36ae076ed4d4"
OVERFIT_CURVE_5_STEPS = "3c46e4ca54f388935eb40bd34912e41756486359604ca181c83f36224369a72d"
OVERFIT_CHECKPOINT_5_STEPS = "650f4b6d65f2de6ce49beb5a4be9ae095b65b07d74c4c133121157a7b6fc7505"
EVAL_REPORT_JSON = "310e45251320efc3612b7c0328603387951767895219c10102be8128cd1dd71d"
EVAL_REPORT_CSV = "22feea1aa11b6f14f8c6a4533ae763a242e4a56c649fb31b807297d47b921d69"
# manifest digests of two gens, pinned before shapes were rendered a track at a time
GEN_SEED2_72_FRAMES = "d6a90a19c51ea65b622f153516483c199eb32564461b563c076dc6bcfedaf39b"
GEN_SEED2_MIXED = "30379ddd7040c53489d2515c7bcd91fbf7a2ae8738189e1516f52e71eb6b14bf"
# `stats --out` of the same two datasets, pinned before masks held their runs as arrays
STATS_SEED2_72_FRAMES = "2e1cef133a68751f6400120dc1e640dbdcfe4138d3a971d8d54d2db038d25343"
STATS_SEED2_MIXED = "c5f3d94f6e3d4c4add6e782a84250496c121a6daa2919fd7611c5874d8037a63"
GENS = {
    "72-frames": (("--frames", "72:72"), GEN_SEED2_72_FRAMES, STATS_SEED2_72_FRAMES),
    "mixed": (("--frame-sizes", "32x48,64x64,17x33", "--frames", "5:40", "--drift", "0:1", "--scale", "0.02:0.49"),
              GEN_SEED2_MIXED, STATS_SEED2_MIXED),
}


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GENS))
def generated(request, tmp_path_factory):
    flags, manifest_digest, stats_digest = GENS[request.param]
    out = tmp_path_factory.mktemp(request.param) / "ds"
    assert dispatch(["gen", "--scenes", "20", "--seed", "2", "--out", str(out), *flags]) == 0
    return out, manifest_digest, stats_digest


def test_gen_manifest_digest(generated):
    out, expected, _ = generated
    assert json.loads((out / "manifest.json").read_text())["digest"] == expected


def test_stats_digest(generated, tmp_path, capsys):
    out, _, expected = generated
    assert dispatch(["stats", "--data", str(out), "--out", str(tmp_path / "stats.json")]) == 0
    capsys.readouterr()
    assert sha256_file(tmp_path / "stats.json") == expected


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "ds"
    assert dispatch(["gen", "--scenes", "2", "--seed", "13", "--out", str(out),
                     "--frames", "14:14"]) == 0
    return out


@pytest.mark.parametrize("flags, expected", [
    ((), PREDICTIONS_DEFAULT),
    (("--seed", "5", "--tau-s", "0.5"), PREDICTIONS_SEED5_TAU_S),
], ids=["default", "seed5-tau-s-0.5"])
def test_infer_predictions_digest(golden_dataset, tmp_path, capsys, flags, expected):
    preds = tmp_path / "preds.json"
    assert dispatch(["infer", "--data", str(golden_dataset), "--out", str(preds), *flags]) == 0
    capsys.readouterr()
    assert sha256_file(preds) == expected


def test_eval_report_digests(golden_dataset, tmp_path, capsys):
    # ground truth as predictions, with the second video's later occurrences
    # dropped, so the report holds scores other than 0 and 100
    manifest = json.loads((golden_dataset / "manifest.json").read_text())
    preds = [json.loads((golden_dataset / e["gt"]).read_text()) for e in manifest["scenes"]]
    preds[1]["occurrences"] = preds[1]["occurrences"][:1]
    pred_path = tmp_path / "preds.json"
    pred_path.write_text(json.dumps(preds))
    report = tmp_path / "report.json"
    assert dispatch(["eval", "--gt", str(golden_dataset), "--pred", str(pred_path),
                     "--out", str(report)]) == 0
    capsys.readouterr()
    assert sha256_file(report) == EVAL_REPORT_JSON
    assert sha256_file(report.with_suffix(".csv")) == EVAL_REPORT_CSV


@pytest.fixture(scope="module")
def overfit_run():
    # acceptance criterion 8's scene and configs, cut to five steps
    scene = generate_scene(SceneConfig(
        frame_size=(48, 48), num_frames=16, num_occurrences=2, distractor_count=1,
        target_shape="rectangle", appearance_drift=0.15, target_scale=0.38, seed=21,
    ), video_id="overfit")
    cfg = PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=16,
                         num_heads=2, stage_weights=(0.5, 1.0), seed=3)
    return overfit_train(scene, cfg, TrainConfig(steps=5, lr=1e-2, weight_decay=0.0, seed=3))


def test_overfit_curve_digest(overfit_run, tmp_path):
    _, curve = overfit_run
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    assert sha256_file(path) == OVERFIT_CURVE_5_STEPS


def test_overfit_checkpoint_digest(overfit_run, tmp_path):
    store, _ = overfit_run
    path = tmp_path / "overfit.ckpt"
    save_params(store, str(path))
    assert sha256_file(path) == OVERFIT_CHECKPOINT_5_STEPS
