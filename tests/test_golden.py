"""Golden digests: byte-level behaviour contract for refactors.

Each digest is the sha256 of an artifact produced from fixed seeds. A change
that moves one must re-pin it and say why the bytes had to move.
"""

import hashlib

import pytest

from vqs.cli import dispatch
from vqs.pipeline import PipelineConfig
from vqs.synth import SceneConfig, generate_scene
from vqs.training import TrainConfig, overfit_train, write_curve_csv

PREDICTIONS_DEFAULT = "a34286b22aaef94ca092c0c1f17a6e4da1ac4bdeac7190e9b2bccc4086747f18"
PREDICTIONS_SEED5_TAU_S = "1017c3e86803ce107ceec2e36d7ae638a80e71859ba7494cc28d36ae076ed4d4"
OVERFIT_CURVE_5_STEPS = "3c46e4ca54f388935eb40bd34912e41756486359604ca181c83f36224369a72d"


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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


def test_overfit_curve_digest(tmp_path):
    # acceptance criterion 8's scene and configs, cut to five steps
    scene = generate_scene(SceneConfig(
        frame_size=(48, 48), num_frames=16, num_occurrences=2, distractor_count=1,
        target_shape="rectangle", appearance_drift=0.15, target_scale=0.38, seed=21,
    ), video_id="overfit")
    cfg = PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=16,
                         num_heads=2, stage_weights=(0.5, 1.0), seed=3)
    _, curve = overfit_train(scene, cfg, TrainConfig(steps=5, lr=1e-2, weight_decay=0.0, seed=3))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, str(path))
    assert sha256_file(path) == OVERFIT_CURVE_5_STEPS
