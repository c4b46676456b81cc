import gc
import warnings

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs import pipeline, training
from vqs.masks import RleMask, rle_encode
from vqs.pipeline import (
    PipelineConfig,
    init_params,
    mask_patch_counts,
    param_shapes,
)
from vqs.optim import seeded_init
from vqs.synth import SceneConfig, generate_scene
from vqs.training import (
    LossBreakdown,
    TrainConfig,
    TrainingDivergedError,
    frame_loss,
    gt_patch_counts,
    overfit_train,
    scene_losses,
    total_loss,
    write_curve_csv,
)

from .helpers import frame_of, gradcheck_with_noise_floor, make_candidate


CFG_1PX = PipelineConfig(patch_size=1, model_dim=4, num_heads=2, seed=0)


def counts_of(gt):
    return None if gt is None else mask_patch_counts(gt, CFG_1PX.patch_size)


class TestFrameLoss:
    def test_perfect_probabilities_zero_dice(self):
        # logits +-1000 saturate sigmoid to exact 0/1
        gt = rle_encode(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        logits = np.array([[1000.0, 1000.0], [-1000.0, -1000.0]])
        cands = [make_candidate(logits, 0.9), make_candidate(-logits, 0.2),
                 make_candidate(np.zeros((2, 2)), 0.5)]
        out = frame_loss(frame_of(cands), counts_of(gt), CFG_1PX)
        assert out.dice == 0.0
        assert out.mask_bce == 0.0

    def test_empty_gt_only_occlusion(self):
        cands = [make_candidate(np.ones((2, 2)), 0.9, occ=2.0) for _ in range(3)]
        out = frame_loss(frame_of(cands), None, CFG_1PX)
        assert out.dice == 0.0 and out.mask_bce == 0.0 and out.iou_head == 0.0
        assert out.occlusion_bce > 0.0
        assert out.total == pytest.approx(out.occlusion_bce)

    def test_half_foreground_uniform_probability(self):
        gt = rle_encode(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        # zero logits -> probability 0.5 everywhere; route to this candidate by
        # making the others empty-binarized (negative logits)
        cands = [make_candidate(np.zeros((2, 2)) , 0.5),
                 make_candidate(-np.ones((2, 2)), 0.4),
                 make_candidate(-np.ones((2, 2)), 0.3)]
        # candidate 0 binarizes to empty too (logits 0 -> not > 0): all tie at
        # IoU 0 against gt, lowest index routed
        out = frame_loss(frame_of(cands), counts_of(gt), CFG_1PX)
        assert out.dice == pytest.approx(0.5, abs=1e-12)

    def test_routing_picks_best_overlap(self):
        gt = rle_encode(np.array([[1, 0], [0, 0]], dtype=np.uint8))
        hit = -np.ones((2, 2)); hit[0, 0] = 5.0
        miss = -np.ones((2, 2)); miss[1, 1] = 5.0
        cands = [make_candidate(miss, 0.9), make_candidate(hit, 0.1),
                 make_candidate(-np.ones((2, 2)), 0.5)]
        out = frame_loss(frame_of(cands), counts_of(gt), CFG_1PX)
        # routed candidate is the hit (index 1): its iou_head = |0.1 - 1.0|
        assert out.iou_head == pytest.approx(0.9, abs=1e-12)

    def test_all_components_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gt_grid = (rng.random((2, 2)) < 0.5).astype(np.uint8)
            gt = rle_encode(gt_grid) if gt_grid.any() else None
            cands = [make_candidate(rng.normal(size=(2, 2)) * 3, float(rng.random()),
                                    occ=float(rng.normal())) for _ in range(3)]
            out = frame_loss(frame_of(cands), counts_of(gt), CFG_1PX)
            assert out.dice >= 0 and out.mask_bce >= 0
            assert out.iou_head >= 0 and out.occlusion_bce >= 0
            assert 0.0 <= out.dice <= 1.0
            assert out.total == pytest.approx(
                out.dice + out.mask_bce + out.iou_head + out.occlusion_bce, rel=1e-12
            )


def fake_loss(total):
    return LossBreakdown(dice=0.0, mask_bce=0.0, iou_head=0.0, occlusion_bce=0.0,
                         total=total, node=ad.tensor(total))


class TestTotalLoss:
    def test_zero_weights(self):
        node, agg = total_loss([[fake_loss(2.0)], [fake_loss(3.0)]], (0.0, 0.0))
        assert float(node.value) == 0.0 and agg["total"] == 0.0

    def test_single_stage_single_frame(self):
        node, _ = total_loss([[fake_loss(2.5)]], (0.5,))
        assert float(node.value) == pytest.approx(1.25)

    def test_worked_weighted_sum(self):
        stages = [[fake_loss(2.0)], [fake_loss(3.0)]]
        node, _ = total_loss(stages, (0.5, 1.0))
        assert float(node.value) == pytest.approx(4.0, abs=1e-12)

    def test_linear_in_gamma(self):
        rng = np.random.default_rng(1)
        stages = [[fake_loss(float(rng.random())) for _ in range(3)] for _ in range(2)]
        base, _ = total_loss(stages, (0.5, 1.0))
        doubled, _ = total_loss(stages, (1.0, 2.0))
        assert float(doubled.value) == pytest.approx(2 * float(base.value), rel=1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            total_loss([[fake_loss(1.0)]], (0.5, 1.0))


def tiny_scene(seed=3, num_frames=6, size=8):
    cfg = SceneConfig(
        frame_size=(size, size),
        num_frames=num_frames,
        num_occurrences=2,
        distractor_count=1,
        target_shape="rectangle",
        appearance_drift=0.2,
        target_scale=0.3,
        seed=seed,
    )
    return generate_scene(cfg)


def toy_pipeline(**kw):
    defaults = dict(
        num_stages=2,
        clip_len=4,
        patch_size=4,
        model_dim=8,
        num_heads=2,
        stage_weights=(0.5, 1.0),
        seed=0,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestComposedGradients:
    def test_two_stage_pipeline_grad_check(self):
        # thresholds lowered so stage 1 mines both target and distractor
        # memory, exercising the fusion weight head end to end
        scene = tiny_scene(seed=5)
        cfg = toy_pipeline(tau_target=0.3, tau_divergence=0.05, tau_score=0.2, seed=4)
        store = seeded_init(param_shapes(cfg), cfg.seed)
        per_stage = scene_losses(scene, cfg, store, gt_patch_counts(scene, cfg.patch_size))
        node, _ = total_loss(per_stage, cfg.stage_weights)
        # confirm the paths under test are actually active
        gt_frames = set(scene.gt.frame_masks())
        assert len(gt_frames) < len(scene.frames), "scene must contain empty frames"
        grads = ad.gradient_map(node, store.params)
        assert any(np.any(grads[k]) for k in grads if k.startswith("amg_head3")), (
            "fusion weight head received no gradient; selections were empty"
        )
        # fusion-path gradients sit near 1e-8 at init, below what h=1e-5
        # differences can certify relatively; absolute agreement at the noise
        # floor also passes
        failures = gradcheck_with_noise_floor(
            node, store.params, coords_per_param=3, seed=9
        )
        assert failures == []

    def test_grad_reaches_all_core_blocks(self):
        scene = tiny_scene(seed=2)
        cfg = toy_pipeline(seed=1)
        store = seeded_init(param_shapes(cfg), cfg.seed)
        per_stage = scene_losses(scene, cfg, store, gt_patch_counts(scene, cfg.patch_size))
        node, _ = total_loss(per_stage, cfg.stage_weights)
        grads = ad.gradient_map(node, store.params)
        for prefix in ("patch_embed", "mem_enc", "mem_attn", "stt_attn", "stt_mlp",
                       "dec_mask", "dec_score"):
            assert any(np.any(g) for name, g in grads.items() if name.startswith(prefix)), prefix


def test_step_builds_routed_candidate_nodes_only(monkeypatch):
    scene = tiny_scene(seed=5)
    cfg = toy_pipeline(seed=4)
    gt_counts = gt_patch_counts(scene, cfg.patch_size)
    asked = []  # (frame, candidate, method, what it built)
    decode = pipeline.decode_masks

    def spy(*args, **kwargs):
        frames = decode(*args, **kwargs)
        for fc in frames:
            for method in ("occlusion_node", "mask_nodes"):
                def build(h, fc=fc, method=method, real=getattr(fc, method)):
                    asked.append((fc, h, method, real(h)))
                    return asked[-1][3]

                setattr(fc, method, build)
        return frames

    monkeypatch.setattr(pipeline, "decode_masks", spy)
    node, _ = total_loss(scene_losses(scene, cfg, init_params(cfg), gt_counts), cfg.stage_weights)
    users: dict[int, int] = {}
    for n in ad.trace(node):
        for parent in n.parents:
            users[id(parent)] = users.get(id(parent), 0) + 1
    with_gt = len(gt_counts)
    assert 0 < with_gt < len(scene.frames)  # frames with and without gt both occur
    methods = [method for _, _, method, _ in asked]
    assert methods.count("occlusion_node") == cfg.num_stages * len(scene.frames)
    # a frame without gt trains only its occlusion head: it builds no mask-logit or IoU node
    assert [fc.frame_index in gt_counts for fc, _, method, _ in asked
            if method == "mask_nodes"] == [True] * (cfg.num_stages * with_gt)
    for fc, h, method, built in asked:
        counts = gt_counts.get(fc.frame_index)
        no_gt = np.zeros(fc.candidates[0].grid.shape, dtype=np.int64)
        assert h == training._routed_candidate(fc, no_gt if counts is None else counts, cfg.patch_size)[0]
        # the IoU or occlusion node feeds one loss term; the logits node both the dice sigmoid and the BCE
        mask_logits, scalar = built if method == "mask_nodes" else (None, built)
        assert users.get(id(scalar), 0) == 1
        if mask_logits is not None:
            assert users.get(id(mask_logits), 0) == 2


class TestTapeLifetime:
    def test_step_tape_needs_no_cycle_collector(self):
        scene = tiny_scene(seed=5)
        cfg = toy_pipeline(tau_target=0.3, tau_divergence=0.05, tau_score=0.2, seed=4)
        store = seeded_init(param_shapes(cfg), cfg.seed)
        gc.collect()
        gc.disable()
        try:
            per_stage = scene_losses(scene, cfg, store, gt_patch_counts(scene, cfg.patch_size))
            node, _ = total_loss(per_stage, cfg.stage_weights)
            grads = ad.gradient_map(node, store.params)
            del per_stage, node, grads
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOverfitTrain:
    def test_zero_lr_keeps_parameters(self):
        scene = tiny_scene()
        cfg = toy_pipeline()
        tcfg = TrainConfig(steps=3, lr=0.0, weight_decay=0.0, seed=8)
        store, curve = overfit_train(scene, cfg, tcfg)
        fresh = seeded_init(param_shapes(cfg), 8)
        for name in store.params:
            assert np.array_equal(store.params[name].value, fresh.params[name].value)
        totals = [pt.total for pt in curve]
        assert totals.count(totals[0]) == len(totals)

    def test_same_seed_same_curve(self):
        scene = tiny_scene()
        cfg = toy_pipeline()
        tcfg = TrainConfig(steps=3, lr=1e-3, seed=5)
        _, curve_a = overfit_train(scene, cfg, tcfg)
        _, curve_b = overfit_train(scene, cfg, tcfg)
        assert curve_a == curve_b

    def test_loss_decreases_early(self):
        scene = tiny_scene(seed=7)
        cfg = toy_pipeline(seed=3)
        tcfg = TrainConfig(steps=50, lr=5e-3, weight_decay=0.0, seed=3)
        _, curve = overfit_train(scene, cfg, tcfg)
        first = np.mean([pt.total for pt in curve[:10]])
        last = np.mean([pt.total for pt in curve[40:50]])
        assert last < first

    def test_divergence_aborts_with_step(self):
        scene = tiny_scene()
        cfg = toy_pipeline()
        # a step this large pushes parameters to ~1e160, so the next forward
        # pass overflows in the attention scores
        tcfg = TrainConfig(steps=50, lr=1e160, weight_decay=0.0, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDivergedError) as exc:
                overfit_train(scene, cfg, tcfg)
        assert exc.value.step >= 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_non_finite_parameter_aborts_at_that_step(self, monkeypatch):
        real_step = training.adamw_step

        def poisoned_step(store, grads, **kwargs):
            real_step(store, grads, **kwargs)
            if store.step_count == 2:
                store.params["stt_mlp.w1"].value[0, 0] = np.nan
            return store

        monkeypatch.setattr(training, "adamw_step", poisoned_step)
        with pytest.raises(TrainingDivergedError, match="stt_mlp.w1") as exc:
            overfit_train(tiny_scene(), toy_pipeline(), TrainConfig(steps=5, lr=1e-3, seed=0))
        assert exc.value.step == 2

    def test_gt_patch_counts_once_per_run(self, monkeypatch):
        calls = []
        real_counts = training.mask_patch_counts

        def counting(mask, patch_size):
            calls.append(mask)
            return real_counts(mask, patch_size)

        monkeypatch.setattr(training, "mask_patch_counts", counting)
        scene = tiny_scene()
        overfit_train(scene, toy_pipeline(), TrainConfig(steps=3, lr=1e-3, seed=0))
        non_empty = [m for m in scene.gt.frame_masks().values() if m.area() > 0]
        assert len(calls) == len(non_empty) > 0

    def test_curve_csv(self, tmp_path):
        scene = tiny_scene()
        cfg = toy_pipeline()
        _, curve = overfit_train(scene, cfg, TrainConfig(steps=2, lr=1e-4, seed=1))
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,total,dice,mask_bce,iou_head,occ_bce"
        assert len(lines) == 3
