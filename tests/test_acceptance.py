"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs.cli import dispatch
from vqs.masks import Masklet, ResponseSet, RleMask, group_into_masklets, rle_encode
from vqs.metrics import VideoEval, aggregate_metrics, evaluate_run, evaluate_video
from vqs.pipeline import (
    KIND_DISTRACTOR,
    KIND_QUERY_INIT,
    KIND_TARGET,
    MemoryBank,
    MemoryEntry,
    PipelineConfig,
    amg_fuse,
    amg_weights,
    clip_spans,
    dfg_select,
    infer_video,
    init_params,
    memory_attention,
    tfg_select,
)
from vqs.synth import SceneConfig, generate_scene
from vqs.training import GRAD_CHECK_BOUND, TrainConfig, gradient_check_report, overfit_train

from .helpers import block_mask, frame_of, make_candidate, perturb_response
from .oracles import brute_report
from .test_pipeline import oracle_dfg, oracle_tfg, selection_cfg


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


class TestCriterion1MetricOracle:
    def test_metric_oracle_equivalence_200_scenes(self):
        t0 = time.time()
        rng = np.random.default_rng(8881)
        gts, preds = {}, {}
        for i in range(200):
            side = int(rng.choice((24, 32, 48)))
            num_frames = int(rng.integers(8, 21))
            cfg = SceneConfig(
                frame_size=(side, side),
                num_frames=num_frames,
                num_occurrences=int(rng.integers(1, min(4, (num_frames + 1) // 2) + 1)),
                distractor_count=int(rng.integers(0, 3)),
                target_shape=str(rng.choice(("disk", "rectangle", "triangle"))),
                appearance_drift=float(rng.uniform(0.0, 0.6)),
                target_scale=float(rng.uniform(0.15, 0.35)),
                seed=int(rng.integers(0, 2**63)),
            )
            vid = f"v{i:03d}"
            scene = generate_scene(cfg, video_id=vid)
            gts[vid] = scene.gt
            preds[vid] = perturb_response(rng, scene.gt, num_frames)
        report = evaluate_run(gts, preds).as_dict(ndigits=12)
        expected = brute_report(gts, preds)
        worst = 0.0
        for key, val in expected["overall"].items():
            worst = max(worst, abs(report["overall"][key] - val))
        for subset, fields in expected["per_subset"].items():
            for key, val in fields.items():
                worst = max(worst, abs(report["per_subset"][subset][key] - val))
        counts_ok = report["video_counts"] == expected["video_counts"]
        elapsed = time.time() - t0
        verdict(
            1, "metric oracle equivalence", worst < 1e-9 and counts_ok and elapsed < 60,
            f"max |delta| {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2PerfectPredictor:
    def test_perfect_predictor_all_100(self):
        rng = np.random.default_rng(42)
        gts = {}
        for i in range(12):
            cfg = SceneConfig(
                frame_size=(32, 32), num_frames=int(rng.integers(6, 14)),
                num_occurrences=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**63)),
            )
            vid = f"v{i}"
            gts[vid] = generate_scene(cfg, video_id=vid).gt
        report = evaluate_run(gts, dict(gts)).as_dict()
        flat = dict(report["overall"])
        for scores in report["per_subset"].values():
            flat.update({f"sub_{k}": v for k, v in scores.items()})
        all_100 = all(v == 100.0 for v in flat.values())
        verdict(2, "perfect predictor sanity", all_100, f"fields {sorted(set(flat.values()))}")


class TestCriterion3ThresholdMonotonicity:
    def test_monotone_on_1000_random_eval_sets(self):
        rng = np.random.default_rng(333)
        ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            evals = [
                VideoEval(f"v{i}", float(rng.random()), float(rng.random()),
                          float(rng.random() * 100), bool(rng.random() < 0.5),
                          float(rng.random() * 1e5))
                for i in range(n)
            ]
            s = aggregate_metrics(evals).overall
            ok &= s.st_ap75 <= s.st_ap50 <= s.st_ap
            ok &= s.t_ap75 <= s.t_ap50 <= s.t_ap
        verdict(3, "threshold monotonicity", ok)


class TestCriterion4WorkedExample:
    def test_worked_st_and_t_iou(self):
        g = block_mask(4, 4, 0, 0, 2, 2)
        p = block_mask(4, 4, 0, 1, 2, 2)
        gt = ResponseSet("v", (Masklet(1, 2, (g, g)),))
        pred = ResponseSet("v", (Masklet(2, 3, (p, p)),))
        st = evaluate_video(gt, pred).st_iou
        tt = evaluate_video(gt, pred).t_iou
        ok = abs(st - 1 / 7) < 1e-12 and abs(tt - 1 / 3) < 1e-12
        verdict(4, "worked metric example", ok, f"stIoU {st:.12f}, tIoU {tt:.12f}")


class TestCriterion5SelectionOracles:
    def test_1000_random_selection_problems_each(self):
        rng = np.random.default_rng(5555)
        params_cache = {}
        ok = True
        empties_seen = 0
        for _ in range(1000):
            n_frames = int(rng.integers(1, 6))
            cfg = selection_cfg(
                num_targets=int(rng.integers(0, 4)),
                num_distractors=int(rng.integers(0, 3)),
                tau_target=float(rng.uniform(0.1, 0.95)),
                tau_divergence=float(rng.uniform(0.05, 0.95)),
                tau_score=float(rng.uniform(0.1, 0.95)),
            )
            key = id(type(cfg))
            if key not in params_cache:
                params_cache[key] = init_params(cfg)
            params = params_cache[key]
            frames = [
                frame_of([make_candidate(rng.normal(size=(4, 4)), float(rng.random()))
                          for _ in range(3)], index=fi)
                for fi in range(n_frames)
            ]
            feats = [ad.tensor(np.zeros((16, cfg.model_dim))) for _ in range(n_frames)]
            _, tprov = tfg_select(frames, feats, cfg, params)
            got_t = [(p.frame_index, p.candidate_index) for p in tprov]
            want_t = oracle_tfg(frames, cfg.tau_target, cfg.num_targets)
            _, dprov = dfg_select(frames, feats, cfg, params)
            got_d = [(p.frame_index, p.candidate_index) for p in dprov]
            want_d = oracle_dfg(frames, cfg.tau_divergence, cfg.tau_score,
                                cfg.num_distractors, (4, 4))
            ok &= got_t == want_t and got_d == want_d
            empties_seen += int(not want_t) + int(not want_d)
        verdict(5, "selection oracles", ok and empties_seen > 50,
                f"empty selections covered: {empties_seen}")


class TestCriterion6AmgContract:
    def test_simplex_two_slot_rule_and_exact_zero(self):
        rng = np.random.default_rng(66)
        ok = True
        for seed in range(20):
            cfg = PipelineConfig(patch_size=8, model_dim=16, num_heads=2, seed=seed)
            params = init_params(cfg)
            d = cfg.model_dim

            def entry(kind):
                return MemoryEntry(ad.tensor(rng.normal(size=(16, d))), kind, ad.tensor(1.0))

            init = entry(KIND_QUERY_INIT)
            with_d = amg_fuse(init, [entry(KIND_TARGET)], [entry(KIND_DISTRACTOR)], cfg, params)
            w3 = amg_weights(with_d)
            ok &= abs(sum(w3.values()) - 1.0) < 1e-9
            ok &= all(v >= 0 for v in w3.values())
            ok &= set(w3) == {KIND_QUERY_INIT, KIND_TARGET, KIND_DISTRACTOR}
            without_d = amg_fuse(init, [entry(KIND_TARGET)], [], cfg, params)
            w2 = amg_weights(without_d)
            ok &= set(w2) == {KIND_QUERY_INIT, KIND_TARGET}
            ok &= abs(sum(w2.values()) - 1.0) < 1e-9

            feats = ad.tensor(rng.normal(size=(16, d)))
            init_e = MemoryEntry(ad.tensor(rng.normal(size=(16, d))), KIND_QUERY_INIT, ad.tensor(1.0))
            dead = MemoryEntry(ad.tensor(rng.normal(size=(16, d))), KIND_DISTRACTOR, ad.tensor(0.0))
            base = memory_attention(feats, MemoryBank((init_e,)), cfg, params)
            gated = memory_attention(feats, MemoryBank((init_e, dead)), cfg, params)
            ok &= np.array_equal(base.value, gated.value)
        verdict(6, "adaptive memory fusion contract", ok)


class TestCriterion7GradientChecks:
    def test_all_primitives_and_composed_stage(self):
        t0 = time.time()
        report = gradient_check_report(coords_per_param=4, seed=0)
        elapsed = time.time() - t0
        worst_name = max(report, key=report.get)
        ok = all(v < GRAD_CHECK_BOUND for v in report.values()) and elapsed < 300
        verdict(7, "gradient checks", ok,
                f"{len(report)} checks, worst {worst_name}={report[worst_name]:.2e}, {elapsed:.1f}s")


class TestCriterion8Overfit:
    def test_single_scene_overfit(self):
        t0 = time.time()
        scene_cfg = SceneConfig(
            frame_size=(48, 48), num_frames=16, num_occurrences=2, distractor_count=1,
            target_shape="rectangle", appearance_drift=0.15, target_scale=0.38, seed=21,
        )
        scene = generate_scene(scene_cfg, video_id="overfit")
        cfg = PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=16,
                             num_heads=2, stage_weights=(0.5, 1.0), seed=3)
        tcfg = TrainConfig(steps=200, lr=1e-2, weight_decay=0.0, seed=3)
        store, curve = overfit_train(scene, cfg, tcfg)
        ratio = curve[-1].total / curve[0].total
        response, _ = infer_video(scene.frames, scene.query_frame, scene.query_mask,
                                  cfg, store, video_id="overfit")
        score = evaluate_video(scene.gt, response).st_iou
        elapsed = time.time() - t0
        ok = ratio <= 0.10 and score >= 0.8 and len(curve) <= 500 and elapsed < 600
        verdict(8, "overfit experiment", ok,
                f"loss ratio {ratio:.4f}, stIoU {score:.4f}, {len(curve)} steps, {elapsed:.0f}s")

    def test_loss_trend_first_50_steps(self):
        # weak monotone trend: mean of steps 41-50 below mean of steps 1-10
        scene_cfg = SceneConfig(
            frame_size=(32, 32), num_frames=8, num_occurrences=1, distractor_count=1,
            target_shape="rectangle", appearance_drift=0.2, target_scale=0.3, seed=4,
        )
        scene = generate_scene(scene_cfg, video_id="trend")
        cfg = PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=8,
                             num_heads=2, stage_weights=(0.5, 1.0), seed=2)
        _, curve = overfit_train(scene, cfg, TrainConfig(steps=50, lr=5e-3,
                                                         weight_decay=0.0, seed=2))
        head = np.mean([pt.total for pt in curve[:10]])
        tail = np.mean([pt.total for pt in curve[40:50]])
        assert tail < head


class TestCriterion9Determinism:
    def test_gen_infer_eval_byte_identical(self, tmp_path):
        def one_run(tag: str) -> tuple[bytes, bytes]:
            root = tmp_path / tag
            ds = root / "ds"
            preds = root / "preds.json"
            report = root / "report.json"
            root.mkdir()
            assert dispatch(["gen", "--scenes", "4", "--seed", "31", "--out", str(ds),
                             "--frames", "8:12", "--frame-sizes", "32x32",
                             "--occurrences", "1:2"]) == 0
            assert dispatch(["infer", "--data", str(ds), "--out", str(preds),
                             "--model-dim", "16", "--seed", "9"]) == 0
            assert dispatch(["eval", "--gt", str(ds), "--pred", str(preds),
                             "--out", str(report)]) == 0
            return preds.read_bytes(), report.read_bytes()

        preds_a, report_a = one_run("a")
        preds_b, report_b = one_run("b")
        ok = preds_a == preds_b and report_a == report_b
        verdict(9, "end-to-end determinism", ok,
                f"predictions {len(preds_a)} bytes, report {len(report_a)} bytes")


class TestCriterion10ClipsAndAssembly:
    def test_partition_and_grouping(self):
        partition_ok = clip_spans(15, 7) == [(0, 7), (7, 14), (14, 15)]
        rng = np.random.default_rng(10)
        full = RleMask(4, 4, (0, 16))
        grouping_ok = True
        for _ in range(500):
            n = int(rng.integers(1, 30))
            present = rng.random(n) < rng.random()
            seq = [full if p else None for p in present]
            occs = group_into_masklets(seq)
            # brute-force segment recovery
            segments, start = [], None
            for i, p in enumerate(present):
                if p and start is None:
                    start = i
                if not p and start is not None:
                    segments.append((start, i - 1))
                    start = None
            if start is not None:
                segments.append((start, n - 1))
            got = [(o.start_frame, o.end_frame) for o in occs]
            grouping_ok &= got == segments
            grouping_ok &= all(b[0] > a[1] for a, b in zip(got, got[1:]))
        verdict(10, "clip partition and response assembly", partition_ok and grouping_ok)


class TestCriterion11SubsetBucketing:
    def test_area_buckets(self):
        def video_with_block(vid: str, bh: int, bw: int) -> ResponseSet:
            mask = block_mask(300, 300, 0, 0, bh, bw)
            return ResponseSet(vid, (Masklet(0, 0, (mask,)),))

        gts = {
            "small": video_with_block("small", 10, 10),       # 100 px
            "medium": video_with_block("medium", 50, 100),    # 5,000 px
            "large": video_with_block("large", 200, 250),     # 50,000 px
        }
        report = evaluate_run(gts, dict(gts))
        ok = report.video_counts == {"Small": 1, "Medium": 1, "Large": 1}
        per_video = {vid: evaluate_video(gt, gt).mean_gt_area for vid, gt in gts.items()}
        ok &= per_video == {"small": 100.0, "medium": 5000.0, "large": 50000.0}
        verdict(11, "subset bucketing", ok, f"areas {per_video}")
