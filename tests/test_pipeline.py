import gc
from dataclasses import asdict

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs import pipeline
from vqs.masks import RleMask, rle_encode, rle_decode
from vqs.pipeline import (
    KIND_DISTRACTOR,
    KIND_QUERY_INIT,
    KIND_TARGET,
    MemoryBank,
    MemoryEntry,
    PipelineConfig,
    PipelineConfigError,
    amg_fuse,
    amg_weights,
    binarize_candidate,
    clip_spans,
    config_digest,
    decode_masks,
    dfg_select,
    encode_frame,
    encode_memory,
    feature_grid,
    finalize_predictions,
    infer_video,
    init_params,
    mask_patch_counts,
    memory_attention,
    positional_encoding,
    run_clip,
    run_stage,
    stt_block,
    tfg_select,
)

from .helpers import assert_bytes_equal, frame_of, make_candidate

TOY = PipelineConfig(patch_size=8, model_dim=16, num_heads=2, seed=5)


def rand_frame(rng, h=64, w=64):
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.num_stages == 2 and cfg.clip_len == 7
        assert (cfg.tau_target, cfg.tau_divergence, cfg.tau_score) == (0.5, 0.5, 0.7)
        assert (cfg.num_targets, cfg.num_distractors) == (2, 1)
        assert cfg.stage_weights == (0.5, 1.0)

    def test_candidate_count_fixed(self):
        with pytest.raises(PipelineConfigError):
            PipelineConfig(num_candidates=4)

    def test_gamma_must_match_stages(self):
        with pytest.raises(PipelineConfigError):
            PipelineConfig(num_stages=3, stage_weights=(0.5, 1.0))

    def test_digest_deterministic(self):
        same = PipelineConfig(patch_size=8, model_dim=16, num_heads=2, seed=5)
        assert config_digest(asdict(TOY)) == config_digest(asdict(same))
        assert config_digest(asdict(TOY)) != config_digest(asdict(PipelineConfig()))


class TestEncodeFrame:
    def test_grid_shape(self):
        rng = np.random.default_rng(0)
        params = init_params(TOY)
        feats = encode_frame([rand_frame(rng)], TOY, params)
        assert feats.value.shape == (64, TOY.model_dim)
        assert feature_grid((64, 64), 8) == (8, 8)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        frame = rand_frame(rng)
        params = init_params(TOY)
        a = encode_frame([frame], TOY, params)
        b = encode_frame([frame], TOY, params)
        assert np.array_equal(a.value, b.value)

    def test_zero_frame_zero_projection_gives_positional_term(self):
        params = init_params(TOY)
        params["patch_embed.w"].value[:] = 0.0
        frame = np.zeros((64, 64, 3), dtype=np.uint8)
        feats = encode_frame([frame], TOY, params)
        assert np.array_equal(feats.value, positional_encoding(64, TOY.model_dim))

    def test_indivisible_frame_rejected(self):
        params = init_params(TOY)
        with pytest.raises(PipelineConfigError):
            encode_frame([np.zeros((60, 64, 3), dtype=np.uint8)], TOY, params)


class TestEncodeMemory:
    def test_full_mask_fraction_ones(self):
        fr = mask_patch_counts(RleMask(64, 64, (0, 4096)), 8) / 64
        assert np.array_equal(fr, np.ones((8, 8)))

    def test_empty_mask_fraction_zeros(self):
        fr = mask_patch_counts(RleMask.empty(64, 64), 8) / 64
        assert np.array_equal(fr, np.zeros((8, 8)))
        params = init_params(TOY)
        feats = encode_frame([np.zeros((64, 64, 3), dtype=np.uint8)], TOY, params)
        entry = encode_memory(feats, fr, params)
        assert entry.kind == KIND_QUERY_INIT
        assert entry.tokens.value.shape == (64, TOY.model_dim)

    def test_single_patch_one_hot(self):
        grid = np.zeros((64, 64), dtype=np.uint8)
        grid[8:16, 16:24] = 1  # exactly patch (1, 2)
        fr = mask_patch_counts(rle_encode(grid), 8) / 64
        expected = np.zeros((8, 8))
        expected[1, 2] = 1.0
        assert np.array_equal(fr, expected)


def zero_token_entry(n, d, kind=KIND_QUERY_INIT, scale=1.0):
    return MemoryEntry(tokens=ad.tensor(np.zeros((n, d))), kind=kind, scale=ad.tensor(scale))


class TestMemoryAttention:
    def test_residual_identity_with_zero_values(self):
        params = init_params(TOY)
        params["mem_attn.wv"].value[:] = 0.0
        feats = ad.tensor(np.random.default_rng(2).normal(size=(64, TOY.model_dim)))
        bank = MemoryBank((zero_token_entry(64, TOY.model_dim),))
        out = memory_attention(feats, bank, TOY, params)
        assert np.array_equal(out.value, feats.value)

    def test_halved_duplicate_equals_single(self):
        rng = np.random.default_rng(3)
        params = init_params(TOY)
        feats = ad.tensor(rng.normal(size=(64, TOY.model_dim)))
        tokens = rng.normal(size=(64, TOY.model_dim))
        single = MemoryBank((
            MemoryEntry(ad.tensor(tokens), KIND_QUERY_INIT, ad.tensor(1.0)),
        ))
        halved = MemoryBank((
            MemoryEntry(ad.tensor(tokens), KIND_QUERY_INIT, ad.tensor(0.5)),
            MemoryEntry(ad.tensor(tokens), KIND_TARGET, ad.tensor(0.5)),
        ))
        a = memory_attention(feats, single, TOY, params)
        b = memory_attention(feats, halved, TOY, params)
        assert np.array_equal(a.value, b.value)

    def test_zero_scaled_distractor_changes_nothing(self):
        rng = np.random.default_rng(4)
        params = init_params(TOY)
        feats = ad.tensor(rng.normal(size=(64, TOY.model_dim)))
        init = MemoryEntry(ad.tensor(rng.normal(size=(64, TOY.model_dim))), KIND_QUERY_INIT, ad.tensor(1.0))
        distractor = MemoryEntry(
            ad.tensor(rng.normal(size=(64, TOY.model_dim))), KIND_DISTRACTOR, ad.tensor(0.0)
        )
        without = memory_attention(feats, MemoryBank((init,)), TOY, params)
        with_zero = memory_attention(feats, MemoryBank((init, distractor)), TOY, params)
        assert np.array_equal(without.value, with_zero.value)

    def test_scale_gradient_flows(self):
        rng = np.random.default_rng(5)
        params = init_params(TOY)
        feats = ad.tensor(rng.normal(size=(16, TOY.model_dim)))
        scale = ad.tensor(0.7, name="scale")
        init = MemoryEntry(ad.tensor(rng.normal(size=(16, TOY.model_dim))), KIND_QUERY_INIT, ad.tensor(1.0))
        tgt = MemoryEntry(ad.tensor(rng.normal(size=(16, TOY.model_dim))), KIND_TARGET, scale)
        out = memory_attention(feats, MemoryBank((init, tgt)), TOY, params)
        loss = ad.mean_all(ad.multiply(out, out))
        err = ad.grad_check(loss, [scale], max_coords_per_param=1)
        assert err < 1e-6


class TestSttBlock:
    def test_zeroed_output_projections_identity(self):
        params = init_params(TOY)
        params["stt_attn.wo"].value[:] = 0.0
        params["stt_mlp.w2"].value[:] = 0.0
        x = ad.tensor(np.random.default_rng(6).normal(size=(64, TOY.model_dim)))
        (out,) = stt_block([x], TOY, params)
        assert np.array_equal(out.value, x.value)

    def test_shape_preserved(self):
        params = init_params(TOY)
        rng = np.random.default_rng(7)
        clip = [ad.tensor(rng.normal(size=(64, TOY.model_dim))) for _ in range(3)]
        outs = stt_block(clip, TOY, params)
        assert [o.value.shape for o in outs] == [(64, TOY.model_dim)] * 3

    def test_frame_permutation_equivariance(self):
        params = init_params(TOY)
        rng = np.random.default_rng(8)
        clip = [ad.tensor(rng.normal(size=(16, TOY.model_dim))) for _ in range(4)]
        outs = stt_block(clip, TOY, params)
        perm = [2, 0, 3, 1]
        permuted_outs = stt_block([clip[i] for i in perm], TOY, params)
        for slot, src in enumerate(perm):
            assert np.allclose(permuted_outs[slot].value, outs[src].value, atol=1e-10)


class TestDecodeMasks:
    def test_exactly_three_candidates(self):
        params = init_params(TOY)
        feats = ad.tensor(np.random.default_rng(9).normal(size=(64, TOY.model_dim)))
        (frame,) = decode_masks(feats, (8, 8), TOY, params)
        assert len(frame.candidates) == 3

    def test_iou_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            cfg = PipelineConfig(patch_size=8, model_dim=16, num_heads=2, seed=seed)
            params = init_params(cfg)
            feats = ad.tensor(rng.normal(size=(64, cfg.model_dim)) * 5)
            (frame,) = decode_masks(feats, (8, 8), cfg, params)
            for cand in frame.candidates:
                assert 0.0 <= cand.iou <= 1.0
                assert cand.logits.shape == (8, 8)

    def test_deterministic(self):
        params = init_params(TOY)
        feats_value = np.random.default_rng(11).normal(size=(64, TOY.model_dim))
        (a,) = decode_masks(ad.tensor(feats_value), (8, 8), TOY, params)
        (b,) = decode_masks(ad.tensor(feats_value), (8, 8), TOY, params)
        for ca, cb in zip(a.candidates, b.candidates):
            assert np.array_equal(ca.logits, cb.logits)
            assert ca.iou == cb.iou and ca.occlusion == cb.occlusion


    def test_non_finite_output_rejected(self):
        params = init_params(TOY)
        params["dec_score.b2"].value[3] = np.inf
        feats = ad.tensor(np.random.default_rng(8).normal(size=(64, TOY.model_dim)))
        with pytest.raises(ad.NonFiniteValueError, match="frame 4"):
            decode_masks(feats, (8, 8), TOY, params, frame_index=4)

    def test_non_finite_block_names_its_first_bad_frame(self):
        params = init_params(TOY)
        feats = np.random.default_rng(8).normal(size=(5 * 64, TOY.model_dim))
        feats[3 * 64 + 10, 0] = np.inf
        feats[4 * 64, 1] = np.nan
        with pytest.raises(ad.NonFiniteValueError, match="for frame 9$"):
            decode_masks(ad.tensor(feats), (8, 8), TOY, params, frame_index=6)


# config, frame side, clip frames: 64 tokens a frame on TOY, 144 at patch 4, and
# patch 16, whose patch embedding has an inner dimension of 768; clip tails of 1 and 2
BLOCK_CASES = {
    "toy": (TOY, 64, 7),
    "144-tokens": (PipelineConfig(patch_size=4, model_dim=16, num_heads=2, seed=2), 48, 7),
    "patch-16": (PipelineConfig(patch_size=16, seed=3), 128, 7),
    "tail-1": (TOY, 64, 1),
    "tail-2": (TOY, 64, 2),
}


def clip_and_frame_blocks(cfg, side, num_frames, seed):
    """One clip's encoding, memory attention and candidates under no_record, as
    one clip block and as one-frame blocks: ({layer: (clip, frames)}, clip
    candidates, frame candidates)."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg)
    frames = [rand_frame(rng, side, side) for _ in range(num_frames)]
    grid_hw = feature_grid((side, side), cfg.patch_size)
    with ad.no_record():
        query = encode_frame([rand_frame(rng, side, side)], cfg, params)
        init = encode_memory(query, rng.random(grid_hw), params)
        target = encode_memory(query, rng.random(grid_hw), params, KIND_TARGET)
        bank = MemoryBank((init, MemoryEntry(target.tokens, KIND_TARGET, ad.tensor(0.3))))
        clip = encode_frame(frames, cfg, params)
        per_frame = [encode_frame([f], cfg, params) for f in frames]
        attended = memory_attention(clip, bank, cfg, params)
        attended_frames = [memory_attention(f, bank, cfg, params) for f in per_frame]
        (enhanced,) = stt_block([attended], cfg, params)
        block = decode_masks(enhanced, grid_hw, cfg, params, frame_index=5)
        frame_blocks = [fc for i, f in enumerate(stt_block(attended_frames, cfg, params))
                        for fc in decode_masks(f, grid_hw, cfg, params, frame_index=5 + i)]
    layers = {"encoded": (clip.value, np.concatenate([f.value for f in per_frame])),
              "memory attention": (attended.value, np.concatenate([f.value for f in attended_frames]))}
    assert [fc.frame_index for fc in block] == [fc.frame_index for fc in frame_blocks]
    return layers, block, frame_blocks


class TestClipBlocks:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_clip_block_matches_frame_blocks(self, case):
        layers, block, frame_blocks = clip_and_frame_blocks(*BLOCK_CASES[case], seed=len(case))
        for layer, (got, expected) in layers.items():
            assert_bytes_equal(got, expected, layer)
        for got, expected in zip(block, frame_blocks):
            for a, b in zip(got.candidates, expected.candidates):
                assert_bytes_equal(a.logits, b.logits, "mask logits")
                assert (a.iou, a.occlusion) == (b.iou, b.occlusion)

    def test_one_token_frames_keep_masks(self):
        # At one patch a frame, numpy computes a one-frame block's products as
        # one-row products (gemv) and a clip block's as a GEMM, whose last bits
        # may differ; the values agree to rounding and the masks hold.
        layers, block, frame_blocks = clip_and_frame_blocks(PipelineConfig(patch_size=16, seed=3),
                                                            16, 7, seed=1)
        for layer, (got, expected) in layers.items():
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12, err_msg=layer)
        for got, expected in zip(block, frame_blocks):
            for a, b in zip(got.candidates, expected.candidates):
                np.testing.assert_allclose(a.logits, b.logits, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose([a.iou, a.occlusion], [b.iou, b.occlusion], rtol=1e-12)
                np.testing.assert_array_equal(a.grid, b.grid)


class TestBinarize:
    def test_all_negative_empty(self):
        cand = make_candidate(-np.ones((8, 8)), 0.5)
        assert binarize_candidate(cand, (64, 64)).area() == 0

    def test_all_positive_full(self):
        cand = make_candidate(np.ones((8, 8)), 0.5)
        assert binarize_candidate(cand, (64, 64)).area() == 64 * 64

    def test_single_cell_square(self):
        logits = -np.ones((8, 8))
        logits[2, 3] = 1.0
        mask = binarize_candidate(make_candidate(logits, 0.5), (64, 64))
        assert mask.area() == 64
        grid = rle_decode(mask)
        assert grid[16:24, 24:32].all()
        assert grid.sum() == 64


def selection_cfg(**kw):
    defaults = dict(patch_size=1, model_dim=4, num_heads=2, seed=0)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def line_logits(cols, width=10):
    row = -np.ones((1, width))
    row[0, list(cols)] = 1.0
    return row


class TestTfgSelect:
    def test_worked_example(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4))) for _ in range(4)]
        best_scores = [0.9, 0.6, 0.55, 0.4]
        frames = []
        for i, s in enumerate(best_scores):
            cands = [
                make_candidate(line_logits({0, 1}), s),
                make_candidate(line_logits({2}), max(0.0, s - 0.3)),
                make_candidate(line_logits({3}), max(0.0, s - 0.4)),
            ]
            frames.append(frame_of(cands, index=i))
        entries, prov = tfg_select(frames, feats, cfg, params)
        assert [p.frame_index for p in prov] == [0, 1]
        assert [p.iou_score for p in prov] == [0.9, 0.6]
        assert all(e.kind == KIND_TARGET for e in entries)

    def test_all_below_threshold_empty(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4)))]
        frames = [frame_of([make_candidate(line_logits({0}), 0.4)] * 3)]
        entries, prov = tfg_select(frames, feats, cfg, params)
        assert entries == [] and prov == []

    def test_threshold_inclusive(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4)))]
        frames = [frame_of([make_candidate(line_logits({0}), 0.5),
                            make_candidate(line_logits({1}), 0.1),
                            make_candidate(line_logits({2}), 0.1)])]
        entries, prov = tfg_select(frames, feats, cfg, params)
        assert len(entries) == 1 and prov[0].iou_score == 0.5

    def test_single_qualifier_gives_one_entry(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4))) for _ in range(2)]
        frames = [
            frame_of([make_candidate(line_logits({0}), 0.8)] * 3, index=0),
            frame_of([make_candidate(line_logits({1}), 0.2)] * 3, index=1),
        ]
        entries, _ = tfg_select(frames, feats, cfg, params)
        assert len(entries) == 1


class TestDfgSelect:
    def test_worked_example(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4))) for _ in range(2)]
        best = set(range(5))  # cols 0..4, area 5
        frame0 = frame_of(
            [
                make_candidate(line_logits(best), 0.95),
                make_candidate(line_logits({4}), 0.9),          # div 0.8, product 0.72
                make_candidate(line_logits({3, 4}), 0.8),       # div 0.6, product 0.48
            ],
            index=0,
        )
        frame1 = frame_of(
            [
                make_candidate(line_logits(best), 0.97),
                make_candidate(line_logits(set(range(4, 10))), 0.65),  # div 0.9, fails tau_score
                make_candidate(line_logits(best), 0.1),               # div 0, fails both
            ],
            index=1,
        )
        entries, prov = dfg_select([frame0, frame1], feats, cfg, params)
        assert len(prov) == 1
        assert (prov[0].frame_index, prov[0].candidate_index) == (0, 1)
        assert prov[0].divergence == pytest.approx(0.8, abs=1e-12)
        assert prov[0].rank_score == pytest.approx(0.72, abs=1e-12)
        assert entries[0].kind == KIND_DISTRACTOR

    def test_identical_alternative_excluded(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4)))]
        same = line_logits({0, 1, 2})
        frames = [frame_of([make_candidate(same, 0.9), make_candidate(same, 0.8), make_candidate(same, 0.75)])]
        entries, prov = dfg_select(frames, feats, cfg, params)
        assert entries == [] and prov == []

    def test_empty_selection_is_valid(self):
        cfg = selection_cfg()
        params = init_params(cfg)
        feats = [ad.tensor(np.zeros((10, 4)))]
        frames = [frame_of([make_candidate(line_logits({0}), 0.9),
                            make_candidate(line_logits({5}), 0.2),
                            make_candidate(line_logits({6}), 0.3)])]
        entries, prov = dfg_select(frames, feats, cfg, params)
        assert entries == []


@pytest.mark.parametrize("consumer", ["tfg_select", "dfg_select", "finalize_predictions"])
def test_iou_tie_picks_first_candidate(consumer):
    # candidates 1 and 2 tie at the top predicted IoU with disjoint masks: 1 is the best
    cands = [make_candidate(line_logits({0, 1, 2}), 0.6),
             make_candidate(line_logits({0, 1}), 0.9),
             make_candidate(line_logits({5, 6, 7}), 0.9)]
    frames = [frame_of(cands)]
    if consumer == "finalize_predictions":
        emitted = finalize_predictions(frames, (1, 10))
        assert [m.runs for m in emitted] == [binarize_candidate(cands[1], (1, 10)).runs]
        return
    cfg = selection_cfg()
    select = tfg_select if consumer == "tfg_select" else dfg_select
    _, prov = select(frames, [ad.tensor(np.zeros((10, 4)))], cfg, init_params(cfg))
    # TFG mines the best candidate; DFG excludes it and mines the tied one beside it
    assert [p.candidate_index for p in prov] == [1 if consumer == "tfg_select" else 2]


def oracle_tfg(frames, tau_t, n_t):
    """Exhaustive reference: best per frame, filter, stable rank."""
    rows = []
    for fi, frame in enumerate(frames):
        ious = [c.iou for c in frame.candidates]
        best = max(range(len(ious)), key=lambda i: (ious[i], -i))
        if ious[best] >= tau_t:
            rows.append((fi, best, ious[best]))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return [(r[0], r[1]) for r in rows[:n_t]]


def oracle_dfg(frames, tau_d, tau_s, n_d, frame_hw):
    def pixels(cand):
        grid = cand.logits > 0
        rep_h = frame_hw[0] // grid.shape[0]
        rep_w = frame_hw[1] // grid.shape[1]
        return np.repeat(np.repeat(grid, rep_h, 0), rep_w, 1)

    rows = []
    for fi, frame in enumerate(frames):
        ious = [c.iou for c in frame.candidates]
        best = max(range(len(ious)), key=lambda i: (ious[i], -i))
        bp = pixels(frame.candidates[best])
        for ci, cand in enumerate(frame.candidates):
            if ci == best:
                continue
            ap = pixels(cand)
            union = np.logical_or(bp, ap).sum()
            iou = np.logical_and(bp, ap).sum() / union if union else 1.0
            div = 1.0 - iou
            if div > tau_d and cand.iou > tau_s:
                rows.append((fi, ci, div * cand.iou))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return [(r[0], r[1]) for r in rows[:n_d]]


class TestSelectionOracles:
    def test_random_candidate_sets(self):
        rng = np.random.default_rng(2718)
        for trial in range(300):
            n_frames = int(rng.integers(1, 6))
            cfg = selection_cfg(
                num_targets=int(rng.integers(0, 4)),
                num_distractors=int(rng.integers(0, 3)),
                tau_target=float(rng.uniform(0.2, 0.9)),
                tau_divergence=float(rng.uniform(0.1, 0.9)),
                tau_score=float(rng.uniform(0.2, 0.9)),
            )
            params = init_params(cfg)
            frames = []
            for fi in range(n_frames):
                cands = [
                    make_candidate(rng.normal(size=(4, 4)), float(rng.random()))
                    for _ in range(3)
                ]
                frames.append(frame_of(cands, index=fi))
            feats = [ad.tensor(np.zeros((16, 4))) for _ in range(n_frames)]
            _, tprov = tfg_select(frames, feats, cfg, params)
            assert [(p.frame_index, p.candidate_index) for p in tprov] == oracle_tfg(
                frames, cfg.tau_target, cfg.num_targets
            )
            _, dprov = dfg_select(frames, feats, cfg, params)
            assert [(p.frame_index, p.candidate_index) for p in dprov] == oracle_dfg(
                frames, cfg.tau_divergence, cfg.tau_score, cfg.num_distractors, (4, 4)
            )


class TestAmgFuse:
    def entry(self, rng, d, kind):
        return MemoryEntry(ad.tensor(rng.normal(size=(16, d))), kind, ad.tensor(1.0))

    def test_weights_form_simplex(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            cfg = PipelineConfig(patch_size=8, model_dim=16, num_heads=2, seed=seed)
            params = init_params(cfg)
            init = self.entry(rng, cfg.model_dim, KIND_QUERY_INIT)
            targets = [self.entry(rng, cfg.model_dim, KIND_TARGET)]
            distractors = [self.entry(rng, cfg.model_dim, KIND_DISTRACTOR)]
            bank = amg_fuse(init, targets, distractors, cfg, params)
            w = amg_weights(bank)
            assert set(w) == {KIND_QUERY_INIT, KIND_TARGET, KIND_DISTRACTOR}
            assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in w.values())

    def test_zeroed_head_gives_uniform_thirds(self):
        rng = np.random.default_rng(13)
        params = init_params(TOY)
        params["amg_head3.w2"].value[:] = 0.0
        init = self.entry(rng, TOY.model_dim, KIND_QUERY_INIT)
        bank = amg_fuse(init, [self.entry(rng, TOY.model_dim, KIND_TARGET)],
                        [self.entry(rng, TOY.model_dim, KIND_DISTRACTOR)], TOY, params)
        w = amg_weights(bank)
        for v in w.values():
            assert v == pytest.approx(1 / 3, abs=1e-12)

    def test_two_slot_path_without_distractors(self):
        rng = np.random.default_rng(14)
        params = init_params(TOY)
        init = self.entry(rng, TOY.model_dim, KIND_QUERY_INIT)
        bank = amg_fuse(init, [self.entry(rng, TOY.model_dim, KIND_TARGET)], [], TOY, params)
        w = amg_weights(bank)
        assert set(w) == {KIND_QUERY_INIT, KIND_TARGET}
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_returns_query_bank(self):
        rng = np.random.default_rng(15)
        params = init_params(TOY)
        init = self.entry(rng, TOY.model_dim, KIND_QUERY_INIT)
        bank = amg_fuse(init, [], [], TOY, params)
        assert len(bank.entries) == 1
        assert bank.entries[0].kind == KIND_QUERY_INIT
        assert float(bank.entries[0].scale.value) == 1.0

    def test_empty_targets_with_distractors_uses_three_slots(self):
        rng = np.random.default_rng(16)
        params = init_params(TOY)
        init = self.entry(rng, TOY.model_dim, KIND_QUERY_INIT)
        bank = amg_fuse(init, [], [self.entry(rng, TOY.model_dim, KIND_DISTRACTOR)], TOY, params)
        w = amg_weights(bank)
        assert set(w) == {KIND_QUERY_INIT, KIND_DISTRACTOR}
        # three-slot head: query + distractor weights leave room for the
        # (unused) target slot, so they do not sum to 1
        assert sum(w.values()) < 1.0


class TestRunStage:
    def test_final_stage_has_no_bank(self):
        rng = np.random.default_rng(17)
        params = init_params(TOY)
        frames = [rand_frame(rng) for _ in range(3)]
        feats = encode_frame([frames[0]], TOY, params)
        init = encode_memory(feats, np.ones((8, 8)), params)
        bank = MemoryBank((init,))
        out = run_stage(frames, bank, TOY, params, is_final=True)
        assert out.new_bank is None
        assert len(out.candidates) == 3
        assert all(len(fc.candidates) == 3 for fc in out.candidates)

    def test_non_final_bank_composition(self):
        rng = np.random.default_rng(18)
        params = init_params(TOY)
        frames = [rand_frame(rng) for _ in range(4)]
        feats = encode_frame([frames[0]], TOY, params)
        init = encode_memory(feats, np.ones((8, 8)), params)
        out = run_stage(frames, MemoryBank((init,)), TOY, params, is_final=False)
        bank = out.new_bank
        assert bank is not None
        kinds = [e.kind for e in bank.entries]
        assert kinds.count(KIND_QUERY_INIT) == 1
        assert kinds.count(KIND_TARGET) == len(out.targets) <= TOY.num_targets
        assert kinds.count(KIND_DISTRACTOR) == len(out.distractors) <= TOY.num_distractors

    def test_clip_longer_than_limit_rejected(self):
        rng = np.random.default_rng(19)
        params = init_params(TOY)
        frames = [rand_frame(rng) for _ in range(TOY.clip_len + 1)]
        feats = encode_frame([frames[0]], TOY, params)
        init = encode_memory(feats, np.ones((8, 8)), params)
        with pytest.raises(PipelineConfigError):
            run_stage(frames, MemoryBank((init,)), TOY, params, is_final=True)

    def test_single_stage_config_runs(self):
        rng = np.random.default_rng(20)
        cfg = PipelineConfig(num_stages=1, stage_weights=(1.0,), patch_size=8,
                             model_dim=16, num_heads=2, seed=1)
        params = init_params(cfg)
        frames = [rand_frame(rng) for _ in range(2)]
        feats = encode_frame([frames[0]], cfg, params)
        init = encode_memory(feats, np.ones((8, 8)), params)
        outs = run_clip(frames, init, cfg, params)
        assert len(outs) == 1 and outs[0].new_bank is None


class TestFinalize:
    def test_all_occluded_empty(self):
        frames = [
            frame_of([make_candidate(np.ones((2, 2)), 0.9, occ=-1.0)] * 3, index=i)
            for i in range(3)
        ]
        masks = finalize_predictions(frames, (4, 4))
        assert masks == [None, None, None]

    def test_argmax_selection(self):
        logits = [-np.ones((2, 2)), np.ones((2, 2)), -np.ones((2, 2))]
        cands = [
            make_candidate(logits[0], 0.2, occ=1.0),
            make_candidate(logits[1], 0.9, occ=1.0),
            make_candidate(logits[2], 0.5, occ=1.0),
        ]
        (mask,) = finalize_predictions([frame_of(cands)], (4, 4))
        assert mask is not None and mask.area() == 16

    def test_matches_bruteforce_on_random_candidates(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            cands = [
                make_candidate(rng.normal(size=(2, 2)), float(rng.random()),
                               occ=float(rng.normal()))
                for _ in range(3)
            ]
            (got,) = finalize_predictions([frame_of(cands)], (4, 4))
            # brute force over all candidates
            ious = [c.iou for c in cands]
            best = 0
            for i in (1, 2):
                if ious[i] > ious[best]:
                    best = i
            if cands[best].occlusion > 0:
                expected_grid = np.repeat(np.repeat(cands[best].logits > 0, 2, 0), 2, 1)
                assert got is not None
                assert np.array_equal(rle_decode(got).astype(bool), expected_grid)
            else:
                assert got is None


class TestInferVideo:
    def test_clip_partition(self):
        assert clip_spans(15, 7) == [(0, 7), (7, 14), (14, 15)]
        assert clip_spans(7, 7) == [(0, 7)]
        assert clip_spans(1, 7) == [(0, 1)]

    def test_empty_query_mask_rejected(self):
        rng = np.random.default_rng(22)
        params = init_params(TOY)
        with pytest.raises(PipelineConfigError):
            infer_video([rand_frame(rng)], rand_frame(rng), RleMask.empty(64, 64), TOY, params)

    def test_response_is_valid_and_deterministic(self):
        rng = np.random.default_rng(23)
        frames = [rand_frame(rng) for _ in range(15)]
        query = rand_frame(rng)
        qmask = RleMask(64, 64, (0, 64 * 16, 64 * 48))
        params_a = init_params(TOY)
        params_b = init_params(TOY)
        resp_a, prov_a = infer_video(frames, query, qmask, TOY, params_a, video_id="v")
        resp_b, prov_b = infer_video(frames, query, qmask, TOY, params_b, video_id="v")
        assert resp_a == resp_b
        assert prov_a == prov_b
        assert len(prov_a["clips"]) == 3
        assert prov_a["config_digest"] == config_digest(asdict(TOY))
        prev_end = -1
        for occ in resp_a.occurrences:
            assert occ.start_frame > prev_end
            prev_end = occ.end_frame

    def test_recording_restored_after_error(self):
        rng = np.random.default_rng(22)
        with pytest.raises(PipelineConfigError):
            infer_video([rand_frame(rng)], rand_frame(rng), RleMask.empty(64, 64), TOY,
                        init_params(TOY))
        assert ad.tanh(ad.tensor([0.5])).parents != ()

    def test_builds_no_tape(self, monkeypatch):
        seen = []
        real_finalize = pipeline.finalize_predictions

        def spy(candidates, frame_hw):
            seen.extend(candidates)
            return real_finalize(candidates, frame_hw)

        monkeypatch.setattr(pipeline, "finalize_predictions", spy)
        rng = np.random.default_rng(24)
        frames = [rand_frame(rng) for _ in range(4)]
        infer_video(frames, frames[0], RleMask(64, 64, (0, 64 * 16, 64 * 48)), TOY,
                    init_params(TOY))
        assert len(seen) == 4
        for frame in seen:
            for node in (frame.occlusion_node(0), *frame.mask_nodes(0)):
                # the decoder's outputs start the trace: inference gave them no parents
                *upstream, _ = ad.trace(node)
                assert len(upstream) <= 3 and upstream[0].parents == ()

    def test_needs_no_cycle_collector(self):
        rng = np.random.default_rng(25)
        frames = [rand_frame(rng) for _ in range(9)]
        qmask = RleMask(64, 64, (0, 64 * 16, 64 * 48))
        params = init_params(TOY)
        gc.collect()
        gc.disable()
        try:
            result = infer_video(frames, frames[0], qmask, TOY, params)
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestScorePreflight:
    """run_video rejects clips whose attention scores would pass MAX_SCORE_BYTES
    before it allocates anything; the sizes here are computed, never built."""

    def first_clip(self, monkeypatch, side, num_frames, cfg=PipelineConfig()):
        def no_encoding(*args):
            raise LookupError("encode_frame reached")

        monkeypatch.setattr(pipeline, "encode_frame", no_encoding)
        frame = np.zeros((side, side, 3), dtype=np.uint8)
        video = pipeline.run_video([frame] * num_frames, frame, RleMask(side, side, (0, side * side)), cfg,
                                   init_params(cfg))
        return next(video)

    def test_512_frames_rejected_at_default_flags(self, monkeypatch):
        # 7 frames of 64x64 patches: 8 * 28672**2 bytes, about 6.6 GB, per head
        with pytest.raises(PipelineConfigError, match=f"needs {2 * 8 * 28672 ** 2} bytes"):
            self.first_clip(monkeypatch, 512, 7)

    def test_256_frames_admitted_at_default_flags(self, monkeypatch):
        with pytest.raises(LookupError, match="encode_frame reached"):
            self.first_clip(monkeypatch, 256, 7)

    def test_short_video_sized_by_its_frames(self, monkeypatch):
        # a 2-frame video's only clip has 2 frames, whatever clip_len says; memory
        # attention's 2 heads of 4 entries then need the most
        monkeypatch.setattr(pipeline, "MAX_SCORE_BYTES", 2 * 4 * 8 * 2 * (64 * 64) ** 2)
        with pytest.raises(LookupError, match="encode_frame reached"):
            self.first_clip(monkeypatch, 512, 2)
        with pytest.raises(PipelineConfigError, match="clips of 3 frames"):
            self.first_clip(monkeypatch, 512, 3)
