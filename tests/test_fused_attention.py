"""The fused attention node against its composed references, bit for bit.

`autodiff.attention_heads` runs every head of a block in one node, in its
softmax form (STT self-attention) and its weighted form (memory attention
over scalar-weighted key/value sets). It replaces per-head graphs of
narrow/transpose/matmul/scale/softmax/exp nodes and runs the same arithmetic
in the same order, so values and every gradient must be byte-equal to the
composed forms in `tests/oracles.py`, down to the order in which gradients
sum into shared nodes, however many threads run the heads.
"""

import sys

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs import parallel, pipeline
from vqs.autodiff import AttentionParams, tensor
from vqs.pipeline import (
    KIND_DISTRACTOR,
    KIND_QUERY_INIT,
    KIND_TARGET,
    MemoryBank,
    MemoryEntry,
    PipelineConfig,
    init_params,
)
from vqs.synth import SceneConfig, generate_scene
from vqs.training import gt_patch_counts, scene_losses, total_loss

from .helpers import assert_bytes_equal
from .oracles import composed_attention, composed_attention_heads, composed_memory_attention


def leaves(rng, shapes, prefix):
    return [tensor(rng.normal(size=shape), name=f"{prefix}{i}") for i, shape in enumerate(shapes)]


def grads_of(loss, nodes):
    """Gradients of loss for each node, copied out before another backward pass."""
    return ad.gradient_map(loss, {str(i): n for i, n in enumerate(nodes)}).values()


def run_heads(heads_fn, rng_seed, build, moved=None, probe_scale=1.0):
    """Value and parent gradients of the heads built by `build(heads_fn, rng)`,
    for a loss whose gradient at the heads is normal draws times `probe_scale`.

    With `moved`, every parent's value is scaled by it after the build and the
    graph is replayed before the backward pass.
    """
    rng = np.random.default_rng(rng_seed)
    out, parents = build(heads_fn, rng)
    probe = tensor(rng.normal(size=out.shape) * probe_scale)
    loss = ad.sum_all(ad.multiply(out, probe))
    if moved is not None:
        for parent in parents:
            parent.value *= moved
        ad.replay(ad.trace(loss))
    return [out.value], list(grads_of(loss, parents))


def equal_heads(num_heads, d_head):
    return [slice(h * d_head, (h + 1) * d_head) for h in range(num_heads)]


def attention_heads_builder(shapes, num_heads):
    """`num_heads` softmax heads of equal width over q, k and v of the given shapes."""

    def build(heads_fn, rng):
        q, k, v = leaves(rng, shapes, "qkv")
        return heads_fn(q, [(k, v)], None, equal_heads(num_heads, shapes[0][1] // num_heads)), [q, k, v]

    return build


def compare(fused, composed, label):
    (f_values, f_grads), (c_values, c_grads) = fused, composed
    for h, (fv, cv) in enumerate(zip(f_values, c_values)):
        assert_bytes_equal(fv, cv, f"{label} head {h} value")
    for i, (fg, cg) in enumerate(zip(f_grads, c_grads)):
        assert_bytes_equal(fg, cg, f"{label} parent {i} gradient")


@pytest.mark.parametrize("num_heads", [1, 2])
def test_attention_head_matches_composed(num_heads):
    # more keys than queries: the score matrices are not square; a subnormal
    # output gradient gives gradients of -0.0, which the composed graph's sum
    # of zero-padded heads turns into +0.0
    build = attention_heads_builder([(7, 4 * num_heads), (9, 4 * num_heads), (9, 4 * num_heads)], num_heads)
    for probe_scale in (1.0, 1e-322):
        compare(run_heads(ad.attention_heads, 5, build, probe_scale=probe_scale),
                run_heads(composed_attention_heads, 5, build, probe_scale=probe_scale),
                f"{num_heads} heads, probe scale {probe_scale}")


@pytest.mark.parametrize("num_heads", [1, 2])
def test_attention_block_matches_composed(num_heads):
    def run(attention_fn):
        rng = np.random.default_rng(8)
        x = tensor(rng.normal(size=(10, 8)), name="x")
        params = AttentionParams(*leaves(rng, [(8, 8)] * 4, "w"))
        out = attention_fn(x, [x], None, params, num_heads)
        loss = ad.sum_all(ad.multiply(out, tensor(rng.normal(size=out.shape))))
        return [out.value], list(grads_of(loss, [x, params.wq, params.wk, params.wv, params.wo]))

    compare(run(ad.attention), run(composed_attention), f"attention, {num_heads} heads")


def attention_block(attention_fn, num_heads, tokens, moved=None):
    """Output and the gradients of x and the projections through one attention block.

    With `moved`, x and the projections are scaled by it after the build and
    the graph is replayed before the backward pass.
    """
    rng = np.random.default_rng(tokens)
    x = tensor(rng.normal(size=(tokens, 8)), name="x")
    params = AttentionParams(*leaves(rng, [(8, 8)] * 4, "w"))
    out = attention_fn(x, [x], None, params, num_heads)
    loss = ad.sum_all(ad.multiply(out, tensor(rng.normal(size=out.shape))))
    nodes = [x, params.wq, params.wk, params.wv, params.wo]
    if moved is not None:
        for node in nodes:
            node.value *= moved
        ad.replay(ad.trace(loss))
    return [out.value], list(grads_of(loss, nodes))


@pytest.mark.parametrize("threads", ["per-cpu", "one"])
@pytest.mark.parametrize("num_heads", [1, 2, 4])
@pytest.mark.parametrize("tokens", [1, 63, 65, 129, 200])
def test_attention_heads_match_composed_over_row_blocks(monkeypatch, tokens, num_heads, threads):
    # 65 and 129 query rows leave a last block of one row, which joins the one before it
    if threads == "one":
        monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    for moved in (None, 1.5):
        compare(attention_block(ad.attention, num_heads, tokens, moved),
                attention_block(composed_attention, num_heads, tokens, moved),
                f"{tokens} tokens, {num_heads} heads, moved {moved}")
    with ad.no_record():
        unrecorded = attention_block(ad.attention, num_heads, tokens)[0]
    assert_bytes_equal(unrecorded[0], attention_block(composed_attention, num_heads, tokens)[0][0],
                       "no-record value")


@pytest.mark.parametrize("num_heads", [1, 2, 4])
def test_attention_heads_are_one_node(num_heads):
    rng = np.random.default_rng(3)
    x, y = leaves(rng, [(5, 8), (4, 8)], "x")
    params = AttentionParams(*leaves(rng, [(8, 8)] * 4, "w"))
    record = ad.trace(ad.attention(x, [x], None, params, num_heads))
    # three projections, the heads and the output projection
    assert sum(1 for node in record if node.parents) == 5
    record = ad.trace(ad.attention(x, [x, y], [tensor(0.4), tensor(0.6)], params, num_heads))
    # the query, two key and two value projections, the heads and the output projection
    assert sum(1 for node in record if node.parents) == 7


def memory_head_builder(row_counts, weight_values, shared=None, num_heads=2):
    """Weighted heads of width 4 over len(row_counts) sets; `shared` names two
    sets with one weight node."""

    def build(heads_fn, rng):
        q = tensor(rng.normal(size=(6, 4 * num_heads)), name="q")
        keys = leaves(rng, [(n, 4 * num_heads) for n in row_counts], "k")
        values = leaves(rng, [(n, 4 * num_heads) for n in row_counts], "v")
        weights = [tensor(w, name=f"w{i}") for i, w in enumerate(weight_values)]
        if shared is not None:
            a, b = shared
            weights[b] = weights[a]
        out = heads_fn(q, list(zip(keys, values)), weights, equal_heads(num_heads, 4))
        distinct = list({id(w): w for w in weights}.values())
        return out, [q, *keys, *values, *distinct]

    return build


def test_attention_heads_stress_on_threads(monkeypatch):
    # more heads than CPUs, with the interpreter switching threads as often as it can
    rng = np.random.default_rng(12)
    q, k, v = leaves(rng, [(70, 16), (70, 16), (70, 16)], "qkv")
    weights = [tensor(0.7), tensor(0.3)]
    heads = [slice(2 * h, 2 * h + 2) for h in range(8)]

    def run(kv_sets, weights):
        out = ad.attention_heads(q, kv_sets, weights, heads)
        loss = ad.sum_all(ad.multiply(out, tensor(np.linspace(-1.0, 1.0, out.value.size).reshape(out.shape))))
        return [out.value], list(grads_of(loss, [q, k, v, *(weights or [])]))

    for kv_sets, w in (([(k, v)], None), ([(k, v), (v, k)], weights)):
        with monkeypatch.context() as serial:
            serial.setattr(parallel, "available_cpus", lambda: 1)
            expected = run(kv_sets, w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                compare(run(kv_sets, w), expected, "threaded")
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("row_counts, weight_values, shared", [
    ((5,), (1.0,), None),
    ((5, 3), (0.7, 0.3), None),
    ((5, 3, 4), (0.5, 0.2, 0.3), (1, 2)),
    ((5, 3, 4, 6), (0.4, 0.25, 0.25, 0.1), (1, 2)),
    ((2, 3, 4, 5), (1.5, 0.05, 0.8, 2.0), None),
], ids=["1-entry", "2-entries", "3-entries-shared", "4-entries-shared", "4-entries"])
def test_weighted_attention_head_matches_composed(row_counts, weight_values, shared):
    build = memory_head_builder(row_counts, weight_values, shared)
    compare(run_heads(ad.attention_heads, 13, build),
            run_heads(composed_attention_heads, 13, build), f"{len(row_counts)} entries")


@pytest.mark.parametrize("num_heads", [1, 2, 4])
def test_weighted_heads_match_composed(num_heads):
    # a weight shared by two sets sums its gradient terms across every head in
    # the composed graph's order; a subnormal output gradient gives gradients
    # of -0.0, which the composed graph's sum of zero-padded heads turns into +0.0
    build = memory_head_builder((5, 3, 4), (0.5, 0.25, 0.25), (1, 2), num_heads)
    for moved, probe_scale in ((None, 1.0), (1.5, 1.0), (None, 1e-321)):
        compare(run_heads(ad.attention_heads, 29, build, moved, probe_scale),
                run_heads(composed_attention_heads, 29, build, moved, probe_scale),
                f"{num_heads} heads, moved {moved}, probe scale {probe_scale}")


@pytest.mark.parametrize("build", [
    attention_heads_builder([(7, 8), (9, 8), (9, 8)], 2),
    memory_head_builder((5, 3, 4), (0.5, 0.2, 0.3), (1, 2)),
], ids=["attention_heads", "weighted_attention_head"])
def test_backward_after_replay_matches_composed(build):
    # replay refreshes the intermediates a fused VJP reads, so after the
    # leaves move the gradients still equal the replayed composed graph's
    compare(run_heads(ad.attention_heads, 17, build, moved=1.5),
            run_heads(composed_attention_heads, 17, build, moved=1.5), "replayed")


def test_memory_attention_with_zero_scale_entry_matches_composed():
    cfg = PipelineConfig(model_dim=8, num_heads=2, seed=4)

    def run(memory_attention_fn):
        store = init_params(cfg)
        rng = np.random.default_rng(21)
        features = tensor(rng.normal(size=(9, 8)), name="features")
        tokens = leaves(rng, [(9, 8)] * 4, "tokens")
        target_scale = tensor(0.35, name="target")
        scales = [tensor(0.3, name="init"), target_scale, target_scale, tensor(0.0, name="zero")]
        kinds = [KIND_QUERY_INIT, KIND_TARGET, KIND_TARGET, KIND_DISTRACTOR]
        bank = MemoryBank(tuple(MemoryEntry(t, kind, s) for t, kind, s in zip(tokens, kinds, scales)))
        out = memory_attention_fn(features, bank, cfg, store)
        loss = ad.sum_all(ad.multiply(out, tensor(rng.normal(size=out.shape))))
        mem_params = [store[f"mem_attn.w{p}"] for p in "qkvo"]
        nodes = [features, *tokens, scales[0], target_scale, scales[3], *mem_params]
        return [out.value], list(grads_of(loss, nodes))

    compare(run(pipeline.memory_attention), run(composed_memory_attention), "memory_attention")


def test_weighted_attention_replay_keeps_shift_frozen():
    rng = np.random.default_rng(2)
    q = tensor(rng.normal(size=(4, 8)), name="q")
    kv_sets = list(zip(leaves(rng, [(3, 8), (5, 8)], "k"), leaves(rng, [(3, 8), (5, 8)], "v")))
    weights = [tensor(0.6), tensor(0.4)]
    heads = equal_heads(2, 4)
    fused = ad.attention_heads(q, kv_sets, weights, heads)
    composed = composed_attention_heads(q, kv_sets, weights, heads)
    fused_record, composed_record = ad.trace(fused), ad.trace(composed)

    q.value *= 3.0  # moves every row max away from the shift taken at build time
    ad.replay(fused_record)
    ad.replay(composed_record)
    assert_bytes_equal(fused.value, composed.value, "replayed value")
    rebuilt = ad.attention_heads(q, kv_sets, weights, heads)
    for cols in heads:  # each head keeps its own shift
        assert fused.value[:, cols].tobytes() != rebuilt.value[:, cols].tobytes()

    q.value *= 400.0  # exp(score - stale shift) overflows: the shift was not recomputed
    with np.errstate(over="ignore", invalid="ignore"):
        ad.replay(fused_record)
    assert not np.isfinite(fused.value).all()
    assert np.isfinite(ad.attention_heads(q, kv_sets, weights, heads).value).all()


def test_fused_heads_save_nothing_without_record():
    rng = np.random.default_rng(6)
    q, k, v = leaves(rng, [(4, 4), (5, 4), (5, 4)], "qkv")
    forms = [([(k, v)], None), ([(k, v), (v, k)], [tensor(1.0), tensor(0.5)])]
    recorded = [ad.attention_heads(q, kv_sets, weights, [slice(2, 4)]) for kv_sets, weights in forms]
    with ad.no_record():
        unrecorded = [ad.attention_heads(q, kv_sets, weights, [slice(2, 4)]) for kv_sets, weights in forms]
    for node, reference in zip(unrecorded, recorded):
        assert node.parents == () and node._fwd is None and node._vjp is None
        assert_bytes_equal(node.value, reference.value, "no-record value")


def test_weighted_attention_parent_order():
    # values before keys, then each head's weights, head 0 first: under this
    # order gradients sum upstream as through the composed per-head graphs
    rng = np.random.default_rng(1)
    q = tensor(rng.normal(size=(2, 4)))
    keys, values = leaves(rng, [(3, 4)] * 2, "k"), leaves(rng, [(3, 4)] * 2, "v")
    weights = [tensor(0.5), tensor(0.5)]
    node = ad.attention_heads(q, list(zip(keys, values)), weights, equal_heads(2, 2))
    per_head = [weights[0], weights[0], weights[1], weights[1]]
    expected = [q, *values, *keys, *per_head, *per_head]
    assert [id(p) for p in node.parents] == [id(p) for p in expected]


def test_softmax_attention_parent_order():
    # (q, k, v): listing v before k moves parameter gradients by an ulp
    rng = np.random.default_rng(1)
    q, k, v = leaves(rng, [(2, 4), (3, 4), (3, 4)], "qkv")
    node = ad.attention_heads(q, [(k, v)], None, equal_heads(2, 2))
    assert [id(p) for p in node.parents] == [id(q), id(k), id(v)]


def test_attention_rejects_mismatched_weights():
    rng = np.random.default_rng(1)
    q, k, v = leaves(rng, [(2, 4), (3, 4), (3, 4)], "qkv")
    for kv_sets, weights in (([(k, v), (v, k)], None), ([(k, v)], []), ([(k, v)], [tensor(1.0)] * 2)):
        with pytest.raises(ValueError):
            ad.attention_heads(q, kv_sets, weights, equal_heads(2, 2))


TRAIN_SCENE = SceneConfig(
    frame_size=(48, 48), num_frames=16, num_occurrences=2, distractor_count=1,
    target_shape="rectangle", appearance_drift=0.15, target_scale=0.38, seed=21,
)
TRAIN_CFG = PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=16,
                           num_heads=2, stage_weights=(0.5, 1.0), seed=3)


def training_step_gradients():
    scene = generate_scene(TRAIN_SCENE, video_id="overfit")
    store = init_params(TRAIN_CFG)
    per_stage = scene_losses(scene, TRAIN_CFG, store, gt_patch_counts(scene, TRAIN_CFG.patch_size))
    node, _ = total_loss(per_stage, TRAIN_CFG.stage_weights)
    return float(node.value), ad.gradient_map(node, store.params)


def test_training_step_gradients_match_composed(monkeypatch):
    fused_loss, fused = training_step_gradients()
    monkeypatch.setattr(ad, "attention", composed_attention)
    monkeypatch.setattr(pipeline, "memory_attention", composed_memory_attention)
    composed_loss, composed = training_step_gradients()
    assert fused_loss == composed_loss
    assert fused.keys() == composed.keys()
    for name in composed:
        assert_bytes_equal(fused[name], composed[name], name)

