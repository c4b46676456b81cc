import gc
import math
import zlib

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs.autodiff import AttentionParams, Tensor, tensor
from vqs.optim import (
    CheckpointError,
    ParamStore,
    adamw_step,
    load_params,
    save_params,
    seeded_init,
)
from vqs.pipeline import PipelineConfig, init_params
from vqs.synth import SceneConfig, generate_scene
from vqs.training import (
    GRAD_CHECK_BOUND,
    GRADIENT_CHECKS,
    check_graph,
    gt_patch_counts,
    scene_losses,
    total_loss,
)

from . import oracles


def scalar_loss(t):
    return ad.sum_all(t) if t.value.ndim else t


class TestLinear:
    def test_identity(self):
        x = tensor([[1.0, -2.0], [0.5, 3.0]])
        w = tensor(np.eye(2))
        b = tensor(np.zeros(2))
        assert np.array_equal(ad.linear(x, w, b).value, x.value)

    def test_zero_input_gives_bias(self):
        x = tensor(np.zeros((3, 2)))
        w = tensor(np.ones((2, 4)))
        b = tensor([1.0, 2.0, 3.0, 4.0])
        out = ad.linear(x, w, b).value
        assert np.array_equal(out, np.broadcast_to(b.value, (3, 4)))

    def test_hand_case(self):
        x = tensor([[1.0, 2.0]])
        w = tensor([[1.0, 0.0], [0.0, 2.0]])
        b = tensor([3.0, -1.0])
        assert np.array_equal(ad.linear(x, w, b).value, [[4.0, 3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(tensor([0.5, 0.5, 0.5])).value
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_saturation(self):
        out = ad.softmax(tensor([1000.0, 0.0, 0.0])).value
        assert out[0] > 1 - 1e-9

    def test_frozen_values(self):
        out = ad.softmax(tensor([1.0, 2.0, 3.0])).value
        assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=(4, 7)) * 10
            y = ad.softmax(tensor(x), axis=-1).value
            assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)
            y_shift = ad.softmax(tensor(x + 123.456), axis=-1).value
            assert np.allclose(y, y_shift, atol=1e-12)
            assert (y > 0).all()


def identity_attention_params(d):
    eye = np.eye(d)
    return AttentionParams(wq=tensor(eye), wk=tensor(eye), wv=tensor(eye), wo=tensor(eye))


class TestAttention:
    def test_single_token_reproduces_value(self):
        d = 4
        params = identity_attention_params(d)
        q = tensor(np.random.default_rng(1).normal(size=(3, d)))
        kv = tensor([[1.0, -2.0, 0.5, 7.0]])
        out = ad.attention(q, [kv], None, params, num_heads=1).value
        assert np.array_equal(out, np.broadcast_to(kv.value, (3, d)))

    def test_identical_keys_weigh_half(self):
        # keys differ from values, so this calls the node without projections
        d = 2
        q = tensor([[5.0, -3.0]])
        k = tensor([[1.0, 2.0], [1.0, 2.0]])
        v = tensor([[10.0, 0.0], [0.0, 4.0]])
        out = ad.attention_heads(q, [(k, v)], None, [slice(0, d)]).value
        assert np.allclose(out, [[5.0, 2.0]], atol=1e-12)

    def test_hand_computed_two_tokens(self):
        # keys differ from values, so this calls the node without projections
        d = 2
        q = tensor([[1.0, 0.0]])
        k = tensor([[1.0, 0.0], [0.0, 1.0]])
        v = tensor([[2.0, 0.0], [0.0, 4.0]])
        out = ad.attention_heads(q, [(k, v)], None, [slice(0, d)]).value
        s = 1.0 / math.sqrt(2)
        w0 = math.exp(s) / (math.exp(s) + math.exp(0.0))
        expected = [[w0 * 2.0, (1 - w0) * 4.0]]
        assert np.allclose(out, expected, atol=1e-12)

    def test_indivisible_heads_rejected(self):
        params = identity_attention_params(3)
        x = tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            ad.attention(x, [x], None, params, num_heads=2)

    def test_matches_plain_numpy(self):
        rng = np.random.default_rng(42)
        d, heads = 8, 2
        mats = {k: rng.normal(size=(d, d)) for k in "qkvo"}
        params = AttentionParams(
            wq=tensor(mats["q"]), wk=tensor(mats["k"]), wv=tensor(mats["v"]), wo=tensor(mats["o"])
        )
        x = rng.normal(size=(5, d))
        got = ad.attention(tensor(x), [tensor(x)], None, params, heads).value

        q, k, v = x @ mats["q"], x @ mats["k"], x @ mats["v"]
        dh = d // heads
        outs = []
        for h in range(heads):
            qs, ks, vs = (m[:, h * dh : (h + 1) * dh] for m in (q, k, v))
            sc = qs @ ks.T / math.sqrt(dh)
            e = np.exp(sc - sc.max(axis=-1, keepdims=True))
            w = e / e.sum(axis=-1, keepdims=True)
            outs.append(w @ vs)
        expected = np.concatenate(outs, axis=1) @ mats["o"]
        assert np.allclose(got, expected, atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        x = tensor(np.arange(6, dtype=float).reshape(2, 3))
        loss = ad.sum_all(x)
        ad.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_zero_scaled_graph(self):
        x = tensor([1.0, 2.0, 3.0])
        loss = ad.scale(ad.sum_all(ad.tanh(x)), 0.0)
        ad.backward(loss)
        assert np.array_equal(x.grad, np.zeros(3))

    def test_unreachable_param_gets_zero(self):
        x = tensor([1.0, 2.0])
        unused = tensor([5.0], name="unused")
        loss = ad.sum_all(x)
        grads = ad.gradient_map(loss, {"x": x, "unused": unused})
        assert np.array_equal(grads["unused"], np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.backward(ad.tanh(x))

    def test_replay_refreshes_values(self):
        x = tensor([1.0, 2.0])
        loss = ad.sum_all(ad.multiply(x, x))
        record = ad.trace(loss)
        x.value[0] = 10.0
        ad.replay(record)
        assert float(loss.value) == pytest.approx(104.0)


# the gradient-check report's graphs, plus graphs of the two nodes that only
# the oracles define
GRAPHS = {
    **GRADIENT_CHECKS,
    "transpose": lambda r: ad.sum_all(ad.multiply(oracles.transpose(tensor(r.normal(size=(2, 3)), name="p")), tensor(r.normal(size=(3, 2))))),
    "exp": lambda r: ad.sum_all(oracles.exp(tensor(r.normal(size=(3, 3)), name="p"))),
}


def _stage_loss_graph(r):
    scene = generate_scene(SceneConfig(frame_size=(32, 32), num_frames=8, num_occurrences=1,
                                       distractor_count=1, target_shape="rectangle",
                                       appearance_drift=0.1, target_scale=0.35,
                                       seed=int(r.integers(1000))), video_id="replay")
    cfg = PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=8, num_heads=2,
                         stage_weights=(0.5, 1.0), seed=1)
    per_stage = scene_losses(scene, cfg, init_params(cfg), gt_patch_counts(scene, cfg.patch_size))
    node, _ = total_loss(per_stage, cfg.stage_weights)
    return node


# replay also covers a whole two-stage training loss
REPLAY = {**GRAPHS, "stage_loss": _stage_loss_graph}


class TestReplay:
    @pytest.mark.parametrize("name", sorted(REPLAY))
    def test_replay_reproduces_every_value(self, name):
        # each node's value and its replay come from the one forward closure
        loss = REPLAY[name](np.random.default_rng(zlib.crc32(name.encode())))
        record = ad.trace(loss)
        leaves = {str(i): n for i, n in enumerate(record) if not n.parents}
        values = [n.value.copy() for n in record]
        grads = ad.gradient_map(loss, leaves)
        ad.replay(record)
        for i, (node, value) in enumerate(zip(record, values)):
            assert node.value.dtype == value.dtype and node.value.shape == value.shape, i
            assert node.value.tobytes() == value.tobytes(), f"node {i}: {node}"
        # replay refreshed what the fused VJPs read, so backward agrees too
        for key, grad in ad.gradient_map(loss, leaves).items():
            assert grad.tobytes() == grads[key].tobytes(), key


class TestGradCheck:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_primitives(self, name):
        err = check_graph(GRAPHS[name], name, seed=1, coords_per_param=6)
        assert err < GRAD_CHECK_BOUND, f"{name}: {err}"

    def test_quadratic_on_linear_tight(self):
        err = check_graph(GRADIENT_CHECKS["quadratic_linear"], "quadratic_linear", coords_per_param=12)
        assert err < 1e-7

    def test_empty_param_set(self):
        loss = ad.sum_all(tensor([1.0, 2.0]))
        assert ad.grad_check(loss, []) == 0.0


class TestNoRecord:
    def test_node_keeps_only_value(self):
        x = tensor(np.arange(6.0).reshape(2, 3), name="x")
        w = tensor(np.linspace(-1.0, 1.0, 6).reshape(3, 2), name="w")
        recorded = ad.softmax(ad.matmul(x, w))
        with ad.no_record():
            node = ad.softmax(ad.matmul(x, w))
        assert node.parents == ()
        assert node._vjp is None and node._fwd is None
        assert np.array_equal(node.value, recorded.value)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_values_match_recorded(self, name):
        seed = zlib.crc32(name.encode())
        recorded = GRAPHS[name](np.random.default_rng(seed))
        with ad.no_record():
            unrecorded = GRAPHS[name](np.random.default_rng(seed))
        assert np.array_equal(unrecorded.value, recorded.value)
        assert ad.trace(unrecorded) == [unrecorded]
        assert unrecorded._fwd is None and unrecorded._vjp is None

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with ad.no_record():
                raise RuntimeError("boom")
        assert ad.tanh(tensor([0.5])).parents != ()

    def test_finished_tape_needs_no_cycle_collector(self):
        # exp, tanh, sigmoid and softmax are the VJPs that read their own output
        rng = np.random.default_rng(3)
        gc.collect()
        gc.disable()
        try:
            x = tensor(rng.normal(size=(3, 4)), name="x")
            y = ad.softmax(oracles.exp(ad.tanh(ad.sigmoid(x))), axis=-1)
            loss = ad.sum_all(ad.multiply(y, tensor(rng.normal(size=(3, 4)))))
            ad.backward(loss)
            del y, loss
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert x.grad is not None and np.any(x.grad)


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        store = seeded_init({"w": (4, 4), "b": (4,)}, seed=9)
        before = store.copy_values()
        grads = {name: np.zeros_like(p.value) for name, p in store.params.items()}
        adamw_step(store, grads, lr=0.1, weight_decay=0.0)
        for name, val in before.items():
            assert np.array_equal(store.params[name].value, val)

    def test_first_step_scalar(self):
        store = ParamStore(params={"w": tensor(np.array([3.0]))})
        g = 0.5
        adamw_step(store, {"w": np.array([g])}, lr=0.1, weight_decay=0.0)
        expected = 3.0 - 0.1 * g / (abs(g) + 1e-8)
        assert store.params["w"].value[0] == pytest.approx(expected, rel=1e-12)

    def test_quadratic_descent(self):
        # simulate the recurrence on f(w) = w^2 from w=1, lr=0.1: |w| decreases
        # strictly until momentum overshoots zero (step 12), and stays far
        # below the start thereafter
        store = ParamStore(params={"w": tensor(np.array([1.0]))})
        values = [1.0]
        for _ in range(20):
            w = store.params["w"].value[0]
            adamw_step(store, {"w": np.array([2.0 * w])}, lr=0.1, weight_decay=0.0)
            values.append(abs(store.params["w"].value[0]))
        for i in range(11):
            assert values[i + 1] < values[i]
        assert values[20] < 0.5 * values[0]

    def test_weight_decay_shrinks_without_grad(self):
        store = ParamStore(params={"w": tensor(np.array([2.0]))})
        adamw_step(store, {"w": np.array([0.0])}, lr=0.1, weight_decay=0.01)
        assert store.params["w"].value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01))

    def test_shape_mismatch_rejected(self):
        store = seeded_init({"w": (3, 3)}, seed=0)
        with pytest.raises(ValueError):
            adamw_step(store, {"w": np.zeros((2, 2))}, lr=0.1)


class TestSeededInit:
    def test_determinism(self):
        a = seeded_init({"w": (8, 8), "b": (8,)}, seed=123)
        b = seeded_init({"w": (8, 8), "b": (8,)}, seed=123)
        for name in a.params:
            assert np.array_equal(a.params[name].value, b.params[name].value)

    def test_seed_changes_values(self):
        a = seeded_init({"w": (8, 8)}, seed=1)
        b = seeded_init({"w": (8, 8)}, seed=2)
        assert not np.array_equal(a.params["w"].value, b.params["w"].value)

    def test_biases_zero(self):
        store = seeded_init({"layer.b": (32,)}, seed=5)
        assert np.array_equal(store.params["layer.b"].value, np.zeros(32))

    def test_weight_statistics(self):
        store = seeded_init({"w": (100, 100)}, seed=7)
        w = store.params["w"].value
        bound = 1.0 / np.sqrt(100)
        assert abs(w.mean()) < 0.02
        assert np.abs(w).max() <= bound

    def test_named_streams_differ(self):
        store = seeded_init({"a": (16, 16), "b": (16, 16)}, seed=0)
        assert not np.array_equal(store.params["a"].value, store.params["b"].value)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = seeded_init({"enc.w": (6, 4), "enc.b": (4,), "head.w": (4, 2)}, seed=77)
        path = str(tmp_path / "params.bin")
        save_params(store, path)
        loaded = load_params(path)
        assert loaded.init_seed == 77
        assert list(loaded.params) == list(store.params)
        for name in store.params:
            assert np.array_equal(loaded.params[name].value, store.params[name].value)
        assert loaded.step_count == 0

    def test_corruption_detected(self, tmp_path):
        store = seeded_init({"w": (4, 4)}, seed=1)
        path = tmp_path / "params.bin"
        save_params(store, str(path))
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_params(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        store = seeded_init({"enc.w": (3, 3), "enc.b": (3,)}, seed=2)
        store.params["enc.b"].value[1] = bad
        path = str(tmp_path / "params.bin")
        save_params(store, path)
        with pytest.raises(CheckpointError, match="enc.b"):
            load_params(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"xx")
        with pytest.raises(CheckpointError):
            load_params(str(path))
