"""Named parameter store, deterministic initialization, AdamW, checkpoints."""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Tensor, tensor
from .synth import regular_file_bytes, write_regular_file

ADAMW_DEFAULTS = {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "weight_decay": 0.01}

_CKPT_MAGIC = b"VQSCKPT1"
_CKPT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for unreadable or corrupted checkpoint files."""


@dataclass
class ParamStore:
    """Named parameter tensors plus their AdamW moment buffers."""

    params: dict[str, Tensor]
    exp_avg: dict[str, np.ndarray] = field(default_factory=dict)
    exp_avg_sq: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0
    init_seed: int = 0

    def __post_init__(self) -> None:
        names = list(self.params)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        for name, p in self.params.items():
            if name not in self.exp_avg:
                self.exp_avg[name] = np.zeros_like(p.value)
            if name not in self.exp_avg_sq:
                self.exp_avg_sq[name] = np.zeros_like(p.value)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self.params.items()}


def _stream_seed(seed: int, name: str) -> list[int]:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return [seed & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest[:8], "little")]


def seeded_init(shapes: Mapping[str, tuple[int, ...]], seed: int) -> ParamStore:
    """Initialize parameters deterministically, one named stream per tensor.

    Matrices draw uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with fan_in the
    first dimension; 1-D tensors are biases and start at zero.
    """
    params: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        shape = tuple(int(s) for s in shape)
        if len(shape) == 1:
            value = np.zeros(shape, dtype=np.float64)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            rng = np.random.default_rng(np.random.SeedSequence(_stream_seed(seed, name)))
            value = rng.uniform(-bound, bound, size=shape)
        params[name] = tensor(value, name)
    return ParamStore(params=params, init_seed=seed)


def adamw_step(
    store: ParamStore,
    grads: Mapping[str, np.ndarray],
    lr: float,
    beta1: float = ADAMW_DEFAULTS["beta1"],
    beta2: float = ADAMW_DEFAULTS["beta2"],
    eps: float = ADAMW_DEFAULTS["eps"],
    weight_decay: float = ADAMW_DEFAULTS["weight_decay"],
) -> ParamStore:
    """One decoupled-weight-decay Adam update with bias correction, in place."""
    for name, grad in grads.items():
        if name not in store.params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        if np.shape(grad) != store.params[name].value.shape:
            raise ValueError(
                f"gradient shape {np.shape(grad)} does not match parameter "
                f"{name!r} of shape {store.params[name].value.shape}"
            )
    store.step_count += 1
    t = store.step_count
    for name, p in store.params.items():
        grad = np.asarray(grads.get(name, 0.0), dtype=np.float64)
        m = store.exp_avg[name]
        v = store.exp_avg_sq[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.value -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.value)
    return store


def save_params(store: ParamStore, path: str) -> None:
    """Self-describing binary checkpoint: header, name table, float64 payload, crc32.

    Only parameter values are persisted; optimizer moments restart at zero on
    load.
    """
    body = bytearray()
    body += _CKPT_MAGIC
    body += struct.pack("<IQ I", _CKPT_VERSION, store.init_seed & 0xFFFFFFFFFFFFFFFF, len(store.params))
    for name, p in store.params.items():
        raw = name.encode("utf-8")
        body += struct.pack("<H", len(raw))
        body += raw
        body += struct.pack("<B", p.value.ndim)
        for dim in p.value.shape:
            body += struct.pack("<Q", dim)
    for p in store.params.values():
        body += np.ascontiguousarray(p.value, dtype="<f8").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    write_regular_file(path, bytes(body))


def load_params(path: str) -> ParamStore:
    blob = regular_file_bytes(path)
    if len(blob) < len(_CKPT_MAGIC) + 20:
        raise CheckpointError(f"{path}: truncated checkpoint")
    payload, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointError(f"{path}: checksum mismatch")
    if payload[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    offset = len(_CKPT_MAGIC)
    version, seed, count = struct.unpack_from("<IQ I", payload, offset)
    offset += struct.calcsize("<IQ I")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", payload, offset)
        offset += 2
        name = payload[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        dims = struct.unpack_from(f"<{ndim}Q", payload, offset)
        offset += 8 * ndim
        shapes.append((name, tuple(int(d) for d in dims)))
    params: dict[str, Tensor] = {}
    for name, shape in shapes:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset).reshape(shape)
        offset += 8 * n
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: non-finite value in parameter {name}")
        params[name] = tensor(arr.astype(np.float64, copy=True), name)
    if offset != len(payload):
        raise CheckpointError(f"{path}: trailing bytes in payload")
    return ParamStore(params=params, init_seed=int(seed))
