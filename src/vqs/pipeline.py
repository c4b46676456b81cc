"""Memory-evolution segmentation pipeline.

A query frame plus its mask seed a memory bank. Each stage takes its clip as
blocks of frames (see `run_stage`), fuses the bank into their features with
cross-attention, enhances the clip with a spatio-temporal self-attention
block, and decodes three mask candidates per frame (mask logits, a
predicted-IoU score, an occlusion score) from one logits node a block; the
decoder also fixes each frame's best candidate by predicted IoU. Non-final
stages mine high-confidence target masks and confusable distractor masks
around that best candidate, re-encode them as memory entries, and fuse them with
the original query memory under learned softmax importance weights to form
the next stage's bank. The final stage emits one mask per frame, gated on
the occlusion score.

Masks stay on the feature grid inside the pipeline: a candidate's mask is
the boolean grid of its logits above zero, and overlaps are exact integer
counts per patch. Run-length encoding appears only where masks enter (the
query mask) and where they leave (`finalize_predictions`).

Memory entries carry a scalar importance weight. Attention aggregates each
entry's contribution weighted by that scalar in both the softmax numerator
and denominator, so an entry weighted zero drops out exactly and halving a
duplicated entry's weight reproduces the original output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AttentionParams, Tensor
from .masks import (
    RleMask,
    ResponseSet,
    group_into_masklets,
    iou_from_areas,
    rle_decode,
    rle_encode,
)
from .optim import ParamStore, seeded_init

KIND_QUERY_INIT = "query_init"
KIND_TARGET = "target"
KIND_DISTRACTOR = "distractor"
ENTRY_KINDS = (KIND_QUERY_INIT, KIND_TARGET, KIND_DISTRACTOR)

NUM_CANDIDATES = 3  # fixed candidate count per frame


class PipelineConfigError(ValueError):
    """Raised for invalid pipeline configuration."""


@dataclass(frozen=True)
class PipelineConfig:
    num_stages: int = 2                        # K
    clip_len: int = 7                          # L
    num_candidates: int = NUM_CANDIDATES       # H, fixed
    num_targets: int = 2                       # n_t
    num_distractors: int = 1                   # n_d
    tau_target: float = 0.5
    tau_divergence: float = 0.5
    tau_score: float = 0.7
    patch_size: int = 8
    model_dim: int = 32
    num_heads: int = 2
    stage_weights: tuple[float, ...] = (0.5, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise PipelineConfigError("num_stages must be >= 1")
        if self.clip_len < 1:
            raise PipelineConfigError("clip_len must be >= 1")
        if self.num_candidates != NUM_CANDIDATES:
            raise PipelineConfigError(f"num_candidates is fixed at {NUM_CANDIDATES}")
        if self.num_targets < 0 or self.num_distractors < 0:
            raise PipelineConfigError("selection counts must be non-negative")
        for name in ("tau_target", "tau_divergence", "tau_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise PipelineConfigError(f"{name} must lie in [0, 1], got {value}")
        if len(self.stage_weights) != self.num_stages:
            raise PipelineConfigError(
                f"{len(self.stage_weights)} stage weights for {self.num_stages} stages"
            )
        if not all(np.isfinite(w) and w >= 0 for w in self.stage_weights):
            raise PipelineConfigError(
                f"stage weights (--gamma) must be finite and >= 0, got {list(self.stage_weights)}"
            )
        if self.patch_size < 1:
            raise PipelineConfigError("patch_size must be >= 1")
        if self.num_heads < 1:
            raise PipelineConfigError("num_heads must be >= 1")
        if self.model_dim < 2:
            raise PipelineConfigError("model_dim must be >= 2")
        if self.model_dim % self.num_heads != 0:
            raise PipelineConfigError("model_dim must be divisible by num_heads")
        if self.model_dim % 2 != 0:
            raise PipelineConfigError("model_dim must be even")
        if (size := 8 * sum(math.prod(shape) for shape in param_shapes(self).values())) > MAX_PARAM_BYTES:
            raise PipelineConfigError(f"patch_size {self.patch_size} and model_dim {self.model_dim} need {size} "
                                      f"bytes of parameters, more than the {MAX_PARAM_BYTES} allowed")

    @property
    def reduce_dim(self) -> int:
        return max(1, self.model_dim // 2)


def config_digest(options: dict) -> str:
    """sha256 of `options` as compact sorted-key JSON: a run's resolved settings."""
    payload = json.dumps(options, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --- Parameters ----------------------------------------------------------------


def param_shapes(cfg: PipelineConfig) -> dict[str, tuple[int, ...]]:
    d = cfg.model_dim
    p = cfg.patch_size
    h = NUM_CANDIDATES
    dr = cfg.reduce_dim
    shapes: dict[str, tuple[int, ...]] = {
        "patch_embed.w": (p * p * 3, d),
        "patch_embed.b": (d,),
        "mem_enc.w": (d + 1, d),
        "mem_enc.b": (d,),
        "dec_mask.w": (d, h),
        "dec_mask.b": (h,),
        "dec_score.w1": (d, d),
        "dec_score.b1": (d,),
        "dec_score.w2": (d, 2 * h),
        "dec_score.b2": (2 * h,),
        "amg_target.w1": (d, d),
        "amg_target.b1": (d,),
        "amg_target.w2": (d, dr),
        "amg_target.b2": (dr,),
        "amg_distractor.w1": (d, d),
        "amg_distractor.b1": (d,),
        "amg_distractor.w2": (d, dr),
        "amg_distractor.b2": (dr,),
        "amg_head3.w1": (d + 2 * dr, d),
        "amg_head3.b1": (d,),
        "amg_head3.w2": (d, 3),
        "amg_head3.b2": (3,),
        "amg_head2.w1": (d + dr, d),
        "amg_head2.b1": (d,),
        "amg_head2.w2": (d, 2),
        "amg_head2.b2": (2,),
    }
    for block in ("mem_attn", "stt_attn"):
        for proj in ("q", "k", "v", "o"):
            shapes[f"{block}.w{proj}"] = (d, d)
    for name, shape in (("w1", (d, d)), ("b1", (d,)), ("w2", (d, d)), ("b2", (d,))):
        shapes[f"stt_mlp.{name}"] = shape
    return shapes


def init_params(cfg: PipelineConfig) -> ParamStore:
    return seeded_init(param_shapes(cfg), cfg.seed)


def _attention_params(store: ParamStore, prefix: str) -> AttentionParams:
    return AttentionParams(
        wq=store[f"{prefix}.wq"], wk=store[f"{prefix}.wk"],
        wv=store[f"{prefix}.wv"], wo=store[f"{prefix}.wo"],
    )


def _mlp(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    hidden = ad.tanh(ad.linear(x, store[f"{prefix}.w1"], store[f"{prefix}.b1"]))
    return ad.linear(hidden, store[f"{prefix}.w2"], store[f"{prefix}.b2"])


# --- Frame and memory encoding ---------------------------------------------------


_PE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def positional_encoding(num_tokens: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal encoding over flattened grid positions."""
    key = (num_tokens, dim)
    if key not in _PE_CACHE:
        pos = np.arange(num_tokens, dtype=np.float64)[:, None]
        idx = np.arange((dim + 1) // 2, dtype=np.float64)[None, :]
        angles = pos / np.power(10000.0, 2.0 * idx / dim)
        pe = np.zeros((num_tokens, 2 * angles.shape[1]), dtype=np.float64)
        pe[:, 0::2] = np.sin(angles)
        pe[:, 1::2] = np.cos(angles)
        _PE_CACHE[key] = pe[:, :dim]
    return _PE_CACHE[key]


def feature_grid(frame_hw: tuple[int, int], patch_size: int) -> tuple[int, int]:
    h, w = frame_hw
    if h % patch_size or w % patch_size:
        raise PipelineConfigError(
            f"frame size {h}x{w} is not divisible by patch size {patch_size}"
        )
    return h // patch_size, w // patch_size


def _patchify(frames: Sequence[np.ndarray], patch_size: int) -> np.ndarray:
    """uint8 HxWx3 frames -> (frames*grid_h*grid_w, patch*patch*3) float64 in [0, 1].

    Each frame is scaled straight into its patch order: one float copy in all.
    """
    h, w, _ = frames[0].shape
    gh, gw = feature_grid((h, w), patch_size)
    out = np.empty((len(frames), gh, gw, patch_size, patch_size, 3))
    for frame, patches in zip(frames, out):
        np.divide(frame.reshape(gh, patch_size, gw, patch_size, 3).transpose(0, 2, 1, 3, 4),
                  255.0, out=patches)
    return out.reshape(-1, patch_size * patch_size * 3)


def encode_frame(frames: Sequence[np.ndarray], cfg: PipelineConfig, params: ParamStore) -> Tensor:
    """Patch flattening + linear projection + fixed positional term, for a block of frames.

    Returns the frames' row-major grid tokens one frame after another, of
    shape (frames*grid_h*grid_w, model_dim).
    """
    patches = ad.tensor(_patchify(frames, cfg.patch_size))
    projected = ad.linear(patches, params["patch_embed.w"], params["patch_embed.b"])
    pe = positional_encoding(patches.value.shape[0] // len(frames), cfg.model_dim)
    return ad.add(projected, ad.tensor(np.tile(pe, (len(frames), 1))))


def mask_patch_counts(mask: RleMask, patch_size: int) -> np.ndarray:
    """Foreground pixels per patch on the feature grid, as exact integers."""
    gh, gw = feature_grid(mask.shape, patch_size)
    grid = rle_decode(mask).reshape(gh, patch_size, gw, patch_size)
    return grid.sum(axis=(1, 3), dtype=np.int64)


def grid_iou(grid: np.ndarray, counts: np.ndarray, patch_area: int = 1) -> float:
    """IoU of a patch-replicated boolean grid against another mask's patch counts.

    Each True cell of `grid` covers `patch_area` pixels; `counts` holds the
    other mask's foreground pixels per patch (a boolean grid at patch_area 1
    counts itself). Every term is an exact integer, so this equals `mask_iou`
    of the pixel masks bit for bit; two empty masks give 1.0.
    """
    return iou_from_areas(int(counts[grid].sum()), int(grid.sum()) * patch_area, int(counts.sum()))


@dataclass
class MemoryEntry:
    """One bank entry: encoded tokens, its role, and its importance weight."""

    tokens: Tensor
    kind: str
    scale: Tensor

    def __post_init__(self) -> None:
        if self.kind not in ENTRY_KINDS:
            raise PipelineConfigError(f"unknown memory entry kind {self.kind!r}")


@dataclass
class MemoryBank:
    entries: tuple[MemoryEntry, ...]

    def __post_init__(self) -> None:
        self.entries = tuple(self.entries)
        if not any(e.kind == KIND_QUERY_INIT for e in self.entries):
            raise PipelineConfigError("memory bank must contain a query_init entry")

    def query_init(self) -> MemoryEntry:
        return next(e for e in self.entries if e.kind == KIND_QUERY_INIT)


def encode_memory(
    features: Tensor,
    fractions: np.ndarray,
    params: ParamStore,
    kind: str = KIND_QUERY_INIT,
) -> MemoryEntry:
    """Fuse a frame's tokens with a mask's per-patch foreground fractions."""
    n = features.value.shape[0]
    joined = ad.concat([features, ad.tensor(fractions.reshape(n, 1))], axis=1)
    tokens = ad.linear(joined, params["mem_enc.w"], params["mem_enc.b"])
    return MemoryEntry(tokens=tokens, kind=kind, scale=ad.tensor(1.0))


def memory_attention(
    features: Tensor,
    bank: MemoryBank,
    cfg: PipelineConfig,
    params: ParamStore,
) -> Tensor:
    """Cross-attention from a block's frame tokens onto the weighted memory bank.

    Each entry's exp-scores and value rows are multiplied by its scalar weight
    in both the numerator and the normalizer; entries with weight exactly zero
    are skipped, so they cannot perturb the result even at the last bit.
    """
    if not bank.entries:
        raise PipelineConfigError("memory bank is empty")
    active = [e for e in bank.entries if float(e.scale.value) != 0.0]
    if not active:
        raise PipelineConfigError("all memory entries have zero scale")
    attended = ad.attention(features, [e.tokens for e in active], [e.scale for e in active],
                            _attention_params(params, "mem_attn"), cfg.num_heads)
    return ad.add(features, attended)


def stt_block(clip_features: Sequence[Tensor], cfg: PipelineConfig, params: ParamStore) -> list[Tensor]:
    """Self-attention + MLP with residuals over the flattened clip tokens, given
    and returned as blocks of frames; a clip of one block is never split."""
    if not clip_features:
        raise PipelineConfigError("empty clip")
    x = ad.concat(list(clip_features), axis=0) if len(clip_features) > 1 else clip_features[0]
    x = ad.add(x, ad.attention(x, [x], None, _attention_params(params, "stt_attn"), cfg.num_heads))
    x = ad.add(x, _mlp(x, params, "stt_mlp"))
    if len(clip_features) == 1:
        return [x]
    starts = np.cumsum([0] + [f.value.shape[0] for f in clip_features]).tolist()
    return [ad.narrow(x, 0, a, b - a) for a, b in zip(starts, starts[1:])]


# --- Candidates -------------------------------------------------------------------


@dataclass(frozen=True)
class MaskCandidate:
    """One decoded hypothesis as values: mask logits on the feature grid, their
    binarized mask (logits above zero, computed once for the decoder's whole
    block), the predicted IoU and the occlusion logit (positive means the
    target is present)."""

    logits: np.ndarray           # (grid_h, grid_w)
    grid: np.ndarray             # (grid_h, grid_w) bool
    iou: float
    occlusion: float


@dataclass
class FrameCandidates:
    """A frame's candidates and `best`, the index of the highest predicted IoU
    (the first of equal maxima): the one decision that mining and emission read.

    `occlusion_node(h)` builds candidate h's occlusion-logit tape node and
    `mask_nodes(h)` its (mask logits, IoU) nodes: a loss asks only for the
    candidate it routes to, and for its mask nodes only where the frame has gt.
    """

    frame_index: int
    candidates: tuple[MaskCandidate, ...]
    occlusion_node: Callable[[int], Tensor]
    mask_nodes: Callable[[int], tuple[Tensor, Tensor]]
    best: int = field(init=False)

    def __post_init__(self) -> None:
        ious = [c.iou for c in self.candidates]
        self.best = ious.index(max(ious))  # np.argmax costs 10x on 3 items


def _frame_rows(block: Tensor, tokens: int) -> list[Tensor]:
    """A block's tokens split into its frames; a one-frame block is itself."""
    n = block.value.shape[0] // tokens
    return [block] if n == 1 else [ad.narrow(block, 0, i * tokens, tokens) for i in range(n)]


def decode_masks(
    features: Tensor,
    grid_hw: tuple[int, int],
    cfg: PipelineConfig,
    params: ParamStore,
    frame_index: int = 0,
) -> list[FrameCandidates]:
    """Per-token mask logits and pooled-feature quality scores, three heads, for
    a block of frames from `frame_index` on: one logits node, one score row a frame.

    Raises NonFiniteValueError naming the first frame whose logits or scores
    hold inf or nan: every stage output passes through here, so this is where
    a forward pass that overflowed anywhere upstream is caught.
    """
    tokens = grid_hw[0] * grid_hw[1]
    logits = ad.linear(features, params["dec_mask.w"], params["dec_mask.b"])
    scores = [_mlp(ad.mean_axis(f, 0, keepdims=True), params, "dec_score")
              for f in _frame_rows(features, tokens)]
    score_rows = np.concatenate([s.value for s in scores])
    finite = np.isfinite(logits.value).reshape(len(scores), -1).all(axis=1)
    finite &= np.isfinite(score_rows).all(axis=1)
    if not finite.all():
        raise ad.NonFiniteValueError(
            f"non-finite decoder output for frame {frame_index + int(np.argmin(finite))}")
    logit_grids = logits.value.reshape(len(scores), *grid_hw, NUM_CANDIDATES)
    grids = logit_grids > 0
    ious = ad.stable_sigmoid(score_rows[:, 0::2]).tolist()
    occlusions = score_rows[:, 1::2].tolist()

    def frame(i: int) -> FrameCandidates:
        # score row i holds candidate h's IoU logit at 2h and its occlusion logit at 2h + 1
        def occlusion_node(h: int) -> Tensor:
            return ad.reshape(ad.narrow(scores[i], 1, 2 * h + 1, 1), ())

        def mask_nodes(h: int) -> tuple[Tensor, Tensor]:
            rows = _frame_rows(logits, tokens)[i]
            return (ad.reshape(ad.narrow(rows, 1, h, 1), grid_hw),
                    ad.reshape(ad.sigmoid(ad.narrow(scores[i], 1, 2 * h, 1)), ()))

        cands = (MaskCandidate(logit_grids[i, :, :, h], grids[i, :, :, h], ious[i][h], occlusions[i][h])
                 for h in range(NUM_CANDIDATES))
        return FrameCandidates(frame_index + i, tuple(cands), occlusion_node, mask_nodes)

    return [frame(i) for i in range(len(scores))]


def binarize_candidate(candidate: MaskCandidate, frame_hw: tuple[int, int]) -> RleMask:
    """Threshold logits at zero, then patch-replicate up to frame resolution."""
    grid = candidate.grid
    gh, gw = grid.shape
    h, w = frame_hw
    if h % gh or w % gw:
        raise PipelineConfigError(f"frame {h}x{w} not a multiple of grid {gh}x{gw}")
    up = np.repeat(np.repeat(grid, h // gh, axis=0), w // gw, axis=1)
    return rle_encode(up)


# --- Selection --------------------------------------------------------------------


@dataclass(frozen=True)
class SelectedCandidate:
    """Provenance of one mined memory entry."""

    frame_index: int
    candidate_index: int
    iou_score: float
    divergence: Optional[float]
    rank_score: float

    def as_dict(self) -> dict:
        out = {
            "frame": self.frame_index,
            "candidate": self.candidate_index,
            "iou": round(self.iou_score, 6),
            "rank": round(self.rank_score, 6),
        }
        if self.divergence is not None:
            out["divergence"] = round(self.divergence, 6)
        return out


def _mine(
    picks: Sequence[tuple[int, int, Optional[float], float]],
    kind: str,
    stage_candidates: Sequence[FrameCandidates],
    clip_features: Sequence[Tensor],
    params: ParamStore,
) -> tuple[list[MemoryEntry], list[SelectedCandidate]]:
    """Encode each (clip frame, candidate, divergence, rank score) pick as a
    `kind` memory entry, with its provenance."""
    entries: list[MemoryEntry] = []
    provenance: list[SelectedCandidate] = []
    for local_idx, cand_idx, divergence, rank in picks:
        frame = stage_candidates[local_idx]
        cand = frame.candidates[cand_idx]
        entries.append(encode_memory(clip_features[local_idx], cand.grid.astype(np.float64), params, kind))
        provenance.append(SelectedCandidate(frame.frame_index, cand_idx, cand.iou, divergence, rank))
    return entries, provenance


def tfg_select(
    stage_candidates: Sequence[FrameCandidates],
    clip_features: Sequence[Tensor],
    cfg: PipelineConfig,
    params: ParamStore,
) -> tuple[list[MemoryEntry], list[SelectedCandidate]]:
    """Mine up to n_t confident target masks and encode them as memory.

    Per frame the best candidate survives; those below tau_target are
    dropped; the rest rank by predicted IoU with lower frame index breaking
    ties.
    """
    picks = []
    for local_idx, frame in enumerate(stage_candidates):
        iou = frame.candidates[frame.best].iou
        if iou >= cfg.tau_target:
            picks.append((local_idx, frame.best, None, iou))
    picks.sort(key=lambda pick: (-pick[3], pick[0]))
    return _mine(picks[: cfg.num_targets], KIND_TARGET, stage_candidates, clip_features, params)


def dfg_select(
    stage_candidates: Sequence[FrameCandidates],
    clip_features: Sequence[Tensor],
    cfg: PipelineConfig,
    params: ParamStore,
) -> tuple[list[MemoryEntry], list[SelectedCandidate]]:
    """Mine up to n_d confusable alternative masks as distractor memory.

    For each frame's non-best candidates, divergence = 1 - IoU against the
    best candidate's binarized mask on the feature grid. Alternatives qualify
    with divergence strictly above tau_divergence and predicted IoU strictly
    above tau_score, then rank by divergence * IoU (ties: lower frame, lower
    candidate index).
    An empty selection is valid.
    """
    picks = []
    for local_idx, frame in enumerate(stage_candidates):
        best_grid = frame.candidates[frame.best].grid
        for cand_idx, cand in enumerate(frame.candidates):
            if cand_idx == frame.best:
                continue
            divergence = 1.0 - grid_iou(cand.grid, best_grid)
            if divergence > cfg.tau_divergence and cand.iou > cfg.tau_score:
                picks.append((local_idx, cand_idx, divergence, divergence * cand.iou))
    picks.sort(key=lambda pick: (-pick[3], pick[0], pick[1]))
    return _mine(picks[: cfg.num_distractors], KIND_DISTRACTOR, stage_candidates, clip_features, params)


# --- Adaptive memory fusion ----------------------------------------------------------


def _pool_entries(entries: Sequence[MemoryEntry], dim: int) -> Tensor:
    """Mean over all tokens of all entries; zeros when the group is empty."""
    if not entries:
        return ad.tensor(np.zeros((1, dim)))
    stacked = (
        ad.concat([e.tokens for e in entries], axis=0) if len(entries) > 1 else entries[0].tokens
    )
    return ad.mean_axis(stacked, 0, keepdims=True)


def amg_fuse(
    init_entry: MemoryEntry,
    targets: Sequence[MemoryEntry],
    distractors: Sequence[MemoryEntry],
    cfg: PipelineConfig,
    params: ParamStore,
) -> MemoryBank:
    """Weight query/target/distractor memory with a learned softmax simplex.

    With no distractors a separate two-slot head weighs query and target
    memory only. With nothing mined at all the untouched query bank returns.
    """
    if not targets and not distractors:
        return MemoryBank((init_entry,))
    d = cfg.model_dim
    pooled_init = _pool_entries([init_entry], d)
    target_reduced = _mlp(_pool_entries(targets, d), params, "amg_target")
    if distractors:
        distractor_reduced = _mlp(_pool_entries(distractors, d), params, "amg_distractor")
        joined = ad.concat([pooled_init, target_reduced, distractor_reduced], axis=1)
        logits = _mlp(joined, params, "amg_head3")
    else:
        joined = ad.concat([pooled_init, target_reduced], axis=1)
        logits = _mlp(joined, params, "amg_head2")
    weights = ad.softmax(logits, axis=-1)

    def weight_at(i: int) -> Tensor:
        return ad.reshape(ad.narrow(weights, 1, i, 1), ())

    entries = [MemoryEntry(init_entry.tokens, KIND_QUERY_INIT, weight_at(0))]
    for entry in targets:
        entries.append(MemoryEntry(entry.tokens, KIND_TARGET, weight_at(1)))
    for entry in distractors:
        entries.append(MemoryEntry(entry.tokens, KIND_DISTRACTOR, weight_at(2)))
    return MemoryBank(tuple(entries))


def amg_weights(bank: MemoryBank) -> dict[str, float]:
    """The distinct importance weights by entry kind (for inspection/tests)."""
    out: dict[str, float] = {}
    for entry in bank.entries:
        out.setdefault(entry.kind, float(entry.scale.value))
    return out


# --- Stages and whole-video inference --------------------------------------------------


@dataclass
class StageOutput:
    candidates: tuple[FrameCandidates, ...]
    targets: tuple[SelectedCandidate, ...]
    distractors: tuple[SelectedCandidate, ...]
    new_bank: Optional[MemoryBank]


def run_stage(
    frames: Sequence[np.ndarray],
    bank: MemoryBank,
    cfg: PipelineConfig,
    params: ParamStore,
    is_final: bool,
    frame_offset: int = 0,
) -> StageOutput:
    """One pipeline stage over a clip of at most clip_len frames.

    Each layer takes the clip as blocks of frames, one (frames*tokens, d)
    tensor a block: the whole clip under no_record, so memory attention projects
    the bank once a clip, and one frame when recording, since a block's GEMM
    sums parameter gradients over all its rows in another order. Values do not
    depend on the block size: stacked rows kept every GEMM row's bits at 4 to
    1,024 tokens a frame and inner dimensions 16 to 768, but not at 1 or 2
    tokens a frame (numpy sends a one-row product to gemv), which no pinned
    output uses. The pooled score MLP stays one one-row product a frame.
    """
    if not frames:
        raise PipelineConfigError("empty clip")
    if len(frames) > cfg.clip_len:
        raise PipelineConfigError(f"clip of {len(frames)} frames exceeds clip_len {cfg.clip_len}")
    grid_hw = feature_grid(frames[0].shape[:2], cfg.patch_size)
    block = 1 if ad.recording() else len(frames)
    starts = range(0, len(frames), block)
    features = [encode_frame(frames[i:i + block], cfg, params) for i in starts]
    attended = [memory_attention(f, bank, cfg, params) for f in features]
    enhanced = stt_block(attended, cfg, params)
    candidates = tuple(
        fc for i, f in zip(starts, enhanced)
        for fc in decode_masks(f, grid_hw, cfg, params, frame_index=frame_offset + i)
    )
    if is_final:
        return StageOutput(candidates=candidates, targets=(), distractors=(), new_bank=None)
    frame_features = [f for b in features for f in _frame_rows(b, grid_hw[0] * grid_hw[1])]
    target_entries, target_prov = tfg_select(candidates, frame_features, cfg, params)
    distractor_entries, distractor_prov = dfg_select(candidates, frame_features, cfg, params)
    new_bank = amg_fuse(bank.query_init(), target_entries, distractor_entries, cfg, params)
    return StageOutput(
        candidates=candidates,
        targets=tuple(target_prov),
        distractors=tuple(distractor_prov),
        new_bank=new_bank,
    )


def run_clip(
    frames: Sequence[np.ndarray],
    init_entry: MemoryEntry,
    cfg: PipelineConfig,
    params: ParamStore,
    frame_offset: int = 0,
) -> list[StageOutput]:
    """All num_stages stages over one clip, evolving the bank in between."""
    bank = MemoryBank((init_entry,))
    outputs: list[StageOutput] = []
    for k in range(cfg.num_stages):
        is_final = k == cfg.num_stages - 1
        out = run_stage(frames, bank, cfg, params, is_final=is_final, frame_offset=frame_offset)
        outputs.append(out)
        if not is_final:
            bank = out.new_bank
    return outputs


def finalize_predictions(
    candidates: Sequence[FrameCandidates],
    frame_hw: tuple[int, int],
) -> list[Optional[RleMask]]:
    """Highest-scoring candidate per frame, emitted only when not occluded."""
    results: list[Optional[RleMask]] = []
    for frame in candidates:
        cand = frame.candidates[frame.best]
        if cand.occlusion > 0.0:
            results.append(binarize_candidate(cand, frame_hw))
        else:
            results.append(None)
    return results


# The most bytes that one clip's attention scores may take at once: the STT
# block holds every head's matrix together, num_heads * 8 * (frames * grid_h *
# grid_w)**2 bytes, and training keeps them for its backward pass; memory
# attention holds every head's 1 + n_t + n_d entries of (frames * grid_h *
# grid_w) x (grid_h * grid_w) scores together. A video whose clips would need
# more is rejected before anything is allocated. 1 GiB admits a 256x256 clip
# of 7 frames at the default flags (822 MB in STT, 470 MB in memory
# attention); a 512x512 one would need 13 GB.
MAX_SCORE_BYTES = 1 << 30
MAX_PARAM_BYTES = 1 << 30  # float64 parameters; 1 GiB admits model_dim up to 2,686 at patch_size 8


def clip_spans(num_frames: int, clip_len: int) -> list[tuple[int, int]]:
    """Consecutive non-overlapping [start, stop) spans of at most clip_len."""
    return [(s, min(s + clip_len, num_frames)) for s in range(0, num_frames, clip_len)]


def run_video(
    frames: Sequence[np.ndarray],
    query_frame: np.ndarray,
    query_mask: RleMask,
    cfg: PipelineConfig,
    params: ParamStore,
) -> Iterator[tuple[int, int, list[StageOutput]]]:
    """Check a video's inputs, encode its query once, then run it clip by clip.

    Yields `(start, stop, stage_outputs)` for each [start, stop) clip span.
    Inference and training both run their videos through here.
    """
    if not frames:
        raise PipelineConfigError("video has no frames")
    if query_mask.area() == 0:
        raise PipelineConfigError("query mask is empty")
    frame_hw = frames[0].shape[:2]
    if query_frame.shape[:2] != frame_hw:
        raise PipelineConfigError(
            f"query frame {query_frame.shape[:2]} does not match video frames {frame_hw}"
        )
    if query_mask.shape != frame_hw:
        raise PipelineConfigError(
            f"query mask {query_mask.shape} does not match video frames {frame_hw}"
        )
    gh, gw = feature_grid(frame_hw, cfg.patch_size)
    clip = min(cfg.clip_len, len(frames))
    entries = 1 + cfg.num_targets + cfg.num_distractors
    for what, score_bytes, held in (
        ("attention", cfg.num_heads * 8 * (clip * gh * gw) ** 2, f"{cfg.num_heads} heads"),
        ("memory attention", cfg.num_heads * entries * 8 * clip * (gh * gw) ** 2,
         f"{cfg.num_heads} heads of {entries} memory entries"),
    ):
        if score_bytes > MAX_SCORE_BYTES:
            raise PipelineConfigError(
                f"{what} over clips of {clip} frames of {gh}x{gw} patches needs {score_bytes} "
                f"bytes of scores for {held}, above the limit of {MAX_SCORE_BYTES}; use a "
                f"larger --patch-size or a smaller --clip-len"
            )
    query_features = encode_frame([query_frame], cfg, params)
    fractions = mask_patch_counts(query_mask, cfg.patch_size) / cfg.patch_size**2
    init_entry = encode_memory(query_features, fractions, params, KIND_QUERY_INIT)
    for start, stop in clip_spans(len(frames), cfg.clip_len):
        yield start, stop, run_clip(frames[start:stop], init_entry, cfg, params, frame_offset=start)


@ad.no_record()
def infer_video(
    frames: Sequence[np.ndarray],
    query_frame: np.ndarray,
    query_mask: RleMask,
    cfg: PipelineConfig,
    params: ParamStore,
    video_id: str = "video",
) -> tuple[ResponseSet, dict]:
    """Segment all query-object occurrences in a video, clip by clip.

    Returns the assembled response plus a provenance block recording the
    mined target/distractor candidates of every non-final stage. Runs in
    autodiff's no-record mode: nothing here is ever differentiated.
    """
    per_frame: list[Optional[RleMask]] = []
    clip_records = []
    for start, stop, stage_outputs in run_video(frames, query_frame, query_mask, cfg, params):
        per_frame.extend(finalize_predictions(stage_outputs[-1].candidates, frames[0].shape[:2]))
        clip_records.append(
            {
                "start": start,
                "end": stop - 1,
                "stages": [
                    {
                        "targets": [s.as_dict() for s in out.targets],
                        "distractors": [s.as_dict() for s in out.distractors],
                    }
                    for out in stage_outputs[:-1]
                ],
            }
        )
    response = ResponseSet(video_id, group_into_masklets(per_frame))
    provenance = {"config_digest": config_digest(asdict(cfg)), "seed": cfg.seed, "clips": clip_records}
    return response, provenance
