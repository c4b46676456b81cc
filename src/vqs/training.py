"""Training objective and the desk-scale single-scene overfit trainer.

Each frame supervises only the candidate whose binarized mask best overlaps
the ground truth (lowest index on ties; overlaps are counted exactly on the
feature grid): soft dice and mask BCE on the sigmoid logits against the
patch-fraction downsampled gt, an L1 penalty on the predicted-IoU head
against the realized IoU, and BCE of the occlusion score against a presence
indicator. Frames without ground truth train only
the occlusion head. Stage losses sum per frame and combine under the
per-stage weights.
"""

from __future__ import annotations

import csv
import io
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .masks import rle_encode
from .optim import ADAMW_DEFAULTS, ParamStore, adamw_step, seeded_init
from .pipeline import (
    FrameCandidates,
    MemoryBank,
    PipelineConfig,
    encode_frame,
    encode_memory,
    grid_iou,
    mask_patch_counts,
    param_shapes,
    run_stage,
    run_video,
)
from .synth import SceneConfigError, SceneRecord, write_regular_file


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, what: str = "loss"):
        self.step = step
        super().__init__(f"non-finite {what} at step {step}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-frame loss components (floats) plus the differentiable total."""

    dice: float
    mask_bce: float
    iou_head: float
    occlusion_bce: float
    total: float
    node: Tensor


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 100
    lr: float = 5e-6
    beta1: float = ADAMW_DEFAULTS["beta1"]
    beta2: float = ADAMW_DEFAULTS["beta2"]
    eps: float = ADAMW_DEFAULTS["eps"]
    weight_decay: float = ADAMW_DEFAULTS["weight_decay"]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        for name, ok, rule in (
            ("lr", np.isfinite(self.lr) and self.lr >= 0, "finite and >= 0"),
            ("weight_decay", np.isfinite(self.weight_decay) and self.weight_decay >= 0, "finite and >= 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("eps", np.isfinite(self.eps) and self.eps > 0, "finite and > 0"),
        ):
            if not ok:
                raise ValueError(f"--{name.replace('_', '-')} must be {rule}, got {getattr(self, name)}")


def _routed_candidate(candidates: FrameCandidates, gt_counts: np.ndarray,
                      patch_size: int) -> tuple[int, float]:
    """Candidate index with max realized IoU against gt, and that IoU.

    `gt_counts` holds the gt's foreground pixels per patch (all zero without gt).
    """
    best_idx, best_iou = 0, -1.0
    for idx, cand in enumerate(candidates.candidates):
        iou = grid_iou(cand.grid, gt_counts, patch_size * patch_size)
        if iou > best_iou:
            best_idx, best_iou = idx, iou
    return best_idx, best_iou


def gt_patch_counts(scene: SceneRecord, patch_size: int) -> dict[int, np.ndarray]:
    """Foreground pixels per patch of each frame's non-empty gt mask, by frame."""
    return {t: mask_patch_counts(mask, patch_size)
            for t, mask in scene.gt.frame_masks().items() if mask.area() > 0}


def frame_loss(
    candidates: FrameCandidates,
    gt_counts: Optional[np.ndarray],
    cfg: PipelineConfig,
) -> LossBreakdown:
    """Best-candidate-routed supervision for one frame.

    `gt_counts` is the frame's entry of `gt_patch_counts`, None when its gt
    has no foreground; such a frame builds only its routed candidate's
    occlusion node.
    """
    present = gt_counts is not None
    if not present:
        gt_counts = np.zeros(candidates.candidates[0].grid.shape, dtype=np.int64)
    idx, actual_iou = _routed_candidate(candidates, gt_counts, cfg.patch_size)
    occ_target = ad.tensor(1.0 if present else 0.0)
    occlusion_node = ad.bce_with_logits(candidates.occlusion_node(idx), occ_target)
    occlusion_bce = float(occlusion_node.value)
    if not present:
        return LossBreakdown(0.0, 0.0, 0.0, occlusion_bce, occlusion_bce, occlusion_node)

    mask_logits, iou_score = candidates.mask_nodes(idx)
    g = ad.tensor(gt_counts / (cfg.patch_size * cfg.patch_size))
    p = ad.sigmoid(mask_logits)
    overlap = ad.sum_all(ad.multiply(p, g))
    denom = ad.add(ad.sum_all(p), ad.sum_all(g))
    dice_node = ad.subtract(ad.tensor(1.0), ad.divide(ad.scale(overlap, 2.0), denom))
    bce_node = ad.mean_all(ad.bce_with_logits(mask_logits, g))
    iou_node = ad.abs_(ad.subtract(iou_score, ad.tensor(actual_iou)))
    total = ad.add(ad.add(ad.add(occlusion_node, dice_node), bce_node), iou_node)
    return LossBreakdown(
        dice=float(dice_node.value),
        mask_bce=float(bce_node.value),
        iou_head=float(iou_node.value),
        occlusion_bce=occlusion_bce,
        total=float(total.value),
        node=total,
    )


def total_loss(
    stage_losses: Sequence[Sequence[LossBreakdown]],
    stage_weights: Sequence[float],
) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum over stages of per-frame loss sums."""
    if len(stage_losses) != len(stage_weights):
        raise ValueError(
            f"{len(stage_weights)} stage weights for {len(stage_losses)} stages of losses"
        )
    node: Optional[Tensor] = None
    aggregate = {"dice": 0.0, "mask_bce": 0.0, "iou_head": 0.0, "occlusion_bce": 0.0}
    for weight, losses in zip(stage_weights, stage_losses):
        for loss in losses:
            term = ad.scale(loss.node, weight)
            node = term if node is None else ad.add(node, term)
            for key in aggregate:
                aggregate[key] += weight * getattr(loss, key)
    if node is None:
        node = ad.tensor(0.0)
    aggregate["total"] = float(node.value)
    return node, aggregate


@dataclass(frozen=True)
class CurvePoint:
    step: int
    total: float
    dice: float
    mask_bce: float
    iou_head: float
    occlusion_bce: float


def write_curve_csv(curve: Sequence[CurvePoint], path: str) -> None:
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["step", "total", "dice", "mask_bce", "iou_head", "occ_bce"])
    for pt in curve:
        writer.writerow(
            [pt.step, f"{pt.total:.10g}", f"{pt.dice:.10g}", f"{pt.mask_bce:.10g}",
             f"{pt.iou_head:.10g}", f"{pt.occlusion_bce:.10g}"]
        )
    write_regular_file(path, text.getvalue().encode())


def scene_losses(
    scene: SceneRecord,
    cfg: PipelineConfig,
    params: ParamStore,
    gt_counts: dict[int, np.ndarray],
) -> list[list[LossBreakdown]]:
    """Forward all stages over all clips of a scene; per-stage frame losses.

    `gt_counts` is `gt_patch_counts(scene, cfg.patch_size)`, which stays the
    same for every step of a training run.
    """
    per_stage: list[list[LossBreakdown]] = [[] for _ in range(cfg.num_stages)]
    video = run_video(scene.frames, scene.query_frame, scene.query_mask, cfg, params)
    for _, _, stage_outputs in video:
        for stage_idx, stage_out in enumerate(stage_outputs):
            for frame_cands in stage_out.candidates:
                per_stage[stage_idx].append(
                    frame_loss(frame_cands, gt_counts.get(frame_cands.frame_index), cfg)
                )
    return per_stage


# The largest relative error a gradient check may show; fixed, never tuned to a result.
GRAD_CHECK_BOUND = 1e-4


def _leaf(rng: np.random.Generator, shape, name: Optional[str] = None, scale=1.0, shift=0.0) -> Tensor:
    """Normal draws times `scale` plus `shift`; a named leaf is a checked parameter."""
    return ad.tensor(rng.normal(size=shape) * scale + shift, name=name)


def _probe(rng: np.random.Generator, node: Tensor) -> Tensor:
    """sum(node * r) for a random constant r: a loss with a random gradient at node."""
    return ad.sum_all(ad.multiply(node, _leaf(rng, node.shape)))


def _attention(rng: np.random.Generator) -> Tensor:
    x = _leaf(rng, (3, 4), "x")
    out = ad.attention(x, [x], None, ad.AttentionParams(*(_leaf(rng, (4, 4), f"w{p}") for p in "qkvo")), 2)
    return ad.mean_all(ad.multiply(out, out))


def _attention_heads_weighted(rng: np.random.Generator) -> Tensor:
    """Two heads over three scalar-weighted key/value sets of different lengths,
    the last two sharing one weight."""
    kv_sets = [(_leaf(rng, (n, 4), f"k{i}"), _leaf(rng, (n, 4), f"v{i}")) for i, n in enumerate((2, 4, 3))]
    shared = ad.tensor(0.3, name="w1")
    weights = [ad.tensor(1.0, name="w0"), shared, shared]
    return _probe(rng, ad.attention_heads(_leaf(rng, (3, 4), "q"), kv_sets, weights, [slice(0, 2), slice(2, 4)]))


def _stage_frame_loss(rng: np.random.Generator) -> Tensor:
    """One pipeline stage and its routed frame losses on 8x8 frames at model dim 8."""
    cfg = PipelineConfig(num_stages=1, clip_len=4, patch_size=4, model_dim=8, num_heads=2,
                         stage_weights=(1.0,), seed=int(rng.integers(2**31)))
    store = seeded_init(param_shapes(cfg), cfg.seed)
    frames = [rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8) for _ in range(3)]
    gt_grid = (rng.random((8, 8)) < 0.4).astype(np.uint8)
    gt_grid[0, 0] = 1
    gt_counts = mask_patch_counts(rle_encode(gt_grid), cfg.patch_size)
    init_entry = encode_memory(encode_frame(frames[:1], cfg, store), gt_counts / cfg.patch_size**2, store)
    out = run_stage(frames, MemoryBank((init_entry,)), cfg, store, is_final=True)
    losses = [frame_loss(fc, gt_counts if fc.frame_index != 1 else None, cfg) for fc in out.candidates]
    return total_loss([losses], (1.0,))[0]


# Every op and fused node the model trains through, and one pipeline stage
# composed of them: name -> graph(rng) -> scalar loss.
GRADIENT_CHECKS: dict[str, Callable[[np.random.Generator], Tensor]] = {
    "add": lambda r: ad.sum_all(ad.add(_leaf(r, (3, 4), "a"), _leaf(r, (3, 4), "b"))),
    "add_broadcast": lambda r: ad.sum_all(ad.add(_leaf(r, (3, 4), "a"), _leaf(r, (4,), "b"))),
    "subtract": lambda r: ad.sum_all(ad.subtract(_leaf(r, (2, 5), "a"), _leaf(r, (2, 5), "b"))),
    "multiply": lambda r: ad.sum_all(ad.multiply(_leaf(r, (3, 3), "a"), _leaf(r, (3, 3), "b"))),
    "divide": lambda r: ad.sum_all(ad.divide(_leaf(r, (3, 3), "a"), _leaf(r, (3, 3), "b", shift=3.0))),
    "scale": lambda r: _probe(r, ad.scale(_leaf(r, (4,), "a"), -2.5)),
    "matmul": lambda r: _probe(r, ad.matmul(_leaf(r, (3, 4), "a"), _leaf(r, (4, 2), "b"))),
    "reshape": lambda r: _probe(r, ad.reshape(_leaf(r, (2, 6), "a"), (3, 4))),
    "concat": lambda r: _probe(r, ad.concat([_leaf(r, (2, 3), "a"), _leaf(r, (2, 3), "b")], axis=0)),
    "narrow": lambda r: _probe(r, ad.narrow(_leaf(r, (4, 6), "a"), 1, 2, 3)),
    "sum_axis": lambda r: _probe(r, ad.sum_axis(_leaf(r, (3, 5), "a"), 1, keepdims=True)),
    "mean_axis": lambda r: _probe(r, ad.mean_axis(_leaf(r, (3, 5), "a"), 0)),
    "mean_all": lambda r: ad.mean_all(ad.multiply(a := _leaf(r, (4, 4), "a"), a)),
    "tanh": lambda r: ad.sum_all(ad.tanh(_leaf(r, (3, 3), "a", scale=2.0))),
    "sigmoid": lambda r: ad.sum_all(ad.sigmoid(_leaf(r, (3, 3), "a", scale=3.0))),
    "abs": lambda r: ad.sum_all(ad.abs_(_leaf(r, (3, 3), "a", shift=0.5))),
    "softmax": lambda r: _probe(r, ad.softmax(_leaf(r, (3, 5), "a", scale=2.0), axis=-1)),
    "bce_with_logits": lambda r: ad.mean_all(ad.bce_with_logits(_leaf(r, (4, 4), "a", scale=2.0),
                                                                ad.tensor(r.random((4, 4)), name="z"))),
    "linear": lambda r: ad.sum_all(ad.tanh(ad.linear(_leaf(r, (3, 4), "x"), _leaf(r, (4, 2), "w"),
                                                     _leaf(r, (2,), "b")))),
    # a quadratic loss on a linear layer: its gradient is known in closed form
    "quadratic_linear": lambda r: ad.sum_all(ad.multiply(
        y := ad.linear(_leaf(r, (5, 4)), _leaf(r, (4, 3), "w"), _leaf(r, (3,), "b")), y)),
    "attention": _attention,
    "attention_heads": lambda r: _probe(r, ad.attention_heads(
        _leaf(r, (3, 6), "q"), [(_leaf(r, (5, 6), "k"), _leaf(r, (5, 6), "v"))], None,
        [slice(0, 2), slice(2, 4), slice(4, 6)])),
    "attention_heads_weighted": _attention_heads_weighted,
    "stage_frame_loss": _stage_frame_loss,
}


def check_graph(graph: Callable[[np.random.Generator], Tensor], name: str,
                seed: int = 0, coords_per_param: int = 4) -> float:
    """`autodiff.grad_check` of `graph` over its named leaves, built on a generator
    seeded by `seed` and `name` alone, so that no check depends on those before it."""
    loss = graph(np.random.default_rng([seed, zlib.crc32(name.encode())]))
    params = [node for node in ad.trace(loss) if node.name is not None and not node.parents]
    return ad.grad_check(loss, params, max_coords_per_param=coords_per_param, seed=seed)


def gradient_check_report(coords_per_param: int = 4, seed: int = 0) -> dict[str, float]:
    """Max relative finite-difference error of every graph in GRADIENT_CHECKS;
    each should come in below GRAD_CHECK_BOUND in 64-bit floats."""
    return {name: check_graph(graph, name, seed, coords_per_param)
            for name, graph in GRADIENT_CHECKS.items()}


def overfit_train(
    scene: SceneRecord,
    cfg: PipelineConfig,
    tcfg: TrainConfig,
) -> tuple[ParamStore, list[CurvePoint]]:
    """Overfit the pipeline to one scene; deterministic in the seed.

    Returns the trained parameters and the per-step loss curve. Raises
    SceneConfigError when the scene's gt names a frame past its video, and
    TrainingDivergedError when the forward pass, the loss or the updated
    parameters turn non-finite.
    """
    n = len(scene.frames)
    late = [occ for occ in scene.gt.occurrences if occ.end_frame >= n]
    if late:
        raise SceneConfigError(f"video {scene.video_id!r}: ground truth has frame "
                               f"{max(late[0].start_frame, n)}, but the video has {n} frames")
    store = seeded_init(param_shapes(cfg), tcfg.seed)
    gt_counts = gt_patch_counts(scene, cfg.patch_size)
    curve: list[CurvePoint] = []
    # a diverging run is reported as TrainingDivergedError; numpy's own
    # overflow warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, tcfg.steps + 1):
            try:
                per_stage = scene_losses(scene, cfg, store, gt_counts)
                node, agg = total_loss(per_stage, cfg.stage_weights)
            except ad.NonFiniteValueError as exc:
                raise TrainingDivergedError(step) from exc
            if not np.isfinite(agg["total"]):
                raise TrainingDivergedError(step)
            grads = ad.gradient_map(node, store.params)
            adamw_step(
                store,
                grads,
                lr=tcfg.lr,
                beta1=tcfg.beta1,
                beta2=tcfg.beta2,
                eps=tcfg.eps,
                weight_decay=tcfg.weight_decay,
            )
            for name, p in store.params.items():
                if not np.all(np.isfinite(p.value)):
                    raise TrainingDivergedError(step, f"parameter {name}")
            curve.append(
                CurvePoint(
                    step=step,
                    total=agg["total"],
                    dice=agg["dice"],
                    mask_bce=agg["mask_bce"],
                    iou_head=agg["iou_head"],
                    occlusion_bce=agg["occlusion_bce"],
                )
            )
    return store, curve
