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
from dataclasses import dataclass
from typing import Optional, Sequence

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
from .synth import SceneConfigError, SceneRecord


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

    def components(self) -> dict[str, float]:
        return {
            "dice": self.dice,
            "mask_bce": self.mask_bce,
            "iou_head": self.iou_head,
            "occlusion_bce": self.occlusion_bce,
            "total": self.total,
        }


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
    has no foreground.
    """
    present = gt_counts is not None
    if not present:
        gt_counts = np.zeros_like(candidates.candidates[0].grid, dtype=np.int64)
    idx, actual_iou = _routed_candidate(candidates, gt_counts, cfg.patch_size)
    cand = candidates.candidates[idx]

    occ_target = ad.tensor(1.0 if present else 0.0)
    occlusion_node = ad.bce_with_logits(cand.occlusion_score, occ_target)
    terms = [occlusion_node]

    if present:
        g = ad.tensor(gt_counts / (cfg.patch_size * cfg.patch_size))
        p = ad.sigmoid(cand.mask_logits)
        overlap = ad.sum_all(ad.multiply(p, g))
        denom = ad.add(ad.sum_all(p), ad.sum_all(g))
        dice_node = ad.subtract(ad.tensor(1.0), ad.divide(ad.scale(overlap, 2.0), denom))
        bce_node = ad.mean_all(ad.bce_with_logits(cand.mask_logits, g))
        iou_node = ad.abs_(ad.subtract(cand.iou_score, ad.tensor(actual_iou)))
        terms.extend([dice_node, bce_node, iou_node])
        dice_val = float(dice_node.value)
        bce_val = float(bce_node.value)
        iou_val = float(iou_node.value)
    else:
        dice_val = bce_val = iou_val = 0.0

    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return LossBreakdown(
        dice=dice_val,
        mask_bce=bce_val,
        iou_head=iou_val,
        occlusion_bce=float(occlusion_node.value),
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
                aggregate[key] += weight * loss.components()[key]
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "total", "dice", "mask_bce", "iou_head", "occ_bce"])
        for pt in curve:
            writer.writerow(
                [pt.step, f"{pt.total:.10g}", f"{pt.dice:.10g}", f"{pt.mask_bce:.10g}",
                 f"{pt.iou_head:.10g}", f"{pt.occlusion_bce:.10g}"]
            )


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


def gradient_check_report(
    coords_per_param: int = 4,
    seed: int = 0,
) -> dict[str, float]:
    """Max relative finite-difference error for every primitive, the fused
    attention heads (one and several per node) and the composed single-stage
    frame loss at toy dims (8x8 frames, model dim 8).

    All entries should come in below 1e-4 in 64-bit floats.
    """
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}

    def check(name: str, loss: Tensor, params) -> None:
        report[name] = ad.grad_check(loss, params, max_coords_per_param=coords_per_param,
                                     seed=seed + len(report))

    def leaf(shape, label):
        return ad.tensor(rng.normal(size=shape), name=label)

    a = leaf((3, 4), "a")
    check("add", ad.sum_all(ad.add(a, leaf((3, 4), "b"))), [a])
    m = leaf((3, 4), "m")
    check("multiply", ad.sum_all(ad.multiply(m, leaf((3, 4), "b"))), [m])
    s = leaf((2, 3), "s")
    check("subtract", ad.sum_all(ad.subtract(s, leaf((2, 3), "b"))), [s])
    dnum = leaf((3, 3), "dnum")
    dden = ad.tensor(rng.normal(size=(3, 3)) + 3.0, name="dden")
    check("divide", ad.sum_all(ad.divide(dnum, dden)), [dnum, dden])
    mm = leaf((3, 4), "mm")
    check("matmul", ad.sum_all(ad.matmul(mm, leaf((4, 2), "b"))), [mm])
    rs = leaf((2, 6), "rs")
    check("reshape", ad.sum_all(ad.multiply(ad.reshape(rs, (3, 4)), leaf((3, 4), "b"))), [rs])
    c1, c2 = leaf((2, 3), "c1"), leaf((2, 3), "c2")
    check("concat", ad.sum_all(ad.multiply(ad.concat([c1, c2], axis=0), leaf((4, 3), "b"))), [c1, c2])
    nr = leaf((4, 6), "nr")
    check("narrow", ad.sum_all(ad.multiply(ad.narrow(nr, 1, 1, 3), leaf((4, 3), "b"))), [nr])
    sa = leaf((3, 5), "sa")
    check("sum_axis", ad.sum_all(ad.multiply(ad.sum_axis(sa, 1, keepdims=True), leaf((3, 1), "b"))), [sa])
    me = leaf((4, 4), "me")
    check("mean_all", ad.mean_all(ad.multiply(me, me)), [me])
    th = leaf((3, 3), "th")
    check("tanh", ad.sum_all(ad.tanh(th)), [th])
    sg = leaf((3, 3), "sg")
    check("sigmoid", ad.sum_all(ad.sigmoid(sg)), [sg])
    ab = ad.tensor(rng.normal(size=(3, 3)) + 0.5, name="ab")
    check("abs", ad.sum_all(ad.abs_(ab)), [ab])
    sm = leaf((3, 5), "sm")
    check("softmax", ad.sum_all(ad.multiply(ad.softmax(sm, axis=-1), leaf((3, 5), "b"))), [sm])
    bl = leaf((4, 4), "bl")
    check("bce_with_logits", ad.mean_all(ad.bce_with_logits(bl, ad.tensor(rng.random((4, 4))))), [bl])
    lw = leaf((4, 2), "lw")
    lb = leaf((2,), "lb")
    check("linear", ad.sum_all(ad.tanh(ad.linear(leaf((3, 4), "x"), lw, lb))), [lw, lb])
    att = ad.AttentionParams(
        wq=leaf((4, 4), "wq"), wk=leaf((4, 4), "wk"), wv=leaf((4, 4), "wv"), wo=leaf((4, 4), "wo")
    )
    ax = leaf((3, 4), "ax")
    att_out = ad.attention(ax, ax, ax, att, num_heads=2)
    check("attention", ad.mean_all(ad.multiply(att_out, att_out)),
          [att.wq, att.wk, att.wv, att.wo, ax])

    check("quadratic_linear", *_quadratic_linear_graph())

    # composed: one full stage plus the routed frame loss at toy dims
    cfg = PipelineConfig(
        num_stages=1, clip_len=4, patch_size=4, model_dim=8, num_heads=2,
        stage_weights=(1.0,), seed=seed,
    )
    store = seeded_init(param_shapes(cfg), cfg.seed)
    frame_rng = np.random.default_rng(seed + 1)
    frames = [frame_rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8) for _ in range(3)]
    gt_grid = (frame_rng.random((8, 8)) < 0.4).astype(np.uint8)
    gt_grid[0, 0] = 1
    gt_mask = rle_encode(gt_grid)
    query_feats = encode_frame(frames[0], cfg, store)
    gt_counts = mask_patch_counts(gt_mask, cfg.patch_size)
    init_entry = encode_memory(query_feats, gt_counts / cfg.patch_size**2, store)
    out = run_stage(frames, MemoryBank((init_entry,)), cfg, store, is_final=True)
    losses = [frame_loss(fc, gt_counts if fc.frame_index != 1 else None, cfg)
              for fc in out.candidates]
    node, _ = total_loss([losses], (1.0,))
    report["stage_frame_loss"] = ad.grad_check(
        node, store.params, max_coords_per_param=coords_per_param, seed=seed
    )

    # the fused attention heads, checked last so the entries above keep their inputs
    hq, hk, hv = leaf((3, 4), "hq"), leaf((5, 4), "hk"), leaf((5, 4), "hv")
    head = ad.attention_head(hq, hk, hv, 1, 2)
    check("attention_head", ad.sum_all(ad.multiply(head, leaf((3, 2), "b"))), [hq, hk, hv])
    mq = leaf((3, 4), "mq")
    mkeys = [leaf((n, 4), f"mk{i}") for i, n in enumerate((2, 4, 3))]
    mvalues = [leaf((n, 4), f"mv{i}") for i, n in enumerate((2, 4, 3))]
    mweights = [ad.tensor(w, name=f"mw{i}") for i, w in enumerate((1.0, 0.3, 1.7))]
    mem = ad.weighted_attention_head(mq, mkeys, mvalues, mweights, 2, 2)
    check("memory_attention", ad.sum_all(ad.multiply(mem, leaf((3, 2), "b"))),
          [mq, *mkeys, *mvalues, *mweights])
    # all heads in one node; appended last for the same reason
    aq, ak, av = leaf((3, 6), "aq"), leaf((5, 6), "ak"), leaf((5, 6), "av")
    heads = ad.attention_heads(aq, ak, av, [slice(0, 2), slice(2, 4), slice(4, 6)])
    check("attention_heads", ad.sum_all(ad.multiply(heads, leaf((3, 6), "b"))), [aq, ak, av])
    return report


def _quadratic_linear_graph():
    """Quadratic loss on a linear layer; its gradient is known in closed form."""
    rng = np.random.default_rng(17)
    w = ad.tensor(rng.normal(size=(4, 3)), name="w")
    b = ad.tensor(rng.normal(size=3), name="b")
    x = ad.tensor(rng.normal(size=(5, 4)))
    y = ad.linear(x, w, b)
    return ad.sum_all(ad.multiply(y, y)), [w, b]


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
