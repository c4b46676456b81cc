"""Per-video and dataset-level evaluation metrics for visual-query segmentation.

Per video: spatio-temporal IoU over pixels, temporal IoU over annotated frame
sets, Recovery (fraction of annotated gt frames with per-frame mask IoU above
0.5), and Success (stIoU above 0.2). Dataset-level scores are plain means over
videos, optionally gated by an IoU-threshold indicator, reported as
percentages. Videos are additionally bucketed into Small / Medium / Large
subsets by mean ground-truth mask area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .masks import (
    MaskDimensionError,
    MaskError,
    ResponseSet,
    framewise_overlaps,
    iou_from_areas,
)
from .parallel import parallel_map

SUBSET_SMALL = "Small"
SUBSET_MEDIUM = "Medium"
SUBSET_LARGE = "Large"
SUBSET_NAMES = (SUBSET_SMALL, SUBSET_MEDIUM, SUBSET_LARGE)

# Mean-gt-area boundaries (pixels) between Small/Medium and Medium/Large.
DEFAULT_SUBSET_BOUNDS = (3.6e3, 4.0e4)

RECOVERY_IOU_THRESHOLD = 0.5
SUCCESS_STIOU_THRESHOLD = 0.2
AP_THRESHOLDS = (0.5, 0.75)


class EvaluationError(ValueError):
    """Raised for structurally invalid evaluation inputs."""


class MissingPredictionsError(EvaluationError):
    def __init__(self, missing_ids: Sequence[str]):
        self.missing_ids = tuple(sorted(missing_ids))
        super().__init__(f"missing predictions for video ids: {', '.join(self.missing_ids)}")


@dataclass(frozen=True)
class VideoEval:
    """All per-video scores plus the mean gt area used for subset bucketing."""

    video_id: str
    st_iou: float
    t_iou: float
    recovery: float
    success: bool
    mean_gt_area: float


@dataclass(frozen=True)
class MetricScores:
    """One row of the report; every field is a percentage in [0, 100]."""

    st_ap: float
    st_ap50: float
    st_ap75: float
    t_ap: float
    t_ap50: float
    t_ap75: float
    recovery: float
    success: float

    def as_dict(self, ndigits: int = 2) -> dict[str, float]:
        return {
            "stAP": round(self.st_ap, ndigits),
            "stAP50": round(self.st_ap50, ndigits),
            "stAP75": round(self.st_ap75, ndigits),
            "tAP": round(self.t_ap, ndigits),
            "tAP50": round(self.t_ap50, ndigits),
            "tAP75": round(self.t_ap75, ndigits),
            "Rec": round(self.recovery, ndigits),
            "Succ": round(self.success, ndigits),
        }


@dataclass(frozen=True)
class MetricReport:
    overall: MetricScores
    per_subset: dict[str, MetricScores]
    video_counts: dict[str, int]

    def as_dict(self, ndigits: int = 2) -> dict:
        return {
            "overall": self.overall.as_dict(ndigits),
            "per_subset": {
                name: scores.as_dict(ndigits) for name, scores in self.per_subset.items()
            },
            "video_counts": dict(self.video_counts),
        }

    def csv_rows(self, ndigits: int = 2) -> list[list[str]]:
        header = ["subset", "videos", "stAP", "stAP50", "stAP75", "tAP", "tAP50", "tAP75", "Rec", "Succ"]
        total = sum(self.video_counts.values())

        def row(name: str, count: int, scores: MetricScores) -> list[str]:
            vals = scores.as_dict(ndigits)
            return [name, str(count)] + [f"{vals[k]:.{ndigits}f}" for k in header[2:]]

        rows = [header, row("overall", total, self.overall)]
        for name in SUBSET_NAMES:
            if name in self.per_subset:
                rows.append(row(name, self.video_counts.get(name, 0), self.per_subset[name]))
        return rows


@dataclass(frozen=True)
class FrameOverlaps:
    """Exact pixel counts of one video: the mask area of every gt and every
    predicted frame, and the intersection of every frame annotated in both."""

    gt_area: dict[int, int]
    pred_area: dict[int, int]
    inter: dict[int, int]

    def st_iou(self) -> float:
        """Pixel overlap across the union of annotated frames: the intersection
        counts only frames annotated in both responses, each response's area
        all of its own frames. No foreground anywhere in either gives 1.0."""
        return iou_from_areas(sum(self.inter.values()), sum(self.gt_area.values()),
                              sum(self.pred_area.values()))

    def t_iou(self) -> float:
        """Temporal IoU between the annotated frame sets; 1.0 when both are empty."""
        union = len(self.gt_area) + len(self.pred_area) - len(self.inter)
        return len(self.inter) / union if union else 1.0

    def recovery(self) -> float:
        """Percentage of gt frames with mask IoU above 0.5, a frame with no
        prediction counting as IoU 0; 100 for a video with no gt frames."""
        if not self.gt_area:
            return 100.0
        hits = sum(1 for t, inter in self.inter.items()
                   if iou_from_areas(inter, self.pred_area[t], self.gt_area[t]) > RECOVERY_IOU_THRESHOLD)
        return 100.0 * hits / len(self.gt_area)

    def mean_gt_area(self) -> float:
        """Mean mask area over the gt frames; 0 for an empty response."""
        return sum(self.gt_area.values()) / len(self.gt_area) if self.gt_area else 0.0


def frame_overlaps(gt: ResponseSet, pred: ResponseSet) -> FrameOverlaps:
    """Both responses' per-frame areas and the overlaps of their common frames,
    from one interval pass over the video."""
    if gt.shape and pred.shape and gt.shape != pred.shape:
        raise MaskDimensionError(f"gt masks are {gt.shape}, predictions are {pred.shape}")
    height, width = gt.shape or pred.shape or (1, 1)
    gt_masks, pred_masks = gt.frame_masks(), pred.frame_masks()
    gt_area, pred_area, inter = framewise_overlaps(gt_masks.values(), gt_masks, pred_masks.values(), pred_masks,
                                                   height * width)
    return FrameOverlaps(
        gt_area=dict(zip(gt_masks, gt_area)),
        pred_area=dict(zip(pred_masks, pred_area)),
        inter={t: v for t, v in zip(gt_masks, inter) if t in pred_masks},
    )


def evaluate_video(gt: ResponseSet, pred: ResponseSet) -> VideoEval:
    overlaps = frame_overlaps(gt, pred)
    st = overlaps.st_iou()
    return VideoEval(
        video_id=gt.video_id,
        st_iou=st,
        t_iou=overlaps.t_iou(),
        recovery=overlaps.recovery(),
        success=st > SUCCESS_STIOU_THRESHOLD,
        mean_gt_area=overlaps.mean_gt_area(),
    )


def subset_of(area: float, bounds: tuple[float, float] = DEFAULT_SUBSET_BOUNDS) -> str:
    small_hi, medium_hi = bounds
    if area < small_hi:
        return SUBSET_SMALL
    if area < medium_hi:
        return SUBSET_MEDIUM
    return SUBSET_LARGE


def _scores(evals: Sequence[VideoEval]) -> MetricScores:
    n = len(evals)
    # fsum keeps aggregation exact enough that indicator-gated means can never
    # exceed their ungated counterparts and reordering videos cannot change
    # the result.
    ordered = sorted(evals, key=lambda e: e.video_id)

    def gated_mean(values: Iterable[float], tau: float | None) -> float:
        if tau is None:
            return 100.0 * math.fsum(values) / n
        return 100.0 * math.fsum(v if v >= tau else 0.0 for v in values) / n

    st_vals = [e.st_iou for e in ordered]
    t_vals = [e.t_iou for e in ordered]
    return MetricScores(
        st_ap=gated_mean(st_vals, None),
        st_ap50=gated_mean(st_vals, AP_THRESHOLDS[0]),
        st_ap75=gated_mean(st_vals, AP_THRESHOLDS[1]),
        t_ap=gated_mean(t_vals, None),
        t_ap50=gated_mean(t_vals, AP_THRESHOLDS[0]),
        t_ap75=gated_mean(t_vals, AP_THRESHOLDS[1]),
        recovery=math.fsum(e.recovery for e in ordered) / n,
        success=100.0 * sum(1 for e in ordered if e.success) / n,
    )


def aggregate_metrics(
    evals: Sequence[VideoEval],
    subset_bounds: tuple[float, float] = DEFAULT_SUBSET_BOUNDS,
) -> MetricReport:
    """Aggregate per-video scores into overall and per-subset percentages."""
    if not evals:
        raise EvaluationError("cannot aggregate an empty evaluation set")
    buckets: dict[str, list[VideoEval]] = {name: [] for name in SUBSET_NAMES}
    for e in evals:
        buckets[subset_of(e.mean_gt_area, subset_bounds)].append(e)
    per_subset = {name: _scores(members) for name, members in buckets.items() if members}
    counts = {name: len(members) for name, members in buckets.items()}
    return MetricReport(overall=_scores(evals), per_subset=per_subset, video_counts=counts)


def _evaluate_item(item: tuple[str, ResponseSet, ResponseSet]) -> VideoEval:
    vid, gt, pred = item
    try:
        return evaluate_video(gt, pred)
    except MaskError as exc:
        raise EvaluationError(f"video {vid!r}: {exc}") from exc


def evaluate_run(
    gt_responses: Mapping[str, ResponseSet],
    pred_responses: Mapping[str, ResponseSet],
    subset_bounds: tuple[float, float] = DEFAULT_SUBSET_BOUNDS,
    jobs: int = 1,
    num_frames: Optional[Mapping[str, Optional[int]]] = None,
) -> MetricReport:
    """Evaluate predictions against ground truth over a whole run.

    Every gt video id must have a prediction entry (an empty ResponseSet is a
    valid prediction). Prediction entries without a gt counterpart are ignored.
    A prediction may not name a frame before 0 or, where `num_frames` gives
    the video's length, past its end; that check runs before the missing-id
    check. Videos are scored over up to `jobs` processes; the report does not
    depend on `jobs`.
    """
    lengths = num_frames or {}
    for vid in sorted(gt_responses):
        occs = pred_responses[vid].occurrences if vid in pred_responses else ()
        if not occs:
            continue
        first, last, n = occs[0].start_frame, occs[-1].end_frame, lengths.get(vid)
        if first < 0:
            raise EvaluationError(f"prediction for {vid!r} has frame {first}; frames start at 0")
        if n is not None and last >= n:
            raise EvaluationError(f"prediction for {vid!r} has frame {last}; "
                                  f"the video has {n} frames (0 to {n - 1})")
    missing = [vid for vid in gt_responses if vid not in pred_responses]
    if missing:
        raise MissingPredictionsError(missing)
    work = [(vid, gt_responses[vid], pred_responses[vid]) for vid in sorted(gt_responses)]
    return aggregate_metrics(parallel_map(_evaluate_item, work, jobs), subset_bounds)
