"""Run-length-encoded binary masks and the mask algebra built on them.

A mask is stored as alternating run lengths over the row-major flattened
bitmap, always starting with a background run (which may have length zero
when pixel 0 is foreground). All values are immutable after construction,
so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class MaskError(ValueError):
    """Base class for mask representation errors."""


class MaskDimensionError(MaskError):
    """Raised when mask or bitmap dimensions are invalid or mismatched."""


class CorruptMaskError(MaskError):
    """Raised when a run list does not describe a bitmap of the stated size."""


@dataclass(frozen=True)
class RleMask:
    """Binary mask as alternating background/foreground run lengths.

    Invariants enforced at construction: runs are non-negative, only the
    first run may be zero, and the run lengths sum to height * width.
    """

    height: int
    width: int
    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise MaskDimensionError(
                f"mask dimensions must be positive, got {self.height}x{self.width}"
            )
        runs = tuple(int(r) for r in self.runs)
        object.__setattr__(self, "runs", runs)
        if not runs:
            raise CorruptMaskError("run list is empty")
        if any(r < 0 for r in runs):
            raise CorruptMaskError("negative run length")
        if any(r == 0 for r in runs[1:]):
            raise CorruptMaskError("zero-length run after the first")
        total = sum(runs)
        if total != self.height * self.width:
            raise CorruptMaskError(
                f"runs sum to {total}, expected {self.height * self.width}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def area(self) -> int:
        """Foreground pixel count (sum of the odd-indexed runs)."""
        return sum(self.runs[1::2])

    def foreground_intervals(self) -> list[tuple[int, int]]:
        """Half-open [start, stop) foreground intervals over the flat bitmap."""
        out = []
        pos = 0
        for i, r in enumerate(self.runs):
            if i % 2 == 1:
                out.append((pos, pos + r))
            pos += r
        return out

    def to_runs_csv(self) -> str:
        return ",".join(str(r) for r in self.runs)

    @classmethod
    def from_runs_csv(cls, text: str, height: int, width: int) -> "RleMask":
        try:
            runs = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise CorruptMaskError(f"bad run list {text!r}") from exc
        return cls(height, width, runs)

    @classmethod
    def empty(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (height * width,))

    @classmethod
    def full(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (0, height * width))


def rle_encode(bitmap: np.ndarray | Sequence[Sequence[int]]) -> RleMask:
    """Encode a row-major binary grid into canonical run-length form."""
    arr = np.asarray(bitmap)
    if arr.ndim != 2 or arr.size == 0:
        raise MaskDimensionError(f"bitmap must be a non-empty 2-D grid, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise MaskError("bitmap entries must be 0 or 1")
    flat = arr.astype(np.int8).ravel(order="C")
    # Sentinels make every value change a run boundary, including the ends.
    padded = np.concatenate(([-1], flat, [-1]))
    boundaries = np.flatnonzero(np.diff(padded))
    runs = np.diff(boundaries)
    if flat[0] == 1:
        runs = np.concatenate(([0], runs))
    h, w = arr.shape
    return RleMask(int(h), int(w), tuple(int(r) for r in runs))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode to a row-major uint8 grid of shape (height, width)."""
    flat = np.zeros(mask.height * mask.width, dtype=np.uint8)
    for start, stop in mask.foreground_intervals():
        flat[start:stop] = 1
    return flat.reshape(mask.height, mask.width)


def _check_same_shape(a: RleMask, b: RleMask) -> None:
    if a.shape != b.shape:
        raise MaskDimensionError(f"mask shape mismatch: {a.shape} vs {b.shape}")


def mask_intersection_area(a: RleMask, b: RleMask) -> int:
    """Foreground overlap in pixels, by a two-pointer walk over run intervals."""
    _check_same_shape(a, b)
    ia, ib = a.foreground_intervals(), b.foreground_intervals()
    i = j = 0
    inter = 0
    while i < len(ia) and j < len(ib):
        lo = max(ia[i][0], ib[j][0])
        hi = min(ia[i][1], ib[j][1])
        if hi > lo:
            inter += hi - lo
        if ia[i][1] <= ib[j][1]:
            i += 1
        else:
            j += 1
    return inter


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union. Two empty masks agree perfectly -> 1.0."""
    _check_same_shape(a, b)
    area_a, area_b = a.area(), b.area()
    if area_a == 0 and area_b == 0:
        return 1.0
    inter = mask_intersection_area(a, b)
    return inter / (area_a + area_b - inter)


@dataclass(frozen=True)
class Masklet:
    """One temporally contiguous object occurrence: per-frame masks on [start, end]."""

    start_frame: int
    end_frame: int
    masks: tuple[RleMask, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(self.masks))
        if self.end_frame < self.start_frame:
            raise MaskError(f"end frame {self.end_frame} before start frame {self.start_frame}")
        expected = self.end_frame - self.start_frame + 1
        if len(self.masks) != expected:
            raise MaskError(f"expected {expected} masks for [{self.start_frame}, {self.end_frame}], got {len(self.masks)}")
        shapes = {m.shape for m in self.masks}
        if len(shapes) > 1:
            raise MaskDimensionError(f"masks in one occurrence must share dimensions, got {sorted(shapes)}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.masks[0].shape

    def frames(self) -> range:
        return range(self.start_frame, self.end_frame + 1)

    def mask_at(self, frame: int) -> RleMask:
        return self.masks[frame - self.start_frame]


@dataclass(frozen=True)
class ResponseSet:
    """All occurrences of the queried object in one video."""

    video_id: str
    occurrences: tuple[Masklet, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        occs = tuple(self.occurrences)
        object.__setattr__(self, "occurrences", occs)
        prev_end = None
        for occ in occs:
            if prev_end is not None and occ.start_frame <= prev_end:
                raise MaskError(
                    f"occurrences must be sorted and temporally disjoint; "
                    f"[{occ.start_frame}, {occ.end_frame}] overlaps or precedes frame {prev_end}"
                )
            prev_end = occ.end_frame
        shapes = {occ.shape for occ in occs}
        if len(shapes) > 1:
            raise MaskDimensionError(f"occurrences must share mask dimensions, got {sorted(shapes)}")

    @property
    def shape(self) -> Optional[tuple[int, int]]:
        return self.occurrences[0].shape if self.occurrences else None

    def frame_masks(self) -> dict[int, RleMask]:
        """Frame index -> mask for every annotated frame."""
        out: dict[int, RleMask] = {}
        for occ in self.occurrences:
            for f in occ.frames():
                out[f] = occ.mask_at(f)
        return out

    def covered_frames(self) -> set[int]:
        return set(self.frame_masks())


def group_into_masklets(per_frame: Sequence[Optional[RleMask]]) -> tuple[Masklet, ...]:
    """Group maximal runs of consecutive non-empty frame masks into masklets.

    A frame counts as empty when its entry is None or its mask has zero area.
    """
    occs: list[Masklet] = []
    run_start = None
    run_masks: list[RleMask] = []
    for idx, mask in enumerate(per_frame):
        present = mask is not None and mask.area() > 0
        if present:
            if run_start is None:
                run_start = idx
            run_masks.append(mask)  # type: ignore[arg-type]
        elif run_start is not None:
            occs.append(Masklet(run_start, idx - 1, tuple(run_masks)))
            run_start, run_masks = None, []
    if run_start is not None:
        occs.append(Masklet(run_start, len(per_frame) - 1, tuple(run_masks)))
    return tuple(occs)


# --- JSON annotation schema -------------------------------------------------
#
# {"video_id": str, "height": int, "width": int,
#  "occurrences": [{"start": int, "end": int, "masks": ["<runs-csv>", ...]}]}


def annotation_to_dict(response: ResponseSet, height: int, width: int) -> dict:
    shape = response.shape
    if shape is not None and shape != (height, width):
        raise MaskDimensionError(f"response masks are {shape}, manifest says {(height, width)}")
    return {
        "video_id": response.video_id,
        "height": height,
        "width": width,
        "occurrences": [
            {
                "start": occ.start_frame,
                "end": occ.end_frame,
                "masks": [m.to_runs_csv() for m in occ.masks],
            }
            for occ in response.occurrences
        ],
    }


def annotation_from_dict(obj: dict) -> tuple[ResponseSet, int, int]:
    """Parse one annotation or prediction object; MaskError if it is malformed."""
    try:
        video_id = str(obj["video_id"])
        height = int(obj["height"])
        width = int(obj["width"])
        occs = [
            Masklet(
                int(raw["start"]),
                int(raw["end"]),
                tuple(RleMask.from_runs_csv(text, height, width) for text in raw["masks"]),
            )
            for raw in obj["occurrences"]
        ]
    except (KeyError, TypeError, AttributeError) as exc:
        raise MaskError(f"malformed annotation object: {exc}") from exc
    return ResponseSet(video_id, tuple(occs)), height, width
