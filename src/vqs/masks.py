"""Run-length-encoded binary masks and the mask algebra built on them.

A mask is stored as alternating run lengths over the row-major flattened
bitmap, always starting with a background run (which may have length zero
when pixel 0 is foreground). All values are immutable after construction,
so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Optional, Sequence

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
        runs = tuple(map(int, self.runs))
        object.__setattr__(self, "runs", runs)
        if not runs:
            raise CorruptMaskError("run list is empty")
        if min(runs) < 0:
            raise CorruptMaskError("negative run length")
        if 0 in runs[1:]:
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

    def to_runs_csv(self) -> str:
        return ",".join(str(r) for r in self.runs)

    @classmethod
    def from_runs_csv(cls, text: str, height: int, width: int) -> "RleMask":
        try:
            runs = tuple(map(int, text.split(",")))
        except ValueError as exc:
            raise CorruptMaskError(f"bad run list {text!r}") from exc
        return cls(height, width, runs)

    @classmethod
    def empty(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (height * width,))


def rle_encode(bitmap: np.ndarray | Sequence[Sequence[int]]) -> RleMask:
    """Encode a row-major binary grid into canonical run-length form."""
    arr = np.asarray(bitmap)
    if arr.ndim != 2 or arr.size == 0:
        raise MaskDimensionError(f"bitmap must be a non-empty 2-D grid, got shape {arr.shape}")
    if arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all():
        raise MaskError("bitmap entries must be 0 or 1")
    flat = arr.astype(np.int8).ravel(order="C")
    # Sentinels make every value change a run boundary, including the ends.
    padded = np.concatenate(([-1], flat, [-1]))
    runs = np.diff(np.flatnonzero(np.diff(padded))).tolist()
    if flat[0] == 1:
        runs.insert(0, 0)
    h, w = arr.shape
    return RleMask(int(h), int(w), tuple(runs))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode to a row-major uint8 grid of shape (height, width)."""
    parity = (np.arange(len(mask.runs)) & 1).astype(np.uint8)
    return np.repeat(parity, mask.runs).reshape(mask.height, mask.width)


def _check_same_shape(a: RleMask, b: RleMask) -> None:
    if a.shape != b.shape:
        raise MaskDimensionError(f"mask shape mismatch: {a.shape} vs {b.shape}")


def _foreground(masks: Sequence[RleMask], dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Foreground intervals of `masks` laid end to end, as global [start, stop)
    offsets, plus each mask's interval count. Mask i starts at i*H*W because
    every mask's runs sum to H*W."""
    lengths = np.fromiter(map(len, (m.runs for m in masks)), dtype=np.intp, count=len(masks))
    runs = np.fromiter(chain.from_iterable(m.runs for m in masks), dtype=dtype, count=int(lengths.sum()))
    stops = np.cumsum(runs)
    # a run is foreground when its index within its own mask is odd
    local = np.arange(runs.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    fg = (local & 1).astype(bool)
    return stops[fg] - runs[fg], stops[fg], lengths // 2


def intersection_areas(pairs: Sequence[tuple[RleMask, RleMask]]) -> list[int]:
    """Exact foreground overlap of every (a, b) pair, in one O(runs) pass.

    The pairs are laid end to end, so every foreground interval has a global
    offset. Prefix sums of b's interval lengths, with `np.searchsorted` to find
    the interval an offset falls in, count b's foreground before any offset;
    each of a's intervals covers the difference of two such counts, and the
    per-pair sums are differences of one integer cumsum. No bitmap is decoded.
    Offsets that int64 cannot hold are counted in Python ints.
    """
    shapes = {m.shape for pair in pairs for m in pair}
    if len(shapes) > 1:
        raise MaskDimensionError(f"mask shapes differ: {sorted(shapes)}")
    if not pairs:
        return []
    height, width = shapes.pop()
    end = len(pairs) * height * width
    dtype = np.int64 if end < 2**63 else object
    a_start, a_stop, a_count = _foreground([a for a, _ in pairs], dtype)
    b_start, b_stop, _ = _foreground([b for _, b in pairs], dtype)
    b_before = np.concatenate(([0], np.cumsum(b_stop - b_start)))
    # past b's last interval an offset lies inside none: its start is `end`
    b_start = np.append(b_start, end)

    def b_covered(offsets: np.ndarray) -> np.ndarray:
        k = np.searchsorted(b_stop, offsets, side="right")  # b intervals ended by then
        return b_before[k] + np.maximum(offsets - b_start[k], 0)

    totals = np.concatenate(([0], np.cumsum(b_covered(a_stop) - b_covered(a_start))))
    bounds = np.concatenate(([0], np.cumsum(a_count)))
    return (totals[bounds[1:]] - totals[bounds[:-1]]).tolist()


def mask_intersection_area(a: RleMask, b: RleMask) -> int:
    """Foreground overlap in pixels."""
    _check_same_shape(a, b)
    return intersection_areas([(a, b)])[0]


def iou_from_areas(inter: int, area_a: int, area_b: int) -> float:
    """Intersection over union from exact pixel counts; two empty masks -> 1.0."""
    if area_a == 0 and area_b == 0:
        return 1.0
    return inter / (area_a + area_b - inter)


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union. Two empty masks agree perfectly -> 1.0."""
    _check_same_shape(a, b)
    return iou_from_areas(mask_intersection_area(a, b), a.area(), b.area())


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


def _parsed_run_lists(obj: dict) -> Optional[Iterator[tuple[int, ...]]]:
    """Every run list of an annotation, in order, converted in one numpy pass.

    None unless every token is 1 to 18 ASCII digits, which numpy's parser and
    int() read alike and which cannot overflow int64; the caller then parses
    list by list with int(), so every error keeps its class and text.
    """
    try:
        texts = [text for raw in obj["occurrences"] for text in raw["masks"]]
        data = ",".join(texts).encode("ascii")
    except (KeyError, TypeError, UnicodeEncodeError):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    commas = np.flatnonzero(chars == ord(","))
    digits = np.count_nonzero((chars >= ord("0")) & (chars <= ord("9")))
    token_lengths = np.diff(commas, prepend=-1, append=chars.size) - 1
    if digits + commas.size != chars.size or not 1 <= token_lengths.min() <= token_lengths.max() <= 18:
        return None
    values = np.fromstring(data, dtype=np.int64, sep=",").tolist()
    out = []
    pos = 0
    for text in texts:
        count = text.count(",") + 1
        out.append(tuple(values[pos:pos + count]))
        pos += count
    return iter(out)


def annotation_from_dict(obj: dict) -> tuple[ResponseSet, int, int]:
    """Parse one annotation or prediction object; MaskError if it is malformed."""
    parsed = _parsed_run_lists(obj)
    try:
        video_id = str(obj["video_id"])
        height = int(obj["height"])
        width = int(obj["width"])
        occs = [
            Masklet(
                int(raw["start"]),
                int(raw["end"]),
                tuple(RleMask(height, width, next(parsed)) if parsed is not None
                      else RleMask.from_runs_csv(text, height, width) for text in raw["masks"]),
            )
            for raw in obj["occurrences"]
        ]
    except (KeyError, TypeError, AttributeError) as exc:
        raise MaskError(f"malformed annotation object: {exc}") from exc
    return ResponseSet(video_id, tuple(occs)), height, width
