"""Run-length-encoded binary masks and the mask algebra built on them.

A mask is stored as alternating run lengths over the row-major flattened
bitmap, always starting with a background run (which may have length zero
when pixel 0 is foreground). All values are immutable after construction,
so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, Optional, Sequence

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
        return ",".join(map(str, self.runs))

    @classmethod
    def from_runs_csv(cls, text: str, height: int, width: int) -> "RleMask":
        try:
            runs = tuple(map(int, text.split(",")))
        except ValueError as exc:
            raise CorruptMaskError(f"bad run list {text!r}") from exc
        return cls(height, width, runs)

    @classmethod
    def _prechecked(cls, height: int, width: int, run_lists: list[tuple[int, ...]]) -> list["RleMask"]:
        """Masks of int run lists that already passed __post_init__'s checks, built without them."""
        masks = [object.__new__(cls) for _ in run_lists]
        for mask, runs in zip(masks, run_lists):
            vars(mask).update(height=height, width=width, runs=runs)
        return masks

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


def rle_encode_pixels(frame: np.ndarray, index: np.ndarray, num_frames: int,
                      height: int, width: int) -> list[RleMask]:
    """The masks of frames 0..num_frames-1 from their foreground pixels, in one
    pass: pixel k lies on frame `frame[k]` at row-major index `index[k]`, in
    order of frame, then index. Each mask's runs are `rle_encode`'s."""
    frame, index, size = np.asarray(frame, np.intp), np.asarray(index, np.intp), height * width
    if not len(index):
        return [RleMask.empty(height, width) for _ in range(num_frames)]
    # a foreground interval ends between two pixels unless the second directly
    # follows the first on its frame
    breaks = np.diff(frame * (size + 1) + index) != 1
    first = np.flatnonzero(np.concatenate(([True], breaks)))
    last = np.flatnonzero(np.concatenate((breaks, [True])))
    # every interval's start and stop, frame by frame; a frame's runs are its
    # first start, each later edge less the one before, and the rest after its last stop
    edges = np.stack((index[first], index[last] + 1), axis=1).ravel()
    steps = np.diff(edges, prepend=0)
    counts = np.bincount(frame[first], minlength=num_frames)
    ends = 2 * np.cumsum(counts)
    opening = (ends - 2 * counts)[counts > 0]
    steps[opening] = edges[opening]
    steps, edges, run_lists, begin = steps.tolist(), edges.tolist(), [], 0
    for end in ends.tolist():
        runs = steps[begin:end]
        rest = size - edges[end - 1] if end > begin else size
        run_lists.append((*runs, rest) if rest else tuple(runs))
        begin = end
    # positive runs after a first that may be zero, summing to size: built so
    return RleMask._prechecked(height, width, run_lists)


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode to a row-major uint8 grid of shape (height, width)."""
    parity = (np.arange(len(mask.runs)) & 1).astype(np.uint8)
    return np.repeat(parity, mask.runs).reshape(mask.height, mask.width)


def _check_same_shape(a: RleMask, b: RleMask) -> None:
    if a.shape != b.shape:
        raise MaskDimensionError(f"mask shape mismatch: {a.shape} vs {b.shape}")


def framewise_overlaps(a_masks: Collection[RleMask], a_frames: Collection[int],
                       b_masks: Collection[RleMask], b_frames: Collection[int],
                       size: int) -> tuple[list[int], list[int], list[int]]:
    """Each a mask's area, each b mask's area, and each a mask's overlap with
    the b mask on its frame (0 where b has none), in one O(runs) pass.

    Every mask's foreground intervals are laid at offset frame * size, where
    `size` is every mask's H*W; b's frames must increase. Prefix sums of b's
    interval lengths, with `np.searchsorted` to find the interval an offset
    falls in, count b's foreground before any offset, and each of a's
    intervals covers the difference of two such counts. No bitmap is
    decoded; offsets that int64 cannot hold are counted in Python ints.
    """
    masks, n_a = [*a_masks, *b_masks], len(a_masks)
    frames = [*a_frames, *b_frames]
    if not masks:
        return [], [], []
    first, last = min(frames), max(frames)
    end = (last + 1 - first) * size
    dtype = np.int64 if end < 2**63 and -2**63 <= first <= last < 2**63 else object
    # a run is foreground when its index within its own mask is odd; with
    # every list padded to even length, when its index in all of them is
    lists = [m.runs if len(m.runs) % 2 == 0 else (*m.runs, 0) for m in masks]
    lengths = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
    runs = np.fromiter(chain.from_iterable(lists), dtype=dtype, count=int(lengths.sum()))
    # laid end to end, mask i would end at (i + 1) * size; move it to its frame
    shift = (np.array(frames, dtype=dtype) - first - np.arange(len(masks), dtype=dtype)) * size
    stops = runs.cumsum() + np.repeat(shift, lengths)
    start, stop, count = stops[0::2], stops[1::2], lengths // 2
    k = int(count[:n_a].sum())  # a's intervals come first
    b_start, b_stop = start[k:], stop[k:]
    b_before = np.concatenate(([0], np.cumsum(b_stop - b_start)))
    # past b's last interval an offset lies inside none: its start is `end`
    b_start = np.append(b_start, end)
    offsets = np.concatenate((start[:k], stop[:k]))
    j = np.searchsorted(b_stop, offsets, side="right")  # b intervals ended by then
    covered = b_before[j] + np.maximum(offsets - b_start[j], 0)
    # one grouped sum: every mask's interval lengths, then a's covered lengths
    totals = np.concatenate(([0], np.cumsum(np.concatenate((stop - start, covered[k:] - covered[:k])))))
    bounds = np.concatenate(([0], np.cumsum(np.concatenate((count, count[:n_a])))))
    sums = (totals[bounds[1:]] - totals[bounds[:-1]]).tolist()
    return sums[:n_a], sums[n_a:len(masks)], sums[len(masks):]


def intersection_areas(pairs: Sequence[tuple[RleMask, RleMask]]) -> list[int]:
    """Exact foreground overlap of every (a, b) pair: pair i on frame i of
    `framewise_overlaps`."""
    shapes = {m.shape for pair in pairs for m in pair}
    if len(shapes) > 1:
        raise MaskDimensionError(f"mask shapes differ: {sorted(shapes)}")
    if not pairs:
        return []
    height, width = shapes.pop()
    frames = range(len(pairs))
    return framewise_overlaps([a for a, _ in pairs], frames, [b for _, b in pairs], frames, height * width)[2]


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
        shapes = {(m.height, m.width) for m in self.masks}
        if len(shapes) > 1:
            raise MaskDimensionError(f"masks in one occurrence must share dimensions, got {sorted(shapes)}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.masks[0].shape

    def frames(self) -> range:
        return range(self.start_frame, self.end_frame + 1)


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
        """Frame index -> mask for every annotated frame, in frame order."""
        return dict(zip(chain.from_iterable(occ.frames() for occ in self.occurrences),
                        chain.from_iterable(occ.masks for occ in self.occurrences)))


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


def _parsed_run_lists(obj: dict, height: int, width: int) -> Optional[tuple[list[RleMask], Optional[tuple[int, ...]]]]:
    """An annotation's run lists, in order, converted and checked in numpy
    passes: the masks of every list before the first that fails RleMask's
    checks, and that list's runs (None when all pass).

    None unless every token is 1 to 18 ASCII digits, which numpy's parser and
    int() read alike and which cannot overflow int64, and no list's sum, with
    each run clipped at H*W + 1, can pass int64; the caller then parses list
    by list with int().
    """
    try:
        texts = [text for raw in obj["occurrences"] for text in raw["masks"]]
        data = ",".join(texts).encode("ascii")
    except (KeyError, TypeError, UnicodeEncodeError):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    commas = np.flatnonzero(chars == ord(","))
    digits = np.count_nonzero((chars >= ord("0")) & (chars <= ord("9")))
    bounds = np.concatenate(([-1], commas, [chars.size]))
    token_lengths = bounds[1:] - bounds[:-1] - 1
    if digits + commas.size != chars.size or not 1 <= token_lengths.min() <= token_lengths.max() <= 18:
        return None
    area = height * width
    if (area + 1) * (commas.size + 1) >= 2**63:
        return None
    values = np.fromstring(data, dtype=np.int64, sep=",")
    # list j's tokens are [starts[j], stops[j]): its last token ends at the
    # comma that joined it to the next list, or at the end of the data
    stops = np.searchsorted(commas, np.cumsum(np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) + 1) - 1) + 1
    starts = np.concatenate(([0], stops[:-1]))
    zero = values == 0
    zero[starts] = False
    failing = np.flatnonzero((np.add.reduceat(np.minimum(values, area + 1), starts) != area)
                             | np.logical_or.reduceat(zero, starts))
    runs = values.tolist()
    lists = [tuple(runs[i:j]) for i, j in zip(starts.tolist(), stops.tolist())]
    if failing.size:
        return RleMask._prechecked(height, width, lists[:failing[0]]), lists[failing[0]]
    return RleMask._prechecked(height, width, lists), None


def annotation_from_dict(obj: dict) -> tuple[ResponseSet, int, int]:
    """Parse one annotation or prediction object; MaskError if it is malformed,
    MaskDimensionError naming the field unless `height` and `width` are
    integers (not booleans) of at least 1.

    Run lists that pass the batch check of `_parsed_run_lists` become masks
    without RleMask's per-list check; the first that fails goes through it,
    in its place among the occurrences, so every error keeps its order,
    class and text."""
    try:
        video_id = str(obj["video_id"])
        for key in ("height", "width"):
            if isinstance(obj[key], bool) or not isinstance(obj[key], int) or obj[key] < 1:
                raise MaskDimensionError(f"annotation {key!r} must be an integer >= 1, got {obj[key]!r}")
        height, width = obj["height"], obj["width"]
        checked, failing = _parsed_run_lists(obj, height, width) or (None, None)
        occs, done = [], 0
        for raw in obj["occurrences"]:
            start, end = int(raw["start"]), int(raw["end"])
            if checked is None:
                masks = tuple(RleMask.from_runs_csv(text, height, width) for text in raw["masks"])
            else:
                masks = tuple(checked[done:done + len(raw["masks"])])
                done += len(masks)
                if len(masks) < len(raw["masks"]):
                    RleMask(height, width, failing)  # raises that list's error
            occs.append(Masklet(start, end, masks))
    except (KeyError, TypeError, AttributeError) as exc:
        raise MaskError(f"malformed annotation object: {exc}") from exc
    return ResponseSet(video_id, tuple(occs)), height, width
