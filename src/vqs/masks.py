"""Run-length-encoded binary masks and the mask algebra built on them.

A mask is stored as alternating run lengths over the row-major flattened
bitmap, always starting with a background run (which may have length zero
when pixel 0 is foreground). All values are immutable after construction,
so they can be shared freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Collection, Optional, Sequence

import numpy as np


class MaskError(ValueError):
    """Base class for mask representation errors."""


class MaskDimensionError(MaskError):
    """Raised when mask or bitmap dimensions are invalid or mismatched."""


class CorruptMaskError(MaskError):
    """Raised when a run list does not describe a bitmap of the stated size."""


def _int_dtype(*values: int):
    """int64 when it holds every one of `values`, else object (Python ints)."""
    return np.int64 if all(-2**63 <= v < 2**63 for v in values) else object


@dataclass(frozen=True, eq=False, init=False)
class RleMask:
    """Binary mask as alternating background/foreground run lengths.

    `runs` is a read-only 1-D array, int64 unless H*W + 1 does not fit int64
    (then Python ints). Every mask is built by `_checked_masks`, so it holds
    the run-list invariants stated there.
    """

    height: int
    width: int
    runs: np.ndarray

    def __new__(cls, height: int, width: int, runs: Sequence[int] | np.ndarray) -> "RleMask":
        try:
            array = np.asarray(runs, dtype=np.int64)
        except OverflowError:
            array = np.array(runs, dtype=object)
        if array.ndim != 1:
            raise MaskError(f"runs must be a flat sequence of integers, got shape {array.shape}")
        return _raising(_checked_masks(height, width, array, np.zeros(1, dtype=np.intp)))[0]

    def __reduce__(self):
        return RleMask, (self.height, self.width, self.runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RleMask):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.runs, other.runs)

    def __hash__(self) -> int:
        return hash((self.height, self.width, *self.runs.tolist()))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    def area(self) -> int:
        """Foreground pixel count (sum of the odd-indexed runs)."""
        return int(self.runs[1::2].sum())

    def to_runs_csv(self) -> str:
        return ",".join(map(str, self.runs.tolist()))

    @classmethod
    def from_runs_csv(cls, text: str, height: int, width: int) -> "RleMask":
        return _raising(_parsed_masks([text], height, width))[0]

    @classmethod
    def empty(cls, height: int, width: int) -> "RleMask":
        return cls(height, width, (height * width,))


def _checked_masks(height: int, width: int, runs: np.ndarray,
                   starts: np.ndarray) -> tuple[list[RleMask], Optional[CorruptMaskError]]:
    """The masks of the run lists `runs[starts[i]:starts[i + 1]]` (the last to
    the end) before the first that breaks an invariant, and that list's error.

    Each invariant is one numpy pass over all the lists before the first
    empty one: no run is negative, only a list's first run may be zero, and
    its runs, each clipped at H*W + 1, sum to H*W. The masks' runs are
    read-only views into one copy of the lists that hold."""
    if height < 1 or width < 1:
        raise MaskDimensionError(f"mask dimensions must be positive, got {height}x{width}")
    area = height * width
    bounds = np.concatenate((starts, [runs.size]))
    empty = bounds[1:] == bounds[:-1]
    count = int(empty.argmax()) if empty.any() else len(starts)
    firsts, head = starts[:count], runs[:bounds[count]]
    # a list with a negative run may sum past int64; it breaks a rule anyway
    if head.dtype != object and (head.size + 1) * (area + 1) >= 2**63:
        head = head.astype(object)
    rules = ((np.logical_or.reduceat(head < 0, firsts), "negative run length"),
             (np.add.reduceat(head == 0, firsts) > (head[firsts] == 0), "zero-length run after the first"),
             (np.add.reduceat(np.minimum(head, area + 1), firsts) != area, None))
    broken = rules[0][0] | rules[1][0] | rules[2][0]
    count = int(broken.argmax()) if broken.any() else count
    error = None
    if count < len(starts):
        text = next((text for flags, text in rules if count < flags.size and flags[count]), "run list is empty")
        total = sum(runs[bounds[count]:bounds[count + 1]].tolist())
        error = CorruptMaskError(text or f"runs sum to {total}, expected {area}")
    kept = runs[:bounds[count]].astype(_int_dtype(area + 1))
    kept.flags.writeable = False
    masks = [object.__new__(RleMask) for _ in range(count)]
    for mask, i, j in zip(masks, bounds[:count].tolist(), bounds[1:count + 1].tolist()):
        vars(mask).update(height=height, width=width, runs=kept[i:j])
    return masks, error


def _raising(checked: tuple[list[RleMask], Optional[CorruptMaskError]]) -> list[RleMask]:
    """The masks of `_checked_masks` or `_parsed_masks`, raising the error of a list that failed."""
    masks, error = checked
    if error is not None:
        raise error
    return masks


def _is_run_list(text: str) -> bool:
    """Whether `text` is ASCII `-?[0-9]+` tokens joined by single commas."""
    # no other character, no empty token, and every minus sign starts a token and has a digit after it
    return (text.isascii() and not text.encode().translate(None, b"0123456789,-") and text[:1] not in ("", ",")
            and text[-1] not in ",-" and ",," not in text
            and ("-" not in text or "-," not in text and text.count("-") == text.count(",-") + text.startswith("-")))


def _parsed_masks(texts: Sequence[str], height: int, width: int) -> tuple[list[RleMask], Optional[CorruptMaskError]]:
    """`_checked_masks` of comma-separated run lists; a list that is not
    `_is_run_list` fails as a bad run list. The lists before it are read in
    one pass, into int64 unless a token has more than 18 characters (then
    into Python ints)."""
    good, valid = len(texts), ",".join(texts)
    if not _is_run_list(valid):
        good = next((j for j, text in enumerate(texts) if not _is_run_list(text)), good)
        valid = ",".join(texts[:good])
    # token k is valid[edges[k] + 1:edges[k + 1]]
    edges = np.concatenate(([-1], np.flatnonzero(np.frombuffer(valid.encode(), dtype=np.uint8) == ord(",")),
                            [len(valid)]))
    if np.diff(edges).max() > 19:
        values = np.array([int(token) for token in valid.split(",")], dtype=object)
    else:
        values = np.fromstring(valid, dtype=np.int64, sep=",")
    # list j's first token follows the commas before list j's first character
    lengths = np.fromiter(map(len, texts[:good]), dtype=np.intp, count=good)
    firsts = np.searchsorted(edges[1:-1], np.cumsum(lengths + 1) - lengths - 1)
    masks, error = _checked_masks(height, width, values, firsts)
    if error is None and good < len(texts):
        error = CorruptMaskError(f"bad run list {texts[good]!r}")
    return masks, error


def rle_encode(bitmap: np.ndarray | Sequence[Sequence[int]]) -> RleMask:
    """Encode a row-major binary grid into canonical run-length form."""
    arr = np.asarray(bitmap)
    if arr.ndim != 2 or arr.size == 0:
        raise MaskDimensionError(f"bitmap must be a non-empty 2-D grid, got shape {arr.shape}")
    if arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all():
        raise MaskError("bitmap entries must be 0 or 1")
    flat = arr.astype(np.int8).ravel(order="C")
    # a background pixel before and a non-binary value after: every run ends at a change
    runs = np.diff(np.flatnonzero(np.diff(np.concatenate(([0], flat, [-1])))), prepend=0)
    return RleMask(*arr.shape, runs)


def rle_encode_pixels(frame: np.ndarray, index: np.ndarray, num_frames: int,
                      height: int, width: int) -> list[RleMask]:
    """The masks of frames 0..num_frames-1 from their foreground pixels, in one
    pass: pixel k lies on frame `frame[k]` at row-major index `index[k]`, in
    order of frame, then index. Each mask's runs are `rle_encode`'s."""
    frame, index, size = np.asarray(frame, np.intp), np.asarray(index, np.intp), height * width
    if not len(index):
        return [RleMask.empty(height, width)] * num_frames
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
    rest = size - np.where(counts > 0, edges[ends - 1], 0)
    runs = np.insert(steps, ends[rest > 0], rest[rest > 0])
    lengths = 2 * counts + (rest > 0)
    return _raising(_checked_masks(height, width, runs, np.cumsum(lengths) - lengths))


def rle_decode(mask: RleMask) -> np.ndarray:
    """Decode to a row-major uint8 grid of shape (height, width)."""
    parity = (np.arange(len(mask.runs)) & 1).astype(np.uint8)
    return np.repeat(parity, mask.runs).reshape(mask.height, mask.width)


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
    dtype = _int_dtype(first, last, end)
    runs = np.concatenate([m.runs for m in masks]).astype(dtype, copy=False)
    lengths = np.fromiter((m.runs.size for m in masks), dtype=np.intp, count=len(masks))
    # laid end to end, mask i would end at (i + 1) * size; move it to its frame
    shift = (np.array(frames, dtype=dtype) - first - np.arange(len(masks), dtype=dtype)) * size
    stops = runs.cumsum() + np.repeat(shift, lengths)
    # a run is foreground when its index within its own mask is odd
    foreground = (np.arange(runs.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)) % 2 == 1
    start, stop, count = (stops - runs)[foreground], stops[foreground], lengths // 2
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


def mask_intersection_area(a: RleMask, b: RleMask) -> int:
    """Foreground overlap in pixels."""
    if a.shape != b.shape:
        raise MaskDimensionError(f"mask shape mismatch: {a.shape} vs {b.shape}")
    return framewise_overlaps([a], [0], [b], [0], a.height * a.width)[2][0]


def iou_from_areas(inter: int, area_a: int, area_b: int) -> float:
    """Intersection over union from exact pixel counts; two empty masks -> 1.0."""
    if area_a == 0 and area_b == 0:
        return 1.0
    return inter / (area_a + area_b - inter)


def mask_iou(a: RleMask, b: RleMask) -> float:
    """Intersection over union. Two empty masks agree perfectly -> 1.0."""
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
        for prev, occ in zip(occs, occs[1:]):
            if occ.start_frame <= prev.end_frame:
                raise MaskError(
                    f"occurrences must be sorted and temporally disjoint; "
                    f"[{occ.start_frame}, {occ.end_frame}] overlaps or precedes frame {prev.end_frame}"
                )
        shapes = {occ.shape for occ in occs}
        if len(shapes) > 1:
            raise MaskDimensionError(f"occurrences must share mask dimensions, got {sorted(shapes)}")

    @property
    def shape(self) -> Optional[tuple[int, int]]:
        return self.occurrences[0].shape if self.occurrences else None

    def frame_masks(self) -> dict[int, RleMask]:
        """Frame index -> mask for every annotated frame, in frame order."""
        return {t: mask for occ in self.occurrences for t, mask in zip(occ.frames(), occ.masks)}


def group_into_masklets(per_frame: Sequence[Optional[RleMask]]) -> tuple[Masklet, ...]:
    """Group maximal runs of consecutive non-empty frame masks into masklets.

    A frame counts as empty when its entry is None or its mask has zero area,
    which for a valid mask is exactly when it has one run.
    """
    occs, start = [], 0
    for present, group in groupby(per_frame, key=lambda mask: mask is not None and mask.runs.size > 1):
        masks = tuple(group)
        if present:
            occs.append(Masklet(start, start + len(masks) - 1, masks))
        start += len(masks)
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
    """Parse one annotation or prediction object; MaskError if it is malformed,
    MaskDimensionError naming the field unless `height` and `width` are
    integers (not booleans) of at least 1.

    MaskError naming the occurrence and field unless `start` and `end` are
    integers (not booleans) and `masks` a list of strings. All run lists go
    through one `_parsed_masks`; the first that fails raises in its place."""
    try:
        video_id = str(obj["video_id"])
        for key in ("height", "width"):
            if isinstance(obj[key], bool) or not isinstance(obj[key], int) or obj[key] < 1:
                raise MaskDimensionError(f"annotation {key!r} must be an integer >= 1, got {obj[key]!r}")
        height, width = obj["height"], obj["width"]
        if not isinstance(obj["occurrences"], list):
            raise TypeError(f"'occurrences' must be a list, got {obj['occurrences']!r}")
        # a malformed occurrence raises below, in its place, before its lists are used
        masks, failing = _parsed_masks([text for raw in obj["occurrences"] if isinstance(raw, dict)
                                        and isinstance(raw.get("masks"), list)
                                        for text in raw["masks"] if isinstance(text, str)], height, width)
        occs, done = [], 0
        for index, raw in enumerate(obj["occurrences"]):
            for key in ("start", "end"):
                if isinstance(raw[key], bool) or not isinstance(raw[key], int):
                    raise TypeError(f"occurrence {index} {key!r} must be an integer, got {raw[key]!r}")
            if not isinstance(raw["masks"], list) or not all(isinstance(text, str) for text in raw["masks"]):
                raise TypeError(f"occurrence {index} 'masks' must be a list of strings, got {raw['masks']!r}")
            if done + len(raw["masks"]) > len(masks):
                raise failing
            occs.append(Masklet(raw["start"], raw["end"], masks[done:done + len(raw["masks"])]))
            done += len(raw["masks"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise MaskError(f"malformed annotation object: {exc}") from exc
    return ResponseSet(video_id, tuple(occs)), height, width
