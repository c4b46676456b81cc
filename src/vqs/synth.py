"""Deterministic synthetic benchmark scenes for visual-query segmentation.

Each scene is an untrimmed video in which a colored target shape appears in
one or more disjoint temporal occurrences, moving on a linear-plus-sinusoid
path with scale drift, among same-shape distractors of perturbed hue and
scale. The query is rendered on its own background (never a video frame)
with an exact rasterized mask. All rasterization uses a pixel-center-inside
test with no anti-aliasing, so ground-truth masks reproduce bit-exactly
from the stored trajectory states.

Per-scene seeds derive from the master seed with a splitmix64-style mixer
(constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
"""

from __future__ import annotations

import colorsys
import errno
import hashlib
import itertools
import json
import math
import os
import re
import stat
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .masks import (
    MaskError,
    Masklet,
    ResponseSet,
    RleMask,
    annotation_from_dict,
    annotation_to_dict,
    framewise_overlaps,
    iou_from_areas,
    rle_encode,
    rle_encode_pixels,
)
from .parallel import parallel_map

MANIFEST_FORMAT = "vqs-dataset-v2"
MANIFEST_NAME = "manifest.json"

SHAPES = ("disk", "rectangle", "triangle")

_MIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_M1 = 0xBF58476D1CE4E5B9
_MIX_M2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

_QUERY_SALT = 0xA5C3
_SAMPLER_SALT = 0x51D7


class SceneConfigError(ValueError):
    """Raised when a scene configuration cannot be realized, a manifest is malformed
    or a scene's ground truth lies past its frames."""


def mix_seed(master_seed: int, index: int) -> int:
    """splitmix64 of (master_seed + (index+1) * golden gamma)."""
    z = (master_seed + (index + 1) * _MIX_GAMMA) & _MASK64
    z ^= z >> 30
    z = (z * _MIX_M1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX_M2) & _MASK64
    z ^= z >> 31
    return z


# --- PPM (binary P6) ---------------------------------------------------------
#
# A scene's frames file holds its frames as consecutive binary P6 images, each
# with its own header: the Netpbm format allows a sequence of images in a file.


def write_ppm(path: str | Path, *images: np.ndarray) -> None:
    """Write `images` in turn as binary P6 images, in one `write_regular_file` call."""
    chunks = []
    for image in images:
        if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
            raise ValueError(f"expected uint8 HxWx3 image, got {image.dtype} {image.shape}")
        chunks += (b"P6\n%d %d\n255\n" % image.shape[1::-1], np.ascontiguousarray(image))
    write_regular_file(path, *chunks)


_PPM_HEADER = re.compile(rb"P6\s*(\S+)\s+(\S+)\s+(\S+)\s")
_PPM_HEADER_MAX = 64  # a header ends within this many bytes, so one bounded read takes it


def parse_ppm(head: bytes, where: str, available: int) -> tuple[int, int, int]:
    """(height, width, payload offset) of the binary PPM image whose bytes
    start with `head`, of which the file holds `available`.

    ValueError naming `where` unless the header gives a positive integer width
    and height and maxval 255 and the file holds all H*W*3 payload bytes. The
    sizes are checked before any array is made, so a header never sizes an
    allocation or a read.
    """
    if head[:2] != b"P6":
        raise ValueError(f"{where}: not a binary PPM")
    header = _PPM_HEADER.match(head, 0, _PPM_HEADER_MAX)
    if header is None:
        raise ValueError(f"{where}: truncated PPM header")
    w, h, maxval = header.groups()  # bytes.isdigit() admits ASCII digits only
    if not (w.isdigit() and h.isdigit() and int(w) > 0 and int(h) > 0):
        raise ValueError(f"{where}: PPM width and height must be positive integers, "
                         f"got {w.decode('latin-1')} {h.decode('latin-1')}")
    if not (maxval.isdigit() and int(maxval) == 255):
        raise ValueError(f"{where}: unsupported maxval {maxval.decode('latin-1')}")
    h, w, payload = int(h), int(w), available - header.end()
    if payload < h * w * 3:
        raise ValueError(f"{where}: pixel payload holds {payload} bytes, a {w}x{h} image needs {h * w * 3}")
    return h, w, header.end()


def _open_regular(path: str | Path) -> tuple[int, int]:
    """(fd, size) of a regular file opened for reading; FileNotFoundError unless
    it is one: a FIFO could stall the open and a device need not end."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        raise FileNotFoundError(f"{path}: no readable regular file") from None
    info = os.fstat(fd)
    if stat.S_ISREG(info.st_mode):
        return fd, info.st_size
    os.close(fd)
    raise FileNotFoundError(f"{path}: no readable regular file")


def regular_file_bytes(path: str | Path) -> bytes:
    """A regular file's bytes, in one read; FileNotFoundError as `_open_regular`
    and when the read fails."""
    fd, size = _open_regular(path)
    try:
        return os.read(fd, size)
    except OSError:
        raise FileNotFoundError(f"{path}: no readable regular file") from None
    finally:
        os.close(fd)


# a piece of a file, with its image's (height, width) or why it holds no image
_Piece = tuple[bytes, tuple[int, int] | ValueError]


def _ppm_pieces(read, size: int, name, num_frames: Optional[int] = None) -> Iterator[_Piece]:
    """A file's `size` bytes in order, `read(pos, n)` giving n of them from pos:
    a PPM image (header and payload) a piece with its (height, width), then
    what does not parse in one piece with a ValueError naming why, as does an
    image count other than `num_frames`. A read takes a header's 64 bytes,
    one image or, at most once, what does not parse."""
    pos = t = 0
    while pos < size:
        head = read(pos, _PPM_HEADER_MAX)
        try:
            h, w, start = parse_ppm(head, f"frame {t} of {name}", size - pos)
        except ValueError as exc:
            if num_frames is not None and t >= num_frames:
                exc = ValueError(f"{name}: {size - pos} bytes left over after {t} PPM images, "
                                 f"expected {num_frames}")
            yield read(pos, size - pos), exc
            return
        yield read(pos, start + h * w * 3), (h, w)
        pos, t = pos + start + h * w * 3, t + 1
    if num_frames is not None and t != num_frames:
        yield b"", ValueError(f"{name}: holds {t} PPM images, expected {num_frames}")


def _file_pieces(path: str | Path, num_frames: Optional[int] = None) -> Iterator[_Piece]:
    """`_ppm_pieces` of a regular file, read by `os.pread`, so that no more than
    one frame is held at a time; OSError as `_open_regular` or when a read fails."""
    fd, size = _open_regular(path)
    try:
        yield from _ppm_pieces(lambda pos, n: os.pread(fd, n, pos), size, path, num_frames)
    finally:
        os.close(fd)


def write_regular_file(path: str | Path, *chunks) -> None:
    """Write the bytes-like `chunks` in turn to `path`, created or truncated as
    by open(path, "wb"); FileNotFoundError unless it is a regular file, so that
    a FIFO or a device in its place never blocks. Any other failure to open
    names its reason."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        # ENXIO: a FIFO that no process reads
        reason = "no writable regular file" if exc.errno == errno.ENXIO else exc.strerror
        raise FileNotFoundError(f"{path}: {reason}") from None
    with open(fd, "wb") as fh:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise FileNotFoundError(f"{path}: no writable regular file")
        for chunk in chunks:
            fh.write(chunk)


def read_ppm(path: str | Path, num_frames: int = 1) -> list[np.ndarray]:
    """The `num_frames` images of a PPM file, as read-only views into the one
    buffer that holds its bytes; FileNotFoundError, as `regular_file_bytes`,
    and ValueError as `_ppm_pieces`."""
    blob = memoryview(regular_file_bytes(Path(path)))
    images = []
    for piece, shape in _ppm_pieces(lambda pos, n: blob[pos:pos + n], len(blob), path, num_frames):
        if isinstance(shape, ValueError):
            raise shape
        pixels = piece[len(piece) - shape[0] * shape[1] * 3:]  # the payload ends the piece
        images.append(np.frombuffer(pixels, np.uint8).reshape(*shape, 3))
    return images


# --- Shapes -------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeState:
    """Pose of one shape in one frame; sufficient to re-rasterize exactly."""

    shape: str
    cx: float
    cy: float
    size: float
    aspect: float        # rectangle half-height / half-width ratio carrier
    color: tuple[int, int, int]


# Most bytes that one float or index temporary of a chunk holds: a track is
# rasterized, painted and encoded a chunk of frames at a time, so that its
# temporaries stay bounded however long the track and large its shape.
RASTER_CHUNK_BYTES = 1 << 18


def _box_span(centre: np.ndarray, reach: np.ndarray, extent: int) -> tuple[np.ndarray, int]:
    """Each box's first index along one axis, and the one span of all boxes:
    the widest of the [centre - reach, centre + reach] intervals clipped to
    [0, extent], each box starting at its interval's start or far enough
    before it to end at the frame's edge."""
    lo = np.clip(np.floor(centre - reach), 0, extent).astype(np.intp)
    hi = np.clip(np.ceil(centre + reach), 0, extent).astype(np.intp)
    span = int((hi - lo).max())
    return np.minimum(lo, extent - span), span


def _inside(shape: str, px, py, cx, cy, size, aspect, size_sq):
    """The pixel-center-inside test of pixel centres (px, py)."""
    if shape == "disk":
        return (px - cx) ** 2 + (py - cy) ** 2 <= size_sq
    if shape == "rectangle":
        return (np.abs(px - cx) <= size) & (np.abs(py - cy) <= size * aspect)
    # isoceles triangle pointing up, listed counter-clockwise in image coords
    ax, ay = cx, cy - size
    bx, by = cx - 0.9 * size, cy + 0.8 * size
    cx_, cy_ = cx + 0.9 * size, cy + 0.8 * size

    def half_plane(x0, y0, x1, y1):
        return (px - x0) * (y1 - y0) - (py - y0) * (x1 - x0) >= 0

    return half_plane(ax, ay, bx, by) & half_plane(bx, by, cx_, cy_) & half_plane(cx_, cy_, ax, ay)


def rasterize_track(states: Sequence[ShapeState], height: int,
                    width: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Boolean foreground of each of a track's states, all of one shape, via a
    pixel-center-inside test, in chunks of frames `(first, grids, top, left)`:
    `grids[k]` is the foreground of state `first + k` in the box whose top-left
    pixel is `(top[k], left[k])`.

    All boxes of a track share one size. Each holds a half extent of
    size * max(1, aspect) + 1 about its state's centre, clipped to the frame,
    and with it all of the shape. A pixel's centre is its integer index plus
    0.5, and its test the very expression of a full coordinate grid. Chunks
    hold as many frames as keep each float temporary within
    RASTER_CHUNK_BYTES, or one frame when a single box needs more.
    """
    shapes = {s.shape for s in states}
    if len(shapes) > 1 or not shapes <= set(SHAPES):
        raise SceneConfigError(f"a track needs states of one known shape, got {sorted(shapes)}")
    shape = shapes.pop()
    cx, cy, size, aspect = np.array([(s.cx, s.cy, s.size, s.aspect) for s in states]).T
    size_sq = np.array([s.size**2 for s in states])
    reach = size * np.maximum(1.0, aspect) + 1.0
    top, box_h = _box_span(cy, reach, height)
    left, box_w = _box_span(cx, reach, width)
    step = max(1, RASTER_CHUNK_BYTES // (8 * max(1, box_h * box_w)))
    rows, cols = np.arange(box_h)[:, None], np.arange(box_w)[None, :]
    for first in range(0, len(states), step):
        at = np.s_[first:first + step, None, None]
        px, py = (left[at] + cols) + 0.5, (top[at] + rows) + 0.5
        grids = _inside(shape, px, py, cx[at], cy[at], size[at], aspect[at], size_sq[at])
        yield first, grids, top[first:first + step], left[first:first + step]


def rasterize_shape(state: ShapeState, height: int, width: int) -> np.ndarray:
    """Boolean foreground grid of one state: `rasterize_track` of it, placed
    in the frame."""
    ((_, (grid,), (top,), (left,)),) = rasterize_track([state], height, width)
    frame = np.zeros((height, width), dtype=bool)
    frame[top:top + grid.shape[0], left:left + grid.shape[1]] = grid
    return frame


def _hsv_color(hue: float, sat: float = 0.85, val: float = 0.95) -> tuple[int, int, int]:
    r, g, b = colorsys.hsv_to_rgb(hue % 1.0, sat, val)
    return (int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


# --- Scene configuration and generation ---------------------------------------


@dataclass(frozen=True)
class SceneConfig:
    """One scene's generation parameters.

    appearance_drift scales every per-frame change at once (motion, scale,
    hue), so drift 0 yields a perfectly static target. full_timeline forces
    the single occurrence to cover every frame.
    """

    frame_size: tuple[int, int] = (64, 64)     # (height, width)
    num_frames: int = 60
    num_occurrences: int = 3                   # dataset mean is ~2.9
    distractor_count: int = 2
    target_shape: str = "disk"
    appearance_drift: float = 0.3
    target_scale: float = 0.22                 # base size as fraction of min dim
    seed: int = 0
    fps: int = 6
    full_timeline: bool = False

    def __post_init__(self) -> None:
        h, w = self.frame_size
        if h < 8 or w < 8:
            raise SceneConfigError(f"frame size too small: {self.frame_size}")
        if self.num_frames < 1:
            raise SceneConfigError("num_frames must be >= 1")
        if self.num_occurrences < 1:
            raise SceneConfigError("num_occurrences must be >= 1")
        if self.target_shape not in SHAPES:
            raise SceneConfigError(f"unknown target shape {self.target_shape!r}")
        if not 0.0 <= self.appearance_drift <= 1.0:
            raise SceneConfigError("appearance_drift must lie in [0, 1]")
        if not 0.02 <= self.target_scale <= 0.49:
            raise SceneConfigError("target_scale must lie in [0.02, 0.49]")
        # every occurrence needs >= 1 frame, separated by >= 1 empty frame
        if 2 * self.num_occurrences - 1 > self.num_frames:
            raise SceneConfigError(
                f"{self.num_occurrences} disjoint occurrences cannot fit in "
                f"{self.num_frames} frames"
            )
        if self.full_timeline and self.num_occurrences != 1:
            raise SceneConfigError("full_timeline requires exactly one occurrence")
        if self.fps < 1:
            raise SceneConfigError(f"fps must be >= 1, got {self.fps}")


@dataclass
class Trajectory:
    """Linear + sinusoidal motion with sinusoidal scale drift."""

    x0: float
    y0: float
    vx: float
    vy: float
    amp_x: float
    amp_y: float
    omega: float
    phase: float
    base_size: float
    scale_amp: float
    scale_omega: float
    scale_phase: float
    base_hue: float
    hue_amp: float
    aspect: float
    shape: str

    def state_at(self, step: int, height: int, width: int) -> ShapeState:
        t = float(step)
        size = self.base_size * (1.0 + self.scale_amp * math.sin(self.scale_omega * t + self.scale_phase))
        size = max(1.5, size)
        cx = self.x0 + self.vx * t + self.amp_x * math.sin(self.omega * t + self.phase)
        cy = self.y0 + self.vy * t + self.amp_y * math.sin(self.omega * t + self.phase + 1.3)
        # the farthest foreground pixel from the centre, and one pixel more
        reach = size * (max(1.0, self.aspect) if self.shape == "rectangle" else 1.0) + 1.0
        cx = min(max(cx, reach), width - reach) if width > 2 * reach else width / 2.0
        cy = min(max(cy, reach), height - reach) if height > 2 * reach else height / 2.0
        hue = self.base_hue + self.hue_amp * math.sin(0.37 * t + self.phase)
        return ShapeState(self.shape, cx, cy, size, self.aspect, _hsv_color(hue))


@dataclass
class SceneRecord:
    config: Optional[SceneConfig]               # None when loaded from disk
    frames: list[np.ndarray]
    query_frame: np.ndarray
    query_mask: RleMask
    gt: ResponseSet
    video_id: str = "scene"


def _sample_timeline(rng: np.random.Generator, cfg: SceneConfig) -> list[tuple[int, int]]:
    """Disjoint [start, end] occurrence spans separated by >= 1 empty frame."""
    n = cfg.num_occurrences
    if cfg.full_timeline:
        return [(0, cfg.num_frames - 1)]
    slack = cfg.num_frames - (2 * n - 1)
    # distribute slack over n lengths and n+1 gaps (outer gaps may be zero)
    parts = 2 * n + 1
    extra = rng.multinomial(slack, [1.0 / parts] * parts)
    spans = []
    cursor = int(extra[0])  # leading gap
    for i in range(n):
        length = 1 + int(extra[1 + 2 * i])
        spans.append((cursor, cursor + length - 1))
        inner_gap = 1 + int(extra[2 + 2 * i]) if i < n - 1 else 0
        cursor += length + inner_gap
    return spans


def _sample_trajectory(
    rng: np.random.Generator,
    cfg: SceneConfig,
    shape: str,
    base_hue: float,
    scale_factor: float = 1.0,
) -> Trajectory:
    h, w = cfg.frame_size
    min_dim = min(h, w)
    base_size = max(2.0, cfg.target_scale * min_dim * scale_factor)
    margin = base_size * 1.6 + 1.0
    drift = cfg.appearance_drift
    return Trajectory(
        x0=float(rng.uniform(margin, max(margin + 1e-6, w - margin))),
        y0=float(rng.uniform(margin, max(margin + 1e-6, h - margin))),
        vx=float(rng.uniform(-0.035, 0.035)) * min_dim * drift,
        vy=float(rng.uniform(-0.035, 0.035)) * min_dim * drift,
        amp_x=float(rng.uniform(0.0, 0.1)) * min_dim * drift,
        amp_y=float(rng.uniform(0.0, 0.1)) * min_dim * drift,
        omega=float(rng.uniform(0.2, 0.8)),
        phase=float(rng.uniform(0.0, 2 * math.pi)),
        base_size=base_size,
        scale_amp=0.35 * drift,
        scale_omega=float(rng.uniform(0.1, 0.5)),
        scale_phase=float(rng.uniform(0.0, 2 * math.pi)),
        base_hue=base_hue,
        hue_amp=0.06 * drift,
        aspect=float(rng.uniform(0.6, 1.0)),
        shape=shape,
    )


def _background(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Smooth low-frequency color field from a 4x4 random grid."""
    grid = rng.uniform(30, 110, size=(4, 4, 3))
    gy = np.linspace(0, 3, height)
    gx = np.linspace(0, 3, width)
    y0 = np.floor(gy).astype(int).clip(0, 2)
    x0 = np.floor(gx).astype(int).clip(0, 2)
    fy = (gy - y0)[:, None, None]
    fx = (gx - x0)[None, :, None]
    tl = grid[y0][:, x0]
    tr = grid[y0][:, x0 + 1]
    bl = grid[y0 + 1][:, x0]
    br = grid[y0 + 1][:, x0 + 1]
    mix = tl * (1 - fy) * (1 - fx) + tr * (1 - fy) * fx + bl * fy * (1 - fx) + br * fy * fx
    # row-major, as the frames it fills: `mix` comes out in another memory order
    return np.rint(mix).astype(np.uint8, order="C")


def _render_track(pixels: np.ndarray, start: int, states: Sequence[ShapeState], height: int, width: int,
                  encode: bool = False) -> list[RleMask]:
    """Paint state k's shape in its color on frame start + k of `pixels`, the
    frames' pixels in row-major order as 3-byte items, a chunk of frames at a
    time; with `encode`, return each state's foreground mask as well."""
    size = height * width
    colors = np.array([s.color for s in states], dtype=np.uint8).view("V3").ravel()
    masks: list[RleMask] = []
    for first, grids, top, left in rasterize_track(states, height, width):
        n, box_h, box_w = grids.shape
        # each box pixel's row-major index in its frame, then the foreground's
        inside = ((top * width + left)[:, None, None] + np.arange(box_h)[:, None] * width
                  + np.arange(box_w))[grids]
        counts = np.count_nonzero(grids, axis=(1, 2))
        frame = np.repeat(np.arange(n), counts)
        pixels[(start + first + frame) * size + inside] = np.repeat(colors[first:first + n], counts)
        if encode:
            masks += rle_encode_pixels(frame, inside, n, height, width)
    return masks


def generate_scene(cfg: SceneConfig, video_id: str = "scene") -> SceneRecord:
    """Render one scene deterministically from its config and seed."""
    h, w = cfg.frame_size
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    spans = _sample_timeline(rng, cfg)
    target_hue = float(rng.uniform(0.0, 1.0))
    occurrence_trajectories = [
        _sample_trajectory(rng, cfg, cfg.target_shape, target_hue) for _ in spans
    ]
    distractors = []
    for _ in range(cfg.distractor_count):
        hue = target_hue + float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.12, 0.45))
        scale_factor = float(rng.uniform(0.6, 1.4))
        distractors.append(_sample_trajectory(rng, cfg, cfg.target_shape, hue, scale_factor))

    # one block holds every frame, each starting as the background; tracks
    # paint in the order frames were painted one at a time: distractors in
    # draw order, then the occurrence
    frames = np.empty((cfg.num_frames, h, w, 3), dtype=np.uint8)
    frames[...] = _background(rng, h, w)
    pixels = frames.view("V3").reshape(-1)  # a view, as the block is contiguous
    for d in distractors:
        _render_track(pixels, 0, [d.state_at(t, h, w) for t in range(cfg.num_frames)], h, w)
    occ_masklets = [
        Masklet(start, end, tuple(_render_track(
            pixels, start, [traj.state_at(t, h, w) for t in range(end - start + 1)], h, w, encode=True)))
        for traj, (start, end) in zip(occurrence_trajectories, spans)
    ]

    # the query lives outside the video: its own background stream and pose
    qrng = np.random.default_rng(np.random.PCG64(mix_seed(cfg.seed, _QUERY_SALT)))
    qstate = _sample_trajectory(qrng, cfg, cfg.target_shape, target_hue).state_at(0, h, w)
    query = _background(qrng, h, w)
    qmask_grid = rasterize_shape(qstate, h, w)
    query[qmask_grid] = qstate.color

    return SceneRecord(
        config=cfg,
        frames=list(frames),
        query_frame=query,
        query_mask=rle_encode(qmask_grid),
        gt=ResponseSet(video_id, tuple(occ_masklets)),
        video_id=video_id,
    )


# --- Dataset generation --------------------------------------------------------

# Largest frame gen will draw, largest block of frames (frame count x pixels
# x 3 bytes) a scene may allocate, and most distractors a scene may draw:
# each checked before any scene is drawn.
MAX_FRAME_PIXELS = 4096 * 4096
MAX_SCENE_BYTES = 1 << 30
MAX_DISTRACTORS = 64


@dataclass(frozen=True)
class DatasetConfig:
    """Per-scene sampling ranges for generate_dataset (all bounds inclusive)."""

    frame_sizes: tuple[tuple[int, int], ...] = ((64, 64),)
    num_frames: tuple[int, int] = (48, 96)
    num_occurrences: tuple[int, int] = (1, 5)
    distractor_count: tuple[int, int] = (1, 3)
    shapes: tuple[str, ...] = SHAPES
    appearance_drift: tuple[float, float] = (0.0, 0.6)
    target_scale: tuple[float, float] = (0.12, 0.30)
    fps: int = 6

    def __post_init__(self) -> None:
        for flag, bounds in (("--drift", self.appearance_drift), ("--scale", self.target_scale)):
            if not all(math.isfinite(b) for b in bounds):
                raise SceneConfigError(f"{flag} range must be finite, got {bounds[0]}:{bounds[1]}")
        if self.fps < 1:
            raise SceneConfigError(f"--fps must be >= 1, got {self.fps}")
        if not self.frame_sizes:
            raise SceneConfigError("--frame-sizes must name at least one size")
        for h, w in self.frame_sizes:
            if min(h, w) < 8 or h * w > MAX_FRAME_PIXELS:
                raise SceneConfigError(f"--frame-sizes {h}x{w}: each side must be >= 8 and a frame "
                                       f"at most {MAX_FRAME_PIXELS} pixels")
        ranges = (("--frames", self.num_frames, 1, None), ("--occurrences", self.num_occurrences, 1, None),
                  ("--distractors", self.distractor_count, 0, MAX_DISTRACTORS),
                  ("--drift", self.appearance_drift, 0.0, 1.0), ("--scale", self.target_scale, 0.02, 0.49))
        for flag, (lo, hi), least, most in ranges:
            if lo > hi:
                raise SceneConfigError(f"{flag} range {lo}:{hi} is reversed: LO must not exceed HI")
            if lo < least:
                raise SceneConfigError(f"{flag} range must start at >= {least}, got {lo}:{hi}")
            if most is not None and hi > most:
                raise SceneConfigError(f"{flag} range must end at <= {most}, got {lo}:{hi}")
        if self.num_occurrences[0] > (fit := (self.num_frames[0] + 1) // 2):  # a free frame between each two
            raise SceneConfigError(f"--occurrences range must start at <= {fit} to fit in {self.num_frames[0]} "
                                   f"frames, got {self.num_occurrences[0]}:{self.num_occurrences[1]}")
        h, w = max(self.frame_sizes, key=lambda size: size[0] * size[1])
        block = self.num_frames[1] * h * w * 3
        if block > MAX_SCENE_BYTES:
            raise SceneConfigError(f"--frames {self.num_frames[0]}:{self.num_frames[1]}: a scene of "
                                   f"{self.num_frames[1]} {h}x{w} frames needs {block} bytes, "
                                   f"more than the {MAX_SCENE_BYTES} allowed")

    def sample_scene(self, scene_seed: int) -> SceneConfig:
        rng = np.random.default_rng(np.random.PCG64(mix_seed(scene_seed, _SAMPLER_SALT)))
        frame_size = self.frame_sizes[int(rng.integers(0, len(self.frame_sizes)))]
        num_frames = int(rng.integers(self.num_frames[0], self.num_frames[1] + 1))
        max_occ = min(self.num_occurrences[1], (num_frames + 1) // 2)
        return SceneConfig(
            frame_size=tuple(frame_size),
            num_frames=num_frames,
            num_occurrences=int(rng.integers(self.num_occurrences[0], max_occ + 1)),
            distractor_count=int(rng.integers(self.distractor_count[0], self.distractor_count[1] + 1)),
            target_shape=self.shapes[int(rng.integers(0, len(self.shapes)))],
            appearance_drift=float(rng.uniform(*self.appearance_drift)),
            target_scale=float(rng.uniform(*self.target_scale)),
            seed=scene_seed,
            fps=self.fps,
        )


def scene_gt_dict(record: SceneRecord) -> dict:
    h, w = record.config.frame_size
    obj = annotation_to_dict(record.gt, h, w)
    obj["query_mask"] = record.query_mask.to_runs_csv()
    obj["num_frames"] = record.config.num_frames
    obj["fps"] = record.config.fps
    return obj


def _write_scene(out_dir: Path, scene_id: str, record: SceneRecord) -> dict:
    cfg, scene = record.config, f"scenes/{scene_id}"
    (out_dir / scene).mkdir(parents=True, exist_ok=True)
    entry = {"id": scene_id, "seed": cfg.seed, "height": cfg.frame_size[0], "width": cfg.frame_size[1],
             "num_frames": cfg.num_frames, "fps": cfg.fps,
             "frames": f"{scene}/frames.ppm", "query": f"{scene}/query.ppm", "gt": f"{scene}/gt.json"}
    write_ppm(out_dir / entry["frames"], *record.frames)
    write_ppm(out_dir / entry["query"], record.query_frame)
    gt_text = json.dumps(scene_gt_dict(record), sort_keys=True, separators=(",", ":")) + "\n"
    write_regular_file(out_dir / entry["gt"], gt_text.encode())
    return entry


def _dataset_files(scenes: list[dict]) -> list[str]:
    """Every file the manifest's scenes name, in digest order, repeats included."""
    return sorted(rel for scene in scenes
                  for rel in (scene.get("frames"), scene.get("query"), scene.get("gt"))
                  if rel is not None)


def compute_digest(root: str | Path, files: Iterable[str]) -> str:
    """sha256 over sorted relative paths, each followed by a NUL and the file's
    bytes, read in `_file_pieces`, so that no read takes more than one frame."""
    digest = hashlib.sha256()
    for rel in sorted(files):
        digest.update(rel.encode("utf-8") + b"\0")
        for piece, _ in _file_pieces(Path(root) / rel):
            digest.update(piece)
    return digest.hexdigest()


def _build_scene(args: tuple[int, int, DatasetConfig, str]) -> dict:
    index, master_seed, dist_cfg, out_dir = args
    scene_seed = mix_seed(master_seed, index)
    scene_id = f"scene_{index:04d}"
    cfg = dist_cfg.sample_scene(scene_seed)
    record = generate_scene(cfg, video_id=scene_id)
    return _write_scene(Path(out_dir), scene_id, record)


def generate_dataset(
    n_scenes: int,
    dist_cfg: DatasetConfig,
    seed: int,
    out_dir: str | Path,
    jobs: int = 1,
) -> dict:
    """Generate n_scenes scenes plus a digest-carrying manifest; returns it."""
    if n_scenes < 1:
        raise SceneConfigError("n_scenes must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    work = [(i, seed, dist_cfg, str(out)) for i in range(n_scenes)]
    entries = parallel_map(_build_scene, work, jobs)
    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": seed,
        "config": asdict(dist_cfg),
        "scenes": entries,
    }
    manifest["digest"] = compute_digest(out, _dataset_files(entries))
    write_regular_file(out / MANIFEST_NAME, json.dumps(manifest, sort_keys=True, indent=1).encode(), b"\n")
    return manifest


def load_manifest(dataset_dir: str | Path) -> dict:
    """The parsed manifest; SceneConfigError when its format is not
    MANIFEST_FORMAT or its shape is not a manifest's, FileNotFoundError, as
    `regular_file_bytes`, unless it is a readable regular file."""
    manifest = json.loads(regular_file_bytes(Path(dataset_dir) / MANIFEST_NAME))
    if not isinstance(manifest, dict):
        raise SceneConfigError("manifest: top level must be an object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise SceneConfigError(f"manifest: format {manifest.get('format')!r} is not {MANIFEST_FORMAT!r}; "
                               f"regenerate the dataset with vqs gen")
    if not isinstance(manifest.get("scenes", []), list):
        raise SceneConfigError("manifest: 'scenes' must be a list")
    ids = set()
    for i, entry in enumerate(manifest.get("scenes", [])):
        if not isinstance(entry, dict):
            raise SceneConfigError(f"manifest: scenes[{i}] must be an object")
        for key in ("id", "frames", "query", "gt"):
            if key in entry and not isinstance(entry[key], str):
                raise SceneConfigError(f"manifest: scenes[{i}]: {key!r} must be a string")
        for key in ("num_frames", "fps"):
            if key not in entry:
                raise SceneConfigError(f"manifest: scenes[{i}]: missing {key!r}")
        for key in ("height", "width", "num_frames", "fps"):
            value = entry.get(key, 1)  # an absent height or width passes
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SceneConfigError(
                    f"manifest: scenes[{i}]: {key!r} must be a positive integer, got {value!r}")
        if "id" in entry:
            if entry["id"] in ids:
                raise SceneConfigError(f"manifest: scenes[{i}]: repeated id {entry['id']!r}")
            ids.add(entry["id"])
    return manifest


def _query_mask(obj: dict, height: int, width: int) -> RleMask:
    """The query mask of a parsed gt file; MaskError unless it is a run list string."""
    text = obj.get("query_mask")
    if not isinstance(text, str):
        raise MaskError("missing query_mask" if text is None
                        else f"query_mask must be a string of runs, got {text!r}")
    return RleMask.from_runs_csv(text, height, width)


def load_scene_gt(dataset_dir: str | Path, scene_entry: dict) -> tuple[ResponseSet, RleMask]:
    """gt annotation plus the query mask for one manifest scene entry;
    FileNotFoundError, as `regular_file_bytes`, unless the gt is a readable regular file."""
    obj = json.loads(regular_file_bytes(Path(dataset_dir) / scene_entry["gt"]))
    response, h, w = annotation_from_dict(obj)
    return response, _query_mask(obj, h, w)


def load_scene_record(dataset_dir: str | Path, scene_entry: dict) -> SceneRecord:
    """Read one scene's frames, query and annotations, each file once; the
    frames are read-only views into the one buffer of the frames file. The
    generating config is not persisted, so `config` is None."""
    root = Path(dataset_dir)
    response, qmask = load_scene_gt(root, scene_entry)
    return SceneRecord(
        config=None,
        frames=read_ppm(root / scene_entry["frames"], scene_entry["num_frames"]),
        query_frame=read_ppm(root / scene_entry["query"])[0],
        query_mask=qmask,
        gt=response,
        video_id=scene_entry["id"],
    )


# --- Statistics ----------------------------------------------------------------


def _histogram(values: Sequence[float], bins: int = 10) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {"count": 0, "bin_edges": [], "counts": [], "mean": None, "min": None, "max": None}
    counts, edges = np.histogram(arr, bins=bins)
    return {
        "count": int(arr.size),
        "bin_edges": [float(e) for e in edges],
        "counts": [int(c) for c in counts],
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def compute_stats(dataset_dir: str | Path, bins: int = 10) -> dict:
    """Dataset distributions: lengths, occurrences, areas, motion statistics."""
    manifest = load_manifest(dataset_dir)
    video_lengths = []
    response_lengths = []
    occurrence_counts = []
    mask_areas = []
    relative_areas = []
    adjacent_ious = []
    for entry in manifest["scenes"]:
        response, _ = load_scene_gt(dataset_dir, entry)
        fps = entry["fps"]
        video_lengths.append(entry["num_frames"] / fps)
        occurrence_counts.append(len(response.occurrences))
        first_area = None
        for occ in response.occurrences:
            response_lengths.append(len(occ.masks) / fps)
            # each mask's area, and its overlap with the next mask: that mask laid on its frame
            n, (h, w) = len(occ.masks), occ.shape
            areas, _, inters = framewise_overlaps(occ.masks, range(n), occ.masks[1:], range(n - 1), h * w)
            mask_areas += map(float, areas)
            for area in areas:
                first_area = first_area or float(area) or None  # the video's first non-zero area
                if first_area:
                    relative_areas.append(area / first_area)
            adjacent_ious += map(iou_from_areas, inters, areas, areas[1:])
    return {
        "scenes": len(manifest["scenes"]),
        "video_length_sec": _histogram(video_lengths, bins),
        "response_length_sec": _histogram(response_lengths, bins),
        "occurrence_count": _histogram(occurrence_counts, bins),
        "mask_area": _histogram(mask_areas, bins),
        "relative_area": _histogram(relative_areas, bins),
        "adjacent_frame_iou": _histogram(adjacent_ious, bins),
    }


# --- Validation ----------------------------------------------------------------


def _gt_violations(sid: str, entry: dict, blob: bytes) -> list[str]:
    """What is wrong with one scene's gt file, given its bytes."""
    try:
        obj = json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return [f"{sid}: gt unreadable ({exc})"]
    try:
        response, h, w = annotation_from_dict(obj)
    except MaskError as exc:
        return [f"{sid}: {exc}"]
    violations = []
    if (h, w) != (entry.get("height"), entry.get("width")):
        violations.append(f"{sid}: gt dimensions {h}x{w} do not match manifest entry")
    if response.occurrences and response.occurrences[-1].end_frame >= entry["num_frames"]:
        violations.append(f"{sid}: occurrence ends at frame "
                          f"{response.occurrences[-1].end_frame} beyond video length")
    try:
        if _query_mask(obj, h, w).area() == 0:
            violations.append(f"{sid}: query mask is empty")
    except MaskError as exc:
        violations.append(f"{sid}: bad query mask ({exc})")
    return violations


def validate_manifest(dataset_dir: str | Path) -> list[str]:
    """All invariant violations in a dataset directory; empty list when clean.

    One pass in digest order reads each file once, in `_file_pieces`, so that
    a frames file is held one frame at a time. Its pieces feed the digest, the
    gt checks and a sha256 and shape per frame; a query equal to a frame is
    found by comparing the query file's sha256 with each frame's. A file that
    cannot be opened or read, or is not a regular file, is reported missing;
    nothing is raised.
    """
    root = Path(dataset_dir)
    try:
        manifest = load_manifest(root)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"manifest: unreadable ({exc})"]
    except SceneConfigError as exc:
        return [str(exc)]
    scenes = manifest.get("scenes", [])
    gt_users: dict[str, list[int]] = {}
    for i, entry in enumerate(scenes):
        gt_users.setdefault(entry.get("gt"), []).append(i)

    digest = hashlib.sha256()
    lengths = {entry.get("frames"): entry["num_frames"] for entry in scenes}
    scans: dict[str, list[_Piece]] = {}  # each piece's sha256 in place of its bytes
    gt_checks: dict[int, list[str]] = {}
    for rel, listings in itertools.groupby(_dataset_files(scenes)):
        copies = len(list(listings))  # a file listed twice is read once and hashed twice
        scan, kept = [], [rel.encode("utf-8") + b"\0"]
        digest.update(kept[0])
        try:
            for piece, shape in _file_pieces(root / rel, lengths.get(rel)):
                digest.update(piece)
                scan.append((hashlib.sha256(piece).digest(), shape))
                if copies > 1 or rel in gt_users:
                    kept.append(piece)
        except OSError:
            continue
        scans[rel] = scan
        for piece in kept * (copies - 1):
            digest.update(piece)
        for i in gt_users.get(rel, ()):
            gt_checks[i] = _gt_violations(scenes[i].get("id", "<missing id>"), scenes[i], b"".join(kept[1:]))

    violations = [f"{entry.get('id', '<missing id>')}: missing file {rel}" for entry in scenes
                  for rel in (entry.get("frames"), entry.get("query"), entry.get("gt")) if rel not in scans]
    if not violations and "digest" in manifest and digest.hexdigest() != manifest["digest"]:
        violations.append("manifest: digest does not match dataset content")
    for i, entry in enumerate(scenes):
        sid, rel = entry.get("id", "<missing id>"), entry.get("frames")
        violations.extend(gt_checks.get(i, []))
        images = [(sha, shape) for sha, shape in scans.get(rel, []) if not isinstance(shape, ValueError)]
        query = scans.get(entry.get("query"), [])
        same = [t for t, (sha, _) in enumerate(images) if len(query) == 1 and sha == query[0][0]]
        violations += [f"{sid}: query frame identical to video frame {t} of {rel}" for t in same[:1]]
        violations += [f"{sid}: frame {t} of {rel} has shape {shape}" for t, (_, shape) in enumerate(images)
                       if shape != (entry.get("height"), entry.get("width"))]
        violations += [f"{sid}: {shape}" for _, shape in scans.get(rel, []) if isinstance(shape, ValueError)]
    return violations
