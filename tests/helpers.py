"""Shared builders for synthetic responses used across the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from vqs import autodiff as ad
from vqs.masks import Masklet, ResponseSet, RleMask, rle_encode
from vqs.pipeline import FrameCandidates, MaskCandidate


def gradcheck_with_noise_floor(loss, params, coords_per_param=2, h=1e-5, seed=0,
                               rtol=1e-4, atol=5e-9):
    """`autodiff.finite_differences` over a dict of named parameters, passing
    on relative OR absolute agreement.

    Coordinates whose true gradient sits near the finite-difference noise
    floor (|f|*eps/h, around 1e-10 here) cannot meet a purely relative bound,
    so absolute agreement within atol also counts. Returns failure tuples.
    """
    names = {id(p): name for name, p in params.items()}
    failures = []
    for p, flat_idx, ga, gn in ad.finite_differences(loss, list(params.values()), coords_per_param, h, seed):
        rel = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
        if rel >= rtol and abs(ga - gn) >= atol:
            failures.append((names[id(p)], flat_idx, ga, gn, rel))
    return failures


def assert_bytes_equal(got, expected, what=""):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape, what
    assert got.tobytes() == expected.tobytes(), f"{what}: max |diff| {np.max(np.abs(got - expected))}"


def make_candidate(logits, iou=0.5, occ=1.0) -> MaskCandidate:
    logits = np.asarray(logits, dtype=np.float64)
    return MaskCandidate(logits, logits > 0, iou, occ)


def frame_of(cands, index=0) -> FrameCandidates:
    """A frame of the given candidates; a candidate's tape nodes are leaves of its values."""
    cands = tuple(cands)
    return FrameCandidates(index, cands, lambda h: ad.tensor(cands[h].occlusion),
                           lambda h: (ad.tensor(cands[h].logits), ad.tensor(cands[h].iou)))


def bytes_read() -> int:
    """Bytes this process has read so far (`rchar` in /proc/self/io); the
    calling test is skipped where that file does not exist."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    pytest.skip("no rchar in /proc/self/io")


def recorded_reads(monkeypatch) -> list[tuple[str, int]]:
    """(path, bytes asked for) of each `os.read` or `os.pread` of a file that
    `os.open` opened, from now until `monkeypatch.undo()`."""
    names, reads = {}, []
    real_open, real_read, real_pread = os.open, os.read, os.pread

    def opening(path, *args, **kwargs):
        fd = real_open(path, *args, **kwargs)
        names[fd] = str(path)
        return fd

    def reading(fd, n, *pos):
        if fd in names:
            reads.append((names[fd], n))
        return (real_pread if pos else real_read)(fd, n, *pos)

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "read", reading)
    monkeypatch.setattr(os, "pread", reading)
    return reads


def block_mask(h, w, r0, c0, bh, bw) -> RleMask:
    g = np.zeros((h, w), dtype=np.uint8)
    g[r0 : r0 + bh, c0 : c0 + bw] = 1
    return rle_encode(g)


def random_mask(rng: np.random.Generator, h: int, w: int, density: float | None = None) -> RleMask:
    p = rng.random() * 0.6 + 0.1 if density is None else density
    return rle_encode((rng.random((h, w)) < p).astype(np.uint8))


def random_response(
    rng: np.random.Generator,
    video_id: str,
    h: int = 8,
    w: int = 8,
    num_frames: int = 20,
    max_occurrences: int = 3,
    allow_empty: bool = True,
) -> ResponseSet:
    """Random disjoint masklets with random masks over a short timeline."""
    n_occ = int(rng.integers(0 if allow_empty else 1, max_occurrences + 1))
    cursor = 0
    occs = []
    for _ in range(n_occ):
        if cursor >= num_frames:
            break
        start = int(rng.integers(cursor, num_frames))
        end = int(rng.integers(start, min(num_frames - 1, start + 5) + 1))
        masks = tuple(random_mask(rng, h, w) for _ in range(end - start + 1))
        occs.append(Masklet(start, end, masks))
        cursor = end + 2
    return ResponseSet(video_id, tuple(occs))


def shift_mask(mask: RleMask, dr: int, dc: int) -> RleMask:
    from vqs.masks import rle_decode

    g = rle_decode(mask)
    out = np.zeros_like(g)
    h, w = g.shape
    src = g[max(0, -dr) : h - max(0, dr), max(0, -dc) : w - max(0, dc)]
    out[max(0, dr) : h - max(0, -dr), max(0, dc) : w - max(0, -dc)] = src
    return rle_encode(out)


def perturb_response(rng: np.random.Generator, gt: ResponseSet, num_frames: int) -> ResponseSet:
    """Imperfect prediction: drops, temporal shifts, and spatial jitter."""
    mode = rng.random()
    if mode < 0.1:
        return ResponseSet(gt.video_id, ())
    if mode < 0.25:
        return gt
    occs = []
    prev_end = -1
    for occ in gt.occurrences:
        if rng.random() < 0.2:
            continue
        tshift = int(rng.integers(-2, 3))
        start = max(prev_end + 1, occ.start_frame + tshift)
        end = min(num_frames - 1, occ.end_frame + tshift)
        if end < start:
            continue
        dr, dc = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        masks = []
        for f in range(start, end + 1):
            src = occ.masks[min(max(f - tshift, occ.start_frame), occ.end_frame) - occ.start_frame]
            masks.append(shift_mask(src, dr, dc))
        if all(m.area() == 0 for m in masks):
            continue
        occs.append(Masklet(start, end, tuple(masks)))
        prev_end = end
    return ResponseSet(gt.video_id, tuple(occs))
