"""Mask work on the feature grid equals the pixel-domain RLE path bit for bit."""

import numpy as np
import pytest

from vqs.masks import RleMask, mask_iou, rle_encode
from vqs.pipeline import binarize_candidate, grid_iou, mask_patch_counts
from vqs.training import _routed_candidate

from . import oracles
from .helpers import frame_of, make_candidate

PATCH_SIZES = (1, 2, 3, 4, 8)


def block_grid(r0, c0):
    grid = np.zeros((4, 4), dtype=bool)
    grid[r0 : r0 + 2, c0 : c0 + 2] = True
    return grid


def logit_grids(rng, n):
    """Trials of `n` logit grids of one random shape: all empty, all full, one full
    among empties, then random normals."""
    shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    yield [-np.ones(shape)] * n
    yield [np.ones(shape)] * n
    yield [np.ones(shape)] + [-np.ones(shape)] * (n - 1)
    for _ in range(40):
        yield [rng.normal(size=shape) for _ in range(n)]


class TestGridIou:
    def test_worked_divergence_cases(self):
        a = block_grid(0, 0)
        assert 1.0 - grid_iou(a, a) == 0.0
        assert 1.0 - grid_iou(a, block_grid(2, 2)) == 1.0
        assert 1.0 - grid_iou(a, block_grid(0, 1)) == pytest.approx(1 - 2 / 6, abs=1e-12)

    def test_grid_iou_equals_pixel_iou(self):
        rng = np.random.default_rng(31)
        for p in PATCH_SIZES:
            for logits in logit_grids(rng, 2):
                a, b = (make_candidate(x) for x in logits)
                frame_hw = (a.grid.shape[0] * p, a.grid.shape[1] * p)
                expected = mask_iou(binarize_candidate(a, frame_hw), binarize_candidate(b, frame_hw))
                assert grid_iou(a.grid, b.grid) == expected
                assert grid_iou(b.grid, a.grid) == expected


class TestPatchCounts:
    def test_fractions_equal_pixel_means(self):
        rng = np.random.default_rng(41)
        for p in PATCH_SIZES:
            for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                h, w = p * int(rng.integers(1, 6)), p * int(rng.integers(1, 6))
                mask = rle_encode((rng.random((h, w)) < density).astype(np.uint8))
                counts = mask_patch_counts(mask, p)
                assert counts.dtype == np.int64 and counts.sum() == mask.area()
                fractions = mask_patch_counts(mask, p) / p**2
                assert np.array_equal(fractions, oracles.rle_patch_fractions(mask, p))

    def test_routed_iou_equals_pixel_iou(self):
        rng = np.random.default_rng(43)
        for p in PATCH_SIZES:
            for logits in logit_grids(rng, 3):
                frame = frame_of(make_candidate(x) for x in logits)
                gh, gw = logits[0].shape
                frame_hw = (gh * p, gw * p)
                # a pixel-level gt, so patches are partly covered
                gt = rle_encode((rng.random(frame_hw) < rng.random()).astype(np.uint8))
                assert _routed_candidate(frame, mask_patch_counts(gt, p), p) == (
                    oracles.rle_routed_candidate(frame, gt, frame_hw))
                no_gt = np.zeros((gh, gw), dtype=np.int64)
                assert _routed_candidate(frame, no_gt, p) == (
                    oracles.rle_routed_candidate(frame, None, frame_hw))
