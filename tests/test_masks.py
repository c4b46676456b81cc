import json
import re
from pathlib import Path

import numpy as np
import pytest

from vqs.masks import (
    CorruptMaskError,
    MaskDimensionError,
    MaskError,
    Masklet,
    ResponseSet,
    RleMask,
    annotation_from_dict,
    annotation_to_dict,
    group_into_masklets,
    mask_intersection_area,
    mask_iou,
    rle_decode,
    rle_encode,
)


def grid(rows):
    return np.array(rows, dtype=np.uint8)


def block_mask(h, w, r0, c0, bh, bw):
    g = np.zeros((h, w), dtype=np.uint8)
    g[r0 : r0 + bh, c0 : c0 + bw] = 1
    return rle_encode(g)


class TestCodec:
    def test_all_zero(self):
        assert rle_encode(np.zeros((2, 2), dtype=int)).runs == (4,)

    def test_all_one(self):
        assert rle_encode(np.ones((2, 2), dtype=int)).runs == (0, 4)

    def test_hand_flattened(self):
        # rows (0,1,1)/(1,0,0) flatten to 011100 -> runs 1,3,2
        m = rle_encode(grid([[0, 1, 1], [1, 0, 0]]))
        assert m.runs == (1, 3, 2)
        assert m.shape == (2, 3)

    def test_decode_all_zero(self):
        assert (rle_decode(RleMask(2, 2, (4,))) == 0).all()

    def test_decode_all_one(self):
        assert (rle_decode(RleMask(2, 2, (0, 4))) == 1).all()

    def test_decode_hand_case(self):
        out = rle_decode(RleMask(2, 3, (1, 3, 2)))
        assert (out == grid([[0, 1, 1], [1, 0, 0]])).all()

    def test_round_trip_random(self):
        rng = np.random.default_rng(20240521)
        for _ in range(10_000):
            h = int(rng.integers(1, 33))
            w = int(rng.integers(1, 33))
            bitmap = (rng.random((h, w)) < rng.random()).astype(np.uint8)
            mask = rle_encode(bitmap)
            assert (rle_decode(mask) == bitmap).all()
            assert rle_encode(rle_decode(mask)) == mask

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64, object])
    def test_every_dtype_encodes_alike(self, dtype):
        bitmap = (np.random.default_rng(7).random((9, 11)) < 0.4)
        mask = rle_encode(bitmap.astype(dtype))
        assert mask == rle_encode(bitmap.tolist())
        assert all(type(r) is int for r in mask.runs)
        assert (rle_decode(mask) == bitmap).all()

    @pytest.mark.parametrize("value", [2, -1, 0.5, float("nan"), None, "1"],
                             ids=["two", "minus-one", "half", "nan", "none", "text"])
    def test_non_binary_entry_rejected(self, value):
        bitmap = np.zeros((3, 4), dtype=object if value is None or isinstance(value, str) else type(value))
        bitmap[1, 2] = value
        with pytest.raises(MaskError, match="bitmap entries must be 0 or 1"):
            rle_encode(bitmap)

    def test_empty_bitmap_rejected(self):
        with pytest.raises(MaskDimensionError):
            rle_encode(np.zeros((0, 4), dtype=int))
        with pytest.raises(MaskDimensionError):
            rle_encode(np.zeros(4, dtype=int))

    def test_bad_run_sum_rejected(self):
        with pytest.raises(CorruptMaskError):
            RleMask(2, 2, (3,))

    def test_inner_zero_run_rejected(self):
        with pytest.raises(CorruptMaskError):
            RleMask(2, 2, (1, 0, 3))

    def test_leading_zero_run_allowed(self):
        assert RleMask(1, 4, (0, 4)).area() == 4

    def test_runs_csv_round_trip(self):
        m = rle_encode(grid([[0, 1, 1], [1, 0, 0]]))
        assert RleMask.from_runs_csv(m.to_runs_csv(), 2, 3) == m


class TestAlgebra:
    def test_iou_identity(self):
        m = block_mask(4, 4, 0, 0, 2, 2)
        assert mask_iou(m, m) == 1.0

    def test_iou_disjoint(self):
        a = block_mask(4, 4, 0, 0, 2, 2)
        b = block_mask(4, 4, 2, 2, 2, 2)
        assert mask_iou(a, b) == 0.0

    def test_iou_shifted_blocks(self):
        a = block_mask(4, 4, 0, 0, 2, 2)
        b = block_mask(4, 4, 0, 1, 2, 2)
        assert mask_iou(a, b) == pytest.approx(2 / 6, abs=1e-12)

    def test_iou_empty_conventions(self):
        e = RleMask.empty(3, 3)
        f = block_mask(3, 3, 0, 0, 1, 1)
        assert mask_iou(e, e) == 1.0
        assert mask_iou(e, f) == 0.0
        assert mask_iou(f, e) == 0.0

    def test_iou_dimension_mismatch(self):
        with pytest.raises(MaskDimensionError):
            mask_iou(RleMask.empty(2, 2), RleMask.empty(2, 3))

    def test_iou_symmetry_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rle_encode((rng.random((6, 7)) < 0.4).astype(np.uint8))
            b = rle_encode((rng.random((6, 7)) < 0.4).astype(np.uint8))
            assert mask_iou(a, b) == mask_iou(b, a)

    def test_iou_matches_pixel_counting(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            ga = (rng.random((9, 11)) < rng.random()).astype(np.uint8)
            gb = (rng.random((9, 11)) < rng.random()).astype(np.uint8)
            a, b = rle_encode(ga), rle_encode(gb)
            inter = int(np.logical_and(ga, gb).sum())
            union = int(np.logical_or(ga, gb).sum())
            expected = inter / union if union else 1.0
            assert mask_iou(a, b) == pytest.approx(expected, abs=1e-12)

    def test_inclusion_exclusion(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            ga = (rng.random((8, 8)) < 0.5).astype(np.uint8)
            gb = (rng.random((8, 8)) < 0.5).astype(np.uint8)
            a, b = rle_encode(ga), rle_encode(gb)
            inter = mask_intersection_area(a, b)
            union = a.area() + b.area() - inter
            assert inter + union == a.area() + b.area()
            assert union == int(np.logical_or(ga, gb).sum())


class TestOccurrences:
    def test_masklet_length_check(self):
        m = RleMask.empty(2, 2)
        with pytest.raises(Exception):
            Masklet(3, 5, (m, m))
        Masklet(3, 5, (m, m, m))

    def test_response_set_rejects_overlap(self):
        m = RleMask(2, 2, (0, 4))
        a = Masklet(0, 2, (m, m, m))
        b = Masklet(2, 3, (m, m))
        with pytest.raises(Exception):
            ResponseSet("v", (a, b))

    def test_response_set_rejects_unsorted(self):
        m = RleMask(2, 2, (0, 4))
        a = Masklet(4, 5, (m, m))
        b = Masklet(0, 1, (m, m))
        with pytest.raises(Exception):
            ResponseSet("v", (a, b))

    def test_group_into_masklets(self):
        m = RleMask(2, 2, (0, 4))
        e = RleMask.empty(2, 2)
        seq = [None, None, m, m, m, None, e, None, None, m, m]
        occs = group_into_masklets(seq)
        assert [(o.start_frame, o.end_frame) for o in occs] == [(2, 4), (9, 10)]

    def test_group_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        m = RleMask(2, 2, (0, 4))
        for _ in range(300):
            present = rng.random(12) < 0.5
            seq = [m if p else None for p in present]
            occs = group_into_masklets(seq)
            # brute force: recover segments by scanning the boolean pattern
            segments = []
            start = None
            for i, p in enumerate(present):
                if p and start is None:
                    start = i
                if not p and start is not None:
                    segments.append((start, i - 1))
                    start = None
            if start is not None:
                segments.append((start, len(present) - 1))
            assert [(o.start_frame, o.end_frame) for o in occs] == segments

    def test_annotation_round_trip(self):
        a = block_mask(4, 4, 0, 0, 2, 2)
        b = block_mask(4, 4, 1, 1, 2, 2)
        rs = ResponseSet("vid7", (Masklet(1, 2, (a, b)), Masklet(5, 5, (a,))))
        obj = annotation_to_dict(rs, 4, 4)
        back, h, w = annotation_from_dict(obj)
        assert (h, w) == (4, 4)
        assert back == rs

    @pytest.mark.parametrize("occurrences", [
        5, [5], [{"start": 0, "end": 0, "masks": 5}], [{"start": 0, "end": 0, "masks": [5]}],
        [{"start": 0, "end": 0}],
    ], ids=["occurrences-int", "occurrence-int", "masks-int", "mask-int", "masks-missing"])
    def test_malformed_occurrences_raise_mask_error(self, occurrences):
        obj = {"video_id": "v", "height": 4, "width": 4, "occurrences": occurrences}
        with pytest.raises(MaskError, match="malformed annotation object"):
            annotation_from_dict(obj)

    @pytest.mark.parametrize("field", ["height", "width"])
    @pytest.mark.parametrize("value", [2.5, "2", True, 0, -1, None],
                             ids=["float", "string", "bool", "zero", "negative", "missing"])
    def test_annotation_dimension_must_be_a_positive_int(self, field, value):
        # 2.5, "2" and True used to pass through int() as 2, 2 and 1
        obj = {"video_id": "v", "height": 2, "width": 4,
               "occurrences": [{"start": 0, "end": 0, "masks": ["8"]}]}
        obj = {k: v for k, v in obj.items() if k != field} if value is None else {**obj, field: value}
        error = (MaskError, f"malformed annotation object: {field!r}") if value is None else \
            (MaskDimensionError, f"annotation {field!r} must be an integer >= 1, got {value!r}")
        with pytest.raises(error[0], match=f"^{re.escape(error[1])}$"):
            annotation_from_dict(obj)

    def test_annotation_dims_must_match(self):
        a = block_mask(4, 4, 0, 0, 2, 2)
        rs = ResponseSet("v", (Masklet(0, 0, (a,)),))
        with pytest.raises(MaskDimensionError):
            annotation_to_dict(rs, 8, 8)


class TestGoldenAnnotation:
    """The serialized annotation schema is pinned byte-exactly."""

    FIXTURE = Path(__file__).parent / "fixtures" / "golden_annotation.json"

    def golden_response(self):
        return ResponseSet(
            "golden_video",
            (
                Masklet(2, 4, (block_mask(6, 8, 0, 0, 2, 3),
                               block_mask(6, 8, 1, 1, 2, 3),
                               block_mask(6, 8, 2, 2, 2, 3))),
                Masklet(7, 7, (block_mask(6, 8, 4, 5, 2, 3),)),
            ),
        )

    def test_serialization_is_bit_exact(self):
        obj = annotation_to_dict(self.golden_response(), 6, 8)
        text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert text.encode() == self.FIXTURE.read_bytes()

    def test_golden_parses_back(self):
        obj = json.loads(self.FIXTURE.read_text())
        response, h, w = annotation_from_dict(obj)
        assert (h, w) == (6, 8)
        assert response == self.golden_response()
