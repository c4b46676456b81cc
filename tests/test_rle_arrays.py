"""The array paths of masks and metrics: the one-pass overlap kernel and the
one-pass annotation parser, each against a per-pixel or per-token reference."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from vqs.cli import dispatch
import vqs.masks
from vqs.masks import (
    MAX_MASK_PIXELS,
    MaskDimensionError,
    MaskError,
    Masklet,
    ResponseSet,
    RleMask,
    _parsed_masks,
    annotation_from_dict,
    framewise_overlaps,
    mask_intersection_area,
    mask_iou,
    rle_encode,
    rle_encode_pixels,
)
from vqs.metrics import frame_overlaps

from .helpers import random_response
from vqs.synth import SceneConfig, generate_scene, scene_gt_dict

from .oracles import capped_dimensions, decode_runs, per_list_annotation, response_to_pixel_frames, run_list_tokens


def random_bitmap(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Empty, full, first-pixel-foreground or random-density grids."""
    kind = rng.integers(5)
    if kind == 0:
        return np.zeros((h, w), dtype=np.uint8)
    if kind == 1:
        return np.ones((h, w), dtype=np.uint8)
    grid = (rng.random((h, w)) < rng.random()).astype(np.uint8)
    if kind == 2:
        grid.flat[0] = 1  # the run list starts with a zero-length background run
    return grid


def interval_overlap(a: RleMask, b: RleMask) -> int:
    """Python-int overlap of two run lists, interval by interval."""
    def intervals(mask):
        out, pos = [], 0
        for i, run in enumerate(mask.runs):
            if i % 2:
                out.append((pos, pos + run))
            pos += run
        return out

    return sum(max(0, min(e1, e2) - max(s1, s2))
               for s1, e1 in intervals(a) for s2, e2 in intervals(b))


def pair_overlaps(pairs: list) -> list:
    """`framewise_overlaps` of same-shape (a, b) pairs, pair i on frame i."""
    frames = range(len(pairs))
    return framewise_overlaps([a for a, _ in pairs], frames, [b for _, b in pairs], frames,
                              pairs[0][0].height * pairs[0][0].width)[2]


class TestOverlapKernel:
    def test_matches_pixel_counts_on_seeded_pairs(self):
        rng = np.random.default_rng(20261018)
        pairs_checked = 0
        first_runs_zero = 0
        while pairs_checked < 1200:
            h, w = (1, 1) if rng.random() < 0.1 else (int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            grids = [(random_bitmap(rng, h, w), random_bitmap(rng, h, w)) for _ in range(rng.integers(1, 7))]
            pairs = [(rle_encode(ga), rle_encode(gb)) for ga, gb in grids]
            got = pair_overlaps(pairs)
            want = [int(np.logical_and(decode_runs(a.runs, h, w), decode_runs(b.runs, h, w)).sum())
                    for a, b in pairs]
            assert got == want
            assert all(type(v) is int for v in got)
            for (a, b), inter in zip(pairs, want):
                assert mask_intersection_area(a, b) == inter
                union = a.area() + b.area() - inter
                assert mask_iou(a, b) == (inter / union if union else 1.0)
            pairs_checked += len(pairs)
            first_runs_zero += sum(a.runs[0] == 0 for a, _ in pairs)
        assert first_runs_zero > 100

    def test_no_pairs(self):
        assert framewise_overlaps([], [], [], [], 1) == ([], [], [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MaskDimensionError, match="mask shape mismatch"):
            mask_intersection_area(RleMask.empty(2, 2), RleMask.empty(2, 3))

    @pytest.mark.parametrize("height,width,count", [
        (2**31, 2**31, 3),   # each mask would fit int64, the three laid end to end would not
        (2**40, 2**40, 2),   # one mask's area would be past int64
        (10**15, 10**14, 1),
    ])
    def test_offsets_past_int64_do_not_wrap(self, height, width, count):
        """Dimensions whose offsets would pass int64 are refused; `count` masks
        at the cap, laid end to end, are counted exactly."""
        with pytest.raises(MaskDimensionError, match=re.escape(f"got {height}x{width}")):
            RleMask(height, width, (1,))
        n = MAX_MASK_PIXELS
        rng = np.random.default_rng(count)
        pairs = []
        for _ in range(count):
            cuts = sorted({int(v) * (n // 2**20) + int(k) for k, v in enumerate(rng.integers(1, 2**20, size=6))})
            runs_a = tuple(np.diff([0, *cuts[:3], n]).tolist())
            runs_b = tuple(np.diff([0, *cuts[3:], n]).tolist())
            pairs.append((RleMask(2**16, 2**15, runs_a), RleMask(2**16, 2**15, (0, *runs_b))))
        assert pair_overlaps(pairs) == [interval_overlap(a, b) for a, b in pairs]
        assert [interval_overlap(a, b) for a, b in pairs] != [0] * count


class TestEncodePixels:
    def test_matches_rle_encode_frame_by_frame(self):
        rng = np.random.default_rng(20261020)
        joined = 0
        for _ in range(400):
            h, w = (1, 1) if rng.random() < 0.1 else (int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            stack = np.array([random_bitmap(rng, h, w) for _ in range(rng.integers(1, 7))], dtype=bool)
            if rng.random() < 0.3:
                # each frame's last pixel runs on into the next frame's first
                stack[:, 0, 0] = stack[:, -1, -1] = True
            joined += int(stack[:-1, -1, -1].any() and stack[1:, 0, 0].any())
            frame, index = np.nonzero(stack.reshape(len(stack), -1))
            assert rle_encode_pixels(frame, index, len(stack), h, w) == [rle_encode(grid) for grid in stack]
        assert joined > 50

    def test_no_foreground(self):
        assert rle_encode_pixels([], [], 3, 2, 5) == [RleMask.empty(2, 5)] * 3


class TestFrameOverlaps:
    def test_matches_pixel_counts_with_one_sided_frames(self):
        rng = np.random.default_rng(7)
        one_sided = 0
        for _ in range(200):
            gt = random_response(rng, "v", h=5, w=6, num_frames=12)
            pred = random_response(rng, "v", h=5, w=6, num_frames=12)
            gt_px, pred_px = response_to_pixel_frames(gt), response_to_pixel_frames(pred)
            table = frame_overlaps(gt, pred)
            assert table.gt_area == {t: int(g.sum()) for t, g in gt_px.items()}
            assert table.pred_area == {t: int(p.sum()) for t, p in pred_px.items()}
            assert table.inter == {t: int(np.logical_and(g, pred_px[t]).sum())
                                   for t, g in gt_px.items() if t in pred_px}
            one_sided += len(set(gt_px) ^ set(pred_px))
        assert one_sided > 100


def per_token_outcome(texts: list, height: int, width: int):
    """The dimension cap, then each list's tokens as `run_list_tokens` reads
    them and RleMask's checks: ("ok", runs) or (error class, text)."""
    out = []
    try:
        capped_dimensions(height, width)
        for text in texts:
            tokens = run_list_tokens(text)
            if tokens is None:
                return ("CorruptMaskError", f"bad run list {text!r}")
            out.append(RleMask(height, width, tokens).runs.tolist())
    except MaskError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", out)


def annotation_outcome(texts: list, height: int, width: int):
    obj = {"video_id": "v", "height": height, "width": width,
           "occurrences": [{"start": 0, "end": len(texts) - 1, "masks": texts}]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            response, _, _ = annotation_from_dict(obj)
        except MaskError as exc:
            return (type(exc).__name__, str(exc))
    return ("ok", [m.runs.tolist() for m in response.occurrences[0].masks])


HUGE = 10**29  # a 30-digit run: 10**15 x 10**14 pixels, past the cap
CAP_ERROR = "mask dimensions must be positive with at most 2147483648 pixels, got {}x{}"
TRICKY = {
    "space": (" 5,3", 1, 8), "plus": ("+3,5", 1, 8), "underscore": ("1_0", 2, 5),
    "fullwidth-digit": ("５,3", 1, 8), "empty": ("", 1, 8), "empty-token": ("1,,7", 1, 8),
    "decimal": ("1.0,7", 1, 8), "hex": ("0x1,7", 1, 8), "negative": ("-1,9", 1, 8),
    "trailing-comma": ("1,7,", 1, 8), "30-digit-run": (f"0,{HUGE}", 10**15, 10**14),
    "30-digit-bad-sum": (f"1,{HUGE}", 1, 8), "19-digits": ("0" * 18 + "1,7", 1, 8),
    "leading-zeros": ("001,007", 1, 8), "plain": ("1,7", 1, 8), "inner-minus": ("3-1,6", 1, 8),
    "minus-comma": ("-,8", 1, 8), "double-minus": ("--8", 1, 8), "trailing-minus": ("8,-", 1, 8),
    "minus-zero": ("-0,8", 1, 8), "18-characters": ("0" * 17 + "8", 1, 8),
    "18-characters-minus": ("-" + "0" * 17 + ",8", 1, 8),
    "18-characters-at-cap": ("00000000" + str(2**31), 1, 2**31),
}


class TestOnePassParser:
    @pytest.mark.parametrize("name", sorted(TRICKY))
    def test_matches_per_token_int(self, name):
        text, h, w = TRICKY[name]
        plain = str(h * w)
        for texts in ([text], [plain, text], [text, plain]):
            assert annotation_outcome(texts, h, w) == per_token_outcome(texts, h, w)

    def test_tricky_lists_cover_both_outcomes(self):
        outcomes = {name: per_token_outcome([text], h, w)[0] for name, (text, h, w) in TRICKY.items()}
        accepted = {name for name, kind in outcomes.items() if kind == "ok"}
        # " 5,3", "+3,5", "1_0" and "５,3" passed int() but are no ASCII `-?[0-9]+` tokens
        # a token of more than 18 characters fails its list, as do more than 2**31 pixels
        assert accepted == {"leading-zeros", "plain", "minus-zero", "18-characters", "18-characters-minus",
                            "18-characters-at-cap"}
        assert outcomes["negative"] == "CorruptMaskError"

    def test_plain_lists_take_the_one_pass(self):
        masks, failing = _parsed_masks(["1,7", "0,8", "8"], 1, 8)
        assert [m.runs.tolist() for m in masks] == [[1, 7], [0, 8], [8]] and failing is None
        # views into one read-only int64 array, also where a token has the most characters a token may have
        for texts in (["1,7", "0,8", "8"], ["1,7", "0" * 17 + "1,7"]):
            masks, _ = _parsed_masks(texts, 1, 8)
            assert len({id(m.runs.base) for m in masks}) == 1
            assert all(m.runs.dtype == np.int64 and not m.runs.flags.writeable for m in masks)
        for name in ("space", "empty", "trailing-comma", "fullwidth-digit", "decimal"):
            masks, failing = _parsed_masks(["1,7", TRICKY[name][0], "2,6"], 1, 8)
            assert [m.runs.tolist() for m in masks] == [[1, 7]]
            assert str(failing) == f"bad run list {TRICKY[name][0]!r}"
        for text in ("0" * 18 + "1,7", f"1,{HUGE}"):
            masks, failing = _parsed_masks(["1,7", text, "x"], 1, 8)
            assert len(masks) == 1 and str(failing) == f"bad run list {text!r}"

    def test_30_digit_run_is_refused(self):
        """10**15 x 10**14 pixels are past the cap; within it, a 30-digit token fails its list."""
        assert annotation_outcome([f"0,{HUGE}"], 10**15, 10**14) == ("MaskDimensionError",
                                                                      CAP_ERROR.format(10**15, 10**14))
        assert annotation_outcome([f"0,{HUGE}"], 1, 8) == ("CorruptMaskError", f"bad run list '0,{HUGE}'")

    def test_first_bad_mask_is_reported(self):
        # the second mask's sum is reported before the third's zero run, as list by list
        assert annotation_outcome(["1,7", "2,7", "1,0,7"], 1, 8) == ("CorruptMaskError", "runs sum to 9, expected 8")
        assert annotation_outcome(["1,7", "1,0,7"], 1, 8) == ("CorruptMaskError", "zero-length run after the first")


class TestBatchCheck:
    """annotation_from_dict against the list-by-list oracle, and which lists
    still run RleMask's own check."""

    DEFECTS = ("bad-sum", "zero-run", "mask-count", "unsorted", "overlapping", "other-shape", "token", "dims",
               "field")
    TOKENS = (" 5", "+3", "x", "", "1.0", "-1", "0" * 19, "５", "1_0", f"{HUGE}", "-", "--2", "2-1", "-0")
    # occurrence fields vqs never writes: only JSON integers frame numbers, only lists of strings masks
    FIELDS = (0.9, "0", False, True, None, float("nan"), float("inf"), 10**30, "8", [5], ["8", 5], 3, [], {})

    def annotation(self, rng, defects):
        h, w = (int(v) for v in rng.integers(1, 6, size=2))
        occurrences, frame = [], int(rng.integers(-1, 3))
        for _ in range(rng.integers(0, 5)):
            length = int(rng.integers(1, 4))
            masks = [rle_encode(random_bitmap(rng, h, w)).to_runs_csv() for _ in range(length)]
            occurrences.append({"start": frame, "end": frame + length - 1, "masks": masks})
            frame += length + int(rng.integers(1, 3))
        obj = {"video_id": "v", "height": h, "width": w, "occurrences": occurrences}
        # field defects come last: the others edit frame numbers and run lists
        for defect in sorted(defects, key=lambda d: d == "field"):
            if defect == "dims":
                obj[str(rng.choice(["height", "width"]))] = rng.choice([0, -2, "3", 2.5, True, None, 10**20])
            if defect == "dims" or not isinstance(obj["occurrences"], list):
                continue
            if defect == "field":
                value = self.FIELDS[rng.integers(len(self.FIELDS))]
                if not occurrences or rng.random() < 0.1:
                    obj["occurrences"] = value
                else:
                    occurrences[rng.integers(len(occurrences))][str(rng.choice(["start", "end", "masks"]))] = value
                continue
            if not occurrences:
                continue
            occ = occurrences[rng.integers(len(occurrences))]
            if not occ["masks"]:
                continue
            k = int(rng.integers(len(occ["masks"])))
            tokens = occ["masks"][k].split(",")
            if defect == "bad-sum":
                i = int(rng.integers(len(tokens)))
                if tokens[i].isascii() and tokens[i].isdigit():
                    tokens[i] = str(int(tokens[i]) + int(rng.choice([-1, 1, 7])))
            elif defect == "zero-run":
                tokens.insert(int(rng.integers(1, len(tokens) + 1)), "0")
            elif defect == "mask-count":
                occ["masks"] = occ["masks"][1:] if rng.random() < 0.5 else occ["masks"] + occ["masks"][:1]
            elif defect in ("unsorted", "overlapping") and len(occurrences) > 1:
                i = int(rng.integers(1, len(occurrences)))
                if defect == "unsorted":
                    occurrences[i - 1], occurrences[i] = occurrences[i], occurrences[i - 1]
                else:
                    shift = occurrences[i]["start"] - occurrences[i - 1]["end"]
                    occurrences[i]["start"] -= shift
                    occurrences[i]["end"] -= shift
            elif defect == "other-shape":
                tokens = rle_encode(random_bitmap(rng, h + 1, w)).to_runs_csv().split(",")
            elif defect == "token":
                tokens[int(rng.integers(len(tokens)))] = str(rng.choice(self.TOKENS))
            if "masks" in occ and k < len(occ["masks"]):
                occ["masks"][k] = ",".join(tokens)
        return obj

    @staticmethod
    def outcome(parse, obj):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return parse(obj)
            except MaskError as exc:
                return (type(exc).__name__, str(exc))

    def test_matches_per_list_oracle(self):
        rng = np.random.default_rng(20261020)
        kinds = {}
        for _ in range(3000):
            defects = list(rng.choice(self.DEFECTS, size=rng.integers(0, 3)))
            obj = self.annotation(rng, defects)
            want = self.outcome(per_list_annotation, json.loads(json.dumps(obj)))
            got = self.outcome(annotation_from_dict, obj)
            assert got == want, (defects, obj)
            if isinstance(got[0], ResponseSet):
                assert all(m.runs.dtype == np.int64 and not m.runs.flags.writeable
                           for occ in got[0].occurrences for m in occ.masks)
            kinds.setdefault(got[0] if isinstance(got[0], str) else "ok", set()).add(got[1] if isinstance(got[0], str) else 0)
        # every outcome class is reached, with many distinct messages
        assert set(kinds) == {"ok", "CorruptMaskError", "MaskError", "MaskDimensionError"}
        assert sum(map(len, kinds.values())) > 200
        for rule in ("'start' must be an integer", "'end' must be an integer", "'masks' must be a list of strings",
                     "'occurrences' must be a list"):
            assert sum(rule in text for text in kinds["MaskError"]) > 5, rule

    def test_valid_lists_skip_the_per_list_check(self, monkeypatch):
        """Every list of an annotation goes through one call of the invariant check."""
        obj = scene_gt_dict(generate_scene(SceneConfig(num_frames=72, seed=2)))
        calls = []
        check = vqs.masks._checked_masks
        monkeypatch.setattr(vqs.masks, "_checked_masks", lambda *args: calls.append(args) or check(*args))
        response, _, _ = annotation_from_dict(obj)
        assert len(calls) == 1 and len(calls[0][3]) == sum(len(occ["masks"]) for occ in obj["occurrences"]) > 10
        assert len({id(m.runs.base) for occ in response.occurrences for m in occ.masks}) == 1
        calls.clear()
        assert response == per_list_annotation(obj)[0]
        assert len(calls) == sum(len(occ["masks"]) for occ in obj["occurrences"])
        calls.clear()
        obj["occurrences"][0]["masks"][-1] += ",1"
        obj["occurrences"][-1]["masks"][-1] += ",0"  # a later bad list is never built
        with pytest.raises(MaskError, match="runs sum to 4097, expected 4096"):
            annotation_from_dict(obj)
        assert len(calls) == 1


def cap_mask(rng, cuts=4):
    """A mask of MAX_MASK_PIXELS pixels with `cuts` random run boundaries."""
    n = MAX_MASK_PIXELS
    return RleMask(2**16, 2**15, tuple(np.diff([0, *sorted({int(v) * (n // 2**20) for v in
                                                             rng.integers(1, 2**20, size=cuts)}), n]).tolist()))


def test_frame_overlaps_past_int64():
    """Masks at the cap on frames 0, 1 and 10**30: frame * H*W passes int64,
    the frames' ranks do not."""
    rng = np.random.default_rng(31)
    gt_masks, pred_masks = [cap_mask(rng) for _ in range(3)], [cap_mask(rng) for _ in range(2)]
    gt = ResponseSet("v", (Masklet(0, 1, tuple(gt_masks[:2])), Masklet(10**30, 10**30, gt_masks[2:])))
    pred = ResponseSet("v", (Masklet(1, 1, pred_masks[:1]), Masklet(10**30, 10**30, pred_masks[1:])))
    table = frame_overlaps(gt, pred)
    assert table.gt_area == {0: gt_masks[0].area(), 1: gt_masks[1].area(), 10**30: gt_masks[2].area()}
    assert table.pred_area == {1: pred_masks[0].area(), 10**30: pred_masks[1].area()}
    assert table.inter == {1: interval_overlap(gt_masks[1], pred_masks[0]),
                           10**30: interval_overlap(gt_masks[2], pred_masks[1])}
    assert all(type(v) is int for v in table.inter.values()) and min(table.inter.values()) > 0


class TestMaskPixelCap:
    """A mask of MAX_MASK_PIXELS pixels is accepted and one of a pixel more is
    refused, with one MaskDimensionError text, by RleMask, annotation_from_dict
    and `vqs eval`."""

    SIDES = [(1, 2**31), (2**16, 2**15), (1, 2**31 + 1), (3, 715_827_883)]  # 3 * 715_827_883 = 2**31 + 1

    @staticmethod
    def annotation(height, width, masks):
        return {"video_id": "v", "height": height, "width": width, "num_frames": 1,
                "occurrences": [{"start": 0, "end": 0, "masks": masks}] if masks else []}

    @pytest.mark.parametrize("height,width", SIDES)
    def test_rle_mask(self, height, width):
        n = height * width
        if n <= MAX_MASK_PIXELS:
            assert RleMask(height, width, (1, n - 1)).area() == n - 1
        else:
            with pytest.raises(MaskDimensionError) as exc:
                RleMask(height, width, (1, n - 1))
            assert str(exc.value) == CAP_ERROR.format(height, width)

    @pytest.mark.parametrize("masks", [[], ["1,{}"]], ids=["no-masks", "one-mask"])
    @pytest.mark.parametrize("height,width", SIDES)
    def test_annotation_from_dict(self, height, width, masks):
        n = height * width
        obj = self.annotation(height, width, [text.format(n - 1) for text in masks])
        if n <= MAX_MASK_PIXELS:
            response, _, _ = annotation_from_dict(obj)
            assert [m.area() for occ in response.occurrences for m in occ.masks] == [n - 1] * len(masks)
        else:
            assert TestBatchCheck.outcome(annotation_from_dict, obj) == ("MaskDimensionError",
                                                                         CAP_ERROR.format(height, width))
            # refused before the occurrences are looked at
            obj["occurrences"] = 5
            assert TestBatchCheck.outcome(annotation_from_dict, obj)[0] == "MaskDimensionError"

    @pytest.mark.parametrize("height,width", SIDES)
    def test_eval(self, tmp_path, capsys, height, width):
        n = height * width
        (tmp_path / "gt.json").write_text(json.dumps([self.annotation(height, width, [f"1,{n - 1}"])]))
        (tmp_path / "pred.json").write_text(json.dumps([self.annotation(height, width, [f"0,{n}"])]))
        code = dispatch(["eval", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")])
        out, err = capsys.readouterr()
        if n <= MAX_MASK_PIXELS:
            assert code == 0 and err == ""
            assert json.loads(out)["overall"]["stAP"] == round(100 * (n - 1) / n, 2)
        else:
            lines = err.strip().splitlines()
            assert code == 1 and out == "" and len(lines) == 1
            assert json.loads(lines[0]) == {"error": CAP_ERROR.format(height, width)}


def test_eval_of_huge_masks_decodes_no_bitmap(tmp_path, capsys):
    """A 46340x46340 video, the largest square within the cap, through `vqs eval` stays far below H*W bytes."""
    side = 46_340
    n = side * side

    def annotation(masks, start):
        return {"video_id": "big", "height": side, "width": side, "num_frames": 4,
                "occurrences": [{"start": start, "end": start + len(masks) - 1, "masks": masks}]}

    gt = [annotation([f"{n // 2},{n // 4},{n // 4}", f"0,{n // 2},{n // 2}"], 0)]
    pred = [annotation([f"{n // 4},{n // 2},{n // 4}", f"{n // 2},{n // 2}"], 1)]
    (tmp_path / "gt.json").write_text(json.dumps(gt))
    (tmp_path / "pred.json").write_text(json.dumps(pred))
    tracemalloc.start()
    try:
        code = dispatch(["eval", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json"),
                         "--out", str(tmp_path / "report.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 16 * 2**20 < n // 100
    # only frame 1 is on both sides, with n/4 pixels in common out of gt n/2 and pred n/2;
    # the gt has 3n/4 pixels, the prediction n: stIoU 1/6, tIoU 1/3, no frame above IoU 0.5
    overall = json.loads((tmp_path / "report.json").read_text())["overall"]
    assert overall["stAP"] == round(100 * (n // 4) / (3 * n // 4 + n - n // 4), 2)
    assert overall["tAP"] == round(100 / 3, 2)
    assert overall["Rec"] == 0.0
