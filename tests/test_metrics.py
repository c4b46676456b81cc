import numpy as np
import pytest

from vqs.masks import Masklet, ResponseSet, RleMask
from vqs.metrics import (
    DEFAULT_SUBSET_BOUNDS,
    EvaluationError,
    MetricReport,
    MissingPredictionsError,
    VideoEval,
    aggregate_metrics,
    evaluate_run,
    evaluate_video,
    subset_of,
)

from .helpers import block_mask, perturb_response, random_response
from .oracles import brute_report, brute_video_scores


def two_frame_pair():
    """The worked 4x4 example: gt block at (0,0) frames {1,2}, pred at (0,1) frames {2,3}."""
    g = block_mask(4, 4, 0, 0, 2, 2)
    p = block_mask(4, 4, 0, 1, 2, 2)
    gt = ResponseSet("v", (Masklet(1, 2, (g, g)),))
    pred = ResponseSet("v", (Masklet(2, 3, (p, p)),))
    return gt, pred


class TestStIou:
    def test_identity(self):
        gt, _ = two_frame_pair()
        assert evaluate_video(gt, gt).st_iou == 1.0

    def test_empty_pred(self):
        gt, _ = two_frame_pair()
        assert evaluate_video(gt, ResponseSet("v", ())).st_iou == 0.0

    def test_both_empty(self):
        assert evaluate_video(ResponseSet("v", ()), ResponseSet("v", ())).st_iou == 1.0

    def test_worked_example(self):
        gt, pred = two_frame_pair()
        assert evaluate_video(gt, pred).st_iou == pytest.approx(1 / 7, abs=1e-12)


class TestTIou:
    def test_identity(self):
        gt, _ = two_frame_pair()
        assert evaluate_video(gt, gt).t_iou == 1.0

    def test_worked_example(self):
        gt, pred = two_frame_pair()
        assert evaluate_video(gt, pred).t_iou == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_pred(self):
        gt, _ = two_frame_pair()
        assert evaluate_video(gt, ResponseSet("v", ())).t_iou == 0.0

    def test_shift_from_perfect_never_helps(self):
        # gt: one contiguous segment shorter than the video; start from a
        # perfect prediction and shift it by one frame either way.
        m = RleMask(4, 4, (0, 16))
        rng = np.random.default_rng(3)
        for _ in range(200):
            start = int(rng.integers(0, 10))
            end = int(rng.integers(start, min(14, start + 6)))
            num_frames = 16
            gt = ResponseSet("v", (Masklet(start, end, (m,) * (end - start + 1)),))
            base = evaluate_video(gt, gt).t_iou
            for shift in (-1, 1):
                s, e = start + shift, end + shift
                s2, e2 = max(0, s), min(num_frames - 1, e)
                if e2 < s2:
                    shifted = ResponseSet("v", ())
                else:
                    shifted = ResponseSet("v", (Masklet(s2, e2, (m,) * (e2 - s2 + 1)),))
                assert evaluate_video(gt, shifted).t_iou <= base


class TestRecoveryAndSuccess:
    def test_perfect(self):
        gt, _ = two_frame_pair()
        assert evaluate_video(gt, gt).recovery == 100.0
        assert evaluate_video(gt, gt).success is True

    def test_empty_pred(self):
        gt, _ = two_frame_pair()
        assert evaluate_video(gt, ResponseSet("v", ())).recovery == 0.0
        assert evaluate_video(gt, ResponseSet("v", ())).success is False

    def test_counted_per_frame(self):
        # gt on frames 0..3; craft per-frame IoUs 1.0, 0.6, 0.4, 0.0
        h = w = 10
        gt_masks = tuple(block_mask(h, w, 0, 0, 5, 2) for _ in range(4))  # area 10 each
        # iou 1.0: same; iou 0.6: overlap 15/25 via area-20 pred overlapping... use direct builds
        gm = block_mask(h, w, 0, 0, 1, 10)  # row of 10
        p_100 = gm
        p_060 = block_mask(h, w, 0, 2, 1, 7)  # overlap 7ish -> iou 7/(10+7-7)=0.7; tune below
        gt = ResponseSet("v", (Masklet(0, 3, (gm, gm, gm, gm)),))
        # frame iou targets: >0.5, >0.5, <=0.5, 0
        p1 = gm                                  # 1.0
        p2 = block_mask(h, w, 0, 0, 1, 8)        # 8/10 = 0.8
        p3 = block_mask(h, w, 0, 0, 1, 3)        # 3/10 ~ 0.3
        p4 = block_mask(h, w, 5, 0, 1, 10)       # disjoint -> 0
        pred = ResponseSet("v", (Masklet(0, 3, (p1, p2, p3, p4)),))
        assert evaluate_video(gt, pred).recovery == 50.0

    def test_boundary_is_strict(self):
        # per-frame IoU exactly 0.5 must NOT count as recovered
        gm = block_mask(4, 4, 0, 0, 1, 2)   # area 2
        pm = block_mask(4, 4, 0, 0, 1, 1)   # area 1, inter 1, union 2 -> 0.5
        gt = ResponseSet("v", (Masklet(0, 0, (gm,)),))
        pred = ResponseSet("v", (Masklet(0, 0, (pm,)),))
        assert evaluate_video(gt, pred).recovery == 0.0

    def test_success_boundary_strict(self):
        gt, pred = two_frame_pair()   # stIoU = 1/7 < 0.2
        assert evaluate_video(gt, pred).success is False


def make_eval(vid, st, t=0.0, rec=0.0, area=100.0):
    return VideoEval(vid, st, t, rec, st > 0.2, area)


class TestAggregate:
    def test_worked_pair(self):
        report = aggregate_metrics([make_eval("a", 0.6), make_eval("b", 0.4)])
        assert report.overall.st_ap == pytest.approx(50.0, abs=1e-12)
        assert report.overall.st_ap50 == pytest.approx(30.0, abs=1e-12)
        assert report.overall.st_ap75 == pytest.approx(0.0, abs=1e-12)

    def test_all_perfect(self):
        evals = [VideoEval(f"v{i}", 1.0, 1.0, 100.0, True, 50.0) for i in range(5)]
        scores = aggregate_metrics(evals).overall
        assert scores.as_dict() == {
            "stAP": 100.0, "stAP50": 100.0, "stAP75": 100.0,
            "tAP": 100.0, "tAP50": 100.0, "tAP75": 100.0,
            "Rec": 100.0, "Succ": 100.0,
        }

    def test_threshold_inclusive(self):
        report = aggregate_metrics([make_eval("a", 0.75)])
        assert report.overall.st_ap75 == pytest.approx(75.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            aggregate_metrics([])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        evals = [
            VideoEval(f"v{i}", float(rng.random()), float(rng.random()),
                      float(rng.random() * 100), bool(rng.random() > 0.5),
                      float(rng.random() * 1e5))
            for i in range(40)
        ]
        base = aggregate_metrics(evals)
        for _ in range(10):
            perm = list(evals)
            rng.shuffle(perm)
            assert aggregate_metrics(perm) == base

    def test_monotone_thresholds_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            evals = [
                VideoEval(f"v{i}", float(rng.random()), float(rng.random()), 0.0, False, 10.0)
                for i in range(n)
            ]
            s = aggregate_metrics(evals).overall
            assert s.st_ap75 <= s.st_ap50 <= s.st_ap
            assert s.t_ap75 <= s.t_ap50 <= s.t_ap


class TestSubsets:
    def test_bucket_bounds(self):
        assert subset_of(100) == "Small"
        assert subset_of(5000) == "Medium"
        assert subset_of(50000) == "Large"
        # boundaries: lower bound inclusive for the upper bucket
        assert subset_of(3.6e3) == "Medium"
        assert subset_of(4.0e4) == "Large"

    def test_one_video_per_bucket(self):
        evals = [make_eval("a", 0.5, area=100), make_eval("b", 0.5, area=5000), make_eval("c", 0.5, area=50000)]
        report = aggregate_metrics(evals)
        assert report.video_counts == {"Small": 1, "Medium": 1, "Large": 1}
        assert set(report.per_subset) == {"Small", "Medium", "Large"}


class TestEvaluateRun:
    def test_missing_prediction(self):
        gt, _ = two_frame_pair()
        with pytest.raises(MissingPredictionsError) as exc:
            evaluate_run({"v": gt}, {})
        assert "v" in str(exc.value)

    def test_dimension_mismatch_rejected(self):
        gt, _ = two_frame_pair()
        wrong = ResponseSet("v", (Masklet(1, 1, (RleMask(8, 8, (0, 64)),)),))
        with pytest.raises(Exception) as exc:
            evaluate_run({"v": gt}, {"v": wrong})
        assert "v" in str(exc.value)

    @pytest.mark.parametrize("start, num_frames, message", [
        (5, {"v": 4}, "prediction for 'v' has frame 6; the video has 4 frames (0 to 3)"),
        (-1, None, "prediction for 'v' has frame -1; frames start at 0"),
    ], ids=["past-end", "negative"])
    def test_out_of_range_frame_rejected(self, start, num_frames, message):
        gt, _ = two_frame_pair()
        m = block_mask(4, 4, 0, 0, 2, 2)
        pred = ResponseSet("v", (Masklet(start, start + 1, (m, m)),))
        with pytest.raises(EvaluationError) as exc:
            evaluate_run({"v": gt}, {"v": pred}, num_frames=num_frames)
        assert str(exc.value) == message

    def test_frame_range_checked_before_missing_ids(self):
        gt, _ = two_frame_pair()
        m = block_mask(4, 4, 0, 0, 2, 2)
        late = ResponseSet("w", (Masklet(9, 9, (m,)),))
        with pytest.raises(EvaluationError, match="has frame 9"):
            evaluate_run({"v": gt, "w": gt}, {"w": late}, num_frames={"v": 4, "w": 4})

    def test_lengths_within_range_accepted(self):
        gt, pred = two_frame_pair()
        ok = evaluate_run({"v": gt}, {"v": pred}, num_frames={"v": 4})
        assert ok == evaluate_run({"v": gt}, {"v": pred})

    def test_perfect_run(self):
        rng = np.random.default_rng(5)
        gts = {f"v{i}": random_response(rng, f"v{i}", allow_empty=False) for i in range(6)}
        report = evaluate_run(gts, dict(gts))
        assert report.overall.as_dict()["stAP"] == 100.0
        assert report.overall.as_dict()["Succ"] == 100.0
        assert report.overall.as_dict()["Rec"] == 100.0

    def test_matches_bruteforce_on_random_runs(self):
        rng = np.random.default_rng(77)
        gts, preds = {}, {}
        for i in range(50):
            vid = f"v{i:03d}"
            num_frames = int(rng.integers(6, 24))
            gt = random_response(rng, vid, h=8, w=8, num_frames=num_frames, allow_empty=False)
            gts[vid] = gt
            preds[vid] = perturb_response(rng, gt, num_frames)
        report = evaluate_run(gts, preds)
        expected = brute_report(gts, preds)
        got = report.as_dict(ndigits=12)
        for key, val in expected["overall"].items():
            assert got["overall"][key] == pytest.approx(val, abs=1e-9)
        assert got["video_counts"] == expected["video_counts"]
        for subset, fields in expected["per_subset"].items():
            for key, val in fields.items():
                assert got["per_subset"][subset][key] == pytest.approx(val, abs=1e-9)

    def test_video_eval_matches_bruteforce(self):
        rng = np.random.default_rng(123)
        for i in range(100):
            num_frames = int(rng.integers(4, 20))
            gt = random_response(rng, "v", num_frames=num_frames)
            pred = perturb_response(rng, gt, num_frames)
            got = evaluate_video(gt, pred)
            want = brute_video_scores(gt, pred)
            assert got.st_iou == pytest.approx(want["st_iou"], abs=1e-12)
            assert got.t_iou == pytest.approx(want["t_iou"], abs=1e-12)
            assert got.recovery == pytest.approx(want["recovery"], abs=1e-12)
            assert got.success == want["success"]
            assert got.mean_gt_area == pytest.approx(want["mean_gt_area"], abs=1e-12)


class TestReportSerialization:
    def test_csv_shape(self):
        evals = [make_eval("a", 0.6, area=100), make_eval("b", 0.4, area=5e4)]
        report = aggregate_metrics(evals)
        rows = report.csv_rows()
        assert rows[0][0] == "subset"
        assert rows[1][0] == "overall"
        assert {r[0] for r in rows[2:]} == {"Small", "Large"}

    def test_two_decimal_rounding(self):
        evals = [make_eval("a", 1 / 3)]
        d = aggregate_metrics(evals).overall.as_dict()
        assert d["stAP"] == 33.33
