"""Independent reference implementations used to cross-check the library.

The metric evaluators recompute from first principles: masks are decoded with
a local run-length decoder and all overlaps are counted per pixel with numpy
boolean arrays. Nothing is shared with the metric implementations under test.

The mask references are the pixel-domain forms the pipeline used before its
masks stayed on the feature grid: candidates are patch-replicated to frame
resolution, run-length encoded and compared with `mask_iou`, and patch
fractions are float means of decoded pixels. The grid forms must match them
bit for bit.

The rasterizer reference tests one shape state on the frame's full coordinate
grid from `np.mgrid`, as synth did before it broadcast a row and a column of
pixel centres over each state's box; `synth.rasterize_track`'s boxes, placed
in the frame, must agree with it pixel for pixel.

The background reference is `synth._background`'s bilinear mix as it was
written before it weighted the grid's rows ahead of the column gather: each
of the four corners gathered at full size, then weighted. The two must agree
bit for bit.

The PPM reference splits a file into pieces as `synth._ppm_pieces` did
before it reused a repeated header: a 64-byte probe and `parse_ppm` at every
image. The two must give the same pieces, shapes and error texts.

The annotation reference parses and checks every run list on its own, token
by token with a regular expression, a length test and int(), and builds each
occurrence in turn, where the library reads and checks a whole annotation's
lists in numpy passes. Both refuse more than 2**31 pixels a mask.

The attention references build each head from autodiff primitives, one node
per narrow, transpose, matmul, scale, softmax or exp, as the library did
before its heads became single fused nodes. The fused nodes must match them
bit for bit, in values and in gradients. The library no longer needs
`transpose` and `exp` nodes of its own, so they are defined here, on the
library's node constructor, exactly as it defined them.
"""

from __future__ import annotations

import math
import re

import numpy as np

from vqs import autodiff as ad
from vqs import synth
from vqs.masks import CorruptMaskError, MaskDimensionError, MaskError, Masklet, ResponseSet, RleMask, mask_iou, rle_decode
from vqs.pipeline import binarize_candidate


def capped_dimensions(height, width):
    """MaskDimensionError, with the library's text, past 2**31 pixels a mask."""
    if height * width > 2**31:
        raise MaskDimensionError(f"mask dimensions must be positive with at most {2**31} pixels, "
                                 f"got {height}x{width}")


def run_list_tokens(text):
    """A run list's tokens read with int() when each is ASCII `-?[0-9]+` of at
    most 18 characters, which int64 holds; None otherwise."""
    tokens = text.split(",")
    if all(re.fullmatch("-?[0-9]+", token) and len(token) <= 18 for token in tokens):
        return [int(token) for token in tokens]


def run_list_mask(text, height, width):
    """One run list's mask: the dimension cap, then `run_list_tokens`, then RleMask's checks."""
    capped_dimensions(height, width)
    tokens = run_list_tokens(text)
    if tokens is None:
        raise CorruptMaskError(f"bad run list {text!r}")
    return RleMask(height, width, tokens)


def per_list_annotation(obj):
    """`annotation_from_dict` occurrence by occurrence and list by list: every
    mask through `run_list_mask`, then each Masklet and the ResponseSet. A
    malformed object is one MaskError; so is an occurrence whose `start` or
    `end` is no JSON integer or whose `masks` is no list of strings, naming
    the occurrence and field. A height or width that is no JSON integer of at
    least 1 is a MaskDimensionError naming it; then so are more than 2**31
    pixels, with or without masks."""
    try:
        video_id = str(obj["video_id"])
        for key in ("height", "width"):
            if type(obj[key]) is not int or obj[key] < 1:
                raise MaskDimensionError(f"annotation {key!r} must be an integer >= 1, got {obj[key]!r}")
        height, width = obj["height"], obj["width"]
        capped_dimensions(height, width)
        if type(obj["occurrences"]) is not list:
            raise TypeError(f"'occurrences' must be a list, got {obj['occurrences']!r}")
        occs = []
        for index, raw in enumerate(obj["occurrences"]):
            for key in ("start", "end"):
                if type(raw[key]) is not int:
                    raise TypeError(f"occurrence {index} {key!r} must be an integer, got {raw[key]!r}")
            if type(raw["masks"]) is not list or any(type(text) is not str for text in raw["masks"]):
                raise TypeError(f"occurrence {index} 'masks' must be a list of strings, got {raw['masks']!r}")
            occs.append(Masklet(raw["start"], raw["end"],
                                tuple(run_list_mask(text, height, width) for text in raw["masks"])))
    except (KeyError, TypeError, AttributeError) as exc:
        raise MaskError(f"malformed annotation object: {exc}") from exc
    return ResponseSet(video_id, tuple(occs)), height, width


def mgrid_rasterize_shape(state, height, width):
    """One state's boolean foreground by the pixel-center-inside test on full
    (height, width) coordinate grids from `np.mgrid`."""
    ys, xs = np.mgrid[0:height, 0:width]
    px = xs + 0.5
    py = ys + 0.5
    if state.shape == "disk":
        return (px - state.cx) ** 2 + (py - state.cy) ** 2 <= state.size**2
    if state.shape == "rectangle":
        hx = state.size
        hy = state.size * state.aspect
        return (np.abs(px - state.cx) <= hx) & (np.abs(py - state.cy) <= hy)
    ax, ay = state.cx, state.cy - state.size
    bx, by = state.cx - 0.9 * state.size, state.cy + 0.8 * state.size
    cx_, cy_ = state.cx + 0.9 * state.size, state.cy + 0.8 * state.size

    def half_plane(x0, y0, x1, y1):
        return (px - x0) * (y1 - y0) - (py - y0) * (x1 - x0)

    s1 = half_plane(ax, ay, bx, by)
    s2 = half_plane(bx, by, cx_, cy_)
    s3 = half_plane(cx_, cy_, ax, ay)
    return (s1 >= 0) & (s2 >= 0) & (s3 >= 0)


def probe_each_pieces(read, size, name, num_frames=None):
    """`synth._ppm_pieces` with a header probe and parse before every image."""
    pos = t = 0
    while pos < size:
        head = read(pos, synth._PPM_HEADER_MAX)
        try:
            h, w, start = synth.parse_ppm(head, f"frame {t} of {name}", size - pos)
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


def corner_gather_background(rng, height, width):
    """`synth._background` with each corner gathered to (height, width, 3) before it is weighted."""
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
    return np.rint(mix).astype(np.uint8, order="C")


def decode_runs(runs, height, width):
    """Local alternating-run decoder (starts with a background run)."""
    flat = []
    val = 0
    for r in runs:
        flat.extend([val] * r)
        val = 1 - val
    return np.array(flat, dtype=bool).reshape(height, width)


def response_to_pixel_frames(response):
    """ResponseSet -> {frame: bool array} via the local decoder."""
    frames = {}
    for occ in response.occurrences:
        for offset, mask in enumerate(occ.masks):
            frames[occ.start_frame + offset] = decode_runs(mask.runs, mask.height, mask.width)
    return frames


def pixel_iou(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(inter) / float(union)


def brute_video_scores(gt_response, pred_response):
    """Per-video stIoU, tIoU, recovery, success, mean gt area from raw pixels."""
    gt = response_to_pixel_frames(gt_response)
    pred = response_to_pixel_frames(pred_response)

    inter = 0
    for t in set(gt) | set(pred):
        if t in gt and t in pred:
            inter += int(np.logical_and(gt[t], pred[t]).sum())
    gt_sum = sum(int(m.sum()) for m in gt.values())
    pred_sum = sum(int(m.sum()) for m in pred.values())
    denom = gt_sum + pred_sum - inter
    st = inter / denom if denom else 1.0

    union_frames = set(gt) | set(pred)
    t = len(set(gt) & set(pred)) / len(union_frames) if union_frames else 1.0

    if gt:
        hits = 0
        for f, gmask in gt.items():
            if f in pred and pixel_iou(pred[f], gmask) > 0.5:
                hits += 1
        rec = 100.0 * hits / len(gt)
    else:
        rec = 100.0

    area = sum(int(m.sum()) for m in gt.values()) / len(gt) if gt else 0.0
    return {
        "st_iou": st,
        "t_iou": t,
        "recovery": rec,
        "success": st > 0.2,
        "mean_gt_area": area,
    }


def brute_aggregate(per_video: list[dict]) -> dict:
    """Dataset means (percentages) from per-video score dicts."""
    n = len(per_video)

    def mean(key):
        return math.fsum(v[key] for v in per_video) / n

    def gated(key, tau):
        return 100.0 * math.fsum(v[key] if v[key] >= tau else 0.0 for v in per_video) / n

    return {
        "stAP": 100.0 * mean("st_iou"),
        "stAP50": gated("st_iou", 0.5),
        "stAP75": gated("st_iou", 0.75),
        "tAP": 100.0 * mean("t_iou"),
        "tAP50": gated("t_iou", 0.5),
        "tAP75": gated("t_iou", 0.75),
        "Rec": mean("recovery"),
        "Succ": 100.0 * sum(1 for v in per_video if v["success"]) / n,
    }


def brute_report(gt_by_id: dict, pred_by_id: dict, bounds=(3.6e3, 4.0e4)) -> dict:
    """Full report (overall + subsets) from the brute-force path."""
    per_video = {vid: brute_video_scores(gt, pred_by_id[vid]) for vid, gt in gt_by_id.items()}
    subsets = {"Small": [], "Medium": [], "Large": []}
    for scores in per_video.values():
        area = scores["mean_gt_area"]
        if area < bounds[0]:
            subsets["Small"].append(scores)
        elif area < bounds[1]:
            subsets["Medium"].append(scores)
        else:
            subsets["Large"].append(scores)
    return {
        "overall": brute_aggregate(list(per_video.values())),
        "per_subset": {k: brute_aggregate(v) for k, v in subsets.items() if v},
        "video_counts": {k: len(v) for k, v in subsets.items()},
    }


# --- Pixel-domain masks ---------------------------------------------------------


def rle_patch_fractions(mask, patch_size):
    """Per-patch foreground fraction as the mean of the decoded pixels."""
    h, w = mask.shape
    grid = rle_decode(mask).astype(np.float64)
    return grid.reshape(h // patch_size, patch_size, w // patch_size, patch_size).mean(axis=(1, 3))


def rle_routed_candidate(candidates, gt_mask, frame_hw):
    """Candidate index with max pixel IoU against gt (an empty mask for None), and that IoU."""
    reference = gt_mask if gt_mask is not None else RleMask.empty(*frame_hw)
    best_idx, best_iou = 0, -1.0
    for idx, cand in enumerate(candidates.candidates):
        iou = mask_iou(binarize_candidate(cand, frame_hw), reference)
        if iou > best_iou:
            best_idx, best_iou = idx, iou
    return best_idx, best_iou


# --- Composed attention ---------------------------------------------------------


def transpose(a):
    return ad._node(lambda: a.value.T.copy(), (a,), lambda g, y: (g.T,))


def exp(a):
    return ad._node(lambda: np.exp(a.value), (a,), lambda g, y: (g * y,))


def composed_attention_head(q, k, v, start, length):
    qs = ad.narrow(q, 1, start, length)
    ks = ad.narrow(k, 1, start, length)
    vs = ad.narrow(v, 1, start, length)
    scores = ad.scale(ad.matmul(qs, transpose(ks)), 1.0 / math.sqrt(length))
    return ad.matmul(ad.softmax(scores, axis=-1), vs)


def composed_weighted_attention_head(q, keys, values, weights, start, length):
    qs = ad.scale(ad.narrow(q, 1, start, length), 1.0 / math.sqrt(length))
    scores = [ad.matmul(qs, transpose(ad.narrow(k, 1, start, length))) for k in keys]
    row_max = np.max(np.concatenate([s.value for s in scores], axis=1), axis=1, keepdims=True)
    shift = ad.tensor(row_max)
    numerator = denominator = None
    for weight, score, value in zip(weights, scores, values):
        vs = ad.narrow(value, 1, start, length)
        exps = exp(ad.subtract(score, shift))
        num_term = ad.multiply(ad.matmul(exps, vs), weight)
        den_term = ad.multiply(ad.sum_axis(exps, 1, keepdims=True), weight)
        numerator = num_term if numerator is None else ad.add(numerator, num_term)
        denominator = den_term if denominator is None else ad.add(denominator, den_term)
    return ad.divide(numerator, denominator)


def composed_attention_heads(q, kv_sets, weights, heads):
    """Drop-in for `autodiff.attention_heads`: one composed head per column slice, side by side."""
    keys, values = [k for k, _ in kv_sets], [v for _, v in kv_sets]
    if weights is None:
        outs = [composed_attention_head(q, keys[0], values[0], cols.start, cols.stop - cols.start)
                for cols in heads]
    else:
        outs = [composed_weighted_attention_head(q, keys, values, weights, cols.start, cols.stop - cols.start)
                for cols in heads]
    return ad.concat(outs, axis=1) if len(outs) > 1 else outs[0]


def composed_attention(q_in, kv_in, weights, params, num_heads):
    """Drop-in for `autodiff.attention`."""
    d_head = q_in.value.shape[-1] // num_heads
    q = ad.matmul(q_in, params.wq)
    kv_sets = [(ad.matmul(t, params.wk), ad.matmul(t, params.wv)) for t in kv_in]
    heads = [slice(h * d_head, (h + 1) * d_head) for h in range(num_heads)]
    return ad.matmul(composed_attention_heads(q, kv_sets, weights, heads), params.wo)


def composed_memory_attention(features, bank, cfg, params):
    """Drop-in for `pipeline.memory_attention`."""
    active = [e for e in bank.entries if float(e.scale.value) != 0.0]
    mem_params = ad.AttentionParams(*(params[f"mem_attn.w{p}"] for p in "qkvo"))
    attended = composed_attention(features, [e.tokens for e in active], [e.scale for e in active],
                                  mem_params, cfg.num_heads)
    return ad.add(features, attended)
