"""Seeded mutation fuzz of the annotation parser.

Valid gt and prediction objects are mutated: a field replaced by a value vqs
never writes, a key dropped, or the JSON text cut at a random byte. Every
mutation that still decodes either parses to a ResponseSet equal to its own
`annotation_to_dict` round trip, or raises MaskError, never anything else,
with the outcome of the list-by-list oracle. A sample of the rejected cases
goes through `vqs eval` in process and ends in one JSON error line, exit 1.
"""

import json

import numpy as np

from vqs.cli import dispatch
from vqs.masks import MaskError, annotation_from_dict, annotation_to_dict
from vqs.synth import SceneConfig, generate_scene, scene_gt_dict

from .helpers import random_response
from .oracles import per_list_annotation

VALUES = (0.5, "0", True, None, float("nan"), float("inf"), -1, 10**30, [], {}, "", "x")


def slots(node):
    """Every (container, key) pair in a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from slots(child)


def mutated(rng, obj) -> str:
    """The JSON text of one mutation of `obj`."""
    obj = json.loads(json.dumps(obj))
    kind = rng.integers(3)
    if kind == 2:
        text = json.dumps(obj)
        return text[:rng.integers(len(text))]
    found = [(node, key) for node, key in slots(obj) if kind == 0 or isinstance(node, dict)]
    node, key = found[rng.integers(len(found))]
    if kind == 0:
        node[key] = VALUES[rng.integers(len(VALUES))]
    else:
        del node[key]
    return json.dumps(obj)


def outcome(parse, obj):
    try:
        return parse(obj)
    except MaskError as exc:
        return (type(exc).__name__, str(exc))


def valid_objects(rng):
    """gt objects of small generated scenes and prediction objects of random responses."""
    gts = [scene_gt_dict(generate_scene(SceneConfig(frame_size=(16, 16), num_frames=8, num_occurrences=2,
                                                    distractor_count=0, seed=seed), video_id=f"s{seed}"))
           for seed in range(4)]
    preds = [annotation_to_dict(random_response(rng, f"s{k}", h=16, w=16, num_frames=8), 16, 16)
             for k in range(4)]
    return gts, preds


def test_mutations_parse_or_raise_mask_error():
    rng = np.random.default_rng(20261021)
    gts, preds = valid_objects(rng)
    counts = {"ok": 0, "MaskError": 0, "undecodable": 0}
    for _ in range(3000):
        text = mutated(rng, (gts + preds)[rng.integers(8)])
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            counts["undecodable"] += 1
            continue
        try:
            response, height, width = annotation_from_dict(obj)
        except MaskError:
            counts["MaskError"] += 1
            assert outcome(annotation_from_dict, obj) == outcome(per_list_annotation, obj)
            continue
        counts["ok"] += 1
        again = annotation_from_dict(json.loads(json.dumps(annotation_to_dict(response, height, width))))
        assert again == (response, height, width)
        assert per_list_annotation(obj) == (response, height, width)
    assert min(counts.values()) > 250, counts


def test_rejected_mutations_through_eval(tmp_path, capsys):
    rng = np.random.default_rng(20261022)
    gts, preds = valid_objects(rng)
    sides = {"gt": gts, "pred": [dict(p, video_id=g["video_id"]) for p, g in zip(preds, gts)]}

    def evaluate(name=None, k=None, text=None):
        for side, objs in sides.items():
            texts = [json.dumps(obj) for obj in objs]
            if side == name:
                texts[k] = text
            (tmp_path / f"{side}.json").write_text("[" + ",".join(texts) + "]")
        code = dispatch(["eval", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")])
        return code, capsys.readouterr().err

    assert evaluate() == (0, "")
    checked = 0
    while checked < 30:
        name, k = ("gt", "pred")[rng.integers(2)], int(rng.integers(4))
        text = mutated(rng, sides[name][k])
        try:
            annotation_from_dict(json.loads(text))
            continue  # eval may accept it
        except (json.JSONDecodeError, MaskError):
            pass
        code, err = evaluate(name, k, text)
        assert code == 1 and "Traceback" not in err, text
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), err
        checked += 1
