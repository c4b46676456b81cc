"""Command-line entry point: gen, infer, train, eval, stats, validate, gradcheck.

Every subcommand is deterministic given its flags, seed, and input bytes.
Runs that produce an output file or directory also write a config-digest
sidecar (<out>.config.json, or run_config.json inside output directories)
recording the resolved options, so any artifact can be regenerated
byte-exactly. Failures print one machine-readable JSON line to stderr and
exit 1; usage errors exit 2. `eval`'s exit code reflects input validity
only, never how good the scores are.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import NonFiniteValueError, tensor
from .masks import MaskError, ResponseSet, annotation_from_dict, annotation_to_dict
from .metrics import EvaluationError, MetricReport, evaluate_run
from .optim import CheckpointError, ParamStore, load_params, save_params
from .parallel import parallel_map
from .pipeline import PipelineConfig, PipelineConfigError, config_digest, infer_video, init_params, param_shapes
from .synth import (
    SHAPES,
    DatasetConfig,
    SceneConfigError,
    compute_stats,
    generate_dataset,
    load_manifest,
    load_scene_gt,
    load_scene_record,
    regular_file_bytes,
    validate_manifest,
    write_regular_file,
)
from .training import (
    GRAD_CHECK_BOUND,
    TrainConfig,
    TrainingDivergedError,
    gradient_check_report,
    overfit_train,
    write_curve_csv,
)

PREDICTIONS_FORMAT = "vqs-predictions-v1"


class CliError(Exception):
    """User-facing failure with a short machine-readable message."""


def _fail(message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return 1


def _write_json(path: str | Path, body, **options) -> None:
    """`body` as sorted-key JSON plus a newline; the one way cli writes JSON files."""
    write_regular_file(path, (json.dumps(body, sort_keys=True, **options) + "\n").encode())


def _write_sidecar(target: Path, command: str, options: dict) -> None:
    """Config sidecar next to an output file, or inside an output directory."""
    sidecar = target / "run_config.json" if target.is_dir() else target.with_name(target.name + ".config.json")
    body = {"command": command, "options": options, "config_digest": config_digest(options)}
    _write_json(sidecar, body, indent=1)


def _pipeline_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pipeline")
    group.add_argument("--stages", type=int, default=2, help="number of memory-evolution stages K")
    group.add_argument("--clip-len", type=int, default=7, help="frames per inference clip L")
    group.add_argument("--nt", type=int, default=2, help="max mined target masks per stage")
    group.add_argument("--nd", type=int, default=1, help="max mined distractor masks per stage")
    group.add_argument("--tau-t", type=float, default=0.5, help="min predicted IoU for target mining")
    group.add_argument("--tau-d", type=float, default=0.5, help="min divergence for distractor mining")
    group.add_argument("--tau-s", type=float, default=0.7, help="min predicted IoU for distractor mining")
    group.add_argument("--gamma", type=str, default=None,
                       help="comma-separated per-stage loss weights (default 0.5,1.0 for K=2)")
    group.add_argument("--patch-size", type=int, default=8, help="encoder patch size in pixels")
    group.add_argument("--model-dim", type=int, default=32, help="feature width d")
    group.add_argument("--heads", type=int, default=2, help="attention heads")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    if args.gamma is not None:
        weights = tuple(float(tok) for tok in args.gamma.split(","))
    elif args.stages == 2:
        weights = (0.5, 1.0)
    else:
        weights = tuple(1.0 for _ in range(args.stages))
    return PipelineConfig(
        num_stages=args.stages,
        clip_len=args.clip_len,
        num_targets=args.nt,
        num_distractors=args.nd,
        tau_target=args.tau_t,
        tau_divergence=args.tau_d,
        tau_score=args.tau_s,
        patch_size=args.patch_size,
        model_dim=args.model_dim,
        num_heads=args.heads,
        stage_weights=weights,
        seed=args.seed,
    )


def _parse_range(text: str, kind=int) -> tuple:
    lo, _, hi = text.partition(":")
    return (kind(lo), kind(hi or lo))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqs",
        description="Visual-query video segmentation toolkit",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gen = sub.add_parser("gen", help="generate a synthetic dataset", formatter_class=fmt)
    gen.add_argument("--scenes", type=int, required=True, help="number of scenes")
    gen.add_argument("--seed", type=int, default=0, help="master seed")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--frame-sizes", default="64x64",
                     help="comma-separated HxW options sampled per scene")
    gen.add_argument("--frames", default="48:96", help="frame-count range LO:HI")
    gen.add_argument("--occurrences", default="1:5", help="target occurrence range LO:HI")
    gen.add_argument("--distractors", default="1:3", help="distractor count range LO:HI")
    gen.add_argument("--shapes", default=",".join(SHAPES), help="shape classes to sample")
    gen.add_argument("--drift", default="0.0:0.6", help="appearance drift range LO:HI")
    gen.add_argument("--scale", default="0.12:0.30", help="target scale range LO:HI")
    gen.add_argument("--fps", type=int, default=6, help="frames per second")
    gen.add_argument("--jobs", type=int, default=1, help="parallel scene workers")

    infer = sub.add_parser("infer", help="segment every scene of a dataset", formatter_class=fmt)
    infer.add_argument("--data", required=True, help="dataset directory")
    infer.add_argument("--out", required=True, help="predictions JSON path")
    infer.add_argument("--ckpt", default=None, help="parameter checkpoint (default: seeded init)")
    infer.add_argument("--seed", type=int, default=0, help="parameter seed when no checkpoint")
    infer.add_argument("--jobs", type=int, default=1, help="parallel video workers")
    _pipeline_flags(infer)

    train = sub.add_parser("train", help="overfit the pipeline to one scene", formatter_class=fmt)
    train.add_argument("--data", required=True, help="dataset directory")
    train.add_argument("--scene", type=int, default=0, help="scene index to overfit")
    train.add_argument("--steps", type=int, default=100, help="optimizer steps")
    train.add_argument("--lr", type=float, default=5e-6, help="learning rate")
    train.add_argument("--beta1", type=float, default=0.9, help="AdamW beta1")
    train.add_argument("--beta2", type=float, default=0.999, help="AdamW beta2")
    train.add_argument("--eps", type=float, default=1e-8, help="AdamW epsilon")
    train.add_argument("--weight-decay", type=float, default=0.01, help="AdamW weight decay")
    train.add_argument("--seed", type=int, default=0, help="init and pipeline seed")
    train.add_argument("--ckpt-out", required=True, help="trained checkpoint path")
    train.add_argument("--curve-out", default=None, help="loss-curve CSV path")
    train.add_argument("--log-interval", type=int, default=10, help="steps between log lines")
    _pipeline_flags(train)

    ev = sub.add_parser("eval", help="score predictions against ground truth", formatter_class=fmt)
    ev.add_argument("--gt", required=True, help="dataset directory or annotation JSON array")
    ev.add_argument("--pred", required=True, help="predictions JSON")
    ev.add_argument("--out", default=None, help="report path (.json; a .csv sibling is written too)")
    ev.add_argument("--format", choices=("json", "csv"), default="json", help="stdout format")
    ev.add_argument("--jobs", type=int, default=1, help="parallel video workers")

    stats = sub.add_parser("stats", help="dataset distribution statistics", formatter_class=fmt)
    stats.add_argument("--data", required=True, help="dataset directory")
    stats.add_argument("--out", default=None, help="stats JSON path")
    stats.add_argument("--format", choices=("json", "csv"), default="json", help="stdout format")

    val = sub.add_parser("validate", help="check dataset invariants", formatter_class=fmt)
    val.add_argument("--data", required=True, help="dataset directory")
    val.add_argument("--format", choices=("text", "json"), default="text", help="stdout format")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification", formatter_class=fmt)
    gc.add_argument("--coords", type=int, default=4, help="sampled coordinates per parameter")
    gc.add_argument("--seed", type=int, default=0, help="sampling seed")

    return parser


# --- gen -----------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    sizes = []
    for token in args.frame_sizes.split(","):
        h, _, w = token.lower().partition("x")
        sizes.append((int(h), int(w)))
    shapes = tuple(s.strip() for s in args.shapes.split(","))
    for s in shapes:
        if s not in SHAPES:
            raise CliError(f"unknown shape {s!r}; choose from {', '.join(SHAPES)}")
    dist = DatasetConfig(
        frame_sizes=tuple(sizes),
        num_frames=_parse_range(args.frames),
        num_occurrences=_parse_range(args.occurrences),
        distractor_count=_parse_range(args.distractors),
        shapes=shapes,
        appearance_drift=_parse_range(args.drift, float),
        target_scale=_parse_range(args.scale, float),
        fps=args.fps,
    )
    manifest = generate_dataset(args.scenes, dist, args.seed, args.out, jobs=args.jobs)
    _write_sidecar(Path(args.out), "gen", {
        "scenes": args.scenes, "seed": args.seed, "distribution": manifest["config"],
    })
    print(f"wrote {len(manifest['scenes'])} scenes to {args.out} (digest {manifest['digest'][:12]})")
    return 0


# --- infer ---------------------------------------------------------------------


def _infer_one(work: tuple) -> dict:
    data_dir, entry, cfg_kwargs, values = work
    cfg = PipelineConfig(**cfg_kwargs)
    params = ParamStore({name: tensor(value, name) for name, value in values.items()})
    scene = load_scene_record(data_dir, entry)
    try:
        response, provenance = infer_video(scene.frames, scene.query_frame, scene.query_mask,
                                           cfg, params, video_id=scene.video_id)
    except NonFiniteValueError as exc:
        raise NonFiniteValueError(f"video {scene.video_id!r}: {exc}") from exc
    record = annotation_to_dict(response, *scene.query_mask.shape)
    record["provenance"] = provenance
    return record


def _check_checkpoint_fits(values: dict[str, np.ndarray], cfg: PipelineConfig, path: str) -> None:
    """CliError naming the first parameter, by name, that the checkpoint and the model disagree on."""
    expected = param_shapes(cfg)
    for name in sorted(set(expected) | set(values)):
        have = values[name].shape if name in values else None
        if have != expected.get(name):
            found = "is missing" if have is None else f"has shape {have}"
            wanted = f"expects shape {expected[name]}" if name in expected else "has no such parameter"
            raise CliError(f"{path}: checkpoint parameter {name!r} {found}; the model {wanted}")


def _cmd_infer(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    manifest = load_manifest(args.data)
    cfg_kwargs = asdict(cfg)
    # read once here, so a bad checkpoint fails before any worker starts; work
    # items carry bare arrays, without the store's optimizer moments
    values = (load_params(args.ckpt) if args.ckpt else init_params(cfg)).copy_values()
    if args.ckpt:
        _check_checkpoint_fits(values, cfg, args.ckpt)
    work = [(args.data, entry, cfg_kwargs, values) for entry in manifest["scenes"]]
    records = parallel_map(_infer_one, work, args.jobs)
    payload = {
        "format": PREDICTIONS_FORMAT,
        "config_digest": config_digest(cfg_kwargs),
        "seed": cfg.seed,
        "checkpoint": args.ckpt,
        "predictions": records,
    }
    _write_json(args.out, payload, separators=(",", ":"))
    _write_sidecar(Path(args.out), "infer", {
        "data": str(args.data), "ckpt": args.ckpt, "pipeline": cfg_kwargs,
    })
    print(f"wrote predictions for {len(records)} videos to {args.out}")
    return 0


# --- train ---------------------------------------------------------------------


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _pipeline_config(args)
    tcfg = TrainConfig(
        steps=args.steps, lr=args.lr, beta1=args.beta1, beta2=args.beta2,
        eps=args.eps, weight_decay=args.weight_decay, seed=args.seed,
    )
    manifest = load_manifest(args.data)
    scenes = manifest["scenes"]
    if not 0 <= args.scene < len(scenes):
        raise CliError(f"scene index {args.scene} out of range (dataset has {len(scenes)})")
    record = load_scene_record(args.data, scenes[args.scene])
    store, curve = overfit_train(record, cfg, tcfg)
    for pt in curve:
        if pt.step == 1 or pt.step % args.log_interval == 0 or pt.step == len(curve):
            print(f"step {pt.step:5d}  total {pt.total:.6f}  dice {pt.dice:.6f}  "
                  f"bce {pt.mask_bce:.6f}  iou {pt.iou_head:.6f}  occ {pt.occlusion_bce:.6f}")
    save_params(store, args.ckpt_out)
    _write_sidecar(Path(args.ckpt_out), "train", {
        "data": str(args.data), "scene": args.scene, "train": asdict(tcfg),
        "log_interval": args.log_interval, "pipeline": asdict(cfg),
    })
    if args.curve_out:
        write_curve_csv(curve, args.curve_out)
    print(f"saved checkpoint to {args.ckpt_out}")
    return 0


# --- eval ----------------------------------------------------------------------


def _gt_length(record: dict, video_id: str) -> Optional[int]:
    """A gt record's `num_frames`, or None where it gives none."""
    n = record.get("num_frames")
    if n is not None and (type(n) is not int or n < 1):
        raise CliError(f"ground truth for {video_id!r}: num_frames must be a positive integer, got {n!r}")
    return n


def _by_video_id(path_text: str, items: list, what: str) -> tuple[dict[str, ResponseSet], dict[str, dict]]:
    """An annotation array's parsed responses and raw objects by video id; a repeated id is an error."""
    responses: dict[str, ResponseSet] = {}
    objects: dict[str, dict] = {}
    for obj in items:
        response, _, _ = annotation_from_dict(obj)
        if response.video_id in responses:
            raise CliError(f"{path_text}: duplicate {what} for {response.video_id!r}")
        responses[response.video_id] = response
        objects[response.video_id] = obj
    return responses, objects


def _load_gt_responses(path_text: str) -> tuple[dict[str, ResponseSet], dict[str, Optional[int]]]:
    """gt responses and video lengths by id; a length is None where the gt gives none."""
    path = Path(path_text)
    if path.is_dir():
        sources = {entry["id"]: entry for entry in load_manifest(path)["scenes"]}
        out = {vid: load_scene_gt(path, entry)[0] for vid, entry in sources.items()}
    else:
        items = json.loads(regular_file_bytes(path))
        if not isinstance(items, list):
            raise CliError(f"{path}: expected a JSON array of annotations")
        out, sources = _by_video_id(path_text, items, "ground truth")
    if not out:
        raise CliError(f"{path}: no ground-truth videos found")
    return out, {vid: _gt_length(sources[vid], vid) for vid in out}


def _load_pred_responses(path_text: str) -> dict[str, ResponseSet]:
    payload = json.loads(regular_file_bytes(path_text))
    if isinstance(payload, dict):
        items = payload.get("predictions")
        if items is None:
            raise CliError(f"{path_text}: missing 'predictions' array")
    else:
        items = payload
    if not isinstance(items, list):
        raise CliError(f"{path_text}: predictions must be an array of objects")
    return _by_video_id(path_text, items, "prediction")[0]


def _report_csv_text(report: MetricReport) -> str:
    return "\n".join(",".join(row) for row in report.csv_rows()) + "\n"


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.out and Path(args.out).with_suffix(".csv") == Path(args.out):
        raise CliError(f"{args.out}: --out names the JSON report, and the CSV report beside it "
                       f"would overwrite it; give --out a suffix other than .csv")
    gt, lengths = _load_gt_responses(args.gt)
    pred = _load_pred_responses(args.pred)
    report = evaluate_run(gt, pred, jobs=args.jobs, num_frames=lengths)
    body = report.as_dict()
    body["videos"] = len(gt)
    if args.format == "csv":
        sys.stdout.write(_report_csv_text(report))
    else:
        print(json.dumps(body, sort_keys=True, indent=1))
    if args.out:
        out = Path(args.out)
        _write_json(out, body, indent=1)
        write_regular_file(out.with_suffix(".csv"), _report_csv_text(report).encode())
        _write_sidecar(out, "eval", {"gt": str(args.gt), "pred": str(args.pred)})
    return 0


# --- stats / validate / gradcheck -------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = compute_stats(args.data)
    if args.format == "csv":
        lines = ["metric,count,mean,min,max"]
        for name, hist in stats.items():
            if isinstance(hist, dict):
                lines.append(f"{name},{hist['count']},{hist['mean']},{hist['min']},{hist['max']}")
        text = "\n".join(lines) + "\n"
        sys.stdout.write(text)
    else:
        print(json.dumps(stats, sort_keys=True, indent=1))
    if args.out:
        _write_json(args.out, stats, indent=1)
        _write_sidecar(Path(args.out), "stats", {"data": str(args.data)})
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    violations = validate_manifest(args.data)
    if args.format == "json":
        print(json.dumps({"violations": violations}, indent=1))
    else:
        for v in violations:
            print(f"violation: {v}")
        print(f"{len(violations)} violation(s) in {args.data}")
    return 1 if violations else 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    report = gradient_check_report(coords_per_param=args.coords, seed=args.seed)
    passed = [name for name in report if report[name] < GRAD_CHECK_BOUND]
    for name in sorted(report):
        print(f"{name:24s} max_rel_err {report[name]:.3e}  {'ok' if name in passed else 'FAIL'}")
    print(f"{len(passed)}/{len(report)} checks within {GRAD_CHECK_BOUND:g}")
    return 0 if len(passed) == len(report) else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "infer": _cmd_infer,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
    "gradcheck": _cmd_gradcheck,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing keeps no state in it."""
    return build_parser()


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for flag in ("jobs", "log_interval", "coords"):
        if getattr(args, flag, 1) < 1:
            return _fail(f"--{flag.replace('_', '-')} must be >= 1, got {getattr(args, flag)}")
    try:
        # an overflow surfaces as NonFiniteValueError at a checked boundary and
        # is reported below; numpy's own warnings would only precede that line
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except (CliError, MaskError, EvaluationError, PipelineConfigError, SceneConfigError,
            CheckpointError, NonFiniteValueError, TrainingDivergedError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        return _fail(str(exc))
    except (KeyError, ValueError) as exc:
        return _fail(f"invalid input: {exc}")


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
