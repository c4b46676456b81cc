"""Outside-in benchmark of vqs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer-default --seed 1 --seconds 20 --trace 0

It builds the inputs of one workload from ``--seed``, repeats the workload's
round of operations for about ``--seconds`` seconds after one warm-up round,
building the inputs again after every round to time the set-up, checks every
output, prints a readable report, and prints as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``rate1``..``rate3``
(the workload's three headline rates, see perfbench/MAP.md), ``setup_s`` and
``peak_rss_mb``. With ``--trace 1`` the workload runs one untraced round and
then one traced round, and the metrics are the per-layer ones. Spans go to
``.perfbench_out/``; scratch files live in ``.perfbench_work/`` and are
removed at exit.

The benchmark never sets BLAS thread variables: vqs runs under whatever the
environment holds, and the report records it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Span-derived per-layer metrics: (metric, span name, field of Tracer.summary).
SPAN_METRICS = (
    ("pipeline.memory_attention.self_s", "pipeline.memory_attention", "self_s"),
    ("pipeline.stt_block.self_s", "pipeline.stt_block", "self_s"),
    ("pipeline.decode_masks.self_s", "pipeline.decode_masks", "self_s"),
    ("pipeline.encode_frame.self_s", "pipeline.encode_frame", "self_s"),
    ("pipeline.binarize_candidate.self_s", "pipeline.binarize_candidate", "self_s"),
    ("pipeline.binarize_candidate.calls", "pipeline.binarize_candidate", "calls"),
    ("pipeline.tfg_select.self_s", "pipeline.tfg_select", "self_s"),
    ("pipeline.dfg_select.self_s", "pipeline.dfg_select", "self_s"),
    ("pipeline.encode_memory.self_s", "pipeline.encode_memory", "self_s"),
    ("pipeline.amg_fuse.self_s", "pipeline.amg_fuse", "self_s"),
    ("pipeline.finalize_predictions.self_s", "pipeline.finalize_predictions", "self_s"),
    ("autodiff.gradient_map.self_s", "autodiff.gradient_map", "self_s"),
    ("training.frame_loss.self_s", "training.frame_loss", "self_s"),
    ("training.total_loss.self_s", "training.total_loss", "self_s"),
    ("optim.adamw_step.self_s", "optim.adamw_step", "self_s"),
    ("optim.load_params.calls", "optim.load_params", "calls"),
    ("optim.load_params.self_s", "optim.load_params", "self_s"),
    ("optim.save_params.self_s", "optim.save_params", "self_s"),
    ("masks.rle_encode.calls", "masks.rle_encode", "calls"),
    ("masks.rle_encode.self_s", "masks.rle_encode", "self_s"),
    ("masks.mask_iou.calls", "masks.mask_iou", "calls"),
    ("masks.mask_iou.self_s", "masks.mask_iou", "self_s"),
    ("masks.mask_intersection_area.self_s", "masks.mask_intersection_area", "self_s"),
    ("masks.annotation_from_dict.self_s", "masks.annotation_from_dict", "self_s"),
    ("metrics.evaluate_video.self_s", "metrics.evaluate_video", "self_s"),
    ("metrics.aggregate_metrics.self_s", "metrics.aggregate_metrics", "self_s"),
    ("synth.generate_scene.self_s", "synth.generate_scene", "self_s"),
    ("synth.write_ppm.self_s", "synth.write_ppm", "self_s"),
    ("synth.compute_digest.self_s", "synth.compute_digest", "self_s"),
    ("synth.compute_digest.calls", "synth.compute_digest", "calls"),
    ("synth.read_ppm.calls", "synth.read_ppm", "calls"),
    ("synth.read_ppm.self_s", "synth.read_ppm", "self_s"),
    ("synth.compute_stats.self_s", "synth.compute_stats", "self_s"),
)

# Per-layer metrics a workload measures from its outputs or from the clock.
OTHER_LAYER_METRICS = (
    ("pipeline.frames", "count"),
    ("pipeline.targets_mined", "count"),
    ("pipeline.distractors_mined", "count"),
    ("pipeline.frames_emitted", "count"),
    ("pipeline.target_fill", "ratio"),
    ("pipeline.distractor_fill", "ratio"),
    ("pipeline.emit_share", "ratio"),
    ("autodiff.nodes_per_frame", "nodes/frame"),
    ("autodiff.nodes_per_step", "nodes/step"),
    ("training.forward_s_per_step", "s/step"),
    ("optim.checkpoint_bytes", "bytes"),
    ("synth.write_bytes", "bytes"),
    ("synth.validate.read_amplification", "ratio"),
    ("cli.parallel_speedup", "ratio"),
    ("cli.infer.cpu_per_wall", "ratio"),
    ("cli.infer.cpu_per_wall_serial", "ratio"),
    ("cli.infer.io_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_share", "ratio"),
)


def span_unit(field: str) -> str:
    return "count" if field == "calls" else "s"


def environment() -> dict:
    import numpy as np

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ[name] for name in BLAS_VARS if name in os.environ},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def as_rate(value: float, unit: str) -> float:
    """A seconds-per-item figure as items per second, so every rate grows when faster."""
    return 1.0 / value if unit.startswith("s/") else value


def measure(workload, seconds: float) -> dict:
    from workloads import median, tail

    setups = []

    def set_up():
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        workload.drop_retired()

    set_up()
    workload.round(0)  # warm-up: lazy imports, BLAS thread start, page cache
    workload.reset_samples()
    # The set-up is repeated after every round, so that its median, like the
    # rates, is taken over the whole run: the host's speed drifts over seconds.
    start = time.perf_counter()
    rounds = []  # wall time of each round with the set-ups after it
    # start another round only while it is expected to end inside the window
    while len(rounds) < 3 or time.perf_counter() - start + median(rounds) <= seconds:
        t0 = time.perf_counter()
        workload.round(len(rounds))
        for _ in range(workload.setups_per_round):
            set_up()
        rounds.append(time.perf_counter() - t0)
    summary = workload.summary()
    metrics = {}
    for slot, (name, unit) in zip(("rate1", "rate2", "rate3"), workload.rates):
        metrics[slot] = {"value": as_rate(summary[name], unit), "unit": "items/s"}
    metrics["setup_s"] = {"value": median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    print(f"rounds: {len(rounds)} in {time.perf_counter() - start:.2f} s; "
          f"{len(setups)} set-ups: median {median(setups):.4f} s, "
          f"min {min(setups):.4f} s, max {max(setups):.4f} s")
    for slot, (name, unit) in zip(("rate1", "rate2", "rate3"), workload.rates):
        print(f"  {name:34s} {summary[name]:12.6g} {unit:10s} ({slot})")
    for name in ("setup_s", "peak_rss_mb"):
        print(f"  {name:34s} {metrics[name]['value']:12.6g} {metrics[name]['unit']}")
    for name, values in sorted(workload.samples.items()):
        print(f"  samples {name}: n={len(values)} median {median(values):.6g} "
              f"min {min(values):.6g} max {max(values):.6g}")
    if "train.step_s" in workload.samples:
        steps = workload.samples["train.step_s"]
        print(f"  train.step_s_tail is p{tail(steps)[1]:.0f} of {len(steps)} steps")
    return metrics


def trace(workload, seed: int) -> dict:
    from tracer import Tracer

    # the warm-up, untraced and traced rounds all do the same work
    workload.setup()
    workload.round(0)
    workload.reset_samples()
    t0 = time.perf_counter()
    workload.round(0)
    untraced = time.perf_counter() - t0
    untraced_extras = workload.layer_extras()
    untraced_phases = dict(workload.phase_wall)

    workload.reset_samples()
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        t0 = time.perf_counter()
        workload.round(0)
        traced = time.perf_counter() - t0
    finally:
        tracer.remove()
        workload.tracer = None
    traced_extras = workload.layer_extras()
    spans = tracer.summary()
    roots = tracer.roots()
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"{workload.name}-seed{seed}-spans.jsonl"))

    values: dict[str, float] = {}
    for metric, span, field in SPAN_METRICS:
        values[metric] = spans.get(span, {}).get(field, 0)
    # clock ratios come from the untraced round, counts from the traced one
    values.update(traced_extras)
    for key in ("cli.parallel_speedup", "cli.infer.cpu_per_wall", "cli.infer.cpu_per_wall_serial",
                "synth.validate.read_amplification"):
        if key in untraced_extras:
            values[key] = untraced_extras[key]
    if "train.overfit" in workload.phase_wall:
        from workloads import TRAIN_STEPS

        values["training.forward_s_per_step"] = \
            spans.get("training.scene_losses", {}).get("total_s", 0.0) / TRAIN_STEPS
    if "cli.infer.serial" in workload.phase_wall:
        values["cli.infer.io_s"] = workload.phase_wall["cli.infer.serial"] - \
            spans.get("cli.infer_video", {}).get("total_s", 0.0)
    # phases run by --jobs workers are left out: nothing in them is traced, and
    # their wall time varies by more than the tracing costs elsewhere
    traced_phases = {k: v for k, v in workload.phase_wall.items() if k not in workload.worker_phases}
    root_names = {r[2] for r in roots} - set(workload.worker_phases)
    root_total = sum(end - start for _, _, name, start, end in roots if name in root_names)
    root_self = sum(spans[name]["self_s"] for name in root_names)
    values["trace.overhead_s"] = sum(traced_phases.values()) - sum(
        v for k, v in untraced_phases.items() if k in traced_phases)
    values["trace.unattributed_share"] = root_self / root_total if root_total else 0.0

    metrics = {}
    for metric, _, field in SPAN_METRICS:
        metrics[metric] = {"value": values[metric], "unit": span_unit(field)}
    for metric, unit in OTHER_LAYER_METRICS:
        metrics[metric] = {"value": values.get(metric, 0), "unit": unit}
    print(f"untraced round {untraced:.3f} s, traced round {traced:.3f} s, "
          f"{len(tracer.spans)} spans, {tracer.nodes} autodiff nodes")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:34s} calls {row['calls']:7d}  self {row['self_s']:9.4f} s  "
              f"share {row['self_s'] / traced:6.1%}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in perfbench/recorded.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vqs" / "__init__.py").is_file():
        print(f"perfbench: no vqs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)  # vqs writes relative paths into its outputs; keep them stable

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    workload = WORKLOADS[args.workload](args.seed, WORK.relative_to(ROOT))
    env = environment()
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    try:
        if args.trace:
            metrics = trace(workload, args.seed)
        else:
            metrics = measure(workload, args.seconds)
        if args.record:
            record_digests(workload)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"failed_share: {workload.failed}/{workload.attempted} operations")
    for error in workload.errors[:10]:
        print(f"  failure: {error}")
    result = {"correct": workload.failed == 0, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def record_digests(workload) -> None:
    from workloads import sha256_file

    files = {"infer-default": "pred_j1.json", "data-io": "report_perturbed.json"}
    if workload.name in files:
        digest = sha256_file(workload.work / files[workload.name])
    else:
        digest = [workload.curve_digests[k] for k in sorted(workload.curve_digests)]
    path = Path(__file__).with_name("recorded.json")
    recorded = json.loads(path.read_text())
    recorded[workload.name][str(workload.seed)] = digest
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
