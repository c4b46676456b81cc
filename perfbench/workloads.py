"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, then repeats a fixed
round of operations. It drives vqs only through ``vqs.cli.dispatch``,
``overfit_train``, ``save_params``/``load_params`` and ``generate_scene``, plus
the config classes and ``init_params`` that build their inputs.
Every operation counts as attempted; it counts as failed when it exits
non-zero or its output fails the workload's correctness gate.

- ``infer-default``: the pipeline forward pass and tape construction, with
  no backward pass and no optimizer, serially and through ``--jobs``.
- ``train-overfit``: the backward tape walk, the 576x576 STT softmax and
  AdamW at acceptance criterion 8's config, with no process pool.
- ``data-io``: synth, masks and metrics; pipeline and autodiff do nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import vqs.optim
import vqs.pipeline
import vqs.synth
import vqs.training
from vqs.cli import dispatch

NPROC = len(os.sched_getaffinity(0))
RECORDED = json.loads((Path(__file__).with_name("recorded.json")).read_text())


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned with rank 100.
    """
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return values[-1], 100.0
    return values[n - 11], 100.0 * (n - 10) / n


class Workload:
    name = ""
    # set-ups repeated after each measured round; see run.measure
    setups_per_round = 1
    # phases whose work runs in --jobs workers, where the tracer records nothing
    worker_phases: tuple[str, ...] = ()
    # per-phase metric names behind rate1..rate3, each with its unit
    rates: tuple[tuple[str, str], ...] = ()

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase_wall: dict[str, float] = defaultdict(float)
        self.phase_cpu: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = {}

    # -- bookkeeping -----------------------------------------------------------

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {detail}".strip())

    def timed(self, phase: str, fn, *args):
        """Run one operation, as a root span when tracing; returns (result, wall)."""
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if self.tracer is not None:
            result = self.tracer.span(phase, fn, *args)
        else:
            result = fn(*args)
        wall = time.perf_counter() - t0
        self.phase_wall[phase] += wall
        self.phase_cpu[phase] += cpu_seconds() - c0
        return result, wall

    def cli(self, phase: str, args: list) -> tuple[int, str, str, float]:
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return dispatch([str(a) for a in args])

        code, wall = self.timed(phase, call)
        return code, out.getvalue(), err.getvalue().strip(), wall

    def fresh(self, name: str) -> Path:
        """``work/name``, with whatever an earlier set-up left there moved aside.

        Rewriting or deleting the old files inside a timed set-up would time
        the kernel freeing their pages and blocks; ``drop_retired`` deletes
        them once the set-up is timed.
        """
        path = self.work / name
        if path.exists():
            retired = self.work / "retired"
            retired.mkdir(exist_ok=True)
            path.rename(retired / f"{sum(1 for _ in retired.iterdir())}-{name}")
        return path

    def drop_retired(self) -> None:
        """Delete what ``fresh`` moved aside, while it is new enough that the
        kernel has not written it back: kept to the end of the run, it would
        be written back and its blocks freed while the next run measures."""
        shutil.rmtree(self.work / "retired", ignore_errors=True)

    def reset_samples(self) -> None:
        self.samples.clear()
        self.phase_wall.clear()
        self.phase_cpu.clear()

    # -- interface -------------------------------------------------------------

    def setup(self) -> None:
        """Build the inputs from the seed; may run again between rounds."""
        raise NotImplementedError

    def round(self, index: int) -> None:
        """One round of operations; ``index`` counts rounds from 0."""
        raise NotImplementedError

    def summary(self) -> dict[str, float]:
        """This workload's per-phase metrics, by name."""
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics that come from outputs rather than spans."""
        return dict(self.extra)


# --- infer-default ---------------------------------------------------------------


# Two videos of equal length: the --jobs workers get equal shares whatever
# the seed. Six clips a video keeps per-video costs (checkpoint reload, query
# encoding, ground-truth reads) near their share on gen's default lengths.
# With two videos the seed alone would set how many objects there are to
# draw and mine, so their counts are fixed at the middle of gen's ranges.
INFER_SCENES = 2
INFER_GEN = ["--frames", "42:42",  # six whole clips of the default length 7
             "--occurrences", "3:3", "--distractors", "2:2"]
INFER_FLAGS = ["--seed", "5", "--tau-s", "0.5"]
INFER_TARGET_SLOTS = 2      # --nt default
INFER_DISTRACTOR_SLOTS = 1  # --nd default
EVALS_PER_ROUND = 5


class InferDefault(Workload):
    name = "infer-default"
    setups_per_round = 3
    worker_phases = ("cli.infer.jobs",)
    rates = (("infer.frames_per_s", "frames/s"), ("infer.frames_per_s_jobs", "frames/s"),
             ("eval.videos_per_s", "videos/s"))

    def setup(self) -> None:
        self.data = self.fresh("ds")
        self.ckpt = self.fresh("ckpt.bin")
        code, _, err, _ = self.cli("cli.gen", ["gen", "--scenes", INFER_SCENES, "--seed", self.seed,
                                               *INFER_GEN, "--out", self.data])
        self.record("gen", code == 0, err)
        vqs.optim.save_params(vqs.pipeline.init_params(vqs.pipeline.PipelineConfig(seed=5)),
                              str(self.ckpt))
        manifest = json.loads((self.data / "manifest.json").read_text())
        self.frames = sum(s["num_frames"] for s in manifest["scenes"])
        self.videos = len(manifest["scenes"])
        self.extra["optim.checkpoint_bytes"] = self.ckpt.stat().st_size

    def _infer(self, phase: str, jobs: int, out: Path) -> tuple[int, str, float]:
        code, _, err, wall = self.cli(phase, ["infer", "--data", self.data, "--out", out,
                                              "--ckpt", self.ckpt, *INFER_FLAGS, "--jobs", jobs])
        return code, err, wall

    def round(self, index: int) -> None:
        serial, parallel = self.work / "pred_j1.json", self.work / f"pred_j{NPROC}.json"
        nodes0 = self.tracer.nodes if self.tracer else 0
        code, err, wall = self._infer("cli.infer.serial", 1, serial)
        if self.tracer:
            self.extra["autodiff.nodes_per_frame"] = (self.tracer.nodes - nodes0) / self.frames
        ok = code == 0
        if ok:
            digest = sha256_file(serial)
            expected = RECORDED[self.name].get(str(self.seed))
            if expected is not None and digest != expected:
                ok, err = False, f"predictions digest {digest[:12]} differs from recorded {expected[:12]}"
        self.record("infer --jobs 1", ok, err)
        self.samples["infer.frames_per_s"].append(self.frames / wall)

        code, err, wall = self._infer("cli.infer.jobs", NPROC, parallel)
        ok = code == 0 and serial.read_bytes() == parallel.read_bytes()
        self.record(f"infer --jobs {NPROC}", ok, err or "predictions differ from --jobs 1")
        self.samples["infer.frames_per_s_jobs"].append(self.frames / wall)

        for _ in range(EVALS_PER_ROUND):
            code, _, err, wall = self.cli("cli.eval", ["eval", "--gt", self.data, "--pred", serial])
            self.record("eval predictions", code == 0, err)
            self.samples["eval.videos_per_s"].append(self.videos / wall)
        self._count_pipeline(serial)

    def _count_pipeline(self, path: Path) -> None:
        preds = json.loads(path.read_text())["predictions"]
        stages = [st for r in preds for clip in r["provenance"]["clips"] for st in clip["stages"]]
        targets = sum(len(st["targets"]) for st in stages)
        distractors = sum(len(st["distractors"]) for st in stages)
        emitted = sum(len(occ["masks"]) for r in preds for occ in r["occurrences"])
        self.extra.update({
            "pipeline.frames": self.frames,
            "pipeline.targets_mined": targets,
            "pipeline.distractors_mined": distractors,
            "pipeline.frames_emitted": emitted,
            "pipeline.target_fill": targets / (INFER_TARGET_SLOTS * len(stages)) if stages else 0.0,
            "pipeline.distractor_fill":
                distractors / (INFER_DISTRACTOR_SLOTS * len(stages)) if stages else 0.0,
            "pipeline.emit_share": emitted / self.frames,
        })

    def summary(self) -> dict[str, float]:
        return {name: median(self.samples[name]) for name, _ in self.rates}

    def layer_extras(self) -> dict[str, float]:
        out = dict(self.extra)
        serial, parallel = self.phase_wall["cli.infer.serial"], self.phase_wall["cli.infer.jobs"]
        out["cli.parallel_speedup"] = serial / parallel
        out["cli.infer.cpu_per_wall_serial"] = self.phase_cpu["cli.infer.serial"] / serial
        out["cli.infer.cpu_per_wall"] = self.phase_cpu["cli.infer.jobs"] / parallel
        return out


# --- train-overfit ---------------------------------------------------------------


TRAIN_STEPS = 10          # steps per overfit_train call, each a fresh run from init
TRAIN_SCENES = 3          # rounds cycle through this many scenes drawn from the seed
CHECKPOINT_TRIPS = 100    # save_params/load_params round trips per round


class TrainOverfit(Workload):
    name = "train-overfit"
    setups_per_round = 8
    rates = (("train.step_s_p50", "s/step"), ("train.step_s_tail", "s/step"),
             ("optim.checkpoint_trips_per_s", "trips/s"))

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.curve_digests: dict[int, str] = {}  # loss-curve sha256 by scene index

    def setup(self) -> None:
        # Step time depends on how much the pipeline mines in a scene; cycling
        # through a few scenes keeps one scene from setting a run's figures.
        self.scenes = [
            vqs.synth.generate_scene(
                vqs.synth.SceneConfig(
                    frame_size=(48, 48), num_frames=16, num_occurrences=2, distractor_count=1,
                    target_shape="rectangle", appearance_drift=0.15, target_scale=0.38,
                    seed=TRAIN_SCENES * self.seed + k,
                ),
                video_id=f"overfit{k}",
            )
            for k in range(TRAIN_SCENES)
        ]
        self.cfg = vqs.pipeline.PipelineConfig(num_stages=2, clip_len=4, patch_size=4, model_dim=16,
                                               num_heads=2, stage_weights=(0.5, 1.0), seed=3)
        self.tcfg = vqs.training.TrainConfig(steps=TRAIN_STEPS, lr=1e-2, weight_decay=0.0, seed=3)

    def round(self, index: int) -> None:
        # step times are taken between consecutive adamw_step returns
        stamps: list[float] = []
        inner = vqs.training.adamw_step

        def stamped(*args, **kwargs):
            result = inner(*args, **kwargs)
            stamps.append(time.perf_counter())
            return result

        vqs.training.adamw_step = stamped
        nodes0 = self.tracer.nodes if self.tracer else 0
        k = index % TRAIN_SCENES
        try:
            start = time.perf_counter()
            (store, curve), _ = self.timed("train.overfit", vqs.training.overfit_train,
                                           self.scenes[k], self.cfg, self.tcfg)
        except vqs.training.TrainingDivergedError as exc:
            # overfit_train raises on the first non-finite loss
            self.record("overfit_train", False, f"scene {k}: {exc}")
            return
        finally:
            vqs.training.adamw_step = inner
        if self.tracer:
            self.extra["autodiff.nodes_per_step"] = (self.tracer.nodes - nodes0) / TRAIN_STEPS
        self.samples["train.step_s"].extend(b - a for a, b in zip([start] + stamps[:-1], stamps))
        # The loss is not monotone: it jumps when the mined memory changes, so
        # a run of any fixed length can end above its first step. The gate asks
        # for progress (some later step below the first) plus the exact curve.
        totals = [pt.total for pt in curve]
        ok = min(totals[1:]) < totals[0]
        detail = f"scene {k}: first loss {totals[0]:.6g}, lowest later {min(totals[1:]):.6g}"
        self.curve_digests[k] = hashlib.sha256(json.dumps([vars(pt) for pt in curve]).encode()).hexdigest()
        expected = RECORDED[self.name].get(str(self.seed))
        if ok and expected is not None and self.curve_digests[k] != expected[k]:
            ok, detail = False, f"scene {k} loss curve differs from the recorded one"
        self.record("overfit_train", ok, detail)

        # Each trip writes a new file, as a training run saving checkpoints does;
        # rewriting one file would time the kernel freeing its written-back blocks.
        expected = [(name, p.value.shape, p.value.tobytes()) for name, p in store.params.items()]
        ckpt = self.work / "overfit.ckpt"
        for _ in range(CHECKPOINT_TRIPS):
            _, save_wall = self.timed("optim.save", vqs.optim.save_params, store, str(ckpt))
            self.extra["optim.checkpoint_bytes"] = ckpt.stat().st_size
            try:
                loaded, load_wall = self.timed("optim.load", vqs.optim.load_params, str(ckpt))
            except vqs.optim.CheckpointError as exc:
                self.record("checkpoint round trip", False, str(exc))
                continue
            finally:
                ckpt.unlink()
            got = [(name, p.value.shape, p.value.tobytes()) for name, p in loaded.params.items()]
            self.record("checkpoint round trip", got == expected, "loaded values differ")
            self.samples["optim.checkpoint_trips_per_s"].append(1.0 / (save_wall + load_wall))

    def summary(self) -> dict[str, float]:
        steps = self.samples["train.step_s"]
        return {
            "train.step_s_p50": median(steps),
            "train.step_s_tail": tail(steps)[0],
            "optim.checkpoint_trips_per_s": median(self.samples["optim.checkpoint_trips_per_s"]),
        }


# --- data-io ---------------------------------------------------------------------


DATA_SCENES = 20
DATA_FRAMES = "72:72"  # equal scene lengths keep scenes/s from varying with the seed
EVAL_PAIRS = 3  # a perfect and a perturbed eval take about 0.25 s, short beside gen's noise


# The benchmark reads and writes the annotation run lists itself, so the
# predictor inputs it gives vqs do not depend on vqs's own mask codec.
def _decode(runs_csv: str, height: int, width: int) -> np.ndarray:
    flat = np.zeros(height * width, dtype=np.uint8)
    pos = 0
    for i, run in enumerate(int(tok) for tok in runs_csv.split(",")):
        if i % 2:
            flat[pos:pos + run] = 1
        pos += run
    return flat.reshape(height, width)


def _encode(grid: np.ndarray) -> str:
    flat = grid.ravel()
    edges = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], edges, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return ",".join(str(r) for r in runs)


def _shift(grid: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(grid)
    h, w = grid.shape
    out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
        grid[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return out


def perturbed_predictions(gts: list[dict], seed: int) -> list[dict]:
    """A seeded imperfect predictor: occurrences and frames dropped, masks shifted."""
    rng = np.random.default_rng([seed, 0x5EED])
    preds = []
    for gt in gts:
        h, w = gt["height"], gt["width"]
        frames: dict[int, str] = {}
        for occ in gt["occurrences"]:
            if rng.random() < 0.15:
                continue
            for k, runs in enumerate(occ["masks"]):
                if rng.random() < 0.2:
                    continue
                dy, dx = (int(v) for v in rng.integers(-3, 4, size=2))
                grid = _shift(_decode(runs, h, w), dy, dx)
                if grid.any():
                    frames[occ["start"] + k] = _encode(grid)
        occurrences = []
        for t in sorted(frames):
            if occurrences and occurrences[-1]["end"] == t - 1:
                occurrences[-1]["end"] = t
                occurrences[-1]["masks"].append(frames[t])
            else:
                occurrences.append({"start": t, "end": t, "masks": [frames[t]]})
        preds.append({"video_id": gt["video_id"], "height": h, "width": w,
                      "occurrences": occurrences})
    return preds


class DataIo(Workload):
    name = "data-io"
    rates = (("gen.scenes_per_s", "scenes/s"), ("validate.frames_per_s", "frames/s"),
             ("eval.videos_per_s", "videos/s"))

    def _gen(self) -> None:
        # The set-up's gen is the same call as the round's, so both give
        # gen.scenes_per_s samples: gen is half file creation, whose cost can
        # change severalfold within seconds, and more samples steady the median.
        code, _, err, wall = self.cli("cli.gen", ["gen", "--scenes", DATA_SCENES, "--seed", self.seed,
                                                  "--frames", DATA_FRAMES, "--out", self.data])
        self.record("gen", code == 0, err)
        self.samples["gen.scenes_per_s"].append(DATA_SCENES / wall)

    def setup(self) -> None:
        self.data = self.fresh("ds")
        self._gen()
        manifest = json.loads((self.data / "manifest.json").read_text())
        self.frames = sum(s["num_frames"] for s in manifest["scenes"])
        gts = [json.loads((self.data / s["gt"]).read_text()) for s in manifest["scenes"]]
        self.perfect = self.fresh("perfect.json")
        self.perturbed = self.fresh("perturbed.json")
        self.perfect.write_text(json.dumps(gts))
        self.perturbed.write_text(json.dumps(perturbed_predictions(gts, self.seed)))

    def round(self, index: int) -> None:
        # Each round's gen writes a fresh dataset, which validate, stats and eval
        # then read, and the one before it is deleted: rewriting a single
        # dataset for a whole run lets the kernel write it back and free its
        # blocks again inside the timed gen calls, which made back-to-back runs
        # slow each other down.
        shutil.rmtree(self.data, ignore_errors=True)
        self.data = self.work / f"ds{index % 2}"
        shutil.rmtree(self.data, ignore_errors=True)
        self._gen()
        self.extra["synth.write_bytes"] = dir_bytes(self.data)

        rchar0 = _rchar()
        code, out, err, wall = self.cli("cli.validate", ["validate", "--data", self.data,
                                                         "--format", "json"])
        read = _rchar() - rchar0
        ok = code == 0 and json.loads(out)["violations"] == []
        self.record("validate", ok, err or out.strip()[:200])
        self.samples["validate.frames_per_s"].append(self.frames / wall)
        self.extra["synth.validate.read_amplification"] = read / self.extra["synth.write_bytes"]

        code, _, err, _ = self.cli("cli.stats", ["stats", "--data", self.data])
        self.record("stats", code == 0, err)

        for _ in range(EVAL_PAIRS):
            report = self.work / "report_perfect.json"
            code, _, err, wall_a = self.cli("cli.eval", ["eval", "--gt", self.data,
                                                         "--pred", self.perfect, "--out", report])
            ok = code == 0 and all(v == 100.0 for v in json.loads(report.read_text())["overall"].values())
            self.record("eval perfect", ok, err or "perfect predictor scored below 100")

            report = self.work / "report_perturbed.json"
            code, _, err, wall_b = self.cli("cli.eval", ["eval", "--gt", self.data,
                                                         "--pred", self.perturbed, "--out", report])
            ok = code == 0
            if ok:
                digest = sha256_file(report)
                expected = RECORDED[self.name].get(str(self.seed))
                if expected is not None and digest != expected:
                    ok, err = False, f"report digest {digest[:12]} differs from recorded {expected[:12]}"
            self.record("eval perturbed", ok, err)
            # one sample per pair: the two evals' times differ, and a median
            # over a mix of the two would jump between them
            self.samples["eval.videos_per_s"].append(2 * DATA_SCENES / (wall_a + wall_b))

    def summary(self) -> dict[str, float]:
        return {name: median(self.samples[name]) for name, _ in self.rates}


def _rchar() -> int:
    """Bytes this process has read through read(2) and friends so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    return 0


WORKLOADS = {cls.name: cls for cls in (InferDefault, TrainOverfit, DataIo)}
