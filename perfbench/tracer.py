"""Outside-in tracing of vqs: spans around its public functions, kept in memory.

Each traced function is wrapped at every name a vqs module binds it under,
because callers that did ``from .masks import mask_iou`` look it up in their
own module, not in ``vqs.masks``. Spans nest through a stack, so each span
records the id of the span that was open when it started. Nothing is
written until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable

# (span name, home module, function name). The span name's first part is the
# layer the per-layer metrics report it under.
TRACED = (
    ("cli.infer_video", "vqs.pipeline", "infer_video"),
    ("pipeline.run_clip", "vqs.pipeline", "run_clip"),
    ("pipeline.encode_frame", "vqs.pipeline", "encode_frame"),
    ("pipeline.encode_memory", "vqs.pipeline", "encode_memory"),
    ("pipeline.memory_attention", "vqs.pipeline", "memory_attention"),
    ("pipeline.stt_block", "vqs.pipeline", "stt_block"),
    ("pipeline.decode_masks", "vqs.pipeline", "decode_masks"),
    ("pipeline.binarize_candidate", "vqs.pipeline", "binarize_candidate"),
    ("pipeline.tfg_select", "vqs.pipeline", "tfg_select"),
    ("pipeline.dfg_select", "vqs.pipeline", "dfg_select"),
    ("pipeline.amg_fuse", "vqs.pipeline", "amg_fuse"),
    ("pipeline.finalize_predictions", "vqs.pipeline", "finalize_predictions"),
    ("training.scene_losses", "vqs.training", "scene_losses"),
    ("training.frame_loss", "vqs.training", "frame_loss"),
    ("training.total_loss", "vqs.training", "total_loss"),
    ("autodiff.gradient_map", "vqs.autodiff", "gradient_map"),
    ("optim.adamw_step", "vqs.optim", "adamw_step"),
    ("optim.save_params", "vqs.optim", "save_params"),
    ("optim.load_params", "vqs.optim", "load_params"),
    ("masks.rle_encode", "vqs.masks", "rle_encode"),
    ("masks.mask_iou", "vqs.masks", "mask_iou"),
    ("masks.mask_intersection_area", "vqs.masks", "mask_intersection_area"),
    ("masks.annotation_from_dict", "vqs.masks", "annotation_from_dict"),
    ("metrics.evaluate_video", "vqs.metrics", "evaluate_video"),
    ("metrics.aggregate_metrics", "vqs.metrics", "aggregate_metrics"),
    ("synth.generate_scene", "vqs.synth", "generate_scene"),
    ("synth.write_ppm", "vqs.synth", "write_ppm"),
    ("synth.read_ppm", "vqs.synth", "read_ppm"),
    ("synth.compute_digest", "vqs.synth", "compute_digest"),
    ("synth.compute_stats", "vqs.synth", "compute_stats"),
)


class Tracer:
    """Records spans and autodiff node counts while installed.

    Only the process that created the tracer records; forked ``--jobs``
    workers inherit the wrappers but their spans would be lost with them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.nodes = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self) -> tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, token: tuple[int, int, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's own phases use this."""
        token = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(name, token)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            token = tracer.open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(name, token)

        traced.__wrapped__ = fn
        return traced

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "vqs" or key.startswith("vqs.")]
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        tensor_cls = sys.modules["vqs.autodiff"].Tensor
        original_init = tensor_cls.__init__
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer.nodes += 1
            original_init(obj, *args, **kwargs)

        self._restore.append((tensor_cls, "__init__", original_init))
        tensor_cls.__init__ = counting_init

    def remove(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, _, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[span_id]
        return dict(out)

    def roots(self) -> list[tuple[int, int, str, float, float]]:
        return [s for s in self.spans if s[1] == 0]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
