"""Hooks the benchmark installs around calls into the cogent package.

Two kinds of hook, both installed by rebinding module attributes and both
removed again by `Patches.restore`:

* `StepProbe` (every run): timestamps at the return of each `adam_step`,
  epoch boundaries (each call of `make_batches`), the duration of each
  batch of the pretraining sanity pass (up to each `joint_loss` return), and
  the checkpoints handed to `save_checkpoint`. It adds a clock read and a
  list append per call, nothing more.
* `Tracer` (traced runs only): one span per call into each module's public
  functions, per tensor op kind, and per backward closure of matmul/gelu.
  Spans stay in memory and are written out once, at the end.

Functions are found by identity: every attribute of every loaded `cogent`
module that is the original function object is rebound, so calls made
through `from .model import encode` style imports are seen as well.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter


def _cogent_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cogent" or name.startswith("cogent."))
    ]


class Patches:
    """Rebinds attributes and puts every original back on `restore`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> int:
        """Rebind every cogent module attribute that `is` `original`."""
        count = 0
        for mod in _cogent_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- per-step probe (all runs) -------------------------------------------------

BOUNDARY = None  # marker in StepProbe.events: an epoch or pass started


@dataclass
class StepProbe:
    events: list = field(default_factory=list)  # adam_step return times, BOUNDARY
    sanity: list = field(default_factory=list)  # (seconds, samples) per sanity batch
    saved: list = field(default_factory=list)  # (Checkpoint, path) per save

    def install(self, patches: Patches, trainer) -> None:
        adam_step = trainer.adam_step
        make_batches = trainer.make_batches
        joint_loss = trainer.joint_loss
        sanity_loss = trainer._sanity_loss
        save_checkpoint = trainer.save_checkpoint
        events, sanity, saved = self.events, self.sanity, self.saved
        marks: list[float] = []  # clock readings within the current sanity pass

        def adam_probe(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            events.append(clock())
            return out

        def batches_probe(*args, **kwargs):
            events.append(BOUNDARY)
            return make_batches(*args, **kwargs)

        def joint_probe(*args, **kwargs):
            out = joint_loss(*args, **kwargs)
            if marks:
                marks.append(clock())
            return out

        def sanity_probe(samples, params, settings, lambdas):
            marks.append(clock())
            try:
                out = sanity_loss(samples, params, settings, lambdas)
                bs = min(settings.train.batch_size, len(samples))
                sanity.extend((end - start, bs) for start, end in zip(marks, marks[1:]))
            finally:
                marks.clear()
            return out

        def save_probe(ckpt, path):
            out = save_checkpoint(ckpt, path)
            saved.append((ckpt, path))
            return out

        patches.set(trainer, "adam_step", adam_probe)
        patches.set(trainer, "make_batches", batches_probe)
        patches.set(trainer, "joint_loss", joint_probe)
        patches.set(trainer, "_sanity_loss", sanity_probe)
        patches.set(trainer, "save_checkpoint", save_probe)

    def steps(self) -> int:
        return sum(1 for e in self.events if e is not BOUNDARY)

    def intervals(self) -> list[tuple[float, float]]:
        """(start, end) of each step that follows another in the same epoch."""
        out = []
        prev = None
        for e in self.events:
            if e is BOUNDARY:
                prev = None
                continue
            if prev is not None:
                out.append((prev, e))
            prev = e
        return out

    def clear(self) -> None:
        self.events.clear()
        self.sanity.clear()
        self.saved.clear()


# -- spans (traced runs) ---------------------------------------------------------


class SpanRecorder:
    """Spans as [name, start, end, parent index, op id], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0  # identifier shared by the spans of one workload operation
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                )
                fh.write("\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def aggregate(spans: list[list], key=lambda span: span[0]) -> dict:
    """Total seconds, self seconds and calls of the spans, grouped by `key`."""
    totals: dict = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(key(span), {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += span[2] - span[1]
        entry["self_s"] += own
        entry["calls"] += 1
    return totals


# Layers traced in the program, by span name: (module, attribute).
LAYER_FUNCTIONS = {
    "optim.adam_step": ("cogent.optim", "adam_step"),
    "checkpoint.save_checkpoint": ("cogent.checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("cogent.checkpoint", "load_checkpoint"),
    "model.init_params": ("cogent.model", "init_params"),
    "model.encode": ("cogent.model", "encode"),
    "model.decode": ("cogent.model", "decode"),
    "model.project_head": ("cogent.model", "project_head"),
    "model.classify": ("cogent.model", "classify"),
    "losses.contrastive_loss": ("cogent.losses", "contrastive_loss"),
    "losses.patch_reconstruction_term": ("cogent.losses", "patch_reconstruction_term"),
    "losses.joint_loss": ("cogent.losses", "joint_loss"),
    "losses.cross_entropy": ("cogent.losses", "cross_entropy"),
    "augment.make_views_batch": ("cogent.augment", "make_views_batch"),
    "patchmask.batch_patchify_mask": ("cogent.patchmask", "batch_patchify_mask"),
    "data.load_corpus": ("cogent.data", "load_corpus"),
    "data.make_batches": ("cogent.data", "make_batches"),
    "metrics.compute_metrics": ("cogent.metrics", "compute_metrics"),
    "metrics.silhouette_score": ("cogent.metrics", "silhouette_score"),
    "trainer.sanity": ("cogent.trainer", "_sanity_loss"),
    "trainer.snapshot": ("cogent.trainer", "_snapshot"),
    "trainer.pretrain": ("cogent.trainer", "pretrain"),
    "trainer.finetune": ("cogent.trainer", "finetune"),
    "trainer.evaluate": ("cogent.trainer", "evaluate"),
    "trainer.export_embeddings": ("cogent.trainer", "export_embeddings"),
}
GENERATOR_LAYERS = {"data.make_batches"}
TENSOR_OPS = (
    "matmul", "layer_norm", "softmax", "gelu", "relu", "concat",
    "l2_normalize", "logsumexp",
)
BACKWARD_OPS = ("matmul", "gelu")


def graph_size(root) -> int:
    """Nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Wraps the layer functions so that each call records a span."""

    def __init__(self):
        self.recorder = SpanRecorder()
        self.graph_nodes: list[int] = []

    def _span(self, fn, name):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    def _generator_span(self, fn, name):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = rec.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                yield item

        return wrapper

    def _op_span(self, fn, op):
        rec = self.recorder
        name = f"tensor.{op}"
        bwd_name = f"tensor.{op}.bwd"
        time_backward = op in BACKWARD_OPS

        def timed_backward(backward):
            def wrapper(g):
                idx = rec.open(bwd_name)
                try:
                    return backward(g)
                finally:
                    rec.close(idx)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if time_backward and out._backward is not None:
                out._backward = timed_backward(out._backward)
            return out

        return wrapper

    def install(self, patches: Patches) -> None:
        for name, (module, attr) in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            make = self._generator_span if name in GENERATOR_LAYERS else self._span
            patches.replace_everywhere(original, make(original, name))
        tensor_mod = sys.modules["cogent.tensor"]
        for op in TENSOR_OPS:
            original = getattr(tensor_mod, op)
            patches.replace_everywhere(original, self._op_span(original, op))

        tensor_cls = tensor_mod.Tensor
        backward = tensor_cls.backward
        span_backward = self._span(backward, "tensor.backward")

        def counting_backward(node):
            self.graph_nodes.append(graph_size(node))
            return span_backward(node)

        patches.set(tensor_cls, "backward", counting_backward)
