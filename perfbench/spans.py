"""In-memory span tracer and the wrappers that place spans at layer boundaries.

Spans are recorded from the benchmark's own files only: the program's
public functions and methods are wrapped for the duration of a traced
block and restored afterwards.  A span is ``(name, start, end, parent,
run_id)``; a layer's self time is its span's duration minus the part its
child spans cover.  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional


class Tracer:
    """Records nested spans per thread; single writer per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # name, start, end, parent index (-1 = root), child time covered
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        stack = self._stack()
        stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------
    def ancestors(self, index: int) -> Iterable[str]:
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def self_seconds(self, within: Optional[str] = None, outside: Optional[str] = None) -> dict:
        """Total self time per span name, optionally only for spans with
        (``within``) or without (``outside``) a given ancestor."""
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, covered) in enumerate(self.spans):
            if end is None:
                continue
            if within is not None or outside is not None:
                names = set(self.ancestors(index))
                if within is not None and within not in names:
                    continue
                if outside is not None and outside in names:
                    continue
            totals[name] += (end - start) - covered
        return dict(totals)

    def durations(self, name: str, outside: Optional[str] = None) -> list[float]:
        """Inclusive durations of the outermost spans called ``name``,
        optionally only those without an ancestor called ``outside``."""
        out = []
        for index, (span_name, start, end, _parent, _covered) in enumerate(self.spans):
            if span_name != name or end is None:
                continue
            names = set(self.ancestors(index))
            if name in names or (outside is not None and outside in names):
                continue
            out.append(end - start)
        return out

    def rows(self) -> list[dict]:
        """Every span as a JSON-ready dict (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "id": index,
                "run_id": self.run_id,
                "name": name,
                "start_ms": round((start - origin) * 1000.0, 4),
                "end_ms": None if end is None else round((end - origin) * 1000.0, 4),
                "parent": parent,
                "self_ms": None if end is None else round((end - start - covered) * 1000.0, 4),
            }
            for index, (name, start, end, parent, covered) in enumerate(self.spans)
        ]


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)


def unattributed(tracer: Tracer, root: str) -> tuple[float, float]:
    """``(root self seconds, root seconds)`` summed over spans named ``root``:
    the part of the benchmark's own root spans no layer span covers."""
    own = total = 0.0
    for name, start, end, _parent, covered in tracer.spans:
        if name == root and end is not None:
            own += (end - start) - covered
            total += end - start
    return own, total


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
class Patcher:
    """Replaces attributes and restores every one of them on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, bool]] = []

    def set(self, owner, attr: str, value) -> None:
        # The raw class-dict entry, so a staticmethod is restored as one.
        own = vars(owner)
        had = attr in own
        self._saved.append((owner, attr, own.get(attr), had))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind every ``repro.*`` module global bound to ``original``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value, had = self._saved.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


# ----------------------------------------------------------------------
# The training-path layers (data, core, autograd, optim)
# ----------------------------------------------------------------------
class TrainingLayers:
    """Spans and counts at the layer boundaries of one training run.

    Installed with :meth:`install` inside a :class:`Patcher`.  Module
    forwards are attributed by role: the generator, predictor and frozen
    full-text predictor (``predictor_t``) of whichever model enters
    ``training_loss``, and the predictor passed to Eq. 4 pretraining.
    Tensors constructed are counted only inside cooperative training
    steps (``training_loss`` entry to the optimizer step).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.roles: dict[int, str] = {}
        self.in_step = False
        self.step_tensors = 0
        self.steps = 0
        self.real_tokens = 0
        self.padded_slots = 0

    def _batches(self, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def batch_iterator(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                index = tracer.open("data.batches")
                try:
                    batch = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                self.real_tokens += int(batch.mask.sum())
                self.padded_slots += int(batch.mask.size)
                yield batch

        return batch_iterator

    def _forward(self, original: Callable) -> Callable:
        tracer = self.tracer
        roles = self.roles

        @functools.wraps(original)
        def forward(module, *args, **kwargs):
            role = roles.get(id(module))
            if role is None:
                return original(module, *args, **kwargs)
            index = tracer.open(role)
            try:
                return original(module, *args, **kwargs)
            finally:
                tracer.close(index)

        return forward

    def _training_loss(self, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def training_loss(model, *args, **kwargs):
            self.roles[id(model.generator)] = "core.generator"
            self.roles[id(model.predictor)] = "core.predictor"
            if getattr(model, "predictor_t", None) is not None:
                self.roles[id(model.predictor_t)] = "core.predictor_t"
            self.in_step = True
            self.steps += 1
            index = tracer.open("core.loss")
            try:
                return original(model, *args, **kwargs)
            finally:
                tracer.close(index)

        return training_loss

    def _pretrain(self, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def pretrain_full_text_predictor(predictor, *args, **kwargs):
            # A fit starts here: forget the previous model's (possibly reused) ids.
            self.roles.clear()
            self.roles[id(predictor)] = "core.predictor_t"
            index = tracer.open("core.pretrain")
            try:
                return original(predictor, *args, **kwargs)
            finally:
                tracer.close(index)

        return pretrain_full_text_predictor

    def _optim_step(self, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def step(optimizer, *args, **kwargs):
            index = tracer.open("optim.step")
            try:
                return original(optimizer, *args, **kwargs)
            finally:
                tracer.close(index)
                self.in_step = False

        return step

    def _counted(self, original: Callable, static: bool) -> Callable:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self.in_step:
                self.step_tensors += 1
            return original(*args, **kwargs)

        return staticmethod(counted) if static else counted

    def install(self, patcher: Patcher) -> None:
        from repro.autograd.tensor import Tensor
        from repro.core import trainer
        from repro.core.dar import DAR
        from repro.core.generator import Generator
        from repro.core.inference import InferenceSession
        from repro.core.predictor import Predictor
        from repro.core.rnp import RNP
        from repro.data import batching
        from repro.optim.adam import Adam
        from repro.optim.optimizer import clip_grad_norm

        tracer = self.tracer
        patcher.everywhere(trainer.train_rationalizer,
                           spanned(tracer, "core.trainer", trainer.train_rationalizer))
        patcher.everywhere(trainer.pretrain_full_text_predictor,
                           self._pretrain(trainer.pretrain_full_text_predictor))
        patcher.everywhere(batching.batch_iterator, self._batches(batching.batch_iterator))
        patcher.everywhere(clip_grad_norm, spanned(tracer, "optim.clip", clip_grad_norm))
        for cls in (RNP, DAR):
            if "training_loss" in vars(cls):
                patcher.set(cls, "training_loss", self._training_loss(vars(cls)["training_loss"]))
        for cls in (Generator, Predictor):
            patcher.set(cls, "forward", self._forward(vars(cls)["forward"]))
        for method in ("map_batches", "select", "predict_full_text", "predict_from_rationale"):
            patcher.set(InferenceSession, method,
                        spanned(tracer, "core.inference", vars(InferenceSession)[method]))
        patcher.set(Tensor, "backward", spanned(tracer, "autograd.backward", vars(Tensor)["backward"]))
        patcher.set(Tensor, "__init__", self._counted(vars(Tensor)["__init__"], static=False))
        patcher.set(Tensor, "_make", self._counted(vars(Tensor)["_make"].__func__, static=True))
        patcher.set(Adam, "step", self._optim_step(vars(Adam)["step"]))

    # ------------------------------------------------------------------
    def metrics(self, epochs: int, batch_epochs: int) -> dict:
        """Per-layer numbers of everything traced so far.

        ``epochs`` counts cooperative epochs (eval probes run once per
        epoch); ``batch_epochs`` also counts Eq. 4 pretraining epochs
        (both iterate training batches).
        """
        tracer = self.tracer
        steps = max(self.steps, 1)
        in_steps = tracer.self_seconds(outside="core.pretrain")
        in_coop = tracer.self_seconds(within="core.loss")
        own = tracer.self_seconds()
        pretrain = tracer.durations("core.pretrain")
        return {
            "data.batches_ms": 1000.0 * own.get("data.batches", 0.0) / max(batch_epochs, 1),
            "data.pad_efficiency": self.real_tokens / self.padded_slots if self.padded_slots else 0.0,
            "core.pretrain_s": sum(pretrain) / len(pretrain) if pretrain else 0.0,
            "core.generator.fwd_ms": 1000.0 * in_coop.get("core.generator", 0.0) / steps,
            "core.predictor.fwd_ms": 1000.0 * in_coop.get("core.predictor", 0.0) / steps,
            "core.predictor_t.fwd_ms": 1000.0 * in_coop.get("core.predictor_t", 0.0) / steps,
            "core.loss_ms": 1000.0 * own.get("core.loss", 0.0) / steps,
            "core.inference.eval_ms": (
                1000.0 * sum(tracer.durations("core.inference", outside="core.pretrain")) / max(epochs, 1)),
            "autograd.backward_ms": 1000.0 * in_steps.get("autograd.backward", 0.0) / steps,
            "autograd.nodes_per_step": self.step_tensors / steps,
            "optim.step_ms": 1000.0 * in_steps.get("optim.step", 0.0) / steps,
            "optim.clip_ms": 1000.0 * in_steps.get("optim.clip", 0.0) / steps,
        }
