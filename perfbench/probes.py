"""Instrumentation the benchmark attaches to sinecast from the outside.

Nothing under ``src/`` knows about it. Every hook replaces a name at the
place it is looked up: ``from .autodiff import matmul`` in ``models.py``
binds ``sinecast.models.matmul``, so that module global is what gets
replaced, not only ``sinecast.autodiff.matmul``. The process keeps the
patches for its whole life; each benchmark run is its own process.

- ``Clock`` is the only instrumentation of the untraced run: a timestamp
  when the training loop asks for its next batch, one when ``adam_step``
  returns, and timestamps around ``evaluate`` and each window gather inside
  it. The loop in ``run.py`` adds the start of every unit (a training unit's
  set-up is the stretch before its first step) and the peak RSS when each
  unit ends. It never records spans.
- ``Tracer`` wraps every public function of the layers named in ``LAYERS``
  and records a span (name, start, end, parent span, unit) per call.
- ``StepProbe`` measures the first optimizer step of each trained cell with
  tracemalloc and counts the autodiff nodes it creates, by wrapping
  ``Tensor._from_op``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
import types
from time import perf_counter

from workloads import cell_label

LAYERS = ("autodiff", "models", "training", "data", "evaluation", "experiment", "reporting", "synthetic")


def _sinecast_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sinecast" or name.startswith("sinecast."))]


def _replace_everywhere(wrappers: dict) -> None:
    """Point every module-level reference to a wrapped function at its wrapper.

    Covers plain globals and the values of module-level dicts, such as the
    table of synthetic generators in ``experiment``.
    """
    for mod in _sinecast_modules():
        for key, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(mod, key, wrappers[value])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, types.FunctionType) and v in wrappers:
                        value[k] = wrappers[v]


class StepProbe:
    """Peak memory, autodiff nodes and node output bytes of one training step per cell."""

    def __init__(self):
        self.armed = False
        self.results: dict[str, dict] = {}
        self._cell = None
        self._nodes = 0
        self._bytes = 0

    def install(self) -> None:
        from sinecast.autodiff import Tensor

        original = Tensor.__dict__["_from_op"].__func__
        probe = self

        def _from_op(cls, data, parents, backward_fn, op):
            out = original(cls, data, parents, backward_fn, op)
            if probe._cell is not None:
                probe._nodes += 1
                probe._bytes += out.data.nbytes
            return out

        Tensor._from_op = classmethod(_from_op)

    def begin(self, cell: str) -> None:
        if not self.armed or self._cell is not None or cell in self.results:
            return
        self._cell, self._nodes, self._bytes = cell, 0, 0
        tracemalloc.start()

    def end(self) -> None:
        if self._cell is None:
            return
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        self.results[self._cell] = {"peak_bytes": peak, "nodes": self._nodes, "tape_bytes": self._bytes}
        self._cell = None


class Clock:
    """Timestamps at the step and evaluation boundaries of the public path."""

    def __init__(self):
        self.reset()
        self.cell = ""
        self.probe: StepProbe | None = None
        self._pending = None
        self._gathers = None

    def reset(self) -> None:
        """Start new record lists; lists handed out earlier keep what they hold."""
        self.unit_starts: list[float] = []
        self.unit_rss_mb: list[float] = []  # ru_maxrss when each unit ends
        self.train_steps: list[tuple[str, float, float, int]] = []  # cell, start, end, windows
        self.eval_batches: list[tuple[str, float, float, int]] = []  # cell, start, end, windows
        self.eval_calls: list[tuple[float, float, int]] = []  # start, end, windows

    def install(self) -> None:
        from sinecast import data, evaluation, experiment, training

        clock = self
        batches, adam_step, train_model = data.batches, training.adam_step, experiment.train_model
        evaluate, gather = evaluation.evaluate, data.WindowDataset.gather

        @functools.wraps(batches)
        def timed_batches(*args, **kwargs):
            it = iter(batches(*args, **kwargs))
            while True:
                started = perf_counter()
                if clock.probe is not None:
                    clock.probe.begin(clock.cell)
                try:
                    item = next(it)
                except StopIteration:
                    return
                clock._pending = (started, len(item[0]))
                yield item

        @functools.wraps(adam_step)
        def timed_adam_step(*args, **kwargs):
            out = adam_step(*args, **kwargs)
            ended = perf_counter()
            if clock.probe is not None:
                clock.probe.end()
            started, windows = clock._pending
            clock._pending = None
            clock.train_steps.append((clock.cell, started, ended, windows))
            return out

        @functools.wraps(train_model)
        def cell_train_model(model, *args, **kwargs):
            clock.cell = cell_label(model.config.variant, model.config.horizon)
            return train_model(model, *args, **kwargs)

        @functools.wraps(evaluate)
        def timed_evaluate(model, *args, **kwargs):
            cell = cell_label(model.config.variant, model.config.horizon)
            clock._gathers = []
            started = perf_counter()
            try:
                result = evaluate(model, *args, **kwargs)
                ended = perf_counter()
                marks = clock._gathers + [(ended, 0)]
            finally:
                clock._gathers = None
            for (t0, n), (t1, _) in zip(marks, marks[1:]):
                clock.eval_batches.append((cell, t0, t1, n))
            clock.eval_calls.append((started, ended, result.n_windows))
            return result

        @functools.wraps(gather)
        def timed_gather(ds, idx):
            if clock._gathers is not None:
                clock._gathers.append((perf_counter(), len(idx)))
            return gather(ds, idx)

        _replace_everywhere({batches: timed_batches, adam_step: timed_adam_step,
                             train_model: cell_train_model, evaluate: timed_evaluate})
        data.WindowDataset.gather = timed_gather


class Tracer:
    """Spans around every public function of the sinecast layers."""

    def __init__(self):
        self.enabled = False
        self.unit = ""
        self.spans: list[list] = []  # [name, start, end, parent index or -1, unit]
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.unit]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, and the two methods on the hot path."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sinecast.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        _replace_everywhere(wrappers)

        from sinecast.data import WindowDataset
        from sinecast.models import Forecaster

        forward = self._wrap(Forecaster.forward, "models.Forecaster.forward")
        for attr in ("forward", "__call__"):
            setattr(Forecaster, attr, forward)
        WindowDataset.gather = self._wrap(WindowDataset.gather, "data.WindowDataset.gather")
