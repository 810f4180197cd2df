"""Outside-in span tracing: timing wrappers around public entry points.

The program is not edited.  :class:`Tracer` replaces chosen functions and
methods with wrappers that record a span (id, name, start, end, parent)
per call, count calls per name, and fold each span's *self* time — its
duration minus the part its child spans cover — into the layer it
belongs to.  Generator functions (simulated processes, actor handlers)
are wrapped so that every resume is its own span: a process's body runs
in slices between yields, and only the slices are host time.

A function imported by name into other modules is patched wherever a
module holds it (``from .planning import plan_balance`` makes
``gem.plan_balance`` a second lookup site), so callers that bound the
name at import time are traced too.  :meth:`Tracer.uninstall` restores
every original object.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory for the trace file; later spans are still counted
#: and timed, only not stored one by one.
SPAN_CAP = 200_000


class Tracer:
    """Spans, counts and per-layer self time for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: stored spans: (id, name, start, end, parent id or -1)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: spans opened so far, stored or not
        self.span_count = 0
        #: summed duration of spans with no parent (the covered host time)
        self.covered_s = 0.0
        #: name -> lookup sites patched, for the non-vacuity check
        self.sites: Dict[str, List[str]] = defaultdict(list)
        # name -> [calls, summed duration, summed self time]
        self._names: Dict[str, list] = {}
        # layer -> [summed self time]
        self._layers: Dict[str, list] = {}
        # open frames: [id, parent id, start, child seconds]
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- accumulators ----------------------------------------------------

    def counter(self, name: str) -> list:
        """``[calls, total_s, self_s]`` for ``name``, created on demand."""
        acc = self._names.get(name)
        if acc is None:
            acc = self._names[name] = [0, 0.0, 0.0]
        return acc

    def _layer(self, layer: str) -> list:
        acc = self._layers.get(layer)
        if acc is None:
            acc = self._layers[layer] = [0.0]
        return acc

    def calls(self, name: str) -> int:
        return self._names.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self._names.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self._names.get(name, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return self._layers.get(layer, (0.0,))[0]

    # -- span accounting ------------------------------------------------

    def enter(self) -> list:
        stack = self._stack
        sid = self.span_count
        self.span_count = sid + 1
        frame = [sid, stack[-1][0] if stack else -1, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: list, name: str, acc: list, layer: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[2]
        own = duration - frame[3]
        acc[1] += duration
        acc[2] += own
        layer[0] += own
        if stack:
            stack[-1][3] += duration
        else:
            self.covered_s += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, frame[2], end, frame[1]))

    def span(self, name: str, layer: str) -> "_SpanContext":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name, self.counter(name),
                            self._layer(layer))

    # -- wrapper factories ----------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str,
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable:
        """A span per call; generator functions get a span per resume.

        ``on_result`` sees each plain call's return value.
        """
        acc = self.counter(name)
        lacc = self._layer(layer)
        if inspect.isgeneratorfunction(fn):
            drive = self._drive

            def traced_gen(*args, **kwargs):
                acc[0] += 1
                return drive(fn(*args, **kwargs), name, acc, lacc)
            traced_gen.__wrapped__ = fn
            return traced_gen
        enter = self.enter
        close = self.exit

        def traced(*args, **kwargs):
            acc[0] += 1
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, name, acc, lacc)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _drive(self, gen, name: str, acc: list, lacc: list):
        """Re-yield ``gen``'s waitables, timing each resume as a span."""
        enter = self.enter
        close = self.exit
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            frame = enter()
            try:
                if error is not None:
                    pending, error = error, None
                    target = gen.throw(pending)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                close(frame, name, acc, lacc)
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # re-raised inside ``gen``
                error, value = exc, None

    def count(self, fn: Callable, name: str) -> Callable:
        """Count calls only — for entry points too hot for a span."""
        acc = self.counter(name)

        def counted(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def patch_method(self, cls: type, attr: str, name: str, layer: str,
                     count_only: bool = False,
                     on_result: Optional[Callable[[Any], None]] = None
                     ) -> None:
        raw = cls.__dict__[attr]
        wrapper = (self.count(raw, name) if count_only
                   else self.wrap(raw, name, layer, on_result))
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, raw))
        self.sites[name].append(f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def patch_function(self, module: Any, attr: str, name: str,
                       layer: str,
                       on_result: Optional[Callable[[Any], None]] = None
                       ) -> None:
        """Wrap ``module.attr`` at every module that holds it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, layer, on_result)
        for mod_name, mod in list(sys.modules.items()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))
                self.sites[name].append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        return {"calls": {n: a[0] for n, a in self._names.items()},
                "total_s": {n: a[1] for n, a in self._names.items()},
                "self_s": {n: a[2] for n, a in self._names.items()},
                "layer_self_s": {n: a[0] for n, a in self._layers.items()},
                "covered_s": self.covered_s, "spans": self.span_count}

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the summary, then every stored span, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"summary": dict(extra, **self.summary())})
                      + "\n")
            for sid, name, start, end, parent in self.spans:
                out.write(json.dumps({"id": sid, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "acc", "layer", "frame")

    def __init__(self, tracer: Tracer, name: str, acc: list,
                 layer: list) -> None:
        self.tracer = tracer
        self.name = name
        self.acc = acc
        self.layer = layer
        self.frame = None

    def __enter__(self) -> "_SpanContext":
        self.acc[0] += 1
        self.frame = self.tracer.enter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.exit(self.frame, self.name, self.acc, self.layer)
