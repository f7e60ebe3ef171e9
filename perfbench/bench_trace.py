"""Per-layer span tracer, wrapped around the simulator from outside.

``install()`` replaces each entry point listed in ``bench_spec.LAYERS``
with a wrapper that opens a span for the call.  Wrappers are passive:
they time and count, and never change arguments, results or exceptions,
so a traced run must reproduce the untraced fingerprints exactly.  Spans
nest on one stack; a span's self time is its duration minus the time of
the spans opened inside it, so the layers' self times add up to the
traced wall time without double counting.  Totals are kept in memory and
read once the run ends.
"""

from __future__ import annotations

import functools
import gc
import importlib
import time
from typing import Callable, Dict, List, Optional

from bench_spec import LAYERS


class LayerTracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Calls per wrapped entry point, keyed "Class.method".
        self.entry_calls: Dict[str, int] = {}
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        self._gc_t0 = 0.0

    def wrap(
        self,
        layer: str,
        entry: str,
        fn: Callable,
        when: Optional[Callable[[object], bool]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a ``layer`` span.  With ``when``, only
        calls whose first argument satisfies it open a span."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        entry_calls = self.entry_calls
        entry_calls[entry] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if when is not None and not when(args[0]):
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[layer] += 1
                entry_calls[entry] += 1

        return span

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection is a span of layer ``gc``."""
        if phase == "start":
            self._stack.append(0.0)
            self._gc_t0 = time.perf_counter()
            return
        dt = time.perf_counter() - self._gc_t0
        self.self_s["gc"] += dt - self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.calls["gc"] += 1


def _overriding_classes(base: type, method: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``method`` itself."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if method in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install() -> LayerTracer:
    """Wrap every entry point in ``LAYERS``; call before any rig is built.

    Raises if an entry point no longer exists, so a renamed method fails
    loudly instead of silently reporting zero calls.
    """
    from repro.host.client import ClientHost

    def server_side(conn) -> bool:
        return not isinstance(conn.transport, ClientHost)

    tracer = LayerTracer()
    specs = [(layer, *spec) for layer, entries in LAYERS.items() for spec in entries]
    # Import every module first, so subclasses defined elsewhere (MqKernel,
    # FlowSteering) are loaded when their bases are walked.
    modules = {name: importlib.import_module(name) for _, name, _, _ in specs}
    for layer, module_name, class_name, methods in specs:
        module = modules[module_name]
        when = server_side if layer == "tcp.receiver" else None
        for method in methods:
            if class_name is None:
                fn = getattr(module, method)
                setattr(module, method, tracer.wrap(layer, method, fn, when))
                continue
            classes = _overriding_classes(getattr(module, class_name), method)
            if not classes:
                raise AttributeError(f"{class_name}.{method} does not exist")
            for cls in classes:
                wrapped = tracer.wrap(layer, f"{cls.__name__}.{method}", vars(cls)[method], when)
                setattr(cls, method, wrapped)
    gc.callbacks.append(tracer.on_gc)
    return tracer
