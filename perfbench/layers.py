"""Per-layer tracing of the server process from outside ``repro``.

:func:`install` wraps the public entry points of each serving layer --
wire codec, pump, batcher, dispatcher, simulated runtime, evaluator,
native kernels, sessions -- so every call records its wall-clock busy
time.  A per-thread call stack turns busy time into *self* time: a
layer's self time is its busy time minus the busy time of the wrapped
calls made inside it.  Calls that carry a request id keep it.

Spans stay in memory and are written once, by :meth:`LayerTrace.write`,
when the server process exits.  High-frequency layers (native kernels,
``simulate_kernel``) keep totals only; every other layer also keeps one
span per call.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _no_rid(args, result) -> str:
    return ""


class LayerTrace:
    """Call counts, busy and self time per layer, plus per-call spans."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: One ``{layer: [calls, busy_s, self_s]}`` dict per thread.
        self._per_thread: List[Dict[str, list]] = []
        #: (layer, start_s, busy_s, self_s, request_id, n) per call.
        self.spans: List[tuple] = []
        #: Totals and clock when the measured phases began (see :meth:`mark`).
        self.mark_totals: Dict[str, list] = {}
        self.mark_s = 0.0

    # -- recording ---------------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.totals = {}
            with self._lock:
                self._per_thread.append(tls.totals)
        return tls

    def _enter(self) -> float:
        self._state().stack.append(0.0)
        return perf_counter()

    def _exit(self, layer: str, t0: float, keep: bool, rid: str = "",
              n: int = 0) -> None:
        busy = perf_counter() - t0
        tls = self._tls
        child = tls.stack.pop()
        if tls.stack:
            tls.stack[-1] += busy
        own = busy - child
        tot = tls.totals.get(layer)
        if tot is None:
            tot = tls.totals[layer] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += busy
        tot[2] += own
        if keep:
            self.spans.append((layer, t0, busy, own, rid, n))

    # -- wrappers ----------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, *, keep: bool = True,
             rid: Callable = _no_rid,
             n: Optional[Callable] = None) -> Callable:
        """``fn`` timed as one call of ``layer``.

        ``rid(args, result)`` names the request the call served and
        ``n(args, result)`` gives a count (frame bytes, batches formed)
        kept with the span.  A call that raises keeps neither.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(layer, t0, False)
                raise
            if keep:
                self._exit(layer, t0, True, rid(args, result),
                           n(args, result) if n is not None else 0)
            else:
                self._exit(layer, t0, False)
            return result

        return traced

    def wrap_generator(self, layer: str, fn: Callable) -> Callable:
        """A generator function whose busy time is the time spent in ``next``."""
        trace = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                t0 = trace._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    trace._exit(layer, t0, False)
                    return
                except BaseException:
                    trace._exit(layer, t0, False)
                    raise
                trace._exit(layer, t0, False)
                yield item

        return traced

    def patch_method(self, cls, name: str, layer: str, **kw) -> None:
        setattr(cls, name, self.wrap(layer, getattr(cls, name), **kw))

    def patch_function(self, original: Callable, layer: str, **kw) -> None:
        """Rebind every ``repro`` module attribute that is ``original``.

        Catches ``from module import fn`` bindings as well as the
        defining module's own name.
        """
        traced = self.wrap(layer, original, **kw)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)

    # -- output ------------------------------------------------------------

    def totals(self) -> Dict[str, list]:
        out: Dict[str, list] = {}
        with self._lock:
            per_thread = list(self._per_thread)
        for totals in per_thread:
            for layer, (calls, busy, own) in list(totals.items()):
                acc = out.setdefault(layer, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += busy
                acc[2] += own
        return out

    def mark(self) -> None:
        """Remember the totals so far: what follows is the measured part."""
        self.mark_totals = self.totals()
        self.mark_s = perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"totals": self.totals(), "mark_totals": self.mark_totals,
                       "mark_s": self.mark_s, "spans": self.spans}, fh)


#: Evaluator operations the served ops call.
EVALUATOR_OPS = ("multiply", "relinearize", "rescale", "add", "rotate",
                 "multiply_plain")


def install(trace: LayerTrace) -> None:
    """Wrap every traced layer's entry points (call once, before serving)."""
    from repro.core.evaluator import Evaluator
    from repro.native import glue
    from repro.runtime import pipeline, queue
    from repro.server import batcher, dispatcher, pump, request, sessions

    trace.patch_function(request.decode_request, "request.decode",
                         rid=lambda a, r: r.request_id,
                         n=lambda a, r: len(a[0]))
    trace.patch_function(request.encode_response, "request.encode",
                         rid=lambda a, r: a[0].request_id,
                         n=lambda a, r: len(r))
    trace.patch_method(pump.BatchPump, "tick", "pump.tick", n=_result_len)
    trace.patch_method(dispatcher.HEServer, "pump_once", "pump.pump_once",
                       n=_result_len)
    trace.patch_method(batcher.RequestBatcher, "form_batches",
                       "batcher.form", n=_result_len)
    trace.patch_method(dispatcher.BatchDispatcher, "dispatch",
                       "dispatcher.dispatch", n=_result_len)
    trace.patch_method(dispatcher.ServerSession, "execute_plan",
                       "dispatcher.plan",
                       rid=lambda a, r: a[1].request_id)
    trace.patch_method(sessions.SessionManager, "handshake",
                       "sessions.handshake")
    pipeline.AsyncPipeline.run_stream = trace.wrap_generator(
        "runtime.run_stream", pipeline.AsyncPipeline.run_stream)
    # Only the simulator calls the runtime queue makes on the serving path.
    queue.simulate_kernel = trace.wrap("xesim.simulate_kernel",
                                       queue.simulate_kernel, keep=False)
    for op in EVALUATOR_OPS:
        trace.patch_method(Evaluator, op, f"evaluator.{op}")
    for name in _GLUE_KERNELS:
        trace.patch_function(getattr(glue, name), "native.kernel", keep=False)


def _result_len(args, result) -> int:
    return len(result)


#: The compiled-kernel entry points of ``repro.native.glue``.
_GLUE_KERNELS = frozenset({
    "ntt_forward", "ntt_inverse", "ks_decompose", "add_mod", "sub_mod",
    "neg_mod", "conditional_sub", "barrett_reduce_64", "barrett_reduce_128",
    "mul_mod", "mad_mod", "dyadic_product", "dyadic_square", "mul_operand",
    "lazy_diff_mul_operand", "scaler_tail",
})
