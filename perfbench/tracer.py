"""Outside-in tracing: wrap the public calls of each ``repro`` layer.

Nothing under ``src/`` is edited.  A :class:`Patcher` swaps a traced
wrapper in wherever a name is looked up — on the class for methods, and
in every loaded module that holds a function by value (the service
daemon imports ``job_key`` by value, for example) — and puts the
originals back on :meth:`Patcher.undo`.

A :class:`Tracer` keeps spans in memory, one buffer per thread: name,
start, end and parent (the span open on the same thread when it
started).  Spans of one served request carry its fingerprint as a
request id; children inherit it.  :meth:`Tracer.collect` closes a
round: it derives each span's self time (duration minus its child
spans) and sums self time and calls per span name.  :meth:`Tracer.write`
saves every span of the run to one compressed ``.npz`` file.

:data:`LAYERS` is the registry of traced calls: each entry names its
span, its per-layer self-time metric and the calls that make it up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layer:
    """One traced layer: its span name, metric and the calls that make it up.

    Which end-to-end metric each layer should move, on which workload,
    is tabled in ``perfbench/README.md``.
    """

    #: Span name.
    name: str
    #: ``module:Class.method``, ``module:function``,
    #: ``module:*.method`` (every class of the module defining it) or
    #: ``module:@backends.method`` (each registered solver backend,
    #: span name suffixed ``@<backend>``).  Empty for a layer whose
    #: spans the benchmark records itself.
    targets: tuple[str, ...]
    #: Per-layer metric: the layer's self time per round.
    metric: str = ""

    def __post_init__(self) -> None:
        if not self.metric:
            object.__setattr__(self, "metric", f"{self.name}_s")

    def self_time_metrics(self, backends) -> dict[str, tuple[str, ...]]:
        """``{metric: span names}``; a per-backend layer also gets one
        ``<module>.<backend>.<what>_s`` metric per backend."""
        if not any(":@backends." in target for target in self.targets):
            return {self.metric: (self.name,)}
        module, what = self.name.split(".", 1)
        spans = {backend: f"{self.name}@{backend}" for backend in backends}
        return {self.metric: tuple(spans.values()),
                **{f"{module}.{backend}.{what}_s": (span,)
                   for backend, span in spans.items()}}


LAYERS: tuple[Layer, ...] = (
    Layer("devices.chord", (
        "repro.devices.base:TwoTerminalDevice.chord_conductance_many",
        "repro.devices.base:TwoTerminalDevice.chord_conductance_derivative_many",
        "repro.devices.mosfet:MosfetModel.chord_conductance_many",
        "repro.devices.mosfet:mosfet_chord_stack",
        "repro.swec.conductance:SwecLinearization.device_conductances",
        "repro.swec.conductance:SwecLinearization.mosfet_conductances",
    )),
    Layer("swec.linearize", (
        "repro.swec.conductance:SwecLinearization.device_voltages",
        "repro.swec.conductance:SwecLinearization.mosfet_voltages",
    )),
    Layer("swec.step_control", (
        "repro.swec.timestep:EnsembleStepController.next_step_from_diagonal",
    )),
    Layer("swec.march", (
        "repro.core.stepper:LinearStepper.run",
        "repro.core.stepper:LinearStepper.run_grid",
    ), metric="swec.march_self_s"),
    Layer("swec.dc", ("repro.swec.dc:SwecDC.sweep",)),
    Layer("core.stamp", ("repro.core.backends:@backends.stamp",)),
    Layer("core.solve", (
        "repro.core.backends:@backends.solve_transient",
        "repro.core.backends:@backends.solve_conductance",
    )),
    Layer("core.matvec", (
        "repro.core.backends:@backends.c_matvec",
        "repro.core.backends:@backends.g_matvec",
        "repro.core.backends:@backends.g_diagonal",
    )),
    Layer("circuit.source", ("repro.circuit.sources:*.value",)),
    Layer("analysis.record", (
        "repro.analysis.waveforms:EnsembleTransientResult.append",)),
    Layer("pss.shoot", ("repro.pss.engine:ShootingPSS.run",),
          metric="pss.shoot_self_s"),
    Layer("ac.tangent", ("repro.ac.linearize:tangent_conductances",)),
    Layer("stochastic.vr", ("repro.stochastic.vr:run_circuit_ensemble_vr",),
          metric="stochastic.vr_self_s"),
    Layer("stochastic.normals", (
        "repro.stochastic.vr:path_normals",
        "repro.stochastic.vr:antithetic_normals",
    )),
    Layer("service.hash", ("repro.service.hashing:job_key",)),
    Layer("service.store_read", ("repro.service.store:ResultStore.get",)),
    Layer("service.store_write", ("repro.service.store:ResultStore.put",)),
    Layer("circuit.parse", ("repro.circuit.parser:parse_netlist",)),
    # Client-observed ``queued`` -> ``running`` on mc_served.
    Layer("service.queue_wait", ()),
)

#: Request-id extractors: the fingerprint a service span belongs to.
_REQUESTS = {
    "service.hash": lambda args, out: out,
    "service.store_read": lambda args, out: args[1],
    "service.store_write": lambda args, out: args[1],
}


class Patcher:
    """Replace names where they are looked up; undo in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, make) -> None:
        """Set ``cls.attr = make(current)``; inherited methods included."""
        own = cls.__dict__.get(attr)
        setattr(cls, attr, make(getattr(cls, attr)))
        self._undo.append((cls, attr, own))

    def function(self, fn, make) -> None:
        """Rebind every module-level reference to *fn* in ``sys.modules``."""
        replacement = make(fn)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                if value is fn:
                    namespace[name] = replacement
                    self._undo.append((module, name, fn))

    def undo(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            if isinstance(holder, type):
                if original is None:
                    delattr(holder, attr)
                else:
                    setattr(holder, attr, original)
            else:
                holder.__dict__[attr] = original


def _module(name: str):
    # import_module returns the sys.modules entry, so a package
    # attribute shadowing a submodule (repro.ac.linearize is also a
    # function name in repro.ac) does not get in the way.
    return importlib.import_module(name)


def self_time_metrics() -> dict[str, tuple[str, ...]]:
    """``{per-layer metric: span names}`` for every layer in :data:`LAYERS`."""
    from repro.core.backends import BACKENDS

    metrics: dict[str, tuple[str, ...]] = {}
    for layer in LAYERS:
        metrics.update(layer.self_time_metrics(sorted(BACKENDS)))
    return metrics


def patch_layers(patcher: Patcher, make_for) -> None:
    """Wrap every call in :data:`LAYERS`; ``make_for(span_name, layer)``
    returns the wrapper factory for that span."""
    for layer in LAYERS:
        for target in layer.targets:
            module_name, _, path = target.partition(":")
            module = _module(module_name)
            owner, _, attr = path.rpartition(".")
            if owner == "@backends":
                for backend_name, cls in sorted(module.BACKENDS.items()):
                    span = f"{layer.name}@{backend_name}"
                    patcher.method(cls, attr, make_for(span, layer))
            elif owner == "*":
                for cls in vars(module).values():
                    if (isinstance(cls, type) and cls.__module__ == module.__name__
                            and attr in cls.__dict__):
                        patcher.method(cls, attr, make_for(layer.name, layer))
            elif owner:
                patcher.method(getattr(module, owner), attr,
                               make_for(layer.name, layer))
            else:
                patcher.function(getattr(module, attr),
                                 make_for(layer.name, layer))


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.requests: dict[int, str] = {}
        self.stack = [-1]
        self.closed = 0


class Tracer:
    """In-memory span recorder with per-thread buffers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    def wrapper(self, span: str, layer: Layer | None = None):
        """A factory ``fn -> traced fn`` recording one span per call."""
        name_id = self.name_id(span)
        request = _REQUESTS.get(layer.name) if layer is not None else None
        local = self._local
        new_buffer = self._buffer
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                try:
                    buffer = local.buffer
                except AttributeError:
                    buffer = new_buffer()
                stack = buffer.stack
                index = len(buffer.starts)
                buffer.names.append(name_id)
                buffer.parents.append(stack[-1])
                buffer.ends.append(0)
                stack.append(index)
                buffer.starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    buffer.ends[index] = clock()
                    stack.pop()
                if request is not None:
                    buffer.requests[index] = request(args, out)
                return out

            return traced

        return make

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, self.name_id(name))

    def record(self, name: str, start_ns: int, end_ns: int,
               request: str | None = None) -> None:
        """Add an interval measured elsewhere as a child of the open span."""
        buffer = self._buffer()
        index = len(buffer.starts)
        buffer.names.append(self.name_id(name))
        buffer.parents.append(buffer.stack[-1])
        buffer.starts.append(start_ns)
        buffer.ends.append(end_ns)
        if request is not None:
            buffer.requests[index] = request

    def collect(self, uncounted: str) -> tuple[Counter, Counter, float]:
        """Self seconds and call counts per span name since the last call,
        and the seconds that spans other than *uncounted* cover on any
        thread (the union of their intervals).

        Call between rounds, when no traced call is open on any thread.
        """
        seconds: Counter = Counter()
        calls: Counter = Counter()
        intervals = []
        skip = self.name_id(uncounted)
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            lo, hi = buffer.closed, len(buffer.starts)
            if hi == lo:
                continue
            names = np.frombuffer(buffer.names, dtype=np.int32)[lo:hi]
            starts = np.frombuffer(buffer.starts, dtype=np.int64)[lo:hi]
            ends = np.frombuffer(buffer.ends, dtype=np.int64)[lo:hi]
            counted = names != skip
            intervals.append((starts[counted], ends[counted]))
            parents = np.frombuffer(buffer.parents, dtype=np.int32)[lo:hi]
            duration = (ends - starts).astype(float)
            child = np.zeros(hi - lo)
            inside = parents >= lo
            np.add.at(child, parents[inside] - lo, duration[inside])
            own = (duration - child) * 1e-9
            per_name = np.bincount(names, weights=own, minlength=len(self.names))
            counts = np.bincount(names, minlength=len(self.names))
            for name_id in np.flatnonzero(counts):
                seconds[self.names[name_id]] += float(per_name[name_id])
                calls[self.names[name_id]] += int(counts[name_id])
            buffer.closed = hi
        return seconds, calls, _union_seconds(intervals)

    def write(self, path) -> None:
        """Save every span of the run: one row per span, ids into
        ``names``/``requests``; ``parent`` indexes the same arrays."""
        rows = {key: [] for key in ("thread", "name", "start_ns", "end_ns",
                                    "parent", "request")}
        requests: list[str] = []
        request_ids: dict[str, int] = {}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for thread, buffer in enumerate(buffers):
            n = len(buffer.starts)
            parents = np.frombuffer(buffer.parents, dtype=np.int32).astype(np.int64)
            request = np.full(n, -1, dtype=np.int64)
            for index, key in buffer.requests.items():
                if key not in request_ids:
                    request_ids[key] = len(requests)
                    requests.append(str(key))
                request[index] = request_ids[key]
            if buffer.requests:
                # Children inherit the request of their parent; parents
                # always precede their children in a buffer.
                for index in range(n):
                    if request[index] < 0 and parents[index] >= 0:
                        request[index] = request[parents[index]]
            rows["thread"].append(np.full(n, thread, dtype=np.int32))
            rows["name"].append(np.frombuffer(buffer.names, dtype=np.int32))
            rows["start_ns"].append(np.frombuffer(buffer.starts, dtype=np.int64))
            rows["end_ns"].append(np.frombuffer(buffer.ends, dtype=np.int64))
            rows["parent"].append(np.where(parents >= 0, parents + offset, -1))
            rows["request"].append(request)
            offset += n
        arrays = {key: np.concatenate(parts) if parts else np.zeros(0)
                  for key, parts in rows.items()}
        np.savez_compressed(path, names=np.array(self.names),
                            requests=np.array(requests), **arrays)


def _union_seconds(intervals) -> float:
    """Length of the union of ``(starts, ends)`` interval arrays."""
    if not intervals:
        return 0.0
    starts = np.concatenate([lo for lo, _ in intervals])
    ends = np.concatenate([hi for _, hi in intervals])
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    before = np.concatenate(([starts[0]], reach[:-1]))
    # Each interval adds what it reaches beyond every earlier one.
    return float(np.maximum(reach - np.maximum(starts, before), 0).sum()) * 1e-9


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self):
        buffer = self._buffer = self._tracer._buffer()
        self._index = len(buffer.starts)
        buffer.names.append(self._name_id)
        buffer.parents.append(buffer.stack[-1])
        buffer.ends.append(0)
        buffer.stack.append(self._index)
        buffer.starts.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc) -> None:
        self._buffer.ends[self._index] = time.perf_counter_ns()
        self._buffer.stack.pop()

    def set_request(self, key: str) -> None:
        self._buffer.requests[self._index] = key
