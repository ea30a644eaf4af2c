"""Outside-in span tracer for the simulator's layers.

Nothing under ``src/repro`` knows about this module.  For the length of a
traced pass, :meth:`Tracer.installed` replaces attributes of the program's
classes and modules with timing wrappers and puts every original back on
exit:

* ``Simulator.run`` becomes a ``sim.engine`` span, so the engine's self
  time is the event loop minus the callbacks it dispatches.
* ``Simulator.schedule/schedule_at/post/post_at`` swap the callback for a
  dispatcher that runs it inside a span named for the layer of the module
  that defines it.  The heap entry keeps its time and sequence number, so
  event order is unchanged.  The scheduling call itself opens no span: its
  heap push is charged to the layer that scheduled.
* Every public method of the classes in :data:`LAYER_CLASSES` becomes a
  span named for its module's layer (:func:`layer_of`).
* The set-up calls in :data:`SETUP_CALLS` become spans with fixed names,
  whose inclusive times the benchmark reports.

A call into a layer from inside a span of the same layer opens no new
span: its time is already that layer's.  Each span that is opened also
bumps a per-method counter, so counts are taken where the work happens.

Spans are kept in memory as four typed arrays (name, parent, start,
end); :func:`self_times` turns them into per-name self time (duration
minus the time covered by direct children).  Each span costs one Python
call and two clock reads, so a traced pass runs slower than an untraced
one; the benchmark reports the ratio.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Name of the span the benchmark opens around each point.
ROOT = "bench.point"

#: Classes whose public methods get a span named for their module's layer.
LAYER_CLASSES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.sim.link", ("Link",)),
    ("repro.sim.queues", ("DropTailQueue", "REDQueue", "PriorityQueueBank",
                          "PFabricQueue")),
    ("repro.sim.node", ("Switch", "Host")),
    ("repro.transports.base", ("SenderAgent", "ReceiverAgent")),
    ("repro.transports.dctcp", ("DctcpSender", "DctcpAlphaEstimator")),
    ("repro.transports.pfabric", ("PfabricSender",)),
    ("repro.transports.pdq", ("PdqLinkScheduler", "PdqSender")),
    ("repro.core.endhost", ("PaseSender",)),
    ("repro.core.control_plane", ("PaseControlPlane",)),
    ("repro.core.arbitration", ("LinkArbitrator", "VirtualLinkArbitrator")),
    ("repro.faults.injector", ("FaultInjector",)),
    ("repro.faults.queues", ("LossyQueue",)),
)

#: Set-up calls: (module, class or None for a module global, attribute,
#: span name).  A class of None with attribute "*setup_network" means every
#: binding class in the module that defines ``setup_network``.
SETUP_CALLS: Tuple[Tuple[str, object, str, str], ...] = (
    ("repro.harness.experiment", None, "make_binding", "harness.build"),
    ("repro.sim.topology", "StarTopology", "__init__", "harness.build"),
    ("repro.sim.topology", "TreeTopology", "__init__", "harness.build"),
    ("repro.harness.protocols", "*", "setup_network", "harness.build"),
    ("repro.sim.network", "Network", "build_routes", "sim.network.routes"),
    ("repro.harness.experiment", None, "generate_workload",
     "workloads.generate"),
    ("repro.metrics.stats", "FlowStats", "from_flows", "metrics.collect"),
    ("repro.metrics.overhead", "NetworkCounters", "from_network",
     "metrics.collect"),
)

_SCHEDULING_API = ("schedule", "schedule_at", "post", "post_at")


def layer_of(module: str) -> str:
    """The layer a module belongs to: ``repro.sim.link`` -> ``sim.link``,
    ``repro.transports.pdq`` -> ``transports.pdq``, any other
    ``repro.transports.*`` -> ``transports``, ``repro.core.x`` ->
    ``core.x``, other packages -> the package name."""
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    package = parts[1]
    if package in ("sim", "core") and len(parts) > 2:
        return f"{package}.{parts[2]}"
    if package == "transports" and parts[2:3] == ["pdq"]:
        return "transports.pdq"
    return package


def self_times(spans: np.ndarray, num_names: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-name self and outermost-inclusive time of an ``(n, 4)`` array
    of ``(name, parent, start, end)`` rows (parent -1 for a root).

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a tree sum to its root's duration.
    Inclusive time counts a span only when its parent has another name.
    """
    names = spans[:, 0].astype(np.int64)
    parents = spans[:, 1].astype(np.int64)
    durations = spans[:, 3] - spans[:, 2]
    has_parent = parents >= 0
    covered = np.bincount(parents[has_parent], weights=durations[has_parent],
                          minlength=len(spans))
    own = np.bincount(names, weights=durations - covered, minlength=num_names)
    outer = ~has_parent
    outer[has_parent] = names[parents[has_parent]] != names[has_parent]
    inclusive = np.bincount(names[outer], weights=durations[outer],
                            minlength=num_names)
    return own, inclusive


class Tracer:
    """Span store, counters and the attribute patches that feed them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("l")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: List[int] = []
        self.count_keys: List[str] = []
        self.counts: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._module_ids: Dict[str, int] = {}
        self._root_id = self.name_id(ROOT)

    # -- names and counters ----------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _counter(self, key: str) -> int:
        self.count_keys.append(key)
        self.counts.append(0)
        return len(self.counts) - 1

    def count_dict(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for key, value in zip(self.count_keys, self.counts):
            out[key] = out.get(key, 0) + value
        return out

    # -- spans -----------------------------------------------------------
    def clear_spans(self) -> None:
        """Forget the spans recorded so far; names and counts stay."""
        for column in (self._span_name, self._span_parent,
                       self._span_start, self._span_end):
            del column[:]

    @contextlib.contextmanager
    def point(self) -> Iterator[None]:
        """Open the root span of one point; it must not be nested."""
        if self._stack:
            raise RuntimeError("a point span is already open")
        i = len(self._span_name)
        self._span_name.append(self._root_id)
        self._span_parent.append(-1)
        self._span_end.append(0.0)
        self._stack.append(i)
        self._span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self._span_end[i] = time.perf_counter()
            self._stack.pop()

    def span_array(self) -> np.ndarray:
        """The recorded spans as ``(name, parent, start, end)`` rows."""
        return np.column_stack([np.asarray(column, dtype=np.float64)
                                for column in (self._span_name,
                                               self._span_parent,
                                               self._span_start,
                                               self._span_end)])

    def _wrap(self, fn, name: str, key: str):
        """``fn`` run inside a span called ``name``, counted under ``key``.
        A call from a span of the same name opens none and is not counted."""
        name_id, counter = self.name_id(name), self._counter(key)
        names, stack, counts = self._span_name, self._stack, self.counts
        end = self._span_end
        add_name, add_parent = names.append, self._span_parent.append
        add_start, add_end = self._span_start.append, end.append
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                parent = stack[-1]
            except IndexError:  # called outside any point
                return fn(*args, **kwargs)
            if names[parent] == name_id:
                return fn(*args, **kwargs)
            counts[counter] += 1
            i = len(names)
            add_name(name_id)
            add_parent(parent)
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                pop()

        traced.__perfbench_traced__ = True
        return traced

    def _layer_id(self, fn) -> int:
        module = getattr(fn, "__module__", None) or ""
        nid = self._module_ids.get(module)
        if nid is None:
            nid = self._module_ids[module] = self.name_id(layer_of(module))
        return nid

    def _make_dispatch(self):
        """The callback the engine fires in place of the scheduled one:
        ``dispatch(name_id, fn, *args)`` runs ``fn(*args)`` in a span.  It
        only ever runs inside ``Simulator.run``'s span."""
        names, stack, end = self._span_name, self._stack, self._span_end
        add_name, add_parent = names.append, self._span_parent.append
        add_start, add_end = self._span_start.append, end.append
        push, pop, clock = stack.append, stack.pop, time.perf_counter

        def dispatch(name_id, fn, *args):
            i = len(names)
            add_name(name_id)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                fn(*args)
            finally:
                end[i] = clock()
                pop()

        return dispatch

    def _wrap_scheduler(self, original, key: str):
        """Count one scheduling call and swap its callback for the
        dispatcher, unless it is a traced method (which opens its own
        span)."""
        counter = self._counter(key)
        counts, dispatch, layer_id = self.counts, self._dispatch, self._layer_id

        @functools.wraps(original)
        def traced(sim, when, fn, *args):
            counts[counter] += 1
            if getattr(fn, "__perfbench_traced__", False):
                return original(sim, when, fn, *args)
            return original(sim, when, dispatch, layer_id(fn), fn, *args)

        return traced

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        key = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name, key)))
        else:
            self._patch(cls, attr, self._wrap(raw, name, key))

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the program for tracing; restore every attribute on exit."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._dispatch = self._make_dispatch()
        try:
            from repro.sim.engine import Simulator

            self._patch_method(Simulator, "run", "sim.engine")
            for attr in _SCHEDULING_API:
                self._patch(Simulator, attr, self._wrap_scheduler(
                    Simulator.__dict__[attr], f"Simulator.{attr}"))
            for module_name, class_names in LAYER_CLASSES:
                module = importlib.import_module(module_name)
                layer = layer_of(module_name)
                for class_name in class_names:
                    cls = getattr(module, class_name)
                    for attr, value in list(vars(cls).items()):
                        if inspect.isfunction(value) and not attr.startswith("_"):
                            self._patch_method(cls, attr, layer)
            for module_name, class_name, attr, name in SETUP_CALLS:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._patch(module, attr, self._wrap(
                        module.__dict__[attr], name, attr))
                elif class_name == "*":
                    for cls in vars(module).values():
                        if (inspect.isclass(cls) and cls.__module__ == module_name
                                and attr in cls.__dict__):
                            self._patch_method(cls, attr, name)
                else:
                    self._patch_method(getattr(module, class_name), attr, name)
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.__dict__.pop("_dispatch", None)

    @property
    def depth(self) -> int:
        """Spans open right now; 0 between points."""
        return len(self._stack)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, original)`` for every live patch."""
        return list(self._patches)
