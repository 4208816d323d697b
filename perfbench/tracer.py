"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions and methods of each layer
of ``repro`` (a package or top-level module under ``src/repro``) with
wrappers that record one span per call: name, start, end, parent span
and simulated-op id.  Generator functions (the ``RdmaQp`` verbs, the
index clients' ``search`` / ``update``) are timed per resumption, since
a simulated op's frames run in many short slices between engine events.
Nothing under ``src/`` changes: the wrappers are installed on the
imported modules and removed again by :meth:`Tracer.uninstall`.

Spans are kept in memory in one flat ``array('q')`` of five fields each
and written out by :meth:`Tracer.dump`.  A layer's self time is the
summed duration of its spans minus the part covered by their child
spans, so self times of all layers add up to the root span's duration.

The ``sim`` layer is traced at two points only, ``Engine.run`` and
``QueueServer.request``: engine internals are called per event, and
``sim`` self time is defined as ``Engine.run`` minus every other
layer's spans.  ``QueueServer.request`` also measures the simulated
wait in the MN NIC queues.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Span record layout in :attr:`Tracer.buf`.
NAME, PARENT, OP, START, END = range(5)
FIELDS = 5

#: Modules traced wholesale, by layer.  ``sim`` is traced only at the
#: points in :meth:`Tracer._install_sim`; ``obs`` additionally at the
#: disabled-bus checks in :meth:`Tracer._install_obs`.
TRACED_PREFIXES = {
    "rdma": "repro.rdma",
    "layout": "repro.layout",
    "core": "repro.core",
    "cluster": "repro.cluster",
    "memory": "repro.memory",
    "baselines": "repro.baselines",
    "hashing": "repro.hashing",
    "workloads": "repro.workloads",
    "sched": "repro.sched",
    "obs": "repro.obs",
    "other": "repro.retry",
}


def traced_layer(module: str) -> Optional[str]:
    """The layer whose functions are wrapped in *module*, if any."""
    for layer, prefix in TRACED_PREFIXES.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _traced_name(attr: str, fn: Callable) -> bool:
    """Public functions, ``__init__``, and private generator functions.

    Private generators are traced because index code hands them to other
    layers as callbacks (``RdwcCombiner.read(key, lambda: self._search(
    key))``); their resumptions would otherwise count as the receiving
    layer's self time.
    """
    if attr == "__init__":
        return True
    if attr.startswith("__"):
        return False
    return not attr.startswith("_") or inspect.isgeneratorfunction(fn)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.buf = array("q")
        #: Open spans; ``-FIELDS`` stands for "no parent".
        self.stack: List[int] = [-FIELDS]
        #: Current simulated-op id (0 = outside any op).
        self.op = [0]
        self._next_op = [0]
        self.names: List[str] = []
        self.layers: List[str] = []
        #: Calls per span name (a generator counts once, not per resumption).
        self.calls: List[int] = []
        #: Simulated seconds requests waited in MN NIC queues.
        self.mn_queue_wait = [0.0]
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _plain(self, fn: Callable, nid: int) -> Callable:
        buf, stack, op, calls = self.buf, self.stack, self.op, self.calls
        extend, push, pop = buf.extend, stack.append, stack.pop
        clock = perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            sid = len(buf)
            extend((nid, stack[-1], op[0], clock(), 0))
            push(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                buf[sid + END] = clock()
                pop()
        return traced

    def _generator(self, fn: Callable, nid: int, new_op: bool) -> Callable:
        buf, stack, op, calls = self.buf, self.stack, self.op, self.calls
        extend, push, pop = buf.extend, stack.append, stack.pop
        clock = perf_counter_ns
        next_op = self._next_op

        def drive(gen, my_op):
            send, throw = gen.send, gen.throw
            value = error = None
            while True:
                outer = op[0]
                op[0] = my_op
                sid = len(buf)
                extend((nid, stack[-1], my_op, clock(), 0))
                push(sid)
                try:
                    target = send(value) if error is None else throw(error)
                except StopIteration as stop:
                    buf[sid + END] = clock()
                    pop()
                    op[0] = outer
                    return stop.value
                except BaseException:
                    buf[sid + END] = clock()
                    pop()
                    op[0] = outer
                    raise
                buf[sid + END] = clock()
                pop()
                op[0] = outer
                error = None
                try:
                    value = yield target
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in: pass it on
                    error, value = exc, None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if new_op:
                next_op[0] += 1
                my_op = next_op[0]
            else:
                my_op = op[0]
            return drive(fn(*args, **kwargs), my_op)
        return traced

    def wrap(self, fn: Callable, name: str, layer: str,
             new_op: bool = False) -> Callable:
        """*fn* recording one span per call (per resumption if a generator)."""
        nid = self._name_id(name, layer)
        if inspect.isgeneratorfunction(fn):
            return self._generator(fn, nid, new_op)
        return self._plain(fn, nid)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every module of every traced layer.

        Families are imported lazily by the registry, so every module of
        a traced package is imported first: a module imported after this
        call would run unwrapped.
        """
        for prefix in TRACED_PREFIXES.values():
            package = importlib.import_module(prefix)
            for info in pkgutil.walk_packages(
                    getattr(package, "__path__", ()), prefix + "."):
                importlib.import_module(info.name)
        modules = {name: mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("repro.") and mod is not None}
        replaced: Dict[int, Callable] = {}
        for modname, module in modules.items():
            layer = traced_layer(modname)
            if layer is None:
                continue
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != modname:
                    continue
                if inspect.isfunction(value) and _traced_name(attr, value):
                    replaced[id(value)] = self.wrap(
                        value, f"{modname}.{attr}", layer,
                        new_op=(modname, attr) == ("repro.sched",
                                                   "execute_op"))
                elif inspect.isclass(value):
                    self._install_class(value, layer)
        # Re-point every module-level reference (``from x import f``).
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        self._install_sim()
        self._install_obs()

    def _install_class(self, cls: type, layer: str) -> None:
        qual = f"{cls.__module__}.{cls.__qualname__}"
        for attr, value in list(vars(cls).items()):
            if isinstance(value, (staticmethod, classmethod)):
                if (inspect.isfunction(value.__func__)
                        and _traced_name(attr, value.__func__)):
                    self._patch(cls, attr, type(value)(self.wrap(
                        value.__func__, f"{qual}.{attr}", layer)))
            elif inspect.isfunction(value) and _traced_name(attr, value):
                self._patch(cls, attr,
                            self.wrap(value, f"{qual}.{attr}", layer))

    def _install_sim(self) -> None:
        from repro.sim.engine import Engine
        from repro.sim.resources import QueueServer

        self._patch(Engine, "run", self.wrap(
            Engine.__dict__["run"], "repro.sim.engine.Engine.run", "sim"))
        request = self.wrap(QueueServer.__dict__["request"],
                            "repro.sim.resources.QueueServer.request", "sim")
        waited = self.mn_queue_wait

        def timed_request(server, service_time, on_start=None):
            if not server.name.startswith("mn"):
                return request(server, service_time, on_start)
            submitted = server.engine._now

            def started(now, service):
                waited[0] += now - submitted
                if on_start is not None:
                    on_start(now, service)
            return request(server, service_time, started)
        self._patch(QueueServer, "request", timed_request)

    def _install_obs(self) -> None:
        from repro.obs.bus import EventBus
        from repro.obs.spans import SpanInstrumentedOps

        active = EventBus.__dict__["active"]
        self._patch(EventBus, "active", property(self.wrap(
            active.fget, "repro.obs.bus.EventBus.active", "obs")))
        for attr in ("_op", "_phase"):
            self._patch(SpanInstrumentedOps, attr, self.wrap(
                SpanInstrumentedOps.__dict__[attr],
                f"repro.obs.spans.SpanInstrumentedOps.{attr}", "obs"))

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self, first: int = 0,
                   last: Optional[int] = None) -> Dict[str, float]:
        """Self seconds per layer over spans ``[first, last)`` (offsets)."""
        buf, layers = self.buf, self.layers
        last = len(buf) if last is None else last
        child: Dict[int, int] = {}
        totals = [0] * len(self.names)
        # Children end before their parents, so a reverse walk over
        # start order sees every child before its parent.
        for sid in range(last - FIELDS, first - FIELDS, -FIELDS):
            duration = buf[sid + END] - buf[sid + START]
            totals[buf[sid + NAME]] += duration - child.pop(sid, 0)
            parent = buf[sid + PARENT]
            if parent >= first:
                child[parent] = child.get(parent, 0) + duration
        out: Dict[str, float] = {}
        for nid, ns in enumerate(totals):
            out[layers[nid]] = out.get(layers[nid], 0.0) + ns / 1e9
        return out

    @property
    def span_count(self) -> int:
        return len(self.buf) // FIELDS

    def dump(self, path: str) -> None:
        """Write spans (``<path>.bin``) and their names (``<path>.json``).

        The binary file is the raw ``array('q')``: five native 64-bit
        integers per span (name id, parent offset, op id, start ns,
        end ns), parent offsets counted in integers, -5 for roots.
        """
        with open(path + ".bin", "wb") as out:
            self.buf.tofile(out)
        with open(path + ".json", "w") as out:
            json.dump({"fields": ["name", "parent", "op", "start_ns",
                                  "end_ns"],
                       "names": self.names, "layers": self.layers,
                       "calls": self.calls}, out)

