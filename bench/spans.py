"""Layer-boundary spans, recorded from the benchmark's own files.

A :class:`Recorder` *shadows* public callables of the program -- a class
attribute for methods, every ``repro.*`` module binding for module-level
functions -- with a timing wrapper, and puts the originals back in
:meth:`Recorder.restore`.  Nothing under ``src/`` knows it is traced.

Each span is ``(name, layer, start, end, parent, thread)``.  The parent
is the enclosing wrapped call on the same thread.  A layer's *self time*
is measured while the span runs: its duration minus the time wrapped
calls spent inside it, so the self times of one thread never overlap and
add up to at most that thread's wall time.  Coroutines are timed slice
by slice (from each resume to the next suspension), so time spent
awaiting a socket is nobody's self time.

Work that a layer hands onwards as a callback (the continuation-passing
``*_async`` twins, ``EventKernel.post``) runs later, under whoever fires
it.  Boundaries shadowed with ``callbacks=True`` wrap their callable
arguments so that this work opens a ``<caller layer>.continuation`` span
and is charged to the layer that passed the callback, not to the kernel
or transport that happened to invoke it.

Totals per (thread, name) cover every span; the raw spans kept for the
trace file are bounded (``keep`` per thread) so that a run with millions
of query-algebra calls neither exhausts memory nor spends its time
writing JSON.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
import types
from array import array
from typing import Callable, Iterable, Optional

_clock = time.perf_counter


class _ThreadState:
    """Per-thread recording state (no locks: one writer each)."""

    __slots__ = (
        "index", "name", "stack", "totals", "room",
        "name_ids", "parents", "starts", "ends",
    )

    def __init__(self, index: int, name: str, room: int) -> None:
        self.index = index
        self.name = name
        #: Frames of the spans executing right now: [raw index, layer,
        #: seconds spent in wrapped calls below].
        self.stack: list[list] = []
        #: name id -> [calls, self seconds, total seconds].
        self.totals: dict[int, list] = {}
        self.room = room
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")


class Recorder:
    """Shadows callables, records spans while ``on``, restores them."""

    def __init__(self, keep: int = 200_000) -> None:
        #: Spans are recorded only while this is true; a shadowed
        #: callable otherwise costs one attribute test.
        self.on = False
        self.keep = keep
        #: (name, layer) per name id.
        self.names: list[tuple[str, str]] = []
        self._name_ids: dict[tuple[str, str], int] = {}
        self._shadowed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()

    # -- shadowing -----------------------------------------------------------

    def shadow_method(
        self, cls: type, attr: str, layer: str, callbacks: bool = False
    ) -> None:
        """Shadow ``attr`` on ``cls`` and on every subclass overriding it."""
        owners = [cls]
        seen = {cls}
        found = False
        while owners:
            owner = owners.pop()
            for sub in owner.__subclasses__():
                if sub not in seen:
                    seen.add(sub)
                    owners.append(sub)
            raw = owner.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            found = True
            name = f"{owner.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer, callbacks))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer, callbacks))
            else:
                new = self._wrap(raw, name, layer, callbacks)
            self._shadowed.append((owner, attr, raw))
            setattr(owner, attr, new)
        if not found:
            raise AttributeError(f"{cls.__name__} defines no {attr!r}")

    def shadow_function(self, module: types.ModuleType, attr: str, layer: str) -> None:
        """Shadow a module-level function wherever ``repro`` bound it.

        ``from repro.rpc.codec import decode_frame`` copies the binding
        into the importing module, so the defining module alone is not
        enough: every ``repro.*`` module global that *is* the function is
        replaced (and restored).
        """
        original = getattr(module, attr)
        new = self._wrap(original, attr, layer, False)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._shadowed.append((candidate, key, original))
                    setattr(candidate, key, new)

    def restore(self) -> None:
        """Put back every attribute shadowed, newest first."""
        self.on = False
        while self._shadowed:
            owner, attr, raw = self._shadowed.pop()
            setattr(owner, attr, raw)

    @property
    def shadowed(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of everything currently shadowed."""
        return list(self._shadowed)

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._states_lock:
                state = _ThreadState(
                    len(self._states), threading.current_thread().name, self.keep
                )
                self._states.append(state)
            self._local.state = state
        return state

    def _open(self, state: _ThreadState, name_id: int, layer: str) -> list:
        """Push a frame for a span starting now; returns the frame."""
        stack = state.stack
        if state.room > 0:
            state.room -= 1
            raw = len(state.starts)
            state.name_ids.append(name_id)
            state.parents.append(stack[-1][0] if stack else -1)
            state.starts.append(0.0)
            state.ends.append(0.0)
        else:
            raw = -1
        frame = [raw, layer, 0.0]
        stack.append(frame)
        return frame

    def _wrap(self, fn: Callable, name: str, layer: str, callbacks: bool) -> Callable:
        if inspect.iscoroutinefunction(fn):
            shadow = self._wrap_coroutine(fn, name, layer)
        else:
            shadow = self._timed(fn, self._name_id(name, layer), layer, callbacks)
        shadow.__name__ = getattr(fn, "__name__", name)
        shadow.__doc__ = getattr(fn, "__doc__", None)
        shadow.__wrapped__ = fn
        return shadow

    def _timed(self, fn: Callable, name_id: int, layer: str, callbacks: bool = False):
        """``fn`` as one span per call (a shadowed callable or a callback)."""
        rec = self

        def timed(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            state = rec._state()
            if callbacks:
                args, kwargs = rec._wrap_callbacks(state, args, kwargs)
            frame = rec._open(state, name_id, layer)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                rec._close(state, frame, name_id, start, end, end - start)

        return timed

    def _close(
        self,
        state: _ThreadState,
        frame: list,
        name_id: int,
        start: float,
        end: float,
        busy: float,
    ) -> None:
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][2] += busy
        total = state.totals.get(name_id)
        if total is None:
            total = state.totals[name_id] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += busy - frame[2]
        total[2] += end - start
        raw = frame[0]
        if raw >= 0:
            state.starts[raw] = start
            state.ends[raw] = end

    def _wrap_callbacks(self, state: _ThreadState, args: tuple, kwargs: dict):
        """Charge callable arguments to the layer that passes them."""
        stack = state.stack
        if not stack:
            return args, kwargs
        layer = stack[-1][1]
        name_id = self._name_id(f"{layer}.continuation", layer)
        args = tuple(
            self._timed(arg, name_id, layer) if _is_callback(arg) else arg
            for arg in args
        )
        if kwargs:
            kwargs = {
                key: self._timed(arg, name_id, layer)
                if _is_callback(arg)
                else arg
                for key, arg in kwargs.items()
            }
        return args, kwargs

    def _wrap_coroutine(self, fn: Callable, name: str, layer: str) -> Callable:
        rec = self
        name_id = self._name_id(name, layer)

        @types.coroutine
        def drive(coro):
            # A trampoline: resumes ``coro`` itself so that each slice
            # between two suspensions is timed on the thread it runs on.
            span = None  # (state, raw index) once the first slice ran
            first = last = 0.0
            busy = below = 0.0
            value = error = None
            try:
                while True:
                    state = rec._state()
                    if span is None:
                        frame = rec._open(state, name_id, layer)
                        span = (state, frame[0])
                    else:
                        frame = [-1, layer, 0.0]
                        state.stack.append(frame)
                    start = _clock()
                    if not first:
                        first = start
                    try:
                        if error is None:
                            yielded = coro.send(value)
                        else:
                            yielded = coro.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        last = _clock()
                        state.stack.pop()
                        if state.stack:
                            state.stack[-1][2] += last - start
                        busy += last - start
                        below += frame[2]
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        coro.close()
                        raise
                    except BaseException as thrown:  # re-raised inside coro
                        value, error = None, thrown
            finally:
                if span is not None:
                    state, raw = span
                    total = state.totals.get(name_id)
                    if total is None:
                        total = state.totals[name_id] = [0, 0.0, 0.0]
                    total[0] += 1
                    total[1] += busy - below
                    total[2] += last - first
                    if raw >= 0:
                        state.starts[raw] = first
                        state.ends[raw] = last

        async def shadow(*args, **kwargs):
            if not rec.on:
                return await fn(*args, **kwargs)
            return await drive(fn(*args, **kwargs))

        return shadow

    # -- results -------------------------------------------------------------

    def thread_tables(self) -> list[dict]:
        """Per thread: name and ``{layer: {"self_s", "calls"}}``."""
        tables = []
        for state in self._states:
            layers: dict[str, dict] = {}
            for name_id, (calls, self_s, _total) in state.totals.items():
                layer = self.names[name_id][1]
                row = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
                row["self_s"] += self_s
                row["calls"] += calls
            tables.append({"thread": state.name, "layers": layers})
        return tables

    def span_count(self) -> int:
        """Spans recorded (all of them, kept raw or not)."""
        return sum(
            total[0] for state in self._states for total in state.totals.values()
        )

    def write_jsonl(self, path: str) -> int:
        """Write the kept raw spans, one JSON object a line; returns count.

        ``id`` and ``parent`` are per thread (``parent`` -1 for a root
        span); times are ``time.perf_counter`` seconds.
        """
        written = 0
        with open(path, "w") as handle:
            for state in self._states:
                for raw in range(len(state.starts)):
                    name, layer = self.names[state.name_ids[raw]]
                    handle.write(
                        json.dumps(
                            {
                                "name": name,
                                "layer": layer,
                                "start": state.starts[raw],
                                "end": state.ends[raw],
                                "id": raw,
                                "parent": state.parents[raw],
                                "thread": state.name,
                            }
                        )
                    )
                    handle.write("\n")
                    written += 1
        return written


def _is_callback(value: object) -> bool:
    return isinstance(value, (types.FunctionType, types.MethodType))


# -- the boundaries of this repository ------------------------------------------

#: Layers in the order the tables print them.
LAYERS: tuple[str, ...] = (
    "loadgen",
    "rpc.cluster",
    "core.engine",
    "core.service",
    "core.query",
    "xmlq",
    "net",
    "sim.kernel",
    "storage.store",
    "storage.durable",
    "dht",
    "rpc.transport",
    "rpc.codec",
    "sec",
)


def install(recorder: Recorder) -> None:
    """Shadow the public entry points of every layer (see bench/README.md)."""
    import repro.loadgen
    import repro.loadgen.runner
    import repro.rpc.codec as codec
    import repro.sec.entries as sec_entries
    import repro.sec.identity as sec_identity
    import repro.xmlq.normalize as xmlq_normalize
    import repro.xmlq.xpparser as xmlq_parser
    from repro.core.engine import LookupEngine
    from repro.core.query import FieldQuery
    from repro.core.service import IndexService
    from repro.dht.base import DHTProtocol
    from repro.net.faults import FaultyTransport
    from repro.net.transport import SimulatedTransport
    from repro.rpc.cluster import ClusterClient
    from repro.rpc.transport import AsyncioTransport
    from repro.sec.identity import NodeIdentity
    from repro.sim.kernel import EventKernel
    from repro.storage.durable import DurableNodeState
    from repro.storage.store import DHTStorage

    def methods(cls: type, layer: str, names: Iterable[str], callbacks: bool = False):
        for name in names:
            recorder.shadow_method(cls, name, layer, callbacks)

    recorder.shadow_function(repro.loadgen.runner, "run_load_test", "loadgen")
    methods(ClusterClient, "rpc.cluster", ("search", "insert_record"))
    methods(LookupEngine, "core.engine", ("search",))
    methods(LookupEngine, "core.engine", ("start_async",), callbacks=True)
    methods(
        IndexService,
        "core.service",
        ("query_key", "fetch_file", "insert_shortcut", "insert_record"),
    )
    methods(
        IndexService,
        "core.service",
        ("query_key_async", "fetch_file_async", "insert_shortcut_async"),
        callbacks=True,
    )
    methods(FieldQuery, "core.query", ("parse", "covers_record", "key"))
    recorder.shadow_function(xmlq_parser, "parse_xpath", "xmlq")
    recorder.shadow_function(xmlq_normalize, "normalize_xpath", "xmlq")
    for transport in (FaultyTransport, SimulatedTransport):
        methods(transport, "net", ("send",))
        methods(transport, "net", ("send_async",), callbacks=True)
    methods(EventKernel, "sim.kernel", ("run",))
    methods(EventKernel, "sim.kernel", ("post",), callbacks=True)
    methods(
        DHTStorage,
        "storage.store",
        ("get", "put", "put_local", "responsible_nodes", "repair"),
    )
    methods(
        DurableNodeState,
        "storage.durable",
        (
            "record_put",
            "record_remove_value",
            "record_remove_key",
            "record_cache_insert",
            "record_member",
            "record_identity",
            "record_drop_node",
            "flush",
            "compact",
        ),
    )
    methods(DHTProtocol, "dht", ("lookup", "add_node", "remove_node"))
    methods(
        AsyncioTransport,
        "rpc.transport",
        ("send", "send_many", "request", "request_many"),
    )
    methods(AsyncioTransport, "rpc.transport", ("send_async",), callbacks=True)
    for name in (
        "encode_message",
        "decode_message",
        "encode_frame",
        "decode_frame",
        "decode_frame_signed",
        "sign_frame",
    ):
        recorder.shadow_function(codec, name, "rpc.codec")
    methods(NodeIdentity, "sec", ("sign",))
    recorder.shadow_function(sec_identity, "verify_signature", "sec")
    recorder.shadow_function(sec_entries, "attest_entry", "sec")
    recorder.shadow_function(sec_entries, "verify_entry", "sec")


def layer_budget(
    recorder: Recorder, wall_s: float, thread_cpu_s: Optional[dict[str, float]] = None
) -> list[dict]:
    """One table per thread that recorded spans, rows summing to ``wall_s``.

    Rows: every layer with calls, then ``idle`` (the thread was off the
    processor: blocked on the other thread, a socket or a timer; present
    when the thread's CPU time is known) and ``unattributed`` (on the
    processor in code no span covers).
    """
    tables = []
    for table in recorder.thread_tables():
        rows = []
        attributed = 0.0
        for layer in LAYERS:
            row = table["layers"].get(layer)
            if row is None:
                continue
            attributed += row["self_s"]
            rows.append(
                {
                    "layer": layer,
                    "self_s": row["self_s"],
                    "share": row["self_s"] / wall_s,
                    "calls": row["calls"],
                }
            )
        busy = wall_s
        cpu = (thread_cpu_s or {}).get(table["thread"])
        if cpu is not None:
            busy = min(wall_s, max(cpu, attributed))
            rows.append(
                {
                    "layer": "idle",
                    "self_s": wall_s - busy,
                    "share": (wall_s - busy) / wall_s,
                    "calls": 0,
                }
            )
        rows.append(
            {
                "layer": "unattributed",
                "self_s": busy - attributed,
                "share": (busy - attributed) / wall_s,
                "calls": 0,
            }
        )
        tables.append({"thread": table["thread"], "rows": rows})
    return tables
