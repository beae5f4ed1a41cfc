"""The benchmark's span recorder: wall-clock spans at every layer boundary.

Nothing under ``src/`` knows about this file.  :class:`Recorder` wraps the
public entry points of each layer *from outside* (class attributes are
swapped while a traced run is in progress and restored afterwards), so a
span is ``(name, start, end, parent, id)`` in host seconds
(``time.perf_counter``).  The program is single-threaded under the default
execution backend, so the open spans form a stack and every span's parent
is the span that was open when it started.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Span names are
``<layer>.<boundary>``; the layer prefix is the module group the ISSUE's
budget table uses (``router``, ``client``, ``net``, ``dispatch``,
``execution``, ``enclave``, ``storage``, ``observer``, ``checker``,
``controlplane``, ``loadgen``).

The same wrappers stamp the *virtual* clock per protocol operation
(submit, first ``Channel.send``, dispatcher ``enqueue``, reply delivery,
completion), which splits each operation's virtual latency into
sequencing wait / uplink / queue+service / downlink, and collect every
in-ecall :class:`~repro.obs.tracing.StageProbe` record.
"""

from __future__ import annotations

import array
import collections
import contextlib
import json
import re
import time
from typing import Any, Callable, Iterable, Sequence

#: ecall name -> span name.  Audit exports are issued by the streaming
#: observer at batch boundaries; they are the observer's cost, not the
#: serving path's, so they get their own name (and land in ``observer``).
_ECALL_SPANS = {
    "invoke_batch": "enclave.invoke_batch",
    "invoke_batch_deferred": "enclave.invoke_batch",
    "invoke": "enclave.invoke_batch",
    "export_audit_since": "observer.export_ecall",
    "export_audit_log": "observer.export_ecall",
}

#: simulator event labels whose callback belongs to a layer other than
#: ``net`` (everything else an event runs is either a wrapped entry point
#: or channel plumbing, which *is* ``net``)
_EVENT_SPANS = (
    (re.compile(r"-batch(-seal)?$"), "dispatch.deliver"),
    (re.compile(r"^controlplane-"), "controlplane.event"),
)

_UP = re.compile(r"^c(\d+)->s(\d+)$")
_DOWN = re.compile(r"^s(\d+)->c(\d+)$")
_SHARD_LABEL = re.compile(r"^shard(\d+)-batch$")


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Self time of every span: duration minus the part of its interval
    that its direct children cover.

    ``spans`` are ``(name, start, end, parent_index, ...)`` rows in start
    order (a child always comes after its parent; ``parent_index`` is -1
    for a root).  Children are clipped to the parent's interval and
    overlapping children are counted once, so the result is exact for any
    tree, not only for the strictly nested ones the recorder produces.
    """
    covered = [0.0] * len(spans)
    covered_until = [row[1] for row in spans]
    for row in spans:
        parent = row[3]
        if parent < 0:
            continue
        start = max(row[1], covered_until[parent])
        end = min(row[2], spans[parent][2])
        if end > start:
            covered[parent] += end - start
            covered_until[parent] = end
    return [
        (row[2] - row[1]) - covered[index] for index, row in enumerate(spans)
    ]


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        # one column per span field, in start order.  Columns (not one
        # object per span) keep half a million spans out of the garbage
        # collector's sight, whose full passes would otherwise slow the
        # traced run as the store grows.
        self._names: list[str] = []
        self._starts = array.array("d")
        self._ends = array.array("d")
        self._parents = array.array("l")
        self._idents: list[Any] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._backends: set[type] = set()
        #: every batch's in-ecall stage record (``StageProbe`` payloads)
        self.stage_records: list[dict] = []
        #: the simulator whose clock the virtual stamps read; set by
        #: :meth:`attach` for each cluster a traced run builds
        self.sim: Any = None
        #: per protocol operation ``[submit, sent, enqueued, delivered,
        #: completed]`` virtual times
        self.op_stamps: list[list[float]] = []
        self.queued_peak = 0
        self.retained_peak = 0
        self._submit_times: dict[int, collections.deque] = {}
        self._inflight: dict[tuple[int, int], list] = {}
        self._machine_key: dict[int, tuple[int, int]] = {}
        self._channel_key: dict[int, tuple[str, tuple[int, int]] | None] = {}
        self._dispatcher_shard: dict[int, int] = {}
        self._machine: Any = None

    @property
    def rows(self) -> list[tuple]:
        """``(name, start, end, parent, id)`` per span, in start order."""
        return list(zip(
            self._names, self._starts, self._ends, self._parents, self._idents
        ))

    # ----------------------------------------------------------- recording

    @contextlib.contextmanager
    def span(self, name: str, ident: Any = None):
        """A span the benchmark opens itself (the timed ``run`` root)."""
        index = len(self._names)
        stack = self._stack
        self._names.append(name)
        self._parents.append(stack[-1] if stack else -1)
        self._idents.append(ident)
        self._ends.append(0.0)
        stack.append(index)
        self._starts.append(time.perf_counter())
        try:
            yield
        finally:
            self._ends[index] = time.perf_counter()
            stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        ident: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.  ``ident`` maps the call's
        positional arguments to the span's request/batch id.  (The body
        repeats :meth:`span` inline: this runs ~30 times per operation.)"""
        names, starts, ends = self._names, self._starts, self._ends
        parents, idents, stack = self._parents, self._idents, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            idents.append(ident(*args) if ident is not None else None)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def attach(self, cluster: Any) -> None:
        """Point the virtual stamps at ``cluster``'s clock and wrap its
        execution backend's ``submit`` (the backend class is only known
        once a cluster exists)."""
        self.sim = cluster.sim
        backend = type(cluster.execution)
        if backend not in self._backends:
            self._backends.add(backend)
            self._patch(backend, "submit", "execution.submit")

    # ------------------------------------------------------------ patching

    def _patch(self, owner: Any, attr: str, name: str, ident=None) -> None:
        self._replace(owner, attr, self.wrap(getattr(owner, attr), name, ident))

    def _replace(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Swap the layer entry points for their span-recording wrappers."""
        from repro.consistency.streaming import StreamingChecker
        from repro.core.async_client import AsyncLcmClient
        from repro.core.bootstrap import Admin
        from repro.net.channel import Channel
        from repro.net.simulation import Simulator
        from repro.obs.tracing import StageProbe
        from repro.server.dispatch import GroupDispatcher
        from repro.server.storage import StableStorage
        from repro.sharding import controlplane
        from repro.sharding.cluster import ShardedCluster
        from repro.sharding.observer import ClusterObserver
        from repro.sharding.router import ShardRouter
        from repro.tee.enclave import Enclave

        patch = self._patch
        patch(ShardRouter, "submit", "router.submit")
        patch(ShardRouter, "submit_txn", "router.submit_txn")
        patch(Simulator, "step", "net.sim_step")
        patch(GroupDispatcher, "maybe_dispatch", "dispatch.maybe_dispatch")
        patch(
            StableStorage, "store", "storage.store",
            ident=lambda storage, blob: storage.name,
        )
        patch(ClusterObserver, "on_batch_boundary", "observer.on_batch_boundary")
        for method in ("feed_records", "observe_completion", "observe_point"):
            patch(StreamingChecker, method, f"checker.{method}")
        for method in ("add_shard", "remove_shard", "crash_shard", "recover_shard"):
            patch(ShardedCluster, method, f"controlplane.{method}")
        patch(controlplane, "migrate_keys", "controlplane.migrate_keys")
        patch(Admin, "bootstrap", "controlplane.bootstrap")
        for owner, attr, special in (
            (Enclave, "ecall", self._wrap_ecall),
            (Simulator, "schedule", self._wrap_schedule),
            (StreamingChecker, "advance", self._wrap_advance),
            (StageProbe, "__call__", self._wrap_probe),
            (GroupDispatcher, "__init__", self._wrap_dispatcher_init),
            (GroupDispatcher, "enqueue", self._wrap_enqueue),
            (AsyncLcmClient, "invoke", self._wrap_invoke),
            (AsyncLcmClient, "on_reply", self._wrap_on_reply),
            (Channel, "send", self._wrap_send),
        ):
            self._replace(owner, attr, special(owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._backends.clear()

    # --------------------------------------------------- special wrappers

    def _wrap_ecall(self, fn: Callable) -> Callable:
        by_name = {
            ecall: self.wrap(fn, span, ident=lambda enclave, name, *_: name)
            for ecall, span in _ECALL_SPANS.items()
        }
        other = self.wrap(
            fn, "enclave.other_ecall", ident=lambda enclave, name, *_: name
        )

        def ecall(enclave, name, payload=None):
            return by_name.get(name, other)(enclave, name, payload)

        return ecall

    def _wrap_schedule(self, fn: Callable) -> Callable:
        cache: dict[str, str | None] = {}

        def schedule(sim, delay, callback, label=""):
            span = cache.get(label, "")
            if span == "":
                span = next(
                    (name for pattern, name in _EVENT_SPANS if pattern.search(label)),
                    None,
                )
                cache[label] = span
            if span is not None:
                callback = self.wrap(callback, span, ident=lambda: label)
            return fn(sim, delay, callback, label)

        return schedule

    def _wrap_advance(self, fn: Callable) -> Callable:
        timed = self.wrap(fn, "checker.advance")

        def advance(checker):
            timed(checker)
            retained = checker.retained_records
            if retained > self.retained_peak:
                self.retained_peak = retained

        return advance

    def _wrap_probe(self, fn: Callable) -> Callable:
        def probe(stage_probe, record):
            self.stage_records.append(record)
            return fn(stage_probe, record)

        return probe

    def _wrap_dispatcher_init(self, fn: Callable) -> Callable:
        def init(dispatcher, **kwargs):
            match = _SHARD_LABEL.match(kwargs.get("label", ""))
            if match:
                self._dispatcher_shard[id(dispatcher)] = int(match.group(1))
            return fn(dispatcher, **kwargs)

        return init

    # The four wrappers below also keep the per-operation virtual stamps.
    # A (client, shard) protocol machine has one INVOKE in flight, so the
    # stamps of the operation on the wire are keyed by (shard, client).

    def _wrap_invoke(self, fn: Callable) -> Callable:
        timed = self.wrap(fn, "client.invoke", ident=lambda machine, *_: machine.client_id)

        def invoke(machine, operation, on_complete):
            queue = self._submit_times.get(id(machine))
            if queue is None:
                queue = self._submit_times[id(machine)] = collections.deque()
            queue.append(self.sim.now)
            # the router's completion closure runs inside on_reply; give
            # it its own span so coordinator work is not billed to the
            # client machine
            on_complete = self.wrap(on_complete, "router.on_complete")
            outer, self._machine = self._machine, machine
            try:
                timed(machine, operation, on_complete)
            finally:
                self._machine = outer
            if machine.queued > self.queued_peak:
                self.queued_peak = machine.queued

        return invoke

    def _wrap_on_reply(self, fn: Callable) -> Callable:
        timed = self.wrap(fn, "client.on_reply", ident=lambda machine, *_: machine.client_id)

        def on_reply(machine, reply_box):
            key = self._machine_key.get(id(machine))
            stamps = self._inflight.pop(key, None) if key is not None else None
            if stamps is not None and stamps[3] is not None:
                stamps[4] = self.sim.now
                self.op_stamps.append(stamps)
            outer, self._machine = self._machine, machine
            try:
                return timed(machine, reply_box)
            finally:
                self._machine = outer

        return on_reply

    def _wrap_send(self, fn: Callable) -> Callable:
        timed = self.wrap(fn, "net.channel_send", ident=lambda channel, *_: channel.name)

        def send(channel, message):
            entry = self._channel_key.get(id(channel), "")
            if entry == "":
                up, down = _UP.match(channel.name), _DOWN.match(channel.name)
                if up:
                    entry = ("up", (int(up.group(2)), int(up.group(1))))
                elif down:
                    entry = ("down", (int(down.group(1)), int(down.group(2))))
                else:
                    entry = None
                self._channel_key[id(channel)] = entry
            if entry is not None:
                direction, key = entry
                if direction == "down":
                    stamps = self._inflight.get(key)
                    if stamps is not None:
                        stamps[3] = self.sim.now
                elif self._machine is not None:
                    # an uplink send happens inside the owning machine's
                    # invoke/on_reply (its _pump): the oldest queued
                    # submission is the one going out
                    machine = self._machine
                    self._machine_key[id(machine)] = key
                    queue = self._submit_times.get(id(machine))
                    if queue:
                        self._inflight[key] = [
                            queue.popleft(), self.sim.now, None, None, None
                        ]
            return timed(channel, message)

        return send

    def _wrap_enqueue(self, fn: Callable) -> Callable:
        timed = self.wrap(fn, "dispatch.enqueue")

        def enqueue(dispatcher, client_id, message):
            shard_id = self._dispatcher_shard.get(id(dispatcher))
            if shard_id is not None:
                stamps = self._inflight.get((shard_id, client_id))
                if stamps is not None and stamps[2] is None:
                    stamps[2] = self.sim.now
            return timed(dispatcher, client_id, message)

        return enqueue

    # -------------------------------------------------------------- output

    def dump(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, id."""
        encode = json.dumps
        with open(path, "w", encoding="utf-8") as handle:
            write = handle.write
            for name, start, end, parent, ident in zip(
                self._names, self._starts, self._ends, self._parents, self._idents
            ):
                write(
                    f'{{"name": "{name}", "start": {start!r}, "end": {end!r}, '
                    f'"parent": {parent}, "id": {encode(ident)}}}\n'
                )


def load(path: str) -> list[list]:
    """Read a spans file back into ``[name, start, end, parent, id]`` rows."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            rows.append(
                [span["name"], span["start"], span["end"], span["parent"], span["id"]]
            )
    return rows


def budget(
    rows: Iterable[Sequence[Any]], under: str | None = None
) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) and self seconds.
    ``under`` keeps only the spans at or below a root span of that name
    (``"run"``: what happened inside the timed ``cluster.run()`` calls)."""
    rows = list(rows)
    inside = [under is None] * len(rows)
    table: dict[str, dict[str, float]] = {}
    for index, (row, own) in enumerate(zip(rows, self_times(rows))):
        if under is not None:
            inside[index] = row[0] == under or (row[3] >= 0 and inside[row[3]])
            if not inside[index]:
                continue
        entry = table.get(row[0])
        if entry is None:
            entry = table[row[0]] = {"count": 0, "total_s": 0.0, "self_s": 0.0}
        entry["count"] += 1
        entry["total_s"] += row[2] - row[1]
        entry["self_s"] += own
    return table
