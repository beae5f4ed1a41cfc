"""Deterministic discrete-event simulator.

A minimal but complete event-driven kernel: a virtual clock, a binary-heap
agenda, and stable tie-breaking so runs are fully reproducible.  All
performance experiments (Figs. 4-6) run on top of this clock, which lets the
reproduction measure *simulated* seconds instead of depending on host-machine
speed.

Design notes
------------
- Events scheduled at equal times fire in scheduling order (a monotonically
  increasing tiebreak counter); determinism matters because the consistency
  checkers compare histories across runs.
- Callbacks may schedule further events, including at the current time.
- ``run_until`` processes every event with ``time <= deadline`` and then
  advances the clock to the deadline, which is what a throughput measurement
  window needs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import SimulationError

#: Virtual enclave service time per request in a batch: the flat price
#: every cluster shard's dispatcher pays on this clock.  Harness code
#: estimating run length (e.g. a mid-run rebalance point) must reference
#: it rather than hardcode a copy.
ENCLAVE_SERVICE_INTERVAL = 50e-6


class Event:
    """A scheduled callback.  Ordering: (time, tiebreak).

    A plain ``__slots__`` class rather than a dataclass: the agenda heap
    compares events on every push/pop, and the hand-written ``__lt__``
    avoids building two field tuples per comparison on the hot path.
    """

    __slots__ = ("time", "tiebreak", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        tiebreak: int,
        callback: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.tiebreak = tiebreak
        self.callback = callback
        self.label = label
        self.cancelled = cancelled

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.tiebreak < other.tiebreak

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, tiebreak={self.tiebreak!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True


class Simulator:
    """Virtual-time event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._agenda: list[Event] = []
        self._tiebreak = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(self._now + delay, next(self._tiebreak), callback, label)
        heapq.heappush(self._agenda, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        return self.schedule(time - self._now, callback, label)

    def step(self) -> bool:
        """Process the next event.  Returns False when the agenda is empty."""
        while self._agenda:
            event = heapq.heappop(self._agenda)
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Drain the agenda (optionally bounded by an event-count budget)."""
        remaining = max_events
        while self.step():
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return

    def run_until(self, deadline: float) -> None:
        """Process all events up to ``deadline``, then set the clock there."""
        if deadline < self._now:
            raise SimulationError("deadline lies in the past")
        while self._agenda:
            head = self._agenda[0]
            if head.cancelled:
                heapq.heappop(self._agenda)
                continue
            if head.time > deadline:
                break
            self.step()
        self._now = deadline

    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return sum(1 for event in self._agenda if not event.cancelled)


class Resource:
    """A single-server FIFO queue on a :class:`Simulator` (e.g. one CPU core).

    ``acquire_for(duration, then)`` enqueues a job of the given service time
    and invokes ``then`` when the job completes.  This is how the performance
    model expresses "the enclave is single-threaded; requests serialise on
    it" (Sec. 6.4 attributes saturation to exactly this).
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        self._free_at = 0.0
        self.busy_time = 0.0
        self.jobs = 0

    def acquire_for(self, duration: float, then: Callable[[], Any]) -> float:
        """Schedule a job; returns its completion (virtual) time."""
        if duration < 0:
            raise SimulationError("negative service time")
        start = max(self._sim.now, self._free_at)
        finish = start + duration
        self._free_at = finish
        self.busy_time += duration
        self.jobs += 1
        self._sim.schedule_at(finish, then, label=f"{self.name}:job")
        return finish

    def utilisation(self, window: float) -> float:
        """Fraction of ``window`` seconds this resource spent busy."""
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)


class WorkerPool:
    """N identical servers with a shared queue (models Stunnel's worker
    processes doing TLS off the critical path, Sec. 6.4)."""

    def __init__(self, sim: Simulator, workers: int, name: str = "") -> None:
        if workers < 1:
            raise SimulationError("worker pool needs at least one worker")
        self._workers = [Resource(sim, f"{name}[{k}]") for k in range(workers)]

    def acquire_for(self, duration: float, then: Callable[[], Any]) -> float:
        worker = min(self._workers, key=lambda w: w._free_at)
        return worker.acquire_for(duration, then)

    @property
    def size(self) -> int:
        return len(self._workers)
