"""Discrete-event simulator: ordering, cancellation, resources."""

import pytest

from repro.errors import SimulationError
from repro.net.simulation import Resource, Simulator, WorkerPool


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert sim.now == 2.5

    def test_callback_can_schedule_more(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.pending() == 0

    def test_run_until_stops_and_advances(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_past_deadline_rejected(self):
        sim = Simulator()
        sim.run_until(1.0)
        with pytest.raises(SimulationError):
            sim.run_until(0.5)

    def test_max_events_budget(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_zero_budget_processes_nothing(self):
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=0)
        assert fired == [] and sim.events_processed == 0 and sim.now == 0.0
        assert sim.pending() == 3

    def test_negative_budget_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimulationError):
            sim.run(max_events=-1)
        assert fired == [] and sim.events_processed == 0

    def test_budget_resumes_where_it_stopped(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        sim.run(max_events=10)
        assert fired == [0, 1, 2, 3, 4] and sim.events_processed == 5


class TestResource:
    def test_jobs_serialize(self):
        sim = Simulator()
        resource = Resource(sim, "cpu")
        finishes = []
        resource.acquire_for(1.0, lambda: finishes.append(sim.now))
        resource.acquire_for(1.0, lambda: finishes.append(sim.now))
        sim.run()
        assert finishes == [1.0, 2.0]

    def test_idle_gap_respected(self):
        sim = Simulator()
        resource = Resource(sim, "cpu")
        finishes = []
        resource.acquire_for(1.0, lambda: finishes.append(sim.now))
        sim.run()
        sim.schedule(4.0, lambda: resource.acquire_for(1.0, lambda: finishes.append(sim.now)))
        sim.run()
        assert finishes == [1.0, 6.0]

    def test_negative_duration_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim).acquire_for(-1.0, lambda: None)

    def test_utilisation(self):
        sim = Simulator()
        resource = Resource(sim, "cpu")
        resource.acquire_for(2.0, lambda: None)
        sim.run()
        assert resource.utilisation(4.0) == pytest.approx(0.5)


class TestWorkerPool:
    def test_parallelism(self):
        sim = Simulator()
        pool = WorkerPool(sim, workers=2)
        finishes = []
        for _ in range(4):
            pool.acquire_for(1.0, lambda: finishes.append(sim.now))
        sim.run()
        assert finishes == [1.0, 1.0, 2.0, 2.0]

    def test_requires_workers(self):
        with pytest.raises(SimulationError):
            WorkerPool(Simulator(), workers=0)
