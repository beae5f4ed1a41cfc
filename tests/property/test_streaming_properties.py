"""Property-based test (hypothesis): the streaming real-time check is
exact.

The incremental check 3 of :class:`StreamingChecker` sees its evidence
one step at a time — audit records, completions in any arrival order,
points that move the GC floor — and keeps only the retained window plus
a summary of what it discarded.  Whatever the schedule, after every step
it must name the position the post-mortem's one-sweep oracle
(:meth:`ClientView.respects_real_time`) finds over the same view, and
announce it with one ``rt-violation`` event at exactly that step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.fork_linearizability import _UNTIMED_RESPONSE
from repro.consistency.history import ClientView, OperationRecord
from tests.consistency.test_streaming import (
    build_log,
    completion,
    make_checker,
    point_at,
    streaming_sig,
)

CLIENTS = (1, 2)
timestamps = st.integers(min_value=1, max_value=30)


def first_violation(records):
    """Length of the shortest view prefix the one-sweep oracle rejects —
    the position of the first record that responded before an operation
    serialized ahead of it was invoked."""
    for upto in range(1, len(records) + 1):
        if not ClientView(0, records[:upto]).respects_real_time():
            return upto
    return None


class _Schedule:
    """One drawn run: drives the checker step by step and keeps the
    model view (what the checker was shown *in time*) beside it."""

    def __init__(self, data):
        self.draw = data.draw
        count = self.draw(st.integers(1, 40), label="records")
        owners = self.draw(
            st.lists(st.sampled_from(CLIENTS), min_size=count, max_size=count)
        )
        self.spec = [
            (owner, ("PUT", f"k-{index}", "v"), None)
            for index, owner in enumerate(owners)
        ]
        self.log = build_log(self.spec)
        #: (invoked_at, responded_at) per record, ``None`` = never completes
        self.timing = self.draw(
            st.lists(
                st.none() | st.tuples(timestamps, timestamps),
                min_size=count, max_size=count,
            ),
            label="timing",
        )
        self.arrivals = list(
            self.draw(
                st.permutations(
                    [i for i, timed in enumerate(self.timing) if timed]
                ),
                label="arrival order",
            )
        )
        #: one completion is delivered twice when it beats its audit
        #: record: a stale copy with other timestamps, then the real one
        self.redelivered = self.draw(st.integers(0, count - 1), label="redelivered")
        self.events = []
        self.checker = make_checker(CLIENTS, self.events)
        self.log_id = self.checker.register_log()
        self.fed = 0
        self.points = {client_id: 0 for client_id in CLIENTS}
        #: record indexes whose completion arrived above the floor
        self.shown = set()

    # ----------------------------------------------------------- the model

    def view(self, upto=None):
        records = []
        for index in range(self.fed if upto is None else upto):
            owner, operation, result = self.spec[index]
            invoked_at, responded_at = (
                self.timing[index] if index in self.shown
                else (0, _UNTIMED_RESPONSE)
            )
            records.append(
                OperationRecord(
                    index + 1, owner, operation, result,
                    invoked_at, responded_at, index + 1,
                )
            )
        return records

    def check_step(self, expected_before):
        """After one atomic step: the checker names the oracle's position
        and announced it iff it moved, with that position."""
        expected = first_violation(self.view())
        assert self.checker._logs[self.log_id].rt_first == expected
        announced = [
            fields["position"]
            for name, fields in self.events
            if name == "rt-violation"
        ]
        if expected != expected_before:
            assert announced and announced[-1] == expected
            self.announcements += 1
        assert len(announced) == self.announcements
        return expected

    # ------------------------------------------------------------ the steps

    def deliver(self, index):
        owner, operation, result = self.spec[index]
        invoked_at, responded_at = self.timing[index]
        if index == self.redelivered and index >= self.fed:
            stale = self.draw(st.tuples(timestamps, timestamps), label="stale")
            self.checker.observe_completion(
                completion(owner, index + 1, operation, result, *stale)
            )
        if index + 1 > self.checker.floor:
            self.shown.add(index)
        self.checker.observe_completion(
            completion(owner, index + 1, operation, result, invoked_at, responded_at)
        )

    def move_points(self):
        for client_id in CLIENTS:
            self.points[client_id] = self.draw(
                st.integers(self.points[client_id], self.fed),
                label=f"point of client {client_id}",
            )
            self.checker.observe_point(
                client_id, *point_at(self.log, self.points[client_id])
            )
        self.checker.advance()

    def run(self):
        self.announcements = 0
        expected = None
        while self.fed < len(self.log) or self.arrivals:
            # the always-available step goes last: hypothesis shrinks
            # towards the first choice, which must make progress
            steps = []
            if self.fed < len(self.log):
                steps.append("feed")
            if self.arrivals:
                steps.append("completion")
            steps.append("points")
            step = self.draw(st.sampled_from(steps), label="step")
            if step == "feed":
                self.checker.feed_records(self.log_id, [self.log[self.fed]])
                self.fed += 1
            elif step == "completion":
                self.deliver(self.arrivals.pop(0))
            else:
                self.move_points()
            expected = self.check_step(expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_streaming_real_time_check_matches_the_one_sweep_oracle(data):
    schedule = _Schedule(data)
    schedule.run()
    schedule.move_points()
    # the verdict: the first client (post-mortem order) whose view — the
    # log prefix up to its point — the oracle rejects
    rejected = next(
        (
            client_id
            for client_id in CLIENTS
            if not ClientView(
                client_id, schedule.view(schedule.points[client_id])
            ).respects_real_time()
        ),
        None,
    )
    assert streaming_sig(schedule.checker) == (
        (None, [])
        if rejected is None
        else (
            (
                "SecurityViolation",
                f"view of client {rejected} contradicts real-time order",
            ),
            None,
        )
    )
