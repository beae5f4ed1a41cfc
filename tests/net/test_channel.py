"""Channels: FIFO delivery, virtual-time mode, adversarial interference."""

import pytest

from repro.errors import SimulationError
from repro.net.channel import AdversarialChannel, Channel
from repro.net.latency import BandwidthModel, LatencyModel
from repro.net.simulation import Simulator


class TestChannel:
    def test_immediate_delivery(self):
        channel = Channel("c")
        received = []
        channel.connect(received.append)
        channel.send(b"one")
        channel.send(b"two")
        assert received == [b"one", b"two"]

    def test_unconnected_send_rejected(self):
        with pytest.raises(SimulationError):
            Channel("c").send(b"x")

    def test_counters(self):
        channel = Channel("c")
        channel.connect(lambda m: None)
        channel.send(b"abc")
        assert channel.sent == 1
        assert channel.delivered == 1
        assert channel.bytes_sent == 3

    def test_virtual_time_delivery(self):
        sim = Simulator()
        latency = LatencyModel(propagation=1.0, bandwidth=BandwidthModel(1e12))
        channel = Channel("c", sim=sim, latency=latency)
        received = []
        channel.connect(lambda m: received.append((sim.now, m)))
        channel.send(b"x")
        sim.run()
        assert len(received) == 1
        assert received[0][0] == pytest.approx(1.0)
        assert received[0][1] == b"x"

    def test_fifo_despite_size_dependent_delay(self):
        sim = Simulator()
        # 1 byte/s bandwidth: a big message takes much longer than a small one
        latency = LatencyModel(propagation=0.0, bandwidth=BandwidthModel(1.0))
        channel = Channel("c", sim=sim, latency=latency)
        received = []
        channel.connect(received.append)
        channel.send(b"x" * 10)   # would arrive at t=10
        channel.send(b"y")        # naively at t=11... must not overtake
        sim.run()
        assert received == [b"x" * 10, b"y"]

    def test_fifo_under_jitter_and_equal_times(self):
        sim = Simulator()
        latency = LatencyModel(propagation=1e-4, jitter_fraction=0.5, seed=3)
        channel = Channel("c", sim=sim, latency=latency)
        received = []
        channel.connect(lambda m: received.append((sim.now, m)))
        messages = [bytes([i]) * (1 + (37 * i) % 200) for i in range(60)]
        for message in messages:
            channel.send(message)
        # same-size sends on a zero-propagation channel land at one instant
        instant = Channel("i", sim=sim, latency=LatencyModel(propagation=0.0))
        same_time = []
        instant.connect(same_time.append)
        for index in range(5):
            instant.send(bytes([index]))
        sim.run()
        assert [message for _, message in received] == messages
        times = [time for time, _ in received]
        assert times == sorted(times)
        assert same_time == [bytes([index]) for index in range(5)]

    def test_counters_while_messages_are_in_flight(self):
        sim = Simulator()
        channel = Channel("c", sim=sim, latency=LatencyModel(propagation=1.0))
        received = []
        channel.connect(received.append)
        channel.send(b"ab")
        sim.schedule(0.5, lambda: channel.send(b"cde"))
        sim.run_until(0.75)
        assert (channel.sent, channel.delivered, channel.pending) == (2, 0, 2)
        assert channel.bytes_sent == 5
        sim.run_until(1.25)
        assert (channel.sent, channel.delivered, channel.pending) == (2, 1, 1)
        assert received == [b"ab"]
        sim.run()
        assert (channel.sent, channel.delivered, channel.pending) == (2, 2, 0)
        assert received == [b"ab", b"cde"]

    def test_deliveries_share_one_label_and_one_callback(self):
        sim = Simulator()
        scheduled = []
        schedule_at = sim.schedule_at

        def recording(time, callback, label=""):
            scheduled.append((label, callback))
            return schedule_at(time, callback, label)

        sim.schedule_at = recording
        channel = Channel("c1->s0", sim=sim, latency=LatencyModel())
        received = []
        channel.connect(received.append)
        for message in (b"a", b"b", b"c"):
            channel.send(message)
        assert [label for label, _ in scheduled] == ["c1->s0:deliver"] * 3
        assert len({id(callback) for _, callback in scheduled}) == 1
        sim.run()
        assert received == [b"a", b"b", b"c"]

    def test_handler_connected_later_receives_in_flight_messages(self):
        sim = Simulator()
        channel = Channel("c", sim=sim, latency=LatencyModel(propagation=1.0))
        first, second = [], []
        channel.connect(first.append)
        channel.send(b"m")
        channel.connect(second.append)
        sim.run()
        assert first == [] and second == [b"m"]


class TestAdversarialChannel:
    def _wire(self):
        inner = Channel("inner")
        received = []
        adversarial = AdversarialChannel(inner)
        adversarial.connect(received.append)
        return adversarial, received

    def test_pass_through_by_default(self):
        channel, received = self._wire()
        channel.send(b"m")
        assert received == [b"m"]

    def test_drop(self):
        channel, received = self._wire()
        channel.set_interference(lambda m: "drop")
        channel.send(b"m")
        assert received == []
        assert channel.dropped == 1

    def test_hold_and_release(self):
        channel, received = self._wire()
        channel.set_interference(lambda m: "hold")
        channel.send(b"one")
        channel.send(b"two")
        assert received == []
        assert channel.held_count == 2
        channel.set_interference(None)
        assert channel.release(1) == 1
        assert received == [b"one"]
        assert channel.release() == 1
        assert received == [b"one", b"two"]

    def test_replay(self):
        channel, received = self._wire()
        channel.set_interference(lambda m: "replay")
        channel.send(b"m")
        channel.set_interference(None)
        assert channel.replay_all() == 1
        assert received == [b"m", b"m"]

    def test_tamper(self):
        channel, received = self._wire()
        channel.set_interference(lambda m: bytes([m[0] ^ 0xFF]) + m[1:])
        channel.send(b"\x00abc")
        assert received == [b"\xffabc"]
        assert channel.tampered == 1

    def test_unknown_action_rejected(self):
        channel, _ = self._wire()
        channel.set_interference(lambda m: 42)
        with pytest.raises(SimulationError):
            channel.send(b"m")
