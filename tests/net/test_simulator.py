"""Tests for the discrete-event simulator (repro.net.simulator)."""

import random

import pytest

from repro.net import Network, Simulator, StopReason


@pytest.fixture
def pair():
    net = Network()
    net.add_link("a", "b", latency_s=0.010, bandwidth_bps=100e6)
    return net


class TestScheduling:
    def test_events_run_in_time_order(self, pair):
        sim = Simulator(pair)
        order = []
        sim.schedule(0.3, lambda: order.append("late"))
        sim.schedule(0.1, lambda: order.append("early"))
        sim.schedule(0.2, lambda: order.append("mid"))
        sim.run()
        assert order == ["early", "mid", "late"]

    def test_ties_run_in_insertion_order(self, pair):
        sim = Simulator(pair)
        order = []
        sim.schedule(0.1, lambda: order.append(1))
        sim.schedule(0.1, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_delivery_and_timer_at_one_instant_run_in_scheduling_order(
            self, pair):
        """Order is ``(time, seq)``: a delivery and a timer due at the same
        instant run in the order they were put on the queue."""
        probe = Simulator(pair)
        arrival = []
        probe.attach("b", lambda src, payload: arrival.append(probe.now))
        probe.send("a", "b", "x", 100)
        probe.run()

        def run(send_first: bool) -> list[str]:
            sim = Simulator(pair)
            order = []
            sim.attach("b", lambda src, payload: order.append("delivery"))
            steps = [lambda: sim.send("a", "b", "x", 100),
                     lambda: sim.at(arrival[0], lambda: order.append("timer"))]
            for step in steps if send_first else reversed(steps):
                step()
            sim.run()
            return order

        assert run(send_first=True) == ["delivery", "timer"]
        assert run(send_first=False) == ["timer", "delivery"]

    def test_now_advances(self, pair):
        sim = Simulator(pair)
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5]

    def test_negative_delay_rejected(self, pair):
        with pytest.raises(ValueError):
            Simulator(pair).schedule(-1.0, lambda: None)

    def test_at_absolute(self, pair):
        sim = Simulator(pair)
        seen = []
        sim.schedule(0.2, lambda: sim.at(0.1, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [0.2]  # clamped to now


class TestRunTermination:
    def test_quiescent(self, pair):
        sim = Simulator(pair)
        sim.schedule(0.1, lambda: None)
        assert sim.run() == StopReason.QUIESCENT

    def test_time_limit(self, pair):
        sim = Simulator(pair)

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        assert sim.run(until=5.0) == StopReason.TIME_LIMIT
        assert sim.now == 5.0

    def test_event_limit(self, pair):
        sim = Simulator(pair)

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        assert sim.run(max_events=10) == StopReason.EVENT_LIMIT

    def test_stop(self, pair):
        sim = Simulator(pair)
        sim.schedule(0.1, sim.stop)
        sim.schedule(0.2, lambda: None)
        assert sim.run() == StopReason.STOPPED
        assert sim.pending_events == 1


class TestTransport:
    def test_delivery_with_latency(self, pair):
        sim = Simulator(pair)
        arrivals = []
        sim.attach("b", lambda src, payload: arrivals.append(
            (sim.now, src, payload)))
        sim.schedule(0.0, lambda: sim.send("a", "b", "hello", 100))
        sim.run()
        assert len(arrivals) == 1
        t, src, payload = arrivals[0]
        assert src == "a" and payload == "hello"
        expected = 100 * 8 / 100e6 + 0.010
        assert t == pytest.approx(expected)

    def test_fifo_serialization_queues_bursts(self, pair):
        """Two big back-to-back messages: the second waits for the first."""
        sim = Simulator(pair)
        arrivals = []
        sim.attach("b", lambda src, payload: arrivals.append(sim.now))

        def burst():
            sim.send("a", "b", 1, 125_000)  # 10 ms of transmission
            sim.send("a", "b", 2, 125_000)

        sim.schedule(0.0, burst)
        sim.run()
        assert arrivals[0] == pytest.approx(0.010 + 0.010)
        assert arrivals[1] == pytest.approx(0.020 + 0.010)

    def test_jitter_never_reorders_a_direction(self):
        """Jitter far above the spacing of a burst: an arrival clamped to
        its predecessor's ties with it on time, and still runs after it."""
        net = Network()
        net.add_link("a", "b", latency_s=0.010, jitter_s=0.050)
        sim = Simulator(net, seed=5)
        arrivals = []
        sim.attach("b", lambda src, payload: arrivals.append(
            (sim.now, payload)))
        sim.attach("a", lambda src, payload: None)
        for i in range(40):
            sim.send("a", "b", i, 10)
            sim.send("b", "a", i, 10)  # the reverse direction is independent
        sim.run()
        times = [t for t, _ in arrivals]
        assert [payload for _, payload in arrivals] == list(range(40))
        assert times == sorted(times)
        assert len(set(times)) < len(times)  # the clamp did fire

    def test_send_to_non_neighbor_raises(self, pair):
        sim = Simulator(pair)
        pair.add_node("c")
        with pytest.raises(KeyError):
            sim.send("a", "c", "x", 10)
        # Raised before anything was counted or queued.
        assert sim.stats.messages_sent == 0 and sim.stats.send_log == []
        assert sim.pending_events == 0

    def test_message_to_a_node_without_handler_is_dropped(self, pair):
        """The delivery still happens — it is an event and moves the
        clock — but nobody hears it, and nothing raises."""
        sim = Simulator(pair)
        heard = []
        sim.attach("a", lambda src, payload: heard.append(payload))
        sim.send("a", "b", "lost", 100)
        assert sim.run(max_events=1) == StopReason.QUIESCENT
        assert heard == []
        assert sim.now == 100 * 8 / 100e6 + 0.010
        assert sim.stats.messages_sent == 1

    def test_stats_after_a_jittered_burst(self):
        """Every StatsCollector field after a burst on a jittered link,
        against arrivals computed by hand from the same seeded draws."""
        net = Network()
        net.add_link("a", "b", latency_s=0.010, jitter_s=0.004,
                     bandwidth_bps=1e6)
        sim = Simulator(net, seed=9)
        sim.attach("b", lambda src, payload: sim.stats.record_route_change(
            sim.now, "b"))

        def burst():
            for size in (500, 1500, 250):
                sim.send("a", "b", size, size)

        sim.at(0.25, burst)
        sim.at(0.5, lambda: sim.send("b", "a", "back", 40))  # a: no handler
        sim.run()

        # FIFO serialization, then latency plus one uniform draw per send,
        # clamped to the previous arrival; an event due at ``t`` is queued
        # at ``now + (t - now)``.
        draws = random.Random(9)
        free_at = last = 0.25
        for size in (500, 1500, 250):
            free_at += size * 8 / 1e6
            last = max(free_at + 0.010 + draws.uniform(0.0, 0.004), last)
        back = 0.5 + 40 * 8 / 1e6 + 0.010 + draws.uniform(0.0, 0.004)
        stats = sim.stats
        assert stats.messages_sent == 4
        assert stats.bytes_sent_total == 2290
        assert dict(stats.bytes_by_node) == {"a": 2250, "b": 40}
        assert stats.send_log == [(0.25, 500), (0.25, 1500), (0.25, 250),
                                  (0.5, 40)]
        assert stats.last_send == 0.5
        assert stats.route_changes == 3
        assert stats.last_route_change == 0.25 + (last - 0.25)
        assert sim.now == 0.5 + (back - 0.5)

    def test_stats_recorded(self, pair):
        sim = Simulator(pair)
        sim.attach("b", lambda src, payload: None)
        sim.schedule(0.0, lambda: sim.send("a", "b", "x", 64))
        sim.run()
        assert sim.stats.messages_sent == 1
        assert sim.stats.bytes_sent_total == 64
        assert sim.stats.bytes_by_node["a"] == 64

    def test_attach_unknown_node_raises(self, pair):
        with pytest.raises(KeyError):
            Simulator(pair).attach("zzz", lambda s, p: None)


class TestJitterDeterminism:
    def test_same_seed_same_arrivals(self):
        def run(seed):
            net = Network()
            net.add_link("a", "b", latency_s=0.01, jitter_s=0.005)
            sim = Simulator(net, seed=seed)
            arrivals = []
            sim.attach("b", lambda src, payload: arrivals.append(sim.now))
            for i in range(5):
                sim.schedule(i * 0.1, lambda: sim.send("a", "b", "x", 10))
            sim.run()
            return arrivals

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_jitter_bounded(self):
        net = Network()
        net.add_link("a", "b", latency_s=0.01, jitter_s=0.005)
        sim = Simulator(net, seed=3)
        arrivals = []
        sim.attach("b", lambda src, payload: arrivals.append(sim.now))
        sim.schedule(0.0, lambda: sim.send("a", "b", "x", 10))
        sim.run()
        base = 10 * 8 / 100e6 + 0.01
        assert base <= arrivals[0] <= base + 0.005
