"""Tests for the message bus."""

import pytest

from repro.core.engine import Simulator
from repro.core.errors import ConfigError, ProtocolError
from repro.support.bus import Message, Network, Node


class Recorder(Node):
    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.received = []

    def handle_default(self, message):
        self.received.append(message)

    def handle_ping(self, message):
        self.received.append(("ping", message.payload))
        self.send(message.src, "pong", message.payload)


@pytest.fixture()
def net():
    sim = Simulator()
    network = Network(sim, default_latency_s=0.1)
    a, b = Recorder("a", sim), Recorder("b", sim)
    network.register(a)
    network.register(b)
    return sim, network, a, b


class TestDelivery:
    def test_basic_send(self, net):
        sim, network, a, b = net
        a.send("b", "hello", 42)
        sim.run()
        assert b.received[0].payload == 42

    def test_latency_applied(self, net):
        sim, network, a, b = net
        network.set_link_latency("a", "b", 5.0)
        a.send("b", "hello")
        sim.run()
        assert sim.now == pytest.approx(5.0)

    def test_dispatch_to_handler(self, net):
        sim, network, a, b = net
        a.send("b", "ping", "x")
        sim.run()
        assert ("ping", "x") in b.received
        assert any(m.kind == "pong" for m in a.received)

    def test_unknown_destination_dropped(self, net):
        sim, network, a, __ = net
        a.send("ghost", "hello")
        sim.run()
        assert network.dropped == 1

    def test_duplicate_name_rejected(self, net):
        sim, network, *_ = net
        with pytest.raises(ConfigError):
            network.register(Recorder("a", sim))

    def test_unattached_node_cannot_send(self):
        node = Recorder("lonely", Simulator())
        with pytest.raises(ProtocolError):
            node.send("x", "hello")


class TestFailures:
    def test_partition_blocks(self, net):
        sim, network, a, b = net
        network.partition("a", "b")
        a.send("b", "hello")
        sim.run()
        assert not b.received
        assert network.dropped == 1

    def test_heal_restores(self, net):
        sim, network, a, b = net
        network.partition("a", "b")
        network.heal("a", "b")
        a.send("b", "hello")
        sim.run()
        assert b.received

    def test_crashed_node_receives_nothing(self, net):
        sim, network, a, b = net
        network.crash("b")
        a.send("b", "hello")
        sim.run()
        assert not b.received

    def test_crashed_node_cannot_send(self, net):
        sim, network, a, b = net
        network.crash("a")
        a.send("b", "hello")
        sim.run()
        assert not b.received

    def test_recover(self, net):
        sim, network, a, b = net
        network.crash("b")
        network.recover("b")
        a.send("b", "hello")
        sim.run()
        assert b.received

    def test_lossy_link(self):
        import numpy as np

        sim = Simulator()
        network = Network(sim, loss_prob=0.5, rng=np.random.default_rng(0))
        a, b = Recorder("a", sim), Recorder("b", sim)
        network.register(a)
        network.register(b)
        for _ in range(200):
            a.send("b", "hello")
        sim.run()
        assert 50 < len(b.received) < 150

    def test_every_repeats_until_crash(self, net):
        sim, network, a, b = net
        ticks = []
        a.every(1.0, ticks.append, 1)
        sim.run_until(5.5)
        assert len(ticks) == 5
        network.crash("a")
        sim.run_until(10.0)
        assert len(ticks) == 5

    def test_every_stops_rescheduling_after_crash(self, net):
        """A crashed node's periodic tick must not keep the queue alive
        forever: run() on a drained scenario terminates."""
        sim, network, a, b = net
        a.every(1.0, lambda: None)
        sim.schedule(3.5, network.crash, "a")
        sim.run()  # would never return if tick kept rescheduling itself
        assert sim.pending() == 0
        assert sim.now == pytest.approx(4.0)  # last scheduled tick, suppressed

    def test_every_handle_cancel(self, net):
        sim, network, a, b = net
        ticks = []
        task = a.every(1.0, ticks.append, 1)
        sim.run_until(2.5)
        assert len(ticks) == 2
        task.cancel()
        sim.run()
        assert len(ticks) == 2
        assert sim.pending() == 0

    def test_every_handle_cancel_idempotent(self, net):
        sim, network, a, b = net
        task = a.every(1.0, lambda: None)
        task.cancel()
        task.cancel()
        sim.run()
        assert task.cancelled


class TestAccounting:
    def test_sent_counts_every_send(self, net):
        sim, network, a, b = net
        a.send("b", "hello")
        a.send("ghost", "hello")
        sim.run()
        assert network.sent == 2
        assert network.delivered == 1
        assert network.dropped == 1

    def test_crashed_source_counted_as_dropped(self, net):
        sim, network, a, b = net
        network.crash("a")
        a.send("b", "hello")
        sim.run()
        assert network.sent == 1
        assert network.dropped == 1
        assert network.delivered == 0

    def test_invariant_across_all_drop_reasons(self):
        import numpy as np

        sim = Simulator()
        network = Network(sim, loss_prob=0.3, rng=np.random.default_rng(2))
        nodes = [Recorder(name, sim) for name in "abcd"]
        for node in nodes:
            network.register(node)
        network.partition("a", "b")
        network.crash("c")
        for _ in range(50):
            nodes[0].send("b", "blocked")      # partitioned
            nodes[0].send("c", "to-crashed")   # dst crashed (or lost)
            nodes[2].send("a", "from-crashed")  # src crashed
            nodes[0].send("ghost", "nowhere")  # unknown destination
            nodes[3].send("a", "normal")       # lossy but mostly delivered
        sim.run()
        assert network.sent == 250
        assert network.in_flight() == 0
        assert network.delivered + network.dropped == network.sent
        assert network.delivered > 0

    def test_per_kind_metrics_and_drop_reasons(self, net):
        from repro import obs

        sim, network, a, b = net
        obs.reset()
        obs.enable()
        network.crash("a")
        a.send("b", "alert")
        network.recover("a")
        network.partition("a", "b")
        a.send("b", "alert")
        network.heal("a", "b")
        a.send("b", "alert")
        sim.run()
        dropped = obs.metrics.registry.get("bus.dropped")
        assert dropped.value(kind="alert", reason="src-crashed") == 1.0
        assert dropped.value(kind="alert", reason="partitioned") == 1.0
        sent = obs.metrics.registry.get("bus.sent")
        delivered = obs.metrics.registry.get("bus.delivered")
        assert sent.value(kind="alert") == 3.0
        assert delivered.value(kind="alert") == 1.0
        latency = obs.metrics.registry.get("bus.latency_s")
        assert latency.count(kind="alert") == 1
        assert latency.sum(kind="alert") == pytest.approx(0.1)
        # Fault injections were logged with sim-time stamps.
        events = [r.event for r in obs.logging.buffer.records]
        assert "node-crashed" in events
        assert "link-partitioned" in events
        assert "link-healed" in events
        assert "node-recovered" in events
        obs.reset()


class LifecycleNode(Recorder):
    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.lifecycle = []

    def on_crash(self):
        self.lifecycle.append(("crash", self.sim.now))

    def on_recover(self):
        self.lifecycle.append(("recover", self.sim.now))


class TestCrashRecoverCycles:
    def test_lifecycle_hooks_fire_in_order(self):
        sim = Simulator()
        network = Network(sim)
        node = LifecycleNode("n", sim)
        network.register(node)
        sim.schedule(1.0, network.crash, "n")
        sim.schedule(2.0, network.recover, "n")
        sim.schedule(3.0, network.crash, "n")
        sim.schedule(4.0, network.recover, "n")
        sim.run()
        assert node.lifecycle == [
            ("crash", 1.0), ("recover", 2.0), ("crash", 3.0), ("recover", 4.0),
        ]

    def test_is_down_tracks_cycles(self, net):
        sim, network, a, b = net
        assert not network.is_down("a")
        network.crash("a")
        assert network.is_down("a")
        network.recover("a")
        assert not network.is_down("a")

    def test_delivery_resumes_after_each_cycle(self, net):
        sim, network, a, b = net
        for cycle in range(3):
            t = 10.0 * cycle
            sim.schedule_at(t + 1.0, network.crash, "b")
            sim.schedule_at(t + 2.0, a.send, "b", "during-crash", cycle)
            sim.schedule_at(t + 5.0, network.recover, "b")
            sim.schedule_at(t + 6.0, a.send, "b", "after-recover", cycle)
        sim.run()
        kinds = [m.kind for m in b.received]
        assert kinds.count("after-recover") == 3
        assert "during-crash" not in kinds
        assert network.delivered == 3 and network.dropped == 3

    def test_restarted_periodic_task_after_recover(self, net):
        """every() stops on crash; a restarted task resumes ticking."""
        sim, network, a, b = net
        ticks = []
        a.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, network.crash, "a")
        sim.run_until(5.0)
        assert len(ticks) == 2
        network.recover("a")
        a.every(1.0, lambda: ticks.append(sim.now))
        sim.run_until(8.5)
        assert len(ticks) == 5

    def test_reliable_messages_span_a_crash_cycle(self, net):
        sim, network, a, b = net
        network.crash("b")
        a.send_reliable("b", "hello", "x")
        sim.schedule(0.3, network.recover, "b")
        sim.run()
        assert any(m.payload == "x" for m in b.received)
        assert a.reliable.acked == {"hello": 1}


class TestMessage:
    def test_repr(self):
        assert "a->b" in repr(Message("a", "b", "kind"))

    def test_repr_shows_reliable_id(self):
        assert "id=a#0" in repr(Message("a", "b", "kind", msg_id="a#0"))
