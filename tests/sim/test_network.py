"""Unit tests for the network model."""

import pytest

from repro.sim import LinkModel, Network, Process, Simulator
from repro.sim.network import estimate_size


class Recorder(Process):
    def __init__(self, sim, net, pid):
        super().__init__(sim, net, pid)
        self.received = []

    def on_message(self, src, payload):
        self.received.append((self.sim.now, src, payload))


def build(seed=0, **link):
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(**link))
    a = Recorder(sim, net, "a")
    b = Recorder(sim, net, "b")
    return sim, net, a, b


def test_basic_delivery_with_latency():
    sim, net, a, b = build(latency=7.0)
    sim.call_at(1.0, a.send, "b", "hello")
    sim.run()
    assert b.received == [(8.0, "a", "hello")]


def test_jitter_bounds_latency():
    sim, net, a, b = build(seed=3, latency=10.0, jitter=5.0)
    for i in range(50):
        sim.call_at(float(i * 100), a.send, "b", i)
    sim.run()
    delays = [t - i * 100 for (t, _, i) in b.received]
    assert all(10.0 <= d <= 15.0 for d in delays)
    assert len(set(delays)) > 1  # actually jittered


def test_drop_probability_drops_some():
    sim, net, a, b = build(seed=5, drop_prob=0.5)
    for i in range(100):
        sim.call_at(float(i), a.send, "b", i)
    sim.run()
    assert 20 < len(b.received) < 80
    assert net.stats.dropped == 100 - len(b.received)


def test_per_link_override():
    sim, net, a, b = build(latency=5.0)
    net.set_link("a", "b", LinkModel(latency=50.0))
    sim.call_at(0.0, a.send, "b", "slow")
    sim.call_at(0.0, b.send, "a", "fast")
    sim.run()
    assert b.received[0][0] == 50.0
    assert a.received[0][0] == 5.0


def test_symmetric_link_override():
    sim, net, a, b = build(latency=5.0)
    net.set_link_symmetric("a", "b", LinkModel(latency=30.0))
    sim.call_at(0.0, a.send, "b", 1)
    sim.call_at(0.0, b.send, "a", 2)
    sim.run()
    assert a.received[0][0] == 30.0 and b.received[0][0] == 30.0


def test_partition_blocks_and_heal_restores():
    sim, net, a, b = build()
    net.partition({"a"}, {"b"})
    sim.call_at(0.0, a.send, "b", "lost")
    sim.call_at(10.0, net.heal)
    sim.call_at(11.0, a.send, "b", "through")
    sim.run()
    assert [p for (_, _, p) in b.received] == ["through"]
    assert net.stats.partitioned == 1


def test_partition_formed_mid_flight_drops_packet():
    sim, net, a, b = build(latency=10.0)
    sim.call_at(0.0, a.send, "b", "in-flight")
    sim.call_at(5.0, net.partition, {"a"}, {"b"})
    sim.run()
    assert b.received == []


def test_crashed_destination_drops():
    sim, net, a, b = build(latency=5.0)
    sim.call_at(0.0, a.send, "b", "x")
    sim.call_at(1.0, b.crash)
    sim.run()
    assert b.received == []
    assert net.stats.to_crashed == 1


def test_crashed_sender_sends_nothing():
    sim, net, a, b = build()
    sim.call_at(0.0, a.crash)
    sim.call_at(1.0, a.send, "b", "x")
    sim.run()
    assert b.received == []
    assert net.stats.sent == 0


def test_unknown_destination_raises():
    sim, net, a, b = build()
    with pytest.raises(KeyError):
        net.send("a", "nobody", "x")


def test_duplicate_pid_rejected():
    sim, net, a, b = build()
    with pytest.raises(ValueError):
        Recorder(sim, net, "a")


def test_fifo_link_preserves_order_despite_jitter():
    sim = Simulator(seed=9)
    net = Network(sim, LinkModel(latency=10.0, jitter=30.0, fifo=True))
    a = Recorder(sim, net, "a")
    b = Recorder(sim, net, "b")
    for i in range(30):
        sim.call_at(float(i), a.send, "b", i)
    sim.run()
    payloads = [p for (_, _, p) in b.received]
    assert payloads == sorted(payloads)
    assert len(payloads) == 30


def test_stats_bytes_accounting():
    sim, net, a, b = build()
    sim.call_at(0.0, a.send, "b", "x" * 100)
    sim.run()
    assert net.stats.bytes_sent == 100
    assert net.stats.bytes_delivered == 100


class _Sized:
    def size_bytes(self):
        return 4242


def test_estimate_size_prefers_size_bytes_hook():
    assert estimate_size(_Sized()) == 4242


def test_estimate_size_containers():
    assert estimate_size("abcd") == 4
    assert estimate_size(b"abc") == 3
    assert estimate_size(7) == 8
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size([1, 2]) == 8 + 16
    assert estimate_size({"a": 1}) == 8 + 1 + 8


def test_drop_hooks_fire_on_every_drop_kind():
    sim, net, a, b = build()
    dropped = []
    net.drop_hooks.append(lambda packet: dropped.append(packet.payload))
    net.partition({"a"}, {"b"})
    sim.call_at(0.0, a.send, "b", "partitioned")
    sim.call_at(1.0, net.heal)
    sim.call_at(2.0, b.crash)
    sim.call_at(3.0, a.send, "b", "to-crashed")
    sim.run()
    assert dropped == ["partitioned", "to-crashed"]


class PacketLog(Process):
    def __init__(self, sim, net, pid):
        super().__init__(sim, net, pid)
        self.packets = []

    def _receive_packet(self, packet):
        self.packets.append((self.sim.now, packet.packet_id, packet.src,
                             packet.size, packet.send_time, packet.link_epoch))


def _fan_out_run(fan_out):
    """Six rounds of one payload from ``a`` to ``b``..``e`` over a lossy,
    jittery network with one FIFO link and a partition that comes and goes;
    ``fan_out(net, src, dsts, payload)`` does the sending."""
    sim = Simulator(seed=11)
    net = Network(sim, LinkModel(latency=4.0, jitter=3.0, drop_prob=0.25))
    nodes = {pid: PacketLog(sim, net, pid) for pid in "abcde"}
    net.set_link("a", "c", LinkModel(latency=9.0, jitter=2.0, fifo=True))
    wire = []
    net.drop_hooks.append(
        lambda p: wire.append(("drop", p.packet_id, p.dst, p.size, sim.now)))
    sim.call_at(20.0, net.partition, {"a", "b", "c"}, {"d", "e"})
    sim.call_at(40.0, net.heal)
    for k in range(6):
        payload = {"round": k, "body": "x" * (3 * k)}
        sim.call_at(10.0 * k, fan_out, net, "a", ["b", "c", "d", "e"], payload)
    sim.run()
    arrivals = {pid: node.packets for pid, node in nodes.items()}
    return net.stats.snapshot(), wire, arrivals, sim.rng.getstate()


def test_multicast_is_one_send_per_destination_sized_once():
    def loop_of_sends(net, src, dsts, payload):
        for dst in dsts:
            net.send(src, dst, payload)

    by_loop = _fan_out_run(loop_of_sends)
    by_multicast = _fan_out_run(Network.multicast)
    assert by_multicast == by_loop
    stats = by_loop[0]  # the run did meet loss, the partition and delivery
    assert stats["dropped"] and stats["partitioned"] and stats["delivered"]


def test_multicast_sizes_the_payload_once_and_enters_through_send():
    class Sized:
        calls = 0

        def size_bytes(self):
            Sized.calls += 1
            return 42

    sim, net, a, b = build()
    c = Recorder(sim, net, "c")
    seen = []
    original = net.send

    def sniff(src, dst, payload, *sized):
        seen.append((dst, sized))
        return original(src, dst, payload, *sized)

    net.send = sniff
    a.send_many(["b", "c"], Sized())
    sim.run()
    assert Sized.calls == 1
    assert seen == [("b", (42,)), ("c", (42,))]
    assert net.stats.bytes_sent == net.stats.bytes_delivered == 84
    assert len(b.received) == len(c.received) == 1


def test_send_many_is_a_no_op_while_crashed():
    sim, net, a, b = build()
    a.crash()
    a.send_many(["b"], "x")
    sim.run()
    assert net.stats.sent == 0
