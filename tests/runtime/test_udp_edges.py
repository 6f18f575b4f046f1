"""Edge paths of the UDP loopback transport: wiring mistakes, sends queued
before the sockets exist, and datagrams that land on a crashed or newly
partitioned receiver."""

import asyncio

import pytest

from repro.runtime import AsyncioClock, UdpNetwork, run_for
from repro.sim import Process
from repro.sim.network import LinkModel


class Sink(Process):
    def __init__(self, sim, network, pid):
        super().__init__(sim, network, pid)
        self.got = []

    def on_message(self, src, payload):
        self.got.append((src, payload))


def _run(scenario):
    """Run ``scenario(net, a, b)`` over a fresh two-process UDP network."""
    async def main():
        clock = AsyncioClock(seed=0)
        net = UdpNetwork(clock)
        a, b = Sink(clock, net, "a"), Sink(clock, net, "b")
        try:
            return await scenario(net, a, b)
        finally:
            net.close()
    return asyncio.run(main())


def test_attaching_after_start_is_refused():
    async def scenario(net, a, b):
        await net.start()
        with pytest.raises(RuntimeError, match="before UdpNetwork.start"):
            Sink(net.clock, net, "c")
        return net.pids
    assert _run(scenario) == ("a", "b")


def test_a_duplicate_pid_is_refused():
    async def scenario(net, a, b):
        with pytest.raises(ValueError, match="duplicate process id"):
            Sink(net.clock, net, "a")
        return net.process("a")
    assert _run(scenario).pid == "a"


def test_sending_to_an_unknown_pid_raises():
    async def scenario(net, a, b):
        await net.start()
        with pytest.raises(KeyError, match="unknown destination"):
            a.send("nobody", "x")
        return net.stats.sent
    assert _run(scenario) == 0


def test_sends_before_start_are_delivered_once_the_sockets_exist():
    async def scenario(net, a, b):
        a.send("b", "early")
        await run_for(0.02)
        before = list(b.got)
        await net.start()
        await run_for(0.05)
        return before, b.got, net.stats.delivered
    before, after, delivered = _run(scenario)
    assert before == []
    assert after == [("a", "early")]
    assert delivered == 1


def test_a_datagram_for_a_crashed_process_is_counted_not_delivered():
    async def scenario(net, a, b):
        await net.start()
        b.crash()
        a.send("b", "lost")
        await run_for(0.05)
        return b.got, net.stats.to_crashed, net.stats.delivered
    assert _run(scenario) == ([], 1, 0)


def test_a_partition_raised_while_a_datagram_is_queued_drops_it_on_receipt():
    async def scenario(net, a, b):
        await net.start()
        a.send("b", "crossing")  # zero latency: already in b's socket buffer
        net.partition({"a"}, {"b"})
        await run_for(0.05)
        return b.got, net.stats.partitioned, net.stats.delivered
    assert _run(scenario) == ([], 1, 0)


def test_a_symmetric_link_override_applies_in_both_directions():
    async def scenario(net, a, b):
        net.set_link_symmetric("a", "b", LinkModel(latency=0.0, drop_prob=1.0))
        await net.start()
        a.send("b", "x")
        b.send("a", "y")
        await run_for(0.05)
        return a.got, b.got, net.stats.dropped, net.link("b", "a").drop_prob
    assert _run(scenario) == ([], [], 2, 1.0)


def test_a_socket_error_is_counted_not_raised():
    async def scenario(net, a, b):
        await net.start()
        protocol = net._transports["a"].get_protocol()
        protocol.error_received(ConnectionRefusedError())
        return net.socket_errors

    assert _run(scenario) == 1


def test_a_second_start_keeps_the_bound_sockets():
    async def scenario(net, a, b):
        await net.start()
        bound = dict(net._transports), {pid: net.address(pid) for pid in "ab"}
        await net.start()
        return bound, (dict(net._transports), {pid: net.address(pid) for pid in "ab"})

    before, after = _run(scenario)
    assert after == before


def test_a_send_from_a_pid_with_no_local_socket_is_counted_dropped():
    async def scenario(net, a, b):
        await net.start()
        net.send("ghost", "b", "x")  # no socket here to send it from
        await run_for(0.05)
        return b.got, net.stats.snapshot()

    got, stats = _run(scenario)
    assert got == []
    assert stats["sent"] == 1 and stats["dropped"] == 1
