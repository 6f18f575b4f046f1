"""The unchanged protocol stack over real UDP loopback sockets.

Every payload crosses an OS socket through the wire codec — no Python
references survive the trip.  Latencies are milliseconds; the assertions
are protocol guarantees (causal order, total order, loss repair, partition
semantics), which hold regardless of wall-clock scheduling noise.
"""

import asyncio
import struct

from repro.catocs.member import GroupMember
from repro.catocs.messages import AckGossip, DataMessage, Nak
from repro.ordering.dense import ClockDomain, group_domain
from repro.runtime import AsyncioClock, UdpNetwork, codec, run_for
from repro.runtime.transport import Transport, missing_surface
from repro.sim.network import LinkModel


def _build_group(clock, net, pids, ordering, **kwargs):
    kwargs.setdefault("nak_delay", 0.02)
    kwargs.setdefault("ack_period", 0.05)
    members = {}
    for pid in pids:
        members[pid] = GroupMember(
            clock, net, pid, group="g", members=pids, ordering=ordering, **kwargs
        )
    return members


def test_udp_network_implements_the_transport_seam():
    async def scenario():
        clock = AsyncioClock(seed=0)
        net = UdpNetwork(clock)
        assert missing_surface(net) == ()
        assert isinstance(net, Transport)
        net.close()

    asyncio.run(scenario())


def test_both_backends_implement_the_transport_seam():
    """One structural protocol, two substrates: the simulator network and
    the UDP socket network (checked above)."""
    from repro.runtime.transport import TRANSPORT_SURFACE
    from repro.sim import Simulator
    from repro.sim.network import Network

    sim_net = Network(Simulator(seed=0))
    assert missing_surface(sim_net) == ()
    assert isinstance(sim_net, Transport)
    assert len(TRANSPORT_SURFACE) == 15  # the seam is the whole Network API
    assert "multicast" in TRANSPORT_SURFACE


def test_udp_multicast_encodes_once_and_sends_identical_bytes(monkeypatch):
    """The fan-out primitive encodes the datagram once; what reaches each
    destination's socket is byte-for-byte what a per-destination ``send``
    puts there."""
    from repro.runtime import codec
    from repro.sim.process import Process

    payload = {"k": [1, 2, 3], "who": "a"}

    async def scenario(fan_out):
        clock = AsyncioClock(seed=7)
        net = UdpNetwork(clock)
        for pid in ("a", "b", "c", "d"):
            Process(clock, net, pid)
        await net.start()
        on_wire = {}
        monkeypatch.setattr(  # slotted class: patch the receive hook there
            UdpNetwork, "_on_datagram",
            lambda self, dst, data: on_wire.setdefault(dst, []).append(data))
        real_encode = codec.encode_datagram
        encodes = []

        def counting_encode(src, body):
            encodes.append(src)
            return real_encode(src, body)

        with monkeypatch.context() as patch:
            patch.setattr(codec, "encode_datagram", counting_encode)
            fan_out(net)
        await run_for(0.1)
        net.close()
        return len(encodes), on_wire, net.stats.snapshot()

    def by_multicast(net):
        net.multicast("a", ["b", "c", "d"], payload)

    def by_sends(net):
        for dst in ("b", "c", "d"):
            net.send("a", dst, payload)

    encodes, on_wire, stats = asyncio.run(scenario(by_multicast))
    assert encodes == 1
    loop_encodes, loop_on_wire, loop_stats = asyncio.run(scenario(by_sends))
    assert loop_encodes == 3
    assert on_wire == loop_on_wire
    assert sorted(on_wire) == ["b", "c", "d"]
    assert stats == loop_stats and stats["sent"] == 3


def test_causal_group_over_udp_loopback():
    async def scenario():
        clock = AsyncioClock(seed=1)
        net = UdpNetwork(clock, LinkModel(latency=0.004, jitter=0.004, drop_prob=0.1))
        members = _build_group(clock, net, ["a", "b", "c"], "causal")
        await net.start()

        def react(src, payload, msg):
            if payload == "cause":
                members["b"].multicast("effect")

        members["b"].on_deliver = react
        clock.call_later(0.01, members["a"].multicast, "cause")
        clock.call_later(0.02, members["c"].multicast, "noise")
        await run_for(1.2)
        net.close()
        return {pid: m.delivered_payloads() for pid, m in members.items()}, net

    orders, net = asyncio.run(scenario())
    for pid, got in orders.items():
        assert sorted(got) == ["cause", "effect", "noise"], (pid, got)
        assert got.index("cause") < got.index("effect"), (pid, got)
    assert net.decode_errors == 0
    assert net.stats.bytes_delivered > 0  # real datagram bytes, not estimates


def test_causal_delivery_between_hosts_with_their_own_clock_domains():
    """Two networks on two clocks, as two host processes run them: each host
    has its own clock domain for the group, and the second indexes the pids
    in the opposite order.  A stamp decodes into the receiving host's domain,
    so causal order holds in both directions across them."""
    async def scenario():
        clocks = [AsyncioClock(seed=11), AsyncioClock(seed=12)]
        nets = [UdpNetwork(clock, LinkModel(latency=0.004, jitter=0.004)) for clock in clocks]
        members = {
            pid: GroupMember(clocks[0], nets[0], pid, group="g", members=["a", "b", "c"],
                             ordering="causal", nak_delay=0.02, ack_period=0.05)
            for pid in ("a", "b")
        }
        members["c"] = GroupMember(clocks[1], nets[1], "c", group="g",
                                   members=["c", "b", "a"], ordering="causal",
                                   nak_delay=0.02, ack_period=0.05)
        for net in nets:
            await net.start()
        for pid in ("a", "b"):
            nets[1].add_peer(pid, *nets[0].address(pid))
        nets[0].add_peer("c", *nets[1].address("c"))

        def react(member, cause, effect):
            def on_deliver(src, payload, msg):
                if payload == cause:
                    member.multicast(effect)
            member.on_deliver = on_deliver

        react(members["b"], "cause", "effect")  # same host as the cause
        react(members["c"], "effect", "reply")  # the other host
        clocks[0].call_later(0.01, members["a"].multicast, "cause")
        await run_for(1.0)
        for net in nets:
            net.close()
        domains = [group_domain(clock, "g") for clock in clocks]
        orders = {pid: m.delivered_payloads() for pid, m in members.items()}
        return orders, domains, sum(net.decode_errors for net in nets)

    orders, domains, decode_errors = asyncio.run(scenario())
    assert domains[0] is not domains[1]
    assert domains[0].pids == ["a", "b", "c"] and domains[1].pids == ["c", "b", "a"]
    for pid, got in orders.items():
        assert got == ["cause", "effect", "reply"], (pid, got)
    assert decode_errors == 0


def test_total_order_over_udp_loopback():
    async def scenario():
        clock = AsyncioClock(seed=2)
        net = UdpNetwork(clock, LinkModel(latency=0.003, jitter=0.005))
        members = _build_group(clock, net, ["a", "b", "c"], "total-seq")
        await net.start()
        for k in range(6):
            sender = ["a", "b", "c"][k % 3]
            clock.call_later(0.005 + k * 0.01, members[sender].multicast, f"m{k}")
        await run_for(0.8)
        net.close()
        return [tuple(m.delivered_payloads()) for m in members.values()]

    orders = asyncio.run(scenario())
    assert all(len(o) == 6 for o in orders)
    assert len(set(orders)) == 1  # identical total order over real sockets


def test_agreed_order_repairs_over_lossy_udp_loopback():
    """Lost proposals and commits are repaired on the member's own time
    scale: the repair deadlines are multiples of ``nak_delay`` (20 ms
    here), so a lossy socket group agrees within a second and a half
    rather than stalling for fifty-unit timeouts meant for virtual time."""
    async def scenario():
        clock = AsyncioClock(seed=0)
        net = UdpNetwork(clock, LinkModel(latency=0.003, jitter=0.002, drop_prob=0.15))
        members = _build_group(clock, net, ["a", "b", "c"], "total-agreed",
                               nak_delay=0.02)
        await net.start()
        for k in range(12):
            sender = ["a", "b", "c"][k % 3]
            clock.call_later(0.005 + k * 0.01, members[sender].multicast, f"m{k:02d}")
        await run_for(1.5)
        net.close()
        return [tuple(m.delivered_payloads()) for m in members.values()], net.stats

    orders, stats = asyncio.run(scenario())
    assert stats.dropped > 0
    assert all(len(order) == 12 for order in orders), [len(o) for o in orders]
    assert len(set(orders)) == 1, orders


def test_loss_repair_over_udp_loopback():
    async def scenario():
        clock = AsyncioClock(seed=3)
        net = UdpNetwork(clock, LinkModel(latency=0.003, jitter=0.002, drop_prob=0.3))
        members = _build_group(clock, net, ["a", "b"], "raw")
        await net.start()
        for k in range(10):
            clock.call_later(0.005 + k * 0.005, members["a"].multicast, k)
        await run_for(1.5)
        net.close()
        return members["b"].delivered_payloads(), net.stats

    delivered, stats = asyncio.run(scenario())
    assert sorted(delivered) == list(range(10))
    assert stats.dropped > 0  # loss actually happened and was repaired


def test_partition_blocks_and_heal_restores():
    async def scenario():
        clock = AsyncioClock(seed=4)
        net = UdpNetwork(clock, LinkModel(latency=0.002))
        members = _build_group(clock, net, ["a", "b"], "raw",
                               nak_delay=0.03, ack_period=0.05)
        await net.start()
        net.partition({"a"}, {"b"})
        members["a"].multicast("while-split")
        await run_for(0.1)
        mid = list(members["b"].delivered_payloads())
        net.heal()
        await run_for(0.6)  # NAK repair closes the gap after heal
        net.close()
        return mid, members["b"].delivered_payloads(), net.stats

    mid, after, stats = asyncio.run(scenario())
    assert "while-split" not in mid
    assert "while-split" in after
    assert stats.partitioned > 0


def test_deliveries_are_decoded_copies_not_references():
    async def scenario():
        clock = AsyncioClock(seed=5)
        net = UdpNetwork(clock, LinkModel(latency=0.002))
        members = _build_group(clock, net, ["a", "b"], "raw")
        await net.start()
        sent_payload = {"mutable": [1, 2]}
        records = []
        members["b"].on_deliver = lambda src, payload, msg: records.append(payload)
        clock.call_later(0.01, members["a"].multicast, sent_payload)
        await run_for(0.4)
        net.close()
        return sent_payload, records

    sent_payload, records = asyncio.run(scenario())
    assert records == [sent_payload]
    assert records[0] is not sent_payload  # crossed the socket, not the heap


def test_garbage_datagrams_are_counted_and_dropped():
    async def scenario():
        clock = AsyncioClock(seed=6)
        net = UdpNetwork(clock, LinkModel(latency=0.002))
        members = _build_group(clock, net, ["a", "b"], "raw")
        await net.start()
        loop = asyncio.get_running_loop()
        attacker, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
        truncated = codec.encode_datagram("a", "cut short")[:-3]
        for blob in (b"not a datagram", truncated):
            attacker.sendto(blob, net.address("b"))
        clock.call_later(0.05, members["a"].multicast, "legit")
        await run_for(0.4)
        attacker.close()
        net.close()
        return members["b"].delivered_payloads(), net.decode_errors

    delivered, decode_errors = asyncio.run(scenario())
    assert delivered == ["legit"]  # the stack survived the garbage
    assert decode_errors == 2


async def _attacked_group(seed, ordering, blobs):
    """Two members, ``blobs`` thrown at b's socket from outside the group,
    then one legitimate multicast.  Returns what b delivered, the network,
    b's stack and everything that reached the loop's exception handler."""
    clock = AsyncioClock(seed=seed)
    net = UdpNetwork(clock, LinkModel(latency=0.002))
    members = _build_group(clock, net, ["a", "b"], ordering)
    await net.start()
    loop = asyncio.get_running_loop()
    escaped = []
    loop.set_exception_handler(lambda loop, context: escaped.append(context))
    attacker, _ = await loop.create_datagram_endpoint(
        asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
    for blob in blobs:
        attacker.sendto(blob, net.address("b"))
    clock.call_later(0.05, members["a"].multicast, "legit")
    await run_for(0.4)  # twenty nak_delays: a re-arming repair timer would show
    attacker.close()
    net.close()
    return members["b"].delivered_payloads(), net, members["b"].stack, escaped


def test_a_datagram_nested_past_the_depth_cap_is_a_decode_error():
    """60 kB of list openers is a legal datagram; unwinding it must end in
    ``CodecError`` and the counter, not in the loop's exception handler."""
    opener = struct.pack("!BI", codec._LIST, 1)
    bomb = codec.HEADER + opener * 12_000
    assert len(bomb) < codec.MAX_DATAGRAM
    delivered, net, _, escaped = asyncio.run(_attacked_group(9, "raw", [bomb]))
    assert net.decode_errors == 1
    assert escaped == []
    assert delivered == ["legit"]


def test_datagrams_from_an_unregistered_pid_never_reach_the_stack():
    """Well-formed, and each enough to wedge a stack that trusted ``src``: a
    causal message without a clock, a gap to NAK towards a pid with no
    address, a NAK to serve back to it, gossip about it."""
    forged = [
        DataMessage(group="g", sender="zz", seq=1, payload="x", sent_at=0.0),
        DataMessage(group="g", sender="zz", seq=5, payload="y", sent_at=0.0,
                    vc=ClockDomain(("zz",)).clock({"zz": 5})),
        Nak(group="g", requester="zz", wanted=[("a", 1)]),
        AckGossip(group="g", sender="zz", ack_vector={"zz": 5}),
    ]
    blobs = [codec.encode_datagram("zz", payload) for payload in forged]
    delivered, net, stack, escaped = asyncio.run(_attacked_group(10, "causal", blobs))
    assert net.unknown_sender == len(forged)
    assert net.decode_errors == 0
    assert escaped == []
    assert delivered == ["legit"]
    dedup = stack.layer("dedup")
    assert dedup.naks_sent == 0 and "zz" not in dedup.contiguous


def test_stamps_for_unknown_groups_add_no_clock_domains():
    """A stamp decodes only into a domain its group already has on this
    host; one group name per forged datagram would otherwise grow the clock's
    domain registry by one each."""
    forged = [
        DataMessage(group=f"forged{k}", sender="zz", seq=1, payload="x", sent_at=0.0,
                    vc=ClockDomain(("zz",)).clock({"zz": 1}))
        for k in range(40)
    ]
    blobs = [codec.encode_datagram("zz", payload) for payload in forged]
    delivered, net, _, escaped = asyncio.run(_attacked_group(11, "causal", blobs))
    assert list(net.clock._clock_domains) == ["g"]
    assert net.decode_errors == len(forged)
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["legit"]


def test_oversize_datagrams_are_refused_sender_side():
    async def scenario():
        clock = AsyncioClock(seed=7)
        net = UdpNetwork(clock, LinkModel(latency=0.002))
        members = _build_group(clock, net, ["a", "b"], "raw")
        await net.start()
        members["a"].multicast("x" * 200_000)
        await run_for(0.2)
        net.close()
        return net.oversize_dropped, members["b"].delivered_payloads()

    oversize, delivered = asyncio.run(scenario())
    assert oversize >= 1
    assert "x" * 200_000 not in delivered


def test_udp_metrics_are_wired_into_the_registry():
    async def scenario():
        clock = AsyncioClock(seed=8)
        net = UdpNetwork(clock, LinkModel(latency=0.002))
        members = _build_group(clock, net, ["a", "b"], "raw")
        await net.start()
        clock.call_later(0.01, members["a"].multicast, "ping")
        await run_for(0.3)
        net.close()
        return clock.metrics.snapshot()

    snapshot = asyncio.run(scenario())
    gauges = snapshot["gauges"]
    assert {"udp.sent", "udp.delivered", "udp.bytes_sent", "udp.decode_errors",
            "udp.unknown_sender", "udp.oversize_dropped",
            "udp.socket_errors"} <= set(gauges)
    assert gauges["udp.sent"] >= 1
