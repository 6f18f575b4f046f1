"""The unchanged protocol stack over real UDP loopback sockets.

Every payload crosses an OS socket through the wire codec — no Python
references survive the trip.  Latencies are milliseconds; the assertions
are protocol guarantees (causal order, total order, loss repair, partition
semantics), which hold regardless of wall-clock scheduling noise.
"""

import asyncio
import inspect
import struct

import pytest

from repro.catocs import HeartbeatDetector, ViewManager
from repro.catocs.member import GroupMember
from repro.catocs.messages import (
    AckGossip,
    AckQuery,
    BatchEnvelope,
    CommitRequest,
    DataMessage,
    FlushAck,
    ForcedCommit,
    Heartbeat,
    HybridAck,
    HybridRefetch,
    HybridRefill,
    JoinRequest,
    LeaveAnnounce,
    Nak,
    OrderToken,
    OrderTokenRequest,
    PriorityCommit,
    PriorityProposal,
    ViewInstall,
)
from repro.ordering.dense import ClockDomain, group_domain
from repro.runtime import AsyncioClock, UdpNetwork, codec, run_for
from repro.sim import EventTrace, Process
from repro.sim.network import LinkModel, Network, NetworkStats, Topology
from tests.catocs.test_check import assert_judged


def _build_group(clock, net, pids, ordering, **kwargs):
    kwargs.setdefault("nak_delay", 0.02)
    kwargs.setdefault("ack_period", 0.05)
    members = {}
    for pid in pids:
        members[pid] = GroupMember(
            clock, net, pid, group="g", members=pids, ordering=ordering, **kwargs
        )
    return members


def _public_network_methods():
    methods = {name: getattr(Network, name) for name in dir(Network)
               if not name.startswith("_") and callable(getattr(Network, name))}
    assert {"attach", "send", "multicast", "partition", "heal", "connected"} <= set(methods)
    return methods


def test_both_backends_share_one_topology():
    """The topology surface is written once, on ``Topology``: ``Network``
    inherits all of it, and ``UdpNetwork`` overrides only ``attach``, to
    refuse a process once its sockets are bound."""
    topology = {name for name, value in vars(Topology).items()
                if not name.startswith("_") and (callable(value) or isinstance(value, property))}
    assert {"attach", "process", "pids", "set_link", "set_link_symmetric", "link",
            "partition", "heal", "connected"} == topology
    assert topology & set(vars(Network)) == set()
    assert topology & set(vars(UdpNetwork)) == {"attach"}


def test_udp_network_implements_the_transport_seam():
    """``Network`` defines the transport API once: the socket backend has
    each of its public methods, with the same required parameters and room
    for every optional one (``send``'s fourth is each backend's own
    prepared form of the payload, passed by position)."""
    def parameters(method):
        params = list(inspect.signature(method).parameters.values())
        return [p.name for p in params if p.default is p.empty], len(params)

    for name, method in _public_network_methods().items():
        theirs = getattr(UdpNetwork, name, None)
        assert callable(theirs), name
        (required, count), (their_required, their_count) = parameters(method), parameters(theirs)
        assert their_required == required and their_count >= count, name
    assert isinstance(UdpNetwork.pids, property)


def test_both_backends_implement_the_transport_seam():
    """Live instances of the simulator network and the socket network both
    carry the API: every public ``Network`` method, and the data members the
    stack reads (the clock, the default link, the traffic counters, the
    attached pids)."""
    from repro.sim import Simulator

    async def scenario():
        sim = Simulator(seed=0)
        clock = AsyncioClock(seed=0)
        udp_net = UdpNetwork(clock)
        try:
            for net, owner in ((Network(sim), sim), (udp_net, clock)):
                for name in _public_network_methods():
                    assert callable(getattr(net, name, None)), (type(net).__name__, name)
                assert net.sim is owner
                assert isinstance(net.default_link, LinkModel)
                assert isinstance(net.stats, NetworkStats)
                assert net.pids == ()
        finally:
            udp_net.close()

    asyncio.run(scenario())


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
        members = _build_group(clock, net, ["a", "b", "c"], "causal", trace=EventTrace())
        await net.start()

        def react(src, payload, msg):
            if payload == "cause":
                members["b"].multicast("effect")

        members["b"].on_deliver = react
        clock.call_later(0.01, members["a"].multicast, "cause")
        clock.call_later(0.02, members["c"].multicast, "noise")
        await run_for(1.2)
        net.close()
        return members, net

    members, net = asyncio.run(scenario())
    assert_judged(members, "causal", 3)  # cause, then b's effect, and noise
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
        members = _build_group(clock, net, ["a", "b", "c"], "total-seq", trace=EventTrace())
        await net.start()
        for k in range(6):
            sender = ["a", "b", "c"][k % 3]
            clock.call_later(0.005 + k * 0.01, members[sender].multicast, f"m{k}")
        await run_for(0.8)
        net.close()
        return members

    assert_judged(asyncio.run(scenario()), "total-seq", 6)  # over real sockets


def test_agreed_order_repairs_over_lossy_udp_loopback():
    """Lost proposals and commits are repaired on the member's own time
    scale: the repair deadlines are multiples of ``nak_delay`` (20 ms
    here), so a lossy socket group agrees within a second and a half
    rather than stalling for fifty-unit timeouts meant for virtual time."""
    async def scenario():
        clock = AsyncioClock(seed=0)
        net = UdpNetwork(clock, LinkModel(latency=0.003, jitter=0.002, drop_prob=0.15))
        members = _build_group(clock, net, ["a", "b", "c"], "total-agreed",
                               nak_delay=0.02, trace=EventTrace())
        await net.start()
        for k in range(12):
            sender = ["a", "b", "c"][k % 3]
            clock.call_later(0.005 + k * 0.01, members[sender].multicast, f"m{k:02d}")
        await run_for(1.5)
        net.close()
        return members, net.stats

    members, stats = asyncio.run(scenario())
    assert stats.dropped > 0
    assert_judged(members, "total-agreed", 12)


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


def test_a_forced_commit_crosses_the_socket_as_its_own_class():
    """A ``ForcedCommit`` has its base class's fields and only its class
    says the commit proves nothing, so the codec must keep the class."""
    sent = [PriorityCommit(group="g", sender="a", msg_id=("a", 1), priority=3, tiebreak="b"),
            ForcedCommit(group="g", sender="a", msg_id=("a", 2), priority=4, tiebreak="a")]

    class Inbox(Process):
        def on_message(self, src, payload):
            self.got.append(payload)

    async def scenario():
        clock = AsyncioClock(seed=17)
        net = UdpNetwork(clock, LinkModel(latency=0.002))
        a, b = Process(clock, net, "a"), Inbox(clock, net, "b")
        b.got = []
        await net.start()
        for commit in sent:
            a.send("b", commit)
        await run_for(0.1)
        net.close()
        return b.got

    got = sorted(asyncio.run(scenario()), key=lambda commit: commit.msg_id)
    assert [type(p) for p in got] == [PriorityCommit, ForcedCommit]
    assert got == sent


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


async def _attacked_group(seed, ordering, blobs, held=None, target="b",
                          membership=False, **kwargs):
    """Two members, ``blobs`` thrown at ``target``'s socket from outside the
    group, then one legitimate multicast from a.  With ``held``, b first
    multicasts it and waits for its delivery, so b holds what a repair
    request would ask for.  With ``membership``, each member runs a
    heartbeat detector and a view manager.  Returns what b delivered, the
    network, b's stack and everything that reached the loop's exception
    handler."""
    clock = AsyncioClock(seed=seed)
    net = UdpNetwork(clock, LinkModel(latency=0.002))
    members = _build_group(clock, net, ["a", "b"], ordering, **kwargs)
    if membership:
        for member in members.values():
            ViewManager(member, HeartbeatDetector(member, period=0.1, timeout=0.35))
    await net.start()
    if held is not None:
        members["b"].multicast(held)
        await run_for(0.1)
    loop = asyncio.get_running_loop()
    escaped = []
    loop.set_exception_handler(lambda loop, context: escaped.append(context))
    attacker, _ = await loop.create_datagram_endpoint(
        asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
    for blob in blobs:
        attacker.sendto(blob, net.address(target))
    clock.call_later(0.05, members["a"].multicast, "legit")
    await run_for(0.4)  # twenty nak_delays: a re-arming repair timer would show
    attacker.close()
    net.close()
    return members["b"].delivered_payloads(), net, members["b"].stack, escaped


def _pids_kept(stack):
    """Every pid b keeps per-pid state for outside its clocks: dedup's
    counts, suspicions, heartbeat evidence, absorbed gossip, retention acks,
    agreed-order proposals and commit tiebreaks."""
    member, ordering = stack.member, stack.ordering
    detector, stability = member.failure_detector, stack.layer("stability")
    acked = getattr(ordering, "_acked", {})
    return {*stack.layer("dedup")._max_seen, *member._suspected,
            *(detector.last_heard if detector else ()),
            *(stability._absorbed if stability else ()),
            *acked, *(pid for counts in acked.values() for pid in counts),
            *(pid for box in getattr(ordering, "_proposals", {}).values() for pid in box),
            *(commit[1] for commit in getattr(ordering, "_commit_values", {}).values())}


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


def test_a_forged_sender_cannot_grow_a_clock_domain():
    """The sender is checked before the payload is decoded: a stamp naming
    500 pids, from a pid nobody registered, leaves group g's domain at its
    two members."""
    pids = [f"x{k}" for k in range(500)]
    forged = DataMessage(group="g", sender="intruder", seq=1, payload="x", sent_at=0.0,
                         vc=ClockDomain(pids).clock(dict.fromkeys(pids, 1)))
    blob = codec.encode_datagram("intruder", forged)
    delivered, net, _, escaped = asyncio.run(_attacked_group(12, "causal", [blob]))
    assert len(net.clock._clock_domains["g"]) == 2
    assert net.unknown_sender == 1
    assert net.decode_errors == 0
    assert escaped == []
    assert delivered == ["legit"]


def test_a_registered_sender_cannot_grow_a_clock_domain():
    """The registered pid ``a`` stamps 500 pids nobody registered, and
    another message acks one of them: both are decode errors, and group g's
    domain stays at its two members."""
    pids = [f"x{k}" for k in range(500)]
    forged = [
        DataMessage(group="g", sender="a", seq=7, payload="x", sent_at=0.0,
                    vc=ClockDomain(("a", *pids)).clock({"a": 7, **dict.fromkeys(pids, 1)})),
        DataMessage(group="g", sender="a", seq=8, payload="y", sent_at=0.0,
                    vc=ClockDomain(("a",)).clock({"a": 8}), ack_vector={"x0": 3}),
    ]
    blobs = [codec.encode_datagram("a", payload) for payload in forged]
    delivered, net, stack, escaped = asyncio.run(_attacked_group(13, "causal", blobs))
    assert len(net.clock._clock_domains["g"]) == 2
    assert net.decode_errors == len(forged)
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["legit"]
    assert "x0" not in stack.layer("dedup")._max_seen


def test_a_registered_sender_cannot_gossip_about_unknown_pids():
    """The registered pid ``a`` gossips, and queries, counts for ``zz``, a
    pid with no address: both are decode errors, so b learns nothing of
    ``zz`` and starts no NAK chase towards it."""
    forged = [
        AckGossip(group="g", sender="a", ack_vector={"a": 0, "zz": 5}),
        AckQuery(group="g", sender="a", ack_vector={"zz": 5}),
    ]
    blobs = [codec.encode_datagram("a", payload) for payload in forged]
    delivered, net, stack, escaped = asyncio.run(_attacked_group(14, "causal", blobs))
    assert net.decode_errors == len(forged)
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["legit"]
    assert "zz" not in stack.layer("dedup")._max_seen


def test_a_registered_sender_cannot_leave_proposals_for_ids_never_sent():
    """The registered pid ``a`` sends b proposals for ids b never sent: a
    third pid's and b's own unsent seqs.  The third pid ``c`` has no
    address, so its ids are decode errors; b's own ids decode, but
    proposals go only to a message's sender while it is open there, so b
    keeps none and counts nothing."""
    forged = [PriorityProposal(group="g", proposer="a", msg_id=(sender, 10**6 + i),
                               priority=i)
              for i in range(100) for sender in ("c", "b")]
    blobs = [codec.encode_datagram("a", payload) for payload in forged]
    delivered, net, stack, escaped = asyncio.run(_attacked_group(16, "total-agreed", blobs))
    assert net.decode_errors == 100
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["legit"]
    assert stack.ordering._proposals == {}
    assert stack.ordering.layer_metrics()["proposals_forced"] == 0


@pytest.mark.parametrize("ordering, forged", [
    ("causal", [DataMessage(group="g", sender="zz", seq=5, payload="x", sent_at=0.0)]),
    ("total-agreed", [PriorityCommit(group="g", sender="a", msg_id=("zz", k), priority=k,
                                     tiebreak="a") for k in range(100)]),
    ("total-agreed", [CommitRequest(group="g", requester="a", msg_id=("zz", 1))]),
    ("total-agreed", [PriorityCommit(group="g", sender="a", msg_id=["a", 1], priority=1,
                                     tiebreak="a")]),
    ("total-seq", [OrderToken(group="g", sequencer="a", assignments=[(0, ("zz", 1))])]),
    ("causal", [Nak(group="g", requester="a", wanted=[("zz", 1)])]),
    ("hybrid-causal", [HybridRefetch(group="g", requester="a", wanted=[("zz", 1)])]),
    ("total-agreed", [PriorityCommit(group="g", sender="a", msg_id=("a", "1"), priority=1,
                                     tiebreak="a")]),
    ("total-agreed", [PriorityCommit(group="g", sender="a", msg_id=("a", 1, 2), priority=1,
                                     tiebreak="a")]),
    ("causal", [AckGossip(group="g", sender="zz", ack_vector={"a": 0}),
                AckQuery(group="g", sender="zz", ack_vector={"a": 0})]),
    ("total-agreed", [PriorityProposal(group="g", proposer="zz", msg_id=("b", 1), priority=5)]),
    ("total-seq", [OrderToken(group="g", sequencer="zz", assignments=[])]),
    ("total-agreed", [PriorityCommit(group="g", sender="zz", msg_id=("a", 1), priority=1,
                                     tiebreak="a")]),
    ("total-agreed", [PriorityCommit(group="g", sender="a", msg_id=("a", 1), priority=1,
                                     tiebreak="zz")]),
    ("hybrid-causal", [HybridAck(group="g", sender="zz", delivered={"a": 0})]),
    ("hybrid-causal", [HybridAck(group="g", sender="a", delivered={"zz": 3})]),
    ("hybrid-causal", [HybridRefill(group="g", sender="zz", msgs=[])]),
    ("causal", [BatchEnvelope(sender="zz", payloads=[])]),
], ids=["DataMessage", "PriorityCommit", "CommitRequest", "malformed-id", "OrderToken",
        "Nak", "HybridRefetch", "malformed-seq", "malformed-id-length", "AckGossip-sender",
        "PriorityProposal-proposer", "OrderToken-sequencer", "PriorityCommit-sender",
        "PriorityCommit-tiebreak", "HybridAck-sender", "HybridAck-delivered",
        "HybridRefill-sender", "BatchEnvelope-sender"])
def test_a_registered_sender_cannot_name_unknown_pids_in_message_ids(ordering, forged):
    """The registered pid ``a`` relays a message from ``zz``, a pid with no
    address, or names one of its ids in ordering or repair control, or
    names ``zz`` as the sender, proposer, sequencer or tiebreak of transport
    or ordering control; or it sends an id that is not a ``(pid, int)``
    pair.  Each datagram is a decode error, so b neither asserts nor NAKs
    towards ``zz``, keeps no state for it, and keeps no commit for an id
    nobody can have sent."""
    blobs = [codec.encode_datagram("a", payload) for payload in forged]
    delivered, net, stack, escaped = asyncio.run(_attacked_group(17, ordering, blobs))
    assert net.decode_errors == len(forged)
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["legit"]
    assert "zz" not in _pids_kept(stack)
    if ordering == "total-agreed":
        assert list(stack.ordering._commit_values) == [("a", 1)]


@pytest.mark.parametrize("ordering, request_", [
    ("causal", Nak(group="g", requester="zz", wanted=[("b", 1)])),
    ("total-agreed", CommitRequest(group="g", requester="zz", msg_id=("b", 1))),
    ("total-seq", OrderTokenRequest(group="g", requester="zz", from_index=0)),
    ("hybrid-causal", HybridRefetch(group="g", requester="zz", wanted=[("b", 1)])),
], ids=["Nak", "CommitRequest", "OrderTokenRequest", "HybridRefetch"])
def test_a_registered_sender_cannot_ask_for_replies_to_unknown_pids(ordering, request_):
    """The registered pid ``a`` asks b, on behalf of ``zz``, a pid with no
    address, for what b holds.  The request is a decode error, so b's reply
    never raises towards ``zz`` in the event loop.  Ack gossip slower than
    the run keeps b's message unstable, so b's stability buffer still holds
    it when the NAK arrives."""
    blob = codec.encode_datagram("a", request_)
    delivered, net, _, escaped = asyncio.run(
        _attacked_group(15, ordering, [blob], held="held", ack_period=5.0))
    assert net.decode_errors == 1
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["held", "legit"]


@pytest.mark.parametrize("ordering", ["causal", "total-seq", "hybrid-causal"])
def test_an_unstamped_message_is_dropped_before_dedup_counts_it(ordering):
    """The registered pid ``a`` sends a seq-1 message without the clock its
    stack stamps on every message.  The stack drops and counts it before
    dedup sees it, so nothing asserts in the loop and a's real seq-1
    multicast is not dropped as a duplicate."""
    forged = DataMessage(group="g", sender="a", seq=1, payload="forged", sent_at=0.0)
    blob = codec.encode_datagram("a", forged)
    delivered, net, stack, escaped = asyncio.run(_attacked_group(3, ordering, [blob]))
    assert escaped == []
    assert delivered == ["legit"]
    assert stack.unstamped_dropped == 1
    assert net.decode_errors == 0


@pytest.mark.parametrize("ordering, target, forged", [
    ("causal", "b", ViewInstall(group="g", coordinator="a", view_id=1,
                                members=("a", "b", "zz"))),
    ("causal", "a", JoinRequest(group="g", joiner="zz")),
    ("total-agreed", "b", ViewInstall(group="g", coordinator="a", view_id=1, members=("a", "b"),
                                      ordering_state={"commits": {("zz", 1): (5, "zz")}})),
    ("causal", "b", ViewInstall(group="g", coordinator="a", view_id=1, members=("a", "b"),
                                final_counts={"zz": 3})),
    ("causal", "b", Heartbeat(group="g", sender="zz", view_id=0)),
    ("causal", "a", LeaveAnnounce(group="g", sender="zz")),
    ("causal", "a", FlushAck(group="g", sender="zz", new_view_id=1, received_counts={})),
], ids=["ViewInstall-members", "JoinRequest", "ordering_state-commits", "final_counts",
        "Heartbeat-sender", "LeaveAnnounce-sender", "FlushAck-sender"])
def test_a_registered_sender_cannot_name_unknown_pids_in_membership(ordering, target, forged):
    """The registered pid ``a`` (or b, towards the coordinator a) names
    ``zz``, a pid with no address, in a view, a join, a flushed commit, a
    view's final counts, a heartbeat, a leave or a flush ack.  Each datagram
    is a decode error: no view with ``zz`` is installed, no flush goes
    towards it (which would suppress a's sends), no view change starts
    without it, no commit for its id is kept for good, the causal layer
    waives nothing for it, and b keeps no state for it."""
    src = "b" if target == "a" else "a"
    blob = codec.encode_datagram(src, forged)
    delivered, net, stack, escaped = asyncio.run(
        _attacked_group(18, ordering, [blob], target=target, membership=True))
    assert net.decode_errors == 1
    assert net.unknown_sender == 0
    assert escaped == []
    assert delivered == ["legit"]
    assert stack.member.view_id == 0 and stack.member.view_members == ("a", "b")
    assert "zz" not in _pids_kept(stack)
    if ordering == "total-agreed":
        assert list(stack.ordering._commit_values) == [("a", 1)]
    else:
        assert stack.ordering._ceiling is None


def test_stamps_for_unknown_groups_add_no_clock_domains():
    """A stamp decodes only into a domain its group already has on this
    host; one group name per forged datagram would otherwise grow the clock's
    domain registry by one each.  The datagrams claim the registered pid
    ``a``, so they pass the sender check and reach the payload."""
    forged = [
        DataMessage(group=f"forged{k}", sender="a", seq=1, payload="x", sent_at=0.0,
                    vc=ClockDomain(("a",)).clock({"a": 1}))
        for k in range(40)
    ]
    blobs = [codec.encode_datagram("a", payload) for payload in forged]
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
