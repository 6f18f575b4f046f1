"""Unit tests for the network model."""

import collections
import dataclasses
import enum
from dataclasses import InitVar, dataclass
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import size_model
from repro.apps.netnews import Article
from repro.apps.nameservice import Binding, GossipDigest
from repro.catocs.messages import (
    AckGossip, BatchEnvelope, DataMessage, Heartbeat, wire_classes,
)
from repro.ordering import ClockDomain, MatrixClock
from repro.sim import LinkModel, Network, Process, Simulator, network
from repro.sim.network import Packet, estimate_size


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


# -- the byte model: the per-type table against the walk it replaced ----------


@dataclass
class Plain:
    a: object
    b: object = None


@dataclass(slots=True)
class Slotted:
    a: object
    b: object = None


class Hooked:
    """Class-level hook; the attribute it also carries must not be walked."""

    def __init__(self, n):
        self.n = n

    def size_bytes(self):
        return 4242 + self.n


class Pid(str):
    """A ``str`` subclass with a hook: as a dict key it is not 'just a str'."""

    def size_bytes(self):
        return 3


class Bag(list):
    """A builtin subclass whose instances carry a ``__dict__``."""


class Answers:
    """Programmable lookup: whether an instance has ``size_bytes`` is its own
    business, so the type may never be memoised."""

    def __init__(self, hooked):
        self.hooked = hooked

    def __getattr__(self, name):
        if name == "size_bytes" and self.hooked:
            return lambda: 99
        raise AttributeError(name)


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


Point = collections.namedtuple("Point", "x y")


def _instance_hook(value):
    obj = Plain(value)
    obj.size_bytes = lambda: 77
    return obj


def _gains_an_attribute(obj):
    obj.extra = "more than the class declared"
    return obj


def _loses_an_attribute(obj):
    del obj.b
    return obj


def _bag_with_hook(items):
    bag = Bag(items)
    bag.size_bytes = lambda: 5
    return bag


_TEXT = st.one_of(
    st.sampled_from(["", "p0", "member-17", "é", "日本", "\ud800", "a\udfffb"]),
    st.text(st.characters(exclude_categories=()), max_size=6),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    _TEXT, st.binary(max_size=6), st.sampled_from(list(Colour)),
)
_KEYS = st.recursive(
    st.one_of(_SCALARS, _TEXT.map(Pid)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
        st.tuples(inner, inner).map(lambda xy: Point(*xy)),
    ),
    max_leaves=4,
)


def _containers(inner):
    dicts = st.one_of(
        st.dictionaries(_TEXT, inner, max_size=5),               # ack-vector shaped
        st.dictionaries(_TEXT, st.integers() | st.floats(), max_size=5),
        st.dictionaries(_TEXT, st.integers() | st.booleans(), max_size=5),
        st.dictionaries(_KEYS, inner, max_size=4),               # non-str, mixed
    )
    return st.one_of(
        dicts,
        dicts.map(lambda d: collections.defaultdict(list, d)),
        dicts.map(collections.OrderedDict),
        st.dictionaries(_KEYS, st.integers(0, 9), max_size=4).map(collections.Counter),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(Bag),
        st.lists(inner, max_size=2).map(_bag_with_hook),
        st.sets(_KEYS, max_size=4),
        st.frozensets(_KEYS, max_size=4),
        st.builds(Plain, inner, inner),      # vars() holding other objects
        st.builds(Plain, inner, inner).map(_gains_an_attribute),
        st.builds(Plain, inner, inner).map(_loses_an_attribute),
        st.builds(Slotted, inner, inner),
        st.builds(Hooked, st.integers(0, 9)),
        inner.map(_instance_hook),
        st.builds(Answers, st.booleans()),
    )


_PAYLOADS = st.recursive(st.one_of(_SCALARS, _KEYS), _containers, max_leaves=12)


def _forget_learned_types():
    """Empty the table of everything but its builtin seed, so the next call
    classifies again (the table is a pure memo: dropping it loses nothing)."""
    network._SIZERS.clear()
    network._SIZERS.update(network._SHAPES)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_estimate_size_matches_the_walk(payload):
    want = size_model.estimate_size(payload)
    _forget_learned_types()
    assert estimate_size(payload) == want  # every type classified afresh
    assert estimate_size(payload) == want  # table warm


def _wire_instance(cls, pids):
    """One instance of a wire class with every field set, clocks and count
    maps over ``pids``."""
    counts = {pid: 3 * i for i, pid in enumerate(pids)}
    data = DataMessage("group", pids[0], 7, {"k": "v"}, 1.5, view_id=2,
                       vc=ClockDomain(tuple(pids)).clock(counts), ack_vector=dict(counts))
    ids = [(pid, i) for i, pid in enumerate(pids)]
    by_field = {
        "group": "group", "sender": pids[0], "requester": pids[1], "sequencer": pids[0],
        "proposer": pids[1], "joiner": "newcomer", "coordinator": pids[0], "tiebreak": pids[2],
        "seq": 7, "payload": {"k": "v"}, "sent_at": 1.5, "view_id": 2, "new_view_id": 3,
        "from_index": 11, "priority": 5, "retransmit": True,
        "vc": data.vc, "ack_vector": dict(counts), "delivered": dict(counts),
        "received_counts": dict(counts), "final_counts": dict(counts),
        "msg_id": ids[0], "wanted": ids, "assignments": list(enumerate(ids)),
        "proposed_members": tuple(pids), "members": tuple(pids),
        "msg": data, "attached": [data], "unstable": [data, data], "msgs": [data],
        "payloads": [data, Heartbeat("group", pids[0], 2), "tail"],
        "ordering_state": {"commits": {ids[0]: (5, pids[2])}, "next": 4, "open": False},
    }
    return cls(**{f.name: by_field[f.name] for f in dataclasses.fields(cls)})


@pytest.mark.parametrize("n", [3, 24, 64])
def test_every_wire_class_sizes_as_the_walk_says(n):
    pids = [f"m{i}" for i in range(n)]
    wire = [_wire_instance(cls, pids) for cls in wire_classes()]
    assert any(isinstance(m, BatchEnvelope) and len(m.payloads) == 3 for m in wire)
    bindings = {f"name-{i}": Binding(f"name-{i}", f"host-{i}", 0.5 * i, pids[i % n])
                for i in range(100)}
    others = [
        Article("<1@a>", "comp.dcs", "response", references=("<0@b>", "<0@c>"), posted_at=2.0),
        GossipDigest(pids[0], bindings),
    ]
    for payload in wire + others:
        assert estimate_size(payload) == size_model.estimate_size(payload), type(payload)


@pytest.mark.parametrize("pids", [["a", "bb", "ccc"], ["é", "日本", "\ud800x"],
                                  [f"m{i}" for i in range(64)]])
def test_clocks_and_data_messages_cost_the_per_pid_sum(pids):
    # The walk defers to size_bytes(), so the hand-written sums that now
    # share counts_size are held to the expression they were written as.
    per_pid = sum(8 + len(pid.encode("utf-8", "replace")) for pid in pids)
    counts = {pid: i for i, pid in enumerate(pids)}
    dense = ClockDomain(tuple(pids)).clock(counts)
    assert dense.size_bytes() == per_pid
    assert MatrixClock(pids).size_bytes() == len(pids) * per_pid
    inner = DataMessage("g", pids[0], 1, "body", 0.0, ack_vector=counts)
    outer = DataMessage("g", pids[0], 2, [1, 2], 0.0, vc=dense, ack_vector=counts,
                        attached=[inner])
    assert inner.size_bytes() == 24 + 4 + per_pid
    assert outer.size_bytes() == 24 + (8 + 16) + 2 * per_pid + inner.size_bytes()


def test_slotted_instance_sizes_as_its_unslotted_twin():
    # Used to be 8 bytes whatever it carried: no __dict__ to walk.
    for fields in [(1, None), ("pid", {"a": 1, "b": 2}), ([1.5, "x"], Plain(b"abc"))]:
        assert estimate_size(Slotted(*fields)) == estimate_size(Plain(*fields)) > 16
    assert estimate_size(Slotted(7)) == 8 + 8 + (1 + 8) + (1 + 1)

    class Sparse:
        __slots__ = ("kept", "never_set")

        def __init__(self):
            self.kept = "xy"

    assert estimate_size(Sparse()) == 8 + 8 + (4 + 2)
    assert estimate_size(object()) == estimate_size(len) == 8  # neither dict nor slots


def test_dataclass_names_are_priced_once_and_only_while_they_hold():
    @dataclass
    class Record:
        kind: ClassVar[str] = "never in vars()"
        scale: InitVar[int]
        pid: str
        count: int = 0
        flag: bool = False

        def __post_init__(self, scale):
            self.count *= scale

    _forget_learned_types()
    plain = Record(3, "é", 2)
    assert estimate_size(plain) == 16 + (3 + 5 + 4) + (2 + 8 + 1)
    assert network._SIZERS[Record].func is network._size_record  # not _size_instance
    grown, shrunk, hooked = Record(3, "é", 2), Record(3, "é", 2), Record(3, "é", 2)
    grown.scale = 3
    del shrunk.flag
    hooked.size_bytes = lambda: 77
    for obj in (plain, grown, shrunk):
        assert estimate_size(obj) == size_model.estimate_size(obj)
    assert estimate_size(grown) - estimate_size(plain) == 5 + 8
    assert estimate_size(plain) - estimate_size(shrunk) == 4 + 1
    assert estimate_size(hooked) == 77


def test_instance_level_hook_wins_whatever_the_shape():
    assert estimate_size(_instance_hook("ignored")) == 77
    assert estimate_size(Plain("ignored")) != 77  # same type, asked again
    assert estimate_size(_bag_with_hook([1, 2, 3])) == 5
    assert estimate_size(Bag([1, 2, 3])) == 8 + 24
    assert estimate_size(Answers(True)) == 99
    assert estimate_size(Answers(False)) == 8 + 8 + (6 + 1)
    assert Answers not in network._SIZERS and Bag in network._SIZERS


def test_a_surrogate_pid_is_a_number_on_every_path():
    # One error policy: "replace" everywhere, so accounting never raises and
    # the control path and the data path agree (8 for the counter + 1 for "?").
    pid = "\ud800"
    counts = {pid: 4}
    clock = ClockDomain((pid,)).clock(counts)
    assert clock.size_bytes() == 9
    assert MatrixClock([pid]).size_bytes() == 9
    bare = DataMessage("g", "s", 1, None, 0.0)
    stamped = DataMessage("g", "s", 1, None, 0.0, vc=clock, ack_vector=counts)
    assert stamped.size_bytes() - bare.size_bytes() == 9 + 9
    gossip = AckGossip("g", "s", counts)
    assert estimate_size(gossip) - estimate_size(AckGossip("g", "s", {})) == 9
    assert estimate_size(gossip) == size_model.estimate_size(gossip)


# -- the envelope path against the code it was leaned down from ---------------


class ReferenceNetwork(Network):
    """``send``/``_deliver`` as they stood at 23bd898: keyword-built packet,
    ``connected()`` asked unconditionally, the link model asked through
    ``sample_drop``/``sample_latency``."""

    def send(self, src, dst, payload, size=None):
        if dst not in self._processes:
            raise KeyError(f"unknown destination: {dst}")
        if size is None:
            size = size_model.estimate_size(payload)
        packet = Packet(packet_id=next(self._packet_ids), src=src, dst=dst,
                        payload=payload, send_time=self.sim.now, size=size)
        self.stats.sent += 1
        self.stats.bytes_sent += size
        key = (src, dst)
        if not self.connected(src, dst):
            return self._drop(packet, "partitioned", self._m_drop_partition)
        model = self._links.get(key, self.default_link)
        if model.sample_drop(self.sim.rng):
            return self._drop(packet, "dropped", self._m_drop_loss)
        arrival = self.sim.now + model.sample_latency(self.sim.rng)
        if model.fifo:
            arrival = max(arrival, self._fifo_clock.get(key, 0.0))
            self._fifo_clock[key] = arrival
            packet.link_epoch = self._link_epoch.get(key, 0)
        hist = self._latency_hists.get(key)
        if hist is None:
            hist = self.sim.metrics.histogram("net.link_latency", src=src, dst=dst)
            self._latency_hists[key] = hist
        hist.observe(arrival - self.sim.now)
        self.sim.call_at(arrival, self._deliver, packet)
        return packet

    def _deliver(self, packet):
        if (packet.link_epoch is not None and packet.link_epoch
                != self._link_epoch.get((packet.src, packet.dst), 0)):
            return self._drop(packet, "reset", self._m_drop_reset)
        process = self._processes.get(packet.dst)
        if process is None or not process.alive:
            return self._drop(packet, "to_crashed", self._m_drop_crashed)
        if not self.connected(packet.src, packet.dst):
            return self._drop(packet, "partitioned", self._m_drop_in_flight)
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.size
        process._receive_packet(packet)

    def _drop(self, packet, stat, counter):
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        counter.inc()
        self._on_drop(packet)


_NODES = "abcd"
_LINKS = st.builds(
    LinkModel,
    latency=st.sampled_from([0.0, 0.1, 1.7]),  # not dyadic: float order shows
    jitter=st.sampled_from([0.0, 0.0, 0.7, 3.3]),
    drop_prob=st.sampled_from([0.0, 0.0, 0.3, 1.0]),
    fifo=st.booleans(),
)
_NODE = st.sampled_from(_NODES)
_STEPS = st.one_of(
    st.tuples(st.just("send"), _NODE, _NODE, st.integers(0, 3)),
    st.tuples(st.just("send"), _NODE, _NODE, st.integers(0, 3)),
    st.tuples(st.just("multicast"), _NODE, st.lists(_NODE, max_size=4), st.integers(0, 3)),
    st.tuples(st.just("send"), _NODE, st.just("nobody"), st.just(0)),
    st.tuples(st.just("partition"), st.sets(_NODE), st.sets(_NODE)),
    st.tuples(st.just("heal")),
    st.tuples(st.just("crash"), _NODE),
    st.tuples(st.just("recover"), _NODE),
    st.tuples(st.just("run"), st.sampled_from([0.3, 1.1, 4.7])),
)
_ENVELOPE_PAYLOADS = ("x", {"k": [1, 2.0, None]}, AckGossip("g", "a", {"a": 1, "b": 2}),
                      DataMessage("g", "a", 1, "body", 0.0, ack_vector={"a": 1}))


class _World:
    def __init__(self, network_cls, seed, default, links):
        self.sim = Simulator(seed=seed)
        self.net = network_cls(self.sim, default)
        self.nodes = {pid: PacketLog(self.sim, self.net, pid) for pid in _NODES}
        for (src, dst), model in links.items():
            self.net.set_link(src, dst, model)
        self.drops = []
        self.net.drop_hooks.append(lambda p: self.drops.append(
            (self.sim.now, p.packet_id, p.src, p.dst, p.size, p.link_epoch)))

    def step(self, op, *args):
        net = self.net
        if op == "send":
            src, dst, which = args
            try:
                packet = net.send(src, dst, _ENVELOPE_PAYLOADS[which])
            except KeyError as exc:
                return str(exc)
            return packet and (packet.packet_id, packet.send_time, packet.size, packet.link_epoch)
        if op == "multicast":
            src, dsts, which = args
            return net.multicast(src, dsts, _ENVELOPE_PAYLOADS[which])
        if op == "partition":
            return net.partition(*args)
        if op == "heal":
            return net.heal()
        if op in ("crash", "recover"):
            return getattr(self.nodes[args[0]], op)()
        return self.sim.run(until=self.sim.now + args[0])

    def observed(self):
        return {
            "stats": self.net.stats.snapshot(),
            "rng": self.sim.rng.getstate(),
            "now": self.sim.now,
            "arrivals": {pid: node.packets for pid, node in self.nodes.items()},
            "drops": self.drops,
            "metrics": self.sim.metrics.snapshot(),  # drop causes, link_latency histograms
        }


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), default=_LINKS,
       links=st.dictionaries(st.tuples(_NODE, _NODE), _LINKS, max_size=4),
       program=st.lists(_STEPS, max_size=40))
def test_send_matches_the_reference_envelope(seed, default, links, program):
    real = _World(Network, seed, default, links)
    reference = _World(ReferenceNetwork, seed, default, links)
    for step in program + [("run", 50.0)]:
        assert real.step(*step) == reference.step(*step)
        assert real.observed() == reference.observed()
