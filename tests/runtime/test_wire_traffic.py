"""What the stacks send fits the wire, and decodes to what was sent.

Every stack runs in the simulator on a network that puts each payload
through ``encode_datagram``/``decode_datagram`` on its way and hands the
receiver the decoded copy, under loss, a view change and a crash.  A
message the codec cannot hold (a ``DataMessage`` field outside its one
layout, an unregistered class) or one that decodes to anything but itself
fails the run.  The kinds of traffic only loss, membership, batching,
piggybacking or an overflowing hybrid buffer produce are counted, so the
test cannot pass on traffic that never exercised them.
"""

from collections import Counter
from functools import partial

from repro.catocs import DISCIPLINES, build_group
from repro.catocs.messages import (
    BatchEnvelope,
    DataMessage,
    FlushAck,
    HybridRefill,
    ProposalRequest,
    ViewInstall,
)
from repro.ordering.dense import group_domain
from repro.runtime import codec
from repro.sim import FailureInjector, LinkModel, Network, Simulator

PIDS = ("p0", "p1", "p2", "p3")
SPECS = tuple(DISCIPLINES) + ("dedup|stability|piggyback|causal",)


class WireNetwork(Network):
    """A simulator network whose every payload crosses the wire codec, read
    by a host that accepts the group's pids."""

    def __init__(self, sim: Simulator, link: LinkModel) -> None:
        super().__init__(sim, link)
        self.seen: Counter = Counter()

    def send(self, src, dst, payload, size=None):
        blob = codec.encode_datagram(src, payload)
        decoded_src, decoded = codec.decode_datagram(
            blob, partial(group_domain, self.sim), PIDS)
        assert decoded_src == src and decoded == payload, (payload, decoded)
        self._note(decoded)
        return super().send(src, dst, decoded, size)

    def _note(self, payload) -> None:
        kind = type(payload)
        if kind is DataMessage:
            self.seen["repair copy"] += payload.retransmit
            self.seen["attachment"] += bool(payload.attached)
        elif kind is BatchEnvelope:
            self.seen["BatchEnvelope"] += 1
            for inner in payload.payloads:
                self._note(inner)
        elif kind is ProposalRequest:
            self.seen["ProposalRequest.msg"] += 1
        elif kind is FlushAck:
            self.seen["FlushAck"] += 1
        elif kind is ViewInstall:
            self.seen["ViewInstall.ordering_state"] += bool(payload.ordering_state)
        elif kind is HybridRefill:
            self.seen["HybridRefill.msgs"] += bool(payload.msgs)


def _run(spec: str, seen: Counter) -> None:
    sim = Simulator(seed=5)
    net = WireNetwork(sim, LinkModel(latency=5.0, jitter=2.0, drop_prob=0.1))
    members = build_group(sim, net, PIDS, group="g", ordering=spec, with_membership=True,
                          heartbeat_period=8.0, heartbeat_timeout=28.0)
    if spec == "hybrid-causal":
        for member in members.values():
            member.ordering.buffer_bound = 2  # overflow to stubs, refetch the bodies
    for k in range(60):
        sender = members[PIDS[k % 3]]  # p3 crashes; the rest keep sending
        sim.call_at(3.0 + 4.0 * k, sender.multicast, f"m{k}")
    FailureInjector(sim, net).crash_at(120.0, "p3")
    sim.run(until=900)
    assert all(member.view_members == PIDS[:3] for member in members.values() if member.alive)
    seen.update(net.seen)


def test_every_stack_sends_only_what_the_wire_codec_carries():
    seen: Counter = Counter()
    for spec in SPECS:
        _run(spec, seen)
    for kind in ("repair copy", "ProposalRequest.msg", "FlushAck", "ViewInstall.ordering_state",
                 "BatchEnvelope", "attachment", "HybridRefill.msgs"):
        assert seen[kind] > 0, (kind, seen)
