"""A process-group member: the public CATOCS endpoint.

:class:`GroupMember` owns a composable :class:`~repro.catocs.stack.ProtocolStack`
(transport layers + one ordering discipline, composed by name — see
:mod:`repro.catocs.stack`) and exposes the API the CATOCS literature
advertises::

    member = GroupMember(sim, net, "p1", group="g", members=["p1","p2","p3"],
                         ordering="causal", on_deliver=handler)
    member.multicast({"kind": "update", ...})

``ordering`` accepts a discipline alias (``"causal"``, ``"total-seq"``, ...)
or a full stack spec such as ``"dedup|batch|stability|causal"``.  The member
talks to its layers through ``self.stack``.  Inbound traffic is routed
through the multiplexed :meth:`~repro.sim.process.Process.dispatch` hook:
one handler per wire-message family (data, transport control, ordering
control, membership) instead of an isinstance chain.

Delivery callbacks fire in the discipline's order.  Every member records
per-message delivery latency and delay-queue residency, the raw material for
the false-causality (E06) and overhead (E07) experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.catocs.messages import (
    BatchEnvelope,
    DataMessage,
    Heartbeat,
    MembershipControl,
    MsgId,
    OrderingControl,
    TransportControl,
)
from repro.catocs.stack import ProtocolStack, resolve_spec
from repro.catocs.transport import GroupTransport
from repro.ordering.causal_graph import CausalGraph
from repro.sim.kernel import Simulator
from repro.sim.network import Network, Packet
from repro.sim.process import Process
from repro.sim.trace import EventTrace

DeliverCallback = Callable[[str, Any, DataMessage], None]


class GroupInstrumentation:
    """Group-wide view of the Section 5 active causal graph.

    Shared by all members of one group.  ``on_send`` inserts each multicast
    with arcs to its direct causal predecessors (the latest unstable message
    from every sender its vector clock covers — the "N new arcs" of the
    paper's argument); ``on_stable`` removes messages once *some* member
    learns they are stable everywhere.
    """

    def __init__(self) -> None:
        self.graph = CausalGraph()

    def on_send(self, msg: DataMessage) -> None:
        predecessors = set()
        if msg.vc is not None:
            for pid in msg.vc:
                count = msg.vc[pid]
                if count >= 1 and pid != msg.sender:
                    predecessors.add((pid, count))
                elif pid == msg.sender and count >= 2:
                    predecessors.add((pid, count - 1))
        self.graph.add_message(msg.msg_id, predecessors, size=msg.size_bytes())

    def on_stable(self, msg_id: MsgId) -> None:
        # Every member reports each id once; the graph ignores all but the first.
        self.graph.stabilize(msg_id)

    def metrics(self) -> Dict[str, int]:
        return self.graph.metrics()


@dataclass(slots=True)
class DeliveryRecord:
    """One delivered application message, with its timing breakdown."""

    msg_id: MsgId
    sender: str
    payload: Any
    sent_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at


class GroupMember(Process):
    """One participant in a CATOCS process group."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        group: str,
        members: Sequence[str],
        ordering: str = "causal",
        on_deliver: Optional[DeliverCallback] = None,
        nak_delay: float = 5.0,
        ack_period: float = 20.0,
        instrumentation: Optional[GroupInstrumentation] = None,
        trace: Optional[EventTrace] = None,
    ) -> None:
        super().__init__(sim, network, pid)
        self.group = group
        self.view_id = 0
        self.view_members: Tuple[str, ...] = tuple(members)
        if pid not in self.view_members:
            raise ValueError(f"{pid} not in group membership {members}")
        self.on_deliver = on_deliver
        self.instrumentation = instrumentation
        self.trace = trace

        # Layer construction reads these off the member.
        self.nak_delay = nak_delay
        self.ack_period = ack_period
        #: Set by an attached BatchLayer; intercepts ``send``.
        self._batcher = None

        self.stack = ProtocolStack(self, resolve_spec(ordering))
        self.ordering = self.stack.ordering
        self.ordering_name = self.ordering.name
        #: the six counters perfbench reads; everything else uses the stack
        self.transport = GroupTransport(self.stack)
        stability = self.stack.layer("stability")
        if instrumentation is not None and stability is not None:
            stability.stable_hooks.append(instrumentation.on_stable)

        self._next_seq = 0
        self.delivered: List[DeliveryRecord] = []
        self.multicasts_sent = 0
        self.control_sent = 0

        # View-change send suppression (Section 5: membership protocols
        # "suppress the sending of new messages").
        self.suppressed = False
        self._suppress_queue: List[Any] = []
        self._suppressed_since: Optional[float] = None
        self.total_suppressed_time = 0.0

        # Liveness beliefs, maintained by an attached failure detector.
        self._suspected: set = set()
        self.membership = None  # attached by ViewManager, if any
        self.failure_detector = None  # attached by HeartbeatDetector, if any
        #: the attached detector's ``last_heard``, which every inbound
        #: packet refreshes for its sender; None without a detector
        self.last_heard: Optional[Dict[str, float]] = None

        # Inbound routing: one handler per wire-message family.  Dispatch
        # walks the payload's MRO, so the exact Heartbeat registration wins
        # over the MembershipControl base registration.
        self.add_message_handler(DataMessage, self._on_data_message)
        self.add_message_handler(BatchEnvelope, self._on_batch)
        self.add_message_handler(TransportControl, self._on_transport_control)
        self.add_message_handler(OrderingControl, self._on_ordering_control)
        self.add_message_handler(Heartbeat, self._on_heartbeat)
        self.add_message_handler(MembershipControl, self._on_membership_control)

        # Observability: per-member ordering traffic, evaluated lazily.
        registry = sim.metrics
        registry.gauge_fn("ordering.control_sent", lambda: self.control_sent,
                          discipline=self.ordering_name, pid=pid)
        registry.gauge_fn("ordering.multicasts_sent", lambda: self.multicasts_sent,
                          discipline=self.ordering_name, pid=pid)
        registry.gauge_fn("ordering.delivered", lambda: len(self.delivered),
                          discipline=self.ordering_name, pid=pid)
        self.stack.register_metrics()

    # -- public API ---------------------------------------------------------------

    def multicast(self, payload: Any) -> Optional[MsgId]:
        """Multicast ``payload`` to the group under the configured ordering.

        Returns the message id, or None if the member is crashed or the send
        was queued behind a view change.
        """
        if not self.alive:
            return None
        if self.suppressed:
            self._suppress_queue.append(payload)
            return None
        return self._do_multicast(payload)

    def delivered_payloads(self) -> List[Any]:
        """Payloads in delivery order (the observable the anomaly checks use)."""
        return [record.payload for record in self.delivered]

    def sequencer_pid(self) -> str:
        """The fixed sequencer / view coordinator: lowest live-believed pid."""
        candidates = [p for p in self.view_members if p not in self._suspected]
        return min(candidates) if candidates else min(self.view_members)

    def believes_alive(self, pid: str) -> bool:
        return pid not in self._suspected

    def suspect(self, pid: str) -> None:
        self._suspected.add(pid)

    def unsuspect(self, pid: str) -> None:
        self._suspected.discard(pid)

    # -- sending internals -----------------------------------------------------------

    def send(self, dst: str, payload: Any) -> None:
        """Point-to-point send, interceptable by an attached batch layer."""
        if self._batcher is not None and self.alive:
            self._batcher.enqueue(dst, payload)
            return
        super().send(dst, payload)

    def send_peers(self, payload: Any) -> int:
        """Send one payload to every other member of the view, in view
        order; returns how many that is.  The fan-out every layer uses:
        an attached batch layer still sees one enqueue per peer, and
        otherwise the network sizes (or encodes) the payload once."""
        peers = [pid for pid in self.view_members if pid != self.pid]
        if self._batcher is not None and self.alive:
            for pid in peers:
                self._batcher.enqueue(pid, payload)
        else:
            self.send_many(peers, payload)
        return len(peers)

    def _do_multicast(self, payload: Any) -> MsgId:
        self._next_seq += 1
        msg = DataMessage(
            group=self.group,
            sender=self.pid,
            seq=self._next_seq,
            payload=payload,
            sent_at=self.sim.now,
            view_id=self.view_id,
        )
        self.ordering.stamp(msg)
        if self.instrumentation is not None:
            self.instrumentation.on_send(msg)
        if self.trace is not None:
            self.trace.record(self.sim.now, self.pid, "send", _label(payload), msg.msg_id)
        self.multicasts_sent += 1
        self.stack.broadcast(msg)
        self.ordering.accept_local(msg)
        self.deliver_ready()
        return msg.msg_id

    def send_control(self, dst: str, payload: Any) -> None:
        self.control_sent += 1
        self.send(dst, payload)

    def broadcast_control(self, payload: Any) -> None:
        self.control_sent += self.send_peers(payload)

    # -- receiving ----------------------------------------------------------------------

    def _receive_packet(self, packet: Packet) -> None:
        # Any packet is liveness evidence for its sender: one store, and
        # none without a detector.
        last_heard = self.last_heard
        if last_heard is not None:
            last_heard[packet.src] = self.sim.now
        self.dispatch(packet.src, packet.payload)

    def _on_data_message(self, src: str, payload: DataMessage) -> None:
        if payload.attached:
            # Process piggybacked predecessors first: the carrier's
            # dependencies are then locally satisfied, so no delay.
            for attachment in payload.attached:
                self._ingest_data(src, attachment)
        self._ingest_data(src, payload)

    def _on_batch(self, src: str, payload: BatchEnvelope) -> None:
        # Unpack and route each coalesced payload as if it arrived alone.
        for inner in payload.payloads:
            self.dispatch(src, inner)

    def _on_transport_control(self, src: str, payload: Any) -> None:
        self.stack.on_control(src, payload)

    def _on_ordering_control(self, src: str, payload: Any) -> None:
        self.ordering.on_control(src, payload)
        self.deliver_ready()

    def _on_heartbeat(self, src: str, payload: Heartbeat) -> None:
        if self.failure_detector is not None:
            self.failure_detector.handle_heartbeat(payload)
        if self.membership is not None:
            self.membership.on_heartbeat(src, payload)

    def _on_membership_control(self, src: str, payload: Any) -> None:
        if self.membership is not None:
            self.membership.handle(self, src, payload)

    def _ingest_data(self, src: str, msg: DataMessage) -> None:
        fresh = self.stack.receive_data(src, msg)
        if fresh is None:
            return
        if self.trace is not None:
            self.trace.record(
                self.sim.now, self.pid, "recv", _label(fresh.payload), fresh.msg_id
            )
        self.ordering.insert(fresh)
        self.deliver_ready()

    def on_app_message(self, src: str, payload: Any) -> None:
        """Hook for non-group point-to-point traffic (hidden channels etc.)."""

    def on_message(self, src: str, payload: Any) -> None:
        # Everything protocol-level is claimed by a registered handler;
        # whatever falls through is application traffic.
        self.on_app_message(src, payload)

    def deliver_ready(self) -> None:
        """Deliver what the ordering layer releases, one message at a time:
        the application sees each message before the layer accounts the next
        (see ``OrderingLayer.release_next`` for why this matters).  Runs
        after every event that can make a message deliverable."""
        release_next = self.ordering.release_next
        msg = release_next()
        while msg is not None:
            self.delivered.append(DeliveryRecord(
                msg_id=msg.msg_id,
                sender=msg.sender,
                payload=msg.payload,
                sent_at=msg.sent_at,
                delivered_at=self.sim.now,
            ))
            if self.trace is not None:
                self.trace.record(self.sim.now, self.pid, "deliver", _label(msg.payload),
                                  msg.msg_id)
            if self.on_deliver is not None:
                self.on_deliver(msg.sender, msg.payload, msg)
            msg = release_next()

    # -- membership hooks ------------------------------------------------------------------

    def on_view_installed(self, install: Any) -> None:
        """Called after a new view is adopted; refresh the stack's membership."""
        self.stack.membership_changed(self.view_members)

    # -- view-change send suppression ------------------------------------------------------

    def suppress_sends(self) -> None:
        if self.suppressed:
            return
        self.suppressed = True
        self._suppressed_since = self.sim.now

    def resume_sends(self) -> None:
        if not self.suppressed:
            return
        self.suppressed = False
        if self._suppressed_since is not None:
            self.total_suppressed_time += self.sim.now - self._suppressed_since
            self._suppressed_since = None
        queued, self._suppress_queue = self._suppress_queue, []
        for payload in queued:
            self._do_multicast(payload)

    # -- metrics --------------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The member's own counters, then every transport layer's
        ``layer_metrics()``, bottom to top."""
        data = {
            "pid": self.pid,
            "ordering": self.ordering_name,
            "multicasts_sent": self.multicasts_sent,
            "control_sent": self.control_sent,
            "delivered": len(self.delivered),
            "pending": self.ordering.pending(),
            "peak_pending": self.ordering.peak_pending,
            "total_hold_time": self.ordering.total_hold_time(),
            "suppressed_time": self.total_suppressed_time,
        }
        for layer in self.stack.layers[:-1]:
            data.update(layer.layer_metrics())
        return data


def _label(payload: Any) -> str:
    """Short human label for trace diagrams."""
    if isinstance(payload, dict):
        for key in ("label", "kind", "type", "op"):
            if key in payload:
                return str(payload[key])
    text = str(payload)
    return text if len(text) <= 30 else text[:29] + "~"
