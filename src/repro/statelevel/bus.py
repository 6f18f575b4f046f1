"""The Information Bus: a state-level publish/subscribe framework.

The paper's conclusion sketches the alternative architecture: "the ideal
framework should be a state-level framework, not a communication-level one
... Objects are state-level entities so object systems are focused on the
state level techniques, with communication being incidental to their
implementation."  Its companion system is The Information Bus [23] (Oki,
Pfleugl, Siegel, Skeen — same SOSP), built at Teknekron for exactly the
trading floors Section 4.1 describes.

This module implements the core of that model on the simulation substrate:

- **subject-based addressing**: publishers label data objects with subjects
  ("eq.IBM.option"); subscribers express interest in subjects or subject
  prefixes ("eq.IBM.*", "*").  Neither side names processes.
- **versioned data objects**: every published object is a
  :class:`~repro.statelevel.dependency.Stamped` — id, version, dependency
  fields — so *state* carries the ordering, and delivery order is
  deliberately unconstrained (plain datagrams).
- **consistent caches at the edge**: each subscriber owns a
  :class:`~repro.statelevel.dependency.DependencyTracker`; callbacks are
  told whether each arriving object is current, superseded, or awaiting a
  fresher base — the generic utilities applications specialise.
- **request/reply**: a subject may have a responder; requests carry a reply
  subject, the idiom the Information Bus used for service invocation.

There is no ordering protocol anywhere in this file — that is the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import Simulator
from repro.sim.network import Network, estimate_size
from repro.sim.process import Process
from repro.statelevel.dependency import DependencyTracker, Stamped


def subject_matches(pattern: str, subject: str) -> bool:
    """Dotted-subject matching: segments must match, ``*`` matches one
    segment, a trailing ``>`` matches any remainder."""
    if pattern == subject:
        return True
    pattern_parts = pattern.split(".")
    subject_parts = subject.split(".")
    for index, part in enumerate(pattern_parts):
        if part == ">":
            return True
        if index >= len(subject_parts):
            return False
        if part != "*" and part != subject_parts[index]:
            return False
    return len(pattern_parts) == len(subject_parts)


@dataclass
class Publication:
    """A data object on the bus."""

    subject: str
    datum: Stamped
    publisher: str

    def size_bytes(self) -> int:
        return len(self.subject) + 16 + estimate_size(self.datum)


@dataclass
class BusRequest:
    subject: str
    payload: Any
    reply_subject: str
    requester: str
    request_id: int


#: callback(subject, datum, status) — status is the DependencyTracker verdict
SubscribeCallback = Callable[[str, Stamped, str], None]


class BusNode(Process):
    """One participant on the Information Bus.

    The bus itself is modelled as full-mesh datagram distribution: a
    publication is sent to every other node, and each node filters against
    its local subscriptions.  (The real system used network multicast;
    the distribution mechanism is explicitly *incidental* here.)
    """

    def __init__(self, sim: Simulator, network: Network, pid: str,
                 peers: Sequence[str]) -> None:
        super().__init__(sim, network, pid)
        self.peers = [p for p in peers if p != pid]
        self._subscriptions: List[Tuple[str, SubscribeCallback]] = []
        self._responders: Dict[str, Callable[[Any], Any]] = {}
        self._reply_waiters: Dict[str, Callable[[Any], None]] = {}
        self._ids = itertools.count(1)
        #: one consistent cache per node — the edge state the paper wants
        self.tracker = DependencyTracker()
        self.published = 0
        self.received = 0

        # Observability: per-node traffic gauges plus offer-status counters
        # (current/superseded/awaiting — the edge-cache consistency signal).
        registry = sim.metrics
        registry.gauge_fn("bus.published", lambda: self.published, pid=pid)
        registry.gauge_fn("bus.received", lambda: self.received, pid=pid)
        self._m_requests = registry.counter("bus.requests", pid=pid)
        self._m_replies = registry.counter("bus.replies", pid=pid)
        self._offer_counters: Dict[str, Any] = {}
        self._metrics_registry = registry

    # -- publish/subscribe ----------------------------------------------------------

    def publish(self, subject: str, datum: Stamped) -> None:
        """Publish a versioned data object under a subject."""
        publication = Publication(subject=subject, datum=datum, publisher=self.pid)
        self.published += 1
        self._local_deliver(publication)
        for peer in self.peers:
            self.send(peer, publication)

    def subscribe(self, pattern: str, callback: SubscribeCallback) -> None:
        """Receive every publication whose subject matches ``pattern``."""
        self._subscriptions.append((pattern, callback))

    def snapshot(self, object_id: str) -> Optional[Stamped]:
        """Latest locally-known version of an object (edge cache read)."""
        return self.tracker.latest(object_id)

    def consistent_view(self) -> Dict[str, Stamped]:
        return self.tracker.consistent_view()

    def advertise(self, subject: str, source: Callable[[], Stamped],
                  period: float) -> None:
        """Republish ``source()`` every ``period`` — the periodic-refresh
        idiom (Section 4.6's "sensors transmitting periodic updates").

        With versioned objects, refresh makes the bus loss-tolerant without
        acknowledgements: a dropped publication is simply superseded by the
        next refresh, and stale refreshes are discarded at the edge.
        """

        def tick() -> None:
            datum = source()
            if datum is not None:
                self.publish(subject, datum)
            self.set_timer(period, tick)

        self.set_timer(period, tick)

    # -- request/reply ----------------------------------------------------------------

    def respond(self, subject: str, handler: Callable[[Any], Any]) -> None:
        """Register this node as the responder for a request subject."""
        self._responders[subject] = handler

    def request(self, subject: str, payload: Any,
                on_reply: Callable[[Any], None]) -> None:
        """Send a request to whichever node responds on ``subject``."""
        request_id = next(self._ids)
        self._m_requests.inc()
        reply_subject = f"_reply.{self.pid}.{request_id}"
        self._reply_waiters[reply_subject] = on_reply
        message = BusRequest(subject=subject, payload=payload,
                             reply_subject=reply_subject,
                             requester=self.pid, request_id=request_id)
        local = self._responders.get(subject)
        if local is not None:
            self._answer(message, local)
            return
        for peer in self.peers:
            self.send(peer, message)

    # -- plumbing ------------------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Publication):
            self.received += 1
            self._local_deliver(payload)
            return
        if isinstance(payload, BusRequest):
            handler = self._responders.get(payload.subject)
            if handler is not None:
                self._answer(payload, handler)
            return

    def _answer(self, request: BusRequest, handler: Callable[[Any], Any]) -> None:
        self._m_replies.inc()
        result = handler(request.payload)
        reply = Publication(
            subject=request.reply_subject,
            datum=Stamped(object_id=request.reply_subject, version=1, value=result),
            publisher=self.pid,
        )
        if request.requester == self.pid:
            self._local_deliver(reply)
        else:
            self.send(request.requester, reply)

    def _local_deliver(self, publication: Publication) -> None:
        waiter = self._reply_waiters.pop(publication.subject, None)
        if waiter is not None:
            waiter(publication.datum.value)
            return
        status = self.tracker.offer(publication.datum)
        counter = self._offer_counters.get(status)
        if counter is None:
            counter = self._metrics_registry.counter("bus.offers", status=status)
            self._offer_counters[status] = counter
        counter.inc()
        for pattern, callback in self._subscriptions:
            if subject_matches(pattern, publication.subject):
                callback(publication.subject, publication.datum, status)


def build_bus(sim: Simulator, network: Network, pids: Sequence[str]) -> Dict[str, BusNode]:
    """Construct a full bus (one node per pid)."""
    return {pid: BusNode(sim, network, pid, pids) for pid in pids}
