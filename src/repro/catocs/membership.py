"""View-synchronous group membership: flush + view install.

When a member is suspected, the coordinator (lowest unsuspected pid) runs the
three-phase protocol the CATOCS literature requires:

1. ``FlushRequest`` — surviving members *stop sending new multicasts* and
   report their receive state (and keep their unstable buffers available for
   repair).
2. ``FlushAck`` — collected by the coordinator; the union of receive states
   defines which old-view messages exist anywhere.
3. ``ViewInstall`` — the new membership is installed; members resume sending.
   Messages some survivor is missing are pulled through the normal NAK
   repair path; dependencies on messages *nobody* has (lost with the crashed
   sender — the non-durability window) are forgiven so causal delivery does
   not block forever.

The protocol's costs are first-class outputs: per-view-change message count,
flush duration, and each member's send-suppression window — the quantities
behind Section 5's "membership change protocols ... suppress the sending of
new messages during a significant portion of the protocol".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.catocs.messages import (
    FlushAck,
    FlushRequest,
    Heartbeat,
    JoinRequest,
    LeaveAnnounce,
    ViewInstall,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.catocs.member import GroupMember
    from repro.catocs.failure_detector import HeartbeatDetector


@dataclass
class ViewChangeRecord:
    """Metrics for one completed view change."""

    view_id: int
    members: Tuple[str, ...]
    started_at: float
    installed_at: float
    messages: int

    @property
    def duration(self) -> float:
        return self.installed_at - self.started_at


class ViewManager:
    """Per-member membership protocol endpoint."""

    flush_retry = 30.0

    def __init__(self, member: "GroupMember", detector: Optional["HeartbeatDetector"] = None) -> None:
        self.member = member
        member.membership = self
        if detector is not None:
            detector.on_suspect.append(self._on_suspect)
        self.view_history: List[ViewChangeRecord] = []
        self.view_change_messages = 0
        self._collecting: Optional[int] = None
        self._proposed: Tuple[str, ...] = ()
        self._acks: Dict[str, FlushAck] = {}
        self._change_started: float = 0.0
        self._joining = False
        #: the last install applied here, and when: re-sent to a member of
        #: it whose heartbeat shows it never got it
        self._installed: Optional[ViewInstall] = None
        self._installed_at = 0.0

    # -- suspicion entry point -----------------------------------------------------

    def _on_suspect(self, pid: str) -> None:
        member = self.member
        if member.sequencer_pid() == member.pid:
            self.start_view_change()

    def start_view_change(self, additional: Tuple[str, ...] = ()) -> None:
        """Coordinator side: begin flushing toward a new view.

        ``additional`` names joiners to include alongside the surviving
        current members.
        """
        member = self.member
        if not member.alive:
            return
        new_view = member.view_id + 1
        if self._collecting is not None and self._collecting >= new_view:
            return
        proposed = tuple(
            [p for p in member.view_members if member.believes_alive(p)]
            + [p for p in additional if p not in member.view_members]
        )
        self._collecting = new_view
        self._proposed = proposed
        self._acks = {}
        self._change_started = member.sim.now
        request = FlushRequest(
            group=member.group,
            coordinator=member.pid,
            new_view_id=new_view,
            proposed_members=proposed,
        )
        for pid in proposed:
            if pid == member.pid:
                self.handle(member, member.pid, request)
            else:
                member.send(pid, request)
                self.view_change_messages += 1
        member.set_timer(self.flush_retry, self._check_progress, new_view)

    # -- message handling ------------------------------------------------------------

    # -- joining ----------------------------------------------------------------------

    def request_join(self, contact: str) -> None:
        """Ask ``contact``'s group to add this (fresh) member to its next view.

        The joiner skips the group's history: its delivery state fast-forwards
        to the view's flushed counts, and it participates fully from the
        install onward.  (Application-level state transfer, if the group
        carries replicated state, is the application's job — as in ISIS.)
        """
        member = self.member
        self._joining = True
        member.send(contact, JoinRequest(group=member.group, joiner=member.pid))

    def _complete_join(self, install: ViewInstall) -> None:
        member = self.member
        self._joining = False
        # Pretend the flushed history was received: no NAK storm for old
        # traffic, and causal delivery starts at the view's frontier.
        dedup = member.stack.layer("dedup")
        if dedup is not None:
            dedup.fast_forward(install.final_counts)
        member.ordering.on_join(install.ordering_state, install.final_counts)

    # -- voluntary departure --------------------------------------------------------

    def leave(self, linger: float = 250.0) -> None:
        """Gracefully leave the group: announce, linger, then halt.

        Unlike a crash, the member keeps serving NAK repairs from its
        buffers for ``linger`` time while the survivors flush and install
        the new view — so nothing it sent is lost even if it held the only
        copy.  New multicasts are suppressed immediately.
        """
        member = self.member
        announce = LeaveAnnounce(group=member.group, sender=member.pid)
        member.send_peers(announce)
        member.suppressed = True  # no resume: we are leaving
        member.set_timer(linger, member.crash)

    def handle(self, member: "GroupMember", src: str, payload) -> None:
        if isinstance(payload, LeaveAnnounce):
            member.suspect(payload.sender)
            if member.sequencer_pid() == member.pid:
                self.start_view_change()
            return
        if isinstance(payload, JoinRequest):
            if member.sequencer_pid() == member.pid:
                self.start_view_change(additional=(payload.joiner,))
            else:
                member.send(member.sequencer_pid(), payload)
            return
        if isinstance(payload, FlushRequest):
            self._on_flush_request(payload)
            return
        if isinstance(payload, FlushAck):
            self._on_flush_ack(payload)
            return
        if isinstance(payload, ViewInstall):
            self._on_view_install(payload)
            return

    def on_heartbeat(self, src: str, beat: Heartbeat) -> None:
        """Re-send the applied install to a member of it still in a lower
        view: its copy was lost, and nothing else re-sends it.  Only once
        ``flush_retry`` has passed since the install, so a heartbeat sent
        before the install arrived draws nothing."""
        install = self._installed
        if (install is not None and beat.view_id < install.view_id
                and src in install.members
                and self.member.sim.now - self._installed_at >= self.flush_retry):
            self.member.send(src, install)
            self.view_change_messages += 1

    def _on_flush_request(self, request: FlushRequest) -> None:
        member = self.member
        if request.new_view_id <= member.view_id:
            return
        member.suppress_sends()
        departed = set(member.view_members) - set(request.proposed_members)
        dedup = member.stack.layer("dedup")
        ack = FlushAck(
            group=member.group,
            sender=member.pid,
            new_view_id=request.new_view_id,
            received_counts=dict(dedup.contiguous) if dedup is not None else {},
            ordering_state=member.ordering.flush_state(departed),
        )
        if request.coordinator == member.pid:
            self._on_flush_ack(ack)
        else:
            member.send(request.coordinator, ack)
            self.view_change_messages += 1

    def _on_flush_ack(self, ack: FlushAck) -> None:
        if self._collecting is None or ack.new_view_id != self._collecting:
            return
        self._acks[ack.sender] = ack
        live_proposed = [p for p in self._proposed if self.member.believes_alive(p)]
        if set(self._acks) >= set(live_proposed):
            self._install(tuple(live_proposed))

    def _check_progress(self, view_id: int) -> None:
        """Coordinator retry: a proposed member died mid-flush; shrink and go."""
        if self._collecting != view_id:
            return
        live = [p for p in self._proposed if self.member.believes_alive(p)]
        acked = [p for p in live if p in self._acks]
        if set(acked) >= set(live) and live:
            self._install(tuple(live))
        else:
            # Re-request from stragglers.
            for pid in live:
                if pid not in self._acks and pid != self.member.pid:
                    self.member.send(
                        pid,
                        FlushRequest(
                            group=self.member.group,
                            coordinator=self.member.pid,
                            new_view_id=view_id,
                            proposed_members=self._proposed,
                        ),
                    )
                    self.view_change_messages += 1
            self.member.set_timer(self.flush_retry, self._check_progress, view_id)

    def _install(self, members: Tuple[str, ...]) -> None:
        assert self._collecting is not None
        view_id = self._collecting
        final_counts: Dict[str, int] = {}
        merged_ordering: Dict[str, Dict] = {}
        for ack in self._acks.values():
            for pid, count in ack.received_counts.items():
                final_counts[pid] = max(final_counts.get(pid, 0), count)
            for key, mapping in ack.ordering_state.items():
                merged_ordering.setdefault(key, {}).update(mapping)
        install = ViewInstall(
            group=self.member.group,
            coordinator=self.member.pid,
            view_id=view_id,
            members=members,
            final_counts=final_counts,
            ordering_state=merged_ordering,
        )
        for pid in members:
            if pid != self.member.pid:
                self.member.send(pid, install)
                self.view_change_messages += 1
        self._collecting = None
        self._on_view_install(install)

    def _on_view_install(self, install: ViewInstall) -> None:
        member = self.member
        if install.view_id <= member.view_id:
            return
        started = self._change_started if self._change_started else member.sim.now
        self._installed = install
        self._installed_at = member.sim.now
        member.view_id = install.view_id
        member.view_members = tuple(install.members)
        departed_counts = {
            pid: count
            for pid, count in install.final_counts.items()
            if pid not in install.members
        }
        self._apply_forgiveness(departed_counts)
        member.ordering.on_view_install(install.ordering_state, departed_counts)
        if self._joining:
            self._complete_join(install)
        member.deliver_ready()
        member.resume_sends()
        self.view_history.append(
            ViewChangeRecord(
                view_id=install.view_id,
                members=tuple(install.members),
                started_at=started,
                installed_at=member.sim.now,
                messages=self.view_change_messages,
            )
        )
        self._change_started = 0.0
        registry = member.sim.metrics
        registry.counter("membership.view_changes").inc()
        registry.histogram("membership.view_change_duration").observe(
            member.sim.now - started
        )
        registry.gauge_fn("membership.view_change_messages",
                          lambda: self.view_change_messages, pid=member.pid)
        registry.gauge_fn("membership.current_view_id",
                          lambda: member.view_id, pid=member.pid)
        member.on_view_installed(install)

    def _apply_forgiveness(self, departed_counts: Dict[str, int]) -> None:
        """Unblock causal delivery from dependencies nobody can supply.

        ``departed_counts`` covers *departed* members only: a dependency on
        one of them beyond the flushed count refers to a message lost with
        its crashed sender — the atomic-but-not-durable window.  Waive those
        dependencies so the delay queue drains; this is the point where
        CATOCS silently drops causally dependent messages' prerequisites,
        which the E09 experiment observes as lost updates.  Survivors are
        exempt: their newer messages arrive through the normal path and must
        not be skipped.
        """
        if departed_counts:
            self.member.ordering.forgive(departed_counts)
        self.member.deliver_ready()
