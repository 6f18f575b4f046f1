"""CATOCS-based consistent snapshots (the approach the paper critiques).

"The most general solution to this problem involves taking a snapshot of
local process states that represent a consistent cut ... which can be done
in a straightforward way with CATOCS [29]."

All application traffic flows through one causal/total multicast group; a
snapshot is just another multicast ("marker"), and each member records its
state at the marker's delivery point.  Causal (or total) delivery makes the
resulting cut consistent *provided every state-affecting interaction goes
through the group* — which is exactly the cost Section 4.2 indicts: CATOCS
overhead on every message, paid continuously, for detections that run three
orders of magnitude less often.  (And limitation 1 still applies: a hidden
channel silently breaks the cut — exercised in the tests.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.catocs.member import GroupMember
from repro.sim.kernel import Simulator
from repro.sim.network import Network


@dataclass
class MemberSnapshot:
    snapshot_id: int
    pid: str
    state: Any
    recorded_at: float


class CatocsSnapshotMember(GroupMember):
    """A group member whose app traffic and snapshot markers share one
    causally-ordered group.

    ``state_fn`` captures local state; ``on_app`` consumes delivered
    application multicasts.  Use :meth:`app_multicast` for all application
    traffic (the whole point: everything must ride the group) and
    :meth:`initiate_snapshot` from any member.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        group: str,
        members: Sequence[str],
        state_fn: Callable[[], Any],
        on_app: Optional[Callable[[str, Any], None]] = None,
        ordering: str = "causal",
        **kwargs: Any,
    ) -> None:
        super().__init__(
            sim, network, pid, group=group, members=members, ordering=ordering, **kwargs
        )
        self.state_fn = state_fn
        self.on_app = on_app
        self.member_snapshots: List[MemberSnapshot] = []
        self.on_deliver = self._dispatch

    def app_multicast(self, payload: Any) -> None:
        self.multicast(("app", payload))

    def initiate_snapshot(self, snapshot_id: int) -> None:
        self.multicast(("snapshot", snapshot_id))

    def _dispatch(self, src: str, payload: Any, msg: Any) -> None:
        kind, body = payload
        if kind == "snapshot":
            self.member_snapshots.append(
                MemberSnapshot(
                    snapshot_id=body,
                    pid=self.pid,
                    state=self.state_fn(),
                    recorded_at=self.sim.now,
                )
            )
            return
        if self.on_app is not None:
            self.on_app(src, body)
