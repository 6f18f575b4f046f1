"""ORD003 fixture: a hidden-channel read gating or feeding a send.

The gated/derived send creates a causal dependency no delivery discipline
can observe.  The ``fine_*`` methods pin precision: gating on *own* state
is the sanctioned pattern, and harness-level functions are exempt.
"""

from repro.sim.process import Process


class Gossip:
    pass


class Snapshot:
    def __init__(self, count: int) -> None:
        self.count = count


class Relay(Process):
    def __init__(self, sim, pid: str) -> None:
        super().__init__(sim, pid)
        self.ready = False

    def maybe_forward(self) -> None:
        peer = self.network.process("peer")
        if peer.ready:  # EXPECT[ORD003]
            self.send("down", Gossip())

    def report(self) -> None:
        peer = self.network.process("peer")
        snapshot = Snapshot(peer.count)
        self.send("monitor", snapshot)  # EXPECT[ORD003]

    def fine_own_gate(self) -> None:
        if self.ready:
            self.send("down", Gossip())


class Monitor(Process):
    def __init__(self, sim, pid: str) -> None:
        super().__init__(sim, pid)
        self.seen = 0

    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, Gossip):
            self.seen += 1
        elif isinstance(payload, Snapshot):
            self.seen += payload.count


def fine_harness_probe(network) -> None:
    # Not inside a Process subclass: experiment drivers may read state
    # and inject traffic freely — they are the laboratory, not the system.
    if network.process("a").ready:
        network.send("a", "b", Gossip())
