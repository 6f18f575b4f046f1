"""Flow-graph fixture: DataMessage-family traffic minted outside the stack."""

from repro.catocs.messages import DataMessage
from repro.catocs.stack import ProtocolLayer
from repro.sim.process import Process


class Rogue(Process):
    def __init__(self, sim, pid: str) -> None:
        super().__init__(sim, pid)
        self.add_message_handler(DataMessage, self._on_data)

    def leak(self, dst: str) -> None:
        self.send(dst, DataMessage(sender=self.pid, seq=1))

    def _on_data(self, src: str, msg) -> None:
        self.seen = True


class FineLayer(ProtocolLayer):
    def resend(self, dst: str) -> None:
        # Layers are the sanctioned place to mint wire envelopes.
        self.member.send(dst, DataMessage(sender="x", seq=2))
