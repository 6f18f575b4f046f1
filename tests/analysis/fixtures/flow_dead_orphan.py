"""Flow-graph fixture: a deliberately broken fake app.

``Telemetry`` is sent but nothing handles it (dead message);
``LostCommand`` has a registered handler but no sender (orphan handler);
``WorkItem`` is the healthy control — sent and consumed.
"""

from repro.sim.process import Process


class Telemetry:
    pass


class LostCommand:
    pass


class WorkItem:
    pass


class BrokenApp(Process):
    def __init__(self, sim, pid: str) -> None:
        super().__init__(sim, pid)
        self.add_message_handler(LostCommand, self._on_lost)

    def tick(self) -> None:
        self.send("collector", Telemetry())
        self.send("worker", WorkItem())

    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, WorkItem):
            self.done = True

    def _on_lost(self, src: str, payload) -> None:
        self.lost = True
