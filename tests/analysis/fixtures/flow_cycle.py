"""Flow-graph fixture: a same-tick Ping/Pong send cycle.

``Slow`` shows the sanctioned fix: replying through a non-zero timer
moves the response to a later tick, so no cycle is reported.
"""

from repro.sim.process import Process


class Ping:
    pass


class Pong:
    pass


class Slow:
    pass


class PingPong(Process):
    def on_message(self, src: str, payload) -> None:
        if isinstance(payload, Ping):
            self.send(src, Pong())
        if isinstance(payload, Pong):
            self.send(src, Ping())
        if isinstance(payload, Slow):
            self.set_timer(1.0, self.send, src, Slow())

    def kick(self, dst: str) -> None:
        self.send(dst, Ping())
        self.send(dst, Slow())
