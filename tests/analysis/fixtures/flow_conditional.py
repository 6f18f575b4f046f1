"""Flow-graph fixture: a message class chosen by a conditional expression.

``Arbiter`` answers a ``Request`` with ``(Grant if ok else Deny)(...)``,
one constructor call for two classes, in three forms: sent directly, bound
to a local first, and passed through a forwarder's parameter.  Each form
sends both classes, and the same-tick answer is an edge to each.

``Early``/``Late`` are chosen through a local bound to the class itself
(``cls = Early if ok else Late; cls()``), which the graph does not
resolve: neither is sent, and neither has a handler, so nothing is found.
"""

from repro.sim.process import Process


class Request:
    pass


class Grant:
    pass


class Deny:
    pass


class Early:
    pass


class Late:
    pass


class Arbiter(Process):
    def __init__(self, sim, pid: str) -> None:
        super().__init__(sim, pid)
        self.ok = True
        self.add_message_handler(Request, self._on_request)
        self.add_message_handler(Grant, self._on_answer)
        self.add_message_handler(Deny, self._on_answer)

    def ask(self, dst: str) -> None:
        self.send(dst, Request())

    def _on_request(self, src: str, payload: Request) -> None:
        self.send(src, (Grant if self.ok else Deny)())
        answer = (Grant if self.ok else Deny)()
        self.send(src, answer)
        self._reply(src, (Grant if self.ok else Deny)())
        cls = Early if self.ok else Late
        self.send(src, cls())

    def _reply(self, dst: str, payload) -> None:
        self.send(dst, payload)

    def _on_answer(self, src: str, payload) -> None:
        self.answered = True
