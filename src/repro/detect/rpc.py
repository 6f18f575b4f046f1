"""RPC substrate with blocking calls and bounded server threads.

The Appendix 9.2 workload: processes invoke each other via RPC; a handler
may issue nested calls, blocking its thread until the reply; a process with
all threads blocked queues further incoming requests.  Deadlocks arise from
call cycles (A calls B while B's handler calls A on a single-threaded A).

Identity model (the paper's "instance identifiers"): every invocation gets a
locally-unique call id, and the server-side instance executing that call is
*named by* the call id.  Wait-for edges are then:

- a blocked instance waits-for the call id of its outstanding nested call;
- a queued (not yet scheduled) call id waits-for every instance currently
  occupying a thread at that server.

Cycles over call ids are exactly the true RPC deadlocks, including ones
among instances inside multi-threaded servers — the generality the paper
claims for its instance-id formulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass
class Reply:
    """Terminal handler action: answer the pending call."""

    value: Any = None


@dataclass
class Call:
    """Handler action: issue a nested call; ``then(proc, reply_value)`` runs
    on reply and must return the next action."""

    dst: str
    method: str
    then: Callable[["RpcProcess", Any], "Action"]
    arg: Any = None


@dataclass
class Work:
    """Handler action: compute locally for ``duration`` (thread stays
    occupied but is *not* blocked on any call), then continue."""

    duration: float
    then: Callable[["RpcProcess"], "Action"]


Action = Union[Call, Reply, Work]
Handler = Callable[["RpcProcess", Any], Action]


@dataclass
class RpcRequest:
    call_id: str
    caller: str
    caller_instance: Optional[str]
    method: str
    arg: Any = None


@dataclass
class RpcReply:
    call_id: str
    value: Any


@dataclass
class _Instance:
    """A server-side execution of one call (named by its call id)."""

    call_id: str
    request: RpcRequest
    waiting_on: Optional[str] = None  # call id of outstanding nested call
    waiting_dst: Optional[str] = None  # process the nested call went to
    continuation: Optional[Callable[["RpcProcess", Any], Union[Call, Reply]]] = None


class RpcProcess(Process):
    """An RPC peer: client, server, or both."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        pid: str,
        threads: int = 1,
    ) -> None:
        super().__init__(sim, network, pid)
        self.threads = threads
        self.handlers: Dict[str, Handler] = {}
        self._call_seq = itertools.count(1)
        #: instances currently occupying threads
        self.active: Dict[str, _Instance] = {}
        #: requests waiting for a free thread (FIFO)
        self.queued: List[RpcRequest] = []
        #: root (client-initiated) outstanding calls: call_id -> on_reply
        self._root_pending: Dict[str, Callable[[Any], None]] = {}
        #: root call ids still outstanding (for wait edges from clients)
        self.calls_made = 0
        self.replies_sent = 0
        #: observers notified of ("invoke"|"return", ...) protocol events
        self.event_hooks: List[Callable[[str, Dict[str, Any]], None]] = []

    # -- registration / client API ------------------------------------------------------

    def register(self, method: str, handler: Handler) -> None:
        self.handlers[method] = handler

    def call(self, dst: str, method: str, on_reply: Optional[Callable[[Any], None]] = None,
             arg: Any = None) -> str:
        """Client-initiated (root) call; does not occupy a server thread."""
        call_id = f"{self.pid}#{next(self._call_seq)}"
        if on_reply is not None:
            self._root_pending[call_id] = on_reply
        else:
            self._root_pending[call_id] = lambda value: None
        self._emit("invoke", caller=self.pid, caller_instance=None,
                   call_id=call_id, dst=dst, method=method)
        self.calls_made += 1
        self.send(dst, RpcRequest(call_id=call_id, caller=self.pid,
                                  caller_instance=None, method=method, arg=arg))
        return call_id

    # -- server machinery ------------------------------------------------------------------

    def on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, RpcRequest):
            self._on_request(payload)
        elif isinstance(payload, RpcReply):
            self._on_reply(payload)

    def _on_request(self, request: RpcRequest) -> None:
        if len(self.active) >= self.threads:
            self.queued.append(request)
            return
        self._start_instance(request)

    def _start_instance(self, request: RpcRequest) -> None:
        instance = _Instance(call_id=request.call_id, request=request)
        self.active[request.call_id] = instance
        handler = self.handlers.get(request.method)
        if handler is None:
            self._finish_instance(instance, Reply(value=("error", "no handler")))
            return
        action = handler(self, request.arg)
        self._apply_action(instance, action)

    def _apply_action(self, instance: _Instance, action: Action) -> None:
        if isinstance(action, Reply):
            self._finish_instance(instance, action)
            return
        if isinstance(action, Work):
            self.set_timer(
                action.duration,
                lambda: self._apply_action(instance, action.then(self)),
            )
            return
        # Nested call: block this instance's thread.
        call_id = f"{self.pid}#{next(self._call_seq)}"
        instance.waiting_on = call_id
        instance.waiting_dst = action.dst
        instance.continuation = action.then
        self._emit("invoke", caller=self.pid, caller_instance=instance.call_id,
                   call_id=call_id, dst=action.dst, method=action.method)
        self.calls_made += 1
        self.send(action.dst, RpcRequest(call_id=call_id, caller=self.pid,
                                         caller_instance=instance.call_id,
                                         method=action.method, arg=action.arg))

    def _finish_instance(self, instance: _Instance, reply: Reply) -> None:
        request = instance.request
        self._emit("return", call_id=request.call_id, by=self.pid)
        self.replies_sent += 1
        # Reply->Request->Reply chains are bounded by the static call tree
        # of the RPC workload (each reply retires one call and nested calls
        # only descend), so the same-tick exchange terminates.
        self.send(request.caller, RpcReply(call_id=request.call_id, value=reply.value))
        self.active.pop(instance.call_id, None)
        # A thread freed: schedule a queued request, if any.
        if self.queued and len(self.active) < self.threads:
            self._start_instance(self.queued.pop(0))

    def _on_reply(self, reply: RpcReply) -> None:
        # Root call completion?
        on_reply = self._root_pending.pop(reply.call_id, None)
        if on_reply is not None:
            self._emit("return", call_id=reply.call_id, by=self.pid)
            on_reply(reply.value)
            return
        # Unblock whichever instance was waiting on this call.
        for instance in self.active.values():
            if instance.waiting_on == reply.call_id:
                instance.waiting_on = None
                instance.waiting_dst = None
                continuation = instance.continuation
                instance.continuation = None
                assert continuation is not None
                action = continuation(self, reply.value)
                self._apply_action(instance, action)
                return

    def _emit(self, kind: str, **fields: Any) -> None:
        for hook in self.event_hooks:
            hook(kind, fields)

    # -- wait-for export (the paper's augmented, instance-level edges) ------------------------

    def wait_edges(self) -> List[Tuple[str, str]]:
        """Local (instance -> awaited call id) and (queued call -> instance)
        edges, in the Appendix 9.2 ``A15 -> B37`` style."""
        edges: List[Tuple[str, str]] = []
        for instance in self.active.values():
            if instance.waiting_on is not None:
                edges.append((instance.call_id, instance.waiting_on))
        for request in self.queued:
            for instance in self.active.values():
                edges.append((request.call_id, instance.call_id))
        # Root (client) calls also wait, but a blocked client is not a shared
        # resource, so its edges are only relevant when the cycle includes it:
        for call_id in self._root_pending:
            edges.append((f"root:{call_id}", call_id))
        return edges

    def outstanding_to(self) -> List[str]:
        """Process-granularity wait-for targets (van Renesse's view)."""
        return [
            instance.waiting_dst
            for instance in self.active.values()
            if instance.waiting_dst is not None
        ]
