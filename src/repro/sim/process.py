"""Actor-style process model.

A :class:`Process` is a named participant attached to a :class:`Network`.
Subclasses override :meth:`on_message` (and optionally :meth:`on_start`,
:meth:`on_crash`, :meth:`on_recover`).  Processes can arm timers; timers are
suppressed while the process is crashed.

Crash semantics follow the fail-stop model of the CATOCS literature: a
crashed process receives nothing and executes nothing until (optionally)
recovered, at which point volatile state is whatever the subclass's
``on_recover`` reconstructs — by default everything survives, and subclasses
modelling volatile state (e.g. the Deceit write-safety experiments) clear it
explicitly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Type

from repro.sim.kernel import Simulator, Timer
from repro.sim.network import Network, Packet


class Process:
    """Base class for all simulated participants."""

    # Slotted for dispatch speed: every delivery touches sim/network/alive
    # and the handler caches.  Subclasses are free to skip __slots__ — they
    # then grow a __dict__ for their own state while the base attributes
    # here keep slot-speed access on the per-packet path.
    __slots__ = (
        "sim",
        "network",
        "pid",
        "alive",
        "crash_count",
        "_timers",
        "_timers_sweep_at",
        "_handlers",
        "_dispatch_cache",
    )

    def __init__(self, sim: Simulator, network: Network, pid: str) -> None:
        self.sim = sim
        self.network = network
        self.pid = pid
        self.alive = True
        self.crash_count = 0
        #: handles ``crash()`` must cancel; fired/cancelled ones are swept
        #: out each time the list outgrows ``_timers_sweep_at``
        self._timers: List[Timer] = []
        self._timers_sweep_at = 16
        #: payload-type -> handler, consulted before :meth:`on_message`.
        self._handlers: Dict[Type, Callable[[str, Any], None]] = {}
        #: concrete payload type -> resolved handler (memoized MRO walk);
        #: invalidated wholesale by :meth:`add_message_handler`.
        self._dispatch_cache: Dict[Type, Callable[[str, Any], None]] = {}
        network.attach(self)
        sim.call_at(sim.now, self._start)

    # -- lifecycle hooks (override in subclasses) ----------------------------

    def on_start(self) -> None:
        """Called once when the simulation begins executing this process."""

    def on_message(self, src: str, payload: Any) -> None:
        """Called for every packet delivered to this process."""

    def on_crash(self) -> None:
        """Called when the process crashes (before timers are suppressed)."""

    def on_recover(self) -> None:
        """Called when a crashed process restarts."""

    # -- services ------------------------------------------------------------

    def add_message_handler(
        self, payload_type: Type, handler: Callable[[str, Any], None]
    ) -> None:
        """Register ``handler(src, payload)`` for packets of ``payload_type``.

        This is the multiplexed inbound hook protocol stacks hang off: one
        registration per wire-message family replaces a hand-written
        isinstance chain in :meth:`on_message`.  Dispatch walks the payload's
        MRO so a handler registered for a base class catches subclasses;
        packets matching no handler fall through to :meth:`on_message`.

        Registering a handler invalidates the dispatch cache: a later, more
        specific registration must win for payload types already seen.
        """
        self._handlers[payload_type] = handler
        self._dispatch_cache.clear()

    def dispatch(self, src: str, payload: Any) -> None:
        """Route one inbound payload through the registered handlers.

        The MRO walk runs once per concrete payload type; the resolved
        handler (or the :meth:`on_message` fallback) is memoized, so the
        per-delivery cost is a single dict probe.
        """
        klass = type(payload)
        handler = self._dispatch_cache.get(klass)
        if handler is None:
            handler = self.on_message
            if self._handlers:
                for base in klass.__mro__:
                    registered = self._handlers.get(base)
                    if registered is not None:
                        handler = registered
                        break
            self._dispatch_cache[klass] = handler
        handler(src, payload)

    def send(self, dst: str, payload: Any) -> None:
        """Send a payload to another process.  No-op while crashed."""
        if not self.alive:
            return
        self.network.send(self.pid, dst, payload)

    def send_many(self, dsts: Iterable[str], payload: Any) -> None:
        """Send one payload to each of ``dsts`` through the network's
        fan-out primitive.  No-op while crashed."""
        if not self.alive:
            return
        self.network.multicast(self.pid, dsts, payload)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Arm a timer that fires ``fn(*args)`` unless this process crashes."""
        timer = self.sim.call_later(delay, self._fire_timer, fn, args)
        timers = self._timers
        timers.append(timer)
        if len(timers) > self._timers_sweep_at:
            # Sweeping only once the list has doubled since the last sweep
            # keeps this amortised O(1) per timer while a long-lived process
            # (gossip tick, NAK timers) holds at most ~2x its pending set.
            timers[:] = [t for t in timers if t.active]
            self._timers_sweep_at = max(16, 2 * len(timers))
        return timer

    def _fire_timer(self, fn: Callable[..., None], args: tuple) -> None:
        if self.alive:
            fn(*args)

    # -- failure -------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this process: drop pending timers, stop receiving."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        self.on_crash()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        # In-flight traffic to/from a crashed process is lost; per-link FIFO
        # state referencing it must not sequence post-recovery packets.
        self.network.note_crash(self.pid)

    def recover(self) -> None:
        """Restart a crashed process."""
        if self.alive:
            return
        self.alive = True
        self.on_recover()

    # -- plumbing ------------------------------------------------------------

    def _start(self) -> None:
        if self.alive:
            self.on_start()

    def _receive_packet(self, packet: Packet) -> None:
        self.dispatch(packet.src, packet.payload)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.pid} ({state})>"
