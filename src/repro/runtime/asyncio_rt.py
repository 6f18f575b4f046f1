"""Asyncio-backed clock, drop-in compatible with the simulator's.

:class:`AsyncioClock` exposes the subset of :class:`repro.sim.Simulator`
the protocol stack uses (``now``, ``rng``, ``call_later``, ``call_at``)
over real wall-clock ``loop.call_later`` timers, and :class:`_HandleTimer`
gives those timers the simulator ``Timer`` surface.  The network that goes
with it is :class:`repro.runtime.udp.UdpNetwork`.

Wall-clock runs are not bit-reproducible — loss/jitter draws are seeded,
but interleaving depends on the host scheduler.  The protocol guarantees
(causal order, total order, repair, atomicity) hold regardless, which is
what the runtime tests assert.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Optional, Tuple

from repro.obs import MetricsRegistry


class _HandleTimer:
    """Wraps an asyncio TimerHandle with the simulator Timer's surface.

    Mirrors :class:`repro.sim.kernel.Timer` semantics exactly: ``active`` is
    false once the timer has either been cancelled *or fired*, and
    ``cancel()`` is an idempotent no-op after firing.
    """

    __slots__ = ("_fn", "_args", "_handle", "cancelled", "fired")

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        self._fn = fn
        self._args = args
        self._handle: Optional[asyncio.TimerHandle] = None
        self.cancelled = False
        self.fired = False

    def _run(self) -> None:
        self.fired = True
        self._fn(*self._args)

    def cancel(self) -> None:
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired


class AsyncioClock:
    """Simulator-compatible clock over an asyncio event loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None,
                 seed: int = 0) -> None:
        if loop is None:
            # get_event_loop() is deprecated outside a running loop (and an
            # error from 3.12 on); require one to be running when no loop is
            # passed explicitly.
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                raise RuntimeError(
                    "AsyncioClock needs a running event loop; construct it "
                    "inside a coroutine or pass loop= explicitly"
                ) from None
        self._loop = loop
        self._t0 = self._loop.time()
        self.seed = seed
        self.rng = random.Random(seed)
        # Same observability surface as the simulator kernel.
        self.metrics = MetricsRegistry("asyncio")

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> _HandleTimer:
        """``fn(*args)`` after ``delay`` real seconds; a negative delay (a
        ``call_at`` deadline the wall clock already passed) runs at once."""
        if delay != delay:  # max(nan, 0.0) is nan: asyncio would take it and fire at once
            raise ValueError(f"NaN delay: {delay}")
        timer = _HandleTimer(fn, args)
        timer._handle = self._loop.call_later(max(delay, 0.0), timer._run)
        return timer

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> _HandleTimer:
        return self.call_later(time - self.now, fn, *args)


async def run_for(duration: float) -> None:
    """Let the event loop run the protocol for ``duration`` real seconds."""
    await asyncio.sleep(duration)
