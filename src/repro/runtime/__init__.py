"""Run the protocol stack on a real asyncio event loop — and real sockets.

The simulator is the right tool for reproducible experiments, but the
protocol code itself is runtime-agnostic: it only needs ``now``,
``call_later``/``call_at`` timers, a seeded RNG, and a datagram ``send``.
This package provides the real-world implementations of those interfaces,
each offering the API its simulator counterpart defines:

- :class:`~repro.runtime.asyncio_rt.AsyncioClock` — wall-clock timers on
  an asyncio event loop;
- :class:`~repro.runtime.udp.UdpNetwork` — real UDP datagrams over loopback
  sockets, every payload through the versioned binary wire codec
  (:mod:`repro.runtime.codec`);
- :mod:`repro.runtime.host` — a process host that runs an unchanged stack
  spec as its own OS process on a loopback port;
- :mod:`repro.runtime.crossval` — the sim-vs-socket cross-validation
  harness.

The very same :class:`~repro.catocs.member.GroupMember`, transaction, and
detection code runs on all of them — demonstrating that the library is a
distributed systems implementation that happens to be testable in
simulation, not a simulation-only artifact.  See ``docs/RUNTIME.md``.
"""

from repro.runtime.asyncio_rt import AsyncioClock, run_for
from repro.runtime.udp import UdpNetwork

__all__ = [
    "AsyncioClock",
    "run_for",
    "UdpNetwork",
]
