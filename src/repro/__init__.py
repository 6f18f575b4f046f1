"""repro — a reproduction of Cheriton & Skeen, "Understanding the Limitations
of Causally and Totally Ordered Communication" (SOSP 1993).

The package contains both sides of the paper's argument, built from scratch
on a deterministic discrete-event simulator:

- :mod:`repro.sim` — the simulation substrate (event kernel, lossy network,
  processes, clocks, failure injection, event-diagram tracing).
- :mod:`repro.ordering` — Lamport/vector/matrix clocks, happens-before, and
  the Section 5 active causal graph.
- :mod:`repro.catocs` — the system under critique: reliable group multicast
  with FIFO / causal / total ordering, atomic-delivery buffering, stability
  tracking, failure detection and view-synchronous membership.
- :mod:`repro.statelevel` — the paper's alternatives: versioned state,
  dependency fields, the order-preserving cache, real-time timestamps.
- :mod:`repro.txn` — transactions: 2PL, 2PC, OCC, WAL durability, and
  read-any/write-all-available replication.
- :mod:`repro.detect` — predicate detection: wait-for deadlock detection,
  Chandy-Lamport and CATOCS snapshots, checkpointing, RPC deadlock.
- :mod:`repro.apps` — the paper's case studies (Figures 2-4, Netnews,
  Deceit/Harp, drilling, the real-time oven), each with both designs.
- :mod:`repro.experiments` — E01..E19, one per figure/claim.

Quick start::

    from repro.sim import Simulator, Network, LinkModel
    from repro.catocs import build_group

    sim = Simulator(seed=42)
    net = Network(sim, LinkModel(latency=5, jitter=3, drop_prob=0.01))
    group = build_group(sim, net, ["a", "b", "c"], ordering="causal")
    group["a"].multicast({"kind": "hello"})
    sim.run(until=1000)
    print(group["c"].delivered_payloads())
"""

__version__ = "1.0.0"

from repro.sim import (
    EventTrace,
    FailureInjector,
    LinkModel,
    Network,
    Process,
    Simulator,
    render_event_diagram,
)

__all__ = [
    "__version__",
    "Simulator",
    "Network",
    "LinkModel",
    "Process",
    "FailureInjector",
    "EventTrace",
    "render_event_diagram",
]
