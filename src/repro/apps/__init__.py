"""Application case studies from the paper.

One module per scenario, each implementing *both* designs — the CATOCS-based
one the literature proposed and the state-level one the paper recommends —
on the common simulation substrate, returning structured results the
experiment harness turns into the figures/claims:

- :mod:`repro.apps.shopfloor` — Figure 2: shop-floor control with a shared
  database as hidden channel.
- :mod:`repro.apps.firealarm` — Figure 3: fire / fire-out through an
  external channel.
- :mod:`repro.apps.trading` — Figure 4: option + theoretical pricing, the
  false crossing, and the dependency-field fix.
- :mod:`repro.apps.netnews` — Section 4.1: inquiry/response ordering, causal
  group explosion vs the references-line cache.
- :mod:`repro.apps.deceit` — Section 4.4: Deceit-style replication over
  causal multicast with write-safety levels.
- :mod:`repro.apps.harp` — Section 4.4: Harp-style transactional replication
  (read-any/write-all-available + WAL).
- :mod:`repro.apps.drilling` — Appendix 9.1: Birman's causally-ordered
  drilling cell vs the central-controller design.
- :mod:`repro.apps.oven` — Section 4.6: real-time oven monitoring,
  "sufficient consistency" under CATOCS vs latest-value delivery.
- :mod:`repro.apps.threads` — Section 3, limitation 1 (second example): the
  multi-threaded server whose shared address space is the hidden channel.
- :mod:`repro.apps.nameservice` — Section 4.5: a Lampson-style global name
  service on anti-entropy gossip with undo-based duplicate resolution.
"""
