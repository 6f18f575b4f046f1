"""E17 (ablation) — Section 5: partitioning groups does not escape the cost.

"Partitioning a large process group into smaller process groups does not
necessarily reduce this problem unless the smaller groups are not causally
related.  For instance, the 'causal domain' ... can have the same quadratic
growth."

Two measurements:

1. **Correctness.**  A workload whose causality crosses subgroup boundaries
   (a bridge node relays g1 messages into g2).  With two separate causal
   groups, a dual-member observer can deliver the relay (g2) before its
   trigger (g1) — per-group CATOCS cannot see the cross-group dependency.
   Put everyone in one group and the inversion is impossible.  Partitioning
   is only sound when the subgroups are causally unrelated.

2. **Cost.**  What partitioning would buy *if* it were legal: system peak
   buffering of one N-group vs two independent N/2-groups at the same
   per-member rate — roughly the quadratic-vs-half-quadratic gap of E05,
   i.e. exactly the saving you must forgo when causality couples the groups.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.catocs import build_group, build_member
from repro.catocs.member import GroupMember
from repro.experiments.harness import ExperimentResult, Table
from repro.sim import LinkModel, Network, Simulator


def _bridged_run(seed: int, partitioned: bool, triggers: int = 12) -> Dict[str, float]:
    """The cross-group causality workload.

    Nodes: sender s (g1), bridge B (both groups), checker C (both groups),
    filler f1 (g1), f2 (g2).  s's link to C's g1 endpoint is slow; B and the
    g2 path are fast, so the relay can race past its trigger.
    """
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=3.0))
    order: List[Tuple[float, str, object]] = []  # node-local observation log

    if partitioned:
        g1 = ["s", "bridge!g1", "checker!g1", "f1"]
        g2 = ["bridge!g2", "checker!g2", "f2"]

        members: Dict[str, GroupMember] = {}

        def deliver_g1(pid):
            def callback(src, payload, msg):
                if pid == "bridge!g1" and payload.get("kind") == "trigger":
                    members["bridge!g2"].multicast(
                        {"kind": "relay", "of": payload["n"]})
                if pid == "checker!g1":
                    order.append((sim.now, "trigger", payload["n"]))
            return callback

        def deliver_g2(pid):
            def callback(src, payload, msg):
                if pid == "checker!g2" and payload.get("kind") == "relay":
                    order.append((sim.now, "relay", payload["of"]))
            return callback

        for pid in g1:
            members[pid] = build_member(sim, net, pid, group="g1", members=g1,
                                        ordering="causal",
                                        on_deliver=deliver_g1(pid))
        for pid in g2:
            members[pid] = build_member(sim, net, pid, group="g2", members=g2,
                                        ordering="causal",
                                        on_deliver=deliver_g2(pid))
        sender = members["s"]
        net.set_link("s", "checker!g1", LinkModel(latency=60.0, jitter=3.0))
    else:
        everyone = ["s", "bridge", "checker", "f1", "f2"]

        def deliver(pid):
            def callback(src, payload, msg):
                if pid == "bridge" and payload.get("kind") == "trigger":
                    members["bridge"].multicast({"kind": "relay", "of": payload["n"]})
                if pid == "checker":
                    if payload.get("kind") == "trigger":
                        order.append((sim.now, "trigger", payload["n"]))
                    elif payload.get("kind") == "relay":
                        order.append((sim.now, "relay", payload["of"]))
            return callback

        members = {
            pid: build_member(sim, net, pid, group="dom", members=everyone,
                              ordering="causal", on_deliver=deliver(pid))
            for pid in everyone
        }
        sender = members["s"]
        net.set_link("s", "checker", LinkModel(latency=60.0, jitter=3.0))

    for n in range(triggers):
        sim.call_at(5.0 + n * 40.0, sender.multicast, {"kind": "trigger", "n": n})
    sim.run(until=5000)

    seen_trigger: Dict[object, float] = {}
    violations = 0
    pairs = 0
    # `order` is already in observation order (appends during delivery);
    # sorting would shuffle same-instant deliveries.
    for t, kind, n in order:
        if kind == "trigger":
            seen_trigger[n] = t
        else:
            pairs += 1
            if n not in seen_trigger:
                violations += 1  # relay observed before its trigger
    return {"violations": violations, "pairs": pairs}


def _buffer_cost(seed: int, size: int, split: bool,
                 msgs_per_member: int = 12, window: float = 400.0) -> float:
    """System peak buffer bytes: one group of `size`, or two of `size/2`."""
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=5.0, jitter=4.0))
    total = 0.0
    groups = (
        [[f"a{i}" for i in range(size // 2)], [f"b{i}" for i in range(size // 2)]]
        if split
        else [[f"a{i}" for i in range(size)]]
    )
    all_members = []
    for index, pids in enumerate(groups):
        members = build_group(sim, net, pids, group=f"g{index}",
                              ordering="causal", ack_period=80.0)
        all_members.extend(members.values())
        for pid in pids:
            for _ in range(msgs_per_member):
                at = sim.rng.uniform(1.0, window)
                sim.call_at(at, members[pid].multicast, {"kind": "tick"})
    sim.run(until=window + 2000.0)
    return float(sum(m.stack.layer("stability").layer_metrics()["peak_buffered_bytes"]
                     for m in all_members))


def run_e17(seed: int = 0, size: int = 12) -> ExperimentResult:
    # -- correctness: causally-related subgroups ------------------------------------
    correctness = Table(
        "Cross-group causality (bridge relays g1 -> g2): relay-before-trigger "
        "inversions at a dual-member observer",
        ["configuration", "relay/trigger pairs", "causal inversions"],
    )
    part_total = {"violations": 0, "pairs": 0}
    for s in range(seed, seed + 4):
        result = _bridged_run(s, partitioned=True)
        part_total["violations"] += result["violations"]
        part_total["pairs"] += result["pairs"]
    single = _bridged_run(seed, partitioned=False)
    single_more = _bridged_run(seed + 1, partitioned=False)
    correctness.add_row("two causal groups + bridge",
                        part_total["pairs"], part_total["violations"])
    correctness.add_row("one causal group (domain)",
                        single["pairs"] + single_more["pairs"],
                        single["violations"] + single_more["violations"])

    # -- cost: what partitioning would save where it IS legal ------------------------
    cost = Table(
        "System peak buffering: one group vs two causally-unrelated halves",
        ["configuration", "system peak buffer (B)"],
    )
    whole = _buffer_cost(seed, size, split=False)
    halves = _buffer_cost(seed, size, split=True)
    cost.add_row(f"one group of {size}", round(whole))
    cost.add_row(f"two independent groups of {size // 2}", round(halves))

    checks = {
        "partitioned groups invert cross-group causality": part_total["violations"] > 0,
        "a single (domain-wide) group never does": (
            single["violations"] + single_more["violations"] == 0
        ),
        "unrelated halves would cut buffering substantially (>=2x)": (
            whole > 2.0 * halves
        ),
    }
    return ExperimentResult(
        experiment_id="E17",
        title="Section 5 ablation — partitioning vs causal domains",
        tables=[correctness, cost],
        checks=checks,
        notes=(
            "The quadratic savings of splitting a group are only available "
            "when the halves are causally unrelated; causally-coupled "
            "subgroups either violate the ordering (measured above) or must "
            "be fused into a causal domain that pays the full group's "
            "buffering (E05)."
        ),
    )
