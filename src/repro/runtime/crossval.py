"""Cross-validation: the same scenario in-sim and over UDP loopback.

The strongest evidence that the runtime bridge is faithful is *agreement*:
one seeded scenario definition, run twice — once on the discrete-event
simulator (virtual time, zero-copy) and once over real UDP loopback sockets
(wall-clock time, every payload through the wire codec) — must report the
**identical set of ordering anomalies** and comparable traffic ratios.

Scenarios are defined in abstract time units; the simulator runs them at
one unit per virtual tick, the socket runner scales units to wall-clock
seconds (default 10 ms/unit).  Anomaly margins are *structural* — produced
by link-latency asymmetries tens of units wide — so wall-clock scheduling
noise (≪ 1 unit) cannot flip an outcome:

- ``figure1``: the paper's Figure 1 news-group shape (cause → effect with a
  slow direct link) on a causal stack — the anomaly set must be empty on
  both backends, because causal delivery holds the effect back.
- ``figure1-raw``: the same shape with ordering stripped — both backends
  must report the effect overtaking its cause at the slow receiver.
- ``trading``: the Section 4 false-crossing scenario — a theo price
  computed from option tick *v* reaches the monitor after tick *v+1* is
  already displayed.  Causal order cannot prevent it (the tick and the
  derived theo are concurrent), so both backends must report the same
  non-empty crossing set.  This is the paper's central claim, demonstrated
  on real sockets.

``python -m repro.runtime.crossval`` runs all scenarios and writes the
machine-readable report CI archives (see the ``runtime-smoke`` job).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.catocs.member import GroupMember
from repro.experiments.harness import Table
from repro.runtime.asyncio_rt import AsyncioClock, run_for
from repro.runtime.udp import UdpNetwork
from repro.sim import Simulator
from repro.sim.network import LinkModel, Network

#: Wall-clock seconds per scenario time unit on the socket backend.
DEFAULT_UNIT = 0.01
#: Allowed relative difference between the sim and socket overhead ratios
#: (wire messages per application multicast).  Stability-gossip rounds are
#: aligned by construction; the slack absorbs NAK-timing and boundary
#: differences.
DEFAULT_TOLERANCE = 0.35

LinkSpec = Tuple[float, float]  # (latency, jitter) in scenario units

Reaction = Callable[[str, Any], Optional[Any]]
AnomalyFn = Callable[[Dict[str, List[Any]]], Set[str]]


@dataclass(frozen=True)
class Scenario:
    """A backend-agnostic scenario in abstract time units."""

    name: str
    stack: str
    pids: Tuple[str, ...]
    default_link: LinkSpec
    links: Dict[Tuple[str, str], LinkSpec]
    #: (time, sender pid, payload) — the externally injected multicasts.
    schedule: Tuple[Tuple[float, str, Any], ...]
    horizon: float
    #: (delivering pid, payload) -> payload that pid multicasts in response.
    react: Reaction
    #: per-pid delivery sequences -> set of anomaly labels.
    anomalies: AnomalyFn
    nak_delay: float = 5.0
    ack_period: float = 20.0


@dataclass
class RunResult:
    deliveries: Dict[str, List[Any]]
    anomalies: Set[str]
    app_multicasts: int
    wire_sent: int
    wire_delivered: int

    @property
    def overhead_ratio(self) -> float:
        return self.wire_sent / max(self.app_multicasts, 1)


# -- scenario definitions ---------------------------------------------------------------------


def _figure1_anomalies(deliveries: Dict[str, List[Any]]) -> Set[str]:
    expected = {"cause", "effect", "noise1", "noise2"}
    out: Set[str] = set()
    for pid, payloads in deliveries.items():
        labels = [p["label"] for p in payloads]
        for missing in sorted(expected - set(labels)):
            out.add(f"{pid}:missing-{missing}")
        if "cause" in labels and "effect" in labels:
            if labels.index("effect") < labels.index("cause"):
                out.add(f"{pid}:effect-before-cause")
    return out


def _figure1_react(pid: str, payload: Any) -> Optional[Any]:
    if pid == "b" and payload["label"] == "cause":
        return {"label": "effect"}
    return None


def _figure1(stack: str, name: str) -> Scenario:
    # a -> b and b -> c are fast; the direct a -> c link is 30 units slow,
    # so the effect structurally overtakes its cause at c unless the stack
    # holds it back.  Horizon off the gossip grid (not a multiple of 20).
    return Scenario(
        name=name,
        stack=stack,
        pids=("a", "b", "c"),
        default_link=(2.0, 1.0),
        links={("a", "c"): (30.0, 1.0)},
        schedule=(
            (5.0, "a", {"label": "cause"}),
            (6.0, "c", {"label": "noise1"}),
            (7.0, "c", {"label": "noise2"}),
        ),
        horizon=70.0,
        react=_figure1_react,
        anomalies=_figure1_anomalies,
    )


def _trading_anomalies(deliveries: Dict[str, List[Any]]) -> Set[str]:
    # Replay the monitor's screen: a crossing is a theo quote arriving when
    # a *newer* option tick is already displayed.
    out: Set[str] = set()
    displayed = 0
    for payload in deliveries.get("mon", []):
        if payload["kind"] == "option":
            displayed = payload["version"]
        elif payload["kind"] == "theo" and displayed > payload["base_version"]:
            out.add(f"cross:opt{displayed}-theo{payload['base_version']}")
    return out


def _trading_react(pid: str, payload: Any) -> Optional[Any]:
    if pid == "theo" and payload["kind"] == "option":
        return {"kind": "theo", "base_version": payload["version"],
                "label": f"theo:b{payload['version']}"}
    return None


def _trading() -> Scenario:
    ticks = tuple(
        (10.0 + 20.0 * k, "opt",
         {"kind": "option", "version": k + 1, "label": f"opt:v{k + 1}"})
        for k in range(4)
    )
    # Every theo outbound link is 30 units slow vs a 20-unit tick interval:
    # theo(base v) reaches the monitor ~10 units after option v+1 is already
    # displayed.  Slowing theo->opt as well keeps tick v+1 causally
    # *concurrent* with theo(base v) — otherwise the publisher's own
    # delivery of the theo quote would chain them and causal order would
    # (correctly) hold the tick back.  Causal order cannot close a gap
    # between concurrent messages, so the crossing set is identical on both
    # backends.
    return Scenario(
        name="trading",
        stack="causal",
        pids=("opt", "theo", "mon"),
        default_link=(3.0, 1.0),
        links={("theo", "mon"): (30.0, 1.0), ("theo", "opt"): (30.0, 1.0)},
        schedule=ticks,
        horizon=130.0,
        react=_trading_react,
        anomalies=_trading_anomalies,
    )


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "figure1": lambda: _figure1("causal", "figure1"),
    "figure1-raw": lambda: _figure1("raw", "figure1-raw"),
    "trading": _trading,
}


# -- runners ----------------------------------------------------------------------------------


def _build_members(
    scenario: Scenario, clock: Any, net: Any, *, unit: float
) -> Tuple[Dict[str, GroupMember], Dict[str, List[Any]]]:
    deliveries: Dict[str, List[Any]] = {pid: [] for pid in scenario.pids}
    members: Dict[str, GroupMember] = {}

    def on_deliver_for(pid: str):
        def on_deliver(src: str, payload: Any, msg: Any) -> None:
            deliveries[pid].append(payload)
            response = scenario.react(pid, payload)
            if response is not None:
                members[pid].multicast(response)
        return on_deliver

    for pid in scenario.pids:
        members[pid] = GroupMember(
            clock, net, pid, group="g", members=scenario.pids,
            ordering=scenario.stack,
            nak_delay=scenario.nak_delay * unit,
            ack_period=scenario.ack_period * unit,
            on_deliver=on_deliver_for(pid),
        )
    return members, deliveries


def _apply_links(scenario: Scenario, net: Any, unit: float) -> None:
    for (src, dst), (latency, jitter) in scenario.links.items():
        net.set_link(src, dst, LinkModel(latency=latency * unit, jitter=jitter * unit))


def _result(scenario: Scenario, members: Dict[str, GroupMember],
            deliveries: Dict[str, List[Any]], stats: Any) -> RunResult:
    return RunResult(
        deliveries=deliveries,
        anomalies=scenario.anomalies(deliveries),
        app_multicasts=sum(m.multicasts_sent for m in members.values()),
        wire_sent=stats.sent,
        wire_delivered=stats.delivered,
    )


def run_in_sim(scenario: Scenario, seed: int = 0) -> RunResult:
    sim = Simulator(seed=seed)
    latency, jitter = scenario.default_link
    net = Network(sim, default_link=LinkModel(latency=latency, jitter=jitter))
    members, deliveries = _build_members(scenario, sim, net, unit=1.0)
    _apply_links(scenario, net, unit=1.0)
    for time, pid, payload in scenario.schedule:
        sim.call_at(time, members[pid].multicast, payload)
    sim.run(until=scenario.horizon)
    return _result(scenario, members, deliveries, net.stats)


def run_over_udp(scenario: Scenario, seed: int = 0,
                 unit: float = DEFAULT_UNIT) -> RunResult:
    async def _run() -> RunResult:
        clock = AsyncioClock(seed=seed)
        latency, jitter = scenario.default_link
        net = UdpNetwork(clock, LinkModel(latency=latency * unit, jitter=jitter * unit))
        members, deliveries = _build_members(scenario, clock, net, unit=unit)
        _apply_links(scenario, net, unit=unit)
        await net.start()
        for time, pid, payload in scenario.schedule:
            clock.call_at(time * unit, members[pid].multicast, payload)
        await run_for(scenario.horizon * unit)
        result = _result(scenario, members, deliveries, net.stats)
        net.close()
        return result

    return asyncio.run(_run())


# -- the harness ------------------------------------------------------------------------------


def cross_validate(name: str, seed: int = 0, unit: float = DEFAULT_UNIT,
                   tolerance: float = DEFAULT_TOLERANCE) -> Dict[str, Any]:
    """Run one scenario on both backends and compare the reports."""
    scenario = SCENARIOS[name]()
    sim = run_in_sim(scenario, seed=seed)
    udp = run_over_udp(scenario, seed=seed, unit=unit)
    ratio_delta = abs(udp.overhead_ratio - sim.overhead_ratio) / max(sim.overhead_ratio, 1e-9)
    anomalies_match = sim.anomalies == udp.anomalies
    within_tolerance = ratio_delta <= tolerance
    return {
        "scenario": name,
        "stack": scenario.stack,
        "seed": seed,
        "unit_s": unit,
        "tolerance": tolerance,
        "sim": {
            "anomalies": sorted(sim.anomalies),
            "app_multicasts": sim.app_multicasts,
            "wire_sent": sim.wire_sent,
            "wire_delivered": sim.wire_delivered,
            "overhead_ratio": round(sim.overhead_ratio, 3),
        },
        "udp": {
            "anomalies": sorted(udp.anomalies),
            "app_multicasts": udp.app_multicasts,
            "wire_sent": udp.wire_sent,
            "wire_delivered": udp.wire_delivered,
            "overhead_ratio": round(udp.overhead_ratio, 3),
        },
        "anomalies_match": anomalies_match,
        "ratio_delta": round(ratio_delta, 3),
        "within_tolerance": within_tolerance,
        "passed": anomalies_match and within_tolerance,
    }


def run_all(seed: int = 0, unit: float = DEFAULT_UNIT,
            tolerance: float = DEFAULT_TOLERANCE,
            names: Optional[List[str]] = None) -> Dict[str, Any]:
    reports = [cross_validate(name, seed=seed, unit=unit, tolerance=tolerance)
               for name in (names or sorted(SCENARIOS))]
    return {
        "schema": "repro.crossval/v1",
        "seed": seed,
        "unit_s": unit,
        "tolerance": tolerance,
        "scenarios": reports,
        "passed": all(r["passed"] for r in reports),
    }


def render(report: Dict[str, Any]) -> str:
    table = Table(
        "Sim vs UDP loopback cross-validation",
        ["scenario", "stack", "anomalies sim", "anomalies udp",
         "ratio sim", "ratio udp", "verdict"],
    )
    for entry in report["scenarios"]:
        table.add_row(
            entry["scenario"], entry["stack"],
            "; ".join(entry["sim"]["anomalies"]) or "(none)",
            "; ".join(entry["udp"]["anomalies"]) or "(none)",
            f"{entry['sim']['overhead_ratio']:.2f}",
            f"{entry['udp']['overhead_ratio']:.2f}",
            "PASS" if entry["passed"] else "FAIL",
        )
    return table.render()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.crossval",
        description="Cross-validate protocol behaviour: simulator vs UDP loopback.",
    )
    parser.add_argument("--scenario", action="append", choices=sorted(SCENARIOS),
                        help="run one scenario (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--unit", type=float, default=DEFAULT_UNIT,
                        help="wall-clock seconds per scenario unit (default: 0.01)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative overhead-ratio difference")
    parser.add_argument("--out", help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run_all(seed=args.seed, unit=args.unit, tolerance=args.tolerance,
                     names=args.scenario)
    print(render(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not report["passed"]:
        print("cross-validation FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
