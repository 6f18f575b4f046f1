"""Figure 4: the trading floor — option prices, theoretical prices, and the
false crossing neither causal nor total multicast can prevent.

One service multicasts option prices; a second computes the theoretical
price from each option price (after a compute delay) and multicasts it; a
monitor displays both.  The semantic constraint: a theoretical price is
ordered after the option price it derives from and *before all subsequent
changes to that underlying price*.  But a new option price and the previous
theoretical price are concurrent under happens-before, so CATOCS may show a
fresh option price beside a theoretical price computed from the stale one —
a "false crossing" when the displayed theoretical dips below the displayed
option price, a relation the true data never exhibits.

The production fix (Section 4.1): every datum carries its id+version and a
dependency field naming the base datum's version; a
:class:`~repro.statelevel.dependency.DependencyTracker` at the display keeps
the view consistent without any multicast ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.catocs import build_member
from repro.sim.kernel import Simulator
from repro.sim.network import LinkModel, Network
from repro.sim.trace import EventTrace
from repro.statelevel.dependency import DependencyTracker, Stamped


@dataclass
class DisplaySample:
    """What the monitor shows at one delivery instant."""

    time: float
    option: Optional[float]
    option_version: int
    theo: Optional[float]
    theo_base_version: int

    @property
    def crossed(self) -> bool:
        """True when the display shows theo <= option (never true in the data)."""
        return (
            self.option is not None
            and self.theo is not None
            and self.theo <= self.option
        )


@dataclass
class TradingResult:
    ticks: int
    naive_samples: List[DisplaySample]
    false_crossings_naive: int
    false_crossings_fixed: int
    stale_theo_flagged: int
    delivery_order: List[str]
    trace: EventTrace


def run_trading(
    seed: int = 0,
    ordering: str = "causal",
    ticks: int = 6,
    tick_interval: float = 20.0,
    start_price: float = 25.5,
    step: float = 1.0,
    premium: float = 0.5,
    compute_delay: float = 8.0,
    theo_latency: float = 25.0,
    fast_latency: float = 3.0,
) -> TradingResult:
    """Execute the Figure 4 scenario.

    The theoretical pricer's outbound links are slow (``theo_latency``), so
    its output trails the option feed at the monitor by more than one tick —
    the timing that produces the false crossing.  ``premium`` < ``step``
    guarantees a stale theoretical price actually crosses the next option
    price.
    """
    sim = Simulator(seed=seed)
    net = Network(sim, LinkModel(latency=fast_latency))
    trace = EventTrace()

    group = ["monitor", "option-pricer", "theo-pricer"]

    # -- monitor state -------------------------------------------------------------
    naive_samples: List[DisplaySample] = []
    delivery_order: List[str] = []
    tracker = DependencyTracker()
    fixed_crossings = 0
    naive_option: Dict[str, Any] = {"price": None, "version": 0}
    naive_theo: Dict[str, Any] = {"price": None, "base_version": 0}

    def monitor_deliver(src: str, payload: Any, msg: Any) -> None:
        nonlocal fixed_crossings
        delivery_order.append(payload["label"])
        if payload["kind"] == "option":
            naive_option["price"] = payload["price"]
            naive_option["version"] = payload["version"]
            tracker.offer(
                Stamped(object_id="option", version=payload["version"],
                        value=payload["price"])
            )
        else:
            naive_theo["price"] = payload["price"]
            naive_theo["base_version"] = payload["base_version"]
            tracker.offer(
                Stamped(object_id="theo", version=payload["version"],
                        value=payload["price"],
                        deps=(("option", payload["base_version"]),))
            )
        naive_samples.append(
            DisplaySample(
                time=sim.now,
                option=naive_option["price"],
                option_version=naive_option["version"],
                theo=naive_theo["price"],
                theo_base_version=naive_theo["base_version"],
            )
        )
        # The fixed display: only dependency-consistent data is shown.
        view = tracker.consistent_view()
        option = view.get("option")
        theo = view.get("theo")
        if option is not None and theo is not None and theo.value <= option.value:
            fixed_crossings += 1

    monitor = build_member(sim, net, "monitor", group="floor", members=group,
                           ordering=ordering, on_deliver=monitor_deliver, trace=trace)

    # -- theoretical pricer ---------------------------------------------------------
    theo_version = {"n": 0}

    def theo_deliver(src: str, payload: Any, msg: Any) -> None:
        if payload["kind"] != "option":
            return
        base_version = payload["version"]
        base_price = payload["price"]

        def publish() -> None:
            theo_version["n"] += 1
            theo_pricer.multicast(
                {
                    "kind": "theo",
                    "label": f"theo(v{base_version})",
                    "price": base_price + premium,
                    "version": theo_version["n"],
                    "base_version": base_version,
                }
            )

        sim.call_later(compute_delay, publish)

    theo_pricer = build_member(sim, net, "theo-pricer", group="floor", members=group,
                               ordering=ordering, on_deliver=theo_deliver, trace=trace)
    option_pricer = build_member(sim, net, "option-pricer", group="floor", members=group,
                                 ordering=ordering, trace=trace)

    # Theoretical pricer is slow to everyone (keeping its output concurrent
    # with the next option tick rather than causally prior to it).
    net.set_link("theo-pricer", "monitor", LinkModel(latency=theo_latency))
    net.set_link("theo-pricer", "option-pricer", LinkModel(latency=theo_latency))

    # -- option feed ------------------------------------------------------------------
    for tick in range(ticks):
        price = start_price + tick * step
        sim.call_at(
            10.0 + tick * tick_interval,
            option_pricer.multicast,
            {
                "kind": "option",
                "label": f"option(v{tick + 1})",
                "price": price,
                "version": tick + 1,
            },
        )

    # Ten ack periods after the last option tick every price and every
    # theoretical price derived from it is delivered; only gossip remains.
    last_tick = 10.0 + (ticks - 1) * tick_interval
    sim.run(until=last_tick + 10 * monitor.ack_period)

    naive_crossings = sum(1 for s in naive_samples if s.crossed)
    return TradingResult(
        ticks=ticks,
        naive_samples=naive_samples,
        false_crossings_naive=naive_crossings,
        false_crossings_fixed=fixed_crossings,
        stale_theo_flagged=tracker.flagged_stale_deps,
        delivery_order=delivery_order,
        trace=trace,
    )
