"""Process host: one group member, one OS process, one loopback port.

``python -m repro.runtime.host`` boots an *unchanged* protocol stack spec
(e.g. ``dedup|batch|stability|causal``) as a real operating-system process:
it binds a UDP socket on loopback, joins the configured group, drives an
application feed through :class:`LoadGenerator` at a configured message
rate, and prints a JSON report (deliveries, ordering digest, traffic
counters, wall-clock throughput) when the run completes.

Example — a two-host trading group (run in two shells)::

    python -m repro.runtime.host --pid a --group g --stack causal \\
        --member a=127.0.0.1:7401 --member b=127.0.0.1:7402 \\
        --app trading --rate 50 --duration 2

    python -m repro.runtime.host --pid b --group g --stack causal \\
        --member a=127.0.0.1:7401 --member b=127.0.0.1:7402 \\
        --app trading --rate 50 --duration 2

Every member lists the *same* ``--member`` set in the same order; the host
binds its own entry and treats the rest as remote peers.  See
``examples/loopback_trading.py`` for a scripted version and
``docs/RUNTIME.md`` for the background.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.apps.feeds import FEEDS, make_feed
from repro.catocs.member import GroupMember
from repro.runtime.asyncio_rt import AsyncioClock
from repro.runtime.udp import UdpNetwork
from repro.sim.network import LinkModel


@dataclass
class HostConfig:
    """Everything one member process needs to join a loopback group."""

    pid: str
    group: str
    #: pid -> (host, port) for *every* member, local one included; dict
    #: order is the membership order and must match across processes.
    members: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    stack: str = "causal"
    app: str = "trading"
    rate: float = 50.0  # multicasts per second from the load generator
    duration: float = 2.0  # seconds of load
    settle: float = 0.5  # extra seconds for repair/stability traffic to drain
    seed: int = 0
    nak_delay: float = 0.05
    ack_period: float = 0.2
    link: Optional[LinkModel] = None


class LoadGenerator:
    """Drives a member's ``multicast`` from a payload feed at a fixed rate."""

    def __init__(self, member: GroupMember, clock: AsyncioClock,
                 feed: Iterator[Any], rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.member = member
        self.clock = clock
        self.feed = feed
        self.interval = 1.0 / rate
        self.sent = 0
        self._timer = None

    def start(self, duration: float) -> int:
        """Schedule ``rate * duration`` sends, evenly paced; returns the count."""
        count = max(1, int(round(duration / self.interval)))
        for k in range(count):
            self.clock.call_later(k * self.interval, self._tick)
        return count

    def _tick(self) -> None:
        self.member.multicast(next(self.feed))
        self.sent += 1


def _payload_label(payload: Any) -> str:
    if isinstance(payload, dict) and "label" in payload:
        return str(payload["label"])
    article_id = getattr(payload, "article_id", None)
    if article_id is not None:
        return str(article_id)
    return repr(payload)


class StackHost:
    """One group member as a real process: socket, stack, load, report."""

    def __init__(self, config: HostConfig) -> None:
        if config.pid not in config.members:
            raise ValueError(f"--pid {config.pid} has no --member entry")
        self.config = config
        self.delivery_log: List[Tuple[str, str]] = []  # (src, payload label)
        self.clock: Optional[AsyncioClock] = None
        self.net: Optional[UdpNetwork] = None
        self.member: Optional[GroupMember] = None

    async def run(self) -> Dict[str, Any]:
        config = self.config
        self.clock = clock = AsyncioClock(seed=config.seed)
        self.net = net = UdpNetwork(clock, config.link or LinkModel(latency=0.0))
        local_host, local_port = config.members[config.pid]
        self.member = member = GroupMember(
            clock, net, config.pid, group=config.group,
            members=tuple(config.members), ordering=config.stack,
            nak_delay=config.nak_delay, ack_period=config.ack_period,
            on_deliver=self._on_deliver,
        )
        net.reserve_port(config.pid, local_port)
        for pid, (host, port) in config.members.items():
            if pid != config.pid:
                net.add_peer(pid, host, port)
        await net.start()

        feed = make_feed(config.app, seed=config.seed)
        load = LoadGenerator(member, clock, feed, config.rate)
        started = clock.now
        scheduled = load.start(config.duration)
        await asyncio.sleep(config.duration + config.settle)
        elapsed = max(clock.now - started, 1e-9)
        net.close()

        return {
            "schema": "repro.host/v1",
            "pid": config.pid,
            "group": config.group,
            "stack": config.stack,
            "app": config.app,
            "seed": config.seed,
            "address": f"{local_host}:{local_port}",
            "scheduled": scheduled,
            "multicasts_sent": member.multicasts_sent,
            "delivered": len(self.delivery_log),
            "delivery_order": [label for _, label in self.delivery_log],
            "elapsed_s": round(elapsed, 4),
            "runtime_msgs_per_sec": round(len(self.delivery_log) / elapsed, 2),
            # asdict, not vars(): NetworkStats is slotted and has no __dict__.
            "net": asdict(self.net.stats),
            "decode_errors": net.decode_errors,
            "unknown_sender": net.unknown_sender,
        }

    def _on_deliver(self, src: str, payload: Any, msg: Any) -> None:
        self.delivery_log.append((src, _payload_label(payload)))


def parse_member(value: str) -> Tuple[str, Tuple[str, int]]:
    """Parse one ``pid=host:port`` CLI argument."""
    try:
        pid, addr = value.split("=", 1)
        host, port = addr.rsplit(":", 1)
        return pid, (host, int(port))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected pid=host:port, got {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.host",
        description="Run one protocol-stack member as a real UDP loopback process.",
    )
    parser.add_argument("--pid", required=True, help="this member's process id")
    parser.add_argument("--group", default="g", help="group name (default: g)")
    parser.add_argument("--member", dest="members", metavar="PID=HOST:PORT",
                        type=parse_member, action="append", required=True,
                        help="membership entry; repeat for every member, same "
                             "order on every host")
    parser.add_argument("--stack", default="causal",
                        help="stack spec or discipline alias (default: causal)")
    parser.add_argument("--app", default="trading", choices=sorted(FEEDS),
                        help="payload feed driven by the load generator")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="multicasts per second (default: 50)")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="seconds of generated load (default: 2)")
    parser.add_argument("--settle", type=float, default=0.5,
                        help="drain time after load stops (default: 0.5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = HostConfig(
        pid=args.pid, group=args.group, members=dict(args.members),
        stack=args.stack, app=args.app, rate=args.rate,
        duration=args.duration, settle=args.settle, seed=args.seed,
    )
    report = asyncio.run(StackHost(config).run())
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
