"""``udp-causal-loopback``: the unchanged causal stack over real UDP sockets.

Three members share one process and one event loop (``AsyncioClock`` +
``UdpNetwork`` on the loopback interface), so every datagram is encoded,
crosses the OS socket layer and is decoded, but no two members ever run at
once and nothing leaves the host: this measures codec, syscall and
loop-dispatch cost per message, not wire latency or multi-core scaling.

Phases.  *serial* and *pipelined* are closed loops (the next multicast is
issued when an earlier one has been delivered everywhere) with 1 multicast
outstanding group-wide and 4 per member; they are the read-beside-write
pair for the socket path: coalescing or a flush timer helps pipelined and
hurts serial.  *paced* and *ladder* are open loops on a fixed schedule,
timed from when each multicast was due; near capacity they are bimodal
(clean, or a NAK storm), so they are reported per layer as diagnostics only.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.calibrate import (
    TooFewSamples,
    percentile,
    sample,
    sampling,
    spin,
    supported_percentile,
)
from perfbench.check import CAUSAL, FIFO, Delivery, check_deliveries
from perfbench.simload import stack_counts, stamp_of
from perfbench.slices import Record
from perfbench.trace import Tracer

PIDS = ("m0", "m1", "m2")
CLAIMS = (FIFO, CAUSAL)
#: On a wall clock even a message released by the datagram that brought it
#: spends microseconds in the ordering layer; held means it outlasted that.
HELD_OVER_S = 25e-6


@dataclass(frozen=True)
class UdpSizes:
    #: multicasts per closed-loop slice
    multicasts: int = 1500
    #: outstanding per member in the pipelined phase (serial: 1 group-wide)
    window: int = 4
    #: a closed-loop slice that has not finished by then has failed
    deadline_s: float = 30.0
    paced_rate: float = 500.0
    paced_seconds: float = 1.0
    paced_slices: int = 6
    ladder_rates: Tuple[float, ...] = (250.0, 500.0, 1000.0, 2000.0, 4000.0)
    ladder_seconds: float = 2.0
    #: how long an open loop may take to deliver what is still in flight
    drain_cap_s: float = 2.0
    #: a ladder rung passes with the latency tail within this ...
    latency_limit_s: float = 0.050
    #: ... and the generator's own lateness tail within this
    late_limit_s: float = 0.005


SIZES = UdpSizes()
SMOKE_SIZES = UdpSizes(multicasts=60, deadline_s=10.0, paced_rate=200.0,
                       paced_seconds=0.3, paced_slices=1,
                       ladder_rates=(200.0, 400.0), ladder_seconds=0.3)


class _Group:
    """A fresh three-member causal group on loopback sockets."""

    def __init__(self, seed: int) -> None:
        from repro.catocs import build_group
        from repro.runtime import AsyncioClock, UdpNetwork
        from repro.sim import LinkModel

        self.clock = AsyncioClock(seed=seed)
        self.net = UdpNetwork(self.clock, LinkModel(latency=0.0))
        self.logs: Dict[str, list] = {pid: [] for pid in PIDS}
        #: payload -> members that have yet to deliver it
        self.pending: Dict[int, int] = {}
        self.issued: Dict[str, int] = {pid: 0 for pid in PIDS}
        self.on_complete = lambda sender, payload: None
        #: open loops time every delivery; closed loops leave this unset
        self.on_delivery: Optional[Callable[[int], None]] = None
        self.members = build_group(
            self.clock, self.net, PIDS, ordering="causal",
            nak_delay=0.05, ack_period=0.5, on_deliver=self._recorder,
        )

    def _recorder(self, pid: str):
        add = self.logs[pid].append
        pending = self.pending

        def on_deliver(sender: str, payload: int, msg: Any) -> None:
            add(msg)
            if self.on_delivery is not None:
                self.on_delivery(payload)
            left = pending.get(payload, 0) - 1
            if left > 0:
                pending[payload] = left
            elif left == 0:
                del pending[payload]
                self.on_complete(sender, payload)

        return on_deliver

    def multicast(self, pid: str, payload: int) -> None:
        self.pending[payload] = len(PIDS)
        self.issued[pid] += 1
        self.members[pid].multicast(payload)

    def verdict_and_counts(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        verdict = check_deliveries(
            self.issued,
            {pid: [Delivery(m.sender, m.seq, stamp_of(m)) for m in log]
             for pid, log in self.logs.items()},
            CLAIMS,
        )
        counts = stack_counts(self.members, HELD_OVER_S)
        stats = self.net.stats
        counts.update(wire_msgs=stats.sent, wire_bytes=stats.bytes_sent,
                      dropped=stats.dropped, decode_errors=self.net.decode_errors)
        return verdict.as_dict(), counts


async def _closed_loop(sizes: UdpSizes, seed: int, window: Optional[int],
                       tracer: Optional[Tracer]) -> Record:
    """One closed-loop slice.  ``window=None`` is the serial phase: one
    multicast outstanding group-wide, senders round-robin; otherwise each
    member keeps ``window`` of its own multicasts outstanding."""
    loop = asyncio.get_running_loop()
    group = _Group(seed)
    total = sizes.multicasts
    done = loop.create_future()
    state = {"next": 0, "completed": 0, "finished": 0.0}

    def issue(pid: str) -> None:
        k = state["next"]
        if k < total:
            state["next"] = k + 1
            group.multicast(pid, k)

    def on_complete(sender: str, payload: int) -> None:
        state["completed"] += 1
        if state["completed"] == total:
            state["finished"] = time.perf_counter()
            if not done.done():
                done.set_result(None)
            return
        # The application reacts from the loop, not from inside the
        # stack's delivery callback.
        successor = PIDS[(payload + 1) % len(PIDS)] if window is None else sender
        loop.call_soon(issue, successor)

    group.on_complete = on_complete
    try:
        await group.net.start()
        span = tracer.slice() if tracer is not None else nullcontext()
        before = spin()
        with sampling() as inside, span:
            started = time.perf_counter()
            if window is None:
                issue(PIDS[0])
            else:
                for _ in range(window):
                    for pid in PIDS:
                        issue(pid)
            try:
                await asyncio.wait_for(done, sizes.deadline_s)
            except asyncio.TimeoutError:
                state["finished"] = time.perf_counter()
        after = spin()
    finally:
        group.net.close()
    verdict, counts = group.verdict_and_counts()
    return {"sample": sample(state["finished"] - started, before, after, inside),
            "counts": counts, "verdict": verdict}


async def _open_loop(sizes: UdpSizes, seed: int, rate: float, seconds: float) -> Record:
    """One open-loop slice: multicasts fall due every ``1/rate`` seconds
    whatever the stack is doing.  Latency runs from the due time to each
    delivery; ``late`` is how far behind its schedule the generator ran."""
    loop = asyncio.get_running_loop()
    group = _Group(seed)
    total = max(1, int(rate * seconds))
    clock = time.perf_counter
    due_at: List[float] = [0.0] * total
    latencies: List[float] = []
    late: List[float] = []
    done = loop.create_future()
    completed = [0]

    def on_complete(sender: str, payload: int) -> None:
        completed[0] += 1
        if completed[0] == total and not done.done():
            done.set_result(None)

    group.on_delivery = lambda payload: latencies.append(clock() - due_at[payload])
    group.on_complete = on_complete
    try:
        await group.net.start()
        start = clock()
        for k in range(total):
            due = start + k / rate
            # Always yield once, so a late generator cannot starve the
            # sockets it is waiting on; then yield until the send is due.
            await asyncio.sleep(0)
            while clock() < due:
                await asyncio.sleep(0)
            due_at[k] = due
            late.append(clock() - due)
            group.multicast(PIDS[k % len(PIDS)], k)
        try:
            await asyncio.wait_for(done, sizes.drain_cap_s)
        except asyncio.TimeoutError:
            pass
    finally:
        group.net.close()
    verdict, counts = group.verdict_and_counts()
    return {"rate": rate, "multicasts": total, "latencies": latencies, "late": late,
            "counts": counts, "verdict": verdict}


def closed_slice(sizes: UdpSizes, seed: int, tracer: Optional[Tracer] = None) -> Record:
    """One serial and one pipelined slice, back to back, so host drift
    falls on both phases alike.  Each gets a fresh event loop and sockets."""
    return {
        "serial": asyncio.run(_closed_loop(sizes, seed, None, tracer)),
        "pipelined": asyncio.run(_closed_loop(sizes, seed, sizes.window, tracer)),
    }


def tail(values: List[float], want: float = 99.0) -> Tuple[float, float]:
    """(percentile used, its value): p99 when the sample supports it, the
    highest supported one otherwise, and an infinite tail when the sample
    supports none (too little was delivered to say anything)."""
    try:
        p = supported_percentile(len(values), want)
    except TooFewSamples:
        return 0.0, float("inf")
    return p, percentile(values, p)


def paced(sizes: UdpSizes, seed: int) -> Dict[str, Any]:
    """The paced phase: a steady open loop well inside capacity."""
    runs = [asyncio.run(_open_loop(sizes, seed, sizes.paced_rate, sizes.paced_seconds))
            for _ in range(sizes.paced_slices)]
    latencies = [x for r in runs for x in r["latencies"]]
    late = [x for r in runs for x in r["late"]]
    tail_p, tail_latency = tail(latencies)
    late_p, tail_late = tail(late)
    return {
        "rate": sizes.paced_rate,
        "latency_p50_us": percentile(latencies, 50) * 1e6,
        "latency_tail_us": tail_latency * 1e6,
        "latency_tail_percentile": tail_p,
        "latency_samples": len(latencies),
        "late_tail_us": tail_late * 1e6,
        "late_tail_percentile": late_p,
        "late_samples": len(late),
        "verdicts": [r["verdict"] for r in runs],
        "naks": sum(r["counts"]["naks"] for r in runs),
        "retransmissions": sum(r["counts"]["retransmissions"] for r in runs),
        "decode_errors": sum(r["counts"]["decode_errors"] for r in runs),
    }


def ladder(sizes: UdpSizes, seed: int) -> Dict[str, Any]:
    """Climb fixed rates until one fails; report the highest that passed.

    A rung passes when every multicast was delivered everywhere within the
    drain cap, the latency tail (from due time) is within the limit and the
    generator itself kept to its schedule.  Rungs above a failed one are
    not run: past capacity the backlog only grows.
    """
    rungs: List[Dict[str, Any]] = []
    max_rate = 0.0
    for rate in sizes.ladder_rates:
        run = asyncio.run(_open_loop(sizes, seed, rate, sizes.ladder_seconds))
        tail_p, tail_latency = tail(run["latencies"])
        late_p, tail_late = tail(run["late"])
        complete = run["verdict"]["failed"] == 0
        passed = (complete and tail_latency <= sizes.latency_limit_s
                  and tail_late <= sizes.late_limit_s)
        rungs.append({
            "rate": rate, "passed": passed, "complete": complete,
            "latency_tail_us": tail_latency * 1e6, "latency_tail_percentile": tail_p,
            "latency_samples": len(run["latencies"]),
            "late_tail_us": tail_late * 1e6, "late_tail_percentile": late_p,
            "late_samples": len(run["late"]),
            "naks": run["counts"]["naks"],
            "retransmissions": run["counts"]["retransmissions"],
        })
        if not passed:
            break
        max_rate = rate
    return {"max_rate": max_rate, "rungs": rungs}
