"""Performance microbenchmarks of the library itself.

Unlike the E* reproduction targets (one deterministic run each), these are
true repeated-measurement benchmarks: simulator event throughput, multicast
processing cost per ordering discipline, and clock-comparison hot paths.
They catch performance regressions in the substrate that every experiment
stands on.
"""

import itertools
import time

import pytest

from repro.catocs import DISCIPLINES, build_group
from repro.ordering import ClockDomain, MatrixClock
from repro.sim import LinkModel, Network, Simulator


def test_kernel_event_throughput(benchmark):
    def run():
        sim = Simulator(seed=0)

        def chain(n):
            if n:
                sim.call_later(1.0, chain, n - 1)

        sim.call_at(0.0, chain, 5000)
        sim.run()
        return sim.events_executed

    events = benchmark(run)
    assert events >= 5000


@pytest.mark.parametrize("schedule", ["call_at", "post_at"])
@pytest.mark.parametrize("depth", [2000, 30000])
def test_kernel_standing_queue(benchmark, depth, schedule):
    """``depth`` self-re-arming timers at seeded random delays, 20,000 firings.

    The chain above holds one entry, so its pushes and pops compare nothing;
    here each sifts through about log2(depth) entries, which is the cost
    that depends on what a heap entry is.  ``post_at`` is the same queue
    without the Timer handles."""

    def run():
        sim = Simulator(seed=0)
        uniform = sim.rng.uniform
        arm = getattr(sim, schedule)

        def rearm():
            arm(sim.now + uniform(0.5, 1.5), rearm)

        for _ in range(depth):
            arm(uniform(0.0, 1.0), rearm)
        sim.run(max_events=20_000)
        return sim.pending

    assert benchmark(run) == depth


def test_network_send_deliver_throughput(benchmark):
    from repro.sim import Process

    class Sink(Process):
        count = 0

        def on_message(self, src, payload):
            self.count += 1

    def run():
        sim = Simulator(seed=0)
        net = Network(sim, LinkModel(latency=1.0, jitter=0.5))
        a = Sink(sim, net, "a")
        b = Sink(sim, net, "b")
        for i in range(2000):
            sim.call_at(float(i) * 0.1, a.send, "b", i)
        sim.run()
        return b.count

    assert benchmark(run) == 2000


def test_network_send_deliver(benchmark):
    """The envelope path alone, at perfbench's link model: seven sends from
    one of eight no-op processes, then the seven deliveries."""
    from repro.sim import Process

    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0))
    for i in range(8):
        Process(sim, net, f"m{i}")
    peers = [f"m{i}" for i in range(1, 8)]

    def run():
        net.multicast("m0", peers, 50)
        sim.run()
        return net.stats.delivered

    assert benchmark(run) % 7 == 0


def _sizing_cases():
    from repro.apps.nameservice import Binding, GossipDigest
    from repro.catocs.messages import AckGossip, DataMessage, Heartbeat

    def counts(n):
        return {f"m{i}": 9 + i for i in range(n)}

    pids = tuple(counts(24))
    stamped = DataMessage(group="group", sender="m2", seq=17, payload=50, sent_at=0.0667,
                          vc=ClockDomain(pids).clock(counts(24)).stamped("m2"),
                          ack_vector=counts(24))
    digest = GossipDigest("m0", {f"name-{i}": Binding(f"name-{i}", f"host-{i}", 0.5 * i, "m1")
                                 for i in range(100)})
    return {
        "AckGossip-3": AckGossip("group", "m1", counts(3)),
        "AckGossip-24": AckGossip("group", "m1", counts(24)),
        "AckGossip-64": AckGossip("group", "m1", counts(64)),
        "Heartbeat": Heartbeat("group", "m1", 4),
        "DataMessage-24": stamped,
        "GossipDigest-100": digest,
    }


_SIZING_CASES = _sizing_cases()


@pytest.mark.parametrize("case", list(_SIZING_CASES))
def test_estimate_size(benchmark, case):
    """What the byte model charges the host to price one message: the
    control messages should grow gently with the group (C calls per shape),
    not by a Python call per member."""
    from repro.sim.network import estimate_size

    payload = _SIZING_CASES[case]
    assert benchmark(estimate_size, payload) == estimate_size(payload) > 0


def _group_workload(ordering, members_n=5, msgs=60):
    sim = Simulator(seed=1)
    net = Network(sim, LinkModel(latency=3.0, jitter=2.0))
    pids = [f"p{i}" for i in range(members_n)]
    members = build_group(sim, net, pids, ordering=ordering, ack_period=20.0)
    for k in range(msgs):
        sim.call_at(1.0 + k * 5.0, members[pids[k % members_n]].multicast, k)
    sim.run(until=msgs * 5.0 + 500.0)
    total = sum(len(m.delivered) for m in members.values())
    assert total == msgs * members_n
    return total


@pytest.mark.parametrize("alias", sorted(DISCIPLINES))
def test_multicast_throughput(benchmark, alias):
    """The same 5-member, 60-message schedule through every discipline
    alias, so `raw`, `fifo`, `hybrid-causal` and `batched-causal` — which
    perfbench has no workload for — are timed beside `causal` and the two
    total orders."""
    benchmark(_group_workload, alias)


def test_dense_clock_merge_compare(benchmark):
    # A receipt merging a 24-entry mapping into a fresh stamp, then the
    # happens-before comparisons a causal check makes.
    domain = ClockDomain(tuple(f"p{i}" for i in range(24)))
    a = domain.clock({f"p{i}": i * 7 for i in range(24)})
    b = domain.clock({f"p{i}": i * 5 + 3 for i in range(24)})
    b_counts = b.as_dict()

    def run():
        out = 0
        for _ in range(500):
            m = a.stamped("p0").merge_in(b_counts)
            out += (a <= m) + (b <= m) + (not a <= b and not b <= a)
        return out

    assert benchmark(run) == 500 * 3


def test_dense_clock_send_stamp(benchmark):
    # The per-multicast sender cycle: one flat array copy, in-place advance.
    def run():
        domain = ClockDomain(tuple(f"p{i}" for i in range(24)))
        delivered = domain.zero()
        for seq in range(1, 1001):
            delivered.stamped("p0")
            delivered.advance("p0", seq)
        return delivered["p0"]

    assert benchmark(run) == 1000


def test_trace_filtering_throughput(benchmark):
    from repro.sim import EventTrace

    trace = EventTrace()
    for i in range(100_000):
        trace.record(float(i), f"p{i % 100}", ("send", "recv", "deliver")[i % 3],
                     "m")

    def run():
        return len(trace.for_pid("p7")) + len(trace.of_kind("deliver"))

    # indexed filtering: O(result), not O(trace)
    assert benchmark(run) == 1000 + 33_333


@pytest.mark.parametrize("size", [16, 128])
def test_matrix_clock_stability_scan(benchmark, size):
    """Rows learn a growing ack vector round-robin, as mappings, and the
    frontier is read after each.  A step costs O(N) for the mapping itself;
    recomputing the frontier made it O(N^2) — so the two sizes' timings
    should stand about 8x apart, not 64x."""
    pids = [f"p{i}" for i in range(size)]
    matrix = MatrixClock(pids)
    counts = dict.fromkeys(pids, 0)
    steps = itertools.count()

    def run():
        total = 0
        for _ in range(256):
            pid = pids[next(steps) % size]
            counts[pid] += 1
            matrix.update_row(pid, counts)
            total += matrix.min_vector()[pid]
        return total

    assert benchmark(run) >= 0
    rows = [matrix.row(pid) for pid in pids]
    assert matrix.min_vector() == {
        subject: min(row[subject] for row in rows) for subject in pids
    }


def _stability_group(size):
    """Every member's (stability, dedup) layers, no gossip timer armed."""
    sim = Simulator(seed=0)
    net = Network(sim, LinkModel(latency=3.0))
    group = build_group(sim, net, [f"m{i}" for i in range(size)],
                        ordering="raw", ack_period=0.0)
    return [(m.stack.layer("stability"), m.stack.layer("dedup")) for m in group.values()]


@pytest.mark.parametrize("size", [8, 64])
@pytest.mark.parametrize("kind", ["news", "no_news"])
def test_stability_gossip_round(benchmark, kind, size):
    """One gossip tick at one member and the N-1 receipts it causes, at the
    group sizes E05/E07 sweep.  With news (the ticker sent a message since
    its last tick) every receipt merges an N-entry vector twice; without,
    the tick re-sends its last snapshot and a receipt is one comparison.
    The ticker holds an unstable message throughout, so no tick is quiet:
    every one sends an ``AckQuery``, and every receiver, settled, answers
    it (the answer is counted, not transmitted)."""
    from repro.catocs.messages import DataMessage

    (ticker, ticker_counts), *receivers = _stability_group(size)
    member = ticker.member
    sent = []
    member.send_peers = sent.append
    member.set_timer = lambda delay, fn, *args: None  # the round is driven from here
    for layer, _ in receivers:
        layer.member.send = lambda dst, payload: None  # answers are counted, not sent
    ticker.buffer_message(DataMessage(group="group", sender="m1", seq=1, payload=0,
                                      sent_at=0.0))

    def sent_one_more():  # not timed
        if kind == "news":
            seq = ticker_counts.contiguous["m0"] + 1
            ticker_counts.contiguous["m0"] = seq
            for _, dedup in receivers:
                dedup._max_seen["m0"] = seq  # they received it: nothing to chase

    def run():
        ticker._gossip_tick()
        gossip = sent.pop()
        for layer, _ in receivers:
            layer.on_control("m0", gossip)
        return gossip

    ticker._gossip_tick()  # the snapshot a news-free tick re-sends
    first = sent.pop()
    benchmark.pedantic(run, setup=sent_one_more, rounds=300, warmup_rounds=5)
    last = run()
    assert (last is first) == (kind == "no_news")
    assert last.ack_vector == ticker_counts.contiguous
    assert ticker.gossip_quiet == 0
    for layer, _ in receivers:
        assert layer.matrix.row("m0") == last.ack_vector
        assert layer.gossip_answers == ticker.gossip_sent - 1  # all but the first tick


@pytest.mark.parametrize("size", [8, 64])
def test_quiet_group_tail(benchmark, size):
    """A settled group (a short stream, every buffer drained) ticking for
    100 more gossip periods: what the tail after a stream costs once a
    settled member is silent.  Reports the gossip sends per member and the
    time per tick."""
    periods, ack_period = 100, 20.0

    def settled():
        sim = Simulator(seed=0)
        net = Network(sim, LinkModel(latency=3.0, jitter=2.0))
        pids = [f"m{i}" for i in range(size)]
        group = build_group(sim, net, pids, ordering="causal", ack_period=ack_period)
        for k in range(8):
            sim.call_at(1.0 + k, group[pids[k % size]].multicast, k)
        sim.run(until=500.0)
        layers = [m.stack.layer("stability") for m in group.values()]
        assert not any(layer.buffer for layer in layers)
        return (sim, layers), {}

    elapsed = []

    def gossip(layers):
        return sum(layer.gossip_sent + layer.gossip_answers for layer in layers)

    def run(sim, layers):
        before = gossip(layers)
        start = time.perf_counter()
        sim.run(until=sim.now + periods * ack_period)
        elapsed.append(time.perf_counter() - start)
        return gossip(layers) - before

    sends = benchmark.pedantic(run, setup=settled, rounds=10)
    benchmark.extra_info["sends_per_member"] = sends / size
    benchmark.extra_info["us_per_tick"] = min(elapsed) * 1e6 / (periods * size)
    assert sends == 0  # nothing is buffered, so nobody asks and nobody answers


@pytest.mark.parametrize("size", [8, 64])
def test_own_count_publish(benchmark, size):
    """What a send or a receipt tells the stability layer about the member's
    own progress: the one count that moved, not the N-entry row."""
    layer, dedup = _stability_group(size)[0]
    counts = dedup.contiguous
    senders = itertools.cycle(list(counts))

    def run():
        for _ in range(256):
            sender = next(senders)
            counts[sender] += 1
            layer.publish_own_counts(sender, counts[sender])

    benchmark(run)
    assert layer.matrix.row("m0") == counts


@pytest.mark.parametrize("size", [3, 24])
def test_wire_codec_datagram(benchmark, size):
    """One multicast in a three-member group as the socket path pays for it:
    the stamped ``DataMessage`` is encoded once and decoded by two receivers.
    Only the clock and the ack vector grow with the group."""
    from repro.catocs.messages import DataMessage
    from repro.runtime import codec

    pids = tuple(f"m{i}" for i in range(size))
    domain = ClockDomain(pids)  # the receivers' domain is the sender's here
    domains = {"group": domain}.__getitem__
    clock = domain.clock({pid: 10 + i for i, pid in enumerate(pids)})
    msg = DataMessage(group="group", sender="m2", seq=17, payload=50, sent_at=0.0667,
                      vc=clock.stamped("m2"),
                      ack_vector={pid: 9 + i for i, pid in enumerate(pids)})

    def run():
        data = codec.encode_datagram("m2", msg)
        return codec.decode_datagram(data, domains), codec.decode_datagram(data, domains)

    first, second = benchmark(run)
    assert first == second == ("m2", msg)
