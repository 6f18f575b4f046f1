"""The process host: config parsing, load generation, and a two-host run.

The two-host test runs both StackHosts as concurrent coroutines in one
event loop — each still binds its own UDP socket and reaches the other
only through real datagrams, so it exercises the same path as two OS
processes without subprocess startup cost (the CI ``runtime-smoke`` job
covers the true multi-process case via ``python -m repro.runtime.host``).
"""

import asyncio

import pytest

from repro.apps.feeds import make_feed, netnews_articles, trading_ticks
from repro.runtime.host import HostConfig, StackHost, build_parser, parse_member


def test_parse_member():
    assert parse_member("a=127.0.0.1:7001") == ("a", ("127.0.0.1", 7001))
    with pytest.raises(Exception):
        parse_member("nonsense")


def test_parser_collects_membership_in_order():
    args = build_parser().parse_args([
        "--pid", "b", "--member", "a=127.0.0.1:1", "--member", "b=127.0.0.1:2",
        "--app", "netnews",
    ])
    assert dict(args.members) == {"a": ("127.0.0.1", 1), "b": ("127.0.0.1", 2)}
    assert [pid for pid, _ in args.members] == ["a", "b"]


def test_feeds_are_seed_deterministic():
    a = [next(x) for x in [trading_ticks(seed=9)] for _ in range(5)]
    feed1, feed2 = trading_ticks(seed=9), trading_ticks(seed=9)
    assert [next(feed1) for _ in range(5)] == [next(feed2) for _ in range(5)]
    other = trading_ticks(seed=10)
    assert [next(other) for _ in range(5)] != a

    n1, n2 = netnews_articles(seed=3), netnews_articles(seed=3)
    assert [next(n1) for _ in range(8)] == [next(n2) for _ in range(8)]


def test_netnews_feed_responses_reference_prior_inquiries():
    feed = netnews_articles(seed=1)
    seen_inquiries = set()
    responses = 0
    for _ in range(40):
        article = next(feed)
        if article.kind == "inquiry":
            seen_inquiries.add(article.article_id)
        else:
            responses += 1
            assert set(article.references) <= seen_inquiries
    assert responses > 0


def test_make_feed_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown feed"):
        make_feed("bogus")


def _config(pid, members, *, app="trading", rate=40.0, duration=0.5):
    return HostConfig(pid=pid, group="g", members=members, stack="causal",
                      app=app, rate=rate, duration=duration, settle=0.4, seed=5)


def test_two_hosts_exchange_real_datagrams():
    members = {"a": ("127.0.0.1", 7471), "b": ("127.0.0.1", 7472)}

    async def scenario():
        return await asyncio.gather(
            StackHost(_config("a", members)).run(),
            StackHost(_config("b", members)).run(),
        )

    report_a, report_b = asyncio.run(scenario())
    for report in (report_a, report_b):
        assert report["schema"] == "repro.host/v1"
        assert report["multicasts_sent"] == report["scheduled"] == 20
        # Each host delivers its own 20 plus the peer's 20.
        assert report["delivered"] == 40, report
        assert report["decode_errors"] == 0
        assert report["unknown_sender"] == 0
        assert report["oversize_dropped"] == 0
        assert report["socket_errors"] == 0
        assert report["runtime_msgs_per_sec"] > 0
    # Same seed, same feed: both hosts saw the identical set of tick labels.
    assert set(report_a["delivery_order"]) == set(report_b["delivery_order"])


def test_host_rejects_pid_outside_membership():
    with pytest.raises(ValueError, match="no --member entry"):
        StackHost(_config("z", {"a": ("127.0.0.1", 7473)}))


def test_netnews_app_over_loopback():
    members = {"a": ("127.0.0.1", 7474), "b": ("127.0.0.1", 7475)}

    async def scenario():
        return await asyncio.gather(
            StackHost(_config("a", members, app="netnews", rate=30, duration=0.4)).run(),
            StackHost(_config("b", members, app="netnews", rate=30, duration=0.4)).run(),
        )

    reports = asyncio.run(scenario())
    for report in reports:
        assert report["app"] == "netnews"
        assert report["delivered"] == 2 * report["scheduled"]
        assert report["decode_errors"] == 0  # Article dataclasses codec-clean
