from perfbench.check import (
    CAUSAL,
    FIFO,
    TOTAL,
    Delivery,
    check_deliveries,
    check_verdicts,
)


def causal_run():
    """a sends a1; b delivers it and sends b1 (which depends on a1); a2 follows."""
    a1 = Delivery("a", 1, {"a": 1, "b": 0})
    b1 = Delivery("b", 1, {"a": 1, "b": 1})
    a2 = Delivery("a", 2, {"a": 2, "b": 1})
    return {"a": 2, "b": 1}, a1, b1, a2


def test_clean_run_has_no_failures():
    sent, a1, b1, a2 = causal_run()
    logs = {"a": [a1, b1, a2], "b": [a1, b1, a2], "c": [a1, b1, a2]}
    verdict = check_deliveries(sent, logs, (FIFO, CAUSAL))
    assert (verdict.attempted, verdict.failed) == (9, 0)
    assert verdict.ok


def test_swapped_delivery_counts_in_failed_share():
    sent, a1, b1, a2 = causal_run()
    # c delivers b1 before the a1 it depends on.
    logs = {"a": [a1, b1, a2], "b": [a1, b1, a2], "c": [b1, a1, a2]}
    verdict = check_deliveries(sent, logs, (FIFO, CAUSAL))
    assert verdict.failed == 1 and verdict.reasons["order"] == 1
    assert verdict.failed / verdict.attempted > 0


def test_dropped_delivery_counts_in_failed_share():
    sent, a1, b1, a2 = causal_run()
    logs = {"a": [a1, b1, a2], "b": [a1, b1, a2], "c": [a1, b1]}
    verdict = check_deliveries(sent, logs, (FIFO, CAUSAL))
    assert verdict.failed == 1 and verdict.reasons["missing"] == 1


def test_duplicate_and_unexpected_deliveries_fail():
    sent, a1, b1, a2 = causal_run()
    ghost = Delivery("z", 1, {})
    logs = {"a": [a1, a1, b1, a2], "b": [a1, b1, a2, ghost]}
    verdict = check_deliveries(sent, logs, (FIFO, CAUSAL))
    assert verdict.reasons["duplicate"] == 1 and verdict.reasons["unexpected"] == 1


def test_fifo_swap_is_caught_without_stamps():
    sent = {"a": 2}
    logs = {"a": [Delivery("a", 1), Delivery("a", 2)],
            "b": [Delivery("a", 2), Delivery("a", 1)]}
    verdict = check_deliveries(sent, logs, (FIFO,))
    assert verdict.failed == 1


def test_total_order_charges_the_deviant_member():
    sent = {"a": 2, "b": 1}
    x, y, z = Delivery("a", 1), Delivery("b", 1), Delivery("a", 2)
    agreed = [x, y, z]
    logs = {"a": agreed, "b": agreed, "c": [y, x, z]}
    verdict = check_deliveries(sent, logs, (TOTAL,))
    assert verdict.failed == 2  # c's two swapped deliveries, nobody else's
    assert check_deliveries(sent, {"a": agreed, "b": agreed}, (TOTAL,)).ok


def test_total_order_charges_a_missing_delivery_once():
    sent = {"a": 3}
    one, two, three = (Delivery("a", i) for i in (1, 2, 3))
    logs = {"a": [one, two, three], "b": [one, three]}
    verdict = check_deliveries(sent, logs, (TOTAL,))
    assert verdict.failed == 1 and verdict.reasons["missing"] == 1


def test_suite_verdicts():
    names = ("E01", "E02", "E03")
    assert check_verdicts({n: "pass" for n in names}, names).ok
    verdict = check_verdicts({"E01": "pass", "E02": "FAIL"}, names)
    assert (verdict.attempted, verdict.failed) == (3, 2)
