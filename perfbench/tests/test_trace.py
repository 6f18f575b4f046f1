import pytest

from perfbench import trace
from perfbench.trace import Tracer, patched_attributes, summarize, traced


def columns(spans):
    """spans: (name_id, parent, start, end) rows -> the four columns."""
    return ([s[0] for s in spans], [s[1] for s in spans],
            [s[2] for s in spans], [s[3] for s in spans])


def test_self_time_of_nested_and_sibling_spans():
    names = ["outer", "child", "grandchild"]
    layers = ["sim.kernel", "sim.network", "sim.process"]
    spans = [
        (0, -1, 0.0, 10.0),   # outer: two children and a grandchild beneath
        (1, 0, 1.0, 4.0),     # first child, 3 long
        (2, 1, 2.0, 3.0),     # grandchild, 1 long
        (1, 0, 5.0, 7.0),     # sibling child, 2 long
    ]
    summary = summarize(names, layers, *columns(spans), [(0, 4, 0.0, 12.0)])
    # outer's self time excludes its direct children only (3 + 2), not the
    # grandchild twice.
    assert summary.by_name["outer"] == [1, 10.0, 5.0]
    assert summary.by_name["child"] == [2, 5.0, 4.0]
    assert summary.by_name["grandchild"] == [1, 1.0, 1.0]
    assert summary.by_layer["sim.network"] == [2, 4.0]
    assert summary.wall_s == 12.0 and summary.covered_s == 10.0
    assert summary.residual_s == pytest.approx(2.0)
    # Shares and the residual's share sum to one.
    total = sum(summary.self_share(l) for l in layers) + summary.residual_s / 12.0
    assert total == pytest.approx(1.0)


def test_wrapper_allowance_is_charged_per_child_and_per_span():
    names, layers = ["outer", "child"], ["sim.kernel", "sim.network"]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 2.0), (1, 0, 3.0, 4.0)]
    summary = summarize(names, layers, *columns(spans), [(0, 3, 0.0, 10.0)],
                        outer_cost_s=0.5, inner_cost_s=0.25)
    assert summary.by_name["outer"][2] == pytest.approx(10 - 2 - 2 * 0.5 - 0.25)
    assert summary.by_name["child"][2] == pytest.approx(2 * (1 - 0.25))


def test_spans_outside_a_slice_are_ignored():
    names, layers = ["f"], ["sim.kernel"]
    spans = [(0, -1, 0.0, 1.0), (0, -1, 5.0, 6.0)]
    summary = summarize(names, layers, *columns(spans), [(1, 2, 5.0, 6.5)])
    assert summary.by_name["f"][0] == 1 and summary.wall_s == 1.5


def test_traced_restores_every_attribute_even_when_the_body_raises():
    before = [(owner, name, vars(owner)[name]) for owner, name in patched_attributes()]
    with pytest.raises(RuntimeError):
        with traced():
            for owner, name, original in before:
                assert vars(owner)[name] is not original, (owner, name)
            raise RuntimeError("boom")
    for owner, name, original in before:
        assert vars(owner)[name] is original, (owner, name)


def test_spans_are_recorded_only_where_a_call_enters_another_layer():
    tracer = Tracer()
    inner = tracer.wrap(lambda: 1, "same.inner", "sim.network")
    other = tracer.wrap(lambda: 2, "other.leaf", "sim.process")
    outer = tracer.wrap(lambda: inner() + other(), "same.outer", "sim.network")
    assert outer() == 3 and len(tracer.start_col) == 0  # no slice open
    with tracer.slice():
        outer()
    recorded = [tracer.names[i] for i in tracer.name_col]
    assert recorded == ["same.outer", "other.leaf"]
    assert list(tracer.parent_col) == [-1, 0]


def test_a_nested_span_is_recorded_inside_its_own_layer():
    tracer = Tracer()
    sendto = tracer.wrap(lambda: 1, trace.NESTED_SPANS[0], "runtime.udp")
    send = tracer.wrap(lambda: sendto(), "UdpNetwork.send", "runtime.udp")
    with tracer.slice():
        send()
    assert [tracer.names[i] for i in tracer.name_col] == ["UdpNetwork.send", trace.NESTED_SPANS[0]]
    assert list(tracer.parent_col) == [-1, 0]
    summary = tracer.summary()
    assert summary.calls("runtime.udp") == 2
    assert summary.by_name[trace.NESTED_SPANS[0]][1] > 0


def test_a_leaf_layer_records_no_children():
    tracer = Tracer()
    callee = tracer.wrap(lambda: 1, "clock.size", "ordering.dense")
    sizing = tracer.wrap(lambda: callee(), "msg.size", trace.LEAF_LAYERS[0])
    with tracer.slice():
        sizing()
        callee()
    recorded = [tracer.names[i] for i in tracer.name_col]
    assert recorded == ["msg.size", "clock.size"]
    assert list(tracer.parent_col) == [-1, -1]


def test_span_state_survives_an_exception():
    tracer = Tracer()

    def boom():
        raise ValueError

    wrapped = tracer.wrap(boom, "boom", "sim.kernel")
    with tracer.slice():
        with pytest.raises(ValueError):
            wrapped()
        assert tracer.current == -1 and tracer.layer == -1
    assert tracer.end_col[0] >= tracer.start_col[0]


def test_traced_sim_slice_reaches_every_sim_layer_and_no_runtime_layer():
    from perfbench import simload

    sizes = simload.SMOKE_SIZES["sim-causal-clean"]
    with traced() as tracer:
        record = simload.run_slice(sizes, 3, tracer)
    assert record["verdict"]["failed"] == 0
    summary = tracer.summary()
    for layer in trace.LAYERS:
        if layer.startswith("runtime."):
            assert summary.calls(layer) == 0, layer
        else:
            assert summary.calls(layer) > 0 and summary.self_share(layer) > 0, layer
    assert summary.covered_s / summary.wall_s > 0.8
