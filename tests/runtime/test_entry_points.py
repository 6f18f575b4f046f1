"""The runtime's command-line entry points, driven in-process: the
cross-validation CLI (its JSON report and its exit codes) and a one-member
host run, plus the load generator's argument checks."""

import json

import pytest

from repro.apps.netnews import Article
from repro.runtime import crossval, host


def test_crossval_cli_writes_the_report_it_prints(tmp_path, capsys):
    out = tmp_path / "crossval.json"
    assert crossval.main(["--scenario", "figure1-raw", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == "repro.crossval/v1"
    assert [entry["scenario"] for entry in report["scenarios"]] == ["figure1-raw"]
    assert report["passed"] is True
    printed = capsys.readouterr()
    assert "figure1-raw" in printed.out
    assert "FAILED" not in printed.err


def test_crossval_cli_exits_1_when_a_scenario_misses_its_tolerance(capsys):
    # No ratio difference can be at most -1: the verdict must be a failure.
    assert crossval.main(["--scenario", "figure1", "--tolerance", "-1"]) == 1
    assert "cross-validation FAILED" in capsys.readouterr().err


def test_crossval_cli_refuses_an_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as exc:
        crossval.main(["--scenario", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_host_cli_runs_a_one_member_group_and_writes_its_report(tmp_path, capsys):
    out = tmp_path / "host.json"
    code = host.main(["--pid", "a", "--member", "a=127.0.0.1:7476",
                      "--rate", "20", "--duration", "0.2", "--settle", "0.2",
                      "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""  # the report went to the file
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == "repro.host/v1"
    assert report["multicasts_sent"] == report["scheduled"] == 4
    assert report["delivered"] == 4  # a lone member delivers its own sends
    assert report["decode_errors"] == 0


@pytest.mark.parametrize("rate", [0.0, -5.0])
def test_load_generator_refuses_a_rate_that_is_not_positive(rate):
    with pytest.raises(ValueError, match="rate must be positive"):
        host.LoadGenerator(member=None, clock=None, feed=iter(()), rate=rate)


@pytest.mark.parametrize(
    "payload, label",
    [
        ({"label": 7, "price": 1.5}, "7"),
        (Article(article_id="n3", newsgroup="comp.os", kind="inquiry"), "n3"),
        (("tick", 1), "('tick', 1)"),
    ],
    ids=["dict-label", "article-id", "repr"],
)
def test_delivery_order_labels_a_payload_by_its_label_id_or_repr(payload, label):
    assert host._payload_label(payload) == label


def test_figure1_scenario_names_each_label_a_receiver_never_got():
    deliveries = {"p": [{"label": "cause"}, {"label": "effect"}],
                  "q": [{"label": "noise1"}, {"label": "effect"}, {"label": "cause"},
                        {"label": "noise2"}]}
    assert crossval._figure1_anomalies(deliveries) == {
        "p:missing-noise1", "p:missing-noise2", "q:effect-before-cause"}
