"""Cross-validation: the static ORD analysis must cover every ordering
anomaly the Figure 5 experiment actually exhibits.

Dynamic side: ``run_figfive`` under the raw and fifo disciplines with the
E07 network profile (latency 5, jitter 2), several seeds.  Each diverged
attribute names the message types that last wrote it at the disagreeing
replicas.

Static side: the effect table for ``src/repro/apps/figfive.py`` (queried
directly — suppression comments in the app do not blind this test).
Every dynamically observed conflicting pair must be a statically
predicted ORD001 pair, and every single-type divergence must be on an
attribute the analysis classifies as a blind payload overwrite (ORD002's
subject)."""

from pathlib import Path

import pytest

from repro.analysis.effects import effect_table_for
from repro.analysis.engine import load_project
from repro.apps.figfive import run_figfive

REPO_ROOT = Path(__file__).resolve().parents[2]
FIGFIVE = REPO_ROOT / "src" / "repro" / "apps" / "figfive.py"

SEEDS = range(5)
DISCIPLINES = ("raw", "fifo")


def _class_name(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


@pytest.fixture(scope="module")
def static_model():
    project = load_project(paths=[FIGFIVE])
    table = effect_table_for(project)
    pairs = set()
    blind_attrs = set()
    for process in table.processes():
        rows = table.rows_for(process)
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                if a.message != b.message and table.conflicts(a, b):
                    pairs.add(frozenset({_class_name(a.message), _class_name(b.message)}))
        for row in rows:
            for effect in row.effects:
                if (effect.kind == "assign" and effect.payload_derived
                        and not effect.guarded):
                    blind_attrs.add(effect.attr)
    return pairs, blind_attrs


def test_static_pairs_cover_dynamic_anomalies(static_model):
    static_pairs, blind_attrs = static_model
    assert static_pairs, "effect analysis produced no conflict pairs"
    observed = []
    for discipline in DISCIPLINES:
        for seed in SEEDS:
            result = run_figfive(seed=seed, ordering=discipline)
            for attr, pair in zip(result.diverged_attrs,
                                  result.anomaly_pairs):
                observed.append((discipline, seed, attr, pair))
                if len(pair) >= 2:
                    assert frozenset(pair) in static_pairs, (
                        f"dynamic anomaly {pair} on {attr!r} "
                        f"({discipline}, seed {seed}) not statically "
                        f"predicted; static pairs: {sorted(map(sorted, static_pairs))}"
                    )
                else:
                    assert attr in blind_attrs, (
                        f"single-sender-type divergence on {attr!r} "
                        f"({discipline}, seed {seed}) not classified as a "
                        f"blind overwrite; blind attrs: {sorted(blind_attrs)}"
                    )
    # The oracle must have teeth: the scenario genuinely diverges.
    assert observed, "figfive never diverged under raw/fifo — oracle is dead"


def test_static_model_names_the_planted_conflict(static_model):
    static_pairs, blind_attrs = static_model
    assert frozenset({"StartOrder", "StopOrder"}) in static_pairs
    assert "speed" in blind_attrs
