"""Contract rules against deliberately broken fakes — and the real registry.

The fakes prove each conformance check can actually fail; the real-registry
tests prove the shipping layers conform.
"""

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.engine import Project
from repro.analysis.rules.contracts import (
    CodecCoverageRule,
    HandlerCoverageRule,
    LayerSurfaceRule,
    SpecStringRule,
    _real_codec_names,
)
from repro.catocs.messages import DataMessage, Nak
from repro.catocs.stack import ProtocolLayer


REPO_ROOT = Path(__file__).resolve().parents[2]


def _project() -> Project:
    """A bare project: enough for rules with injected collaborators."""
    return Project(root=REPO_ROOT)


def _surface_findings(registry, kinds):
    rule = LayerSurfaceRule(registry=registry, kinds=kinds, base=ProtocolLayer)
    return list(rule.check_project(_project()))


# -- the broken fakes ------------------------------------------------------------


class RogueLayer:
    """Not a ProtocolLayer at all."""

    name = "rogue"
    kind = "transport"


class MisnamedLayer(ProtocolLayer):
    name = "something-else"
    kind = "transport"


class WrongKindLayer(ProtocolLayer):
    name = "wrongkind"
    kind = "transport"


class BrokenArityLayer(ProtocolLayer):
    name = "arity"
    kind = "transport"

    def receive_up(self):  # type: ignore[override] - deliberately wrong
        return None


class HollowOrderingLayer(ProtocolLayer):
    """Claims to be an ordering discipline but lacks the delivery-gate API."""

    name = "hollow"
    kind = "ordering"


class ConformantLayer(ProtocolLayer):
    name = "conformant"
    kind = "transport"


def test_non_class_factory_flagged():
    findings = _surface_findings({"lam": lambda member: None}, {"lam": "transport"})
    assert len(findings) == 1
    assert "non-class factory" in findings[0].message


def test_non_subclass_flagged():
    findings = _surface_findings({"rogue": RogueLayer}, {"rogue": "transport"})
    assert any("not a ProtocolLayer subclass" in f.message for f in findings)


def test_name_mismatch_flagged():
    findings = _surface_findings(
        {"misnamed": MisnamedLayer}, {"misnamed": "transport"}
    )
    assert any("declares name='something-else'" in f.message for f in findings)


def test_kind_mismatch_flagged():
    findings = _surface_findings(
        {"wrongkind": WrongKindLayer}, {"wrongkind": "ordering"}
    )
    assert any("declares kind='transport'" in f.message for f in findings)


def test_broken_arity_flagged():
    findings = _surface_findings({"arity": BrokenArityLayer}, {"arity": "transport"})
    assert any(
        "receive_up() does not accept" in f.message for f in findings
    )


def test_ordering_layer_without_gate_api_flagged():
    findings = _surface_findings(
        {"hollow": HollowOrderingLayer}, {"hollow": "ordering"}
    )
    missing = {f.message.split(" missing the ")[-1] for f in findings}
    assert "stamp() surface method" in missing
    assert "release_next() surface method" in missing


def test_conformant_fake_layer_passes():
    assert _surface_findings(
        {"conformant": ConformantLayer}, {"conformant": "transport"}
    ) == []


def test_real_registry_conforms():
    assert list(LayerSurfaceRule().check_project(_project())) == []


# -- handler coverage -------------------------------------------------------------


@dataclass
class OrphanMessage:
    """A wire message no handler family covers."""

    group: str


def test_orphan_message_flagged():
    rule = HandlerCoverageRule(
        handled_names={"DataMessage", "TransportControl"},
        message_classes=[OrphanMessage],
    )
    findings = list(rule.check_project(_project()))
    assert len(findings) == 1
    assert "OrphanMessage" in findings[0].message


def test_mro_walk_covers_marker_subclasses():
    rule = HandlerCoverageRule(
        handled_names={"DataMessage", "TransportControl"},
        message_classes=[DataMessage, Nak],  # Nak is TransportControl
    )
    assert list(rule.check_project(_project())) == []


def test_real_messages_all_covered(repo_result):
    # The default rule derives handler registrations by scanning src, so it
    # needs a fully loaded project, not a bare one.
    project = repo_result.project
    assert list(HandlerCoverageRule().check_project(project)) == []


# -- spec strings ------------------------------------------------------------------


def test_spec_rule_injectable_resolver():
    calls = []

    def resolver(text):
        calls.append(text)
        if "bad" in text:
            raise ValueError("nope")

    rule = SpecStringRule(resolver=resolver, known_names={"dedup", "causal"})
    project = Project(root=Path(__file__).resolve().parents[2])
    assert list(rule.check_project(project)) == []  # nothing to scan
    assert calls == []


# -- codec coverage (PROTO005) -----------------------------------------------------


def test_codec_registry_covers_the_wire_catalogue():
    """Every wire-message dataclass must carry a codec registration — the
    source-of-truth check behind PROTO005's repo verdict."""
    from repro.catocs.messages import wire_classes
    from repro.runtime import codec

    missing = [cls.__name__ for cls in wire_classes()
               if not codec.is_registered(cls)]
    assert missing == []


def test_real_sends_all_codec_registered(repo_result):
    project = repo_result.project
    assert list(CodecCoverageRule().check_project(project)) == []


def test_codec_gap_is_flagged(repo_result):
    """Strip two real registrations; the rule must anchor a finding at a
    send site for each."""
    project = repo_result.project
    rule = CodecCoverageRule(
        codec_names=lambda: _real_codec_names() - {"Nak", "DataMessage"}
    )
    flagged = {f.message.split()[2] for f in rule.check_project(project)}
    assert flagged == {"Nak", "DataMessage"}


def test_non_wire_app_payloads_stay_out_of_scope(repo_result):
    """App request/reply classes sent outside registered layers (quorum
    locks, shopfloor db traffic) are not wire-catalogue messages and must
    not be dragged into PROTO005."""
    project = repo_result.project
    rule = CodecCoverageRule(codec_names=lambda: set())
    flagged = {f.message.split()[2] for f in rule.check_project(project)}
    assert "LockRequest" not in flagged
    assert "DataMessage" in flagged  # the catalogue itself is in scope
