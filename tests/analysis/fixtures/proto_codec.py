"""Fixture: codec-coverage violations (PROTO005) against the real registry.

``FixtureLayer`` is registered via ``register_layer`` so its send sites are
layer send sites; ``UnregisteredProbe`` has a typed handler (keeping FLOW001
quiet) but no ``repro.runtime.codec`` registration, so sending it must trip
PROTO005.  The ``fine_*`` send uses :class:`~repro.catocs.messages.Nak`,
which the codec registers at import — it must stay clean.
"""

from repro.catocs.messages import Nak
from repro.catocs.stack import ProtocolLayer, register_layer


class UnregisteredProbe:
    """A wire message that never got a codec registration."""

    def __init__(self, group):
        self.group = group


class FixtureLayer(ProtocolLayer):
    def on_attached(self):
        self.member.add_message_handler(UnregisteredProbe, self._on_probe)
        self.member.add_message_handler(Nak, self._on_nak)

    def bad_probe_send(self, dst):
        self.member.send(dst, UnregisteredProbe(group="g"))  # EXPECT[PROTO005]

    def fine_codec_registered_send(self, dst):
        self.member.send(dst, Nak(group="g", requester=self.member.pid, wanted=[]))

    def _on_probe(self, src, payload):
        pass

    def _on_nak(self, src, payload):
        pass


register_layer(FixtureLayer)
