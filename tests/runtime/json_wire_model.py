"""The version-1 wire format, kept as the reference the binary codec is
checked against.

Version 1 was ``b"RPW\\x01"`` + canonical JSON of a tagged tree: registered
classes as ``{"!": "<tag>", "f": {field: value}}``, and ``tuple``, ``bytes``,
``set``, ``frozenset`` and non-string-keyed dicts under explicit markers.
``_pack``/``_unpack``/``_canonical`` are that codec's functions, moved here;
they read the live registry of :mod:`repro.runtime.codec`, so the two
formats always describe the same classes, and a ``DataMessage`` clock lands
in the receiver's clock domain as the binary codec places it.  No production
code imports this module, and a version-1 datagram is rejected on the wire.
"""

import json
from typing import Any, Tuple

from repro.catocs.messages import DataMessage
from repro.runtime.codec import _BY_TAG, MAGIC, CodecError, DomainLookup, _lookup, _record_clock

HEADER = MAGIC + b"\x01"

_MARKER = "!"


def _canonical(packed: Any) -> str:
    return json.dumps(packed, sort_keys=True, separators=(",", ":"))


def _pack(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return {_MARKER: "bytes", "v": bytes(value).hex()}
    if isinstance(value, tuple):
        return {_MARKER: "tuple", "v": [_pack(v) for v in value]}
    if isinstance(value, list):
        return [_pack(v) for v in value]
    if isinstance(value, (set, frozenset)):
        kind = "frozenset" if isinstance(value, frozenset) else "set"
        return {_MARKER: kind, "v": sorted((_pack(v) for v in value), key=_canonical)}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _MARKER not in value:
            return {k: _pack(v) for k, v in value.items()}
        return {_MARKER: "map", "v": [[_pack(k), _pack(v)] for k, v in value.items()]}
    registration = _lookup(type(value))
    if registration is not None:
        fields = registration.to_fields(value)
        return {_MARKER: registration.tag, "f": {k: _pack(v) for k, v in fields.items()}}
    raise CodecError(
        f"cannot encode {type(value).__name__}: not a wire-codec-registered class "
        "(see repro.runtime.codec.register_wire)"
    )


def _unpack(value: Any, domains: DomainLookup) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [_unpack(v, domains) for v in value]
    if isinstance(value, dict):
        marker = value.get(_MARKER)
        if marker is None:
            return {k: _unpack(v, domains) for k, v in value.items()}
        if marker == "tuple":
            return tuple(_unpack(v, domains) for v in value["v"])
        if marker == "bytes":
            try:
                return bytes.fromhex(value["v"])
            except ValueError as exc:
                raise CodecError(f"malformed bytes payload: {exc}") from exc
        if marker == "set":
            return {_unpack(v, domains) for v in value["v"]}
        if marker == "frozenset":
            return frozenset(_unpack(v, domains) for v in value["v"])
        if marker == "map":
            return {_unpack(k, domains): _unpack(v, domains) for k, v in value["v"]}
        registration = _BY_TAG.get(marker)
        if registration is None:
            raise CodecError(f"unknown wire tag: {marker!r}")
        fields = value.get("f")
        if not isinstance(fields, dict):
            raise CodecError(f"wire tag {marker!r} without a field map")
        fields = {k: _unpack(v, domains) for k, v in fields.items()}
        if registration.cls is DataMessage:
            fields["vc"] = _record_clock(fields, domains)
        try:
            return registration.from_fields(fields)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot rebuild {marker!r}: {exc}") from exc
    raise CodecError(f"unexpected JSON shape: {type(value).__name__}")


def encode(obj: Any) -> bytes:
    return HEADER + _canonical(_pack(obj)).encode("utf-8")


def decode(data: bytes, domains: DomainLookup) -> Any:
    assert data.startswith(HEADER)
    return _unpack(json.loads(data[len(HEADER):].decode("utf-8")), domains)


def encode_datagram(src: str, payload: Any) -> bytes:
    return encode({"src": src, "payload": payload})


def decode_datagram(data: bytes, domains: DomainLookup) -> Tuple[str, Any]:
    obj = decode(data, domains)
    return obj["src"], obj["payload"]
