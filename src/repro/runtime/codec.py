"""Versioned binary wire codec for everything that crosses a real network.

The simulator delivers payloads by Python reference — zero-copy, and exactly
right for a model.  A real socket needs bytes, so the UDP transport
(:mod:`repro.runtime.udp`) runs every payload through this codec.

``encode(obj)`` is ``b"RPW"`` + the version byte + one *value*; a datagram
(:func:`encode_datagram`) is the same frame around two values, the sender
pid and the payload.  A value is one type byte and a body, written in one
pass with :mod:`struct` and read back in one pass, every integer big-endian:
None / true / false (no body), ``int`` (int64, or length + two's-complement
bytes beyond it), ``float`` (float64), ``str`` and ``bytes`` (u32 length +
raw bytes, UTF-8 for ``str``), list / tuple / set / frozenset / dict (u32
count + the members; set members sorted by their encoding, dict entries in
insertion order), and a registered class (the *record*: its tag name, a
field count and the field values in declaration order).  Two shapes are
packed tighter because they are what the protocols actually send:

- *counts* — the ``str`` -> small non-negative ``int`` dict every ack
  vector and vector clock is: u16 count, u16 key-blob length, the keys
  joined by NUL, then one u32 per key.  Two C calls whatever the group
  size; a dict holding anything else (a bool, a negative, a value >= 2**32,
  a non-``str`` key, a NUL in a key) takes the generic dict form.
- :class:`~repro.catocs.messages.DataMessage` — one fixed header (seq,
  sent_at, view_id, a flags byte, two string lengths), then group, sender,
  the payload as a value, ``vc`` and ``ack_vector`` as bare counts and
  ``attached`` as a value; a message with a field that layout cannot hold
  travels as a generic record instead.

Per-class registration is explicit: :func:`register_wire` either derives the
field list from a dataclass or takes custom ``to_fields``/``from_fields``
functions (their field dict then travels as the record's one value).  Every
class in :func:`repro.catocs.messages.wire_classes` is registered at import
time, plus the vector clock, under the ``VectorClock`` tag.  The PROTO005
analysis rule keeps this registry honest: any wire message reachable from a
protocol layer's send sites without a registration fails the build.

A :class:`~repro.ordering.dense.DenseVectorClock` travels as its non-zero
counts, keyed by pid, and is only meaningful in a
:class:`~repro.ordering.dense.ClockDomain`.  The wire names no domain, so
:func:`decode` and :func:`decode_datagram` take the receiver's
``group -> ClockDomain`` lookup and a ``DataMessage`` clock decodes straight
into the domain of the message's group, in either layout: compared there,
it is two arrays over one index whatever order the sender's domain had.  A
bare clock record outside a ``DataMessage`` names no group and decodes to
its counts dict.

Decoding is strict: bad magic, any version but this one, truncation at any
byte, trailing bytes, a declared length or count larger than the bytes that
remain (checked before anything is sliced or allocated), unknown type bytes,
tags and flag bits, wrong field counts, duplicate keys, invalid UTF-8 and
nesting deeper than :data:`MAX_DEPTH` all raise :class:`CodecError` — the
UDP transport counts and drops such datagrams instead of crashing the process.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.catocs.messages import DataMessage, wire_classes
from repro.ordering.dense import ClockDomain, DenseVectorClock

#: The receiver's clock domains: group name -> the domain its stamps index.
DomainLookup = Callable[[str], ClockDomain]

MAGIC = b"RPW"
VERSION = 2
HEADER = MAGIC + bytes([VERSION])

#: Conservative single-datagram budget (IPv4 UDP max is 65 507 payload
#: bytes); the UDP transport refuses larger encodings instead of letting the
#: OS truncate or reject them mid-flight.
MAX_DATAGRAM = 65_000

#: Containers and records nest at most this deep, on either side: far above
#: what ``attached``, ``FlushAck.unstable`` or ``ordering_state`` reach, far
#: below the interpreter's recursion limit.
MAX_DEPTH = 64

# Type bytes.  Two host processes must agree on them without importing in
# the same order, so they are written here and never derived from
# registration order; from _BIGINT up the body starts with a u32 length.
_NONE, _TRUE, _FALSE, _INT, _FLOAT, _COUNTS, _RECORD, _DATA = range(8)
_BIGINT, _STR, _BYTES, _LIST, _TUPLE, _SET, _FROZENSET, _DICT = range(8, 16)

_CODES: Dict[type, int] = {
    type(None): _NONE, bool: _TRUE, int: _INT, float: _FLOAT, str: _STR,
    bytes: _BYTES, bytearray: _BYTES, list: _LIST, tuple: _TUPLE, set: _SET,
    frozenset: _FROZENSET, dict: _DICT,
}
_CONSTANTS = (None, True, False)
_BYTE = [bytes([code]) for code in range(16)]
_SEQUENCES = {_LIST: list, _TUPLE: tuple, _SET: set, _FROZENSET: frozenset}

_INT64 = struct.Struct("!Bq")  # type byte, value
_FLOAT64 = struct.Struct("!Bd")
_SIZED = struct.Struct("!BI")  # type byte, length or count
_COUNTS_HEAD = struct.Struct("!HH")  # entries, key-blob length
_DATA_HEAD = struct.Struct("!BqdIBHH")  # type, seq, sent_at, view_id, flags, len(group), len(sender)
_NUMBER_SIZE, _SIZED_SIZE = _INT64.size, _SIZED.size  # an int and a float are as long
_COUNTS_HEAD_SIZE, _DATA_HEAD_SIZE = _COUNTS_HEAD.size, _DATA_HEAD.size
_JUST_INT = {int}

# DataMessage flag bits; a set bit that none of them names is rejected.
_RETRANSMIT, _HAS_VC, _HAS_ACKS, _HAS_ATTACHED = 1, 2, 4, 8
_KNOWN_FLAGS = _RETRANSMIT | _HAS_VC | _HAS_ACKS | _HAS_ATTACHED


class CodecError(ValueError):
    """Raised for any malformed, truncated, or unregistered wire data."""


@dataclasses.dataclass(frozen=True)
class _Registration:
    tag: str
    cls: type
    to_fields: Callable[[Any], Dict[str, Any]]
    from_fields: Callable[[Dict[str, Any]], Any]
    #: Field order on the wire; None when a custom function owns the field
    #: dict, which then travels as the record's single value.
    names: Optional[Tuple[str, ...]]
    #: Everything before the field values: type byte, tag, field count.
    head: bytes


_BY_CLASS: Dict[type, _Registration] = {}
_BY_TAG: Dict[str, _Registration] = {}


def register_wire(
    cls: type,
    tag: Optional[str] = None,
    *,
    to_fields: Optional[Callable[[Any], Dict[str, Any]]] = None,
    from_fields: Optional[Callable[[Dict[str, Any]], Any]] = None,
) -> type:
    """Register ``cls`` with the wire codec under ``tag`` (default: class name).

    For dataclasses the field functions are derived automatically.  Returns
    ``cls`` so it can be used as a decorator.
    """
    if cls in _BY_CLASS:
        raise CodecError(f"{cls.__name__} is already codec-registered")
    tag = tag or cls.__name__
    if tag in _BY_TAG:
        raise CodecError(f"wire tag collision: {tag!r}")
    names: Optional[Tuple[str, ...]] = None
    if to_fields is None or from_fields is None:
        if not dataclasses.is_dataclass(cls):
            raise CodecError(
                f"{cls.__name__} is not a dataclass; pass to_fields/from_fields explicitly"
            )
        derived = tuple(f.name for f in dataclasses.fields(cls))
        if to_fields is None and from_fields is None:
            names = derived
        if to_fields is None:
            def to_fields(obj: Any) -> Dict[str, Any]:
                return {name: getattr(obj, name) for name in derived}
        if from_fields is None:
            def from_fields(fields: Dict[str, Any]) -> Any:
                return cls(**fields)
    raw_tag = tag.encode("utf-8")
    count = 1 if names is None else len(names)
    if len(raw_tag) > 255 or count > 255:
        raise CodecError(f"wire tag {tag!r} or its {count} fields do not fit one byte each")
    registration = _Registration(
        tag=tag, cls=cls, to_fields=to_fields, from_fields=from_fields, names=names,
        head=bytes([_RECORD, len(raw_tag)]) + raw_tag + bytes([count]))
    _BY_CLASS[cls] = _BY_TAG[tag] = registration
    return cls


def is_registered(cls: type) -> bool:
    return cls in _BY_CLASS


def registered_classes() -> Tuple[type, ...]:
    """All codec-registered classes."""
    return tuple(sorted(_BY_CLASS, key=lambda c: (c.__name__, c.__module__)))


def _lookup(cls: type) -> Optional[_Registration]:
    for base in cls.__mro__[:-1]:  # exclude object
        registration = _BY_CLASS.get(base)
        if registration is not None:
            return registration
    return None


def _too_deep() -> CodecError:
    return CodecError(f"values nest deeper than {MAX_DEPTH}")


def _counts_body(counts: Dict[Any, Any]) -> Optional[bytes]:
    """``counts`` in the counts shape (no type byte), or None when it is not
    a ``str`` -> u32 dict and has to travel as a generic dict."""
    kinds = set(map(type, counts.values()))
    if kinds and kinds != _JUST_INT:  # exact: a bool is not a count
        return None
    size = len(counts)
    try:
        keys = "\0".join(counts)
        if size and keys.count("\0") != size - 1:
            return None
        blob = keys.encode("utf-8")
        return struct.pack(f"!HH{len(blob)}s{size}I", size, len(blob), blob, *counts.values())
    except (TypeError, struct.error):  # a non-str key; a negative or oversize count
        return None


def _write_data(out: List[bytes], msg: DataMessage, depth: int) -> bool:
    """Append ``msg`` in the DataMessage layout.  False, with nothing
    appended, when a field does not fit it (the generic record then does)."""
    if not (type(msg.seq) is int and type(msg.view_id) is int
            and type(msg.sent_at) is float and type(msg.retransmit) is bool
            and type(msg.group) is str and type(msg.sender) is str):
        return False
    flags = _RETRANSMIT if msg.retransmit else 0
    vc_body = acks_body = b""
    vc, acks = msg.vc, msg.ack_vector
    if vc is not None:
        if type(vc) is not DenseVectorClock:
            return False
        vc_body = _counts_body(vc.as_dict())
        if vc_body is None:
            return False
        flags |= _HAS_VC
    if acks is not None:
        acks_body = _counts_body(acks) if type(acks) is dict else None
        if acks_body is None:
            return False
        flags |= _HAS_ACKS
    if msg.attached is not None:
        flags |= _HAS_ATTACHED
    group, sender = msg.group.encode("utf-8"), msg.sender.encode("utf-8")
    try:
        out.append(_DATA_HEAD.pack(_DATA, msg.seq, msg.sent_at, msg.view_id,
                                   flags, len(group), len(sender)))
    except struct.error:
        return False
    out.append(group)
    out.append(sender)
    _write(out, msg.payload, depth + 1)
    out.append(vc_body)
    out.append(acks_body)
    if msg.attached is not None:
        _write(out, msg.attached, depth + 1)
    return True


def _encoded(value: Any, depth: int) -> bytes:
    out: List[bytes] = []
    _write(out, value, depth)
    return b"".join(out)


def _write(out: List[bytes], value: Any, depth: int) -> None:
    """Append the encoding of ``value`` to ``out``."""
    kind = type(value)
    code = _CODES.get(kind)
    if code is None:
        registration = _lookup(kind)
        if registration is not None:
            if depth >= MAX_DEPTH:
                raise _too_deep()
            if kind is DataMessage and _write_data(out, value, depth):
                return
            fields = registration.to_fields(value)
            out.append(registration.head)
            if registration.names is None:
                _write(out, fields, depth + 1)
            else:
                for name in registration.names:
                    _write(out, fields[name], depth + 1)
            return
        code = next((_CODES[base] for base in kind.__mro__ if base in _CODES), None)
        if code is None:
            raise CodecError(
                f"cannot encode {kind.__name__}: not a wire-codec-registered class "
                "(see repro.runtime.codec.register_wire)"
            )
    if code == _INT:
        try:
            out.append(_INT64.pack(_INT, value))
        except struct.error:
            raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
            out.append(_SIZED.pack(_BIGINT, len(raw)) + raw)
    elif code == _STR:
        raw = value.encode("utf-8")
        out.append(_SIZED.pack(_STR, len(raw)) + raw)
    elif code == _NONE:
        out.append(_BYTE[_NONE])
    elif code == _TRUE:
        out.append(_BYTE[_TRUE if value else _FALSE])
    elif code == _FLOAT:
        out.append(_FLOAT64.pack(_FLOAT, value))
    elif code == _BYTES:
        out.append(_SIZED.pack(_BYTES, len(value)) + value)
    elif depth >= MAX_DEPTH:  # only containers are left
        raise _too_deep()
    elif code == _DICT:
        body = _counts_body(value)
        if body is not None:
            out.append(_BYTE[_COUNTS] + body)
            return
        out.append(_SIZED.pack(_DICT, len(value)))
        for key, item in value.items():
            _write(out, key, depth + 1)
            _write(out, item, depth + 1)
    elif code == _LIST or code == _TUPLE:
        out.append(_SIZED.pack(code, len(value)))
        for item in value:
            _write(out, item, depth + 1)
    else:  # a set: equal sets must encode to equal bytes whatever their history
        out.append(_SIZED.pack(code, len(value)))
        out.extend(sorted(_encoded(item, depth + 1) for item in value))


def _read_counts(data: bytes, pos: int) -> Tuple[Dict[str, int], int]:
    size, blob_len = _COUNTS_HEAD.unpack_from(data, pos)
    pos += _COUNTS_HEAD_SIZE
    split = pos + blob_len
    end = split + 4 * size
    if end > len(data):
        raise CodecError("counts larger than the bytes that remain")
    keys = str(data[pos:split], "utf-8").split("\0") if size else []
    if len(keys) != size or (blob_len and not size):
        raise CodecError("counts keys do not match the declared count")
    counts = dict(zip(keys, struct.unpack_from(f"!{size}I", data, split)))
    if len(counts) != size:
        raise CodecError("duplicate counts key")
    return counts, end


def _read_data(data: bytes, pos: int, depth: int,
               domains: DomainLookup) -> Tuple[DataMessage, int]:
    _, seq, sent_at, view_id, flags, group_len, sender_len = _DATA_HEAD.unpack_from(data, pos)
    if flags & ~_KNOWN_FLAGS:
        raise CodecError(f"unknown DataMessage flag bits: {flags:#04x}")
    pos += _DATA_HEAD_SIZE
    split = pos + group_len
    end = split + sender_len
    if end > len(data):
        raise CodecError("DataMessage names larger than the bytes that remain")
    group = str(data[pos:split], "utf-8")
    sender = str(data[split:end], "utf-8")
    payload, pos = _read(data, end, depth + 1, domains)
    vc = acks = attached = None
    if flags & _HAS_VC:
        counts, pos = _read_counts(data, pos)
        vc = domains(group).clock(counts)
    if flags & _HAS_ACKS:
        acks, pos = _read_counts(data, pos)
    if flags & _HAS_ATTACHED:
        attached, pos = _read(data, pos, depth + 1, domains)
    return DataMessage(group, sender, seq, payload, sent_at, view_id, vc, acks,
                       bool(flags & _RETRANSMIT), attached), pos


def _clock_counts(counts: Any) -> Dict[str, int]:
    """``counts`` if it is a pid -> count dict, which is all a clock may be."""
    if type(counts) is not dict or not all(
            type(pid) is str and type(count) is int for pid, count in counts.items()):
        raise CodecError("a vector clock is not a pid -> count map")
    return counts


def _record_clock(fields: Dict[str, Any], domains: DomainLookup) -> Optional[DenseVectorClock]:
    """The clock of a ``DataMessage`` that travelled as a generic record,
    placed in its group's domain as :func:`_read_data` places a packed one."""
    counts, group = fields["vc"], fields["group"]
    if counts is None:
        return None
    if type(group) is not str:
        raise CodecError("DataMessage group is not a string")
    return domains(group).clock(_clock_counts(counts))


def _read_record(data: bytes, pos: int, depth: int, domains: DomainLookup) -> Tuple[Any, int]:
    pos += 2
    end = pos + data[pos - 1]  # where the field count byte sits
    if end >= len(data):
        raise CodecError("record tag larger than the bytes that remain")
    tag = str(data[pos:end], "utf-8")
    registration = _BY_TAG.get(tag)
    if registration is None:
        raise CodecError(f"unknown wire tag: {tag!r}")
    names = registration.names
    if data[end] != (1 if names is None else len(names)):
        raise CodecError(f"wire tag {tag!r} with {data[end]} fields")
    pos = end + 1
    if names is None:
        fields, pos = _read(data, pos, depth + 1, domains)
        if type(fields) is not dict:
            raise CodecError(f"wire tag {tag!r} without a field map")
    else:
        fields = {}
        for name in names:
            fields[name], pos = _read(data, pos, depth + 1, domains)
        if registration.cls is DataMessage:
            fields["vc"] = _record_clock(fields, domains)
    try:
        return registration.from_fields(fields), pos
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"cannot rebuild {tag!r}: {exc}") from exc


def _read(data: bytes, pos: int, depth: int, domains: DomainLookup) -> Tuple[Any, int]:
    """The value that starts at ``data[pos]``, and where the next one starts."""
    code = data[pos]
    if code < _BIGINT:
        if code == _INT:
            return _INT64.unpack_from(data, pos)[1], pos + _NUMBER_SIZE
        if code <= _FALSE:
            return _CONSTANTS[code], pos + 1
        if code == _FLOAT:
            return _FLOAT64.unpack_from(data, pos)[1], pos + _NUMBER_SIZE
        if code == _COUNTS:
            return _read_counts(data, pos + 1)
        if depth >= MAX_DEPTH:
            raise _too_deep()
        if code == _DATA:
            return _read_data(data, pos, depth, domains)
        return _read_record(data, pos, depth, domains)
    if code > _DICT:
        raise CodecError(f"unknown type byte: {code:#04x}")
    size = _SIZED.unpack_from(data, pos)[1]
    pos += _SIZED_SIZE
    # Every member of a container is at least one byte, so this one bound
    # stops an absurd declared count as well as an absurd declared length.
    if size > len(data) - pos:
        raise CodecError(f"declared size {size} exceeds the {len(data) - pos} bytes that remain")
    if code == _STR:
        return str(data[pos:pos + size], "utf-8"), pos + size
    if code == _BYTES:
        return bytes(data[pos:pos + size]), pos + size
    if code == _BIGINT:
        return int.from_bytes(data[pos:pos + size], "big", signed=True), pos + size
    if depth >= MAX_DEPTH:
        raise _too_deep()
    try:
        if code == _DICT:
            mapping: Dict[Any, Any] = {}
            for _ in range(size):
                key, pos = _read(data, pos, depth + 1, domains)
                mapping[key], pos = _read(data, pos, depth + 1, domains)
            members: Any = mapping
        else:
            items = []
            for _ in range(size):
                item, pos = _read(data, pos, depth + 1, domains)
                items.append(item)
            members = _SEQUENCES[code](items)
    except TypeError as exc:  # an unhashable dict key or set member
        raise CodecError(f"malformed container: {exc}") from exc
    if len(members) != size:
        raise CodecError("duplicate dict key or set member")
    return members, pos


def _frame(*values: Any) -> bytes:
    out = [HEADER]
    try:
        for value in values:
            _write(out, value, 0)
    except (TypeError, ValueError, struct.error, RecursionError) as exc:
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"unencodable payload: {exc}") from exc
    return b"".join(out)


def _parse(data: bytes, count: int, domains: DomainLookup) -> List[Any]:
    """The ``count`` values framed in ``data``, and nothing after them."""
    if len(data) < len(HEADER):
        raise CodecError(f"truncated datagram: {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a repro wire datagram")
    if data[len(MAGIC)] != VERSION:
        raise CodecError(f"unsupported wire version: {data[len(MAGIC)]}")
    pos = len(HEADER)
    values = []
    try:
        for _ in range(count):
            value, pos = _read(data, pos, 0, domains)
            values.append(value)
    except (IndexError, struct.error, UnicodeDecodeError) as exc:  # cut short, or not UTF-8
        raise CodecError(f"malformed datagram body: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes")
    return values


def encode(obj: Any) -> bytes:
    """Serialize one wire object to a framed datagram body."""
    return _frame(obj)


def decode(data: bytes, domains: DomainLookup) -> Any:
    """Parse a framed datagram body back into the wire object, every
    ``DataMessage`` clock in ``domains(msg.group)``."""
    return _parse(data, 1, domains)[0]


def encode_datagram(src: str, payload: Any) -> bytes:
    """Frame ``payload`` with its sender pid for one UDP datagram."""
    return _frame(src, payload)


def decode_datagram(data: bytes, domains: DomainLookup) -> Tuple[str, Any]:
    """Inverse of :func:`encode_datagram`; returns ``(src, payload)``, every
    ``DataMessage`` clock in ``domains(msg.group)``."""
    src, payload = _parse(data, 2, domains)
    if type(src) is not str:
        raise CodecError("datagram sender pid is not a string")
    return src, payload


def _register_builtin_wire_classes() -> None:
    """Register every CATOCS wire message plus the clock and app-payload types.

    Called once at import; keeping it in a function makes the registration
    order explicit and gives tests a single place to assert coverage.
    """
    for cls in wire_classes():
        register_wire(cls)

    # A bare clock record decodes to its counts; inside a DataMessage record,
    # _read_record places them in the group's domain.
    register_wire(
        DenseVectorClock,
        tag="VectorClock",
        to_fields=lambda vc: {"counts": vc.as_dict()},
        from_fields=lambda fields: _clock_counts(fields["counts"]),
    )

    # App payloads that are classes rather than plain dicts.
    from repro.apps.netnews import Article

    register_wire(Article)


_register_builtin_wire_classes()
