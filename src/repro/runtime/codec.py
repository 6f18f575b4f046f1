"""Versioned binary wire codec for everything that crosses a real network.

The simulator delivers payloads by Python reference — zero-copy, and exactly
right for a model.  A real socket needs bytes, so the UDP transport
(:mod:`repro.runtime.udp`) runs every payload through this codec.

A datagram (:func:`encode_datagram`) is ``b"RPW"`` + the version byte + two
*values*, the sender pid and the payload.  A value is one type byte and a
body, written in one pass with :mod:`struct` and read back in one pass,
every integer big-endian: None / true / false (no body), ``int`` (int64, or
length + two's-complement bytes beyond it), ``float`` (float64), ``str`` and
``bytes`` (u32 length + raw bytes, UTF-8 for ``str``), list / tuple / set /
frozenset / dict (u32 count + the members; set members sorted by their
encoding, dict entries in insertion order), and a registered dataclass (the
*record*: its tag name, a field count and the field values in declaration
order).  Two shapes are packed tighter because they are what the protocols
actually send:

- *counts* — the ``str`` -> small non-negative ``int`` dict every ack
  vector and vector clock is: u16 count, u16 key-blob length, the keys
  joined by NUL, then one u32 per key.  Two C calls whatever the group
  size; a dict holding anything else (a bool, a negative, a value >= 2**32,
  a non-``str`` key, a NUL in a key) takes the generic dict form.
- :class:`~repro.catocs.messages.DataMessage`, which has this one layout and
  no other: a fixed header (seq, sent_at, view_id, a flags byte, two string
  lengths), then group, sender, the payload as a value, ``vc`` and
  ``ack_vector`` as bare counts and ``attached`` as a value.  A message with
  a field that layout cannot hold is refused at encode.

Registration is explicit and per class: :func:`register_wire` takes a
dataclass, whose fields travel by position.  Every class in
:func:`repro.catocs.messages.wire_classes` but ``DataMessage`` is registered
at import time; the wiring gate in ``tests/analysis/test_flowgraph.py``
fails the tests for a message ``repro.catocs`` sends outside that set.

A :class:`~repro.ordering.dense.DenseVectorClock` travels only as a
``DataMessage``'s stamp, as its non-zero counts keyed by pid.  The wire
names no :class:`~repro.ordering.dense.ClockDomain`, so
:func:`decode_datagram` takes the receiver's ``group -> ClockDomain``
lookup, and the stamp decodes straight into its group's domain: two arrays
over one index whatever order the sender's domain had.  A clock anywhere
else is an unregistered class.  :func:`decode_datagram` also takes the pids
the receiver accepts, and refuses any other sender before it reads the
payload, and any ``DataMessage`` sender, stamp or ack vector, or record
field annotated :data:`~repro.catocs.messages.Pid` (or a container of
them), that names another: :func:`register_wire` compiles a record's checks
from its annotations.

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
from typing import (Any, Callable, Container, Dict, List, Optional, Tuple, get_args, get_origin,
                    get_type_hints, is_typeddict)

from repro.catocs.messages import DataMessage, Pid, wire_classes
from repro.ordering.dense import ClockDomain, DenseVectorClock

#: The receiver's clock domains: group name -> the domain its stamps index.
DomainLookup = Callable[[str], ClockDomain]
#: The pids a datagram may come from and its payload may name.
Senders = Container[str]
#: A decode check: raises :class:`CodecError` unless the value fits.
_Check = Callable[[Any, Senders], None]

MAGIC = b"RPW"
VERSION = 2
HEADER = MAGIC + bytes([VERSION])

#: Conservative single-datagram budget (IPv4 UDP max is 65 507 payload
#: bytes); the UDP transport refuses larger encodings instead of letting the
#: OS truncate or reject them mid-flight.
MAX_DATAGRAM = 65_000

#: Containers and records nest at most this deep, on either side: far above
#: what ``attached`` or ``ordering_state`` reach, far below the
#: interpreter's recursion limit.
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


class UnknownSender(CodecError):
    """A datagram whose sender pid the receiver does not accept."""


@dataclasses.dataclass(frozen=True)
class _Registration:
    tag: str
    cls: type
    #: Field order on the wire.
    names: Tuple[str, ...]
    #: ``(field, check)`` for each field that can name a pid (:func:`_audit`).
    audits: Tuple[Tuple[str, _Check], ...]
    #: Everything before the field values: type byte, tag, field count.
    head: bytes


_BY_CLASS: Dict[type, _Registration] = {}
_BY_TAG: Dict[str, _Registration] = {}


def register_wire(cls: type, tag: Optional[str] = None) -> type:
    """Register the dataclass ``cls`` under ``tag`` (default: class name):
    its fields travel by position, each that can name a pid checked on
    decode as :func:`_audit` compiles its annotation.  Returns ``cls``."""
    if not dataclasses.is_dataclass(cls):
        raise CodecError(f"{cls.__name__} is not a dataclass")
    if cls in _BY_CLASS:
        raise CodecError(f"{cls.__name__} is already codec-registered")
    tag = tag or cls.__name__
    if tag in _BY_TAG:
        raise CodecError(f"wire tag collision: {tag!r}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    raw_tag = tag.encode("utf-8")
    if len(raw_tag) > 255 or len(names) > 255:
        raise CodecError(f"wire tag {tag!r} or its {len(names)} fields do not fit one byte each")
    hints = get_type_hints(cls, include_extras=True)
    registration = _Registration(
        tag=tag, cls=cls, names=names,
        audits=tuple((name, check) for name in names if (check := _audit(hints[name]))),
        head=bytes([_RECORD, len(raw_tag)]) + raw_tag + bytes([len(names)]))
    _BY_CLASS[cls] = _BY_TAG[tag] = registration
    return cls


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


def _unfit(msg: DataMessage) -> CodecError:
    return CodecError(f"DataMessage {msg.msg_id!r} has a field its wire layout cannot hold")


def _write_data(out: List[bytes], msg: DataMessage, depth: int) -> None:
    """Append ``msg`` in the DataMessage layout, or raise :class:`CodecError`
    for a field it cannot hold."""
    if not (type(msg.seq) is int and type(msg.view_id) is int
            and type(msg.retransmit) is bool
            and type(msg.group) is str and type(msg.sender) is str):
        raise _unfit(msg)
    flags = _RETRANSMIT if msg.retransmit else 0
    vc_body: Optional[bytes] = b""
    acks_body: Optional[bytes] = b""
    vc, acks = msg.vc, msg.ack_vector
    if vc is not None:
        vc_body = _counts_body(vc.as_dict()) if type(vc) is DenseVectorClock else None
        flags |= _HAS_VC
    if acks is not None:
        acks_body = _counts_body(acks) if type(acks) is dict else None
        flags |= _HAS_ACKS
    if vc_body is None or acks_body is None:
        raise _unfit(msg)
    if msg.attached is not None:
        flags |= _HAS_ATTACHED
    group, sender = msg.group.encode("utf-8"), msg.sender.encode("utf-8")
    try:
        # ``d`` packs an int sent_at too (the simulator's clock is one after
        # ``call_at(int)``), and the float it decodes to compares equal.
        out.append(_DATA_HEAD.pack(_DATA, msg.seq, msg.sent_at, msg.view_id,
                                   flags, len(group), len(sender)))
    except struct.error:
        raise _unfit(msg) from None
    out.append(group)
    out.append(sender)
    _write(out, msg.payload, depth + 1)
    out.append(vc_body)
    out.append(acks_body)
    if msg.attached is not None:
        _write(out, msg.attached, depth + 1)


def _encoded(value: Any, depth: int) -> bytes:
    out: List[bytes] = []
    _write(out, value, depth)
    return b"".join(out)


def _write(out: List[bytes], value: Any, depth: int) -> None:
    """Append the encoding of ``value`` to ``out``."""
    kind = type(value)
    code = _CODES.get(kind)
    if code is None:
        if kind is DataMessage:
            if depth >= MAX_DEPTH:
                raise _too_deep()
            _write_data(out, value, depth)
            return
        registration = _BY_CLASS.get(kind)
        if registration is not None:
            if depth >= MAX_DEPTH:
                raise _too_deep()
            out.append(registration.head)
            for name in registration.names:
                _write(out, getattr(value, name), depth + 1)
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


def _read_data(data: bytes, pos: int, depth: int, domains: DomainLookup,
               senders: Senders) -> Tuple[DataMessage, int]:
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
    if sender not in senders:
        raise CodecError("DataMessage from a pid that is not an accepted sender")
    payload, pos = _read(data, end, depth + 1, domains, senders)
    vc = acks = attached = None
    if flags & _HAS_VC:
        counts, pos = _read_counts(data, pos)
        _named(counts, senders)
        vc = domains(group).clock(counts)
    if flags & _HAS_ACKS:
        acks, pos = _read_counts(data, pos)
        _named(acks, senders)
    if flags & _HAS_ATTACHED:
        attached, pos = _read(data, pos, depth + 1, domains, senders)
    return DataMessage(group, sender, seq, payload, sent_at, view_id, vc, acks,
                       bool(flags & _RETRANSMIT), attached), pos


def _pid(pid: Any, senders: Senders) -> None:
    if type(pid) is not str or pid not in senders:
        raise CodecError(f"{pid!r} is not an accepted sender's pid")


def _int(value: Any, senders: Senders) -> None:
    if type(value) is not int:
        raise CodecError(f"{value!r} where an int belongs")


def _free(value: Any, senders: Senders) -> None:
    """A slot that names no pid."""


def _named(counts: Any, senders: Senders) -> None:
    """Refuse all but a dict keyed by ``senders``, with no Python loop per
    key: a ``Dict[Pid, int]``, and a ``DataMessage``'s stamp (a new pid
    would widen every later clock of its group) and ack vector."""
    if type(counts) is not dict or not all(map(senders.__contains__, counts)):
        raise CodecError("counts name a pid that is not an accepted sender")


def _audit(tp: Any) -> Optional[_Check]:
    """The decode check for a field annotated ``tp``, or None when no
    :data:`~repro.catocs.messages.Pid` is reachable in it.  It refuses a pid
    outside ``senders`` (a reply, flush or view towards it raises in the
    stack; a count map's starts a NAK chase; a commit is kept for good), and
    on the way down another container kind or tuple length, a non-``int``
    in an ``int`` slot (a message id's seq) or an undeclared key."""
    if tp == Pid:
        return _pid
    if is_typeddict(tp):
        declared = {key: _audit(hint) or _free
                    for key, hint in get_type_hints(tp, include_extras=True).items()}

        def entries(value: Any, senders: Senders) -> None:
            if type(value) is not dict or not value.keys() <= declared.keys():
                raise CodecError(f"{value!r} does not fit {tp.__name__}")
            for key, item in value.items():
                declared[key](item, senders)
        return entries
    kind, args = get_origin(tp), get_args(tp)
    checks = [_audit(arg) for arg in args]
    if not any(checks):
        return None
    slots = [check or (_int if arg is int else _free) for arg, check in zip(args, checks)]

    def shape(value: Any, senders: Senders) -> None:  # one check per slot
        if type(value) is not tuple or len(value) != len(slots):
            raise CodecError(f"{value!r} where a {len(slots)}-tuple belongs")
        for check, item in zip(slots, value):
            check(item, senders)
    if kind is tuple and args[-1] is not Ellipsis:
        return shape
    if kind is dict:
        if checks == [_pid, None]:
            return _named
        each, members = shape, dict.items  # its (key, value) pairs
    elif kind in (list, tuple):
        each, members = checks[0], iter
    else:
        raise CodecError(f"cannot check the pids in {tp!r}")

    def container(value: Any, senders: Senders) -> None:
        if type(value) is not kind:
            raise CodecError(f"{type(value).__name__} where a {kind.__name__} belongs")
        for item in members(value):
            each(item, senders)
    return container


def _read_record(data: bytes, pos: int, depth: int, domains: DomainLookup,
                 senders: Senders) -> Tuple[Any, int]:
    pos += 2
    end = pos + data[pos - 1]  # where the field count byte sits
    if end >= len(data):
        raise CodecError("record tag larger than the bytes that remain")
    tag = str(data[pos:end], "utf-8")
    registration = _BY_TAG.get(tag)
    if registration is None:
        raise CodecError(f"unknown wire tag: {tag!r}")
    if data[end] != len(registration.names):
        raise CodecError(f"wire tag {tag!r} with {data[end]} fields")
    pos = end + 1
    fields = {}
    for name in registration.names:
        fields[name], pos = _read(data, pos, depth + 1, domains, senders)
    for name, check in registration.audits:
        check(fields[name], senders)
    try:
        return registration.cls(**fields), pos
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"cannot rebuild {tag!r}: {exc}") from exc


def _read(data: bytes, pos: int, depth: int, domains: DomainLookup,
          senders: Senders) -> Tuple[Any, int]:
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
            return _read_data(data, pos, depth, domains, senders)
        return _read_record(data, pos, depth, domains, senders)
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
                key, pos = _read(data, pos, depth + 1, domains, senders)
                mapping[key], pos = _read(data, pos, depth + 1, domains, senders)
            members: Any = mapping
        else:
            items = []
            for _ in range(size):
                item, pos = _read(data, pos, depth + 1, domains, senders)
                items.append(item)
            members = _SEQUENCES[code](items)
    except TypeError as exc:  # an unhashable dict key or set member
        raise CodecError(f"malformed container: {exc}") from exc
    if len(members) != size:
        raise CodecError("duplicate dict key or set member")
    return members, pos


def _next(data: bytes, pos: int, domains: DomainLookup,
          senders: Senders) -> Tuple[Any, int]:
    """:func:`_read` at the top level of a frame."""
    try:
        return _read(data, pos, 0, domains, senders)
    except (IndexError, struct.error, UnicodeDecodeError) as exc:  # cut short, or not UTF-8
        raise CodecError(f"malformed datagram body: {exc}") from exc


def encode_datagram(src: str, payload: Any) -> bytes:
    """Frame ``payload`` with its sender pid for one UDP datagram."""
    out = [HEADER]
    try:
        _write(out, src, 0)
        _write(out, payload, 0)
    except (TypeError, ValueError, struct.error, RecursionError) as exc:
        if isinstance(exc, CodecError):
            raise
        raise CodecError(f"unencodable payload: {exc}") from exc
    return b"".join(out)


def decode_datagram(data: bytes, domains: DomainLookup,
                    senders: Senders) -> Tuple[str, Any]:
    """Inverse of :func:`encode_datagram`; returns ``(src, payload)``, every
    ``DataMessage`` clock in ``domains(msg.group)``.

    The sender pid is read first, and a pid not in ``senders`` raises
    :class:`UnknownSender` before any byte of the payload is: a forged
    datagram cannot add a pid to a clock domain.  Nor can a known sender: a
    ``DataMessage`` sender, stamp or ack vector, or a record field annotated
    as a ``Pid`` or a container of them, that names a pid not in
    ``senders`` raises :class:`CodecError`.  A relay from a departed member
    still decodes: the receiver keeps accepting every pid it has an address
    for."""
    if len(data) < len(HEADER):
        raise CodecError(f"truncated datagram: {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a repro wire datagram")
    if data[len(MAGIC)] != VERSION:
        raise CodecError(f"unsupported wire version: {data[len(MAGIC)]}")
    pos = len(HEADER)
    if data[pos:pos + 1] != _BYTE[_STR]:
        raise CodecError("datagram sender pid is not a string")
    src, pos = _next(data, pos, domains, senders)
    if src not in senders:
        raise UnknownSender(f"datagram from unregistered pid {src!r}")
    payload, pos = _next(data, pos, domains, senders)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes")
    return src, payload


def _register_builtin_wire_classes() -> None:
    """Register every CATOCS wire record and the app-payload types, once."""
    for cls in wire_classes():
        if cls is not DataMessage:  # its own layout, never a record
            register_wire(cls)

    # App payloads that are classes rather than plain dicts.
    from repro.apps.netnews import Article

    register_wire(Article)


_register_builtin_wire_classes()
