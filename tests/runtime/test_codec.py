"""Wire-codec round-trip properties and malformed-datagram rejection.

The hypothesis property is the satellite contract: a datagram carrying
``msg`` decodes field-equal for *every* wire class, with strategies derived
from the dataclass annotations so a new field on any message is covered the
moment it lands.  The version-1 JSON codec (``json_wire_model``) is the
reference: both formats must return equal values of equal types, and the
binary one must not be the larger.  Every clock decodes into the domain
``host_domains`` keeps for its message's group.
"""

import dataclasses
import inspect
import struct
import tracemalloc
from types import SimpleNamespace
from typing import (Any, Dict, List, Tuple, Union, get_args, get_origin, get_type_hints,
                    is_typeddict)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import json_wire_model
from repro.apps.netnews import Article
from repro.catocs.messages import (AckGossip, AckQuery, DataMessage, Nak, Pid, ViewInstall,
                                   wire_classes)
from repro.ordering.dense import ClockDomain, DenseVectorClock, group_domain
from repro.runtime import codec

#: The decoding host: what every test here stamps in and decodes into.
_HOST = SimpleNamespace()


def host_domains(group: str) -> ClockDomain:
    return group_domain(_HOST, group)


#: The pids the decoding host accepts datagrams from.
SENDERS = {"a", "b"}


class _AnyPid:
    """Accepts every pid: the strategies draw arbitrary ones."""

    def __contains__(self, pid: object) -> bool:
        return True


def encode(value: Any) -> bytes:
    """``value`` as the payload of a datagram from ``a``."""
    return codec.encode_datagram("a", value)


def decode(blob: bytes) -> Any:
    """The payload of ``blob``, decoded by a host that accepts any pid."""
    return codec.decode_datagram(blob, host_domains, _AnyPid())[1]


def decode_datagram(blob: bytes) -> Tuple[str, Any]:
    return codec.decode_datagram(blob, host_domains, SENDERS)


PIDS = st.text(alphabet="abcd", min_size=1, max_size=3)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.integers(-2**80, 2**80),  # beyond int64: the arbitrary-precision escape
    st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    # Almost an ack vector: a bool, a negative or a count >= 2**32 must take
    # the generic dict, not the counts shape.
    st.dictionaries(PIDS, st.booleans() | st.integers(-3, 3) | st.integers(2**32 - 2, 2**32 + 2),
                    max_size=3),
)
#: JSON-shaped app payloads plus the marked containers (tuples, bytes,
#: non-string-keyed dicts) the codec must carry losslessly.
PAYLOADS = st.recursive(
    SCALARS | st.binary(max_size=8),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
        st.dictionaries(st.integers(-9, 9), inner, max_size=3),
    ),
    max_leaves=8,
)
COUNTS = st.dictionaries(PIDS, st.integers(0, 99), max_size=3)


@st.composite
def _data_messages(draw: Any, attached: st.SearchStrategy) -> DataMessage:
    """A DataMessage whose clock is stamped in its group's host domain."""
    group = draw(PIDS)
    counts = draw(st.none() | COUNTS)
    return DataMessage(
        group=group, sender=draw(PIDS), seq=draw(st.integers(0, 999)),
        payload=draw(PAYLOADS), sent_at=draw(st.floats(0, 1e6, allow_nan=False)),
        view_id=draw(st.integers(0, 9)),
        vc=None if counts is None else host_domains(group).clock(counts),
        ack_vector=draw(st.none() | COUNTS), retransmit=draw(st.booleans()),
        attached=draw(attached),
    )


#: DataMessage without recursion into ``attached`` (covered explicitly below).
DATA_MESSAGES = _data_messages(st.none())


def _field_strategy(tp: Any) -> st.SearchStrategy:
    if tp is Any:
        return PAYLOADS
    if tp is str:
        return st.text(max_size=8)
    if tp is bool:
        return st.booleans()
    if tp is int:
        return st.integers(-10**9, 10**9)
    if tp is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if tp is DataMessage:
        return DATA_MESSAGES
    if is_typeddict(tp):
        return st.fixed_dictionaries({}, optional={
            key: _field_strategy(hint) for key, hint in get_type_hints(tp).items()})
    origin = get_origin(tp)
    args = get_args(tp)
    if origin is Union:  # includes Optional[...]
        return st.one_of(*[
            st.none() if arg is type(None) else _field_strategy(arg) for arg in args
        ])
    if origin in (list, List):
        return st.lists(_field_strategy(args[0]), max_size=3)
    if origin in (dict, Dict):
        return st.dictionaries(_field_strategy(args[0]), _field_strategy(args[1]),
                               max_size=3)
    if origin in (tuple, Tuple):
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_field_strategy(args[0]), max_size=3).map(tuple)
        return st.tuples(*[_field_strategy(arg) for arg in args])
    raise NotImplementedError(f"no strategy for annotation {tp!r}")


def _instances(cls: type) -> st.SearchStrategy:
    if cls is DataMessage:  # its clock must sit in its own group's domain
        return _data_messages(st.none() | st.lists(DATA_MESSAGES, max_size=2))
    hints = get_type_hints(cls)
    return st.builds(cls, **{
        f.name: _field_strategy(hints[f.name]) for f in dataclasses.fields(cls)
    })


@pytest.mark.parametrize("cls", wire_classes() + (Article,),
                         ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_registered_wire_class_round_trips(cls, data):
    msg = data.draw(_instances(cls))
    assert decode(encode(msg)) == msg


def _values(cls: Any) -> st.SearchStrategy:
    """Instances of a class in CARRIED; ``None`` stands for PAYLOADS, and
    DenseVectorClock for a message stamped in a domain the host does not
    keep (a clock travels only as a stamp)."""
    if cls is None:
        return PAYLOADS
    if cls is DenseVectorClock:
        return st.lists(st.integers(0, 99), min_size=3, max_size=3).map(
            lambda counts: DataMessage(
                group="g", sender="a", seq=1, payload=None, sent_at=0.0,
                vc=DenseVectorClock(ClockDomain(("a", "b", "c")), counts)))
    return _instances(cls)


def _same_types(a: Any, b: Any) -> bool:
    """Equal values can still differ in kind (a list for a tuple, ``1`` for
    ``True``): compare types at every depth."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same_types(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, DenseVectorClock):
        return a._domain is b._domain and _same_types(a.as_dict(), b.as_dict())
    if isinstance(a, dict):
        return ({(type(k), k) for k in a} == {(type(k), k) for k in b}
                and all(_same_types(v, b[k]) for k, v in a.items()))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_types, a, b))
    return repr(a) == repr(b)


#: Every kind of value the codec carries: the wire classes, the app payload
#: class, a stamp from another host's clock domain, and app payloads.
CARRIED = wire_classes() + (Article, DenseVectorClock)


@pytest.mark.parametrize("cls", CARRIED + (None,),
                         ids=lambda c: "PAYLOADS" if c is None else c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_binary_and_json_round_trips_agree(cls, data):
    value = data.draw(_values(cls))
    binary = decode(encode(value))
    reference = json_wire_model.decode(json_wire_model.encode(value), host_domains)
    # A stamp decodes into the host's domain for its group, as the same counts.
    expected = value if cls is not DenseVectorClock else dataclasses.replace(
        value, vc=host_domains("g").clock(value.vc.as_dict()))
    assert binary == reference == expected
    assert _same_types(binary, reference)


@pytest.mark.parametrize("cls", CARRIED, ids=lambda c: c.__name__)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_mutated_encodings_give_a_value_or_a_codec_error(cls, data):
    blob = encode(data.draw(_values(cls)))
    for cut in range(len(blob)):
        with pytest.raises(codec.CodecError):
            decode(blob[:cut])
    with pytest.raises(codec.CodecError, match="trailing"):
        decode(blob + data.draw(st.binary(min_size=1, max_size=1)))
    rng = data.draw(st.randoms(use_true_random=False))
    for _ in range(40):
        mutant = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            mutant[rng.randrange(len(blob))] ^= rng.randint(1, 255)
        try:
            decode(bytes(mutant))
        except codec.CodecError:
            pass  # anything else propagates and fails the test


SIZED_HEADS = [struct.pack("!BI", code, 2**32 - 1)
               for code in range(codec._BIGINT, codec._DICT + 1)]


@pytest.mark.parametrize("head", SIZED_HEADS + [
    bytes([codec._COUNTS]) + struct.pack("!HH", 0xFFFF, 0xFFFF),
    bytes([codec._RECORD, 0xFF]),
], ids=lambda head: head.hex())
def test_an_absurd_declared_size_is_rejected_without_allocating(head):
    blob = codec.HEADER + SRC + head + bytes(10)
    tracemalloc.start()
    try:
        with pytest.raises(codec.CodecError):
            decode(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


def _rich_data_message() -> DataMessage:
    inner = DataMessage(group="g", sender="b", seq=1, payload="early", sent_at=0.5,
                        vc=host_domains("g").clock({"b": 1}))
    return DataMessage(group="g", sender="a", seq=4, payload={"k": (1, b"\x00")},
                       sent_at=2.0, vc=host_domains("g").clock({"a": 4, "b": 1}),
                       ack_vector={"b": 1}, attached=[inner])


def test_piggybacked_attachments_round_trip():
    outer = _rich_data_message()
    assert decode(encode(outer)) == outer


def test_a_message_the_data_layout_cannot_hold_is_refused_at_encode():
    """A DataMessage has one layout.  Out-of-range header fields, a field of
    the wrong type, a clock or ack vector that is not counts-shaped: each is
    a CodecError at encode, not a second form on the wire.  An int
    ``sent_at`` (the simulator's clock after ``call_at(int)``) packs, and the
    float it decodes to compares equal."""
    for changes in ({"seq": 2**63}, {"seq": True}, {"view_id": -1}, {"sent_at": "2"},
                    {"retransmit": 1}, {"group": 5}, {"vc": {"a": 1}}, {"vc": [1, 2]},
                    {"vc": host_domains("g").clock({"a": 2**32})}, {"ack_vector": {"a": True}},
                    {"ack_vector": {"a": 2**32}}):
        with pytest.raises(codec.CodecError, match="wire layout cannot hold"):
            encode(dataclasses.replace(_rich_data_message(), **changes))
    assert encode(_rich_data_message())[BODY] == codec._DATA
    at_int = dataclasses.replace(_rich_data_message(), sent_at=2)
    assert decode(encode(at_int)) == at_int


@pytest.mark.parametrize("where", ["vc", "ack_vector", "attached", "sender"],
                         ids=lambda where: f"{where}-packed")
def test_counts_naming_a_pid_that_is_not_a_sender_are_a_codec_error(where):
    """From an accepted sender, a stamp or ack vector that names a pid the
    receiver does not accept is refused, in a message and in an attachment,
    and so is a relayed message from such a pid; the same message naming
    only accepted pids decodes."""
    msg = _rich_data_message()
    assert decode_datagram(codec.encode_datagram("a", msg)) == ("a", msg)
    stranger = {"vc": {"vc": ClockDomain(("a", "zz")).clock({"a": 4, "zz": 1})},
                "ack_vector": {"ack_vector": {"b": 1, "zz": 2}},
                "attached": {"attached": [DataMessage(group="g", sender="b", seq=1,
                                                      payload=None, sent_at=0.5,
                                                      ack_vector={"zz": 1})]},
                "sender": {"sender": "zz"}}[where]
    blob = codec.encode_datagram("a", dataclasses.replace(msg, **stranger))
    with pytest.raises(codec.CodecError) as refused:
        decode_datagram(blob)
    assert not isinstance(refused.value, codec.UnknownSender)


@pytest.mark.parametrize("cls", [AckGossip, AckQuery])
def test_gossip_naming_a_pid_that_is_not_a_sender_is_a_codec_error(cls):
    """Every record's ``ack_vector`` passes the rule a ``DataMessage`` ack
    vector does: from an accepted sender, gossip counts for a pid the
    receiver does not accept are refused; counts for senders decode."""
    known = cls(group="g", sender="a", ack_vector={"a": 3, "b": 1})
    assert decode_datagram(codec.encode_datagram("a", known)) == ("a", known)
    stranger = cls(group="g", sender="a", ack_vector={"b": 1, "zz": 5})
    with pytest.raises(codec.CodecError) as refused:
        decode_datagram(codec.encode_datagram("a", stranger))
    assert not isinstance(refused.value, codec.UnknownSender)


@pytest.mark.parametrize("requester", ["zz", 5])
def test_a_requester_that_is_not_a_sender_is_a_codec_error(requester):
    """A reply goes to a record's ``requester``, so from an accepted sender
    it must name an accepted pid too; one that does decodes."""
    known = Nak(group="g", requester="b", wanted=[("a", 1)])
    assert decode_datagram(codec.encode_datagram("a", known)) == ("a", known)
    stranger = dataclasses.replace(known, requester=requester)
    with pytest.raises(codec.CodecError) as refused:
        decode_datagram(codec.encode_datagram("a", stranger))
    assert not isinstance(refused.value, codec.UnknownSender)


#: Fields whose text names no process: a group, and a netnews article's
#: id, newsgroup, kind and the article ids it references.
FREE_TEXT = {"group", "article_id", "newsgroup", "kind", "references"}


def _reaches_bare_str(tp: Any) -> bool:
    if tp == Pid:
        return False
    if is_typeddict(tp):
        return any(map(_reaches_bare_str, get_type_hints(tp, include_extras=True).values()))
    return tp is str or any(map(_reaches_bare_str, get_args(tp)))


def _unannotated_pid_fields(classes: Any) -> List[str]:
    """``Class.field`` for each field whose annotation reaches a ``str`` other
    than through ``Pid``, and which is not free text: the codec would carry
    a pid there without checking it."""
    found = []
    for cls in classes:
        hints = get_type_hints(cls, include_extras=True)
        found += [f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)
                  if f.name not in FREE_TEXT and _reaches_bare_str(hints[f.name])]
    return found


def test_every_field_that_can_name_a_process_says_so():
    """A registered record (or a ``DataMessage``) with a text field that is
    neither a ``Pid`` nor on the free-text list fails here: the codec
    compiles its unknown-pid checks from ``Pid`` annotations only."""
    carried = [registration.cls for registration in codec._BY_CLASS.values()]
    assert Article in carried and len(carried) >= len(wire_classes())
    assert _unannotated_pid_fields(carried + [DataMessage]) == []


def test_an_unannotated_pid_field_is_flagged():
    @dataclasses.dataclass
    class Probe:  # never registered
        group: str
        peer: str
        peers: Dict[Pid, int]

    assert _unannotated_pid_fields([Probe]) == ["Probe.peer"]


def test_an_ordering_state_key_it_does_not_declare_is_a_codec_error():
    """``ordering_state`` is an ``OrderingState``: its declared keys decode,
    and any other key is refused, whatever its value."""
    known = ViewInstall(group="g", coordinator="a", view_id=1, members=("a", "b"),
                        ordering_state={"commits": {("a", 1): (5, "b")},
                                        "assignments": {0: ("b", 1)}})
    assert decode_datagram(codec.encode_datagram("a", known)) == ("a", known)
    stranger = dataclasses.replace(known, ordering_state={"next": 4})
    with pytest.raises(codec.CodecError, match="does not fit OrderingState"):
        decode_datagram(codec.encode_datagram("a", stranger))


def test_dense_clock_decodes_into_the_receivers_domain():
    """The sender indexes (a, b, c); the receiver (c, x, a).  The stamp lands
    in the receiver's domain as the same counts.  A clock outside a
    DataMessage names no group, so no domain: it is refused at encode."""
    sent = DenseVectorClock(ClockDomain(("a", "b", "c")), [3, 0, 7])
    receiver = ClockDomain(("c", "x", "a"))
    msg = DataMessage(group="g", sender="a", seq=1, payload=None, sent_at=0.0, vc=sent)
    decoded = codec.decode_datagram(encode(msg), lambda group: receiver, SENDERS | {"c"})[1].vc
    assert decoded == receiver.clock({"a": 3, "c": 7})
    assert decoded.as_dict() == sent.as_dict() == {"a": 3, "c": 7}
    with pytest.raises(codec.CodecError, match="not a wire-codec-registered"):
        encode(sent)


#: A stamped message as the wire format has always spelt it, the clock a
#: counts map.
PINNED_DATAGRAM = (
    "525057020900000001610700000000000000044000000000000000000000000e000100016761"
    "0f0000000109000000016b0c000000020300000000000000010a000000010000020003610062"
    "00000004000000010001000162000000010b000000010700000000000000013fe00000000000"
    "00000000000200010001676209000000056561726c79000100016200000001"
)


def test_encoded_data_messages_keep_their_pinned_bytes():
    domain = ClockDomain(("a", "b", "c"))  # zero entries never reach the wire
    inner = DataMessage(group="g", sender="b", seq=1, payload="early", sent_at=0.5,
                        vc=domain.clock({"b": 1}))
    rich = DataMessage(group="g", sender="a", seq=4, payload={"k": (1, b"\x00")},
                       sent_at=2.0, vc=domain.clock({"a": 4, "b": 1, "c": 0}),
                       ack_vector={"b": 1}, attached=[inner])
    assert codec.encode_datagram("a", rich).hex() == PINNED_DATAGRAM


def test_decode_returns_a_fresh_object_not_a_reference():
    msg = DataMessage(group="g", sender="a", seq=1, payload={"x": [1]}, sent_at=0.0)
    decoded = decode(encode(msg))
    assert decoded == msg and decoded is not msg
    assert decoded.payload is not msg.payload


def test_datagram_frame_carries_the_sender():
    nak = Nak(group="g", requester="b", wanted=[("a", 3)])
    src, payload = decode_datagram(codec.encode_datagram("b", nak))
    assert src == "b" and payload == nak


def test_unregistered_class_is_rejected_at_encode_time():
    """So is a subclass of a registered class: sent as its base, it would
    decode as another type."""
    class NotWire:
        pass

    @dataclasses.dataclass
    class LateNak(Nak):
        pass

    for value in (NotWire(), LateNak(group="g", requester="b", wanted=[])):
        with pytest.raises(codec.CodecError, match="not a wire-codec-registered"):
            encode(value)


def test_every_wire_tag_names_one_class():
    """A tag names one dataclass, and a record is a dataclass's fields."""
    @dataclasses.dataclass
    class Twin:
        pass

    class Plain:
        pass

    with pytest.raises(codec.CodecError, match="tag collision"):
        codec.register_wire(Twin, tag="Nak")
    with pytest.raises(codec.CodecError, match="not a dataclass"):
        codec.register_wire(Plain)
    for cls in (Twin, Plain):
        with pytest.raises(codec.CodecError, match="not a wire-codec-registered"):
            encode(cls())
    assert list(inspect.signature(codec.register_wire).parameters) == ["cls", "tag"]


@dataclasses.dataclass
class _Refusing:
    """A record class whose constructor refuses whatever it is sent."""

    value: Any

    def __post_init__(self) -> None:
        raise ValueError("refused")


codec.register_wire(_Refusing, tag="test_codec.Refusing")


def _v2(*parts: bytes) -> bytes:
    return codec.HEADER + b"".join(parts)


def _head(code: int, size: int) -> bytes:
    return struct.pack("!BI", code, size)


def _str(raw: bytes) -> bytes:
    return _head(codec._STR, len(raw)) + raw


def _record(tag: bytes, fields: int) -> bytes:
    return bytes([codec._RECORD, len(tag)]) + tag + bytes([fields])


NIL = bytes([codec._NONE])
SRC = _str(b"a")
#: Where a datagram from ``a`` starts its payload.
BODY = len(codec.HEADER) + len(SRC)


@pytest.mark.parametrize("blob", [
    b"",
    b"RP",
    b"RPW",  # header cut before the version byte
    b"XXX\x01{}",  # wrong magic
    b"RPW\x09{}",  # unknown version
    # Version-1 framing, whatever follows it, is an unsupported version now.
    b"RPW\x01",
    b"RPW\x01{\"src\":",
    b"RPW\x01\xff\xfe",
    b"RPW\x01{\"!\":\"NoSuchTag\",\"f\":{}}",
    b"RPW\x01{\"!\":\"Nak\",\"f\":{\"bogus\":1}}",
    b"RPW\x01{\"!\":\"bytes\",\"v\":\"zz\"}",
    b"RPW\x011",
    pytest.param(_v2(), id="v2-empty-body"),
    pytest.param(_v2(SRC), id="v2-sender-without-payload"),
    pytest.param(_v2(struct.pack("!Bq", codec._INT, 1)), id="v2-one-value-is-not-a-datagram"),
    pytest.param(_v2(SRC, NIL, NIL), id="v2-trailing-byte"),
    pytest.param(_v2(struct.pack("!Bq", codec._INT, 7), NIL), id="v2-sender-not-a-str"),
    pytest.param(_v2(_str(b"\xff\xfe"), NIL), id="v2-not-utf8"),
    pytest.param(_v2(SRC, bytes([codec._DICT + 1])), id="v2-unknown-type-byte"),
    pytest.param(_v2(SRC, _record(b"NoSuchTag", 0)), id="v2-unknown-tag"),
    pytest.param(_v2(SRC, _record(b"Nak", 1), NIL), id="v2-wrong-field-count"),
    pytest.param(_v2(SRC, _record(b"Nak", 3)), id="v2-record-without-field-map"),
    pytest.param(_v2(SRC, _record(b"test_codec.Refusing", 1), NIL), id="v2-from-fields-raises"),
    pytest.param(_v2(SRC, _head(codec._DICT, 2), _str(b"k"), NIL, _str(b"k"), NIL),
                 id="v2-duplicate-dict-key"),
    pytest.param(_v2(SRC, _head(codec._SET, 2), NIL, NIL), id="v2-duplicate-set-member"),
    pytest.param(_v2(SRC, _head(codec._SET, 1), _head(codec._LIST, 0)),
                 id="v2-unhashable-set-member"),
    pytest.param(_v2(SRC, bytes([codec._COUNTS]), struct.pack("!HH", 2, 3), b"a\0a",
                     struct.pack("!II", 1, 2)), id="v2-duplicate-counts-key"),
    pytest.param(_v2(SRC, bytes([codec._COUNTS]), struct.pack("!HH", 2, 1), b"a",
                     struct.pack("!II", 1, 2)), id="v2-mismatched-counts-keys"),
    pytest.param(_v2(SRC, bytes([codec._COUNTS]), struct.pack("!HH", 0, 1), b"a"),
                 id="v2-counts-keys-without-counts"),
    pytest.param(_v2(SRC, struct.pack("!BqdIBHH", codec._DATA, 1, 0.0, 0, 0x10, 0, 0), NIL),
                 id="v2-unknown-data-flag"),
    pytest.param(_v2(SRC, _head(codec._LIST, 1) * (codec.MAX_DEPTH + 1), NIL),
                 id="v2-nested-too-deep"),
])
def test_malformed_datagrams_raise_codec_error(blob):
    with pytest.raises(codec.CodecError):
        decode_datagram(blob)


def test_the_deepest_legal_nesting_decodes():
    value: Any = None
    for _ in range(codec.MAX_DEPTH):
        value = [value]
    assert decode(encode(value)) == value
    with pytest.raises(codec.CodecError, match="nest deeper"):
        encode([value])


def test_a_version_1_datagram_is_rejected_as_an_unsupported_version():
    nak = Nak(group="g", requester="b", wanted=[("a", 3)])
    blob = json_wire_model.encode_datagram("b", nak)
    assert json_wire_model.decode_datagram(blob, host_domains) == ("b", nak)  # fine for v1
    with pytest.raises(codec.CodecError, match="unsupported wire version: 1"):
        decode_datagram(blob)


def test_truncation_anywhere_is_rejected():
    for payload in (Nak(group="g", requester="a", wanted=[]), _rich_data_message()):
        data = codec.encode_datagram("a", payload)
        for cut in range(len(data)):
            with pytest.raises(codec.CodecError):
                decode_datagram(data[:cut])


@settings(max_examples=50, deadline=None)
@given(blob=st.binary(max_size=64))
def test_random_bytes_never_crash_the_decoder(blob):
    try:
        decode_datagram(blob)
    except codec.CodecError:
        pass  # rejection is the expected outcome for garbage


def test_encoding_is_deterministic():
    msg = DataMessage(group="g", sender="a", seq=2, payload={"b": 1, "a": 2},
                      sent_at=1.0, vc=host_domains("g").clock({"a": 2}))
    assert encode(msg) == encode(msg)


def test_equal_sets_encode_to_equal_bytes_whatever_their_insertion_order():
    forward, backward = set(), set()
    for item in (0, 8, 16, 24):  # all four collide in an 8-slot table
        forward.add(item)
        backward.add(24 - item)
    assert forward == backward and list(forward) != list(backward)
    assert encode(forward) == encode(backward)
    assert encode(frozenset(forward)) == encode(frozenset(backward))
    mixed = frozenset({"a", ("b", 1), 2, frozenset(forward)})
    assert decode(encode(mixed)) == mixed
    assert encode(mixed) == encode(frozenset(sorted(mixed, key=repr)))


def _three_char_pids(count: int) -> List[str]:
    return [f"m{index:02d}" for index in range(count)]


@pytest.mark.parametrize("members", [3, 24, 64])
def test_datagrams_are_no_larger_than_json_and_grow_by_one_counts_entry(members):
    """The header overhead the paper charges CATOCS with: per member, a pid,
    its separator and a 4-byte count in every counts map, and nothing else."""
    def datagrams(size):
        counts = {pid: 7 + index for index, pid in enumerate(_three_char_pids(size))}
        return (
            DataMessage(group="group", sender="m00", seq=17, payload=50, sent_at=0.0667,
                        vc=ClockDomain(tuple(counts)).clock(counts), ack_vector=dict(counts)),
            AckGossip(group="group", sender="m00", ack_vector=dict(counts)),
        )

    for maps, now, one_more in zip((2, 1), datagrams(members), datagrams(members + 1)):
        size = len(codec.encode_datagram("m00", now))
        assert size <= len(json_wire_model.encode_datagram("m00", now))
        assert len(codec.encode_datagram("m00", one_more)) - size == maps * (3 + 1 + 4)
