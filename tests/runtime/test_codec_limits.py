"""Registration and nesting limits of the binary wire codec: what it refuses
to register, and records that nest past ``MAX_DEPTH`` or refuse to rebuild."""

import dataclasses
import struct
from typing import Any, Optional, Set

import pytest

from repro.catocs.messages import Pid
from repro.runtime import codec


@dataclasses.dataclass
class _Box:
    value: Any


codec.register_wire(_Box, tag="test_codec_limits.Box")


@dataclasses.dataclass
class _Strict:
    """Rebuilding it raises a codec error of its own."""

    value: Any

    def __post_init__(self) -> None:
        if self.value is None:
            raise codec.CodecError("strict record without a value")


codec.register_wire(_Strict, tag="test_codec_limits.Strict")


def _decode(blob):
    return codec.decode_datagram(blob, lambda group: None, {"a"})[1]


def _nested_boxes(depth):
    value: Any = None
    for _ in range(depth):
        value = _Box(value)
    return value


def test_a_class_registers_once():
    with pytest.raises(codec.CodecError, match="already codec-registered"):
        codec.register_wire(_Box, tag="test_codec_limits.Box2")


def test_a_tag_longer_than_one_length_byte_is_refused():
    @dataclasses.dataclass
    class Wordy:
        pass

    with pytest.raises(codec.CodecError, match="do not fit one byte"):
        codec.register_wire(Wordy, tag="t" * 256)
    with pytest.raises(codec.CodecError, match="not a wire-codec-registered"):
        codec.encode_datagram("a", Wordy())


@pytest.mark.parametrize("annotation", [Optional[Pid], Set[Pid]], ids=["optional", "set"])
def test_a_pid_the_decoder_could_not_check_is_refused_at_registration(annotation):
    Field = dataclasses.make_dataclass("Field", [("who", annotation)])
    with pytest.raises(codec.CodecError, match="cannot check the pids"):
        codec.register_wire(Field, tag="test_codec_limits.Field")
    with pytest.raises(codec.CodecError, match="not a wire-codec-registered"):
        codec.encode_datagram("a", Field(None))


def test_records_nest_to_the_limit_and_no_further():
    deepest = _nested_boxes(codec.MAX_DEPTH)
    assert _decode(codec.encode_datagram("a", deepest)) == deepest
    with pytest.raises(codec.CodecError, match="nest deeper"):
        codec.encode_datagram("a", _Box(deepest))


def test_a_record_below_the_depth_limit_is_refused_at_decode():
    tag = b"test_codec_limits.Box"
    lists = struct.pack("!BI", codec._LIST, 1) * codec.MAX_DEPTH
    record = bytes([codec._RECORD, len(tag)]) + tag + bytes([1, codec._NONE])
    src = struct.pack("!BI", codec._STR, 1) + b"a"
    with pytest.raises(codec.CodecError, match="nest deeper"):
        _decode(codec.HEADER + src + lists + record)


def test_a_codec_error_raised_while_rebuilding_a_record_passes_through():
    blob = codec.encode_datagram("a", _Strict(1))
    assert _decode(blob) == _Strict(1)
    broken = blob[:-1 - struct.calcsize("!q")] + bytes([codec._NONE])
    with pytest.raises(codec.CodecError, match="strict record without a value"):
        _decode(broken)


def test_a_string_utf8_cannot_carry_is_a_codec_error():
    with pytest.raises(codec.CodecError, match="unencodable payload"):
        codec.encode_datagram("a", {"text": "\ud800"})
