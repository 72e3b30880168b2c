"""Unit tests for the binary record codec."""

import pytest

from repro.core.errors import InvalidRecord, LogCorruption
from repro.core.pnode import ObjectRef
from repro.core.records import Attr, ProvenanceRecord, make_record
from repro.storage import codec


def roundtrip(value):
    record = ProvenanceRecord(ObjectRef(7, 3), Attr.ANNOTATION, value)
    encoded = codec.encode_record(record)
    decoded, offset = codec.decode_record(encoded)
    assert offset == len(encoded)
    return decoded


class TestRoundtrip:
    def test_int(self):
        assert roundtrip(42).value == 42

    def test_negative_int(self):
        assert roundtrip(-99).value == -99

    def test_float(self):
        assert roundtrip(3.5).value == 3.5

    def test_str(self):
        assert roundtrip("héllo wörld").value == "héllo wörld"

    def test_empty_str(self):
        assert roundtrip("").value == ""

    def test_bytes(self):
        assert roundtrip(b"\x00\xffdata").value == b"\x00\xffdata"

    def test_bool_true_false(self):
        assert roundtrip(True).value is True
        assert roundtrip(False).value is False

    def test_bool_does_not_become_int(self):
        decoded = roundtrip(True)
        assert isinstance(decoded.value, bool)

    def test_ref(self):
        decoded = roundtrip(ObjectRef(123456789, 42))
        assert decoded.value == ObjectRef(123456789, 42)
        assert isinstance(decoded.value, ObjectRef)

    def test_subject_preserved(self):
        record = ProvenanceRecord(ObjectRef(1 << 45, 9), Attr.TYPE, "FILE")
        decoded, _ = codec.decode_record(codec.encode_record(record))
        assert decoded.subject == ObjectRef(1 << 45, 9)

    def test_full_equality(self):
        record = ProvenanceRecord(ObjectRef(5, 1), Attr.INPUT,
                                  ObjectRef(6, 0))
        decoded, _ = codec.decode_record(codec.encode_record(record))
        assert decoded == record


class TestStream:
    def test_concatenated_records(self):
        records = [
            ProvenanceRecord(ObjectRef(i, 0), Attr.NAME, f"f{i}")
            for i in range(20)
        ]
        buf = b"".join(codec.encode_record(r) for r in records)
        assert list(codec.decode_stream(buf)) == records

    def test_truncated_tail_dropped(self):
        records = [
            ProvenanceRecord(ObjectRef(i, 0), Attr.NAME, f"f{i}")
            for i in range(5)
        ]
        buf = b"".join(codec.encode_record(r) for r in records)
        assert list(codec.decode_stream(buf[:-3])) == records[:-1]

    def test_empty_stream(self):
        assert list(codec.decode_stream(b"")) == []

    def test_garbage_raises_on_direct_decode(self):
        with pytest.raises(LogCorruption):
            codec.decode_record(b"\x01\x02")

    def test_unknown_tag_raises(self):
        record = ProvenanceRecord(ObjectRef(1, 0), Attr.NAME, "x")
        buf = bytearray(codec.encode_record(record))
        # Attribute is 4 ASCII chars; the tag byte follows header+attr.
        tag_index = 12 + 1 + len(Attr.NAME)
        buf[tag_index] = 0x7F
        with pytest.raises(LogCorruption):
            codec.decode_record(bytes(buf))

    def test_encoded_size_matches(self):
        record = ProvenanceRecord(ObjectRef(1, 0), Attr.ARGV, "a" * 300)
        assert codec.encoded_size(record) == len(codec.encode_record(record))

    def test_long_attribute_rejected(self):
        with pytest.raises(InvalidRecord):
            ProvenanceRecord(ObjectRef(1, 0), "A" * 300, "x")
        record = make_record(ObjectRef(1, 0), "A" * 300, "x")
        with pytest.raises(ValueError):
            codec.encode_record(record)
