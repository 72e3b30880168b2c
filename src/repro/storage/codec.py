"""Binary codec for provenance records.

The log and the database store records in a compact binary form; the
encoded length is what the space-overhead benchmarks (paper Table 3)
measure.  Layout of one record::

    8 bytes   subject pnode (unsigned big-endian)
    4 bytes   subject version
    1 byte    attribute name length, then UTF-8 attribute name
    1 byte    value type tag
    payload   type-dependent (see TAG_* below)

The codec is self-delimiting, so a log segment is just concatenated
records; recovery walks it record by record and stops at the first
truncated/corrupt one.

Only readers of bytes encode: recovery, a torn-tail cut and a database
export (``encode_rows``).  Everything that only needs the length -- the
log's disk charge, the database's Table 3 sizes -- measures flat rows
with ``encoded_nbytes``, which builds no bytes.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.core.errors import InvalidRecord, LogCorruption
from repro.core.pnode import ObjectRef
from repro.core.records import ProvenanceRecord, Value, make_record

TAG_INT = 0x01
TAG_FLOAT = 0x02
TAG_STR = 0x03
TAG_BYTES = 0x04
TAG_BOOL = 0x05
TAG_REF = 0x06

_HEAD = struct.Struct(">QI")          # pnode, version
_REF = struct.Struct(">QI")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_LEN = struct.Struct(">I")


def encode_value(value: Value) -> bytes:
    """Encode one record value with its type tag."""
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return bytes([TAG_BOOL, 1 if value else 0])
    if isinstance(value, ObjectRef):
        return bytes([TAG_REF]) + _REF.pack(value.pnode, value.version)
    if isinstance(value, int):
        return bytes([TAG_INT]) + _I64.pack(value)
    if isinstance(value, float):
        return bytes([TAG_FLOAT]) + _F64.pack(value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return bytes([TAG_STR]) + _LEN.pack(len(raw)) + raw
    if isinstance(value, bytes):
        return bytes([TAG_BYTES]) + _LEN.pack(len(value)) + value
    raise TypeError(f"unencodable value type: {type(value).__name__}")


def decode_value(buf: bytes, offset: int) -> tuple[Value, int]:
    """Decode one value at ``offset``; returns (value, next offset)."""
    try:
        tag = buf[offset]
        offset += 1
        if tag == TAG_BOOL:
            return bool(buf[offset]), offset + 1
        if tag == TAG_REF:
            pnode, version = _REF.unpack_from(buf, offset)
            return ObjectRef(pnode, version), offset + _REF.size
        if tag == TAG_INT:
            return _I64.unpack_from(buf, offset)[0], offset + _I64.size
        if tag == TAG_FLOAT:
            return _F64.unpack_from(buf, offset)[0], offset + _F64.size
        if tag in (TAG_STR, TAG_BYTES):
            (length,) = _LEN.unpack_from(buf, offset)
            offset += _LEN.size
            raw = buf[offset:offset + length]
            if len(raw) != length:
                raise LogCorruption("truncated value payload")
            offset += length
            if tag == TAG_STR:
                try:
                    return raw.decode("utf-8"), offset
                except UnicodeDecodeError as exc:
                    raise LogCorruption(
                        f"corrupt string payload: {exc}") from exc
            return bytes(raw), offset
    except (IndexError, struct.error) as exc:
        raise LogCorruption(f"truncated record value: {exc}") from exc
    raise LogCorruption(f"unknown value tag: {tag:#x}")


def encode_record(record: ProvenanceRecord) -> bytes:
    """Encode one record (self-delimiting)."""
    return _encode_row(record.subject, record.attr, record.value)


def encode_rows(rows) -> bytes:
    """Encode flat (subject, attr, value) rows: their records'
    encodings, concatenated (a log segment's or an export's bytes)."""
    row = iter(rows)
    return b"".join(map(_encode_row, row, row, row))


def _encode_row(subject: ObjectRef, attr: str, value: Value) -> bytes:
    attr_raw = attr.encode("utf-8")
    if len(attr_raw) > 255:
        raise ValueError(f"attribute name too long: {attr!r}")
    return b"".join((
        _HEAD.pack(subject.pnode, subject.version),
        bytes([len(attr_raw)]),
        attr_raw,
        encode_value(value),
    ))


def decode_record(buf: bytes, offset: int = 0) -> tuple[ProvenanceRecord, int]:
    """Decode one record at ``offset``; returns (record, next offset)."""
    try:
        pnode, version = _HEAD.unpack_from(buf, offset)
        offset += _HEAD.size
        attr_len = buf[offset]
        offset += 1
        attr_raw = buf[offset:offset + attr_len]
        if len(attr_raw) != attr_len:
            raise LogCorruption("truncated attribute name")
        offset += attr_len
    except (IndexError, struct.error) as exc:
        raise LogCorruption(f"truncated record header: {exc}") from exc
    value, offset = decode_value(buf, offset)
    try:
        record = ProvenanceRecord(ObjectRef(pnode, version),
                                  attr_raw.decode("utf-8"), value)
    except UnicodeDecodeError as exc:
        raise LogCorruption(f"corrupt attribute name: {exc}") from exc
    except InvalidRecord as exc:
        # A zeroed attribute-length byte decodes to an empty name; the
        # record validator rejects it, recovery just stops there.
        raise LogCorruption(f"corrupt record: {exc}") from exc
    return record, offset


def decode_stream(buf: bytes) -> Iterable[ProvenanceRecord]:
    """Decode concatenated records, stopping cleanly at a truncation.

    Yields records up to the first undecodable point; a trailing partial
    record (a crash mid-flush) is silently dropped, which is exactly the
    semantics recovery wants.  Refs and attribute names are memoised
    per stream (in one dict: an ObjectRef never equals a str): records
    naming one (pnode, version) share one :class:`ObjectRef`, and
    records of one attribute one ``str``.
    """
    memo: dict = {}
    intern = memo.setdefault
    offset = 0
    while offset < len(buf):
        try:
            record, offset = decode_record(buf, offset)
        except LogCorruption:
            return
        subject, attr, value = record.subject, record.attr, record.value
        if value.__class__ is ObjectRef:
            value = intern(value, value)
        yield make_record(intern(subject, subject), intern(attr, attr), value)


def encoded_size(record: ProvenanceRecord) -> int:
    """Encoded length of a record: ``len(encode_record(record))``."""
    return encoded_nbytes((record.subject, record.attr, record.value))


#: Encoded bytes (tag included) of a value of each fixed-width class.
_FIXED_VALUE_BYTES = {int: 1 + _I64.size, float: 1 + _F64.size,
                      bool: 2, ObjectRef: 1 + _REF.size}


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def encoded_nbytes(rows) -> int:
    """``len(encode_rows(rows))`` without building any bytes
    (property-tested): the one sizing function behind the log's disk
    charge, the database's main-store size and recovery's count of
    decoded bytes.

    The subject head is fixed-width and the UTF-8 length of a joined
    string is the sum of its parts', so the attribute names and the
    string values are each measured as one joined string; only the
    other values are looked at one by one.
    """
    attrs = rows[1::3]
    values = rows[2::3]
    strings = [value for value in values if value.__class__ is str]
    nbytes = ((_HEAD.size + 1) * len(attrs) + _utf8_len("".join(attrs))
              + (1 + _LEN.size) * len(strings) + _utf8_len("".join(strings)))
    if len(strings) == len(values):
        return nbytes
    fixed = _FIXED_VALUE_BYTES.get
    for value in values:
        cls = value.__class__
        if cls is str:
            continue
        size = fixed(cls)
        if size is None:
            # bytes, or a subclass of a value class: encode_value
            # resolves it (and rejects what it cannot encode).
            size = (1 + _LEN.size + len(value) if cls is bytes
                    else len(encode_value(value)))
        nbytes += size
    return nbytes
