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
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional

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
_TAG_STR = bytes([TAG_STR])           # pre-built tag for the str fast path
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
    attr_raw = record.attr.encode("utf-8")
    if len(attr_raw) > 255:
        raise ValueError(f"attribute name too long: {record.attr!r}")
    return b"".join((
        _HEAD.pack(record.subject.pnode, record.subject.version),
        bytes([len(attr_raw)]),
        attr_raw,
        encode_value(record.value),
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
    """Encoded length of a record: ``len(encode_record(record))``
    (property-tested), computed arithmetically."""
    return encoded_size_of(record.attr, record.value)


def encoded_size_of(attr: str, value: Value) -> int:
    """Encoded length of a record with this attribute and value (the
    subject head is fixed-width), without building any bytes -- this
    runs once per stored row when the database folds its deferred size
    accounting, so it must stay allocation-free.
    """
    # Exact-class tests first (the overwhelmingly common case); the
    # isinstance chain below only catches subclasses.  bool must stay
    # ahead of int in both chains (bool is an int subclass).
    cls = value.__class__
    if cls is str:
        vsize = 5 + (len(value) if value.isascii()
                     else len(value.encode("utf-8")))
    elif cls is ObjectRef:
        vsize = 1 + _REF.size
    elif cls is bool:
        vsize = 2
    elif cls is int or cls is float:
        vsize = 9
    elif cls is bytes:
        vsize = 5 + len(value)
    elif isinstance(value, bool):
        vsize = 2
    elif isinstance(value, ObjectRef):
        vsize = 1 + _REF.size
    elif isinstance(value, (int, float)):
        vsize = 9
    elif isinstance(value, str):
        vsize = 5 + (len(value) if value.isascii()
                     else len(value.encode("utf-8")))
    elif isinstance(value, bytes):
        vsize = 5 + len(value)
    else:
        raise TypeError(f"unencodable value type: {type(value).__name__}")
    attr_len = len(attr) if attr.isascii() else len(attr.encode("utf-8"))
    return _HEAD.size + 1 + attr_len + vsize


class RecordEncoder:
    """Memoizing encoder for the group-commit flush path.

    A flush encodes many records that share a small working set of
    subjects, attribute names, and cross-reference targets (block I/O
    produces runs of records about the same few objects).  The encoder
    interns the three reusable fragments of the wire format -- subject
    head, length-prefixed attribute name, and tagged ObjectRef value --
    so a batch encode is mostly dictionary hits.

    Output is byte-identical to :func:`encode_record` (property-tested:
    ``tests/properties/test_codec_props.py``).
    Caches are capped; on overflow they are cleared (the working set has
    moved on, so LRU bookkeeping would cost more than it saves).
    """

    _CAP = 8192

    __slots__ = ("_heads", "_attrs", "_refs",
                 "_run_subject", "_run_attr", "_run_head_prefix")

    def __init__(self) -> None:
        self._heads: dict[ObjectRef, bytes] = {}
        self._attrs: dict[str, bytes] = {}
        self._refs: dict[ObjectRef, bytes] = {}
        # Run memo: batches arrive as runs of records sharing the same
        # subject ref *instance* and (interned) attribute string, so the
        # concatenated head+prefix from the previous record is reusable
        # after two identity tests -- no hashing, no concat.
        self._run_subject: Optional[ObjectRef] = None
        self._run_attr: Optional[str] = None
        self._run_head_prefix = b""

    def encode_rows(self, rows) -> list[bytes]:
        """Encode flat (subject, attr, value) rows into one chunk per
        record (the group-commit buffer).

        Byte-for-byte ``encode_record`` of each row, with the run memo,
        caches, and value fast paths held in locals so the per-record
        cost is the loop body alone -- no method dispatch.
        """
        heads = self._heads
        attrs = self._attrs
        refs = self._refs
        cap = self._CAP
        run_subject = self._run_subject
        run_attr = self._run_attr
        head_prefix = self._run_head_prefix
        pack_len = _LEN.pack
        out: list[bytes] = []
        append = out.append
        row = iter(rows)
        for subject, attr, value in zip(row, row, row):
            if subject is not run_subject or attr is not run_attr:
                head = heads.get(subject)
                if head is None:
                    if len(heads) >= cap:
                        heads.clear()
                    head = _HEAD.pack(subject.pnode, subject.version)
                    heads[subject] = head
                prefix = attrs.get(attr)
                if prefix is None:
                    raw = attr.encode("utf-8")
                    if len(raw) > 255:
                        raise ValueError(
                            f"attribute name too long: {attr!r}")
                    if len(attrs) >= cap:
                        attrs.clear()
                    prefix = bytes([len(raw)]) + raw
                    attrs[attr] = prefix
                head_prefix = head + prefix
                run_subject = subject
                run_attr = attr
            if value.__class__ is str:
                # Unique strings (annotations, names) defeat memoization,
                # so the common tail is encoded inline instead of paying
                # the encode_value isinstance chain per record.
                raw = value.encode("utf-8")
                append(head_prefix + _TAG_STR + pack_len(len(raw)) + raw)
            elif isinstance(value, ObjectRef):
                tail = refs.get(value)
                if tail is None:
                    if len(refs) >= cap:
                        refs.clear()
                    tail = bytes([TAG_REF]) + _REF.pack(value.pnode,
                                                        value.version)
                    refs[value] = tail
                append(head_prefix + tail)
            else:
                append(head_prefix + encode_value(value))
        self._run_subject = run_subject
        self._run_attr = run_attr
        self._run_head_prefix = head_prefix
        return out
