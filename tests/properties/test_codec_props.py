"""Property-based tests for the record codec."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.errors import InvalidRecord
from repro.core.pnode import ObjectRef
from repro.core.records import ProvenanceRecord, make_record
from repro.storage import codec

refs = st.builds(ObjectRef,
                 st.integers(0, (1 << 63) - 1),
                 st.integers(0, (1 << 31) - 1))

values = st.one_of(
    st.integers(-(1 << 62), (1 << 62) - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=200),
    st.binary(max_size=200),
    st.booleans(),
    refs,
)

attrs = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=40,
)

records = st.builds(ProvenanceRecord, refs, attrs, values)


@given(records)
@settings(max_examples=500)
def test_roundtrip_identity(record):
    decoded, offset = codec.decode_record(codec.encode_record(record))
    assert decoded == record
    assert type(decoded.value) is type(record.value)
    assert offset == codec.encoded_size(record)


@given(st.lists(records, max_size=30))
@settings(max_examples=200)
def test_stream_roundtrip(batch):
    buf = b"".join(codec.encode_record(record) for record in batch)
    assert list(codec.decode_stream(buf)) == batch


@given(st.lists(records, min_size=1, max_size=10),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=200)
def test_truncation_never_raises_and_is_prefix(batch, cut):
    """A torn log tail decodes to a strict prefix, never garbage."""
    buf = b"".join(codec.encode_record(record) for record in batch)
    cut = min(cut, len(buf))
    decoded = list(codec.decode_stream(buf[:-cut] if cut else buf))
    assert decoded == batch[:len(decoded)]
    assert len(decoded) < len(batch) or cut == 0


@given(st.lists(records, min_size=1, max_size=10), st.binary(max_size=20))
@settings(max_examples=200)
def test_garbage_tail_still_yields_prefix(batch, garbage):
    buf = b"".join(codec.encode_record(record) for record in batch)
    decoded = list(codec.decode_stream(buf + garbage))
    # Either the garbage parses as extra records (unlikely but legal)
    # or decoding stops; the original prefix is always intact.
    assert decoded[:len(batch)] == batch


# -- exhaustive damage sweep -------------------------------------------------------

#: One record per value tag (TAG_INT .. TAG_REF), plus a non-ASCII
#: attribute and string so the multi-byte UTF-8 paths are in the sweep.
ALL_TAG_RECORDS = [
    ProvenanceRecord(ObjectRef(1, 0), "int", -(1 << 62)),
    ProvenanceRecord(ObjectRef(2, 1), "float", 2.5),
    ProvenanceRecord(ObjectRef(3, 2), "str", "héllo"),
    ProvenanceRecord(ObjectRef(4, 3), "bytes", b"\x00\xff\x80"),
    ProvenanceRecord(ObjectRef(5, 4), "bool", True),
    ProvenanceRecord(ObjectRef(6, 5), "réf", ObjectRef(7, 9)),
]


def test_all_tags_roundtrip():
    """Every TAG_* type round-trips with value type preserved."""
    tags = set()
    for record in ALL_TAG_RECORDS:
        raw = codec.encode_record(record)
        tags.add(raw[codec.encoded_size(record) - len(
            codec.encode_value(record.value))])
        decoded, offset = codec.decode_record(raw)
        assert decoded == record
        assert type(decoded.value) is type(record.value)
        assert offset == len(raw) == codec.encoded_size(record)
    assert tags == {codec.TAG_INT, codec.TAG_FLOAT, codec.TAG_STR,
                    codec.TAG_BYTES, codec.TAG_BOOL, codec.TAG_REF}


def test_truncation_at_every_byte_offset():
    """Cutting the stream at *any* offset yields a clean record prefix:
    recovery stops at the damage, it never raises."""
    buf = b"".join(codec.encode_record(r) for r in ALL_TAG_RECORDS)
    ends = []
    offset = 0
    for record in ALL_TAG_RECORDS:
        offset += codec.encoded_size(record)
        ends.append(offset)
    for cut in range(len(buf) + 1):
        decoded = list(codec.decode_stream(buf[:cut]))
        whole = sum(1 for end in ends if end <= cut)
        # Every record fully inside the cut survives; nothing invented.
        assert decoded[:whole] == ALL_TAG_RECORDS[:whole]
        assert len(decoded) <= len(ALL_TAG_RECORDS)


def test_corruption_at_every_byte_offset():
    """Flipping any single byte never raises out of decode_stream, and
    records before the first damaged one always survive intact."""
    buf = b"".join(codec.encode_record(r) for r in ALL_TAG_RECORDS)
    for position in range(len(buf)):
        for flip in (0xFF, 0x01, 0x80):
            damaged = bytearray(buf)
            damaged[position] ^= flip
            if damaged[position] == buf[position]:
                continue
            decoded = list(codec.decode_stream(bytes(damaged)))
            intact = 0
            offset = 0
            for record in ALL_TAG_RECORDS:
                offset += codec.encoded_size(record)
                if offset > position:
                    break
                intact += 1
            assert decoded[:intact] == ALL_TAG_RECORDS[:intact]


# -- memoizing encoder equivalence --------------------------------------------------

def _with_shared_instances(batch):
    """Rewrite a batch so equal subjects/attrs share one instance --
    the run-memo shape real pipeline batches have."""
    subjects: dict = {}
    attrs: dict = {}
    return [
        ProvenanceRecord(subjects.setdefault(r.subject, r.subject),
                         attrs.setdefault(r.attr, r.attr), r.value)
        for r in batch
    ]


@given(st.lists(records, max_size=40))
@settings(max_examples=200)
def test_record_encoder_matches_encode_record(batch):
    """RecordEncoder is byte-identical to encode_record one record at a
    time across arbitrary interleavings (memo hits, misses, and runs)."""
    encoder = codec.RecordEncoder()
    batch = _with_shared_instances(batch)
    for record in batch + batch:      # replay: all-hit second pass
        assert encoder.encode_rows(_rows([record])) == [
            codec.encode_record(record)]


def _rows(batch):
    return [slot for r in batch for slot in (r.subject, r.attr, r.value)]


@given(st.lists(records, max_size=40))
@settings(max_examples=200)
def test_encode_list_and_batch_match_per_record_path(batch):
    """``encode_rows`` (what ``encode_list``/``encode_batch`` became):
    one chunk per row, each byte-identical to ``encode_record``."""
    batch = _with_shared_instances(batch)
    expected = [codec.encode_record(record) for record in batch]
    encoder = codec.RecordEncoder()
    assert encoder.encode_rows(_rows(batch)) == expected
    # The run memo carries across calls; a replay must stay identical.
    assert encoder.encode_rows(_rows(batch)) == expected
    assert encoder.encode_rows(iter(_rows(batch))) == expected


@given(st.lists(st.tuples(records, st.booleans()), max_size=40),
       st.booleans())
@settings(max_examples=300)
def test_encode_rows_and_encode_interleave_on_one_encoder(stream, share):
    """Every log byte goes through one encoder whose run memo spans
    calls: chunks of ``encode_rows`` and single ``encode`` calls, over
    subjects that share an instance with their neighbours or are equal
    copies of them, stay byte-identical to ``encode_record``."""
    batch = [record for record, _ in stream]
    if share:
        batch = _with_shared_instances(batch)
    encoder = codec.RecordEncoder()
    chunk: list = []
    for record, (_, single) in zip(batch, stream):
        if single:
            assert encoder.encode_rows(_rows(chunk)) == [
                codec.encode_record(r) for r in chunk]
            chunk = []
            assert encoder.encode_rows(_rows([record])) == [
                codec.encode_record(record)]
        else:
            chunk.append(record)
    assert encoder.encode_rows(_rows(chunk)) == [
        codec.encode_record(r) for r in chunk]


def test_encode_rows_covers_every_tag_and_both_run_shapes():
    """All six tags and the non-ASCII attribute/value, as a run about
    one subject *instance*, then about equal but distinct instances."""
    subject = ObjectRef(11, 3)
    for subjects in ([subject] * len(ALL_TAG_RECORDS),
                     [ObjectRef(11, 3) for _ in ALL_TAG_RECORDS]):
        run = [ProvenanceRecord(ref, record.attr, record.value)
               for ref, record in zip(subjects, ALL_TAG_RECORDS)]
        encoder = codec.RecordEncoder()
        assert encoder.encode_rows(_rows(ALL_TAG_RECORDS + run)) == [
            codec.encode_record(r) for r in ALL_TAG_RECORDS + run]


def test_encoder_caches_clear_past_their_cap():
    """More distinct subjects, attributes and cross-references than the
    memo holds: the caches clear and the bytes stay right."""
    count = codec.RecordEncoder._CAP + 50
    batch = [ProvenanceRecord(ObjectRef(index, 0), f"a{index}",
                              ObjectRef(index, 1))
             for index in range(count)]
    encoder = codec.RecordEncoder()
    expected = [codec.encode_record(record) for record in batch]
    assert encoder.encode_rows(_rows(batch)) == expected
    assert len(encoder._heads) == len(encoder._refs) == 50
    assert encoder.encode_rows(_rows(batch[:60])) == expected[:60]


def test_encoder_rejects_overlong_attribute():
    """An attribute name past 255 UTF-8 bytes (here 128 two-byte
    characters) cannot be framed; neither entry point may write it.
    Validation rejects one first, so only the trusted mint makes it."""
    with pytest.raises(InvalidRecord):
        ProvenanceRecord(ObjectRef(1, 0), "é" * 128, "v")
    record = make_record(ObjectRef(1, 0), "é" * 128, "v")
    encoder = codec.RecordEncoder()
    for encode in (codec.encode_record,
                   lambda r: encoder.encode_rows(_rows([r]))):
        with pytest.raises(ValueError, match="too long"):
            encode(record)
    ok = ProvenanceRecord(ObjectRef(1, 0), "é" * 127, "v")
    assert encoder.encode_rows(_rows([ok])) == [codec.encode_record(ok)]


@given(records)
@settings(max_examples=500)
def test_encoded_size_equals_encoded_length(record):
    assert codec.encoded_size(record) == len(codec.encode_record(record))
