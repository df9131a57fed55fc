import itertools
import re
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import ccz.container as container_module
from ccz import compress, decompress
from ccz.container import (
    HEADER_SIZE,
    ArchiveFormatError,
    CompressedEntry,
    EncodedParts,
    pack_flags,
    parse,
    serialize,
    unpack_flags,
)
from ccz.encoder import encode

from oracles import ref_pack_flags, ref_unpack_flags, underflow_input

ABABBA_ARCHIVE = bytes.fromhex(
    "43435a3101"              # magic "CCZ1", version 1
    "0600000000000000"        # original_len = 6
    "0300000000000000"        # literal_len = 3
    "01000000"                # entry_count = 1
    "58"                      # flags 0,1,0,1,1,0 packed MSB-first
    "414141"                  # literals "AAA"
    "014203"                  # entry: delta +1, ch 'B', count 3
)


def test_pack_flags_examples():
    assert pack_flags([0, 1, 0, 0]) == b"\x40"
    assert pack_flags([0, 1, 0, 1, 1, 0]) == b"\x58"
    assert pack_flags([0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]) == b"\x48\x10"
    assert pack_flags([]) == b""


def test_unpack_flags_examples():
    assert list(unpack_flags(b"\x40", 4)) == [0, 1, 0, 0]
    assert list(unpack_flags(b"\x58", 6)) == [0, 1, 0, 1, 1, 0]
    assert list(unpack_flags(b"\x48\x10", 12)) == [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]
    assert unpack_flags(b"", 0) == bytearray()


def test_unpack_flags_length_mismatch():
    with pytest.raises(ArchiveFormatError, match="flags"):
        unpack_flags(b"\x40\x00", 4)
    with pytest.raises(ArchiveFormatError, match="flags"):
        unpack_flags(b"", 3)


@given(st.lists(st.integers(0, 1), max_size=600))
def test_flag_packing_roundtrip(bits):
    packed = pack_flags(bits)
    assert len(packed) == (len(bits) + 7) // 8
    assert list(unpack_flags(packed, len(bits))) == bits


def _stretch(draw, lo, hi):
    """A [start, end) within [lo, hi), at, across or inside a byte edge where it fits."""
    first, last = (lo + 14) // 8, (hi - 16) // 8
    if first > last:
        start = draw(st.integers(lo, hi - 1))
        return start, draw(st.integers(start + 1, hi))
    edge = 8 * draw(st.integers(first, last))
    where = draw(st.sampled_from(["at", "across", "inside"]))
    if where == "at":
        return edge, edge + 8 * draw(st.integers(1, 2))
    if where == "across":
        return edge - draw(st.integers(1, 7)), edge + draw(st.integers(1, 8))
    start = edge + draw(st.integers(1, 6))
    return start, draw(st.integers(start + 1, edge + 7))


@st.composite
def sparse_flags(draw):
    """Up to 20,000 flags, mostly 1, with k stretches of 0s.

    k is the span budget ``n >> 10``, one past it, or anything up to that.
    Each stretch lies in its own slot with a 1 at both ends, so exactly k
    stretches form.
    """
    n = draw(st.integers(0, 20_000))
    budget = n >> 10
    k = draw(st.sampled_from([budget, budget + 1]) | st.integers(0, budget + 1))
    bits = bytearray([1]) * n
    slot = n // k if k else 0
    if slot >= 3:
        for s in range(k):
            start, end = _stretch(draw, s * slot + 1, (s + 1) * slot - 1)
            bits[start:end] = bytes(end - start)
    return bits


@settings(deadline=None)
@given(sparse_flags())
def test_sparse_flag_packing_matches_the_per_bit_reference(bits):
    n = len(bits)
    packed = pack_flags(bits)
    assert packed == ref_pack_flags(bits)
    assert unpack_flags(packed, n) == bits
    if n % 8:
        # Set padding bits are ignored: with the last flags all 1 the final
        # byte becomes 0xFF, which the span path never unpacks.
        padded = packed[:-1] + bytes([packed[-1] | (1 << -n % 8) - 1])
        assert list(unpack_flags(padded, n)) == ref_unpack_flags(padded, n) == list(bits)


def test_one_long_stretch_is_unpacked_on_its_own(monkeypatch):
    # 40,000 alternating flags then 1s: one stretch of bytes other than
    # 0xFF, covering 61% of the 8,192 packed bytes, is unpacked alone.
    bits = bytearray([0, 1]) * 20_000 + bytearray([1]) * 25_536
    packed = pack_flags(bits)
    sizes = []
    unpack = container_module._unpack
    monkeypatch.setattr(
        container_module, "_unpack", lambda data, n: sizes.append(n) or unpack(data, n)
    )
    flags = unpack_flags(packed, len(bits))
    assert flags == bits and list(flags) == ref_unpack_flags(packed, len(bits))
    assert sizes == [40_000]


@pytest.mark.parametrize("stretches, expected", [(8, 8), (9, 1)])
def test_flag_spans_end_one_past_the_budget(monkeypatch, stretches, expected):
    # 8,192 flags allow 8 stretches of 0s: each is packed and unpacked on
    # its own, and one more sends both directions through a single pass.
    bits = bytearray([1]) * 8192
    for s in range(stretches):
        bits[s * 900 + 3] = 0
    calls = []
    pack, unpack = container_module._pack, container_module._unpack
    monkeypatch.setattr(container_module, "_pack", lambda raw: calls.append("pack") or pack(raw))
    monkeypatch.setattr(
        container_module, "_unpack", lambda data, n: calls.append("unpack") or unpack(data, n)
    )
    assert unpack_flags(pack_flags(bits), len(bits)) == bits
    assert calls.count("pack") == calls.count("unpack") == expected


@pytest.mark.parametrize("n", [12, 4099])
def test_nonzero_flags_pack_as_one(n):
    # 4,099 flags take the span path, 12 the single pass.
    bits = bytes([0, 2, 255]) + bytes([7]) * (n - 3)
    assert pack_flags(bits) == ref_pack_flags(bits)


def test_serialize_layout_examples():
    abc = serialize(encode(b"ABC"))
    assert len(abc) == HEADER_SIZE + 1 + 3
    assert abc[HEADER_SIZE:] == b"\x00ABC"

    assert serialize(encode(b"")) == serialize(EncodedParts()) and len(serialize(encode(b""))) == 25

    assert serialize(encode(b"ABABBA")) == ABABBA_ARCHIVE
    assert len(ABABBA_ARCHIVE) == 25 + 1 + 3 + 3


def test_parse_inverts_serialize_examples():
    for data in (b"ABC", b"", b"ABABBA", b"THEPHONEBLAH"):
        parts = encode(data)
        archive = serialize(parts)
        back = parse(archive)
        assert back.flags == parts.flags
        assert back.literals == parts.literals
        assert back.entries == parts.entries
        assert serialize(back) == archive


def test_parse_bad_magic():
    bad = b"XXXX" + ABABBA_ARCHIVE[4:]
    with pytest.raises(ArchiveFormatError, match="magic") as err:
        parse(bad)
    assert err.value.section == "magic"


def test_parse_bad_version():
    bad = ABABBA_ARCHIVE[:4] + b"\x09" + ABABBA_ARCHIVE[5:]
    with pytest.raises(ArchiveFormatError, match="version"):
        parse(bad)


def test_parse_truncations_name_sections():
    with pytest.raises(ArchiveFormatError, match="header"):
        parse(ABABBA_ARCHIVE[:10])
    with pytest.raises(ArchiveFormatError, match="flags"):
        parse(ABABBA_ARCHIVE[:25])
    with pytest.raises(ArchiveFormatError, match="literals"):
        parse(ABABBA_ARCHIVE[:27])
    with pytest.raises(ArchiveFormatError, match="entries"):
        parse(ABABBA_ARCHIVE[:30])
    with pytest.raises(ArchiveFormatError, match="entries"):
        parse(ABABBA_ARCHIVE + b"\x00")


def test_claimed_size_is_checked_before_allocation():
    # v1 output is at most 8 * (archive size - 25) bytes: a header claiming
    # 2^60 bytes over a short body must fail before allocating anything large.
    archive = struct.pack("<4sBQQI", b"CCZ1", 1, 2**60, 0, 0) + bytes(16)
    tracemalloc.start()
    try:
        with pytest.raises(ArchiveFormatError, match="flags"):
            decompress(archive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_illegal_count():
    bad = ABABBA_ARCHIVE[:-1] + b"\x01"  # entry count 1 never occurs
    with pytest.raises(ArchiveFormatError, match="illegal count"):
        parse(bad)
    bad = ABABBA_ARCHIVE[:-1] + b"\xf0"  # count 240 > 127
    with pytest.raises(ArchiveFormatError, match="illegal count"):
        parse(bad)


def test_parse_flag_accounting_mismatch():
    # flip a flag bit without touching literal_len
    bad = bytearray(ABABBA_ARCHIVE)
    bad[25] = 0x59
    with pytest.raises(ArchiveFormatError, match="flags"):
        parse(bytes(bad))


def test_parse_rejects_nonzero_padding():
    bad = bytearray(ABABBA_ARCHIVE)
    bad[25] |= 0x01  # bit 6 and 7 are padding for a 6-bit stream
    with pytest.raises(ArchiveFormatError, match="padding"):
        parse(bytes(bad))


def test_parse_rejects_bad_rebase():
    parts = EncodedParts(bytearray(), b"", [CompressedEntry(5, 0, 0)])
    archive = bytearray(serialize(parts))
    archive[26] = 7  # rebase ch must be zero
    with pytest.raises(ArchiveFormatError, match="rebase"):
        parse(bytes(archive))
    archive = bytearray(serialize(parts))
    archive[25] = 0  # rebase advance must be nonzero
    with pytest.raises(ArchiveFormatError, match="rebase"):
        parse(bytes(archive))
    archive[26] = 7  # both faults: the character is named
    with pytest.raises(ArchiveFormatError, match="^entries: rebase entry 0 with nonzero character$"):
        parse(bytes(archive))


ENTRY_FAULTS = {
    "illegal count": (b"\x01\x41\x01", "entry {} has illegal count 1"),
    "nonzero character": (b"\x05\x07\x00", "rebase entry {} with nonzero character"),
    "zero advance": (b"\x00\x00\x00", "rebase entry {} with zero advance"),
}


@pytest.mark.parametrize("first, second", itertools.permutations(ENTRY_FAULTS, 2))
def test_parse_names_the_first_of_two_faulty_entries(first, second):
    # Entries 0, 2 and 4 are legal; the faults sit at entries 1 and 3.
    good = b"\x01\x42\x02"
    entries = good + ENTRY_FAULTS[first][0] + good + ENTRY_FAULTS[second][0] + good
    archive = struct.pack("<4sBQQI", b"CCZ1", 1, 0, 0, 5) + entries
    message = "entries: " + ENTRY_FAULTS[first][1].format(1)
    with pytest.raises(ArchiveFormatError, match=f"^{re.escape(message)}$"):
        parse(archive)


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            [CompressedEntry(1, 0, 0)] * 10_000 + [CompressedEntry(1, 7, 0)],
            "rebase entry 10000 with nonzero character",
        ),
        (
            [CompressedEntry(3, 0, 0), CompressedEntry(1, 65, 3), CompressedEntry(1, 66, 200)]
            + [CompressedEntry(5, 7, 0)] * 3,
            "entry 2 has illegal count 200",
        ),
    ],
    ids=["bad-rebase-after-10000-rebases", "illegal-count-before-bad-rebases"],
)
def test_entry_checks_walk_the_rebases_before_the_first_illegal_count(entries, message):
    # The checks find the first illegal count, then walk only the rebases
    # before it: a bad rebase after it is never the one named.
    flags = bytearray([1]) * sum(entry.count for entry in entries)
    with pytest.raises(ValueError, match=f"^{message}$"):
        serialize(EncodedParts(flags, b"", entries))
    stored = b"".join(bytes([delta & 0xFF, ch, count]) for delta, ch, count in entries)
    archive = struct.pack("<4sBQQI", b"CCZ1", 1, 0, 0, len(entries)) + stored
    with pytest.raises(ArchiveFormatError, match=f"^entries: {message}$"):
        parse(archive)


def test_parse_inverts_serialize_with_rebases():
    # Rebase advances of 128 and up and negative real deltas share the
    # stored byte range; each keeps its own reading.
    entries = [
        CompressedEntry(255, 0, 0),
        CompressedEntry(128, 0, 0),
        CompressedEntry(1, ord("Q"), 3),
        CompressedEntry(-128, ord("R"), 2),
        CompressedEntry(127, ord("S"), 127),
    ]
    parts = EncodedParts(bytearray([1] * 132), b"", entries)
    assert parse(serialize(parts)).entries == entries


def test_parse_entry_coverage_mismatch():
    # entry claims count 3 but only covers... tamper count from 3 to 4
    bad = bytearray(ABABBA_ARCHIVE)
    bad[-1] = 4
    with pytest.raises(ArchiveFormatError, match="entries"):
        parse(bytes(bad))


def test_serialize_validates_entries():
    with pytest.raises(ValueError):
        serialize(EncodedParts(bytearray([1, 1]), b"", [CompressedEntry(0, 65, 1)]))
    with pytest.raises(ValueError):
        serialize(EncodedParts(bytearray([1] * 200), b"", [CompressedEntry(200, 65, 3)]))
    with pytest.raises(ValueError):
        serialize(EncodedParts(bytearray(), b"", [CompressedEntry(0, 0, 0)]))
    with pytest.raises(ValueError, match="rebase entry 0 with nonzero character"):
        serialize(EncodedParts(bytearray(), b"", [CompressedEntry(5, 7, 0)]))
    # Parts whose flags disagree with the literals or the entry counts,
    # which parse would reject.
    with pytest.raises(ValueError):
        serialize(EncodedParts(bytearray([1, 1]), b"", []))
    with pytest.raises(ValueError):
        serialize(EncodedParts(bytearray([0, 0]), b"A", []))
    with pytest.raises(ValueError):
        serialize(EncodedParts(bytearray([1, 1, 0]), b"", [CompressedEntry(1, 65, 2)]))


@given(st.binary(max_size=1024))
def test_serialize_parse_identity_on_encodings(data):
    parts = encode(data)
    archive = serialize(parts)
    assert serialize(parse(archive)) == archive
    expected = HEADER_SIZE + (len(data) + 7) // 8 + len(parts.literals) + 3 * len(parts.entries)
    assert len(archive) == expected


@settings(deadline=None)
@given(
    st.one_of(
        st.binary(max_size=1024),
        st.lists(st.sampled_from(b"ACGT"), max_size=2048).map(bytes),
    )
)
@example(underflow_input())
def test_compress_writes_what_serialize_writes(data):
    # compress writes the encoder's entry columns without building records;
    # serialize writes the records of encode.  Both must give one archive.
    parts = encode(data)
    archive = compress(data)
    assert archive == serialize(parts)
    assert parse(archive).entries == parts.entries
