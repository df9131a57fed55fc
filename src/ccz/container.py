"""Archive container: the bit-exact on-disk layout of a compressed stream.

Layout (all integers little-endian, no alignment):

    offset  size  field
    0       4     magic "CCZ1"
    4       1     format version, currently 1
    5       8     original_len: byte length of the decompressed stream
    13      8     literal_len: byte length of the literal section
    21      4     entry_count: number of 3-byte entries, rebases included
    25      ...   flag bitmap: ceil(original_len / 8) bytes, MSB-first,
                  one bit per input byte (0 literal, 1 run-filled),
                  final byte zero-padded
    ...     ...   literals: every 0-flagged byte, in input order
    ...     ...   entries: [delta][ch][count] triples

Total size is therefore exactly
``25 + ceil(original_len / 8) + literal_len + 3 * entry_count``.

Entry kinds:

* real entry: ``count`` in 2..127, ``ch`` is the run's byte value, ``delta``
  is a signed two's-complement byte holding the run's start circle minus
  the current reference base.
* rebase entry: ``count`` = 0, ``ch`` = 0, ``delta`` read unsigned 1..255.
  Advances the reference base across a gap a signed byte cannot span and
  contributes no run.

The reference base starts at 0.  After each real entry, the entry becomes
the new reference when its start + count exceeds the largest start + count
seen so far.  Encoder and decoder apply the identical rule, so the base
never needs to be stored.  ``count`` = 1 never occurs: one-circle
repetitions are not runs.
"""

import struct
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

MAGIC = b"CCZ1"
VERSION = 1

_HEADER = struct.Struct("<4sBQQI")
HEADER_SIZE = _HEADER.size  # 25
# One entry as read: the delta byte signed, as a real entry stores it.
_ENTRY = struct.Struct("<bBB")

MAX_COUNT = 127
DELTA_MIN = -128
DELTA_MAX = 127
REBASE_MAX = 255

_TO_ASCII01 = bytes.maketrans(b"\x00\x01", b"01")
_FROM_ASCII01 = bytes.maketrans(b"01", b"\x00\x01")


class ArchiveFormatError(ValueError):
    """A malformed archive; ``section`` names the part that failed validation."""

    def __init__(self, section: str, message: str):
        self.section = section
        super().__init__(f"{section}: {message}")


class CompressedEntry(NamedTuple):
    """One serialized 3-byte entry.

    ``delta`` carries the semantic value: -128..127 for real entries,
    1..255 for rebase entries (count 0).
    """

    delta: int
    ch: int
    count: int

    @property
    def is_rebase(self) -> bool:
        return self.count == 0


@dataclass
class EncodedParts:
    """Encoder output prior to serialization.

    ``flags`` holds one 0/1 byte per input byte; ``literals`` are the
    0-flagged bytes in input order; ``entries`` are in serialized order.
    """

    flags: bytearray = field(default_factory=bytearray)
    literals: bytes = b""
    entries: list[CompressedEntry] = field(default_factory=list)


class DeltaContext:
    """Reference tracker shared by the delta pass and its decoder mirror.

    ``base`` is the current reference's start circle, ``reach`` its
    start + count.  Both start at 0; ``reach`` never decreases.
    """

    __slots__ = ("base", "reach")

    def __init__(self, base: int = 0, reach: int = 0):
        self.base = base
        self.reach = reach

    def advance(self, amount: int) -> None:
        """Apply a rebase: move the base forward without a new reference."""
        self.base += amount
        if self.reach < self.base:
            self.reach = self.base

    def observe(self, start: int, count: int) -> None:
        """Consider a just-emitted entry as the new reference."""
        if start + count > self.reach:
            self.base = start
            self.reach = start + count


def pack_flags(bits: Iterable[int]) -> bytes:
    """Pack 0/1 flags MSB-first: bit i lands in bit 7-(i%8) of byte i//8."""
    raw = bytes(bits)
    n = len(raw)
    if n == 0:
        return b""
    # Parse the flags as one big binary number; the shift zero-pads the tail.
    value = int(raw.translate(_TO_ASCII01).decode("ascii"), 2) << (-n % 8)
    return value.to_bytes((n + 7) // 8, "big")


def unpack_flags(data: bytes, n: int) -> bytearray:
    """Inverse of :func:`pack_flags` for ``n`` bits; padding bits are ignored."""
    if len(data) != (n + 7) // 8:
        raise ArchiveFormatError(
            "flags", f"expected {(n + 7) // 8} bytes for {n} bits, got {len(data)}"
        )
    if n == 0:
        return bytearray()
    value = int.from_bytes(data, "big") >> (-n % 8)
    return bytearray(format(value, "b").zfill(n).encode("ascii").translate(_FROM_ASCII01))


def serialize(parts: EncodedParts) -> bytes:
    """Write the archive: header, packed flags, literals, entry triples."""
    out = bytearray(
        _HEADER.pack(MAGIC, VERSION, len(parts.flags), len(parts.literals), len(parts.entries))
    )
    out += pack_flags(parts.flags)
    out += parts.literals
    for delta, ch, count in parts.entries:
        if count == 0:
            if not 1 <= delta <= REBASE_MAX:
                raise ValueError(f"rebase advance {delta} outside 1..{REBASE_MAX}")
            out.append(delta)
        else:
            if not 2 <= count <= MAX_COUNT:
                raise ValueError(f"entry count {count} outside 2..{MAX_COUNT}")
            if not DELTA_MIN <= delta <= DELTA_MAX:
                raise ValueError(f"entry delta {delta} outside {DELTA_MIN}..{DELTA_MAX}")
            out.append(delta & 0xFF)
        out.append(ch)
        out.append(count)
    return bytes(out)


def parse(data: bytes) -> EncodedParts:
    """Validate an archive and recover its parts.

    ``serialize(parse(a)) == a`` for every archive this module produces.
    Every failure raises :class:`ArchiveFormatError` naming the offending
    section.

    The cost grows with the number of entries, not with the flag bitmap:
    unpacking the flags of 256 KiB takes about 0.5 ms, and each entry about
    0.4 us, at the reference speed of ``benchmarks/speed.py``.  So
    entry-dense inputs parse slowest: 36k entries on 256 KiB of a 4-letter
    alphabet take about 14 ms.
    """
    if len(data) < HEADER_SIZE:
        raise ArchiveFormatError("header", f"truncated: {len(data)} bytes, need {HEADER_SIZE}")
    magic, version, original_len, literal_len, entry_count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ArchiveFormatError("magic", f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ArchiveFormatError("version", f"unsupported version {version}")
    if literal_len > original_len:
        raise ArchiveFormatError(
            "header", f"literal_len {literal_len} exceeds original_len {original_len}"
        )

    flag_bytes = (original_len + 7) // 8
    pos = HEADER_SIZE
    if len(data) < pos + flag_bytes:
        raise ArchiveFormatError("flags", "truncated flag bitmap")
    packed = data[pos:pos + flag_bytes]
    pos += flag_bytes
    if len(data) < pos + literal_len:
        raise ArchiveFormatError("literals", "truncated literal section")
    literals = data[pos:pos + literal_len]
    pos += literal_len
    if len(data) < pos + 3 * entry_count:
        raise ArchiveFormatError("entries", "truncated entry section")
    if len(data) > pos + 3 * entry_count:
        raise ArchiveFormatError("entries", "trailing bytes after entry section")

    packed_value = int.from_bytes(packed, "big") if packed else 0
    pad = -original_len % 8
    if pad and packed_value & ((1 << pad) - 1):
        raise ArchiveFormatError("flags", "padding bits must be zero")
    popcount = packed_value.bit_count()
    if popcount + literal_len != original_len:
        raise ArchiveFormatError(
            "flags",
            f"{popcount} flagged + {literal_len} literal bytes != original_len {original_len}",
        )

    entries: list[CompressedEntry] = []
    make = CompressedEntry._make
    for fields in _ENTRY.iter_unpack(data[pos:]):
        if 1 < fields[2] <= MAX_COUNT:
            entries.append(make(fields))
            continue
        delta, ch, count = fields
        i = len(entries)
        if count:
            raise ArchiveFormatError("entries", f"entry {i} has illegal count {count}")
        if ch != 0:
            raise ArchiveFormatError("entries", f"rebase entry {i} with nonzero character")
        if delta == 0:
            raise ArchiveFormatError("entries", f"rebase entry {i} with zero advance")
        entries.append(CompressedEntry(delta & 0xFF, 0, 0))
    covered = sum(data[pos + 2::3])  # every count is now legal; rebases add 0
    if covered != popcount:
        raise ArchiveFormatError(
            "entries", f"entry counts cover {covered} bytes but {popcount} are flagged"
        )

    return EncodedParts(unpack_flags(packed, original_len), literals, entries)
