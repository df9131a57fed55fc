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

Both walks of this rule live here.  :func:`_delta_encode` writes run
starts as deltas from the base.  Before a start more than 127 circles
ahead it writes rebases that advance the base to start - 1; a start more
than 128 circles behind cannot be written, so it returns those runs.
:func:`_resolve` reads entries back into starts.  After a rebase both
lift the largest start + count to at least the new base.
"""

import struct
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

MAGIC = b"CCZ1"
VERSION = 1

_HEADER = struct.Struct("<4sBQQI")
HEADER_SIZE = _HEADER.size  # 25

MAX_COUNT = 127
# Both coders copy repeated circles in one step only where the stretch
# pays for the set-up: the encoder from 2 + _STEADY_BYTES // size repeats
# on, the decoder when a steady stretch holds more than _STEADY_BYTES bytes.
_STEADY_BYTES = 16
DELTA_MIN = -128
DELTA_MAX = 127
REBASE_MAX = 255

_TO_ASCII01 = b"0" + b"1" * 255
_FROM_ASCII01 = bytes.maketrans(b"01", b"\x00\x01")
_IS_FULL = bytes(255) + b"\x01"  # 1 for a packed byte of eight 1 flags


class ArchiveFormatError(ValueError):
    """A malformed archive; ``section`` names the part that failed validation."""

    def __init__(self, section: str, message: str):
        self.section = section
        super().__init__(f"{section}: {message}")


class CorruptArchiveError(ValueError):
    """Structurally valid archive whose streams are mutually inconsistent."""


class RunNode(NamedTuple):
    """One run as a standalone record, for the staged API and traces.

    ``occurrences`` holds the absolute input offset of the byte in every
    covered circle, innermost first, so ``len(occurrences) == count``, or
    is empty where the offsets are unknown, as after
    :func:`ccz.decoder.undo_delta`.  :meth:`ccz.encoder.EncoderState.view`
    builds these records on request; the encoder keeps runs as columns.
    """

    ch: int
    start: int
    count: int
    occurrences: tuple[int, ...] = ()


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


def _spans(buf: bytes, most: int) -> list[tuple[int, int]] | None:
    """The ``[i, j)`` stretches of 0 bytes in ``buf``, or None past ``most`` of them.

    A stretch runs from a 0 byte to the next 1 byte, so in a buffer of 0/1
    bytes the stretches are exactly the maximal runs of 0s.  Each costs two
    ``find`` calls, which is why callers set ``most`` from the input length
    and fall back to a whole-buffer pass past it.
    """
    spans: list[tuple[int, int]] = []
    i = buf.find(0)
    while i >= 0:
        if len(spans) == most:
            return None
        j = buf.find(1, i)
        if j < 0:
            j = len(buf)
        spans.append((i, j))
        i = buf.find(0, j)
    return spans


def _pack(raw: bytes) -> bytes:
    """Pack the flags of ``raw`` as one big binary number; the shift zero-pads the tail."""
    value = int(raw.translate(_TO_ASCII01), 2) << (-len(raw) % 8)
    return value.to_bytes((len(raw) + 7) // 8, "big")


def _unpack(data: bytes, n: int) -> bytes:
    """The first ``n`` bits of ``data``, one 0/1 byte each."""
    value = int.from_bytes(data, "big") >> (-n % 8)
    return format(value, "b").zfill(n).encode("ascii").translate(_FROM_ASCII01)


def pack_flags(bits: Iterable[int]) -> bytes:
    """Pack 0/1 flags MSB-first: bit i lands in bit 7-(i%8) of byte i//8.

    Any nonzero flag packs as 1.  When the 0 flags form at most ``n >> 10``
    stretches (n flags), as on positional inputs, the output starts as
    ``0xFF`` bytes and only the packed bytes that a stretch touches are
    packed from their flags; otherwise all flags are packed at once.
    """
    raw = bytes(bits)
    n = len(raw)
    if n == 0:
        return b""
    spans = _spans(raw, n >> 10)
    if spans is None:
        return _pack(raw)
    out = bytearray(b"\xff") * ((n + 7) // 8)
    out[-1] &= 0xFF << (-n % 8)  # zero padding bits
    for i, j in spans:
        lo, hi = i >> 3, (j + 7) >> 3
        out[lo:hi] = _pack(raw[lo << 3:hi << 3])
    return bytes(out)


def unpack_flags(data: bytes, n: int) -> bytearray:
    """Inverse of :func:`pack_flags` for ``n`` bits; padding bits are ignored.

    When the packed bytes other than ``0xFF`` form at most ``n >> 10``
    stretches, as on positional inputs, the flags start as 1 and only those
    stretches are unpacked; otherwise all bytes are unpacked at once.
    """
    if len(data) != (n + 7) // 8:
        raise ArchiveFormatError(
            "flags", f"expected {(n + 7) // 8} bytes for {n} bits, got {len(data)}"
        )
    spans = _spans(data.translate(_IS_FULL), n >> 10)
    if spans is None:
        return bytearray(_unpack(data, n))
    flags = bytearray(b"\x01") * n
    for lo, hi in spans:
        flags[lo << 3:hi << 3] = _unpack(data[lo:hi], min(hi << 3, n) - (lo << 3))
    return flags


# Tables for the entry checks: each maps a byte to 1 where it is at fault.
_ILLEGAL_COUNT = bytes(count == 1 or count > MAX_COUNT for count in range(256))
_IS_ZERO = bytes([1]) + bytes(255)
_IS_NONZERO = bytes([0]) + bytes([1]) * 255


def _entry_fault(deltas: bytes, chs: bytes, counts: bytes) -> str | None:
    """Describe the first faulty entry of the three entry columns, or None.

    The columns hold one byte per entry, as stored.  A count is 0 (a
    rebase) or 2..127, and a rebase has ``ch`` 0 and a nonzero advance.
    Each check maps a column to one 0/1 byte per entry and reads it as a
    big-endian int, so the highest set bit of the faults is the first
    faulty entry.
    """
    faults = int.from_bytes(counts.translate(_ILLEGAL_COUNT), "big")
    if 0 in counts:
        rebases = int.from_bytes(counts.translate(_IS_ZERO), "big")
        nonzero_ch = int.from_bytes(chs.translate(_IS_NONZERO), "big")
        zero_advance = int.from_bytes(deltas.translate(_IS_ZERO), "big")
        faults |= rebases & (nonzero_ch | zero_advance)
    if not faults:
        return None
    i = len(counts) - 1 - (faults.bit_length() - 1) // 8
    if counts[i]:
        return f"entry {i} has illegal count {counts[i]}"
    if chs[i]:
        return f"rebase entry {i} with nonzero character"
    return f"rebase entry {i} with zero advance"


def _write_archive(
    flags: bytearray, literals: bytes, deltas: bytes, chs: bytes, counts: bytes
) -> bytes:
    """Write the archive of flags, literals and the three entry columns.

    The columns hold each entry's bytes as stored (``deltas`` in two's
    complement), so each fills one lane of the entry section's 3-byte
    stride.  Raises ``ValueError`` for an entry :func:`parse` would reject.
    """
    fault = _entry_fault(deltas, chs, counts)
    if fault:
        raise ValueError(fault)
    out = bytearray(_HEADER.pack(MAGIC, VERSION, len(flags), len(literals), len(counts)))
    out += pack_flags(flags)
    out += literals
    pos = len(out)
    out += bytes(3 * len(counts))
    out[pos::3] = deltas
    out[pos + 1::3] = chs
    out[pos + 2::3] = counts
    return bytes(out)


def serialize(parts: EncodedParts) -> bytes:
    """Write the archive: header, packed flags, literals, entry triples.

    Raises ``ValueError`` for parts that :func:`parse` would reject.
    """
    deltas = bytearray()
    for delta, _, count in parts.entries:
        if count == 0:
            if not 1 <= delta <= REBASE_MAX:
                raise ValueError(f"rebase advance {delta} outside 1..{REBASE_MAX}")
        elif not DELTA_MIN <= delta <= DELTA_MAX:
            raise ValueError(f"entry delta {delta} outside {DELTA_MIN}..{DELTA_MAX}")
        deltas.append(delta & 0xFF)
    chs = bytes(entry.ch for entry in parts.entries)
    counts = bytes(entry.count for entry in parts.entries)
    zeros = parts.flags.count(0)
    if len(parts.literals) != zeros or sum(counts) != len(parts.flags) - zeros:
        raise ValueError("flags do not match the literals and entry counts")
    return _write_archive(parts.flags, parts.literals, deltas, chs, counts)


def _read_archive(data: bytes) -> tuple[bytearray, bytes, bytes, bytes, bytes]:
    """Validate an archive; return its flags, literals and entry columns.

    The columns are the entry section's three lanes (``deltas``, ``chs``,
    ``counts``), one byte per entry as stored.  Every failure raises
    :class:`ArchiveFormatError` naming the offending section.
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

    packed_value = int.from_bytes(packed, "big")
    pad = -original_len % 8
    if pad and packed_value & ((1 << pad) - 1):
        raise ArchiveFormatError("flags", "padding bits must be zero")
    popcount = packed_value.bit_count()
    if popcount + literal_len != original_len:
        raise ArchiveFormatError(
            "flags",
            f"{popcount} flagged + {literal_len} literal bytes != original_len {original_len}",
        )

    deltas, chs, counts = data[pos::3], data[pos + 1::3], data[pos + 2::3]
    fault = _entry_fault(deltas, chs, counts)
    if fault:
        raise ArchiveFormatError("entries", fault)
    covered = sum(counts)  # every count is now legal; rebases add 0
    if covered != popcount:
        raise ArchiveFormatError(
            "entries", f"entry counts cover {covered} bytes but {popcount} are flagged"
        )
    return unpack_flags(packed, original_len), literals, deltas, chs, counts


def _entry_deltas(deltas: bytes, counts: bytes) -> list[int]:
    """The stored delta bytes as :class:`CompressedEntry` holds them.

    A real entry's delta is signed; a rebase's advance (count 0) is not.
    """
    out = memoryview(deltas).cast("b").tolist()
    i = counts.find(0)
    while i >= 0:
        out[i] = deltas[i]
        i = counts.find(0, i + 1)
    return out


def _entry_records(deltas: bytes, chs: bytes, counts: bytes) -> list[CompressedEntry]:
    """One :class:`CompressedEntry` per entry of the three entry columns."""
    return list(map(CompressedEntry, _entry_deltas(deltas, counts), chs, counts))


def _delta_encode(
    order: Iterable[int], ch: list[int], start: list[int], count: list[int]
) -> tuple[tuple[bytearray, bytearray, bytearray], list[int]]:
    """Entry columns for the serializable runs of ``order``, plus the ids left ``behind``.

    The columns (``deltas``, ``chs``, ``counts``) hold each entry's bytes
    as the archive stores them, deltas in two's complement.  ``base`` is
    the reference's start circle and ``reach`` its start + count.

    A run left behind never updates the reference (its reach is below the
    base), so skipping it leaves every other delta unchanged.  It takes
    nested insertions under the count cap, yet is not rare, and defects
    that only swap in other bytes of a periodic input's unit suffice: two
    such bytes in 64 KiB of a 13-byte unit leave 26 capped runs behind.  At
    seeds 1, 7 and 16101, 5 to 7 of the benchmark's 1,000 short mixed
    inputs have one, all periodic but one text input at seed 7, and so does
    one 256 KiB periodic input, at seed 16101.
    """
    base = reach = 0
    deltas, chs, counts = bytearray(), bytearray(), bytearray()
    behind: list[int] = []
    for r in order:
        first_circle = start[r]
        delta = first_circle - base
        if delta > DELTA_MAX:
            while base < first_circle - 1:
                hop = min(REBASE_MAX, first_circle - 1 - base)
                deltas.append(hop)
                chs.append(0)
                counts.append(0)
                base += hop
            reach = max(reach, base)
            delta = 1
        elif delta < DELTA_MIN:
            behind.append(r)
            continue
        deltas.append(delta & 0xFF)
        chs.append(ch[r])
        n = count[r]
        counts.append(n)
        if first_circle + n > reach:
            base, reach = first_circle, first_circle + n
    return (deltas, chs, counts), behind


def _resolve(entries: Iterable[tuple[int, int, int]]) -> tuple[list[int], list[int], list[int]]:
    """The ``ch``, ``start`` and ``end`` (start + count) columns of the real entries.

    ``entries`` yields (delta, ch, count) as :class:`CompressedEntry` holds
    them; the walk inverts :func:`_delta_encode` (see the module docstring).
    """
    base = reach = 0  # the reference's start circle and start + count
    ch: list[int] = []
    start: list[int] = []
    end: list[int] = []
    for delta, c, count in entries:
        if not count:
            if not 1 <= delta <= REBASE_MAX:
                raise CorruptArchiveError(f"rebase advance {delta} outside 1..{REBASE_MAX}")
            base += delta
            reach = max(reach, base)
            continue
        first = base + delta
        if first < 1:
            raise CorruptArchiveError(f"entry resolves to start circle {first}")
        ch.append(c)
        start.append(first)
        last = first + count
        end.append(last)
        if last > reach:
            base, reach = first, last
    return ch, start, end


def parse(data: bytes) -> EncodedParts:
    """Validate an archive and recover its parts.

    ``serialize(parse(a)) == a`` for every archive this module produces.
    Every failure raises :class:`ArchiveFormatError` naming the offending
    section.
    """
    flags, literals, *columns = _read_archive(data)
    return EncodedParts(flags, literals, _entry_records(*columns))
