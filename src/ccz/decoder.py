"""Reconstruction of the original stream from a parsed archive.

The decoder walks the flag bits once.  A 0 bit emits the next literal; a 1
bit is filled from the first entry, in serialized order past the last
match, that is live in the current circle and not yet consumed there.
When no such entry exists the current circle must be exhausted, so the
scan moves to the next circle and restarts from the beginning of the live
list.

Circle boundaries are also recomputed from the emitted bytes with the same
uniqueness rule the encoder used to split the input.  For a well-formed
archive the two mechanisms agree: every entry live in a circle is consumed
exactly once there, and circle bytes are unique, so an eligible entry can
never duplicate a byte already emitted in the circle.  Any disagreement is
reported as corruption rather than silently decoded.

For speed the per-circle search is realized as a merge: entries become
live when their start circle is reached, stay in a list ordered by
serialized index, and a cursor walks that list once per circle.  This
yields the same matches as the literal scan (the ordering invariants make
the next unconsumed live entry always the match) in time linear in output
size plus total run coverage.
"""

from .container import ArchiveFormatError, CompressedEntry, DeltaContext, parse


class CorruptArchiveError(ValueError):
    """Structurally valid archive whose streams are mutually inconsistent."""


class LiveEntry:
    """Decoder-side state of one real entry."""

    __slots__ = ("ch", "start", "count", "remaining")

    def __init__(self, ch: int, start: int, count: int):
        self.ch = ch
        self.start = start
        self.count = count
        self.remaining = count   # circles left to fill

    @property
    def last(self) -> int:
        return self.start + self.count - 1

    def __repr__(self):
        return f"LiveEntry(ch={self.ch:#04x}, start={self.start}, count={self.count})"


def undo_delta(entries: list[CompressedEntry]) -> list[LiveEntry]:
    """Resolve deltas to absolute start circles, mirroring the encoder.

    Rebase entries advance the reference base and produce nothing; real
    entries update the reference by the identical start + count rule.
    """
    ctx = DeltaContext()
    live: list[LiveEntry] = []
    for entry in entries:
        if entry.is_rebase:
            if not 1 <= entry.delta <= 255:
                raise CorruptArchiveError(f"rebase advance {entry.delta} outside 1..255")
            ctx.advance(entry.delta)
            continue
        start = ctx.base + entry.delta
        if start < 1:
            raise CorruptArchiveError(f"entry resolves to start circle {start}")
        live.append(LiveEntry(entry.ch, start, entry.count))
        ctx.observe(start, entry.count)
    return live


def decode(archive: bytes) -> bytes:
    """Decompress an archive back to the exact original bytes."""
    parts = parse(archive)
    live = undo_delta(parts.entries)

    starting: dict[int, list[tuple[int, LiveEntry]]] = {}
    for idx, entry in enumerate(live):
        starting.setdefault(entry.start, []).append((idx, entry))

    out = bytearray()
    literals = parts.literals
    lit_pos = 0
    circle = 1
    seen: set[int] = set()
    active = starting.get(1, [])
    ptr = 0

    def advance_circle() -> None:
        nonlocal circle, active, ptr, seen
        circle += 1
        merged: list[tuple[int, LiveEntry]] = []
        fresh = starting.get(circle, [])
        fi = 0
        for pair in active:
            entry = pair[1]
            if entry.remaining == 0:
                continue
            if entry.last < circle:
                raise CorruptArchiveError(
                    f"entry for byte {entry.ch:#04x} left {entry.remaining} circles unfilled"
                )
            while fi < len(fresh) and fresh[fi][0] < pair[0]:
                merged.append(fresh[fi])
                fi += 1
            merged.append(pair)
        merged.extend(fresh[fi:])
        active = merged
        ptr = 0
        seen = set()

    for flag in parts.flags:
        if not flag:
            if lit_pos == len(literals):
                raise CorruptArchiveError("literal stream exhausted before end of output")
            value = literals[lit_pos]
            lit_pos += 1
            if value in seen:
                advance_circle()
        else:
            if ptr == len(active):
                advance_circle()
                if ptr == len(active):
                    raise CorruptArchiveError(
                        f"flagged position {len(out)} has no admissible entry"
                    )
            entry = active[ptr][1]
            ptr += 1
            value = entry.ch
            if value in seen:
                raise CorruptArchiveError(
                    f"entry byte {value:#04x} duplicates circle {circle}"
                )
            entry.remaining -= 1
        out.append(value)
        seen.add(value)

    if lit_pos != len(literals):
        raise CorruptArchiveError("unused bytes at end of literal stream")
    for entry in live:
        if entry.remaining:
            raise CorruptArchiveError(
                f"entry for byte {entry.ch:#04x} left {entry.remaining} circles unfilled"
            )
    return bytes(out)
