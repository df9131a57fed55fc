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
size plus total run coverage.  Three facts keep the work per circle small:

* A 256-slot stamp list, ``stamp[b] == circle``, records the bytes the
  current circle holds, so opening a circle allocates nothing.
* Every live entry is used exactly once in each circle it spans, so at
  every circle break the cursor must have passed the whole live list; the
  entry it stopped at is reported unfilled.  Live entries therefore stay
  in step: each leaves the list at its start + count, and the list is
  rebuilt only at circles where an entry starts or ends.
* Between two such circles the list is steady.  When a circle opens on a
  flagged byte with a steady list of k entries, and flags are all 1 ahead,
  each block of k flags is one circle of exactly the entries' bytes, in
  order.  These circles are copied as one repeated string, up to the next
  change or 0 flag.  The circle before used the same entries and passed
  the byte-by-byte duplicate check, so the copied bytes are distinct.
"""

from itertools import islice
from operator import attrgetter

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
    flags, literals = parts.flags, parts.literals
    live = undo_delta(parts.entries)
    del parts  # frees the parsed entries while the decode runs
    n = len(flags)
    if flags.count(0) != len(literals):
        raise CorruptArchiveError("literal stream does not match the 0 flags")

    order = {entry: idx for idx, entry in enumerate(live)}
    pending = sorted(live, key=attrgetter("start"), reverse=True)  # not live yet
    # Every live entry is used once per circle, so the live list changes only
    # where an entry starts or where one ends, at start + count.
    never = n + 2  # past circle 1 and the at most n circles of n bytes
    changes = [entry.start + entry.count for entry in live]
    changes += [entry.start for entry in live]
    changes.append(never)
    changes.sort(reverse=True)

    def live_at(circle: int, before: list[LiveEntry]) -> list[LiveEntry]:
        """The live entries of ``circle``, in serialized order."""
        entries = [entry for entry in before if entry.remaining]
        if pending and pending[-1].start == circle:
            while pending and pending[-1].start == circle:
                entries.append(pending.pop())
            entries.sort(key=order.__getitem__)
        while changes[-1] <= circle:
            changes.pop()
        return entries

    out = bytearray()
    stamp = [0] * 256  # stamp[b] == circle: b was emitted in this circle
    lit_pos = 0
    circle = 1
    entries = live_at(circle, [])
    k = len(entries)
    change_at = changes[-1]  # next circle whose live list differs
    if n and flags[0] and not k:  # the loop would leave circle 1 empty
        raise CorruptArchiveError("flagged position 0 has no admissible entry")
    ptr = 0
    it = iter(flags)

    for flag in it:
        if flag:
            if ptr < k:
                entry = entries[ptr]
                ptr += 1
                value = entry.ch
                if stamp[value] == circle:
                    raise CorruptArchiveError(
                        f"entry byte {value:#04x} duplicates circle {circle}"
                    )
                entry.remaining -= 1
                out.append(value)
                stamp[value] = circle
                continue
        else:
            value = literals[lit_pos]
            lit_pos += 1
            if stamp[value] != circle:
                out.append(value)
                stamp[value] = circle
                continue

        # Circle break: a flag with every live entry used, or a repeated literal.
        if ptr < k:
            entry = entries[ptr]
            raise CorruptArchiveError(
                f"entry for byte {entry.ch:#04x} left {entry.remaining} circles unfilled"
            )
        circle += 1
        ptr = 0
        steady = circle != change_at
        if not steady:
            entries = live_at(circle, entries)
            k = len(entries)
            change_at = changes[-1]
        if flag:
            if not k:
                raise CorruptArchiveError(f"flagged position {len(out)} has no admissible entry")
            if steady and change_at - circle > 1:
                # Copy whole circles of the steady list (see the module docstring).
                pos = len(out)
                stop = min(pos + k * (change_at - circle), n)
                end = flags.find(0, pos, stop)
                reps = ((stop if end < 0 else end) - pos) // k
                if reps > 1:
                    chars = bytes([entry.ch for entry in entries])
                    out += chars * reps
                    for entry in entries:
                        entry.remaining -= reps
                    circle += reps - 1
                    for value in chars:
                        stamp[value] = circle
                    ptr = k
                    next(islice(it, reps * k - 1, reps * k - 1), None)  # skip the copied flags
                    continue
            entry = entries[0]
            ptr = 1
            value = entry.ch
            entry.remaining -= 1
        out.append(value)
        stamp[value] = circle

    for entry in live:
        if entry.remaining:
            raise CorruptArchiveError(
                f"entry for byte {entry.ch:#04x} left {entry.remaining} circles unfilled"
            )
    return bytes(out)
