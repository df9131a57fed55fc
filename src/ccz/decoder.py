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
size plus total run coverage.  Entries arrive as the three byte columns
of the archive's entry section (delta, byte, count), sliced straight from
it; one walk over them, :func:`ccz.container._resolve`, resolves the
deltas into ``ch``, ``start`` and ``end`` (start + count) columns of the
real entries, in serialized order, and no record is built per entry.  An
entry is its index into these columns, so the live list, the entries not
yet live and the circles where the list changes are all lists of ints.
:func:`undo_delta` runs the same walk over a list of records.  Four facts
keep the work per circle small:

* A 256-slot stamp list, ``stamp[b] == circle``, records the bytes the
  current circle holds, so opening a circle allocates nothing.  Decoding
  starts in an empty circle 0 whose stamps mark every byte, so the first
  byte breaks it and circle 1 opens, with its live list built, as every
  later circle does; a flagged first byte with no entry starting at
  circle 1 fails there like any flag with no live entry.
* Every live entry is used exactly once in each circle it spans, so at
  every circle break the cursor must have passed the whole live list; the
  entry it stopped at is reported unfilled.  Live entries therefore stay
  in step, and no countdown is kept: at the start of circle c an entry
  has exactly end - c circles left.  Each leaves the list at its end, and
  the list is rebuilt only at circles where an entry starts or ends.
* Between two such circles the list is steady.  When a circle opens on a
  flagged byte with a steady list of k entries, and flags are all 1 ahead,
  each block of k flags is one circle of exactly the entries' bytes, in
  order.  These circles are copied as one repeated string, up to the next
  change or 0 flag.  The circle before used the same entries and passed
  the byte-by-byte duplicate check, so the copied bytes are distinct.
  The copy is tried only when the steady stretch up to the next change
  holds more than ``_STEADY_BYTES`` bytes, the constant that also gates
  the encoder's copy: finding the next 0 flag, building the repeated
  string, restamping and moving the flag iterator cost more than the byte
  loop spends on a few short circles, the common case on small alphabets.
* Whole windows roll over in one step.  The encoder ends the runs of a
  repeated unit at the count cap together, and the runs of the next cap
  cycle follow them in serialized order with the same bytes.  So at a
  change circle that directly follows a bulk copy, where every live entry
  ends, window 1 (the next k entries in id order), window 2 (the k after
  them) and so on may each be the live list up to their end.  Window w
  qualifies when its entries hold the live list's bytes in the same order,
  each starts where the entry k ids before it ends, all end at one circle,
  and no other pending entry starts before that end.  Every circle up to
  the last qualifying window's end then has the live bytes of the circle
  just copied, so it is one steady stretch: the live list moves to the
  last window, the windows' entries leave ``pending`` as a block, and the
  steady copy runs up to the first 0 flag, past which the byte loop goes
  on with the same bytes.  No byte of a rolled window needs the duplicate
  check: they are the bytes of the circle just copied, which are distinct
  by the fact above.
"""

from bisect import bisect_left
from typing import Iterator

from .container import (
    _STEADY_BYTES,
    CompressedEntry,
    CorruptArchiveError,
    RunNode,
    _entry_deltas,
    _read_archive,
    _resolve,
)


def undo_delta(entries: list[CompressedEntry]) -> list[RunNode]:
    """Resolve deltas to absolute start circles, mirroring the encoder.

    Rebase entries advance the reference base and produce nothing; each
    real entry gives one :class:`RunNode` without occurrences.
    """
    ch, start, end = _resolve(entries)
    return [RunNode(c, first, last - first) for c, first, last in zip(ch, start, end)]


def _windows(
    ch: list[int], start: list[int], end: list[int], ids: list[int], circle: int,
    pending: list[int],
) -> int:
    """How many whole windows of the live entries' bytes follow from ``circle`` on.

    ``ids`` are the live entries of the circle before ``circle``; they must
    all end at ``circle``.  Window 0 is ``ids``; window w holds the k entries
    after window w-1 in id order, with the same bytes, each starting where
    the entry k ids before it ends, and all ending at one circle.  A window
    counts only when no other pending entry starts before its end (see the
    module docstring).  0 means the live list is rebuilt as at any change.

    If the first m windows qualify, so do the first m - 1, so the count is
    found by search: a gallop doubles m while all m windows qualify, which
    settles a dense change circle that rolls nothing over in one probe, and
    ``bisect_left`` then finds the first failing m between the last success
    and the first failure.
    """
    k = len(ids)
    a = ids[0]
    b = a + k
    # Entries a..b-1 that end at ``circle`` were live in the circle before,
    # so they are exactly ``ids``.
    if end[a:b] != [circle] * k:
        return 0

    def fits(m: int) -> bool:
        stop = b + m * k
        if ch[b:stop] != ch[a:stop - k] or start[b:stop] != end[a:stop - k]:
            return False
        ends = end[b:stop:k]
        if any(end[i:stop:k] != ends for i in range(b + 1, b + k)):
            return False
        last = ends[-1]
        # The window entries are pending; nothing else may start before ``last``.
        return len(pending) == m * k or start[pending[-m * k - 1]] >= last

    # Past the last entry the slices differ in length, so the search stops.
    present, probe = 0, 1
    while fits(probe):
        present, probe = probe, 2 * probe
    return present + bisect_left(range(present + 1, probe), True, key=lambda m: not fits(m))


def _skip_to(it: Iterator[int], pos: int) -> None:
    """Move the flag iterator ``it`` to flag ``pos`` in one step.

    A bytearray iterator's pickling hook sets its index directly, so the
    flags that a bulk copy covers are not stepped over one at a time.
    """
    it.__setstate__(pos)


def decode(archive: bytes) -> bytes:
    """Decompress an archive back to the exact original bytes."""
    flags, literals, deltas, chs, counts = _read_archive(archive)
    ch, start, end = _resolve(zip(_entry_deltas(deltas, counts), chs, counts))
    n = len(flags)  # _read_archive checked that the 0 flags number len(literals)

    pending = sorted(range(len(start)), key=start.__getitem__, reverse=True)  # not live yet
    # Every live entry is used once per circle, so the live list changes only
    # where an entry starts or where one ends.
    never = n + 2  # past circle 1 and the at most n circles of n bytes
    changes = end + start
    changes.append(never)
    changes.sort(reverse=True)

    out = bytearray()
    # stamp[b] == circle: b was emitted in this circle.  Circle 0 holds every
    # byte, so the first byte breaks it and opens circle 1 as any change does.
    stamp = [0] * 256
    lit_pos = 0
    circle = k = ptr = 0
    ids: list[int] = []  # the live entries of ``circle``, in serialized order
    change_at = 1  # next circle whose live list differs
    copied = 0  # the circle after the last bulk copy
    it = iter(flags)

    for flag in it:
        if flag:
            if ptr < k:
                value = ch[ids[ptr]]
                ptr += 1
                if stamp[value] == circle:
                    raise CorruptArchiveError(
                        f"entry byte {value:#04x} duplicates circle {circle}"
                    )
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
            i = ids[ptr]
            raise CorruptArchiveError(
                f"entry for byte {ch[i]:#04x} left {end[i] - circle} circles unfilled"
            )
        circle += 1
        ptr = 0
        steady = circle != change_at
        if not steady:
            m = (
                circle == copied and flag and end[ids[0]] == circle
                and _windows(ch, start, end, ids, circle, pending)
            )
            if m:
                # Roll whole windows over (see the module docstring).  Their
                # circles all hold the live list's bytes, so the list moves to
                # the last window, whose end is the next change, and the steady
                # copy below covers them all.  The changes before that end are
                # each window's starts and the ends of the entries k ids before.
                first = ids[-1] + 1 + (m - 1) * k
                ids = list(range(first, first + k))
                del pending[-m * k:]
                del changes[-2 * m * k:]
                steady = True
            else:
                ids = [i for i in ids if end[i] > circle]
                if pending and start[pending[-1]] == circle:
                    while pending and start[pending[-1]] == circle:
                        ids.append(pending.pop())
                    ids.sort()
                while changes[-1] <= circle:
                    changes.pop()
                k = len(ids)
            change_at = changes[-1]
        if flag:
            if not k:
                raise CorruptArchiveError(f"flagged position {len(out)} has no admissible entry")
            if steady and (change_at - circle) * k > _STEADY_BYTES:
                # Copy whole circles of the steady list (see the module docstring).
                pos = len(out)
                stop = min(pos + k * (change_at - circle), n)
                zero = flags.find(0, pos, stop)
                reps = ((stop if zero < 0 else zero) - pos) // k
                if reps > 1:
                    chars = bytes(map(ch.__getitem__, ids))
                    out += chars * reps
                    circle += reps - 1
                    for value in chars:
                        stamp[value] = circle
                    ptr = k
                    copied = circle + 1
                    _skip_to(it, len(out))
                    continue
            value = ch[ids[0]]
            ptr = 1
        out.append(value)
        stamp[value] = circle

    # Every 1 flag used an entry, and parse checked that the counts add up
    # to the 1 flags, so every entry is used up here: each live one was used
    # in this last circle and ends at the next, and none is pending.
    if pending or ptr < k or any(end[i] > circle + 1 for i in ids):
        raise CorruptArchiveError(f"entries left circles unfilled after circle {circle}")
    return bytes(out)
