"""Run detection across consecutive circles, in one pass over the input.

The encoder visits each byte once, left to right.  Circles are found on
the way from one 256-slot table, ``where``, holding the latest offset of
each byte value, and the offsets ``cs`` and ``ps`` at which the current
and the previous circle start.  The byte ``c`` at offset ``q`` reads
``p = where[c]`` before setting ``where[c] = q``: ``p >= cs`` means ``c``
is in the current circle already, so it opens the next one (``ps, cs =
cs, q``), and then, as otherwise, ``ps <= p < cs`` means ``p`` is c's
offset in the previous circle.  Nothing is allocated per circle.  A byte
``c`` of circle r >= 2 is handled by the first matching rule:

* extend: the most recent run of ``c`` ends exactly at circle r-1, holds
  fewer than 127 circles, and sits after the cursor (the last run matched
  in this circle).  Its count grows by one.
* start: circle r-1 contains ``c`` at an offset no run has consumed, and a
  two-circle run can be placed after the cursor without crossing any other
  run.  The r-1 occurrence is retroactively flagged, so all of circle 1
  begins literal and loses bytes only this way.
* otherwise the byte stays literal.  When the only obstacle is that the
  aligned run would cross a run already matched this circle, that is the
  paradox case.

Runs are kept in theta order.  Two runs may never cross: wherever both
cover a circle, the earlier run's occurrence must sit at the lower offset.
A new run goes to the end of the theta order unless a live run with a
later previous-circle occurrence forces insertion immediately before it.
The theta order is the serialization order: that is what lets the decoder
match flagged positions to entries by a single forward scan per circle.

The run table holds no object per run.  It is a set of ``list[int]``
columns indexed by run id, ids counting up in creation order: ``ch``,
``start`` (first circle), ``count``, ``first`` and ``last`` (the input
offsets of the byte in the first and the last circle covered), and
``prev``, the id of the run before it in theta order.  Either kind of
insertion changes only the predecessor of one run, so ``prev`` links are
all the theta order needs: walked back from ``last_run`` and reversed,
they give it.  The lookup state is a 256-slot chain table indexed by byte
value holding the id of the most recent run of that byte (-1 for none);
older runs of the byte are never needed.  Since ints are not tracked by
the garbage collector, finding runs leaves nothing for it to scan, and the
table cannot form a reference cycle.

A run's other offsets need no storage.  A byte occurs at most once per
circle, and circles are contiguous, so a run's occurrences are exactly the
places of its byte in ``data[first:last + 1]``.  They are derived only
where they are read, by :meth:`EncoderState.view`: it builds the
:class:`RunNode` records of the staged API and of traces, and gives the
offsets of runs left behind the reference base, to uncompress them.

Repeated circles are copied in one step.  When circle r opens and every
byte of circle r-1 was matched, each of those bytes is covered by a run
ending at r-1, and ``active`` holds these runs in offset order.  If the
input repeats circle r-1 from there on, the rule above extends each run
in turn: the chain table holds it, the bisect over ``active_occ`` finds it
at the index just past the cursor, and no start or paradox can occur.  So
k repeats extend every run by k circles, in the same order, which is done
at once (each count grows by k and each ``last`` by k circle sizes, and
``where``, ``ps`` and ``cs`` move to the last two repeats), up to the
first of the count cap, ``upto`` and a changed byte; the byte loop takes
over from there.  It resumes after the copy by moving its bytes iterator
there in one step, through the iterator's pickling hook (``__setstate__``),
as the decoder moves its flag iterator, so the copied bytes are not
stepped over one at a time.  Only stretches of at least
``2 + 16 // size`` repeats are copied, so inputs without them pay one
``startswith`` per fully matched circle.  That test is the steady-copy
gate, written inline in :meth:`EncoderState.feed_prefix` as is the
cap-cycle gate below; only a gate that passes calls :func:`_repeats`,
the one search for how far the repeats go.

A copy that leaves every run at the cap (so the runs had equal counts)
goes on across whole cap cycles of 127 repeats.  Past the cap the byte loop
leaves the next circle, B, all literal for now: each byte's run is capped
and its occurrence in the circle before is flagged.  In circle B+1 no run
is active, so each byte starts a run at the tail of the theta order, in
offset order, with its first occurrence in B; from B+2 on a copy extends
these runs to the cap at B+126.  That is the state of the first cap again,
127 circles on, so while the repeats fill whole cycles within ``upto``
(one ``startswith``, then a binary search) each cycle is added at once:
per byte, a run of count 127 starting at B, and the whole span flagged.
``where``, ``ps``, ``cs``, ``chains``, ``active``, ``matched`` and the
cursor are left as the last cycle's copy leaves them.  A partial cycle, a
changed byte or ``upto`` is left to the byte loop and the copy.

After the scan, every run covering only two circles is uncompressed
again: a 3-byte entry covering 2 bytes is a net loss.  Then one walk over
the surviving runs, :func:`ccz.container._delta_encode`, delta encodes
them against the reference rule, bridging long forward gaps with rebase
entries.  Dropping a two-circle run never puts a later run behind: such
a run becomes the reference only when it starts past the base, so
without it the base stays lower.  The same walk finds the runs too far
behind the reference base to be serialized, which are uncompressed as
well.  The walk emits the entries as three byte columns (delta, byte,
count) holding what the archive stores, so :func:`ccz.compress` writes
them as they are; only :func:`encode`, :func:`trace_encode` and
:func:`delta_encode_entries` build :class:`CompressedEntry` records from
them.  :func:`_encode_pipeline`, which :func:`ccz.compress`,
:func:`encode` and :func:`trace_encode` share, clears the flags of both
kinds of uncompressed runs (a pruned run covers two circles, so its flags
sit at ``first`` and ``last``) and builds the literal stream once, at the
end.  Where the 0 flags form at most one stretch per 256 input bytes, as
on positional inputs, it joins the input slices of those stretches (none
at all when every byte is flagged); otherwise it selects the 0-flagged
bytes from the whole input.  Pruning
is a split of the run ids on ``count == 2``, and delta coding works on
run ids and the columns; the public :func:`remove_redundant_entries`
makes the same split of a list of :class:`RunNode`, and
:func:`delta_encode_entries` lays one out as columns and calls the same
code.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .container import (
    MAX_COUNT,
    _STEADY_BYTES,
    CompressedEntry,
    EncodedParts,
    RunNode,
    _delta_encode,
    _entry_records,
    _spans,
)

# Flips 0/1 flags into literal selectors for itertools.compress.
_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@dataclass(frozen=True)
class EncodeTrace:
    """Encoder output plus which runs survived and which were uncompressed."""

    parts: EncodedParts
    runs: tuple[RunNode, ...]
    removed: tuple[RunNode, ...]


class EncoderState:
    """Mutable scan state over one input stream.

    The run table is the columns ``ch``, ``start``, ``count``, ``first``,
    ``last`` and ``prev``, indexed by run id (see the module docstring);
    ``last_run`` is the id of the last run in theta order, -1 while there
    is none, and ``chains[c]`` the id of the most recent run of byte ``c``.
    ``circle`` is the 1-based index of the circle being scanned, ``cs``
    its start offset and ``ps`` that of the previous circle (equal to
    ``cs`` in circle 1); ``where[b]`` is the latest offset of byte ``b``
    scanned, -1 for none.  ``active`` lists the ids of the runs covering
    the previous circle in theta order, ``active_occ`` their offsets there,
    and ``cursor`` is the index in ``active`` of the last run matched or
    created in the current circle, -1 at every circle start.
    Runs matched in the current circle and their offsets collect in
    ``matched`` and ``matched_occ``, which become ``active`` and
    ``active_occ`` when the next circle opens.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.flags = bytearray(len(data))
        self.ch: list[int] = []
        self.start: list[int] = []
        self.count: list[int] = []
        self.first: list[int] = []
        self.last: list[int] = []
        self.prev: list[int] = []
        self.last_run = -1
        self.chains = [-1] * 256
        self.circle = 1
        self.where = [-1] * 256
        self.cs = self.ps = 0
        self.active: list[int] = []
        self.active_occ: list[int] = []
        self.matched: list[int] = []
        self.matched_occ: list[int] = []
        self.cursor = -1
        self._pos = 0                        # next offset to process

    def run(self) -> None:
        self.feed_prefix(len(self.data))

    def feed_prefix(self, upto: int) -> None:
        """Process all offsets below ``upto``.

        The state left is the one a scan of ``data[:upto]`` leaves, with the
        flags at and past ``upto`` still 0.
        """
        data, flags, chains, where = self.data, self.flags, self.chains, self.where
        run_ch, start, count, first, last, prev = (
            self.ch, self.start, self.count, self.first, self.last, self.prev
        )
        last_run = self.last_run
        circle, cs, ps, cursor = self.circle, self.cs, self.ps, self.cursor
        active, active_occ = self.active, self.active_occ
        matched, matched_occ = self.matched, self.matched_occ
        # Circle 1 needs no case of its own: ps == cs leaves no previous circle.
        # A bulk copy sets resume to its end and breaks out; the byte loop
        # restarts there, its iterator moved past the copied bytes in one step.
        pos = resume = self._pos
        todo = iter(data[pos:upto])
        while resume < upto:
            todo.__setstate__(resume - pos)
            it, resume = enumerate(todo, resume), upto
            for q, c in it:
                p = where[c]
                if p >= cs:
                    circle += 1
                    ps, cs, cursor = cs, q, -1
                    active, active_occ, matched, matched_occ = matched, matched_occ, [], []
                    size = q - ps
                    reps = 0
                    if len(active) == size:
                        unit = data[ps:q]
                        least = 2 + _STEADY_BYTES // size
                        if data.startswith(unit * least, q):
                            # Copy no run past the count cap and no byte past upto.
                            slack = MAX_COUNT - max(map(count.__getitem__, active))
                            reps = _repeats(data, unit, q, least, min(slack, (upto - q) // size))
                    if reps:
                        # Every run of the previous circle extends once per repeat,
                        # in order; leave the state the byte loop would leave.
                        span = reps * size
                        for r in active:
                            count[r] += reps
                            last[r] += span
                        circle += reps - 1
                        end, cycle, full = q + span, MAX_COUNT * size, 0
                        if min(map(count.__getitem__, active)) == MAX_COUNT:
                            looped = unit * MAX_COUNT
                            if data.startswith(looped, end):
                                full = _repeats(data, looped, end, 1, (upto - end) // cycle)
                        if full:
                            # Whole cap cycles: in each, every byte of the unit
                            # starts a run at the tail that is copied to the cap
                            # (see the module docstring).
                            n = len(run_ch)
                            firsts = [end + cycle * j + i for j in range(full) for i in range(size)]
                            run_ch += unit * full
                            start += [circle + 1 + MAX_COUNT * j for j in range(full) for _ in unit]
                            count += [MAX_COUNT] * len(firsts)
                            first += firsts
                            last += [f + cycle - size for f in firsts]
                            prev.append(last_run)
                            prev += range(n, n + len(firsts) - 1)
                            last_run = len(run_ch) - 1
                            active = list(range(last_run + 1 - size, last_run + 1))
                            for b, r in zip(unit, active):
                                chains[b] = r
                            circle += full * MAX_COUNT
                            span += full * cycle
                            end += full * cycle
                        flags[q:end] = b"\x01" * span
                        ps, cs = end - 2 * size, end - size
                        for off, b in enumerate(data[cs:end], cs):
                            where[b] = off
                        active_occ = list(range(ps, cs))
                        matched, matched_occ = active.copy(), list(range(cs, end))
                        cursor = size - 1
                        resume = end
                        break
                where[c] = q
                if p < ps:
                    continue
                r = chains[c]
                # A run of c ends at the previous circle exactly when it holds c's offset there.
                if r >= 0 and last[r] == p and count[r] < MAX_COUNT:
                    idx = bisect_left(active_occ, p)
                    if idx <= cursor:
                        continue
                    count[r] += 1
                    last[r] = q
                elif flags[p]:
                    continue
                else:
                    idx = bisect_right(active_occ, p)
                    if idx <= cursor:
                        continue
                    r = chains[c] = len(run_ch)
                    run_ch.append(c)
                    start.append(circle - 1)
                    count.append(2)
                    first.append(p)
                    last.append(q)
                    if idx == len(active):
                        prev.append(last_run)
                        last_run = r
                    else:
                        succ = active[idx]
                        prev.append(prev[succ])
                        prev[succ] = r
                    active.insert(idx, r)
                    active_occ.insert(idx, p)
                    flags[p] = 1
                flags[q] = 1
                cursor = idx
                matched.append(r)
                matched_occ.append(q)
        self._pos = max(self._pos, upto)
        self.last_run = last_run
        self.circle, self.cs, self.ps, self.cursor = circle, cs, ps, cursor
        self.active, self.active_occ = active, active_occ
        self.matched, self.matched_occ = matched, matched_occ

    def theta_order(self) -> list[int]:
        """The ids of all runs in theta (serialization) order."""
        prev = self.prev
        out: list[int] = []
        r = self.last_run
        while r >= 0:
            out.append(r)
            r = prev[r]
        out.reverse()
        return out

    def view(self, r: int) -> RunNode:
        """Run ``r`` as a record, its offsets found in ``data[first:last + 1]``."""
        data, c, end = self.data, self.ch[r], self.last[r] + 1
        offsets: list[int] = []
        off = self.first[r]
        while off >= 0:
            offsets.append(off)
            off = data.find(c, off + 1, end)
        return RunNode(c, self.start[r], self.count[r], tuple(offsets))

    def run_list(self) -> list[RunNode]:
        """All runs in theta order, as records built on each call."""
        return [self.view(r) for r in self.theta_order()]


def _repeats(data: bytes, unit: bytes, q: int, present: int, limit: int) -> int:
    """The most copies of ``unit``, at most ``limit``, that ``data`` holds from ``q`` on.

    ``present`` copies are known to be there: ``feed_prefix`` calls this
    only once its inline gate, one ``startswith`` of ``present`` copies,
    has passed.  It is the encoder's only repeat search, for both the
    steady copy (``unit`` one circle) and the cap cycles (``unit`` 127
    circles).
    """
    if limit <= present:
        return limit
    if data.startswith(unit * limit, q):
        return limit
    return present + bisect_left(
        range(present + 1, limit), True, key=lambda m: not data.startswith(unit * m, q)
    )


def paradox_check(state: EncoderState, c: int) -> bool:
    """Would admitting ``c`` next cross a run already matched this circle?

    True exactly when ``c`` has an aligned extension or start available but
    any placement would swap order with a run matched earlier in the
    current circle.
    """
    # where[c] may already be c's offset in the current circle, so search
    # the previous one.
    p = state.data.find(c, state.ps, state.cs)
    if p < 0:
        return False
    r = state.chains[c]
    if r >= 0 and state.last[r] == p and state.count[r] < MAX_COUNT:
        return bisect_left(state.active_occ, p) <= state.cursor
    if state.flags[p]:
        return False
    return bisect_right(state.active_occ, p) <= state.cursor


def delta_encode_entries(run_list: Iterable[RunNode]) -> list[CompressedEntry]:
    """Delta encode run starts against the running reference.

    A gap the signed byte cannot span forward is bridged by rebase entries
    advancing the base to start - 1, leaving a real delta of +1.  A start
    more than 128 circles behind the base cannot be serialized at all, so a
    list with one raises ``ValueError``; :func:`encode` uncompresses such
    runs instead.
    """
    nodes = list(run_list)
    columns, behind = _delta_encode(
        range(len(nodes)), [n.ch for n in nodes], [n.start for n in nodes], [n.count for n in nodes]
    )
    if behind:
        raise ValueError(f"run start {nodes[behind[0]].start} is too far behind the reference base")
    return _entry_records(*columns)


def remove_redundant_entries(
    run_list: Sequence[RunNode], flags: bytearray, literals: bytes
) -> tuple[list[RunNode], bytearray, bytes]:
    """Uncompress every two-circle run.

    A count-2 entry costs 3 bytes to cover 2, so it is flipped back to
    literals.  No later run depends on one: a two-circle run becomes the
    reference only when it starts past the base, so without it the base
    stays lower and later deltas only grow, which rebase entries bridge.
    Returns the surviving runs plus rewritten flags and literals.
    """
    return (
        [node for node in run_list if node.count != 2],
        *_uncompress((node for node in run_list if node.count == 2), flags, literals),
    )


def _uncompress(
    runs: Iterable[RunNode], flags: bytearray, literals: bytes
) -> tuple[bytearray, bytes]:
    """Flip the bytes of ``runs`` back to literals.

    Returns a new flag array and the literal stream with each flipped byte
    inserted at its place among the old literals.
    """
    flags = bytearray(flags)
    flipped = bytearray(len(flags))  # 1 where a byte is flipped
    chars = bytearray(len(flags))    # the flipped bytes, at their offsets
    for node in runs:
        c = node.ch
        for off in node.occurrences:
            flags[off] = 0
            flipped[off] = 1
            chars[off] = c
    if 1 not in flipped:
        return flags, literals
    # Each new literal comes from the flipped bytes where flipped is 1, else
    # from the old literals: a merge done by C-level iterators.
    sources = (iter(literals), compress(chars, flipped))
    merge = compress(flipped, flags.translate(_INVERT))
    return flags, bytes(map(next, map(sources.__getitem__, merge)))


def _encode_pipeline(data: bytes) -> tuple[
    bytearray, bytes, tuple[bytearray, bytearray, bytearray],
    EncoderState, list[int], list[int], list[int],
]:
    """Flags, literals and entry columns, then the scan state and the ids
    of the runs found, of those longer than two circles, and of those left
    behind.

    ``compress`` writes the first three straight into the archive.  Every
    two-circle run is uncompressed; where one split a forward gap of more
    than 127 circles, :func:`_delta_encode` bridges the gap with rebase
    entries.
    """
    state = EncoderState(data)
    state.run()
    found = state.theta_order()
    count, flags, first, last = state.count, state.flags, state.first, state.last
    kept = [r for r in found if count[r] != 2]
    columns, behind = _delta_encode(kept, state.ch, state.start, count)
    for r in found:
        if count[r] == 2:
            flags[first[r]] = flags[last[r]] = 0
    for r in behind:
        for off in state.view(r).occurrences:
            flags[off] = 0
    # Positional inputs leave few stretches of literals, often none: copy
    # those, and select from every byte only where they are many.
    spans = _spans(flags, len(flags) >> 8)
    if spans is None:
        literals = bytes(compress(data, flags.translate(_INVERT)))
    else:
        literals = b"".join([data[i:j] for i, j in spans])
    return flags, literals, columns, state, found, kept, behind


def trace_encode(data: bytes) -> EncodeTrace:
    """Encode ``data`` and report every kept and uncompressed run."""
    flags, literals, columns, state, found, kept, behind = _encode_pipeline(data)
    behind_set = set(behind)
    removed = [r for r in found if state.count[r] == 2] + behind
    return EncodeTrace(
        EncodedParts(flags, literals, _entry_records(*columns)),
        tuple(state.view(r) for r in kept if r not in behind_set),
        tuple(state.view(r) for r in removed),
    )


def encode(data: bytes) -> EncodedParts:
    """Compress ``data`` into flags, literals and entries."""
    flags, literals, columns = _encode_pipeline(data)[:3]
    return EncodedParts(flags, literals, _entry_records(*columns))
