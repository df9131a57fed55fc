"""Run detection across consecutive circles, in one pass over the input.

The encoder visits each byte once, left to right.  Circles are found on
the way from one 256-slot table, ``where``, holding the latest offset of
each byte value, and the offsets ``cs``, ``ps`` and ``pps`` at which the
current circle and the two before it start.  The byte ``c`` at offset
``q`` reads ``p = where[c]`` before setting ``where[c] = q``: ``p >= cs``
means ``c`` is in the current circle already, so it opens the next one
(``pps, ps, cs = ps, cs, q``), and then, as otherwise, ``ps <= p < cs``
means ``p`` is c's offset in the previous circle.  Nothing is allocated
per circle.  A byte ``c`` of circle r >= 2 is handled by the first
matching rule:

* extend: the most recent run of ``c`` ends exactly at circle r-1, holds
  fewer than 127 circles, and sits after the cursor (the last run matched
  in this circle).  Its count grows by one.
* start: ``c`` sits at offsets no run has consumed in both circles
  before, ``p`` in r-1 and ``p0`` in r-2, and one place in the theta order
  fits all three circles: after the cursor, and among the runs covering
  r-1 and r-2 at the same place in both.  ``p0`` is ``data.rfind(c, pps,
  ps)``, looked up on this path only.  The run is made with start r-2 and
  count 3, and its occurrences in r-2 and r-1 are retroactively flagged,
  so circles 1 and 2 begin literal and lose bytes only this way.  No run
  of two circles is made: its 3-byte entry would cover 2 bytes.
* otherwise the byte stays literal.  When the only obstacle is that the
  aligned run would cross a run already matched this circle, that is the
  paradox case.

Runs are kept in theta order.  Two runs may never cross: wherever both
cover a circle, the earlier run's occurrence must sit at the lower offset.
A run covering r-1 was made by circle r-1 with start r-3 at the latest,
so it covers r-2 as well.  A new run goes to the end of the theta order
unless a run covering r-2 with a later occurrence there forces insertion
immediately before it.  The theta order is the serialization order: that
is what lets the decoder match flagged positions to entries by a single
forward scan per circle.

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
where they are read, by :meth:`EncoderState.view`, which builds the
:class:`RunNode` records of the staged API and of traces.  To uncompress
a run left behind the reference base, :func:`_encode_pipeline` clears the
flags of its byte in that stretch in one pass, without listing them.

Repeated circles are copied in one step.  When circle r opens and every
byte of circle r-1 was matched, each of those bytes is covered by a run
ending at r-1, and ``active`` holds these runs in offset order.  If the
input repeats circle r-1 from there on, the rule above extends each run
in turn: the chain table holds it, its offset in r-1 lies past the
cursor, and no start or paradox can occur.  So
k repeats extend every run by k circles, in the same order, which is done
at once (each count grows by k and each ``last`` by k circle sizes), up
to the end of the input or a changed byte; the byte loop takes over from
there.  It resumes after the copy by moving its bytes iterator there in
one step, through the iterator's pickling hook (``__setstate__``), as the
decoder moves its flag iterator, so the copied bytes are not stepped over
one at a time.  Only stretches of at least ``2 + 16 // size`` repeats are
copied, so inputs without them pay one ``startswith`` per fully matched
circle.  That test is the steady-copy gate, written inline in
:meth:`EncoderState.run`; only a gate that passes calls :func:`_repeats`,
the one search for how far the repeats go.

The copy goes on through the count cap, as the byte loop does.  Say the
run of byte ``c`` reaches count 127 in circle B-1.  In circle B, ``c``
is literal: its run is capped and its occurrence in B-1 is flagged.  In
circle B+1 it is literal again, as its occurrence in B-1 is still
flagged.  In circle B+2 it makes a run with start B, whose first
occurrence is in B.  That run goes into the theta order just before the
run covering B of the next byte in offset order that does not cap in B-1
too, or at the tail if there is none, and from B+3 on it is extended to
the cap at B+126.  So each byte has one cap event in every 127 circles,
at a phase of its own, and the events of every such window come in the
same order: by circle, then by offset.  Every copy applies them in
closed form, in :meth:`EncoderState._copy`.  Each run of circle r-1 grows
up to its cap; a copy that caps no byte does nothing else.  The new
runs' ids, bytes, starts, first and last offsets and counts come from one
template per window.  Only the ``prev`` insertions take a loop, and the
successor of each byte is found once per copy; when every byte caps in
the same circle, the insertions are one ``range`` at the tail.  The byte
loop makes a run only from a byte left unflagged in the two circles
before, so a copy ends in neither circle where a byte is literal, B nor
B+1: its end backs off past those circles, which the byte loop then
scans.  The copy flags its whole span and sets only what the next circle
opening reads: ``circle``, ``cs`` and ``ps`` of its last circle and the
one before, ``where`` of the unit's bytes, ``chains``, and ``matched``
and ``matched_occ``, the runs of its last circle and their offsets.
Nothing else is read before that opening.  Until then a byte outside the
unit was last seen before the circle the copy repeats, so before ``ps``,
and the rule skips it; a byte of the unit opens the circle, and the
opening sets ``pps``, the lists and the cursor afresh.  The lists of the
circle two back that the opening takes over, ``active`` and
``active_occ``, are not set for that circle, but nothing reads them in
it: no run can start there.  A byte that could start one sits unflagged
in the copy's last circle, so it came after the copy and is not in the
unit, and the circle before holds only the unit's bytes, so its ``p0``
is -1.  ``ps`` is set only to keep that ``rfind`` within one circle.

Every run the scan finds covers at least three circles and is worth its
entry.  One walk over the runs, :func:`ccz.container._delta_encode`,
delta encodes them against the reference rule, bridging long forward
gaps with rebase entries.  The same walk finds the runs too far behind
the reference base to be serialized, which are uncompressed again, the
only runs that are.  The walk emits the entries as three byte columns
(delta, byte, count) holding what the archive stores, so
:func:`ccz.compress` writes them as they are; only :func:`encode`,
:func:`trace_encode` and :func:`delta_encode_entries` build
:class:`CompressedEntry` records from them.  :func:`_encode_pipeline`,
which :func:`ccz.compress`, :func:`encode` and :func:`trace_encode`
share, clears the flags of the runs left behind and builds the literal
stream once, at the end.  A run keeps its flags exactly when it is
serialized, so :func:`trace_encode` tells kept runs from uncompressed
ones by the flag at ``first`` alone.  Where the 0 flags form at most one
stretch per 256 input bytes, as on positional inputs, it joins the input
slices of those stretches (none at all when every byte is flagged);
otherwise it selects the 0-flagged bytes from the whole input.  Delta
coding works on run ids and the columns; :func:`delta_encode_entries`
lays a list of :class:`RunNode` out as columns and calls the same code.
"""

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, cycle, islice, product, starmap
from operator import add
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
_ONES = b"\x01" * 256


@dataclass(frozen=True)
class EncodeTrace:
    """Encoder output plus the runs found, split by whether they were serialized.

    ``runs`` holds the runs the entries encode and ``removed`` those
    uncompressed again, which are the runs left behind the reference
    base.  Both are in theta order.
    """

    parts: EncodedParts
    runs: tuple[RunNode, ...]
    removed: tuple[RunNode, ...]


class EncoderState:
    """The flags and the run table of one input, filled by :meth:`run`.

    The run table is the columns ``ch``, ``start``, ``count``, ``first``,
    ``last`` and ``prev``, indexed by run id (see the module docstring);
    ``last_run`` is the id of the last run in theta order, -1 while there
    is none.
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

    def run(self) -> None:
        """Scan ``data`` once, left to right, flagging its runs.

        The scan is kept in locals.  ``chains[c]`` is the id of the most
        recent run of byte ``c``.  ``circle`` is the 1-based index of the
        circle being scanned, ``cs`` its start offset, and ``ps`` and ``pps``
        those of the two circles before (equal to ``cs`` where there is no
        such circle); ``where[b]`` is the latest offset of byte ``b``
        scanned, -1 for none.  ``active`` lists the ids of the runs covering
        the previous circle in theta order, ``active_occ`` their offsets
        there, and ``cursor`` is the offset there of the last run matched or
        created in the current circle, -1 at every circle start: a run is
        matched or made only after the cursor.
        ``a2`` lists the runs covering the circle two back in theta order, a
        superset of ``active``, and ``a2_occ`` their offsets there.  Runs
        matched in the current circle and their offsets collect in
        ``matched`` and ``matched_occ``, which become ``active`` and
        ``active_occ`` when the next circle opens, as ``active`` and
        ``active_occ`` become ``a2`` and ``a2_occ``.

        A second call returns at once when the first found a run; one that
        found none would find none again.
        """
        if self.last_run >= 0:
            return
        data, flags = self.data, self.flags
        run_ch, start, count, first, last, prev = (
            self.ch, self.start, self.count, self.first, self.last, self.prev
        )
        chains, where = [-1] * 256, [-1] * 256
        circle, cs, ps, pps, cursor, last_run = 1, 0, 0, 0, -1, -1
        active, active_occ, matched, matched_occ, a2, a2_occ = [], [], [], [], [], []
        # Circles 1 and 2 need no case of their own: pps == ps leaves no
        # circle two back, so no run starts there.
        # A bulk copy sets resume to its end and breaks out; the byte loop
        # restarts there, its iterator moved past the copied bytes in one step.
        todo, resume, n = iter(data), 0, len(data)
        while resume < n:
            todo.__setstate__(resume)
            it, resume = enumerate(todo, resume), n
            for q, c in it:
                p = where[c]
                if p >= cs:
                    circle += 1
                    pps, ps, cs, cursor = ps, cs, q, -1
                    a2, a2_occ, active, active_occ = active, active_occ, matched, matched_occ
                    matched, matched_occ = [], []
                    size = q - ps
                    if len(active) == size:
                        unit = data[ps:q]
                        least = 2 + _STEADY_BYTES // size
                        if data.startswith(unit * least, q):
                            reps = _repeats(data, unit, q, least, (n - q) // size)
                            # Byte i is literal in the circles gaps[i] + 127k
                            # and gaps[i] + 1 + 127k of the copy, counted from
                            # 0, and the copy ends in none of them.
                            gaps = [MAX_COUNT - count[r] for r in active]
                            phases = set(gaps)
                            while reps and (
                                (reps - 1) % MAX_COUNT in phases or (reps - 2) % MAX_COUNT in phases
                            ):
                                reps -= 1
                            if reps:
                                # Set what the next circle opening reads; the
                                # module docstring says why nothing else is read.
                                end = q + reps * size
                                last_run = self._copy(
                                    chains, active, gaps, unit, circle, q, reps, last_run
                                )
                                circle += reps - 1
                                flags[q:end] = b"\x01" * (end - q)
                                cs = end - size
                                ps = cs - size
                                for off, b in enumerate(data[cs:end], cs):
                                    where[b] = off
                                matched, matched_occ = active, list(range(cs, end))
                                resume = end
                                break
                where[c] = q
                if p < ps:
                    continue
                r = chains[c]
                # A run of c ends at the previous circle exactly when it holds c's offset there.
                if r >= 0 and last[r] == p and count[r] < MAX_COUNT:
                    if p <= cursor:
                        continue
                    count[r] += 1
                    last[r] = q
                elif flags[p] or p <= cursor:
                    continue
                else:
                    p0 = data.rfind(c, pps, ps)
                    if p0 < 0 or flags[p0]:
                        continue
                    idx = bisect_right(active_occ, p)
                    # The runs before c at r-1 must be those before it at r-2,
                    # where each has its byte once.
                    if idx and data.rfind(run_ch[active[idx - 1]], pps, ps) > p0:
                        continue
                    if idx < len(active) and data.rfind(run_ch[active[idx]], pps, ps) < p0:
                        continue
                    m = bisect_right(a2_occ, p0)
                    r = chains[c] = len(run_ch)
                    run_ch.append(c)
                    start.append(circle - 2)
                    count.append(3)
                    first.append(p0)
                    last.append(q)
                    if m == len(a2):
                        prev.append(last_run)
                        last_run = r
                    else:
                        succ = a2[m]
                        prev.append(prev[succ])
                        prev[succ] = r
                    active.insert(idx, r)
                    active_occ.insert(idx, p)
                    a2.insert(m, r)
                    a2_occ.insert(m, p0)
                    flags[p0] = flags[p] = 1
                flags[q] = 1
                cursor = p
                matched.append(r)
                matched_occ.append(q)
        self.last_run = last_run

    def _copy(
        self, chains: list[int], active: list[int], gaps: list[int], unit: bytes, circle: int,
        q: int, reps: int, last_run: int,
    ) -> int:
        """The run columns of a steady copy; returns ``last_run``.

        The copy holds ``reps`` repeats of ``unit`` from offset ``q``, its
        first circle being ``circle``.  ``active`` holds the runs of the
        circle before in offset order, and byte i of the unit is literal in
        the circles ``gaps[i] + 127k`` and ``gaps[i] + 1 + 127k`` of the
        copy, counted from 0 (see the module docstring).  Each run of
        ``active`` grows up to its cap, which is all a copy that caps no
        byte does.  The first of each pair of literal circles starts a run
        of its byte there, made two circles later, so the runs from the
        literal circles more than two before the copy's end are made here.
        Every window of 127 circles has one such event per byte, in the
        same order: by circle, then by offset.  ``active`` and ``chains``
        are left holding each byte's newest run.
        """
        size = len(unit)
        run_ch, start, count, first, last, prev = (
            self.ch, self.start, self.count, self.first, self.last, self.prev
        )
        for r, g in zip(active, gaps):
            g = min(g, reps)
            count[r] += g
            last[r] += g * size
        n0 = len(run_ch)
        n = sum((reps + MAX_COUNT - 3 - g) // MAX_COUNT for g in gaps)
        if not n:
            return last_run
        order = sorted(range(size), key=gaps.__getitem__)
        run_ch += (bytes(map(unit.__getitem__, order)) * (n // size + 1))[:n]
        # Window by window, the first n events are those made in the copy.
        windows = range(circle, circle + reps - 1, MAX_COUNT)
        start += islice(starmap(add, product(windows, [gaps[i] for i in order])), n)
        windows = range(q, q + (reps - 1) * size, MAX_COUNT * size)
        first += islice(starmap(add, product(windows, [gaps[i] * size + i for i in order])), n)
        count += [MAX_COUNT] * n
        last += map(((MAX_COUNT - 1) * size).__add__, first[n0:])
        for r in range(max(n0, n0 + n - size), n0 + n):
            k = circle + reps - start[r]  # the runs still open at the end
            if k < MAX_COUNT:
                count[r], last[r] = k, first[r] + (k - 1) * size
        if len(set(gaps)) == 1:
            # Every byte caps at once, so each new run goes at the tail.
            prev.append(last_run)
            prev += range(n0, n0 + n - 1)
            last_run = n0 + n - 1
        else:
            # A new run goes before the run of its byte's successor, the next
            # byte in offset order that caps in another circle, or at the tail
            # if there is none.  That run is the successor's run from the same
            # window or the one before: ``ahead`` holds its place relative to
            # the new run in ``ids``, which lists the runs of the circle before
            # the copy in event order, then the new runs.
            rank = sorted(range(size), key=order.__getitem__)
            ahead, succ = [None] * size, None
            for i in range(size - 1, -1, -1):
                if succ is not None:
                    a = rank[succ] - rank[i]
                    ahead[rank[i]] = a - size if gaps[succ] > gaps[i] else a
                if i and gaps[i - 1] != gaps[i]:
                    succ = i
            ids = [active[i] for i in order] + list(range(n0, n0 + n))
            for k, a in zip(range(size, size + n), cycle(ahead)):
                r = ids[k]
                if a is None:
                    prev.append(last_run)
                    last_run = r
                else:
                    s = ids[k + a]
                    prev.append(prev[s])
                    prev[s] = r
        for k in range(max(0, n - size), n):
            active[order[k % size]] = n0 + k
        for b, r in zip(unit, active):
            chains[b] = r
        return last_run

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

    ``present`` copies are known to be there: :meth:`EncoderState.run`
    calls this only once its inline gate, one ``startswith`` of
    ``present`` copies, has passed.  It is the encoder's only repeat
    search.  It gallops: the count of copies found doubles (from
    ``present``, or from 1) until one test fails or ``limit`` is reached,
    and a binary search between the last count found and the first one
    missing follows.  Each test reads only the copies past those already
    found, so the bytes read scale with the repeats found, not with the
    rest of ``data``.
    """
    lo, hi = min(present, limit), limit + 1  # lo copies are there; hi are not, or hi > limit
    growing = True
    while hi - lo > 1:
        m = min(2 * lo or 1, limit) if growing else (lo + hi) // 2
        if data.startswith(unit * (m - lo), q + lo * len(unit)):
            lo = m
        else:
            hi, growing = m, False
    return lo


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

    The scan makes no run shorter than three circles, so on its output
    this is the identity.  It is kept for hand-built run lists and for the
    staged path of the benchmark harness.
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
    bytearray, bytes, tuple[bytearray, bytearray, bytearray], EncoderState
]:
    """Flags, literals and entry columns, then the scan state.

    ``compress`` writes the first three straight into the archive.  Every
    run the scan finds covers at least three circles, so each is worth its
    entry; where the runs leave a forward gap of more than 127 circles,
    :func:`_delta_encode` bridges it with rebase entries.  Only runs left
    behind the reference base are uncompressed, so a run of the state is
    serialized exactly when the flag at its ``first`` offset is still 1.
    """
    state = EncoderState(data)
    state.run()
    columns, behind = _delta_encode(state.theta_order(), state.ch, state.start, state.count)
    flags, first, last = state.flags, state.first, state.last
    for r in behind:
        # The run's bytes are the places of its byte in data[lo:hi]; clear
        # their flags in one pass over that stretch.
        lo, hi, c = first[r], last[r] + 1, state.ch[r]
        keep = data[lo:hi].translate(_ONES[:c] + b"\x00" + _ONES[c + 1:])
        bits = int.from_bytes(flags[lo:hi], "big") & int.from_bytes(keep, "big")
        flags[lo:hi] = bits.to_bytes(hi - lo, "big")
    # Positional inputs leave few stretches of literals, often none: copy
    # those, and select from every byte only where they are many.
    spans = _spans(flags, len(flags) >> 8)
    if spans is None:
        literals = bytes(compress(data, flags.translate(_INVERT)))
    else:
        literals = b"".join([data[i:j] for i, j in spans])
    return flags, literals, columns, state


def trace_encode(data: bytes) -> EncodeTrace:
    """Encode ``data`` and report every kept and uncompressed run."""
    flags, literals, columns, state = _encode_pipeline(data)
    runs: list[RunNode] = []
    removed: list[RunNode] = []
    first = state.first
    for r in state.theta_order():
        (runs if flags[first[r]] else removed).append(state.view(r))
    return EncodeTrace(
        EncodedParts(flags, literals, _entry_records(*columns)), tuple(runs), tuple(removed)
    )


def encode(data: bytes) -> EncodedParts:
    """Compress ``data`` into flags, literals and entries."""
    flags, literals, columns = _encode_pipeline(data)[:3]
    return EncodedParts(flags, literals, _entry_records(*columns))
