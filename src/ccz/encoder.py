"""Run detection across consecutive circles, in one pass over the input.

The encoder visits each byte once, left to right.  Circles are found on
the way from one 256-slot table, ``where``, holding the latest offset of
each byte value, and the offsets ``cs``, ``ps`` and ``pps`` at which the
current circle and the two before it start.  The byte ``c`` at offset
``q`` reads ``p = where[c]`` before setting ``where[c] = q``: ``p >= cs``
means ``c`` is in the current circle already, so it opens the next one
(``pps, ps, cs = ps, cs, q``), and then, as otherwise, ``ps <= p < cs``
means ``p`` is c's offset in the previous circle.  Finding circles
allocates nothing.  A byte ``c`` of circle r >= 2 is handled by the first
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

The scan keeps no list of runs per circle; the flags and the chain table
below hold what it reads, by three facts.  The flagged offsets of circle
r-1 are exactly the offsets of the runs covering r-1: a run flags its
byte in each circle it covers, and nothing else flags a byte there.  For
a flagged byte ``b``, ``chains[b]`` is the run that covers it: a newer
run of ``b`` would start after that one ends, and so is not made yet.
Runs made earlier in the current circle have their r-2 offset before
this start's ``p0``: the cursor only grows, so such a run sits before
``p`` in r-1, and the neighbour checks then put its ``p0`` before this
one.  So a start's neighbours in r-1 are the flags nearest ``p`` on
either side within r-1, and its successor in theta order is the run
covering the first flag past ``p0`` in r-2, or the tail if there is none.

The run table holds no object per run.  It is a set of ``list[int]``
columns indexed by run id, ids counting up in creation order: ``start``
(first circle), ``count``, ``last`` (the input offset of the run's byte
in the last circle covered), and ``prev``, the id of the run before it
in theta order.  Either kind of
insertion changes only the predecessor of one run, so ``prev`` links are
all the theta order needs: walked back from ``last_run`` and reversed,
they give it.  The lookup state is a 256-slot chain table indexed by byte
value holding the id of the most recent run of that byte (-1 for none);
older runs of the byte are never needed.  Since ints are not tracked by
the garbage collector, finding runs leaves nothing for it to scan, and the
table cannot form a reference cycle.

A run's byte and its other offsets need no storage.  The byte is
``data[last]``, read where needed: by :meth:`EncoderState.view`, by
:func:`ccz.container._delta_encode` for each entry, and by
:meth:`EncoderState._copy` to set the chain table.  The other offsets
follow from ``last`` and
``count``.  A byte occurs at most once per circle, and circles are
contiguous, so the byte's previous occurrence before a run's offset in
one circle is the run's offset in the circle before; ``count - 1`` steps
of ``rfind`` back from ``last`` give them all.  They are derived only
where they are read, by :meth:`EncoderState.view`, which builds the
:class:`RunNode` records of the staged API and of traces, and which
:func:`_encode_pipeline` calls to clear the flags of a run left behind
the reference base.

Repeated circles are copied in one step.  When circle r opens and every
byte of circle r-1 was matched, each of those bytes is covered by a run
ending at r-1, the chain table's run of its byte.  The scan counts the
bytes matched in each circle, so this test needs no list.  If the
input repeats circle r-1 from there on, the rule above extends each run
in turn: the chain table holds it, its offset in r-1 lies past the
cursor, and no start or paradox can occur.  So
k repeats extend every run by k circles, in the same order, which is done
at once (each count grows by k and each ``last`` by k circle sizes), up
to the end of the input or a changed byte; the byte loop takes over from
there.  The byte loop draws each offset and byte from two iterators in
step, one over ``range(len(data))`` and one over ``data``; after the copy
it moves both there in one step, through each iterator's pickling hook
(``__setstate__``), as the decoder moves its flag iterator, so the copied
bytes are not stepped over one at a time.  Only stretches of at least
``2 + 16 // size`` repeats are copied, so inputs without them pay one
``startswith`` per fully matched circle.  That test is the steady-copy
gate, written inline in :meth:`EncoderState.run`; only a gate that passes
calls :func:`_repeats`, the one search for how far the repeats go.

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
runs' ids, starts, last offsets and counts come from one template per
window.  Only the ``prev`` insertions take a loop, and the
successor of each byte is found once per copy; when every byte caps in
the same circle, the insertions are one ``range`` at the tail.  The byte
loop makes a run only from a byte left unflagged in the two circles
before, so a copy ends in neither circle where a byte is literal, B nor
B+1: its end backs off past those circles, which the byte loop then
scans.  The copy flags its whole span and sets only ``circle``, ``cs``
and ``ps`` of its last circle and the one before, ``where`` of the
unit's bytes, and ``chains``; its count of matched bytes is 0, so the
gate fails at the next opening.  Until the next circle opens, a byte
outside the unit was last seen before the circle the copy repeats, so
before ``ps``, and the rule skips it; a byte of the unit opens the
circle, and the opening sets ``pps`` and the cursor afresh.  In the
first circle after the copy no run can start: a byte that could start
one sits unflagged in the copy's last circle, so it came after the copy
and is not in the unit, and the circle before holds only the unit's
bytes, so its ``p0`` is -1.  The bytes after the copy's end in its last
circle are unflagged, so a start in the circle after next finds no
successor there, and its run goes to the tail.  ``ps`` is set only to
keep that ``rfind`` within one circle.

Every run the scan finds covers at least three circles and is worth its
entry, so nothing is pruned.  One walk over the runs,
:func:`ccz.container._delta_encode`, delta encodes them against the
reference rule, bridging long forward gaps with rebase entries.  The same
walk finds the runs too far behind the reference base to be serialized.
The walk emits the entries as three byte columns (delta, byte, count)
holding what the archive stores, so :func:`ccz.compress` writes them as
they are; only :func:`encode`, :func:`trace_encode` and
:func:`delta_encode_entries` build :class:`CompressedEntry` records from
them.  :func:`_encode_pipeline`, which :func:`ccz.compress`,
:func:`encode` and :func:`trace_encode` share, clears the flags of the
runs left behind at the offsets :meth:`EncoderState.view` walks back,
the one place where runs turn back into literals, and builds the literal
stream once, at the end.  A run keeps its flags
exactly when it is serialized, so :func:`trace_encode` tells kept runs
from uncompressed ones by the flag at ``last`` alone.  Where the 0 flags
form at most one stretch per 256 input bytes, as on positional inputs, it
joins the input slices of those stretches (none at all when every byte is
flagged); otherwise :func:`_literals` selects the 0-flagged bytes from the
whole input.
Delta coding works on run ids and the columns;
:func:`delta_encode_entries` lays a list of :class:`RunNode` out as
columns, their bytes standing in for the input with ``last`` the
identity, and calls the same code.  :func:`remove_redundant_entries`
returns its arguments: it is the staged path's pruning step, which has
nothing left to do.
"""

from dataclasses import dataclass
from itertools import cycle, islice, product, starmap
from operator import add
from typing import Iterable

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

_SELECT_BYTES = 1 << 14  # the input bytes :func:`_literals` selects from at once


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

    The run table is the columns ``start``, ``count``, ``last`` and
    ``prev``, indexed by run id (see the module docstring).  A run's byte
    is ``data[last]``, and its other offsets are walked back from
    ``last`` by :meth:`view`.
    ``last_run`` is the id of the last run in theta order, -1 while there
    is none.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.flags = bytearray(len(data))
        self.start: list[int] = []
        self.count: list[int] = []
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
        scanned, -1 for none.  ``cursor`` is the offset in the previous
        circle of the last run matched or created in the current circle, -1
        at every circle start: a run is matched or made only after the
        cursor.  ``hits`` counts the bytes matched in the current circle,
        so the steady-copy gate passes when it equals the size of the
        circle just closed.  No list of runs is kept per circle: the
        module docstring's three facts let the flags and ``chains`` answer
        what a start asks.  Its neighbours in r-1 are the nearest flags
        around ``p`` there, and the runs they belong to are checked by
        their bytes' offsets in r-2; its successor in theta order is the
        run of the first flag past ``p0`` in r-2.  Every flag search stays
        within one circle.

        The byte loop zips ``offsets``, an iterator over
        ``range(len(data))``, with ``todo``, one over ``data``.  A bulk
        copy sets both to its end through their pickling hook and goes on
        to the next byte, so there is one loop and no restart.

        A second call returns at once when the first found a run; one that
        found none would find none again.
        """
        if self.last_run >= 0:
            return
        data, flags, cap = self.data, self.flags, MAX_COUNT
        start, count, last, prev = self.start, self.count, self.last, self.prev
        chains, where = [-1] * 256, [-1] * 256
        circle, cs, ps, pps, cursor, hits, last_run = 1, 0, 0, 0, -1, 0, -1
        # Circles 1 and 2 need no case of their own: pps == ps leaves no
        # circle two back, so no run starts there.
        n = len(data)
        offsets, todo = iter(range(n)), iter(data)
        for q, c in zip(offsets, todo):
            p = where[c]
            if p >= cs:
                circle += 1
                full = hits == q - cs
                pps, ps, cs = ps, cs, q
                cursor, hits = -1, 0
                if full:
                    size = q - ps
                    unit = data[ps:q]
                    least = 2 + _STEADY_BYTES // size
                    if data.startswith(unit * least, q):
                        reps = _repeats(data, unit, q, least, (n - q) // size)
                        # Byte i is literal in the circles gaps[i] + 127k
                        # and gaps[i] + 1 + 127k of the copy, counted from
                        # 0, and the copy ends in none of them.
                        active = [chains[b] for b in unit]
                        gaps = [cap - count[r] for r in active]
                        phases = set(gaps)
                        while reps and ((reps - 1) % cap in phases or (reps - 2) % cap in phases):
                            reps -= 1
                        if reps:
                            # Set what the next circle opening reads; the
                            # module docstring says why nothing else is read.
                            end = q + reps * size
                            last_run = self._copy(chains, active, gaps, circle, q, reps, last_run)
                            circle += reps - 1
                            flags[q:end] = b"\x01" * (end - q)
                            cs = end - size
                            ps = cs - size
                            for off, b in enumerate(data[cs:end], cs):
                                where[b] = off
                            offsets.__setstate__(end)
                            todo.__setstate__(end)
                            continue
            where[c] = q
            if p < ps:
                continue
            r = chains[c]
            # A run of c ends at the previous circle exactly when it holds c's offset there.
            if r >= 0 and last[r] == p and count[r] < cap:
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
                # The runs next to c at r-1 must be those next to it at
                # r-2, where each has its byte once.
                lo = flags.rfind(1, ps, p)
                if lo >= 0 and data.rfind(data[lo], pps, ps) > p0:
                    continue
                hi = flags.find(1, p, cs)
                if hi >= 0 and data.rfind(data[hi], pps, ps) < p0:
                    continue
                s = flags.find(1, p0, ps)
                r = chains[c] = len(last)
                start.append(circle - 2)
                count.append(3)
                last.append(q)
                if s < 0:
                    prev.append(last_run)
                    last_run = r
                else:
                    succ = chains[data[s]]
                    prev.append(prev[succ])
                    prev[succ] = r
                flags[p0] = flags[p] = 1
            flags[q] = 1
            hits += 1
            cursor = p
        self.last_run = last_run

    def _copy(
        self, chains: list[int], active: list[int], gaps: list[int], circle: int, q: int,
        reps: int, last_run: int,
    ) -> int:
        """The run columns of a steady copy; returns ``last_run``.

        The copy holds ``reps`` repeats of the circle before it, the unit
        of ``len(gaps)`` bytes, from offset ``q``, its first circle being
        ``circle``.  ``active`` holds the runs covering the circle before,
        in offset order: as every byte there is flagged, they are the
        chain-table runs of the unit's bytes.  Byte i of the unit is
        literal in the circles ``gaps[i] + 127k`` and ``gaps[i] + 1 +
        127k`` of the copy, counted from 0 (see the module docstring).
        Each run of ``active`` grows up to its cap, which is all a copy that
        caps no byte does.  The first of each pair of literal circles starts
        a run of its byte there, made two circles later, so the runs from
        the literal circles more than two before the copy's end are made
        here.  Every window of 127 circles has one such event per byte, in
        the same order: by circle, then by offset.  ``chains`` alone is left
        holding each byte's newest run, set from the byte at its ``last``
        offset for the last run made of each byte.
        """
        data, size = self.data, len(gaps)
        start, count, last, prev = self.start, self.count, self.last, self.prev
        for r, g in zip(active, gaps):
            g = min(g, reps)
            count[r] += g
            last[r] += g * size
        n0 = len(last)
        n = sum((reps + MAX_COUNT - 3 - g) // MAX_COUNT for g in gaps)
        if not n:
            return last_run
        order = sorted(range(size), key=gaps.__getitem__)
        # Window by window, the first n events are those made in the copy.
        # Each run's last offset is set as if capped, 126 circles past its event.
        windows = range(circle, circle + reps - 1, MAX_COUNT)
        start += islice(starmap(add, product(windows, [gaps[i] for i in order])), n)
        windows = range(q, q + (reps - 1) * size, MAX_COUNT * size)
        ends = [(gaps[i] + MAX_COUNT - 1) * size + i for i in order]
        last += islice(starmap(add, product(windows, ends)), n)
        count += [MAX_COUNT] * n
        for r in range(max(n0, n0 + n - size), n0 + n):
            k = circle + reps - start[r]  # the runs still open at the end
            if k < MAX_COUNT:
                count[r], last[r] = k, last[r] - (MAX_COUNT - k) * size
            chains[data[last[r]]] = r
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
        """Run ``r`` as a record, its offsets walked back from ``last``.

        Each step back is one circle: circles are contiguous and the byte
        occurs at most once in each, so its previous occurrence is the
        run's in the circle before.
        """
        data, n, off = self.data, self.count[r], self.last[r]
        c = data[off]
        offsets = [off]
        for _ in range(n - 1):
            off = data.rfind(c, 0, off)
            offsets.append(off)
        offsets.reverse()
        return RunNode(c, self.start[r], n, tuple(offsets))

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
        range(len(nodes)), bytes(n.ch for n in nodes), range(len(nodes)),
        [n.start for n in nodes], [n.count for n in nodes],
    )
    if behind:
        raise ValueError(f"run start {nodes[behind[0]].start} is too far behind the reference base")
    return _entry_records(*columns)


def remove_redundant_entries(
    run_list: Iterable[RunNode], flags: bytearray, literals: bytes
) -> tuple[list[RunNode], bytearray, bytes]:
    """Return the runs, flags and literals as they are.

    The scan makes no run shorter than three circles, and each such run is
    worth its 3-byte entry, so there is nothing to prune.  This stage stays
    only for the staged path of the benchmark harness until ROADMAP item 3.
    """
    return list(run_list), flags, literals


def _literals(data: bytes, flags: bytearray) -> bytes:
    """The bytes of ``data`` whose flag (0 or 1) is 0, selected in C.

    Each byte and its flag make one UTF-16-LE code unit, byte + 256 * flag.
    A flagged byte decodes to U+0100-U+01FF, which Latin-1 cannot encode and
    the ``ignore`` handler drops; every other code unit encodes back to its
    byte.  The input goes through in blocks of ``_SELECT_BYTES``, so the
    code units and their string, 4 bytes per byte, are held for one block
    at a time.
    """
    selected = []
    for i in range(0, len(data), _SELECT_BYTES):
        block = data[i:i + _SELECT_BYTES]
        pairs = bytearray(2 * len(block))
        pairs[::2] = block
        pairs[1::2] = flags[i:i + _SELECT_BYTES]
        selected.append(pairs.decode("utf-16-le").encode("latin-1", "ignore"))
    return b"".join(selected)


def _encode_pipeline(data: bytes) -> tuple[
    bytearray, bytes, tuple[bytearray, bytearray, bytearray], EncoderState
]:
    """Flags, literals and entry columns, then the scan state.

    ``compress`` writes the first three straight into the archive.  Every
    run the scan finds covers at least three circles, so each is worth its
    entry; where the runs leave a forward gap of more than 127 circles,
    :func:`_delta_encode` bridges it with rebase entries.  Only runs left
    behind the reference base are uncompressed, so a run of the state is
    serialized exactly when the flag at its ``last`` offset is still 1.
    A run left behind has the flags at its :meth:`EncoderState.view`
    offsets cleared, one per circle it covers.
    """
    state = EncoderState(data)
    state.run()
    columns, behind = _delta_encode(state.theta_order(), data, state.last, state.start, state.count)
    flags = state.flags
    for r in behind:
        for off in state.view(r).occurrences:
            flags[off] = 0
    # Positional inputs leave few stretches of literals, often none: copy
    # those, and select from every byte only where they are many.
    spans = _spans(flags, len(flags) >> 8)
    if spans is None:
        literals = _literals(data, flags)
    else:
        literals = b"".join([data[i:j] for i, j in spans])
    return flags, literals, columns, state


def trace_encode(data: bytes) -> EncodeTrace:
    """Encode ``data`` and report every kept and uncompressed run."""
    flags, literals, columns, state = _encode_pipeline(data)
    runs: list[RunNode] = []
    removed: list[RunNode] = []
    for r in state.theta_order():
        (runs if flags[state.last[r]] else removed).append(state.view(r))
    return EncodeTrace(
        EncodedParts(flags, literals, _entry_records(*columns)), tuple(runs), tuple(removed)
    )


def encode(data: bytes) -> EncodedParts:
    """Compress ``data`` into flags, literals and entries."""
    flags, literals, columns = _encode_pipeline(data)[:3]
    return EncodedParts(flags, literals, _entry_records(*columns))
