"""Run detection across consecutive circles, in one pass over the input.

The encoder visits each byte once, left to right.  Circles are found on
the way: a byte already in the current circle's ``{byte: offset}`` dict
opens the next circle, and that dict becomes the previous circle's
lookup as it is.  A byte ``c`` of circle r >= 2 is handled by the first
matching rule:

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
at once (each count grows by k and each ``last`` by k circle sizes), up
to the first of the count cap, ``upto`` and a changed byte; the byte loop
takes over from there.  Only stretches of at least
``2 + 16 // size`` repeats are copied, so inputs without them pay one
``startswith`` per fully matched circle.

After the scan, runs covering only two circles are uncompressed again (a
3-byte entry saving 2 bytes is a net loss) unless dropping one would leave
a later entry's start unreachable within a signed byte of the preceding
reference.  Finally one walk over the surviving list delta encodes it
against the reference rule described in :mod:`ccz.container`; the same
walk finds the runs too far behind the reference base to be serialized,
which are uncompressed as well.  :func:`encode` clears the flags of both
kinds of uncompressed runs (a pruned run covers two circles, so its flags
sit at ``first`` and ``last``) and builds the literal stream once, at the
end.  Pruning and delta coding work on run ids and the columns; the public
:func:`remove_redundant_entries` and :func:`delta_encode_entries` lay a
list of :class:`RunNode` out the same way and call the same code.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, NamedTuple, Sequence

from .container import (
    DELTA_MAX,
    DELTA_MIN,
    MAX_COUNT,
    REBASE_MAX,
    CompressedEntry,
    DeltaContext,
    EncodedParts,
)

# Repeated circles are copied in one step only from 2 + _STEADY_BYTES // size
# repeats on; see _steady_repeats.
_STEADY_BYTES = 16

# Flips 0/1 flags into literal selectors for itertools.compress.
_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class RunNode(NamedTuple):
    """One run as a standalone record, for the staged API and traces.

    ``occurrences`` holds the absolute input offset of the byte in every
    covered circle, innermost first, so ``len(occurrences) == count``.
    :meth:`EncoderState.view` builds these records on request; the encoder
    itself keeps runs as columns of ints.
    """

    ch: int
    start: int
    count: int = 2
    occurrences: tuple[int, ...] = ()

    @property
    def last(self) -> int:
        """Index of the outermost circle this run covers."""
        return self.start + self.count - 1


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
    ``circle`` is the 1-based index of the circle being scanned and
    ``occ`` maps each of its bytes to its offset; ``prev_occ`` is the same
    dict for the previous circle.  ``active`` lists the ids of the runs
    covering the previous circle in theta order, ``active_occ`` their
    offsets there, and ``cursor`` is the index in ``active`` of the last run
    matched or created in the current circle, -1 at every circle start.
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
        self.occ: dict[int, int] = {}
        self.prev_occ: dict[int, int] = {}
        self.active: list[int] = []
        self.active_occ: list[int] = []
        self.matched: list[int] = []
        self.matched_occ: list[int] = []
        self.cursor = -1
        self._pos = 0                        # next offset to process

    def run(self) -> None:
        self.feed_prefix(len(self.data))

    def feed_prefix(self, upto: int) -> None:
        """Process all offsets below ``upto``, opening a circle that starts there."""
        data, flags, chains = self.data, self.flags, self.chains
        run_ch, start, count, first, last, prev = (
            self.ch, self.start, self.count, self.first, self.last, self.prev
        )
        last_run = self.last_run
        circle, occ, prev_occ, cursor = self.circle, self.occ, self.prev_occ, self.cursor
        active, active_occ = self.active, self.active_occ
        matched, matched_occ = self.matched, self.matched_occ
        # Circle 1 needs no case of its own: prev_occ is empty and no run exists yet.
        it = enumerate(data[self._pos:upto], self._pos)
        for q, c in it:
            if c in occ:
                circle += 1
                prev_occ, occ, cursor = occ, {}, -1
                active, active_occ, matched, matched_occ = matched, matched_occ, [], []
                size = len(prev_occ)
                reps = len(active) == size and _steady_repeats(data, q, size, active, count, upto)
                if reps:
                    # Every run of the previous circle extends once per repeat,
                    # in order; leave the state the byte loop would leave.
                    span = reps * size
                    for r in active:
                        count[r] += reps
                        last[r] += span
                    flags[q:q + span] = b"\x01" * span
                    circle += reps - 1
                    end = q + span
                    unit = data[q - size:q]
                    prev_occ = dict(zip(unit, range(end - 2 * size, end - size)))
                    occ = dict(zip(unit, range(end - size, end)))
                    active_occ = list(range(end - 2 * size, end - size))
                    matched, matched_occ = active.copy(), list(range(end - size, end))
                    cursor = size - 1
                    next(islice(it, span - 1, span - 1), None)
                    continue
            occ[c] = q
            p = prev_occ.get(c)
            if p is None:
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
        # Open a circle that starts at upto, as the loop would on its first byte.
        if self._pos < len(data) and data[self._pos] in occ:
            circle += 1
            prev_occ, occ, cursor = occ, {}, -1
            active, active_occ, matched, matched_occ = matched, matched_occ, [], []
        self.last_run = last_run
        self.circle, self.occ, self.prev_occ, self.cursor = circle, occ, prev_occ, cursor
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


def _steady_repeats(
    data: bytes, q: int, size: int, active: list[int], count: list[int], upto: int
) -> int:
    """Whole repeats of the ``size``-byte circle before ``q`` to copy from ``q`` on.

    The count is capped by the slack of the fullest run in ``active`` (ids
    into the ``count`` column) and by ``upto``; 0 means the byte loop goes
    on.  A stretch of fewer than ``2 + _STEADY_BYTES // size`` repeats is
    left to the byte loop, so that short circles that recur only a few
    times do not pay for the count.
    """
    unit = data[q - size:q]
    least = 2 + _STEADY_BYTES // size
    if not data.startswith(unit * least, q):
        return 0
    limit = min(MAX_COUNT - max(map(count.__getitem__, active)), (upto - q) // size)
    if limit <= least:
        return max(limit, 0)
    if data.startswith(unit * limit, q):
        return limit
    present, absent = least, limit  # repeats known present, and known absent
    while absent - present > 1:
        mid = (present + absent) // 2
        if data.startswith(unit * mid, q):
            present = mid
        else:
            absent = mid
    return present


def paradox_check(state: EncoderState, c: int) -> bool:
    """Would admitting ``c`` next cross a run already matched this circle?

    True exactly when ``c`` has an aligned extension or start available but
    any placement would swap order with a run matched earlier in the
    current circle.
    """
    p = state.prev_occ.get(c)
    if p is None:
        return False
    r = state.chains[c]
    if r >= 0 and state.last[r] == p and state.count[r] < MAX_COUNT:
        return bisect_left(state.active_occ, p) <= state.cursor
    if state.flags[p]:
        return False
    return bisect_right(state.active_occ, p) <= state.cursor


def _columns(nodes: Sequence[RunNode]) -> tuple[list[int], list[int], list[int]]:
    """The ``ch``, ``start`` and ``count`` columns of ``nodes``, indexed by position."""
    return [n.ch for n in nodes], [n.start for n in nodes], [n.count for n in nodes]


def delta_encode_entries(run_list: Iterable[RunNode]) -> list[CompressedEntry]:
    """Delta encode run starts against the running reference.

    A gap the signed byte cannot span forward is bridged by rebase entries
    advancing the base to start - 1, leaving a real delta of +1.  A start
    more than 128 circles behind the base cannot be serialized at all, so a
    list with one raises ``ValueError``; :func:`encode` uncompresses such
    runs instead.
    """
    nodes = list(run_list)
    entries, behind = _delta_encode(range(len(nodes)), *_columns(nodes))
    if behind:
        raise ValueError(f"run start {nodes[behind[0]].start} is too far behind the reference base")
    return entries


def _delta_encode(
    order: Iterable[int], ch: list[int], start: list[int], count: list[int]
) -> tuple[list[CompressedEntry], list[int]]:
    """Entries for the serializable runs of ``order``, plus the ids left ``behind``.

    Rebases only move the base forward, so a start more than 128 circles
    behind it cannot be serialized.  Such a run never updates the reference
    (its reach is below the base), so skipping it leaves every other delta
    unchanged.  It takes nested insertions under the count cap, yet is not
    rare: 5 to 10 of the benchmark's 1,000 short mixed inputs and some
    256 KiB inputs, all periodic with defects, have one.
    """
    ctx = DeltaContext()
    out: list[CompressedEntry] = []
    behind: list[int] = []
    for r in order:
        first_circle = start[r]
        delta = first_circle - ctx.base
        if delta > DELTA_MAX:
            while ctx.base < first_circle - 1:
                hop = min(REBASE_MAX, first_circle - 1 - ctx.base)
                out.append(CompressedEntry(hop, 0, 0))
                ctx.advance(hop)
            delta = 1
        elif delta < DELTA_MIN:
            behind.append(r)
            continue
        out.append(CompressedEntry(delta, ch[r], count[r]))
        ctx.observe(first_circle, count[r])
    return out, behind


def remove_redundant_entries(
    run_list: Sequence[RunNode], flags: bytearray, literals: bytes
) -> tuple[list[RunNode], bytearray, bytes]:
    """Uncompress two-circle runs, except delta-critical reference nodes.

    A count-2 entry costs 3 bytes to cover 2, so it is flipped back to
    literals, unless it would have become the reference node and without it
    some following entry, up to the next reference, falls outside the
    representable delta range.  Decisions are made in serialized order, and
    the pass repeats until stable: an entry retained only to anchor runs
    that a later sweep removed is itself removable, and at the fixpoint
    every surviving count-2 entry is justified against the final list.
    Returns the surviving runs plus rewritten flags and literals.
    """
    _, start, count = _columns(run_list)
    kept, removed = _prune(range(len(run_list)), start, count)
    return (
        [run_list[i] for i in kept],
        *_uncompress((run_list[i] for i in removed), flags, literals),
    )


def _prune(
    order: Iterable[int], start: list[int], count: list[int]
) -> tuple[list[int], list[int]]:
    """The fixpoint of :func:`remove_redundant_entries` on run ids: (kept, removed)."""
    surviving = list(order)
    removed: list[int] = []
    changed = True
    while changed:
        changed = False
        ctx = DeltaContext()
        kept: list[int] = []
        for i, r in enumerate(surviving):
            if count[r] == 2 and _removal_is_safe(surviving, i, ctx, start, count):
                removed.append(r)
                changed = True
                continue
            ctx.observe(start[r], count[r])
            kept.append(r)
        surviving = kept
    return surviving, removed


def _removal_is_safe(
    order: list[int], i: int, ctx: DeltaContext, start: list[int], count: list[int]
) -> bool:
    r = order[i]
    if start[r] + count[r] <= ctx.reach:
        return True  # not a reference node: later deltas never point at it
    for j in range(i + 1, len(order)):
        later = order[j]
        if not DELTA_MIN <= start[later] - ctx.base <= DELTA_MAX:
            return False
        if start[later] + count[later] > ctx.reach:
            return True  # a new reference takes over; nothing beyond it is affected
    return True


def _uncompress(
    runs: Iterable[RunNode], flags: bytearray, literals: bytes
) -> tuple[bytearray, bytes]:
    """Flip the bytes of ``runs`` back to literals.

    Returns a new flag array and the literal stream with each flipped byte
    inserted at its place among the old literals.
    """
    flags = bytearray(flags)
    flipped: dict[int, int] = {}
    for node in runs:
        for off in node.occurrences:
            flags[off] = 0
            flipped[off] = node.ch
    if not flipped:
        return flags, literals
    out = bytearray()
    old = iter(literals)
    for off, flag in enumerate(flags):
        if not flag:
            out.append(flipped[off] if off in flipped else next(old))
    return flags, bytes(out)


def _encode_pipeline(
    data: bytes,
) -> tuple[EncodedParts, EncoderState, list[int], list[int], list[int]]:
    """Parts, the scan state, and the ids of the runs found, left by pruning, and left behind."""
    state = EncoderState(data)
    state.run()
    found = state.theta_order()
    pruned, removed = _prune(found, state.start, state.count)
    entries, behind = _delta_encode(pruned, state.ch, state.start, state.count)
    flags, first, last = state.flags, state.first, state.last
    for r in removed:  # two circles each
        flags[first[r]] = flags[last[r]] = 0
    for r in behind:
        for off in state.view(r).occurrences:
            flags[off] = 0
    literals = bytes(compress(data, flags.translate(_INVERT)))
    return EncodedParts(flags, literals, entries), state, found, pruned, behind


def trace_encode(data: bytes) -> EncodeTrace:
    """Encode ``data`` and report every kept and uncompressed run."""
    parts, state, found, pruned, behind = _encode_pipeline(data)
    pruned_set, behind_set = set(pruned), set(behind)
    removed = [r for r in found if r not in pruned_set] + behind
    return EncodeTrace(
        parts,
        tuple(state.view(r) for r in pruned if r not in behind_set),
        tuple(state.view(r) for r in removed),
    )


def encode(data: bytes) -> EncodedParts:
    """Compress ``data`` into flags, literals and entries."""
    return _encode_pipeline(data)[0]
