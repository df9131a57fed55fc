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
New runs are appended to the state's ``tail`` list unless a live run with
a later previous-circle occurrence forces insertion immediately before it;
such a run joins that run's ``before`` list.  Every run points only at runs
created after it, so the structure holds no reference cycles and is freed
as soon as the encoder drops it.  A post-order walk (each run's ``before``
runs, then the run) yields the theta order, which is the serialization
order: that is what lets the decoder match flagged positions to entries by
a single forward scan per circle.

Lookup state is a 256-slot chain table indexed by byte value holding the
most recent run of that byte; older runs of the byte are never needed.

Repeated circles are copied in one step.  When circle r opens and every
byte of circle r-1 was matched, each of those bytes is covered by a run
ending at r-1, and ``active`` holds these runs in offset order.  If the
input repeats circle r-1 from there on, the rule above extends each run
in turn: the chain table holds it, the bisect over ``active_occ`` finds it
at the index just past the cursor, and no start or paradox can occur.  So
k repeats extend every run by k circles, in the same order, which is done
at once, up to the first of the count cap, ``upto`` and a changed byte;
the byte loop takes over from there.  Only stretches of at least
``2 + 16 // size`` repeats are copied, so inputs without them pay one
``startswith`` per fully matched circle.

After the scan, runs covering only two circles are uncompressed again (a
3-byte entry saving 2 bytes is a net loss) unless dropping one would leave
a later entry's start unreachable within a signed byte of the preceding
reference.  Finally one walk over the surviving list delta encodes it
against the reference rule described in :mod:`ccz.container`; the same
walk finds the runs too far behind the reference base to be serialized,
which are uncompressed as well.  :func:`encode` clears the flags of both
kinds of uncompressed runs and builds the literal stream once, at the end.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import not_
from typing import Iterable, Iterator, Sequence

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


class RunNode:
    """One detected run: a byte value recurring in consecutive circles.

    ``occurrences`` holds the absolute input offset of the byte in every
    covered circle, innermost first, so ``len(occurrences) == count``.
    ``before`` lists, in insertion order, the runs spliced immediately
    before this one in theta order; it is ``None`` until there is one.
    """

    __slots__ = ("ch", "start", "count", "occurrences", "before")

    def __init__(self, ch: int, start: int, count: int = 2, occurrences: list[int] | None = None):
        self.ch = ch
        self.start = start
        self.count = count
        self.occurrences: list[int] = occurrences if occurrences is not None else []
        self.before: list[RunNode] | None = None

    @property
    def last(self) -> int:
        """Index of the outermost circle this run covers."""
        return self.start + self.count - 1

    def __repr__(self):
        return f"RunNode(ch={self.ch:#04x}, start={self.start}, count={self.count})"


@dataclass(frozen=True)
class RunSummary:
    """Immutable view of a run, for traces and inspection output."""

    ch: int
    start: int
    count: int
    occurrences: tuple[int, ...]


@dataclass(frozen=True)
class EncodeTrace:
    """Encoder output plus which runs survived and which were uncompressed."""

    parts: EncodedParts
    runs: tuple[RunSummary, ...]
    removed: tuple[RunSummary, ...]


class EncoderState:
    """Mutable scan state over one input stream.

    ``circle`` is the 1-based index of the circle being scanned and
    ``occ`` maps each of its bytes to its offset; ``prev_occ`` is the same
    dict for the previous circle.  ``active`` lists the runs covering the
    previous circle in theta order, ``active_occ`` their offsets there, and
    ``cursor`` is the index in ``active`` of the last run matched or
    created in the current circle, -1 at every circle start.  Runs matched
    in the current circle and their offsets collect in ``matched`` and
    ``matched_occ``, which become ``active`` and ``active_occ`` when the
    next circle opens.  ``chains[c]`` is the most recent run of byte ``c``.
    ``tail`` holds the runs appended at the end of the theta order.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.flags = bytearray(len(data))
        self.chains: list[RunNode | None] = [None] * 256
        self.tail: list[RunNode] = []
        self.circle = 1
        self.occ: dict[int, int] = {}
        self.prev_occ: dict[int, int] = {}
        self.active: list[RunNode] = []
        self.active_occ: list[int] = []
        self.matched: list[RunNode] = []
        self.matched_occ: list[int] = []
        self.cursor = -1
        self._pos = 0                        # next offset to process

    def run(self) -> None:
        self.feed_prefix(len(self.data))

    def feed_prefix(self, upto: int) -> None:
        """Process all offsets below ``upto``, opening a circle that starts there."""
        data, flags, chains = self.data, self.flags, self.chains
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
                reps = len(active) == size and _steady_repeats(data, q, size, active, upto)
                if reps:
                    # Every run of the previous circle extends once per repeat,
                    # in order; leave the state the byte loop would leave.
                    span = reps * size
                    for node in active:
                        off = node.occurrences[-1]
                        node.count += reps
                        node.occurrences.extend(range(off + size, off + span + 1, size))
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
            head = chains[c]
            if head is not None and head.start + head.count == circle and head.count < MAX_COUNT:
                idx = bisect_left(active_occ, head.occurrences[-1])
                if idx <= cursor:
                    continue
                head.count += 1
                head.occurrences.append(q)
            else:
                p = prev_occ.get(c)
                if p is None or flags[p]:
                    continue
                idx = bisect_right(active_occ, p)
                if idx <= cursor:
                    continue
                head = chains[c] = RunNode(c, circle - 1, 2, [p, q])
                if idx == len(active):
                    self.tail.append(head)
                elif active[idx].before is None:
                    active[idx].before = [head]
                else:
                    active[idx].before.append(head)
                active.insert(idx, head)
                active_occ.insert(idx, p)
                flags[p] = 1
            flags[q] = 1
            cursor = idx
            matched.append(head)
            matched_occ.append(q)
        self._pos = max(self._pos, upto)
        # Open a circle that starts at upto, as the loop would on its first byte.
        if self._pos < len(data) and data[self._pos] in occ:
            circle += 1
            prev_occ, occ, cursor = occ, {}, -1
            active, active_occ, matched, matched_occ = matched, matched_occ, [], []
        self.circle, self.occ, self.prev_occ, self.cursor = circle, occ, prev_occ, cursor
        self.active, self.active_occ = active, active_occ
        self.matched, self.matched_occ = matched, matched_occ

    def run_list(self) -> list[RunNode]:
        """All runs in theta (serialization) order.

        A post-order walk with an explicit stack: insertions before a run
        nest as deep as the input makes them, too deep for recursion.
        """
        out: list[RunNode] = []
        stack: list[tuple[RunNode | None, Iterator[RunNode]]] = [(None, iter(self.tail))]
        while stack:
            owner, pending = stack[-1]
            for node in pending:
                if node.before is not None:
                    stack.append((node, iter(node.before)))
                    break
                out.append(node)
            else:
                stack.pop()
                if owner is not None:
                    out.append(owner)
        return out


def _steady_repeats(data: bytes, q: int, size: int, active: list[RunNode], upto: int) -> int:
    """Whole repeats of the ``size``-byte circle before ``q`` to copy from ``q`` on.

    The count is capped by the slack of the fullest run in ``active`` and by
    ``upto``; 0 means the byte loop goes on.  A stretch of fewer than
    ``2 + _STEADY_BYTES // size`` repeats is left to the byte loop, so that
    short circles that recur only a few times do not pay for the count.
    """
    unit = data[q - size:q]
    least = 2 + _STEADY_BYTES // size
    if not data.startswith(unit * least, q):
        return 0
    limit = min(MAX_COUNT - max(node.count for node in active), (upto - q) // size)
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
    head = state.chains[c]
    if head is not None and head.last == state.circle - 1 and head.count < MAX_COUNT:
        return bisect_left(state.active_occ, head.occurrences[-1]) <= state.cursor
    p = state.prev_occ.get(c)
    if p is None or state.flags[p]:
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
    entries, behind = _delta_encode(run_list)
    if behind:
        raise ValueError(f"run start {behind[0].start} is too far behind the reference base")
    return entries


def _delta_encode(run_list: Iterable[RunNode]) -> tuple[list[CompressedEntry], list[RunNode]]:
    """Entries for the serializable runs, plus the runs left ``behind``.

    Rebases only move the base forward, so a start more than 128 circles
    behind it cannot be serialized.  Such a run never updates the reference
    (its reach is below the base), so skipping it leaves every other delta
    unchanged.  It takes nested insertions under the count cap, yet is not
    rare: 5 to 10 of the benchmark's 1,000 short mixed inputs and some
    256 KiB inputs, all periodic with defects, have one.
    """
    ctx = DeltaContext()
    out: list[CompressedEntry] = []
    behind: list[RunNode] = []
    for node in run_list:
        delta = node.start - ctx.base
        if delta > DELTA_MAX:
            while ctx.base < node.start - 1:
                hop = min(REBASE_MAX, node.start - 1 - ctx.base)
                out.append(CompressedEntry(hop, 0, 0))
                ctx.advance(hop)
            delta = 1
        elif delta < DELTA_MIN:
            behind.append(node)
            continue
        out.append(CompressedEntry(delta, node.ch, node.count))
        ctx.observe(node.start, node.count)
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
    surviving, removed = _prune(run_list)
    return (surviving, *_uncompress(removed, flags, literals))


def _prune(run_list: Sequence[RunNode]) -> tuple[list[RunNode], list[RunNode]]:
    """The fixpoint of :func:`remove_redundant_entries`: (kept, removed) runs."""
    surviving = list(run_list)
    removed: list[RunNode] = []
    changed = True
    while changed:
        changed = False
        ctx = DeltaContext()
        kept: list[RunNode] = []
        for i, node in enumerate(surviving):
            if node.count == 2 and _removal_is_safe(surviving, i, ctx):
                removed.append(node)
                changed = True
                continue
            ctx.observe(node.start, node.count)
            kept.append(node)
        surviving = kept
    return surviving, removed


def _removal_is_safe(run_list: Sequence[RunNode], i: int, ctx: DeltaContext) -> bool:
    node = run_list[i]
    if node.start + node.count <= ctx.reach:
        return True  # not a reference node: later deltas never point at it
    for j in range(i + 1, len(run_list)):
        later = run_list[j]
        if not DELTA_MIN <= later.start - ctx.base <= DELTA_MAX:
            return False
        if later.start + later.count > ctx.reach:
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
) -> tuple[EncodedParts, list[RunNode], list[RunNode], list[RunNode]]:
    """Parts, plus the runs found, those left by pruning, and those left behind."""
    state = EncoderState(data)
    state.run()
    found = state.run_list()
    pruned, removed = _prune(found)
    entries, behind = _delta_encode(pruned)
    flags = state.flags
    for node in chain(removed, behind):
        for off in node.occurrences:
            flags[off] = 0
    literals = bytes(compress(data, map(not_, flags)))
    return EncodedParts(flags, literals, entries), found, pruned, behind


def trace_encode(data: bytes) -> EncodeTrace:
    """Encode ``data`` and report every kept and uncompressed run."""
    parts, found, pruned, behind = _encode_pipeline(data)
    pruned_set, behind_set = set(pruned), set(behind)
    removed = [node for node in found if node not in pruned_set] + behind
    return EncodeTrace(
        parts,
        tuple(_summary(node) for node in pruned if node not in behind_set),
        tuple(_summary(node) for node in removed),
    )


def _summary(node: RunNode) -> RunSummary:
    return RunSummary(node.ch, node.start, node.count, tuple(node.occurrences))


def encode(data: bytes) -> EncodedParts:
    """Compress ``data`` into flags, literals and entries."""
    return _encode_pipeline(data)[0]
