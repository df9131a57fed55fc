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

Runs live in a doubly linked list kept in theta order.  Two runs may never
cross: wherever both cover a circle, the earlier run's occurrence must sit
at the lower offset.  New runs are appended at the tail unless a live run
with a later previous-circle occurrence forces insertion before it.  The
list order is the serialization order, which is what lets the decoder
match flagged positions to entries by a single forward scan per circle.

Lookup state is a 256-slot chain table indexed by byte value holding the
most recent run of that byte; older runs of the byte are never needed.

After the scan, runs covering only two circles are uncompressed again (a
3-byte entry saving 2 bytes is a net loss) unless dropping one would leave
a later entry's start unreachable within a signed byte of the preceding
reference.  Finally the surviving list is delta encoded against the
reference rule described in :mod:`ccz.container`.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Iterable, Sequence

from .container import (
    DELTA_MAX,
    DELTA_MIN,
    MAX_COUNT,
    REBASE_MAX,
    CompressedEntry,
    DeltaContext,
    EncodedParts,
)


class RunNode:
    """One detected run: a byte value recurring in consecutive circles.

    ``occurrences`` holds the absolute input offset of the byte in every
    covered circle, innermost first, so ``len(occurrences) == count``.
    """

    __slots__ = ("ch", "start", "count", "occurrences", "order_prev", "order_next")

    def __init__(self, ch: int, start: int, count: int = 2, occurrences: list[int] | None = None):
        self.ch = ch
        self.start = start
        self.count = count
        self.occurrences: list[int] = occurrences if occurrences is not None else []
        self.order_prev: RunNode | None = None   # theta-order doubly linked list
        self.order_next: RunNode | None = None

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
    The linked list hanging off ``order_head`` is the global theta order.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.flags = bytearray(len(data))
        self.chains: list[RunNode | None] = [None] * 256
        self.order_head: RunNode | None = None
        self.order_tail: RunNode | None = None
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
        for q, c in enumerate(data[self._pos:upto], self._pos):
            if c in occ:
                circle += 1
                prev_occ, occ, cursor = occ, {}, -1
                active, active_occ, matched, matched_occ = matched, matched_occ, [], []
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
                self._splice(head, active[idx] if idx < len(active) else None)
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

    def _splice(self, node: RunNode, follower: RunNode | None) -> None:
        """Link ``node`` immediately before ``follower``, or at the tail."""
        if follower is None:
            node.order_prev = self.order_tail
            if self.order_tail is not None:
                self.order_tail.order_next = node
            else:
                self.order_head = node
            self.order_tail = node
        else:
            node.order_prev = follower.order_prev
            node.order_next = follower
            if follower.order_prev is not None:
                follower.order_prev.order_next = node
            else:
                self.order_head = node
            follower.order_prev = node

    def run_list(self) -> list[RunNode]:
        """All runs in theta (serialization) order."""
        out = []
        node = self.order_head
        while node is not None:
            out.append(node)
            node = node.order_next
        return out


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
    more than 128 circles behind the base cannot be serialized at all;
    :func:`encode` never produces such a list (see ``_drop_inexpressible``),
    so a direct call with one raises ``ValueError``.
    """
    ctx = DeltaContext()
    out: list[CompressedEntry] = []
    for node in run_list:
        delta = node.start - ctx.base
        if delta > DELTA_MAX:
            while ctx.base < node.start - 1:
                hop = min(REBASE_MAX, node.start - 1 - ctx.base)
                out.append(CompressedEntry(hop, 0, 0))
                ctx.advance(hop)
            delta = 1
        elif delta < DELTA_MIN:
            raise ValueError(
                f"run start {node.start} is {-delta} circles behind the reference base"
            )
        out.append(CompressedEntry(delta, node.ch, node.count))
        ctx.observe(node.start, node.count)
    return out


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
    flags = bytearray(flags)
    surviving = list(run_list)
    flipped: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        ctx = DeltaContext()
        kept: list[RunNode] = []
        for i, node in enumerate(surviving):
            if node.count == 2 and _removal_is_safe(surviving, i, ctx):
                for off in node.occurrences:
                    flags[off] = 0
                    flipped[off] = node.ch
                changed = True
                continue
            ctx.observe(node.start, node.count)
            kept.append(node)
        surviving = kept
    return surviving, flags, _reinsert_literals(flags, literals, flipped)


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


def _reinsert_literals(flags: bytearray, literals: bytes, flipped: dict[int, int]) -> bytes:
    """Rebuild the literal stream after some flags were flipped back to 0."""
    if not flipped:
        return literals
    out = bytearray()
    old = iter(literals)
    for off, flag in enumerate(flags):
        if flag:
            continue
        out.append(flipped[off] if off in flipped else next(old))
    return bytes(out)


def _drop_inexpressible(
    run_list: Sequence[RunNode], flags: bytearray, literals: bytes
) -> tuple[list[RunNode], bytearray, bytes, list[RunNode]]:
    """Uncompress runs whose delta would underflow the signed byte.

    Rebases only move the base forward, so a start far behind it cannot be
    serialized.  Such a run can never update the reference (its reach is
    below the base), hence dropping it leaves every other delta unchanged
    and one forward pass suffices.  Reachable only through nested run
    insertions under the count cap, which is not rare: it fires on 5 to 10
    of the benchmark's 1,000 short mixed inputs, all of them periodic with
    defects, and on some 256 KiB periodic inputs with defects.
    """
    ctx = DeltaContext()
    kept: list[RunNode] = []
    dropped: list[RunNode] = []
    flipped: dict[int, int] = {}
    for node in run_list:
        delta = node.start - ctx.base
        if delta > DELTA_MAX:
            ctx.advance(node.start - 1 - ctx.base)  # mirror the rebase emission
        elif delta < DELTA_MIN:
            dropped.append(node)
            for off in node.occurrences:
                flags[off] = 0
                flipped[off] = node.ch
            continue
        kept.append(node)
        ctx.observe(node.start, node.count)
    if not flipped:
        return list(run_list), flags, literals, []
    return kept, flags, _reinsert_literals(flags, literals, flipped), dropped


def _encode_pipeline(data: bytes) -> tuple[EncodedParts, list[RunNode], list[RunNode]]:
    state = EncoderState(data)
    state.run()
    all_runs = state.run_list()
    literals = bytes(compress(data, map(not_, state.flags)))

    surviving, flags, literals = remove_redundant_entries(all_runs, state.flags, literals)
    kept_ids = {id(node) for node in surviving}
    removed = [node for node in all_runs if id(node) not in kept_ids]
    surviving, flags, literals, dropped = _drop_inexpressible(surviving, flags, literals)
    removed.extend(dropped)

    parts = EncodedParts(flags, literals, delta_encode_entries(surviving))
    return parts, surviving, removed


def trace_encode(data: bytes) -> EncodeTrace:
    """Encode ``data`` and report every kept and uncompressed run."""
    parts, surviving, removed = _encode_pipeline(data)
    return EncodeTrace(
        parts,
        tuple(_summary(node) for node in surviving),
        tuple(_summary(node) for node in removed),
    )


def _summary(node: RunNode) -> RunSummary:
    return RunSummary(node.ch, node.start, node.count, tuple(node.occurrences))


def encode(data: bytes) -> EncodedParts:
    """Compress ``data`` into flags, literals and entries."""
    return _encode_pipeline(data)[0]
