import gc
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ccz
import ccz.encoder as encoder_module
from ccz import compress
from ccz.container import CompressedEntry, EncodedParts, parse, serialize
from ccz.decoder import decode
from ccz.encoder import (
    EncoderState,
    RunNode,
    delta_encode_entries,
    encode,
    remove_redundant_entries,
    trace_encode,
)

from oracles import chain_circles, redundancy_violations, ref_scan, underflow_input
from test_acceptance import _steady_edges


def test_encode_paradox_example():
    parts = encode(b"ABABBA")
    assert list(parts.flags) == [0, 1, 0, 1, 1, 0]
    assert parts.literals == b"AAA"
    assert parts.entries == [CompressedEntry(1, ord("B"), 3)]


def test_encode_reference_string():
    parts = encode(b"THEPHONEBLAH")
    assert list(parts.flags) == [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]
    assert parts.literals == b"TEPONEBLA"
    assert parts.entries == [CompressedEntry(1, ord("H"), 3)]


def test_encode_single_circle():
    parts = encode(b"ABC")
    assert list(parts.flags) == [0, 0, 0]
    assert parts.literals == b"ABC"
    assert parts.entries == []


def test_encode_count_cap():
    parts = encode(b"ABCDEFG" * 128)
    assert len(parts.entries) == 7
    assert all(e.count == 127 for e in parts.entries)
    assert parts.literals == b"ABCDEFG"  # circle 128 stays literal past the cap
    assert list(parts.flags[-7:]) == [0] * 7
    assert len(serialize(parts)) == 165


def test_trace_reports_removed_runs():
    # E of THEPHONEBLAH is in two circles only, so it never makes a run.
    trace = trace_encode(b"THEPHONEBLAH")
    assert [(r.ch, r.start, r.count, r.occurrences) for r in trace.runs] == [
        (ord("H"), 1, 3, (1, 4, 11))
    ]
    assert trace.removed == ()
    # A run left behind the reference base is reported as removed.
    trace = trace_encode(underflow_input())
    assert [(r.ch, r.start, r.count, r.occurrences[:3]) for r in trace.removed] == [
        (0x65, 1, 127, (1, 3, 5))
    ]
    assert not any(trace.parts.flags[off] for off in trace.removed[0].occurrences)


def test_compress_leaves_no_cyclic_garbage():
    # The theta order must free itself by reference counting: a full
    # collection after compress finds nothing unreachable.
    data = bytes(random.Random(4).choices(b"ACGT", k=65536))
    gc.collect()
    gc.disable()
    try:
        compress(data)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_four_letter_archive_length_is_pinned():
    # Runs made at their third circle: a scan that started two-circle runs
    # and pruned them again wrote 62,409 bytes here.
    assert len(compress(bytes(random.Random(4).choices(b"ACGT", k=65536)))) == 56820


def test_scan_leaves_nothing_for_the_collector():
    # The run table is columns of ints: finding 16k runs allocates no
    # container the collector tracks per run, so no collection is triggered.
    data = bytes(random.Random(6).choices(b"ACGT", k=65536))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        EncoderState(data).run()
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 1


def test_compress_leaves_nothing_for_the_collector():
    # Entries go from the run table to the archive as byte columns, so
    # compress allocates no tracked object per run or entry either.
    data = bytes(random.Random(6).choices(b"ACGT", k=65536))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        compress(data)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 1


def test_archive_is_the_same_under_any_hash_seed():
    # Nothing in the encoder may depend on set or dict order of hashed keys.
    script = (
        "import hashlib, random, ccz\n"
        "rng = random.Random(9)\n"
        "data = (b'the quick brown fox jumps over the lazy dog. ' * 40\n"
        "        + bytes(rng.choices(b'ACGT', k=3000)) + rng.randbytes(2000)\n"
        "        + b'ABCDEFG' * 300 + bytes(500))\n"
        "print(hashlib.sha256(ccz.compress(data)).hexdigest())\n"
    )
    src = str(Path(ccz.__file__).resolve().parents[1])
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def run(ch, start, count):
    occurrences = list(range(start * 1000, start * 1000 + count))  # placeholders
    return RunNode(ord(ch) if isinstance(ch, str) else ch, start, count, occurrences)


class TestDeltaEncode:
    def test_reference_handover(self):
        entries = delta_encode_entries([run("A", 1, 2), run("B", 1, 3)])
        assert entries == [CompressedEntry(1, ord("A"), 2), CompressedEntry(0, ord("B"), 3)]

    def test_first_delta_from_zero_base(self):
        assert delta_encode_entries([run("X", 5, 3)]) == [CompressedEntry(5, ord("X"), 3)]

    def test_long_gap_rebases(self):
        entries = delta_encode_entries([run("Q", 300, 3)])
        assert entries == [
            CompressedEntry(255, 0, 0),
            CompressedEntry(44, 0, 0),
            CompressedEntry(1, ord("Q"), 3),
        ]

    def test_gap_between_runs_rebases(self):
        entries = delta_encode_entries([run("A", 1, 3), run("B", 400, 3)])
        assert entries[0] == CompressedEntry(1, ord("A"), 3)
        assert [e.delta for e in entries[1:-1]] == [255, 143]  # base 1 -> 399
        assert entries[-1] == CompressedEntry(1, ord("B"), 3)

    def test_negative_delta_within_range(self):
        entries = delta_encode_entries([run("A", 130, 127), run("B", 10, 3)])
        assert entries[-1] == CompressedEntry(-120, ord("B"), 3)

    def test_unserializable_underflow_raises(self):
        with pytest.raises(ValueError, match="behind the reference"):
            delta_encode_entries([run("A", 200, 3), run("B", 10, 3)])

    def test_byte_out_of_range_raises(self):
        with pytest.raises(ValueError):
            delta_encode_entries([RunNode(256, 1, 3)])


class TestRedundantRemoval:
    @pytest.mark.parametrize(
        "data, runs, flags, literals",
        [
            (b"AAAA", [RunNode(ord("A"), 1, 4, [0, 1, 2, 3])], [1, 1, 1, 1], b""),
            (
                b"THEPHONEBLAH",
                [RunNode(ord("H"), 1, 3, [1, 4, 11]), RunNode(ord("E"), 1, 2, [2, 7])],
                [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1],
                b"TPONBLA",
            ),
        ],
        ids=["count-4", "count-2"],
    )
    def test_no_redundant_entries_is_identity(self, data, runs, flags, literals):
        # A count-2 run is a legal v1 entry (counts 2..127); the scan never
        # makes one, and a hand-built one passes through as it is.
        kept, flags2, literals2 = remove_redundant_entries(runs, bytearray(flags), literals)
        assert kept == runs
        assert list(flags2) == flags
        assert literals2 == literals
        archive = serialize(EncodedParts(flags2, literals2, delta_encode_entries(kept)))
        assert decode(archive) == data

    def test_far_run_is_reached_by_a_rebase(self):
        # No two-circle run is made, so one rebase carries the base from 0
        # to circle 251, just before the run of 0xFF.
        data = chain_circles(256, triple_circles={252, 253, 254})
        parts = encode(data)
        assert parts.entries == [CompressedEntry(251, 0, 0), CompressedEntry(1, 255, 3)]
        archive = serialize(parts)
        assert len(archive) == 608
        assert decode(archive) == data

    def test_far_run_is_reached_by_a_chain_of_rebases(self):
        data = chain_circles(420, triple_circles={400, 401, 402})
        parts = encode(data)
        assert parts.entries == [
            CompressedEntry(255, 0, 0),
            CompressedEntry(144, 0, 0),
            CompressedEntry(1, 255, 3),
        ]
        archive = serialize(parts)
        assert len(archive) == 980
        assert decode(archive) == data

    def test_chain_of_two_circle_runs_keeps_no_entry(self):
        parts = encode(chain_circles(300))
        assert parts.entries == []  # no byte is in three circles, so no run is made

    @pytest.mark.parametrize(
        "data",
        [
            chain_circles(256, triple_circles={252, 253, 254}),
            chain_circles(420, triple_circles={400, 401, 402}),
            chain_circles(300) + b"\xff\xff\xff",
        ],
        ids=["rebase", "rebase-chain", "trailing-run"],
    )
    def test_chain_inputs_keep_no_two_circle_entry(self, data):
        # Far runs after a chain of bytes in two circles each: the
        # re-removal oracle finds no count-2 entry to remove.
        assert redundancy_violations(parse(compress(data)).entries) == []


def _periodic_with_splice():
    """7-byte circles copied from offset 14 up to the defect at 500, with
    in-unit and out-of-unit defects and a new byte right after a whole repeat.
    """
    periodic = bytearray(b"ABCDEFG" * 1200)
    for k, byte in ((500, "C"), (2300, "Q"), (4100, "A"), (6001, "Z")):
        periodic[k] = ord(byte)
    periodic[3500:3500] = b"Q"
    return bytes(periodic)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True).map(bytes),
    st.integers(1, 40_000),
    st.binary(max_size=40),
    st.binary(max_size=40),
    st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)), max_size=4),
)
def test_cap_cycles_roll_over_as_the_byte_loop(unit, n, prefix, suffix, defects):
    # Defects that swap in another byte of the unit restart runs at other
    # circles, so the runs of one copy cap in several phases.  The copies
    # through those caps find what ref_scan, the rule read byte by byte, finds.
    data = bytearray((unit * (n // len(unit) + 1))[:n])
    for at, i in defects:
        data[int(at * n)] = unit[i % len(unit)]
    data = prefix + bytes(data) + suffix
    state = EncoderState(data)
    state.run()
    flags, runs = ref_scan(data)
    assert bytes(state.flags) == flags
    assert state.run_list() == runs


def _repeat_searches(monkeypatch, data):
    """How often a scan of ``data`` calls _repeats."""
    calls = []
    repeats = encoder_module._repeats

    def counted(*args):
        calls.append(args)
        return repeats(*args)

    monkeypatch.setattr(encoder_module, "_repeats", counted)
    EncoderState(data).run()
    return len(calls)


def test_zeros_roll_cap_cycles_over_in_one_step(monkeypatch):
    # 64 KiB of zeros is 516 cap cycles, and 64 KiB of a 7-byte unit 73;
    # rolling each over in the byte loop would search for repeats twice in
    # each cycle.
    for data in bytes(65536), b"ABCDEFG" * 9363:
        assert _repeat_searches(monkeypatch, data) <= 8, data[:7]


def test_staggered_caps_end_no_copy(monkeypatch):
    # Each of 16 in-unit defects restarts runs at other circles, so the runs
    # after it cap in several phases.  One copy goes on through those caps to
    # the next defect; a copy that stopped at each cap searched 153 times.
    assert _repeat_searches(monkeypatch, _unit_with_defects(3, 13, 16)) <= 2 * 16 + 2


class _SearchLog:
    """Records the span of every ``find`` and ``rfind`` made on it in ``spans``."""

    def find(self, *args):
        self.spans.append(args[1:])
        return super().find(*args)

    def rfind(self, *args):
        self.spans.append(args[1:])
        return super().rfind(*args)


class _DataSearchLog(_SearchLog, bytes):
    """Input bytes that log their searches."""


class _FlagSearchLog(_SearchLog, bytearray):
    """Flags that log their searches."""


@pytest.mark.parametrize(
    "data",
    [
        b"ABCDEFG" * 40 + b"XY" * 3,
        _periodic_with_splice(),
        b"the cat sat on the mat " * 50,
        bytes(random.Random(4).choices(b"ACGT", k=5000)),
    ],
    ids=["after-copy", "splice", "text", "acgt"],
)
def test_searches_two_circles_back_read_that_circle(data):
    # A start looks for bytes in circle r-2 only, also in the circle after a
    # bulk copy, whose circle two back starts where the copy set ps: each
    # search reads at most one circle.
    logged = _DataSearchLog(data)
    logged.spans = []
    state = EncoderState(logged)
    state.flags = _FlagSearchLog(len(data))
    state.flags.spans = []
    state.run()
    circles = {(start, start + size) for start, size in ccz.split_circles(data).boundaries}
    # Circle 2 has no circle two back, and searches the empty span (0, 0).
    assert logged.spans and set(logged.spans) <= circles | {(0, 0)}
    # The flag searches for a start's neighbours in r-1 and its successor in
    # r-2 stay inside one circle too, which keeps encode time linear.
    assert state.flags.spans
    for lo, hi in state.flags.spans:
        assert any(start <= lo <= hi <= end for start, end in circles), (lo, hi)


def _unit13_defect_per_4k(n):
    rng = random.Random(5)
    unit = b"ABCDEFGHIJKLM"
    data = bytearray((unit * (n // 13 + 1))[:n])
    for block in range(0, n, 4096):
        data[block + rng.randrange(4096)] = rng.choice(unit)
    return bytes(data)


def test_repeat_searches_grow_linearly(monkeypatch):
    # One in-unit defect per 4 KiB of a 13-byte unit: the searches per MiB at
    # 4 MiB stay within 1.3x of those at 256 KiB.
    small, large = (
        _repeat_searches(monkeypatch, _unit13_defect_per_4k(n)) / n for n in (256 << 10, 4 << 20)
    )
    assert large <= 1.3 * small


def _unit_with_defects(seed, period, defects):
    """64 KiB of a unit of distinct bytes, ``defects`` bytes overwritten by unit bytes."""
    rng = random.Random(seed)
    unit = bytes(rng.sample(range(256), period))
    data = bytearray((unit * (65536 // period + 1))[:65536])
    for _ in range(defects):
        data[rng.randrange(65536)] = rng.choice(unit)
    return bytes(data)


@pytest.mark.parametrize(
    "data, bound",
    [(bytes(262144), 256), (b"ABCDEFG" * 9363, 256), (_unit_with_defects(2, 13, 2), 400)],
    ids=["zeros", "unit", "unit13"],
)
def test_bulk_copies_skip_their_bytes_in_one_step(data, bound):
    # The byte loop moves its bytes iterator past a copy in one step, so it
    # draws only the bytes before the first copy and a few per copy.  Stepping
    # past the copied bytes would draw every byte, 262,144 on the zeros.  On
    # unit13 the runs cap in staggered circles after each defect; a copy that
    # stopped at each cap would leave 1,849 bytes to the byte loop.
    counted = _CountedBytes(data)
    EncoderState(counted).run()
    assert 0 < counted.it.drawn <= bound


class _CountedBytes(bytes):
    """Bytes whose iterator, kept as ``it``, counts the bytes drawn from it."""

    def __iter__(self):
        self.it = _CountingIterator(bytes(self))
        return self.it


class _CountingIterator:
    """Iterates over ``data``, counting the bytes drawn; forwards the pickling hook."""

    def __init__(self, data):
        self.it, self.drawn = iter(data), 0

    def __iter__(self):
        return self

    def __next__(self):
        c = next(self.it)
        self.drawn += 1
        return c

    def __setstate__(self, pos):
        self.it.__setstate__(pos)


@pytest.mark.parametrize(
    "data",
    [bytes(262144), _unit_with_defects(1, 7, 2), _unit_with_defects(2, 13, 2)],
    ids=["zeros", "unit7", "unit13"],
)
def test_few_literal_stretches_are_sliced_not_selected(monkeypatch, data):
    # The literals of inputs with a few stretches of them are joined from
    # input slices; selecting them would step over every input byte.
    selections = []

    def counted(*args):
        selections.append(args)
        return itertools.compress(*args)

    monkeypatch.setattr(encoder_module, "compress", counted)
    parts = encode(data)
    archive = compress(data)
    assert not selections
    # The unit inputs have literals, so there is something to select.
    assert bool(parts.literals) == (data != bytes(len(data)))
    assert decode(archive) == data


@settings(deadline=None)
@given(
    st.integers(1, 16),
    st.integers(0, 12_000),
    st.lists(st.tuples(st.integers(0, 11_999), st.integers(0, 255)), max_size=60),
    st.randoms(use_true_random=False),
)
def test_literals_are_the_bytes_flagged_0(period, n, defects, rng):
    # Periodic inputs with up to 60 defects leave from none to hundreds of
    # literal stretches, on both sides of the len >> 8 budget.
    unit = bytes(rng.sample(range(256), period))
    data = bytearray((unit * (n // period + 1))[:n])
    for q, b in defects:
        if q < n:
            data[q] = b
    data = bytes(data)
    parts = encode(data)
    assert parts.literals == bytes(itertools.compress(data, [not f for f in parts.flags]))


@pytest.mark.parametrize("unit", [b"A", b"AB", b"ABC"])
def test_repeats_finds_every_count_below_the_limit(unit):
    # The search in _repeats over every known lower bound and every limit,
    # with the unit broken at each of its bytes and repeated after the break.
    for actual in range(41):
        for cut in range(len(unit)):
            data = b"xy" + unit * actual + unit[:cut] + b"Z" + unit * 50
            for limit in range(46):
                expected = min(actual, limit)
                for present in range(expected + 1):
                    assert encoder_module._repeats(data, unit, 2, present, limit) == expected


def _periodic_with_defects(unit, repeats, defects):
    data = bytearray(unit * repeats)
    for at, byte in defects:
        data[at % len(data)] = byte
    return bytes(data)


def _chain_with_triples(n, firsts):
    return chain_circles(n, triple_circles={k + i for k in firsts for i in range(3)})


_STAGED_INPUTS = st.one_of(
    st.binary(max_size=1024),
    st.lists(st.integers(0, 3), max_size=1024).map(bytes),
    st.builds(
        _periodic_with_defects,
        st.binary(min_size=1, max_size=16),
        st.integers(1, 300),
        st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), max_size=8),
    ),
    st.builds(
        _chain_with_triples,
        st.integers(1, 450),
        st.lists(st.integers(1, 448), max_size=3),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_STAGED_INPUTS)
def test_staged_calls_compose_to_compress(data):
    # The public stages, chained by hand, write compress's archive.  The
    # scan makes no run of fewer than three circles, and the pruning stage
    # passes its arguments through.
    state = EncoderState(data)
    state.run()
    found = state.run_list()
    assert all(node.count >= 3 for node in found)
    literals = bytes(itertools.compress(data, [not f for f in state.flags]))
    kept, flags, pruned = remove_redundant_entries(found, state.flags, literals)
    assert (kept, flags, pruned) == (found, state.flags, literals)
    try:
        entries = delta_encode_entries(kept)
    except ValueError:
        return  # a run too far behind the base: compress uncompresses it
    assert serialize(EncodedParts(flags, pruned, entries)) == compress(data)


def _staggered_unit(repeats):
    """``ABCDEFG`` repeated, byte 23 set to ``A``: the runs cap in three circles of each 127."""
    data = bytearray(b"ABCDEFG" * repeats)
    data[23] = ord("A")
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(_STAGED_INPUTS)
@example(b"ABABBA")  # the paradox case: the last A would cross B's run
@example(b"THEPHONEBLAH")
@example(b"ABBA")
@example(b"ABBC")
@example(b"ABABAB")
@example(bytes(16257))  # whole cap cycles, and one byte into the next
@example(_unit_with_defects(3, 13, 16)[:20000])  # caps in staggered circles
# A 256-byte unit whose three defects stagger its caps.
@example(_periodic_with_defects(bytes(range(256)), 160, [(600, 7), (1500, 200), (2100, 3)]))
@example(_steady_edges())  # zeros after 'ABCDEFG'; 256-byte circles copied from 512
@example(bytes(5000))  # copied from offset 2
@example(_periodic_with_splice())
@example(b"ABCDEFG" * 2000)  # cap cycles of 7 * 127 bytes from offset 889 on
# X and Y follow a copy in its last circle and in the two after it: the
# first of those reads pps from the copy, and the second makes their runs.
@example(b"ABCDEFG" * 40 + b"XY" * 3)
# Circles B|BA|ACB|AC|AC: the A and then the C run, made in one circle, both go before B's.
@example(b"BBAACBACAC")
# Circles A|AB|BA|B|B and A|AB|BA|BA|B: B's run, made in circle 5, goes before
# the A run found by its successor search in circle 3.  That run ended at
# circle 3 in the first input and still covers circle 4 in the second.
@example(b"AABBABB")
@example(b"AABBABAB")
# Copies whose end, before it backs off, falls on the first and on the
# second circle in which a byte is literal after its cap: in one phase,
# and among staggered caps in the second window.
@example(bytes(128))
@example(bytes(129))
@example(_staggered_unit(254))
@example(_staggered_unit(255))
def test_scan_follows_the_reference_rule(data):
    # The scan, bulk copies and cap cycles included, finds the runs and
    # flags that the rule read byte by byte finds.  A second run() scans
    # nothing again.
    state = EncoderState(data)
    state.run()
    flags, runs = ref_scan(data)
    assert bytes(state.flags) == flags
    assert state.run_list() == runs
    state.run()
    assert bytes(state.flags) == flags
    assert state.run_list() == runs


def test_underflow_run_is_uncompressed():
    data = underflow_input()
    trace = trace_encode(data)
    assert any(r.count == 127 for r in trace.removed), "the deep run must fall back to literals"
    assert all(-128 <= e.delta <= 127 for e in trace.parts.entries if e.count)
    assert decode(serialize(trace.parts)) == data


def test_in_unit_defects_leave_runs_behind():
    # Two defects that only swap in bytes of the unit: 26 capped runs then
    # start too far behind the reference base and fall back to literals.
    data = bytearray((b"ABCDEFGHIJKLM" * 5042)[:65536])
    data[20001:20003] = b"MB"
    data = bytes(data)
    trace = trace_encode(data)
    assert len(trace.removed) == 26 and all(r.count > 2 for r in trace.removed)
    assert all(-128 <= e.delta <= 127 for e in trace.parts.entries if e.count)
    assert decode(compress(data)) == data
    # Here and on underflow_input(), the kept and the removed runs split the
    # reference scan's runs, offsets and theta order included, and clearing
    # the removed ones leaves a flag 1 exactly at a kept run's offset.
    for data, trace in ((data, trace), (underflow_input(), trace_encode(underflow_input()))):
        _, runs = ref_scan(data)
        gone = set(trace.removed)
        assert [r for r in runs if r not in gone] == list(trace.runs)
        assert [r for r in runs if r in gone] == list(trace.removed)
        kept = {off for r in trace.runs for off in r.occurrences}
        assert {i for i, flag in enumerate(trace.parts.flags) if flag} == kept


def test_within_circle_matches_are_ordered():
    # cursor monotonicity: occurrences of runs in one circle are increasing
    for data in (b"ABABBA", b"THEPHONEBLAH", b"AB" * 50, bytes(range(32)) * 20):
        trace = trace_encode(data)
        by_circle = {}
        for order, summary in enumerate(trace.runs):
            for i, off in enumerate(summary.occurrences):
                by_circle.setdefault(summary.start + i, []).append((off, order))
        for entries in by_circle.values():
            offsets = [off for off, _ in sorted(entries)]
            orders = [order for _, order in sorted(entries)]
            assert offsets == sorted(offsets)
            assert orders == sorted(orders)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=1024))
def test_roundtrip_random(data):
    assert decode(serialize(encode(data))) == data


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=1024).map(bytes))
def test_roundtrip_small_alphabet(data):
    assert decode(serialize(encode(data))) == data


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 200))
def test_roundtrip_periodic(period, repeats):
    data = bytes(range(64, 64 + period)) * repeats
    assert decode(serialize(encode(data))) == data


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=600))
def test_entry_budget_accounting(data):
    parts = encode(data)
    covered = sum(e.count for e in parts.entries if e.count)
    assert sum(parts.flags) == covered
    assert covered + len(parts.literals) == len(data)
    for e in parts.entries:
        assert e.count == 0 or 2 <= e.count <= 127
