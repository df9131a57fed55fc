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
from ccz.circles import split_circles
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
    trace = trace_encode(b"THEPHONEBLAH")
    assert [(r.ch, r.start, r.count, r.occurrences) for r in trace.runs] == [
        (ord("H"), 1, 3, (1, 4, 11))
    ]
    assert [(r.ch, r.start, r.count, r.occurrences) for r in trace.removed] == [
        (ord("E"), 1, 2, (2, 7))
    ]


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


class TestRedundantRemoval:
    def test_non_reference_redundant_removed(self):
        h = RunNode(ord("H"), 1, 3, [1, 4, 11])
        e = RunNode(ord("E"), 1, 2, [2, 7])
        flags = bytearray([0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
        surviving, flags2, literals2 = remove_redundant_entries([h, e], flags, b"TPONBLA")
        assert surviving == [h]
        assert list(flags2) == [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]
        assert literals2 == b"TEPONEBLA"

    def test_reference_removed_when_delta_still_fits(self):
        a = RunNode(ord("A"), 1, 2, [0, 2])
        b = RunNode(ord("B"), 1, 3, [1, 3, 4])
        flags = bytearray([1, 1, 1, 1, 1, 0])
        surviving, flags2, literals2 = remove_redundant_entries([a, b], flags, b"A")
        assert surviving == [b]
        assert list(flags2) == [0, 1, 0, 1, 1, 0]
        assert literals2 == b"AAA"

    def test_no_redundant_entries_is_identity(self):
        a = RunNode(ord("A"), 1, 4, [0, 1, 2, 3])
        flags = bytearray([1, 1, 1, 1])
        surviving, flags2, literals2 = remove_redundant_entries([a], flags, b"")
        assert surviving == [a]
        assert list(flags2) == [1, 1, 1, 1]
        assert literals2 == b""

    def test_far_run_is_reached_by_a_rebase(self):
        # Every two-circle run is dropped, so one rebase carries the base
        # from 0 to circle 251, just before the run of 0xFF.
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
        assert parts.entries == []  # every run covers two circles, so none is kept

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
        # Far runs after a chain of two-circle runs: the re-removal oracle
        # finds no count-2 entry to remove.
        assert redundancy_violations(parse(compress(data)).entries) == []


def _split_inputs():
    """Each input with three cuts: right after a copy of repeated circles that a
    new byte extends, at the end of a copy that ``upto`` stops (a state fed
    only that far has nothing left to scan after the copy), and one byte past
    that end.
    """
    periodic = bytearray(b"ABCDEFG" * 1200)
    for k, byte in ((500, "C"), (2300, "Q"), (4100, "A"), (6001, "Z")):
        periodic[k] = ord(byte)  # in-unit and out-of-unit defects
    periodic[3500:3500] = b"Q"  # a new byte right after a whole repeat
    edges = _steady_edges()
    return {
        # Zeros after 'ABCDEFG'; 256-byte circles copied from offset 512.
        "steady_edges": (edges, (edges.index(bytes(300)), 256 * 50, 256 * 50 + 1)),
        "zeros": (bytes(5000), (2000, 100, 101)),  # copied from offset 2
        # 7-byte circles copied from offset 14 up to the defect at 500.
        "periodic": (bytes(periodic), (3500, 7 * 50, 7 * 50 + 1)),
        # Cap cycles of 7 * 127 bytes from offset 889 on; the first cut is 60
        # circles and 3 bytes into the fifth.
        "unit": (b"ABCDEFG" * 2000, (7 * 127 * 5 + 7 * 60 + 3, 7 * 60, 7 * 60 + 1)),
    }


@pytest.mark.parametrize("name", ["steady_edges", "zeros", "periodic", "unit"])
def test_feed_prefix_splits_change_nothing(name):
    # A copy of repeated circles stops at upto, so every cut hands the state
    # over at a different point of a copy.  A state fed one byte at a time
    # copies at most one one-byte circle per call: it stands for the byte loop.
    data, cuts = _split_inputs()[name]
    whole = EncoderState(data)
    whole.run()
    rng = random.Random(f"splits-{name}")
    for _ in range(4):
        state, bytewise, fed = EncoderState(data), EncoderState(data), 0
        for cut in sorted(rng.sample(range(1, len(data)), 6) + list(cuts)):
            state.feed_prefix(cut)
            for fed in range(fed + 1, cut + 1):
                bytewise.feed_prefix(fed)
            once = EncoderState(data)
            once.feed_prefix(cut)
            assert _snapshot(state) == _snapshot(once) == _snapshot(bytewise)
            # Offsets already scanned are not scanned again.
            for again in (cut, cut - 1):
                once.feed_prefix(again)
                assert _snapshot(once) == _snapshot(state)
            _assert_scans_prefix(state, cut)
        state.run()
        assert bytes(state.flags) == bytes(whole.flags)
        assert _run_tuples(state) == _run_tuples(whole)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.binary(min_size=1, max_size=600),
              st.lists(st.integers(0, 3), min_size=1, max_size=600).map(bytes)),
    st.data(),
)
def test_scan_circles_match_split_circles(data, draw):
    # After feed_prefix(cut) the current circle is the last one of data[:cut].
    state = EncoderState(data)
    for cut in sorted(draw.draw(st.lists(st.integers(1, len(data)), max_size=5))):
        state.feed_prefix(cut)
        starts = [start for start, _ in split_circles(data[:cut]).boundaries]
        assert state.circle == len(starts)
        assert state.cs == starts[-1]
        assert state.ps == (starts[-2] if len(starts) > 1 else 0)
        _assert_scans_prefix(state, cut)


def _assert_scans_prefix(state, cut):
    # feed_prefix(cut) leaves the state of a scan of data[:cut] and flags
    # nothing at or past cut.
    prefix = EncoderState(state.data[:cut])
    prefix.run()
    assert _snapshot(state, cut) == _snapshot(prefix)
    assert not any(state.flags[cut:])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=16, unique=True).map(bytes),
    st.integers(1, 3000),
    st.binary(max_size=40),
    st.binary(max_size=40),
    st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)), max_size=2),
    st.data(),
)
def test_cap_cycles_roll_over_as_the_byte_loop(unit, repeats, prefix, suffix, defects, draw):
    # A step shorter than one cap cycle (127 circles of the unit) never rolls
    # a cycle over in one step, so stepping stands for the byte loop.
    data = bytearray(prefix + unit * repeats + suffix)
    for at, byte in defects:
        data[int(at * len(data))] = byte
    data = bytes(data)
    whole = EncoderState(data)
    whole.run()
    stepped = EncoderState(data)
    fed = 0
    while fed < len(data):
        fed = min(fed + draw.draw(st.integers(1, 127 * len(unit) - 1)), len(data))
        stepped.feed_prefix(fed)
    assert bytes(whole.flags) == bytes(stepped.flags)
    assert _run_tuples(whole) == _run_tuples(stepped)
    assert _snapshot(whole) == _snapshot(stepped)


def test_zeros_roll_cap_cycles_over_in_one_step(monkeypatch):
    # 64 KiB of zeros is 516 cap cycles, and 64 KiB of a 7-byte unit 73;
    # rolling each over in the byte loop would search for repeats twice in
    # each cycle.
    calls = []
    repeats = encoder_module._repeats

    def counted(data, unit, q, *rest):
        calls.append(q)
        return repeats(data, unit, q, *rest)

    monkeypatch.setattr(encoder_module, "_repeats", counted)
    for data in bytes(65536), b"ABCDEFG" * 9363:
        calls.clear()
        EncoderState(data).run()
        assert len(calls) <= 8, data[:7]


@pytest.mark.parametrize("data", [bytes(262144), b"ABCDEFG" * 9363], ids=["zeros", "unit"])
def test_bulk_copies_skip_their_bytes_in_one_step(monkeypatch, data):
    # The byte loop resumes after a copy by moving its iterator, so it draws
    # only the bytes before the first copy and a few per copy.  Stepping past
    # the copied bytes would draw every byte, 262,144 on the zeros.
    drawn = []

    def counted(iterable, start=0):
        for item in enumerate(iterable, start):
            drawn.append(item[0])
            yield item

    monkeypatch.setattr(encoder_module, "enumerate", counted, raising=False)
    EncoderState(data).run()
    assert len(drawn) <= 256


def _unit_with_defects(seed, period, defects):
    """64 KiB of a unit of distinct bytes, ``defects`` bytes overwritten by unit bytes."""
    rng = random.Random(seed)
    unit = bytes(rng.sample(range(256), period))
    data = bytearray((unit * (65536 // period + 1))[:65536])
    for _ in range(defects):
        data[rng.randrange(65536)] = rng.choice(unit)
    return bytes(data)


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
    # The public stages, chained by hand, write compress's archive, and
    # pruning leaves no two-circle run.
    state = EncoderState(data)
    state.run()
    literals = bytes(itertools.compress(data, [not f for f in state.flags]))
    kept, flags, literals = remove_redundant_entries(state.run_list(), state.flags, literals)
    assert all(node.count != 2 for node in kept)
    try:
        entries = delta_encode_entries(kept)
    except ValueError:
        return  # a run too far behind the base: compress uncompresses it
    assert serialize(EncodedParts(flags, literals, entries)) == compress(data)


@settings(max_examples=300, deadline=None)
@given(_STAGED_INPUTS)
@example(b"ABABBA")  # the paradox case: the last A would cross B's run
@example(b"THEPHONEBLAH")
@example(b"ABBA")
@example(b"ABBC")
@example(b"ABABAB")
@example(bytes(16257))  # whole cap cycles, and one byte into the next
def test_scan_follows_the_reference_rule(data):
    # The scan, bulk copies and cap cycles included, finds the runs and
    # flags that the rule read byte by byte finds.
    state = EncoderState(data)
    state.run()
    flags, runs = ref_scan(data)
    assert bytes(state.flags) == flags
    assert state.run_list() == runs


def _snapshot(state, upto=None):
    # The scan state, with the flags below upto (all of them by default).
    return (
        state.circle, state.cursor, state.ps, state.cs, state._pos, state.active,
        state.active_occ, state.matched, state.matched_occ, bytes(state.flags[:upto]),
        state.chains, state.where, state.ch, state.start, state.count, state.first,
        state.last, state.prev, state.last_run,
    )


def _run_tuples(state):
    return [(r.ch, r.start, r.count, list(r.occurrences)) for r in state.run_list()]


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
