import gc
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import ccz.decoder as decoder_module
from ccz import compress, decompress
from ccz.container import (
    _STEADY_BYTES,
    HEADER_SIZE,
    ArchiveFormatError,
    CompressedEntry,
    EncodedParts,
    parse,
    serialize,
)
from ccz.decoder import CorruptArchiveError, decode, undo_delta
from ccz.encoder import RunNode, delta_encode_entries, encode

from oracles import (
    chain_circles,
    check_non_crossing,
    ref_decode,
    ref_unpack_flags,
    strictly_increasing,
    underflow_input,
)


class TestUndoDelta:
    def test_inverse_of_reference_handover(self):
        live = undo_delta([CompressedEntry(1, ord("A"), 2), CompressedEntry(0, ord("B"), 3)])
        assert [(e.ch, e.start, e.count) for e in live] == [(ord("A"), 1, 2), (ord("B"), 1, 3)]

    def test_single_entry(self):
        live = undo_delta([CompressedEntry(5, ord("X"), 3)])
        assert [(e.ch, e.start, e.count) for e in live] == [(ord("X"), 5, 3)]
        assert live == [RunNode(ord("X"), 5, 3)]

    def test_rebases_accumulate(self):
        live = undo_delta(
            [
                CompressedEntry(255, 0, 0),
                CompressedEntry(44, 0, 0),
                CompressedEntry(1, ord("Q"), 3),
            ]
        )
        assert [(e.ch, e.start, e.count) for e in live] == [(ord("Q"), 300, 3)]

    def test_rejects_nonpositive_start(self):
        with pytest.raises(CorruptArchiveError):
            undo_delta([CompressedEntry(0, ord("A"), 2)])
        with pytest.raises(CorruptArchiveError):
            undo_delta([CompressedEntry(3, ord("A"), 2), CompressedEntry(-5, ord("B"), 2)])

    @pytest.mark.parametrize("advance", [0, 256])
    def test_rejects_rebase_advance_out_of_range(self, advance):
        with pytest.raises(CorruptArchiveError, match=f"rebase advance {advance} outside"):
            undo_delta([CompressedEntry(advance, 0, 0), CompressedEntry(1, ord("A"), 2)])


def runs_strategy():
    # absolute runs in plausible serialized order: starts mostly ascending
    def build(raw):
        runs = []
        start = 0
        for ch, gap, count in raw:
            start = max(1, start + gap)
            runs.append((ch, start, count))
        return runs

    return st.lists(
        st.tuples(st.integers(0, 255), st.integers(0, 100), st.integers(2, 127)),
        max_size=40,
    ).map(build)


@given(runs_strategy())
def test_delta_composition_law(runs):
    nodes = [RunNode(ch, start, count, list(range(count))) for ch, start, count in runs]
    live = undo_delta(delta_encode_entries(nodes))
    assert [(e.ch, e.start, e.count) for e in live] == runs


def test_decode_golden_archives():
    assert decode(serialize(encode(b"ABABBA"))) == b"ABABBA"
    assert decode(serialize(encode(b"THEPHONEBLAH"))) == b"THEPHONEBLAH"
    assert decode(serialize(encode(b""))) == b""


def test_decompress_leaves_nothing_for_the_collector():
    # Entries stay byte columns from the archive to the decoder's int
    # columns, so decoding 16k entries allocates no tracked object per entry.
    archive = compress(bytes(random.Random(6).choices(b"ACGT", k=65536)))
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        decompress(archive)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) <= 1


def test_decode_errors_when_no_entry_is_admissible():
    zeros = encode(bytes(4))
    assert zeros.entries == [CompressedEntry(1, 0, 4)]
    cases = [
        # the only entry starts at circle 5; both flags are in circles 1 and 2
        EncodedParts(bytearray([1, 1]), b"", [CompressedEntry(5, ord("B"), 2)]),
        # the archive of bytes(4) with its run moved to circles 2-5: circle 1
        # would be empty
        EncodedParts(zeros.flags, zeros.literals, [CompressedEntry(2, 0, 4)]),
    ]
    for parts in cases:
        with pytest.raises(CorruptArchiveError, match="no admissible entry"):
            decode(serialize(parts))


def test_decode_errors_on_duplicate_byte_in_circle():
    # two runs of the same byte over the same circles cannot coexist, however
    # many all-flag circles would follow the first
    for count in (2, 12):
        parts = EncodedParts(
            bytearray([1] * 2 * count),
            b"",
            [CompressedEntry(1, ord("B"), count), CompressedEntry(0, ord("B"), count)],
        )
        with pytest.raises(CorruptArchiveError, match="duplicates circle"):
            decode(serialize(parts))


def test_decode_errors_on_entry_left_unfilled():
    cases = [
        # entry covers circles 1..2 but the literals push its second flag to circle 3
        ([1, 0, 0, 0, 1], b"AAA", [CompressedEntry(1, ord("B"), 2)]),
        # nine all-flag circles "XY", then circle 10 holds "X" and the repeated
        # literal "X" closes it before "Y" has its turn
        (
            [1] * 18 + [1, 0] + [1] * 21,
            b"X",
            [CompressedEntry(1, ord("X"), 20), CompressedEntry(0, ord("Y"), 20)],
        ),
    ]
    for flags, literals, entries in cases:
        parts = EncodedParts(bytearray(flags), literals, entries)
        with pytest.raises(CorruptArchiveError, match="unfilled"):
            decode(serialize(parts))


def test_decode_steady_circles_across_entry_changes():
    # A runs over circles 1-10, B over 1-20, C over 6-15; every byte is flagged.
    # C starts and A ends inside the all-flag stretch.
    data = b"AB" * 5 + b"ABC" * 5 + b"BC" * 5 + b"B" * 5
    entries = [
        CompressedEntry(1, ord("A"), 10),
        CompressedEntry(0, ord("B"), 20),
        CompressedEntry(5, ord("C"), 10),
    ]
    archive = serialize(EncodedParts(bytearray([1] * len(data)), b"", entries))
    assert decode(archive) == data
    assert ref_decode(archive)[0] == data


def test_reference_decoder_agrees_on_examples():
    for data in (
        b"ABABBA",
        b"THEPHONEBLAH",
        b"AAAA",
        b"ABCDEFG" * 128,
        b"AB" * 300,
        chain_circles(300),
        underflow_input(),
    ):
        archive = serialize(encode(data))
        assert decode(archive) == data
        ref_out, matches, occurrences = ref_decode(archive)
        assert ref_out == data
        for circle_matches in matches:
            assert strictly_increasing(circle_matches)
        assert check_non_crossing(occurrences)


@settings(max_examples=250, deadline=None)
@given(st.binary(max_size=512))
def test_reference_decoder_agrees_random(data):
    archive = serialize(encode(data))
    out = decode(archive)
    ref_out, matches, _ = ref_decode(archive)
    assert out == data
    assert ref_out == data
    for circle_matches in matches:
        assert circle_matches == sorted(circle_matches)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=700).map(bytes))
def test_decode_circles_match_input_segmentation(data):
    from ccz.circles import split_circles

    archive = serialize(encode(data))
    out = decode(archive)
    assert out == data
    # the decoder's uniqueness rule recomputes exactly these circles
    _, matches, occurrences = ref_decode(archive)
    seg = split_circles(out)
    if data:
        assert len(matches) == seg.circle_count
    for idx, occ in occurrences.items():
        for circle, offset in occ.items():
            start, length = seg.boundaries[circle - 1]
            assert start <= offset < start + length


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=16, unique=True).map(bytes),
    st.integers(1, 6),
    st.integers(-5, 5),
    st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 15)), max_size=3),
)
def test_windows_roll_over_as_the_reference_decoder(unit, windows, extra, defects):
    # Whole windows of 127 circles of the unit; in-unit defects break some
    # windows' bytes or split their entries' end circles.
    data = bytearray(unit * (127 * windows + extra))
    for at, i in defects:
        data[int(at * len(data))] = unit[i % len(unit)]
    archive = compress(bytes(data))
    assert decode(archive) == ref_decode(archive)[0] == data


def _hand_built(runs, literals=()):
    """An archive of ``runs`` (ch, start, count) in serialized order.

    Every flag is 1 except one 0 flag per (offset, byte) of ``literals``.
    """
    flags = bytearray([1]) * (sum(count for _, _, count in runs) + len(literals))
    for offset, _ in literals:
        flags[offset] = 0
    entries = delta_encode_entries(RunNode(ch, start, count) for ch, start, count in runs)
    return serialize(EncodedParts(flags, bytes(byte for _, byte in sorted(literals)), entries))


def _three_windows():
    return [(c, 1 + 127 * w, 127) for w in range(3) for c in b"ABC"]


def test_three_window_archive_is_what_the_encoder_writes():
    assert _hand_built(_three_windows()) == compress(b"ABC" * 381)


def _window_variants():
    A, B, C, Z = b"ABCZ"
    base = _three_windows()

    def with_runs(**changed):
        return [changed.get(f"r{i}", run) for i, run in enumerate(base)]

    return {
        "byte": (with_runs(r4=(Z, 128, 127)), ()),
        "duplicate byte": (with_runs(r4=(C, 128, 127)), ()),
        "short count": (with_runs(r3=(A, 128, 126)), ()),
        "count moved to the next window": (with_runs(r3=(A, 128, 126), r6=(A, 254, 127)), ()),
        "overlapping count": (with_runs(r6=(A, 254, 127)), ()),
        "late start": (with_runs(r5=(C, 129, 126)), ()),
        "staggered first window": (with_runs(r2=(C, 2, 127), r5=(C, 129, 126)), ()),
        "new literal": (base, [(3 * 200 + 1, Z)]),
        "literal repeats the circle": (base, [(3 * 200 + 3, A)]),
        "literal duplicates an entry": (base, [(3 * 200 + 1, B)]),
        "entry inside the span, last": (base + [(Z, 200, 2)], ()),
        "entry inside the span, between windows": (base[:6] + [(Z, 200, 2)] + base[6:], ()),
        "entry duplicates inside the span": (base + [(A, 200, 2)], ()),
        "entry at the window line": (base[:6] + [(Z, 255, 2)] + base[6:], ()),
    }


@pytest.mark.parametrize("name", sorted(_window_variants()))
def test_roll_over_stops_where_a_window_changes(name):
    runs, literals = _window_variants()[name]
    archive = _hand_built(runs, literals)
    try:
        expected = ref_decode(archive)[0]
    except AssertionError:
        with pytest.raises(CorruptArchiveError):
            decode(archive)
    else:
        assert decode(archive) == expected


def _counted_copies(monkeypatch):
    """Record the flag position of every bulk copy ``decode`` makes."""
    copies = []
    skip_to = decoder_module._skip_to

    def counted(it, pos):
        copies.append(pos)
        skip_to(it, pos)

    monkeypatch.setattr(decoder_module, "_skip_to", counted)
    return copies


@pytest.mark.parametrize("data", [bytes(262144), b"ABCDEFG" * 9363], ids=["zeros", "unit"])
def test_windows_roll_over_in_one_step(monkeypatch, data):
    # Both inputs are 127-circle windows of count-127 entries: 2,065 and 74
    # windows, each one bulk copy when decoded window by window, where both
    # take two in all.
    copies = _counted_copies(monkeypatch)
    assert decode(compress(data)) == data
    assert len(copies) == 2


def _window_inputs():
    zeros = [bytes(n) for n in (1, 127, 128, 254, 255, 381, 127 * 9 - 1, 127 * 9 + 2, 65536)]
    reps = [127 * m + e for m in (1, 2, 3, 5, 8) for e in (-1, 0, 1, 2)]
    return zeros + [bytes(range(65, 65 + k)) * r for k in range(1, 17) for r in reps]


def test_windows_count_every_window_but_the_live_one(monkeypatch):
    # A roll-over one window short decodes the same bytes (the byte loop
    # finishes it), so only the count that _windows returns shows it.
    counts = []
    windows = decoder_module._windows

    def recorded(*args):
        counts.append(windows(*args))
        return counts[-1]

    monkeypatch.setattr(decoder_module, "_windows", recorded)
    for data in _window_inputs():
        k = len(set(data))  # the unit's bytes: one entry per byte and window
        archive = compress(data)
        entries = len(parse(archive).entries)
        counts.clear()
        assert decode(archive) == data
        assert counts == ([entries // k - 1] if entries >= 2 * k else []), (k, len(data))


def test_short_stretches_go_through_the_byte_loop(monkeypatch):
    # A 4-letter alphabet steadies its live list for a few 1-4 byte circles
    # at a time; copying those one by one made 2,674 bulk copies here.
    data = bytes(random.Random(6).choices(b"ACGT", k=65536))
    copies = _counted_copies(monkeypatch)
    assert decode(compress(data)) == data
    assert len(copies) <= 16


@pytest.mark.parametrize("extra, copied", [(0, False), (1, True)], ids=["at", "past"])
def test_steady_copy_needs_more_than_the_threshold(monkeypatch, extra, copied):
    # Four entries live over circles 1..count: circle 1 builds the list, so
    # the steady stretch from circle 2 holds (count - 1) * 4 bytes.
    count = _STEADY_BYTES // 4 + 1 + extra
    archive = _hand_built([(c, 1, count) for c in b"ACGT"])
    copies = _counted_copies(monkeypatch)
    assert decode(archive) == ref_decode(archive)[0] == b"ACGT" * count
    assert bool(copies) == copied


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_short_circle_mutations_raise_only_codec_errors(choice):
    """1-3 overwritten bytes in the archive of a 1-4 letter input.

    Random and periodic inputs over small alphabets open a circle every few
    bytes, so ``decode`` rebuilds its live list at most circles and copies
    only the rare long steady stretches.
    """
    letters = st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True)
    alphabet = bytes(choice.draw(letters))
    length = choice.draw(st.integers(0, 2000))
    rng = random.Random(choice.draw(st.integers(0, 2**32 - 1)))
    if choice.draw(st.booleans()):
        data = bytes(rng.choices(alphabet, k=length))
    else:
        data = bytearray(alphabet * length)[:length]
        for _ in range(choice.draw(st.integers(0, 8)) if length else 0):
            data[rng.randrange(length)] = rng.choice(alphabet)
        data = bytes(data)
    archive = compress(data)
    assert decode(archive) == data
    mutated = bytearray(archive)
    for _ in range(choice.draw(st.integers(1, 3))):
        mutated[choice.draw(st.integers(0, len(archive) - 1))] = choice.draw(st.integers(0, 255))
    mutated = bytes(mutated)
    try:
        out = decode(mutated)
    except (ArchiveFormatError, CorruptArchiveError):
        return
    assert ref_decode(mutated)[0] == out


@settings(deadline=None)
@given(st.data())
def test_sparse_literal_flag_mutations_raise_only_codec_errors(choice):
    """Flag bits, padding bits or ``literal_len`` altered in the archive of a
    periodic input with few literals, whose flags take the span paths.

    A moved flag keeps the popcount, so the archive can still parse; then
    its flags must be the per-bit reading of the bitmap.
    """
    rng = random.Random(choice.draw(st.integers(0, 2**32 - 1)))
    n = choice.draw(st.integers(1, 12_000))
    unit = bytes(rng.sample(range(256), choice.draw(st.integers(1, 16))))
    data = bytearray((unit * (n // len(unit) + 1))[:n])
    for _ in range(choice.draw(st.integers(0, 4))):
        data[rng.randrange(n)] = rng.choice(unit) if rng.random() < 0.8 else rng.randrange(256)
    data = bytes(data)
    archive = compress(data)
    assert decode(archive) == data
    mutated = bytearray(archive)
    bit = st.integers(0, n - 1)
    for _ in range(choice.draw(st.integers(1, 3))):
        kind = choice.draw(st.sampled_from(["flip", "move", "padding", "literal_len"]))
        if kind == "flip":
            i = choice.draw(bit)
            mutated[HEADER_SIZE + i // 8] ^= 0x80 >> i % 8
        elif kind == "move":
            i, j = choice.draw(bit), choice.draw(bit)
            bits = ref_unpack_flags(mutated[HEADER_SIZE:], n)
            if bits[i] != bits[j]:
                for k in (i, j):
                    mutated[HEADER_SIZE + k // 8] ^= 0x80 >> k % 8
        elif kind == "padding" and n % 8:
            mutated[HEADER_SIZE + n // 8] |= choice.draw(st.integers(1, (1 << -n % 8) - 1))
        elif kind == "literal_len":
            (literal_len,) = struct.unpack_from("<Q", mutated, 13)
            struct.pack_into("<Q", mutated, 13, max(0, literal_len + choice.draw(st.integers(-3, 3))))
    mutated = bytes(mutated)
    try:
        out = decode(mutated)
    except (ArchiveFormatError, CorruptArchiveError):
        return
    assert list(parse(mutated).flags) == ref_unpack_flags(mutated[HEADER_SIZE:], n)
    assert ref_decode(mutated)[0] == out
