"""Acceptance suite: every criterion, at its stated tolerance, one per test.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  The shared corpus (10,000+ generated inputs across the
uniform, small-alphabet, periodic and text families, lengths 0..4096) is
built and pushed through the full pipeline exactly once; the build is
timed because the roundtrip criterion carries the runtime target.
"""

import hashlib
import os
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ccz.bench import emit_report, run_corpus
from ccz.circles import split_circles
from ccz.container import HEADER_SIZE, ArchiveFormatError, parse, serialize
from ccz.decoder import CorruptArchiveError, decode
from ccz.encoder import encode
from ccz.rle import rle_encode

from oracles import (
    check_non_crossing,
    generate_corpus,
    redundancy_violations,
    ref_decode,
    strictly_increasing,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {label}: FAIL")
        raise
    print(f"\n[criterion {number}] {label}: PASS")


@pytest.fixture(scope="module")
def pipeline():
    """(elapsed_seconds, results) with one (data, parts, archive) per input."""
    inputs = generate_corpus()
    assert len(inputs) >= 10_000
    results = []
    start = time.perf_counter()
    for data in inputs:
        parts = encode(data)
        archive = serialize(parts)
        assert decode(archive) == data
        results.append((data, parts, archive))
    elapsed = time.perf_counter() - start
    return elapsed, results


def test_criterion_1_roundtrip_property(pipeline):
    elapsed, results = pipeline
    with criterion(1, "roundtrip over 10k generated inputs"):
        assert len(results) >= 10_000
        # mismatches would have failed inside the fixture already
        print(f"\n  {len(results)} inputs round-tripped in {elapsed:.1f}s", end="")
        assert elapsed < 60.0


def test_criterion_2_reference_example_fidelity():
    with criterion(2, "published example fidelity"):
        seg = split_circles(b"THEPHONEBLAH")
        assert seg.circles(b"THEPHONEBLAH") == [b"THEP", b"HONEBLA", b"H"]

        parts = encode(b"ABABBA")
        assert [(e.delta, e.ch, e.count) for e in parts.entries] == [(1, ord("B"), 3)]
        assert list(parts.flags) == [0, 1, 0, 1, 1, 0]  # final 'A' stays literal
        assert parts.literals == b"AAA"


def test_criterion_3_exact_size_law(pipeline):
    _, results = pipeline
    with criterion(3, "exact archive size law"):
        for data, parts, archive in results:
            n = len(data)
            covered = sum(e.count for e in parts.entries if e.count)
            assert len(parts.literals) == n - covered
            assert len(archive) == HEADER_SIZE + (n + 7) // 8 + len(parts.literals) + 3 * len(
                parts.entries
            )
            assert serialize(parse(archive)) == archive


def test_criterion_4_redundancy_hygiene(pipeline):
    _, results = pipeline
    with criterion(4, "redundancy hygiene with re-removal oracle"):
        checked = 0
        for data, parts, archive in results:
            if len(data) > 512:
                continue
            problems = redundancy_violations(parse(archive).entries)
            assert not problems, (data[:40], problems)
            checked += 1
        assert checked > 5000
        print(f"\n  {checked} entry lists checked", end="")


def test_criterion_5_positional_redundancy_win():
    with criterion(5, "positional redundancy win over naive RLE"):
        data = b"ABCDEFG" * 128
        assert len(data) == 896
        archive = serialize(encode(data))
        assert decode(archive) == data
        assert len(archive) == 165  # 25 + 112 + 7 + 21
        cc_factor = len(data) / len(archive)
        rle_factor = len(data) / len(rle_encode(data))
        assert cc_factor >= 5.0
        assert rle_factor == 0.5


def test_criterion_6_expansion_bound(pipeline):
    _, results = pipeline
    with criterion(6, "expansion bound"):
        for data, parts, archive in results:
            n = len(data)
            base = HEADER_SIZE + (n + 7) // 8 + n
            rebases = sum(1 for e in parts.entries if e.count == 0)
            assert len(archive) <= base + 3 * rebases
            if rebases == 0:
                assert len(archive) <= base


def test_criterion_7_non_crossing_and_decoder_determinism(pipeline):
    _, results = pipeline
    with criterion(7, "non-crossing and decoder determinism"):
        checked = 0
        for data, parts, archive in results:
            if len(data) > 512:
                continue
            out, matches, occurrences = ref_decode(archive)
            assert out == data
            for circle_matches in matches:
                assert strictly_increasing(circle_matches)
            assert check_non_crossing(occurrences)
            checked += 1
        assert checked > 5000
        print(f"\n  {checked} archives checked", end="")


def _periodic_with_defects():
    """64 KiB of a 13-byte distinct unit, one defect per 1,021 bytes, in and out of the unit."""
    data = bytearray((bytes(range(64, 77)) * 5042)[:65536])
    for k in range(1, 64):
        data[k * 1021] = (k * 37) % 256
    return bytes(data)


def _nested_insertions():
    """12,000 bytes in which every new run is spliced before the previous one, 2,000 deep."""
    return b"".join(bytes([0, 1 + k % 250, 1 + (k - 1) % 250]) * 2 for k in range(1, 2001))


def _steady_edges():
    """36,365 bytes of repeated circles ending every way a bulk copy of them can end.

    256-byte circles past the count cap, a byte changed mid-circle, one-byte
    circles, an order flip, and input that ends inside a repeat.
    """
    return b"".join([
        bytes(range(256)) * 130,
        b"ABCDEFG" * 200 + b"ABCXEFG" + b"ABCDEFG" * 60,
        bytes(300),
        b"\x00\x01" * 400 + b"\x01\x00" * 3,
        b"XYZ" * 50 + b"XY",
    ])


def test_archive_bytes_are_pinned(pipeline):
    """Same-bytes gate: a refactor of the encoder must keep every archive byte.

    The corpus digest covers every archive, each prefixed by its 4-byte
    big-endian length.  64 KiB of zeros is one circle per byte; the
    periodic input runs thousands of circles into the 127-circle cap; the
    defect-free unit and the 16,257 zeros go round whole cap cycles; the
    nested input orders its runs deeper than Python's recursion limit; the
    steady-edges input stops copies of repeated circles in every way.
    """
    _, results = pipeline
    corpus = hashlib.sha256()
    for _, _, archive in results:
        corpus.update(len(archive).to_bytes(4, "big") + archive)
    assert corpus.hexdigest() == "b7d1d82a7d5cb502d2af1e3b54576b898aba0d0a327f067fd8b6033e9b1f7166"
    zeros = serialize(encode(bytes(65536)))
    assert hashlib.sha256(zeros).hexdigest() == (
        "6d33869cc4811d4d04e0be11e85c6cd3adee0698ea2e50bc8a35df23b66afbda"
    )
    # Whole 127-circle cap cycles, copied in one step: a defect-free 7-byte
    # unit, and zeros that end one byte into a cycle.
    unit = serialize(encode((b"ABCDEFG" * 9363)[:65536]))
    assert hashlib.sha256(unit).hexdigest() == (
        "2286d635e56ab4523267685c8f92b1fdc174c78345d0e403bf221b18a9b26f87"
    )
    cycles = serialize(encode(bytes(16257)))
    assert hashlib.sha256(cycles).hexdigest() == (
        "92ba3249b27fade6c699dea29d1bdbddff3342794adec8e7272285973b4e4f3c"
    )
    periodic = serialize(encode(_periodic_with_defects()))
    assert hashlib.sha256(periodic).hexdigest() == (
        "2b03894fa72570219fdaa691184a2b4dbaf0063302091242b550d7217a16c869"
    )
    nested = serialize(encode(_nested_insertions()))
    assert hashlib.sha256(nested).hexdigest() == (
        "f744d18668f9bb6413c23581df8dca3eeb5d63d5ec2936a112a8930f0e1931d4"
    )
    steady = serialize(encode(_steady_edges()))
    assert len(steady) == 6192 and hashlib.sha256(steady).hexdigest() == (
        "1241a55652265bbf3a5d3d7e24cb1748463df6fa04cbad382ff732e325f245a9"
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_archives_raise_only_codec_errors(pipeline, choice):
    """1-4 overwritten bytes in a corpus archive: decode may only raise a codec error.

    When a small mutated archive still decodes, the reference decoder must
    read it the same way.
    """
    _, results = pipeline
    data, _, archive = choice.draw(st.sampled_from(results))
    mutated = bytearray(archive)
    for _ in range(choice.draw(st.integers(1, 4))):
        mutated[choice.draw(st.integers(0, len(archive) - 1))] = choice.draw(st.integers(0, 255))
    mutated = bytes(mutated)
    try:
        out = decode(mutated)
    except (ArchiveFormatError, CorruptArchiveError):
        return
    if len(data) <= 512:
        assert ref_decode(mutated)[0] == out


def test_criterion_8_silesia_report():
    corpus_dir = os.environ.get("CCZ_SILESIA_DIR")
    if not corpus_dir or not Path(corpus_dir).is_dir():
        pytest.skip("no Silesia directory supplied (set CCZ_SILESIA_DIR); report-only criterion")
    with criterion(8, "corpus benchmark report"):
        report = run_corpus(corpus_dir)
        assert report.rows, "corpus directory contained no readable files"
        assert all(row.verified for row in report.rows)
        overall = report.overall()
        print("\n" + emit_report(report, "markdown"))
        print(f"overall circle-codec factor: {overall.cc_factor:.3f} (reference point: 1.10)")
        structured = [r for r in report.rows if r.name in ("mr", "nci", "x-ray", "xray")]
        for row in structured:
            assert row.cc_factor > row.rle_factor, f"{row.name}: expected cc to beat naive rle"
