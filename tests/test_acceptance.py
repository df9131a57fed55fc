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

from ccz.bench import emit_report, run_corpus
from ccz.circles import split_circles
from ccz.container import HEADER_SIZE, parse, serialize
from ccz.decoder import decode
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
            retained_2 = sum(1 for e in parts.entries if e.count == 2)
            rebases = sum(1 for e in parts.entries if e.count == 0)
            assert len(archive) <= base + retained_2 + 3 * rebases
            if retained_2 == 0 and rebases == 0:
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


def test_archive_bytes_are_pinned(pipeline):
    """Same-bytes gate: a refactor of the encoder must keep every archive byte.

    The corpus digest covers every archive, each prefixed by its 4-byte
    big-endian length.  64 KiB of zeros is one circle per byte; the
    periodic input runs thousands of circles into the 127-circle cap.
    """
    _, results = pipeline
    corpus = hashlib.sha256()
    for _, _, archive in results:
        corpus.update(len(archive).to_bytes(4, "big") + archive)
    assert corpus.hexdigest() == "c2d5ae9d661746da126b8520987713d6a0860a6574fdbf270cb8cedabbace9b4"
    zeros = serialize(encode(bytes(65536)))
    assert hashlib.sha256(zeros).hexdigest() == (
        "6d33869cc4811d4d04e0be11e85c6cd3adee0698ea2e50bc8a35df23b66afbda"
    )
    periodic = serialize(encode(_periodic_with_defects()))
    assert hashlib.sha256(periodic).hexdigest() == (
        "2b03894fa72570219fdaa691184a2b4dbaf0063302091242b550d7217a16c869"
    )


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
