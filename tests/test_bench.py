import pytest

from ccz.bench import (
    BenchReport,
    BenchRow,
    LosslessnessError,
    compression_factor,
    emit_report,
    run_corpus,
)


def test_compression_factor_examples():
    assert compression_factor(1100, 1000) == pytest.approx(1.10)
    assert compression_factor(4096, 4096) == 1.0
    assert compression_factor(896, 165) == pytest.approx(5.430303, abs=1e-6)


def test_compression_factor_rejects_zero():
    with pytest.raises(ValueError):
        compression_factor(100, 0)


def test_run_corpus_single_file(tmp_path):
    (tmp_path / "ababba.bin").write_bytes(b"ABABBA")
    report = run_corpus(tmp_path)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.name == "ababba.bin"
    assert (row.original, row.cc_size, row.rle_size) == (6, 32, 10)
    assert row.cc_factor == pytest.approx(0.1875)
    assert row.verified is True
    overall = report.overall()
    assert overall.cc_size == 32 and overall.original == 6


def test_run_corpus_empty_directory(tmp_path):
    report = run_corpus(tmp_path)
    assert report.rows == [] and report.warnings == []
    assert report.overall() is None


def test_run_corpus_positional_redundancy_file(tmp_path):
    (tmp_path / "periodic.bin").write_bytes(b"ABCDEFG" * 128)
    report = run_corpus(tmp_path)
    row = report.rows[0]
    assert row.cc_size == 165
    assert row.cc_factor == pytest.approx(896 / 165)
    assert row.rle_factor == pytest.approx(0.5)


def test_run_corpus_sorts_and_skips_unreadable(tmp_path):
    (tmp_path / "b.bin").write_bytes(b"BBB")
    (tmp_path / "a.bin").write_bytes(b"AAA")
    (tmp_path / "broken").symlink_to(tmp_path / "missing-target")
    report = run_corpus(tmp_path)
    assert [row.name for row in report.rows] == ["a.bin", "b.bin"]
    assert len(report.warnings) == 1 and report.warnings[0][0] == "broken"


def test_run_corpus_aborts_on_roundtrip_failure(tmp_path, monkeypatch):
    (tmp_path / "x.bin").write_bytes(b"HELLO WORLD")
    import ccz.bench

    monkeypatch.setattr(ccz.bench, "decode", lambda archive: b"corrupted")
    with pytest.raises(LosslessnessError):
        run_corpus(tmp_path)


def test_run_corpus_empty_file_has_zero_factor(tmp_path):
    (tmp_path / "empty.bin").write_bytes(b"")
    report = run_corpus(tmp_path)
    row = report.rows[0]
    assert row.original == 0 and row.cc_size == 25 and row.rle_size == 0
    assert row.cc_factor == 0.0 and row.rle_factor == 0.0


def sample_report():
    return BenchReport(
        rows=[BenchRow("ababba.bin", 6, 32, 6 / 32, 10, 0.6, True)]
    )


def test_emit_report_csv():
    text = emit_report(sample_report(), "csv")
    lines = text.splitlines()
    assert lines[0] == "name,original,cc_size,cc_factor,rle_size,rle_factor,verified"
    assert lines[1] == "ababba.bin,6,32,0.188,10,0.600,true"
    assert lines[2] == "overall,6,32,0.188,10,0.600,true"


def test_emit_report_markdown():
    text = emit_report(sample_report(), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| name | original | cc_size | cc_factor | rle_size | rle_factor | verified |"
    assert lines[1].startswith("|") and set(lines[1]) <= {"|", "-", " "}
    assert "| ababba.bin | 6 | 32 | 0.188 | 10 | 0.600 | true |" in lines
    assert lines[-1].startswith("| overall ")


def test_emit_report_empty_is_header_only():
    assert emit_report(BenchReport(), "csv") == "name,original,cc_size,cc_factor,rle_size,rle_factor,verified\n"
    md = emit_report(BenchReport(), "markdown").splitlines()
    assert len(md) == 2  # header and separator, no data rows


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(BenchReport(), "html")
