import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccz
from ccz import compress
from ccz.cli import main

from oracles import chain_circles, underflow_input


def test_compress_decompress_roundtrip(tmp_path, capsys):
    source = tmp_path / "input.bin"
    archive = tmp_path / "input.ccz"
    restored = tmp_path / "restored.bin"
    source.write_bytes(b"ABABBA")

    assert main(["compress", str(source), str(archive)]) == 0
    out = capsys.readouterr().out
    assert "original=6" in out and "compressed=32" in out and "factor=0.188" in out
    assert archive.stat().st_size == 32

    assert main(["decompress", str(archive), str(restored)]) == 0
    assert restored.read_bytes() == b"ABABBA"


def test_compress_empty_file(tmp_path):
    source = tmp_path / "empty"
    archive = tmp_path / "empty.ccz"
    source.write_bytes(b"")
    assert main(["compress", str(source), str(archive)]) == 0
    assert archive.stat().st_size == 25
    restored = tmp_path / "back"
    assert main(["decompress", str(archive), str(restored)]) == 0
    assert restored.read_bytes() == b""


def test_compress_missing_input(tmp_path, capsys):
    assert main(["compress", str(tmp_path / "nope"), str(tmp_path / "out")]) == 1
    assert "error" in capsys.readouterr().err


def assert_reports_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_compress_to_directory_fails(tmp_path, capsys):
    source = tmp_path / "input.bin"
    source.write_bytes(b"ABABBA")
    assert main(["compress", str(source), str(tmp_path)]) == 1
    assert_reports_error(capsys)


def test_decompress_to_directory_fails(tmp_path, capsys):
    archive = tmp_path / "input.ccz"
    archive.write_bytes(compress(b"ABABBA"))
    assert main(["decompress", str(archive), str(tmp_path)]) == 1
    assert_reports_error(capsys)


def test_inspect_missing_file(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope")]) == 1
    assert_reports_error(capsys)


def test_decompress_corrupted_magic(tmp_path, capsys):
    source = tmp_path / "input.bin"
    archive = tmp_path / "input.ccz"
    source.write_bytes(b"ABABBA")
    main(["compress", str(source), str(archive)])
    tampered = bytearray(archive.read_bytes())
    tampered[:4] = b"XXXX"
    archive.write_bytes(bytes(tampered))
    assert main(["decompress", str(archive), str(tmp_path / "out")]) == 1
    assert "magic" in capsys.readouterr().err


def test_decompress_truncated_names_section(tmp_path, capsys):
    source = tmp_path / "input.bin"
    archive = tmp_path / "input.ccz"
    source.write_bytes(b"THEPHONEBLAH")
    main(["compress", str(source), str(archive)])
    archive.write_bytes(archive.read_bytes()[:-2])
    assert main(["decompress", str(archive), str(tmp_path / "out")]) == 1
    assert "entries" in capsys.readouterr().err


def test_roundtrip_binary_file(tmp_path):
    import random

    source = tmp_path / "blob"
    data = random.Random(7).randbytes(50_000)
    source.write_bytes(data)
    archive = tmp_path / "blob.ccz"
    restored = tmp_path / "blob.out"
    assert main(["compress", str(source), str(archive)]) == 0
    assert main(["decompress", str(archive), str(restored)]) == 0
    assert restored.read_bytes() == data


def test_inspect_plain_file(tmp_path, capsys):
    source = tmp_path / "sample"
    source.write_bytes(b"THEPHONEBLAH")
    assert main(["inspect", str(source)]) == 0
    out = capsys.readouterr().out
    assert "b'THEP'" in out and "b'HONEBLA'" in out and "b'H'" in out
    assert "run: ch=0x48 'H' start=1 count=3 offsets=[1, 4, 11]" in out
    assert "removed:" not in out  # E is in two circles only, so it makes no run
    # A run left behind the reference base is printed as removed.
    source.write_bytes(underflow_input())
    assert main(["inspect", str(source)]) == 0
    removed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("removed:")]
    assert len(removed) == 1
    assert removed[0].startswith("removed: ch=0x65 'e' start=1 count=127 offsets=[1, 3, 5, ")


def test_inspect_single_circle(tmp_path, capsys):
    source = tmp_path / "abc"
    source.write_bytes(b"ABC")
    assert main(["inspect", str(source)]) == 0
    out = capsys.readouterr().out
    assert "circles (1)" in out
    assert "run:" not in out


def test_inspect_archive(tmp_path, capsys):
    source = tmp_path / "input.bin"
    archive = tmp_path / "input.ccz"
    source.write_bytes(b"ABABBA")
    main(["compress", str(source), str(archive)])
    capsys.readouterr()
    assert main(["inspect", str(archive)]) == 0
    out = capsys.readouterr().out
    assert "original_len=6" in out and "entry_count=1" in out
    assert "delta=+1 ch=0x42 'B' count=3 start_circle=1" in out


def test_inspect_corrupt_archive_reports_error(tmp_path, capsys):
    archive = tmp_path / "zeros.ccz"
    tampered = bytearray(compress(bytes(4)))
    tampered[-3] = 0xFF  # the only entry's delta: start circle 0 - 1
    archive.write_bytes(bytes(tampered))
    assert main(["inspect", str(archive)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "start circle" in captured.err


def test_bench_markdown_and_csv(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ababba.bin").write_bytes(b"ABABBA")
    (corpus / "periodic.bin").write_bytes(b"ABCDEFG" * 128)

    assert main(["bench", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| name |")
    assert "| ababba.bin | 6 | 32 | 0.188 |" in out
    assert "| periodic.bin | 896 | 165 | 5.430 | 1792 | 0.500 | true |" in out

    assert main(["bench", str(corpus), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "ababba.bin,6,32,0.188,10,0.600,true" in out


def test_bench_empty_directory(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert main(["bench", str(corpus)]) == 0
    assert "| name |" in capsys.readouterr().out


def test_bench_missing_directory(tmp_path, capsys):
    assert main(["bench", str(tmp_path / "nope")]) == 1
    assert "error" in capsys.readouterr().err


def test_verbose_flag_reports_to_stderr(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x").write_bytes(b"xyz")
    assert main(["-v", "bench", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert "benchmarked 1 files" in captured.err
    assert "benchmarked" not in captured.out

    archive = tmp_path / "input.ccz"
    archive.write_bytes(compress(b"ABABBA"))
    assert main(["-v", "decompress", str(archive), str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wrote 6 bytes\n"


def test_inspect_archive_prints_rebases(tmp_path, capsys):
    # No two-circle run is made, so the 0xFF run of circles 400-402 is
    # reached through two rebase entries.
    archive = tmp_path / "chain.ccz"
    archive.write_bytes(compress(chain_circles(420, triple_circles={400, 401, 402})))
    assert main(["inspect", str(archive)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "entry 0: rebase advance=255",
        "entry 1: rebase advance=144",
        "entry 2: delta=+1 ch=0xff '.' count=3 start_circle=400",
    ]


def test_bench_warns_about_unreadable_files(tmp_path, capsys):
    # A dangling symlink cannot be read, even by a user who can read any
    # file; a directory is passed over without a warning.
    corpus = tmp_path / "corpus"
    (corpus / "subdir").mkdir(parents=True)
    (corpus / "x").write_bytes(b"xyz")
    (corpus / "broken").symlink_to(tmp_path / "missing-target")
    assert main(["bench", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: skipped broken: ")
    assert len(captured.err.splitlines()) == 1
    assert "| x |" in captured.out
    assert "broken" not in captured.out and "subdir" not in captured.out


def run_module(*args):
    # python -m ccz.cli goes through entrypoint() and the __main__ guard, as
    # the installed ccz script goes through entrypoint().
    env = dict(os.environ, PYTHONPATH=str(Path(ccz.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "ccz.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_bench_skips_a_fifo(tmp_path):
    # Opening a FIFO for reading blocks until a writer comes, so a bench
    # that reads it hangs; run in a subprocess, it times out instead.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x").write_bytes(b"xyz")
    os.mkfifo(corpus / "pipe")
    done = run_module("bench", corpus)
    assert done.returncode == 0
    assert done.stderr == "warning: skipped pipe: not a regular file\n"
    assert "| x |" in done.stdout and "pipe" not in done.stdout


def test_module_entry_point_roundtrip(tmp_path):
    data = b"ABCDEFG" * 300 + b"THEPHONEBLAH"
    source, archive, restored = tmp_path / "in.bin", tmp_path / "in.ccz", tmp_path / "out.bin"
    source.write_bytes(data)
    done = run_module("compress", source, archive)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"original={len(data)} ")
    done = run_module("decompress", archive, restored)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert restored.read_bytes() == data


def test_module_entry_point_reports_a_truncated_archive(tmp_path):
    truncated, output = tmp_path / "truncated.ccz", tmp_path / "out.bin"
    truncated.write_bytes(compress(b"ABABBA")[:10])
    done = run_module("decompress", truncated, output)
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    assert not output.exists()
