"""Command-line front end: compress, decompress, inspect, bench.

Machine-readable output (sizes, reports, inspection dumps) goes to stdout;
diagnostics go to stderr.  Exit status is 0 on success, nonzero otherwise.
:func:`main` reports every expected failure (an unreadable or unwritable
file, a malformed or corrupt archive, a failed benchmark roundtrip) the
same way: one ``error:`` line on stderr and exit status 1.
"""

import argparse
import sys
from pathlib import Path

from . import compress
from .bench import LosslessnessError, emit_report, run_corpus
from .circles import split_circles
from .container import MAGIC, ArchiveFormatError, parse, serialize
from .decoder import CorruptArchiveError, decode, undo_delta
from .encoder import trace_encode


def _printable(ch: int) -> str:
    return chr(ch) if 32 <= ch <= 126 else "."


def cmd_compress(input_path: str, output_path: str) -> int:
    data = Path(input_path).read_bytes()
    archive = compress(data)
    Path(output_path).write_bytes(archive)
    factor = len(data) / len(archive)
    print(f"original={len(data)} compressed={len(archive)} factor={factor:.3f}")
    return 0


def cmd_decompress(input_path: str, output_path: str, verbose: bool = False) -> int:
    data = decode(Path(input_path).read_bytes())
    Path(output_path).write_bytes(data)
    if verbose:
        print(f"wrote {len(data)} bytes", file=sys.stderr)
    return 0


def cmd_inspect(input_path: str) -> int:
    data = Path(input_path).read_bytes()
    if data[:4] == MAGIC:
        return _inspect_archive(data)
    return _inspect_plain(data)


def _inspect_archive(data: bytes) -> int:
    parts = parse(data)
    live_iter = iter(undo_delta(parts.entries))  # raises before anything is printed
    print(
        f"magic={MAGIC.decode()} version=1 original_len={len(parts.flags)}"
        f" literal_len={len(parts.literals)} entry_count={len(parts.entries)}"
        f" archive_size={len(data)}"
    )
    for i, entry in enumerate(parts.entries):
        if entry.is_rebase:
            print(f"entry {i}: rebase advance={entry.delta}")
        else:
            live = next(live_iter)
            print(
                f"entry {i}: delta={entry.delta:+d} ch={entry.ch:#04x} '{_printable(entry.ch)}'"
                f" count={entry.count} start_circle={live.start}"
            )
    return 0


def _inspect_plain(data: bytes) -> int:
    seg = split_circles(data)
    trace = trace_encode(data)
    print(f"circles ({seg.circle_count}): {[bytes(c) for c in seg.circles(data)]}")
    for kind, runs in (("run", trace.runs), ("removed", trace.removed)):
        for run in runs:
            print(
                f"{kind}: ch={run.ch:#04x} '{_printable(run.ch)}' start={run.start}"
                f" count={run.count} offsets={list(run.occurrences)}"
            )
    print(f"archive would be {len(serialize(trace.parts))} bytes for {len(data)} input bytes")
    return 0


def cmd_bench(corpus_dir: str, format: str = "markdown", verbose: bool = False) -> int:
    report = run_corpus(corpus_dir)
    for name, message in report.warnings:
        print(f"warning: skipped {name}: {message}", file=sys.stderr)
    if verbose:
        print(f"benchmarked {len(report.rows)} files", file=sys.stderr)
    sys.stdout.write(emit_report(report, format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccz", description="concentric-circle run-length compression"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="extra diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file into an archive")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("decompress", help="restore a file from an archive")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("inspect", help="show circles and runs of a file, or archive internals")
    p.add_argument("input")

    p = sub.add_parser("bench", help="benchmark every file in a corpus directory")
    p.add_argument("corpus_dir")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compress":
            return cmd_compress(args.input, args.output)
        if args.command == "decompress":
            return cmd_decompress(args.input, args.output, args.verbose)
        if args.command == "inspect":
            return cmd_inspect(args.input)
        return cmd_bench(args.corpus_dir, args.format, args.verbose)
    except (OSError, ArchiveFormatError, CorruptArchiveError, LosslessnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
