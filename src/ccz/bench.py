"""Corpus benchmark: compression factors for the circle codec and the RLE baseline.

Every file is compressed, decompressed and compared byte for byte before
any factor is reported; a roundtrip mismatch aborts the whole run because
losslessness is not negotiable.  Factors are original/compressed, so
values above 1 mean compression.  The overall row is size-weighted:
total original over total compressed, not a mean of per-file factors.
"""

from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import csv
import io
import stat

from . import compress
from .decoder import decode
from .rle import rle_decode, rle_encode


class LosslessnessError(RuntimeError):
    """A codec failed to reproduce a file byte for byte."""


@dataclass
class BenchRow:
    name: str
    original: int
    cc_size: int
    cc_factor: float
    rle_size: int
    rle_factor: float
    verified: bool


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    warnings: list[tuple[str, str]] = field(default_factory=list)

    def overall(self) -> BenchRow | None:
        """Size-weighted aggregate row, or None for an empty report."""
        if not self.rows:
            return None
        return _row(
            "overall",
            sum(r.original for r in self.rows),
            sum(r.cc_size for r in self.rows),
            sum(r.rle_size for r in self.rows),
            all(r.verified for r in self.rows),
        )


def compression_factor(original_size: int, compressed_size: int) -> float:
    if compressed_size <= 0:
        raise ValueError("compressed size must be positive")
    return original_size / compressed_size


def _safe_factor(original: int, compressed: int) -> float:
    return compression_factor(original, compressed) if compressed > 0 else 0.0


def _row(name: str, original: int, cc_size: int, rle_size: int, verified: bool) -> BenchRow:
    """A row with both factors worked out from its sizes."""
    cc_factor, rle_factor = _safe_factor(original, cc_size), _safe_factor(original, rle_size)
    return BenchRow(name, original, cc_size, cc_factor, rle_size, rle_factor, verified)


def run_corpus(directory: str | Path) -> BenchReport:
    """Benchmark every regular file in ``directory`` (sorted by name).

    Entries are followed through symlinks.  Directories are passed over
    silently.  Every other entry that is not a regular file (a FIFO, a
    device, a dangling symlink), and every file that cannot be read, is
    skipped with a recorded warning, so the run never blocks on a pipe or
    reads a device without end.  A roundtrip failure raises
    :class:`LosslessnessError` and aborts the run.
    """
    directory = Path(directory)
    report = BenchReport()
    for path in sorted(directory.iterdir(), key=lambda p: p.name):
        try:
            mode = path.stat().st_mode
            if stat.S_ISDIR(mode):
                continue
            if not stat.S_ISREG(mode):
                report.warnings.append((path.name, "not a regular file"))
                continue
            data = path.read_bytes()
        except OSError as exc:
            report.warnings.append((path.name, str(exc)))
            continue

        archive = compress(data)
        if decode(archive) != data:
            raise LosslessnessError(f"cc roundtrip mismatch on {path.name}")
        packed = rle_encode(data)
        if rle_decode(packed) != data:
            raise LosslessnessError(f"rle roundtrip mismatch on {path.name}")

        report.rows.append(_row(path.name, len(data), len(archive), len(packed), True))
    return report


_COLUMNS = tuple(f.name for f in fields(BenchRow))


def _cells(row: BenchRow) -> list[str]:
    return [
        f"{value:.3f}" if isinstance(value, float)
        else ("true" if value else "false") if isinstance(value, bool)
        else str(value)
        for value in astuple(row)
    ]


def emit_report(report: BenchReport, format: str = "markdown") -> str:
    """Render a report as ``csv`` or ``markdown`` text, deterministically."""
    rows = list(report.rows)
    overall = report.overall()
    if overall is not None:
        rows.append(overall)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow(_cells(row))
        return buf.getvalue()
    if format == "markdown":
        lines = [
            "| " + " | ".join(_COLUMNS) + " |",
            "|" + "|".join(" --- " for _ in _COLUMNS) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(_cells(row)) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
