"""Run one workload in this process: set up, measure, check, report.

``run.py`` starts this script once per workload, so the process's peak
memory belongs to that workload alone.  It imports ``ccz`` from the
``src`` directory of the checkout it sits in, generates the workload's
inputs from the seed, warms up, then runs whole passes over the inputs
until the next pass would end after ``--seconds``.

* ``--trace 0`` passes time each ``ccz.compress`` and ``ccz.decompress``
  call and do nothing else.
* ``--trace 1`` passes call each public stage separately, inside spans,
  and check that the stages put together give ``ccz.compress``'s bytes.

Every output is checked: each archive and RLE encoding must round-trip,
each archive must obey the size law of its own header, and each pass
must reproduce the first pass's archives.  Every time is read from the
reference-speed clock of ``speed.py``.  The last line of standard output is
one JSON object with the metrics and failure counts.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import struct
import sys
import time
from itertools import compress as select
from operator import not_
from pathlib import Path

import workloads
from speed import SpeedClock, calibrate, cpus, move_to_fastest_cpu
from tracing import GcMeter, Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20
# The archive header as FORMAT.md specifies it, read here without ccz's
# parser so that the size-law check does not trust the code it checks.
HEADER = struct.Struct("<4sBQQI")
WARMUP_BYTES = 4096
WARMUP_SHARE = 0.2

END_TO_END_UNITS = {
    "compress_mbps": "MiB/s",
    "decompress_mbps": "MiB/s",
    "compress_call_ms_p50": "ms",
    "compress_call_ms_p99": "ms",
    "compression_factor": "x",
    "rle_factor": "x",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "circles.split_s_per_mb": "s/MiB",
    "circles.per_kib": "count",
    "encoder.init_s_per_mb": "s/MiB",
    "encoder.scan_s_per_mb": "s/MiB",
    "encoder.prune_s_per_mb": "s/MiB",
    "encoder.runs_found": "count",
    "encoder.runs_kept": "count",
    "encoder.kept_ratio": "ratio",
    "encoder.delta_s_per_mb": "s/MiB",
    "encoder.rebase_entries": "count",
    "encoder.inexpressible_inputs": "count",
    "encoder.residual_s_per_mb": "s/MiB",
    "encoder.gc_s_per_mb": "s/MiB",
    "encoder.gc_collections": "count",
    "container.serialize_s_per_mb": "s/MiB",
    "container.parse_s_per_mb": "s/MiB",
    "container.header_bytes": "count",
    "container.flag_bytes": "count",
    "container.literal_bytes": "count",
    "container.entry_bytes": "count",
    "decoder.undo_delta_s_per_mb": "s/MiB",
    "decoder.merge_s_per_mb": "s/MiB",
    "decoder.gc_s_per_mb": "s/MiB",
    "rle.encode_s_per_mb": "s/MiB",
    "rle.decode_s_per_mb": "s/MiB",
    "trace.overhead_ratio": "x",
}


def import_ccz():
    """Import ``ccz`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ccz

    if Path(ccz.__file__).resolve().parent != src / "ccz":
        raise SystemExit(f"imported ccz from {ccz.__file__}, expected {src / 'ccz'}")
    return ccz


def byte_split(data: bytes, archive: bytes) -> tuple[int, int, int, int]:
    """(header, flag, literal, entry) byte counts read from the archive header.

    Raises ``ValueError`` when the archive breaks the size law
    ``25 + ceil(n/8) + literal_len + 3 * entry_count == len(archive)``.
    """
    if len(archive) < HEADER.size:
        raise ValueError(f"archive of {len(archive)} bytes is shorter than its header")
    _, _, original_len, literal_len, entry_count = HEADER.unpack_from(archive)
    if original_len != len(data):
        raise ValueError(f"header says {original_len} original bytes, input has {len(data)}")
    split = (HEADER.size, -(-original_len // 8), literal_len, 3 * entry_count)
    if sum(split) != len(archive):
        raise ValueError(f"size law gives {sum(split)} bytes, archive has {len(archive)}")
    return split


def digest(chunks) -> str:
    """SHA-256 over length-prefixed chunks, so boundaries count."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Run:
    """Inputs, reference outputs and failure tally of one workload run."""

    def __init__(self, ccz, inputs: list[tuple[str, bytes]]):
        self.ccz = ccz
        self.inputs = inputs
        self.mib = sum(len(data) for _, data in inputs) / MIB
        self.archives: list[bytes | None] = []  # first pass's output, the reference for later passes
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, index: int, message: str) -> None:
        name = self.inputs[index][0]
        self.failures.append(f"input {index} ({name}): {message}")

    def failed_call(self, index: int, exc: Exception) -> None:
        """Count one operation whose call raised."""
        self.attempted += 1
        self.fail(index, f"{type(exc).__name__}: {exc}")

    def check(self, index: int, archive: bytes, restored: bytes) -> None:
        """Count one roundtrip operation; record what is wrong with it."""
        self.attempted += 1
        data = self.inputs[index][1]
        try:
            byte_split(data, archive)
        except ValueError as exc:
            self.fail(index, str(exc))
            return
        if restored != data:
            self.fail(index, "decompressed bytes differ from the input")
        elif self.archives and archive != self.archives[index]:
            self.fail(index, "archive differs from the first pass")

    def keep_reference(self, archives: list[bytes | None]) -> None:
        if not self.archives:
            self.archives = archives

    def check_rle_and_sizes(self) -> dict:
        """Round-trip every input through RLE; total the first pass's sizes."""
        original = archived = rle = 0
        split = [0, 0, 0, 0]
        for index, ((_, data), archive) in enumerate(zip(self.inputs, self.archives)):
            self.attempted += 1
            try:
                packed = self.ccz.rle_encode(data)
                restored = self.ccz.rle_decode(packed)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.fail(index, f"rle: {type(exc).__name__}: {exc}")
                continue
            if restored != data:
                self.fail(index, "rle roundtrip differs from the input")
            original += len(data)
            rle += len(packed)
            if archive is None:
                continue  # its compress call failed and was counted
            try:
                sizes = byte_split(data, archive)
            except ValueError:
                continue  # counted as failed when the archive was checked
            archived += len(archive)
            split = [a + b for a, b in zip(split, sizes)]
        return {
            "compression_factor": original / archived if archived else 0.0,
            "rle_factor": original / rle if rle else 0.0,
            "byte_split": dict(zip(("header", "flags", "literals", "entries"), split)),
        }


def untraced_pass(run: Run, clock) -> dict:
    """Time every ``compress`` and ``decompress`` call and nothing else.

    Returns ``clock`` nanoseconds per input, ``None`` where the call failed.
    """
    ccz = run.ccz
    compress_ns: list[float | None] = [None] * len(run.inputs)
    decompress_ns: list[float | None] = [None] * len(run.inputs)
    archives: list[bytes | None] = []
    for i, (_, data) in enumerate(run.inputs):
        try:
            start = clock()
            archive = ccz.compress(data)
            middle = clock()
            restored = ccz.decompress(archive)
            end = clock()
        except Exception as exc:  # a failed operation is counted, not fatal
            run.failed_call(i, exc)
            archives.append(None)
            continue
        compress_ns[i], decompress_ns[i] = middle - start, end - middle
        run.check(i, archive, restored)
        archives.append(archive)
    run.keep_reference(archives)
    return {"compress": compress_ns, "decompress": decompress_ns}


class CompositionError(RuntimeError):
    """The staged public calls did not reproduce ``ccz.compress``."""


def traced_pass(run: Run, tracer: Tracer) -> dict:
    """Call each public stage inside a span and check the staged result.

    Only public names are called, and the stages put together must match
    ``compress`` byte for byte; a mismatch raises :class:`CompositionError`.
    ``encode`` also drops runs whose delta cannot be serialized, a private
    step with no public entry point.  Where that step is needed,
    ``delta_encode_entries`` raises ``ValueError`` as documented; the input
    is counted as inexpressible and ``encode``'s own parts are serialized
    and checked instead.  Returns the pass's counts and, per input, the
    time of an untraced ``compress`` and of the staged path, for the
    tracing overhead.  Times come from the tracer's clock.
    """
    ccz = run.ccz
    span = tracer.span
    clock = tracer.gc.clock
    counts = dict.fromkeys(("circles", "runs_found", "runs_kept", "rebases", "inexpressible"), 0)
    untraced_ns: list[int] = []
    staged_ns: list[int] = []
    archives: list[bytes] = []
    for i, (name, data) in enumerate(run.inputs):
        start = clock()
        archive = ccz.compress(data)
        untraced_ns.append(clock() - start)

        with span("circles.split_circles", i):
            seg = ccz.split_circles(data)
        with span("encoder.encode", i):
            encoded = ccz.encode(data)
        start = clock()
        with span("encode.staged", i):
            with span("encoder.EncoderState", i):
                state = ccz.EncoderState(data)
            with span("encoder.run", i):
                state.run()
            with span("encoder.literals", i):
                found = state.run_list()
                literals = bytes(select(data, map(not_, state.flags)))
            with span("encoder.remove_redundant_entries", i):
                kept, flags, literals = ccz.remove_redundant_entries(found, state.flags, literals)
            with span("encoder.delta_encode_entries", i):
                try:
                    entries = ccz.delta_encode_entries(kept)
                    parts = ccz.EncodedParts(flags, literals, entries)
                except ValueError:
                    counts["inexpressible"] += 1
                    parts = encoded
            with span("container.serialize", i):
                staged = ccz.serialize(parts)
        staged_ns.append(clock() - start)
        if staged != archive:
            raise CompositionError(
                f"input {i} ({name}): the staged calls give {len(staged)} bytes, "
                f"compress gives {len(archive)}"
            )
        counts["circles"] += seg.circle_count
        counts["runs_found"] += len(found)
        counts["runs_kept"] += len(kept)
        counts["rebases"] += sum(1 for entry in parts.entries if entry.is_rebase)

        with span("container.parse", i):
            parsed = ccz.parse(archive)
        with span("decoder.undo_delta", i):
            ccz.undo_delta(parsed.entries)
        with span("decoder.decode", i):
            restored = ccz.decode(archive)
        run.check(i, archive, restored)
        archives.append(archive)
        with span("rle.rle_encode", i):
            packed = ccz.rle_encode(data)
        with span("rle.rle_decode", i):
            ccz.rle_decode(packed)
    run.keep_reference(archives)
    return {"counts": counts, "untraced": untraced_ns, "staged": staged_ns}


def span_totals(tracer: Tracer, inputs: int) -> dict[str, list[float]]:
    """Self time per span name and input; ``gc_ns:``/``gc_count:`` keys hold collector figures."""
    totals: dict[str, list[float]] = {}
    for row, own in zip(tracer.spans, tracer.self_times()):
        _, name, _, _, _, i, gc_ns, gc_count = row
        for key, value in ((name, own), ("gc_ns:" + name, gc_ns), ("gc_count:" + name, gc_count)):
            totals.setdefault(key, [0] * inputs)[i] += value
    return totals


def per_input(per_pass: list[list[int | None]], reduce) -> list[float]:
    """Reduce each input's samples over the passes, leaving out failed calls."""
    out = []
    for samples in zip(*per_pass):
        ok = [value for value in samples if value is not None]
        out.append(reduce(ok) if ok else 0)
    return out


def layer_metrics(totals: dict[str, float], counts: dict[str, int], mib: float) -> dict:
    """Per-layer metrics from per-input median totals (ns) and one pass's counts."""

    def per_mb(ns: float) -> float:
        return ns / 1e9 / mib

    init, scan = totals["encoder.EncoderState"], totals["encoder.run"]
    prune, delta = totals["encoder.remove_redundant_entries"], totals["encoder.delta_encode_entries"]
    parse, undo = totals["container.parse"], totals["decoder.undo_delta"]
    return {
        "circles.split_s_per_mb": per_mb(totals["circles.split_circles"]),
        "circles.per_kib": counts["circles"] / (mib * 1024),
        "encoder.init_s_per_mb": per_mb(init),
        "encoder.scan_s_per_mb": per_mb(scan),
        "encoder.prune_s_per_mb": per_mb(prune),
        "encoder.runs_found": counts["runs_found"],
        "encoder.runs_kept": counts["runs_kept"],
        "encoder.kept_ratio": counts["runs_kept"] / counts["runs_found"] if counts["runs_found"] else 0.0,
        "encoder.delta_s_per_mb": per_mb(delta),
        "encoder.rebase_entries": counts["rebases"],
        "encoder.inexpressible_inputs": counts["inexpressible"],
        "encoder.residual_s_per_mb": per_mb(totals["encoder.encode"] - init - scan - prune - delta),
        "encoder.gc_s_per_mb": per_mb(totals["gc_ns:encoder.encode"]),
        "encoder.gc_collections": totals["gc_count:encoder.encode"],
        "container.serialize_s_per_mb": per_mb(totals["container.serialize"]),
        "container.parse_s_per_mb": per_mb(parse),
        "decoder.undo_delta_s_per_mb": per_mb(undo),
        "decoder.merge_s_per_mb": per_mb(totals["decoder.decode"] - parse - undo),
        "decoder.gc_s_per_mb": per_mb(totals["gc_ns:decoder.decode"]),
        "rle.encode_s_per_mb": per_mb(totals["rle.rle_encode"]),
        "rle.decode_s_per_mb": per_mb(totals["rle.rle_decode"]),
        "trace.overhead_ratio": totals["staged"] / totals["untraced"] if totals["untraced"] else 1.0,
    }


def run_passes(one_pass, seconds: float, allowed: list[int]) -> list:
    """Run whole passes until the next one would end after ``seconds``.

    Passes that start in the first ``WARMUP_SHARE`` of the time warm up:
    their outputs are checked but their results are dropped.  The first
    two or three 256 KiB passes of a fresh process ran 10-15% slower than
    the rest.  At least one pass is kept.
    """
    results = []
    start = time.perf_counter()
    warm = start + seconds * WARMUP_SHARE
    deadline = start + seconds
    while True:
        gc.collect()  # every pass starts without the previous pass's garbage
        move_to_fastest_cpu(allowed)
        started = time.perf_counter()
        result = one_pass()
        if started >= warm:
            results.append(result)
        took = time.perf_counter() - started
        if results and time.perf_counter() + took > deadline:
            return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--t0", type=int, required=True, help="time.monotonic_ns() when the process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ccz = import_ccz()
    inputs = workloads.generate(args.workload, args.seed, args.scale)
    warmup = b"".join(data[:WARMUP_BYTES // 4] for _, data in inputs)[:WARMUP_BYTES]
    ccz.decompress(ccz.compress(warmup))
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration_ns": calibrate()}))
        return 0

    run = Run(ccz, inputs)
    allowed = cpus()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": len(inputs),
        "input_bytes": sum(len(data) for _, data in inputs),
        "input_sha256": digest(data for _, data in inputs),
    }
    if args.trace:
        def one_pass():
            tracer = Tracer(gc_meter)
            return traced_pass(run, tracer) | {"tracer": tracer}

        with SpeedClock() as clock, GcMeter(clock.now) as gc_meter:
            try:
                passes = run_passes(one_pass, args.seconds, allowed)
            except CompositionError as exc:
                print(f"staged composition check failed: {exc}", file=sys.stderr)
                return 1
        tracers = [p["tracer"] for p in passes]
        write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl", tracers)
        per_pass = [
            span_totals(p["tracer"], len(inputs)) | {"untraced": p["untraced"], "staged": p["staged"]}
            for p in passes
        ]
        totals = {key: sum(per_input([p[key] for p in per_pass], statistics.median))
                  for key in per_pass[0]}
        metrics = layer_metrics(totals, passes[0]["counts"], run.mib)
    else:
        with SpeedClock() as clock:
            passes = run_passes(lambda: untraced_pass(run, clock.now), args.seconds, allowed)
        compress_ns = per_input([p["compress"] for p in passes], statistics.median)
        decompress_ns = per_input([p["decompress"] for p in passes], statistics.median)
        call_ms = [ns / 1e6 for ns in compress_ns]
        metrics = {
            "compress_mbps": run.mib / (sum(compress_ns) / 1e9),
            "decompress_mbps": run.mib / (sum(decompress_ns) / 1e9),
            "compress_call_ms_p50": percentile(call_ms, 50),
            "compress_call_ms_p99": percentile(call_ms, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out["compress_calls"] = len(passes) * len(inputs)
        out["pass_compress_s"] = [sum(filter(None, p["compress"])) / 1e9 for p in passes]

    deterministic = run.check_rle_and_sizes()
    if args.trace:
        split = deterministic["byte_split"]
        metrics.update({
            "container.header_bytes": split["header"],
            "container.flag_bytes": split["flags"],
            "container.literal_bytes": split["literals"],
            "container.entry_bytes": split["entries"],
        })
    else:
        metrics["compression_factor"] = deterministic["compression_factor"]
        metrics["rle_factor"] = deterministic["rle_factor"]
    out.update({
        "passes": len(passes),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:10],
        "archive_sha256": digest(a or b"" for a in run.archives),
        "byte_split": deterministic["byte_split"],
        "metrics": metrics,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
