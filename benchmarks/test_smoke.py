"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload with and without tracing on inputs a few hundred
times smaller than the real ones, and checks that every metric named in
``BENCHMARK.json`` is reported with its unit, that every output was
correct, and that the staged-composition check passes (and can fail).
"""

import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import measure  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, seed: int = 7, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / SPEC["command"][1]), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--scale", "0.004"],
        capture_output=True, text=True, timeout=120, cwd=root,
    )


def reports(proc) -> tuple[dict, dict]:
    """The per-workload detail line and the final result line."""
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    detail, result = reports(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_ratio"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_same_seed_gives_same_inputs_and_archives():
    first, first_result = reports(bench("small", 0, seed=3))
    again, again_result = reports(bench("small", 0, seed=3))
    other, _ = reports(bench("small", 0, seed=4))
    for key in ("input_sha256", "archive_sha256", "byte_split"):
        assert first[key] == again[key]
    for name in ("compression_factor", "rle_factor"):
        assert first_result["metrics"][name] == again_result["metrics"][name]
    assert other["input_sha256"] != first["input_sha256"]


def test_staged_composition_mismatch_fails_loudly():
    ccz = measure.import_ccz()
    broken = types.SimpleNamespace(**{name: getattr(ccz, name) for name in ccz.__all__})
    broken.compress = lambda data: ccz.compress(data) + b"\0"
    run = measure.Run(broken, workloads.generate("dense", 1, 0.001))
    with pytest.raises(measure.CompositionError):
        measure.traced_pass(run, measure.Tracer(measure.GcMeter()))


def test_inexpressible_input_is_counted_and_checked():
    # A periodic input on which encode's private inexpressible-run drop
    # fires, so delta_encode_entries rejects the pruned run list.
    ccz = measure.import_ccz()
    run = measure.Run(ccz, [workloads.generate("small", 1)[401]])
    result = measure.traced_pass(run, measure.Tracer(measure.GcMeter()))
    assert result["counts"]["inexpressible"] == 1
    assert not run.failures


def test_speed_clock_advances_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        start = clock.now()
        for _ in range(200):
            speed.sample_loop()
        took = clock.now() - start
        assert clock._ticks > 0
    # 200 loops, give or take the machine's speed and the sampler's share
    assert 20 * speed.REFERENCE_NS < took < 2000 * speed.REFERENCE_NS
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
