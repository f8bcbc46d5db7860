"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import speedprobe  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES
# the exact counters: they must repeat for a fixed seed and request count
EXACT = (
    "wpoly.w_poly.calls",
    "wpoly.w_poly.hit_ratio",
    "exact.RationalFunction.new",
    "exact.poly_gcd.calls",
    "exact.det_exact.calls",
    "exact.det_exact.max_n",
    "exact.nullspace_exact.calls",
    "exact.nullspace_exact.max_cells",
    "verify.operator_search.rung_max",
    "constructors.coeff_bits_max",
    "measures.inner_product.calls",
    "trace.requests",
)


def bench(workload, requests, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--requests", str(requests)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_and_record(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("record: "))
    return json.loads(lines[-1]), json.loads(record[len("record: "):])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_schema(workload, trace):
    requests = 2 if workload == "certify-operator" else 4
    result, record = result_and_record(bench(workload, requests, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (requests, 0)
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert record["seed"] == 1 and record["requests"] == requests
    assert sum(record["mix"].values()) == requests
    for key in ("python", "nproc", "cpu_model", "git_commit", "digest"):
        assert key in record
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(name, payload):
    if name == "generate-fresh":
        data = json.loads(payload)
        data["polys"][1]["norm"] = "12345/7"
        return json.dumps(data)
    if name == "certify-operator":
        data = json.loads(payload)
        gammas = data["operator"]["gammas"]
        gammas[2] = gammas[1]
        return json.dumps(data)
    return payload.replace('"pass": true', '"pass": false', 1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_output_counts_as_failed(name):
    workloads = run.import_workloads()
    workload = workloads.WORKLOADS[name]
    req = workloads.Stream(workload, 1)[0]
    payload = workload.execute(req)
    corrupted = _corrupt(name, payload)
    assert corrupted != payload
    results = [
        (req, payload, True, 0.0),
        (req, corrupted, True, 0.0),
        (req, "error: RequestFailed: exit code 2", False, 0.0),
    ]
    assert run.check_outputs(workload, results) == 2


@pytest.mark.parametrize("workload", ("generate-fresh", "verify-grid"))
def test_traced_and_untraced_runs_have_one_digest(workload):
    _, untraced = result_and_record(bench(workload, 4, 0))
    _, traced = result_and_record(bench(workload, 4, 1))
    assert untraced["digest"] == traced["digest"]


@pytest.mark.parametrize("workload", ("generate-fresh", "certify-operator"))
def test_traced_counts_repeat_for_one_seed(workload):
    first, _ = result_and_record(bench(workload, 4, 1, seed=7))
    second, _ = result_and_record(bench(workload, 4, 1, seed=7))
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("verify-grid", 2, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_latency_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail_latency([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10)
    assert percentile == pytest.approx(100 * 20 / 30)
    value, percentile, beyond = run.tail_latency([3.0, 1.0, 2.0])
    assert (value, percentile, beyond) == (3.0, 100.0, 0)


def test_reference_time_scales_wall_time_by_probe_speed():
    speed = speedprobe.SpeedProbe()
    period, ref = speedprobe.PERIOD_S, speedprobe.REFERENCE_PROBE_S
    # a host at half the reference speed: every probe takes twice as long
    speed.starts = [i * period for i in range(10)]
    speed.times = [2 * ref] * 10
    start, end = 0.25 * period, 5.25 * period  # holds the probes 1..5
    assert speed.wall_time(start, end) == pytest.approx(end - start - 5 * 2 * ref)
    assert speed.reference_time(start, end) == pytest.approx(speed.wall_time(start, end) / 2)


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speedprobe.SpeedProbe() as speed:
        time.sleep(5 * speedprobe.PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.times) >= 4
    assert all(t > 0 for t in speed.times)
