"""kralldh benchmark: one seeded, closed-loop client in one process.

    python3 bench/run.py --workload generate-fresh --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports kralldh from its
``src``.  One client sends request i+1 only after request i returned;
everything runs in this process and thread, and kralldh's ``lru_cache``s
live for the whole run (the library-session model; a one-shot CLI user
pays them cold on every call).  Every output is checked exactly after
the timed loop.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
End-to-end times are reference-speed times (see speedprobe.py); the
record line before the result also gives them as plain wall times.
``--workload all`` runs each workload in its own process and prints one
table.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import speedprobe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SETUP_REPEATS = 11
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("generate-fresh", "certify-operator", "verify-grid")

E2E_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
LAYER_UNITS = {
    "wpoly.w_family.self_s": "s",
    "wpoly.w_poly.calls": "count",
    "wpoly.w_poly.hit_ratio": "ratio",
    "exact.RationalFunction.new": "count",
    "exact.poly_gcd.calls": "count",
    "exact.poly_gcd.self_s": "s",
    "classical.hahn_poly.self_s": "s",
    "exact.det_exact.calls": "count",
    "exact.det_exact.self_s": "s",
    "exact.det_exact.max_n": "count",
    "exact.det_with_poly_row.self_s": "s",
    "classical.dual_hahn_poly.self_s": "s",
    "exact.nullspace_exact.calls": "count",
    "exact.nullspace_exact.self_s": "s",
    "exact.nullspace_exact.max_cells": "count",
    "verify.operator_search.rung_max": "count",
    "verify.operator_search.self_s": "s",
    "verify.maps_lattice_powers.self_s": "s",
    "constructors.construct.self_s": "s",
    "constructors.coeff_bits_max": "count",
    "measures.inner_product.calls": "count",
    "measures.inner_product.self_s": "s",
    "verify.orthogonality_report.self_s": "s",
    "verify.moment_identity.self_s": "s",
    "verify.limits.self_s": "s",
    "cli.family_to_json.self_s": "s",
    "trace.requests": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="kralldh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests", type=int, default=None,
        help="run exactly this many requests instead of --seconds (tests)",
    )
    args = parser.parse_args(argv)
    if args.requests is not None and args.requests < 1 + args.trace:
        parser.error("--requests must leave at least one request per pass")
    return args


def import_workloads():
    """Import kralldh from this checkout's src and the workload module."""
    if not os.path.isfile(os.path.join(SRC, "kralldh", "__init__.py")):
        raise FileNotFoundError(f"no kralldh sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    for name in list(sys.modules):
        if name == "kralldh" or name.startswith("kralldh.") or name == "workloads":
            del sys.modules[name]
    workloads = importlib.import_module("workloads")
    origin = os.path.abspath(sys.modules["kralldh"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"kralldh imported from {origin}, not from {SRC}")
    return workloads


def timed_setup(name: str, seed: int):
    """Import plus building the first round of the request stream, repeated
    from a clean module table.  Returns the median reference-speed and wall
    times and the last import."""
    intervals = []
    with speedprobe.SpeedProbe() as speed:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workloads = import_workloads()
            stream = workloads.Stream(workloads.WORKLOADS[name], seed)
            stream[0]
            intervals.append((t0, time.perf_counter()))
    setup_s = statistics.median(speed.reference_time(*iv) for iv in intervals)
    wall_setup_s = statistics.median(speed.wall_time(*iv) for iv in intervals)
    return setup_s, wall_setup_s, workloads, stream


def run_pass(workload, stream, first: int, count=None, seconds=None, tracer=None):
    """Closed loop over stream[first:]: a fixed count, or until `seconds`
    have passed when a request returns.  Each result is (request, payload,
    ok, (start, end)).  Failures are recorded, not raised."""
    results = []
    t0 = time.perf_counter()
    i = first
    while (i - first < count) if count is not None else (time.perf_counter() - t0 < seconds):
        req = stream[i]
        if tracer is not None:
            tracer.current_request = i
        start = time.perf_counter()
        try:
            payload, ok = workload.execute(req), True
        except (Exception, SystemExit) as exc:
            payload, ok = f"error: {type(exc).__name__}: {exc}", False
        results.append((req, payload, ok, (start, time.perf_counter())))
        i += 1
    return results, time.perf_counter() - t0


def check_outputs(workload, results):
    """Exact checks of every output; returns the number of failed requests."""
    failed = 0
    for req, payload, ok, _ in results:
        try:
            passed = ok and workload.check(req, payload)
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            passed = False
        failed += not passed
    return failed


def digest(results) -> str:
    h = hashlib.sha256()
    for _, payload, _, _ in results:
        data = payload.encode()
        h.update(f"{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def tail_latency(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    With too few samples for that, the slowest sample stands in and the
    record says how many samples lie beyond it (zero)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(tracer, traced_wall, untraced_wall, n_requests):
    times = tracer.self_times_ns()

    def self_s(name):
        return times.get(name, (0, 0))[1] / 1e9

    def calls(name):
        return times.get(name, (0, 0))[0]

    covered = sum(total for _, total in times.values()) / 1e9
    values = {
        "wpoly.w_family.self_s": self_s("wpoly.w_family"),
        "wpoly.w_poly.calls": tracer.calls["wpoly.w_poly"],
        "wpoly.w_poly.hit_ratio": tracer.w_poly_hit_ratio(),
        "exact.RationalFunction.new": tracer.calls["exact.RationalFunction.new"],
        "exact.poly_gcd.calls": calls("exact.poly_gcd"),
        "exact.poly_gcd.self_s": self_s("exact.poly_gcd"),
        "classical.hahn_poly.self_s": self_s("classical.hahn_poly"),
        "exact.det_exact.calls": calls("exact.det_exact"),
        "exact.det_exact.self_s": self_s("exact.det_exact"),
        "exact.det_exact.max_n": tracer.max_n,
        "exact.det_with_poly_row.self_s": self_s("exact.det_with_poly_row"),
        "classical.dual_hahn_poly.self_s": self_s("classical.dual_hahn_poly"),
        "exact.nullspace_exact.calls": calls("exact.nullspace_exact"),
        "exact.nullspace_exact.self_s": self_s("exact.nullspace_exact"),
        "exact.nullspace_exact.max_cells": tracer.max_cells,
        "verify.operator_search.rung_max": tracer.rung_max(),
        "verify.operator_search.self_s": self_s("verify.operator_search"),
        "verify.maps_lattice_powers.self_s": self_s("verify.maps_lattice_powers"),
        "constructors.construct.self_s": self_s("constructors.construct"),
        "constructors.coeff_bits_max": tracer.coeff_bits_max,
        "measures.inner_product.calls": calls("measures.inner_product"),
        "measures.inner_product.self_s": self_s("measures.inner_product"),
        "verify.orthogonality_report.self_s": self_s("verify.orthogonality_report"),
        "verify.moment_identity.self_s": self_s("verify.moment_identity"),
        "verify.limits.self_s": self_s("verify.limits"),
        "cli.family_to_json.self_s": self_s("cli.family_to_json"),
        "trace.requests": n_requests,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.coverage_ratio": covered / traced_wall,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def run_workload(args):
    setup_s, wall_setup_s, workloads, stream = timed_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    # the first requests of the stream run untimed and unchecked
    for i in range(workload.warmup):
        workload.execute(stream[i])
    start = workload.warmup

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "setup_repeats": SETUP_REPEATS,
    }
    if args.trace == 0:
        with speedprobe.SpeedProbe() as speed:
            results, wall = run_pass(workload, stream, start, args.requests, args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracing

        # untraced half, then as many requests again traced
        first = None if args.requests is None else args.requests - args.requests // 2
        results, wall = run_pass(workload, stream, start, first, args.seconds / 2)
        second = len(results) if args.requests is None else args.requests // 2
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_pass(
                workload, stream, start + len(results), second, tracer=tracer
            )
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced_wall, wall, len(traced))
        os.makedirs(RESULTS_DIR, exist_ok=True)
        spans_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-spans.tsv")
        tracer.dump(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        results = results + traced

    failed = check_outputs(workload, results)
    attempted = len(results)
    record.update(
        requests=attempted,
        failed=failed,
        fail_ratio=failed / attempted,
        digest=digest(results),
        mix=dict(sorted(Counter(workload.mix_key(req) for req, *_ in results).items())),
    )
    if args.trace == 0:
        latencies = [speed.reference_time(*iv) for *_, iv in results]
        tail, pct, beyond = tail_latency(latencies)
        values = {
            "setup_s": setup_s,
            "requests_per_s": (attempted - failed) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        wall_latencies = [speed.wall_time(*iv) for *_, iv in results]
        record.update(
            wall_s=wall, latency_tail_percentile=pct, latency_tail_beyond=beyond,
            latency_samples=len(latencies),
            wall_setup_s=wall_setup_s,
            wall_requests_per_s=(attempted - failed) / sum(wall_latencies),
            wall_latency_p50_ms=statistics.median(wall_latencies) * 1e3,
            wall_latency_tail_ms=tail_latency(wall_latencies)[0] * 1e3,
            probe_samples=len(speed.times),
            probe_mean_us=statistics.fmean(speed.times) * 1e6,
            reference_probe_us=speedprobe.REFERENCE_PROBE_S * 1e6,
        )
    record["metrics"] = metrics
    return record


def print_table(rows):
    width = max(len(name) for name, *_ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>16.6g}  {unit}")


def run_all(args):
    """Each workload in its own process, so no cache carries over."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.requests is not None:
            cmd += ["--requests", str(args.requests)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {result['failed'] / result['attempted']:.6g}")
        print_table([(k, v["value"], v["unit"]) for k, v in result["metrics"].items()])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            summary = run_all(args)
        else:
            record = run_workload(args)
            print(f"== {args.workload} seed {args.seed}: {record['requests']} requests, "
                  f"fail_ratio {record['fail_ratio']:.6g}, digest {record['digest']}")
            print_table([(k, v["value"], v["unit"]) for k, v in record["metrics"].items()])
            print("record: " + json.dumps(record, sort_keys=True))
            summary = {
                "correct": record["failed"] == 0,
                "attempted": record["requests"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
