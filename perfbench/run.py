#!/usr/bin/env python3
"""Benchmark of hw_staffing: one workload per run, or all of them.

    python3 perfbench/run.py --workload staffing --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

It imports the package from the ``src`` directory next to ``perfbench``
and refuses to run without it. A run measures set-up in fresh
interpreters, issues requests in a closed loop for about --seconds (whole
passes over the seeded request set), then checks every recorded result
against a 40-digit reference computed outside the timed region. With
--trace 1 it runs one untraced and one traced pass over the same inputs
and reports per-layer numbers instead of end-to-end ones. The last line of
standard output is one JSON object with the result. Exit code 2 means the
benchmark could not run or could not evaluate a check.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Checks, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "hw_staffing"

# Fresh interpreters per set-up measurement; the median is reported.
SETUP_RUNS = 20
# A run keeps issuing passes until it has this many latencies, so that
# the 90th percentile has at least ten samples beyond it.
MIN_REQUESTS = 100
# Every time is scaled by the speed of a fixed pure-Python loop (the
# probe), run between requests. On a shared core the wall time of
# identical work swings by a third within seconds and by a fifth between
# minutes, while its ratio to the probe's time stays within a few percent.
# A request is scaled by the median of the PROBE_WINDOW probes on either
# side of it, and times are reported in ms and s at the speed where the
# probe takes PROBE_REF_S.
PROBE_LOOPS = 20_000
PROBE_REF_S = 1.25e-3
PROBE_WINDOW = 9
# Set-up is mostly process start and module loading, whose speed follows
# the kernel and the file cache rather than the probe: over a few minutes
# the ratio of set-up to the probe varied as much as set-up itself. So
# set-up is scaled instead by the start of a bare interpreter (python -c
# pass) run after each set-up child, which halved its spread, and reported
# in s at the speed where that start takes BARE_START_REF_S.
BARE_START_REF_S = 0.05
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "calls_ok_frac": "ratio",
    "values_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

_SPAN_COLUMNS = {
    "erlang.erlang_c_integer": ("calls", "self_ms"),
    "erlang.erlang_b_integer": ("self_ms",),  # the O(n) recurrence itself
    "erlang.erlang_c_real": ("calls", "self_ms", "fail", "fail_ms"),
    "erlang.real_staffing_level": ("self_ms",),
    "erlang.min_servers": ("self_ms",),
    "erlang.erlang_c_gamma": ("calls", "self_ms", "fail"),
    "numerics.bisect_monotone": ("calls", "self_ms"),
    "numerics.upper_gamma_regularized": ("calls", "self_ms"),
    "numerics.integrate_semi_infinite": ("self_ms",),
    "halfin_whitt.beta_for_target": ("self_ms",),
    "halfin_whitt.hw_limit": ("calls",),
    "halfin_whitt.hw_sweep": ("calls", "self_ms"),
    "halfin_whitt.inverse_sweep": ("self_ms",),
    "proof_kit.check_stochastic_order": ("self_ms",),
    "proof_kit.tail_y": ("calls",),
    "proof_kit.moment_y": ("calls", "self_ms"),
    "mmn_oracle.simulate_mmn": ("self_ms",),
    "mmn_oracle.birth_death_wait_prob": ("self_ms",),
    "svg.polyline_chart": ("self_ms",),
    "cli.main": ("self_ms",),
    "request": ("self_ms",),
}
_COLUMN_UNITS = {"calls": "count", "fail": "count", "self_ms": "ms", "fail_ms": "ms"}

PER_LAYER = {f"{span}.{col}": _COLUMN_UNITS[col] for span, cols in _SPAN_COLUMNS.items() for col in cols}
PER_LAYER.update(
    {
        "erlang.recurrence_steps": "count",
        "erlang.c_integer_per_min_servers": "calls/call",
        "erlang.c_real_per_staffing": "calls/call",
        "mmn_oracle.arrivals": "count",
        "mmn_oracle.us_per_arrival": "us",
        "import.numpy_ms": "ms",
        "import.hw_staffing_ms": "ms",
        "trace.overhead_frac": "ratio",
        "requests": "count",
        "fail_frac": "ratio",
        "wrong_frac": "ratio",
        "certified_log10_a": "log10_erlang",
        "probe_ms": "ms",
    }
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run or cannot evaluate a check."""


def load_library():
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchmarkError(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hw_staffing
    import hw_staffing.cli  # noqa: F401  (the evidence suite calls cli.main)

    if not Path(hw_staffing.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"{PACKAGE} was imported from {hw_staffing.__file__}, not {SRC}")
    return hw_staffing


def _child(code: str, *flags: str) -> list[str]:
    return [sys.executable, *flags, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"]


def _run_child(cmd: list[str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchmarkError(f"set-up child failed: {exc}\n{getattr(exc, 'stderr', '')}") from exc


def probe() -> float:
    """Wall time of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def _timed_child(cmd: list[str]) -> float:
    start = time.perf_counter()
    _run_child(cmd)
    return time.perf_counter() - start


def setup_seconds(code: str) -> float:
    """Median scaled time of fresh interpreters importing and calling once."""
    cmd, bare = _child(code), [sys.executable, "-c", "pass"]
    _run_child(cmd)  # writes the bytecode caches, which every later start reuses
    times, bare_times = [], []
    for _ in range(SETUP_RUNS):
        times.append(_timed_child(cmd))
        bare_times.append(_timed_child(bare))
    return statistics.median(times) * BARE_START_REF_S / statistics.median(bare_times)


def import_ms(code: str) -> tuple[float, float]:
    """Median cumulative import time of numpy and the package, in ms."""
    numpy_ms, package_ms = [], []
    for _ in range(IMPORTTIME_RUNS):
        cumulative = {}
        for line in _run_child(_child(code, "-X", "importtime")).stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_ms.append(cumulative.get("numpy", 0) / 1e3)
        package_ms.append(cumulative.get(PACKAGE, 0) / 1e3)
    return statistics.median(numpy_ms), statistics.median(package_ms)


def run_passes(workload, typed_error, *, passes=None, budget_s=None, tracer=None):
    """Closed loop over whole passes of the request set.

    With a budget, another pass starts while fewer than MIN_REQUESTS
    requests were issued, or while the mean pass time says it will end
    within the budget. A probe runs before every request and after the
    last. Returns each pass's scaled latencies and scale factors in
    request order, the raw probe times, the outcomes and the count of
    requests that raised unexpectedly.
    """
    walls, latencies, scales, probes, outcomes, failed = [], [], [], [], [], 0
    while True:
        start = time.perf_counter()
        raw, pass_probes = [], [probe()]
        for item in workload.items:
            record = Recorder(typed_error)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    workload.run(item, record)
                else:
                    tracer.request(len(raw), lambda: workload.run(item, record))
            except Exception:  # an unexpected exception fails the request; keep going
                traceback.print_exc()
                failed += 1
            raw.append(time.perf_counter() - t0)
            pass_probes.append(probe())
            outcomes.append((item, record.calls))
        walls.append(time.perf_counter() - start)
        factors = [
            PROBE_REF_S / statistics.median(pass_probes[max(0, i + 1 - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
            for i in range(len(raw))
        ]
        latencies.append([t * f for t, f in zip(raw, factors)])
        scales.append(factors)
        probes += pass_probes
        done = len(walls)
        if passes is not None and done >= passes:
            break
        issued = done * len(workload.items)
        predicted = math.fsum(walls) * (done + 1) / done
        if budget_s is not None and issued >= MIN_REQUESTS and predicted > budget_s:
            break
    return latencies, scales, probes, outcomes, failed


def layer_metrics(tracer, scale, checks, certified, overhead, imports, requests) -> dict:
    summary = tracer.summary(scale)

    def col(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{span}.{c}": col(span, c) for span, cols in _SPAN_COLUMNS.items() for c in cols}
    values.update(
        {
            "erlang.recurrence_steps": col("erlang.erlang_c_integer", "work"),
            "erlang.c_integer_per_min_servers": ratio(
                tracer.calls_under("erlang.erlang_c_integer", "erlang.min_servers"),
                col("erlang.min_servers", "calls"),
            ),
            "erlang.c_real_per_staffing": ratio(
                tracer.calls_under("erlang.erlang_c_real", "erlang.real_staffing_level"),
                col("erlang.real_staffing_level", "calls"),
            ),
            "mmn_oracle.arrivals": col("mmn_oracle.simulate_mmn", "work"),
            "mmn_oracle.us_per_arrival": ratio(
                col("mmn_oracle.simulate_mmn", "self_ms") * 1e3, col("mmn_oracle.simulate_mmn", "work")
            ),
            "import.numpy_ms": imports[0],
            "import.hw_staffing_ms": imports[1],
            "trace.overhead_frac": overhead,
            "requests": requests,
            "fail_frac": ratio(checks.failed_calls, checks.calls),
            "wrong_frac": ratio(checks.wrong, checks.checked),
            "certified_log10_a": certified,
        }
    )
    return values


def run_workload(args) -> dict:
    lib = load_library()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](lib, args.seed, OUT)
    typed_error = lib.StaffingError

    if args.trace:
        imports = import_ms(workload.setup_code)
    else:
        setup = setup_seconds(workload.setup_code)
    exec(workload.setup_code, {})  # the same tiny call, untimed, in this process

    tracer = None
    if args.trace:
        plain, _, _, plain_outcomes, plain_failed = run_passes(workload, typed_error, passes=1)
        tracer = Tracer()
        undo = tracer.install(PACKAGE)
        try:
            latencies, scales, probes, outcomes, failed = run_passes(
                workload, typed_error, passes=1, tracer=tracer
            )
        finally:
            undo()
        checked_outcomes = plain_outcomes + outcomes
        failed += plain_failed
        attempted = len(plain_outcomes) + len(outcomes)
    else:
        latencies, scales, probes, outcomes, failed = run_passes(
            workload, typed_error, budget_s=args.seconds
        )
        checked_outcomes = outcomes
        attempted = len(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is outside the timed region. The reference imports
    # mpmath, so it is loaded after peak_rss_mb is read.
    from reference import Reference, ReferenceFailure, self_check

    ref = Reference()
    checks = Checks()
    try:
        self_check(ROOT, ref)
        workload.check(checked_outcomes, ref, checks)
        certified = workload.certified(outcomes, ref) if hasattr(workload, "certified") else 0.0
    except ReferenceFailure as exc:
        raise BenchmarkError(f"reference failed: {exc}") from exc

    for line in checks.unexplained:
        print(f"unexplained: {line}", file=sys.stderr)
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        overhead = math.fsum(latencies[0]) / math.fsum(plain[0]) - 1.0
        values = layer_metrics(
            tracer, scales[0], checks, certified, overhead, imports, len(workload.items)
        )
        values["probe_ms"] = statistics.median(probes) * 1e3
        units = PER_LAYER
    else:
        times = [t for times in latencies for t in times]
        percentiles = statistics.quantiles(times, n=100, method="inclusive")
        values = {
            "setup_s": setup,
            "req_per_s": len(times) / math.fsum(times),
            "req_p50_ms": percentiles[49] * 1e3,
            "req_p90_ms": percentiles[89] * 1e3,
            "calls_ok_frac": 1.0 - checks.failed_calls / checks.calls,
            "values_ok_frac": 1.0 - checks.wrong / checks.checked,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{args.workload:9s} {name:40s} {values[name]:<24.10g} {unit}")
    return {
        "correct": failed == 0 and not checks.unexplained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own interpreter."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            except subprocess.TimeoutExpired as exc:
                raise BenchmarkError(f"{name} (trace {trace}) timed out") from exc
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchmarkError(f"{name} (trace {trace}) exited with {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            part = json.loads(lines[-1])
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            for metric, entry in part["metrics"].items():
                result["metrics"][f"{name}.{metric}"] = entry
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
