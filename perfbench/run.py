"""Run one benchmark workload against the program in ``src/`` and print
its metrics.

    python3 perfbench/run.py --workload cold-spec --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``--seconds`` sets how much work a run
does: each workload makes ``seconds`` times its request rate on the
reference machine (rounded up to whole input cycles, at least 100), so
a run lasts about ``--seconds`` there and both sides of a comparison do
the same work. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
gives the per-layer metrics. Every metric is printed with its unit,
then the oracle verdict, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Requests per alternating untraced/traced block of the traced run.
TRACE_BLOCK = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _set_up(workload_class, seed: int, work_root: Path):
    """Set the workload up :data:`SETUP_REPEATS` times, keeping the last
    instance; returns it and the median set-up time, as measured and at
    reference speed.

    A set-up lasts long enough for the host's speed to switch while it
    runs, so it is scaled by the median of 3 reference samples taken
    before it and 3 taken after it, not by a single sample."""
    from harness import REFERENCE_NOMINAL_S, reference_seconds

    measured, scaled = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = workload_class(seed, work_root)
        around = [reference_seconds() for _ in range(3)]
        started = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        measured.append(time.perf_counter() - started)
        around += [reference_seconds() for _ in range(3)]
        scaled.append(measured[-1] * REFERENCE_NOMINAL_S / statistics.median(around))
    return workload, statistics.median(measured), statistics.median(scaled)


def measure(workload_class, seed: int, seconds: float, work_root: Path):
    """The end-to-end run: tracing off. Times are reported at reference
    speed (see :class:`harness.RequestLog`); the figures as measured are
    printed too."""
    from harness import drive, peak_rss_mb, request_count

    count = request_count(seconds, workload_class.rate, workload_class.cycle)
    workload, setup_measured, setup_s = _set_up(workload_class, seed, work_root)
    try:
        gc.collect()
        log = drive(workload.request, workload.check, count, settle=workload.settle)
    finally:
        workload.close()
    print(
        f"as measured: setup {setup_measured:.4f} s, "
        f"p50 {log.latency_ms(50, at_reference=False):.2f} ms, "
        f"p90 {log.latency_ms(90, at_reference=False):.2f} ms, "
        f"{log.scenarios_per_s(at_reference=False):.1f} scenarios/s"
    )
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": log.latency_ms(50),
        "latency_p90_ms": log.latency_ms(90),
        "scenarios_per_s": log.scenarios_per_s(),
        "peak_rss_mb": peak_rss_mb(),
    }
    return log, metrics, END_TO_END_UNITS


def trace(workload_class, seed: int, seconds: float, work_root: Path):
    """The traced run: alternating untraced and traced blocks of
    :data:`TRACE_BLOCK` requests, so the tracing overhead is measured
    against the same warm state."""
    from collections import Counter

    from harness import RequestLog, drive, request_count
    from layers import PER_LAYER_UNITS, entry_points, per_layer_metrics
    from tracing import IndexProbe, Tracer

    # Import the whole program first: a module imported while the
    # tracer is installed would keep a wrapper bound after uninstall.
    for module in pkgutil.walk_packages([str(SRC / "repro")], "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    rewalk: Counter = Counter()
    tracer = Tracer(entry_points(rewalk))
    probe = IndexProbe()
    # The probe sees every index created from set-up on; the tracer is
    # installed only around traced blocks.
    probe.install()
    workload = workload_class(seed, work_root)
    plain, traced = RequestLog(), RequestLog()
    try:
        workload.setup()

        def traced_request(index: int) -> int:
            tracer.request = index
            probe.begin()
            span = tracer.open("request")
            try:
                return workload.request(index)
            finally:
                tracer.close(span)
                probe.end()

        count = request_count(seconds, workload.rate, workload.cycle)
        for block, index in enumerate(range(0, count, TRACE_BLOCK)):
            if block % 2:
                tracer.install()
                workload.observing = True
                try:
                    drive(
                        traced_request, workload.check, TRACE_BLOCK, traced, index,
                        settle=workload.settle,
                    )
                finally:
                    tracer.uninstall()
                    workload.observing = False
            else:
                drive(
                    workload.request, workload.check, TRACE_BLOCK, plain, index,
                    settle=workload.settle,
                )
        tracer.require(workload.required)
        figures = workload.layer_figures()
    finally:
        workload.close()
        probe.uninstall()
    # Traced and untraced blocks see different inputs, so the overhead is
    # compared per scenario and scaled to the median request size.
    log = RequestLog.combined(plain, traced)
    overhead_ms = (traced.ms_per_scenario() - plain.ms_per_scenario()) * (
        statistics.median(log.sizes)
    )
    metrics = per_layer_metrics(
        tracer, probe, rewalk, traced.attempted, figures, overhead_ms
    )
    _print_layers(tracer, traced.attempted)
    return log, metrics, PER_LAYER_UNITS


def _print_layers(tracer, requests: int) -> None:
    per = max(requests, 1)
    own = tracer.self_seconds_by_layer()
    print(f"{'entry point':62} {'calls/req':>10}")
    for target in sorted(tracer.calls):
        print(f"{target:62} {tracer.calls[target] / per:10.2f}")
    print(f"{'layer':24} {'inclusive ms/req':>17} {'self ms/req':>12}")
    for layer in sorted(own):
        print(
            f"{layer:24} {tracer.layer_seconds(layer) * 1e3 / per:17.3f} "
            f"{own[layer] * 1e3 / per:12.3f}"
        )


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC}/repro; run from the root "
            "of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # One CPU for every thread of the run: the reference samples then
    # see the speed of the core the program's threads run on (Python
    # runs one thread at a time anyway).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from harness import environment
    from repro.obs.log import configure
    from workloads import WORKLOADS

    configure(-1)
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    work_root = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    work_root.mkdir(parents=True, exist_ok=True)
    run = trace if args.trace else measure
    try:
        log, metrics, units = run(
            WORKLOADS[args.workload], args.seed, args.seconds, work_root
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()

    meta = environment(ROOT)
    meta["source_digest"] = _source_digest()
    print("environment " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:30} {value:14.4f} {units[name]}")
    print(
        f"oracle: {log.attempted - log.failed}/{log.attempted} requests agreed"
    )
    for failure in log.failures[:5]:
        print(f"  FAILED {failure}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
