"""The measuring loop and the statistics every workload reports.

A workload is driven closed-loop by one client: the next request starts
only when the previous one returned. Each request is timed on its own;
the oracle check that follows it is not part of its latency.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "MIN_TAIL_SAMPLES",
    "OracleMismatch",
    "REFERENCE_NOMINAL_S",
    "RequestLog",
    "drive",
    "environment",
    "percentile",
    "peak_rss_mb",
    "reference_seconds",
    "request_count",
    "required_samples",
]

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_TAIL_SAMPLES = 10

#: A run stops measuring after this long even if it made fewer requests
#: than planned (p90 then fails on :func:`required_samples` when too few
#: were made), so it always ends well inside the three-minute limit.
MAX_MEASURE_SECONDS = 150.0


#: The reference task's time at the slower of the two speed levels of
#: the machine the README's figures come from (2 cores, x86-64, Python
#: 3.11). Timings are reported at this reference speed (see
#: :class:`RequestLog`), so they read close to what that machine shows.
REFERENCE_NOMINAL_S = 0.0037


class OracleMismatch(Exception):
    """A request's output disagrees with its oracle."""


def required_samples(q: float) -> int:
    """The fewest samples for which percentile ``q`` (0-100) has at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it: 100 for p90."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    return math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q) - 1e-9)


def percentile(samples, q: float) -> float:
    """Percentile ``q`` of ``samples`` by linear interpolation between
    closest ranks. A tail percentile (above the median) needs
    :func:`required_samples` samples; fewer raise ``ValueError``."""
    values = sorted(samples)
    if not values:
        raise ValueError("no samples")
    if q > 50 and len(values) < required_samples(q):
        raise ValueError(
            f"p{q:g} needs at least {required_samples(q)} samples "
            f"({MIN_TAIL_SAMPLES} beyond it), got {len(values)}"
        )
    rank = (len(values) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(values) - 1)
    if values[high] == math.inf:
        return math.inf if rank > low or values[low] == math.inf else values[low]
    return values[low] + (values[high] - values[low]) * (rank - low)


@functools.cache
def _reference_document() -> str:
    return "<graph>" + "".join(
        f'<node id="n{number}">'
        + "".join(f'<edge to="n{(number * 7 + hop * 13) % 300}"/>' for hop in range(4))
        + "</node>"
        for number in range(300)
    ) + "</graph>"


def _reference_task() -> int:
    """A miniature of the program's kind of work that runs none of its
    code: parse an XML graph, walk it breadth-first from a few sources,
    serialize the result as JSON."""
    root = ET.fromstring(_reference_document())
    graph = {node.get("id"): [edge.get("to") for edge in node] for node in root}
    found = {}
    for source in list(graph)[:8]:
        parents = {source: None}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbour in graph[node]:
                if neighbour not in parents:
                    parents[neighbour] = node
                    queue.append(neighbour)
        found[source] = sorted(parents)[:50]
    return len(json.dumps(found))


def reference_seconds() -> float:
    """Wall time of :func:`_reference_task` (2-4 ms): how fast the
    host runs Python right now, independently of the program under
    test. The garbage collector is paused, so the
    program's heap cannot lengthen it, and the task runs once untimed
    first, so the caches the last request left cold do not either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_task()
        started = time.perf_counter()
        _reference_task()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


@dataclass
class RequestLog:
    """Per-request outcomes of one measured phase.

    Each request's wall time is kept next to the :func:`reference_seconds`
    sample taken just before it. Figures "at reference speed" scale each
    request's busy time by :data:`REFERENCE_NOMINAL_S` over its own
    sample; the seconds it spent waiting while the program had nothing
    left to do (``idle``) are added back unscaled. This
    takes out the host's speed swings, which on a shared 2-core box
    switch between two levels about 1.8x apart for seconds at a time.
    Scaling each request by its own sample follows a switch. Scaling a
    whole run by its median sample does not.

    A request that raises, is refused, or fails its oracle counts as
    failed. Its latency enters the percentiles as infinite: a failed
    request misses every latency limit, whatever its wall time was."""

    seconds: list = field(default_factory=list)
    reference: list = field(default_factory=list)
    idle: list = field(default_factory=list)
    passed: list = field(default_factory=list)
    #: Scenarios each request evaluated (0 for a failed one).
    sizes: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @classmethod
    def combined(cls, *logs: "RequestLog") -> "RequestLog":
        merged = cls()
        for log in logs:
            merged.seconds += log.seconds
            merged.reference += log.reference
            merged.idle += log.idle
            merged.passed += log.passed
            merged.sizes += log.sizes
            merged.failures += log.failures
        return merged

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def scenarios(self) -> int:
        return sum(self.sizes)

    def record(
        self,
        seconds: float,
        reference: float,
        scenarios: int,
        failure: str = "",
        idle: float = 0.0,
    ) -> None:
        self.seconds.append(seconds)
        self.reference.append(reference)
        self.idle.append(min(idle, seconds))
        self.passed.append(not failure)
        self.sizes.append(0 if failure else scenarios)
        if failure:
            self.failures.append(failure)

    def _times(self, at_reference: bool) -> list:
        if not at_reference:
            return list(self.seconds)
        return [
            (seconds - idle) * REFERENCE_NOMINAL_S / reference + idle
            for seconds, reference, idle in zip(self.seconds, self.reference, self.idle)
        ]

    def latency_ms(self, q: float, at_reference: bool = True) -> float:
        """Percentile ``q`` of request latency in ms. When failures push
        it to infinity, the longest successful latency stands in, so the
        figure is still a number and no better than any success."""
        times = self._times(at_reference)
        value = percentile(
            [t if ok else math.inf for t, ok in zip(times, self.passed)], q
        )
        if value == math.inf:
            value = max(
                (t for t, ok in zip(times, self.passed) if ok), default=sum(times)
            )
        return value * 1e3

    def ms_per_scenario(self) -> float:
        """Median over successful requests of the time per scenario, in
        ms at reference speed: compares phases whose requests differ in
        size."""
        return 1e3 * statistics.median(
            t / size
            for t, size, ok in zip(self._times(True), self.sizes, self.passed)
            if ok and size
        )

    def scenarios_per_s(self, at_reference: bool = True) -> float:
        """Scenarios evaluated per second spent in requests. The oracle
        checks between requests are excluded."""
        busy = sum(self._times(at_reference))
        return self.scenarios / busy if busy else 0.0


def request_count(seconds: float, rate: float, cycle: int) -> int:
    """How many requests a run makes: ``seconds`` at ``rate`` requests
    per second, rounded up to whole input cycles, and never fewer than
    p90 needs. The count, not the clock, ends a run, so both sides of a
    comparison do the same work and leave the same history behind."""
    wanted = max(seconds * rate, required_samples(90))
    return math.ceil(wanted / cycle) * cycle


def drive(
    request: Callable[[int], int],
    check: Callable[[int], None],
    count: int,
    log: Optional[RequestLog] = None,
    first_index: int = 0,
    settle: Callable[[int], float] = lambda index: 0.0,
) -> RequestLog:
    """Make ``count`` requests ``request(i)`` closed-loop.

    ``request`` returns how many scenarios it evaluated. After the clock
    stopped, ``settle(i)`` waits until the program's
    background work for request ``i`` has ended and returns the request's
    idle seconds (see :class:`RequestLog`); then ``check(i)`` runs the
    oracle on the output and raises :class:`OracleMismatch` on
    disagreement. Any exception from these counts the request as failed;
    the loop goes on. Before each request the host's speed is sampled
    with :func:`reference_seconds`, never while work of the previous
    request is still running."""
    log = log if log is not None else RequestLog()
    started = time.perf_counter()
    for index in range(first_index, first_index + count):
        if time.perf_counter() - started > MAX_MEASURE_SECONDS:
            break
        reference = reference_seconds()
        begun = time.perf_counter()
        failure, scenarios, idle = "", 0, 0.0
        try:
            scenarios = request(index)
        except Exception as error:  # noqa: BLE001 — every failure is counted
            took = time.perf_counter() - begun
            failure = f"request {index}: {error!r}"
            with contextlib.suppress(Exception):
                settle(index)
        else:
            took = time.perf_counter() - begun
            try:
                idle = settle(index)
                check(index)
            except Exception as error:  # noqa: BLE001 — oracle or decode failure
                failure = f"request {index}: {error}"
        log.record(took, reference, scenarios, failure, idle)
    return log


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def environment(root: Path) -> dict:
    """Where a result was measured: machine, interpreter, library and
    source revision (``git_sha`` is null outside a git checkout)."""
    import networkx

    from repro.obs.runs import current_git_sha

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        # A parent directory's repository is not this source tree.
        "git_sha": current_git_sha(root) if (root / ".git").exists() else None,
        "platform": platform.platform(),
    }
