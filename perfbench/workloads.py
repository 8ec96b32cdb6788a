"""The four workloads, each driven from one process through the public
API. See README.md for why each exists and what it exercises.

A workload's life: ``setup()`` (timed as ``setup_s``), then
``request(i)`` closed-loop, each followed by ``check(i)``, the oracle,
outside the request's clock; ``close()`` stops everything it started.
Every instance works in its own empty directory, so each run starts
from the same (empty) run, job and audit history.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
import time
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from harness import OracleMismatch
from inputs import bundle_pool, replicated_pims
from oracles import check_pims, check_rendered, check_synthetic

from repro.adl import xadl
from repro.core import evaluator, mapping, report_io
from repro.core.report import render_report
from repro.obs import alerts, runs, serve
from repro.scenarioml import xml_io
from repro.systems import pims as pims_system

__all__ = ["WORKLOADS"]

#: Copies of each top-level PIMS scenario in the serve suites
#: (16 + 14 x 19 = 282 scenarios).
PIMS_COPIES = 20

#: The path the serve-edit daemon is told changed; it is marked
#: incremental-safe, like the architecture file of ``sosae serve``.
ARCHITECTURE_PATH = "architecture.xml"

#: Job API client: tenants it round-robins over, and how often it polls
#: a job.
TENANTS = ("acme", "globex", "initech")
POLL_SECONDS = 0.005
HTTP_TIMEOUT = 60.0
#: How often settling re-reads the audit log for a job's last line.
SETTLE_POLL_SECONDS = 0.0005

#: Submissions per jobs-roundtrip cycle that resubmit an earlier bundle
#: of the cycle. An assumption with no measured source (see README.md).
RESUBMITS = 40


def _alert_rules() -> tuple:
    """The rules every serve daemon evaluates after each run: a metric
    threshold, a run-window delta, a coverage rule and an anomaly rule."""
    rule = alerts.AlertRule
    return (
        rule(name="scenarios-failed", metric="report.scenarios_failed", threshold=0),
        rule(
            name="findings-growth", metric="findings", source="runs",
            mode="delta", window=5, threshold=0,
        ),
        rule(
            name="link-coverage", metric="link_ratio", mode="coverage",
            op="<", threshold=0.25,
        ),
        rule(
            name="wall-anomaly", metric="wall_seconds", source="runs",
            mode="anomaly", window=8, threshold=3.5,
        ),
    )


def _raise_on(problems: list) -> None:
    if problems:
        raise OracleMismatch("; ".join(problems))


class Workload:
    name = ""
    #: Entry points (tracing targets) the traced run must see called.
    required: tuple = ()
    #: Requests after which the input sequence repeats; a run measures
    #: whole cycles, so every run sees the same mix of inputs.
    cycle = 1
    #: Requests per second on the reference machine (2 cores, Python
    #: 3.11): a run of ``--seconds`` makes ``seconds * rate`` requests.
    rate = 6.0

    def __init__(self, seed: int, work_root: Path) -> None:
        self.seed = seed
        self.work_root = work_root
        self.workdir: Path | None = None
        self.daemon: serve.ServeDaemon | None = None
        #: Set while a traced block runs: figures the workload measures
        #: itself count only then.
        self.observing = False

    def setup(self) -> None:
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_root))

    def request(self, index: int) -> int:
        raise NotImplementedError

    def check(self, index: int) -> None:
        raise NotImplementedError

    def settle(self, index: int) -> float:
        """Wait, after request ``index`` returned, until the program has
        finished the work it still does in the background for it, so
        that work overlaps neither the oracle nor the next speed sample.
        Returns the seconds of the request spent waiting while the
        program had nothing left to do; they are not scaled to
        reference speed."""
        return 0.0

    def layer_figures(self) -> dict:
        """Per-layer figures the workload observes itself (ms or counts
        per request); the traced run adds them to its metrics."""
        return {}

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.shutdown()
            self.daemon = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


class ColdSpec(Workload):
    """``sosae evaluate --save-report``: parse the three documents, build
    a fresh pipeline (cold index caches), evaluate with the null
    recorder, render the text report the command prints, write the
    report JSON."""

    name = "cold-spec"
    #: Every request gets its own bundle, so the latency quantiles fall
    #: on a smooth size distribution, not between clusters of repeats.
    cycle = 120
    required = (
        "repro.scenarioml.xml_io:parse_scenarioml",
        "repro.scenarioml.validation:validate_scenario_set",
        "repro.adl.xadl:parse_xadl",
        "repro.adl.index:structural_fingerprint",
        "repro.core.evaluator:style_findings",
        "repro.core.evaluator:coverage_findings",
        "repro.core.constraints:check_constraints",
        "repro.core.walkthrough:WalkthroughEngine.walk_scenario",
        "repro.core.report_io:report_to_json",
    )

    def setup(self) -> None:
        super().setup()
        self.pool = bundle_pool(self.seed, self.cycle, low=100, high=600, events=3)
        self.report_path = self.workdir / "report.json"
        smallest = min(range(len(self.pool)), key=lambda i: self.pool[i].spec.scenarios)
        self._evaluate(self.pool[smallest])

    def _evaluate(self, bundle) -> int:
        scenario_set = xml_io.parse_scenarioml(bundle.scenarioml)
        architecture = xadl.parse_xadl(bundle.xadl)
        spec_mapping = mapping.Mapping.from_json(
            bundle.mapping, scenario_set.ontology, architecture
        )
        report = evaluator.Sosae(scenario_set, architecture, spec_mapping).evaluate()
        self.rendered = render_report(report)
        self.report_path.write_text(report_io.report_to_json(report))
        return len(scenario_set.scenarios)

    def request(self, index: int) -> int:
        return self._evaluate(self.pool[index % len(self.pool)])

    def check(self, index: int) -> None:
        bundle = self.pool[index % len(self.pool)]
        report = json.loads(self.report_path.read_text())
        _raise_on(
            check_synthetic(
                report, bundle.scenario_names, bundle.never_sampled, bundle.must_fail
            )
            + check_rendered(self.rendered, bundle.must_fail)
        )


class _PimsServe(Workload):
    """A serve daemon over the replicated PIMS suite, with a fresh run
    registry and the alert rules."""

    def _suite(self):
        self.pims = pims_system.build_pims()
        suite = replicated_pims(self.pims, PIMS_COPIES)
        # The seed fixes the order scenarios are declared in; what each
        # one walks, and so the oracle, does not depend on it.
        order = list(suite.scenarios)
        random.Random(self.seed).shuffle(order)
        shuffled = type(suite)(suite.ontology, name=suite.name)
        for scenario in order:
            if scenario.alternative_of is None:
                shuffled.add(scenario)
        for scenario in order:
            if scenario.alternative_of is not None:
                shuffled.add(scenario)
        self.suite = shuffled
        self.names = tuple(scenario.name for scenario in shuffled.scenarios)

    def _sosae(self, architecture):
        return evaluator.Sosae(
            self.suite,
            architecture,
            self.pims.mapping.rebind(architecture),
            constraints=self.pims.constraints,
            walkthrough_options=self.pims.options,
        )

    def _daemon(self, build, **options) -> serve.ServeDaemon:
        return serve.ServeDaemon(
            build,
            rules=_alert_rules(),
            registry=runs.RunRegistry(self.workdir / "runs"),
            label=f"perfbench-{self.name}",
            **options,
        )

    def check(self, index: int) -> None:
        report = json.loads(self.report)
        _raise_on(check_pims(report, self.names, excised=self.excised))


class ServeSteady(_PimsServe):
    """One ``run_once()`` and one ``/metrics`` render on the unchanged,
    already-built excised PIMS suite."""

    name = "serve-steady"
    required = (
        "repro.scenarioml.validation:validate_scenario_set",
        "repro.adl.index:structural_fingerprint",
        "repro.core.evaluator:style_findings",
        "repro.core.evaluator:coverage_findings",
        "repro.core.constraints:check_constraints",
        "repro.core.walkthrough:WalkthroughEngine.walk_scenario",
        "repro.core.incremental:DependencyTracker.from_report",
        "repro.core.report_io:report_to_json",
        "repro.obs.recorder:Recorder.span",
        "repro.obs.coverage:CoverageBuilder.finalize",
        "repro.obs.runs:RunRegistry.record",
        "repro.obs.runs:RunRegistry.load",
        "repro.obs.alerts:AlertEngine.evaluate",
        "repro.obs.serve:ServeDaemon.render_metrics",
    )
    excised = True

    def setup(self) -> None:
        super().setup()
        self._suite()
        sosae = self._sosae(self.pims.excised_architecture())
        self.daemon = self._daemon(lambda: sosae)
        for _ in range(2):
            self.request(-1)

    def request(self, index: int) -> int:
        outcome = self.daemon.run_once()
        if not outcome.ok:
            raise RuntimeError(f"serve run failed: {outcome.error}")
        self.scrape = self.daemon.render_metrics()
        self.report = self.daemon.report_json()
        return len(self.names)

    def check(self, index: int) -> None:
        super().check(index)
        if "sosae_serve_runs_total" not in self.scrape:
            raise OracleMismatch("/metrics scrape lacks the serve run counter")


class ServeEdit(_PimsServe):
    """``run_once(rebuild=True, changed_paths=[arch])`` where each cycle
    swaps in a fresh architecture clone, alternating the paper's
    Data-Access↔Loader excision with its restoration."""

    name = "serve-edit"
    cycle = 2
    rate = 10.0
    required = (
        "repro.adl.index:structural_fingerprint",
        "repro.adl.diff:diff_architectures",
        "repro.core.walkthrough:WalkthroughEngine.walk_scenario",
        "repro.core.incremental:reevaluate",
        "repro.core.incremental:DependencyTracker.from_report",
        "repro.core.report_io:report_to_json",
        "repro.obs.recorder:Recorder.span",
        "repro.obs.runs:RunRegistry.record",
        "repro.obs.runs:RunRegistry.load",
        "repro.obs.alerts:AlertEngine.evaluate",
    )

    def setup(self) -> None:
        super().setup()
        self._suite()
        self.excised = False
        self.daemon = self._daemon(
            self._build, incremental_safe_paths=(ARCHITECTURE_PATH,)
        )
        self.daemon.run_once()
        for _ in range(2):
            self.request(-1)

    def _build(self):
        self.excised = not self.excised
        if self.excised:
            return self._sosae(self.pims.excised_architecture())
        return self._sosae(self.pims.architecture.clone("pims-restored"))

    def request(self, index: int) -> int:
        outcome = self.daemon.run_once(
            rebuild=True, changed_paths=(ARCHITECTURE_PATH,)
        )
        if not outcome.ok:
            raise RuntimeError(f"serve run failed: {outcome.error}")
        self.report = self.daemon.report_json()
        return len(self.names)

    def layer_figures(self) -> dict:
        health = self.daemon.health()
        edits = health["incremental_hits"] + health["incremental_misses"]
        return {
            "core.incremental_hit_ratio": (
                health["incremental_hits"] / edits if edits else 0.0
            ),
        }


def _no_watched_spec():
    raise RuntimeError("the jobs daemon evaluates submitted bundles only")


class JobsRoundtrip(Workload):
    """One closed-loop client against an in-process ``ServeDaemon(jobs=
    True)`` on 127.0.0.1: POST ``/jobs``, poll ``GET /jobs/<id>`` to a
    terminal state, ``GET /report/<run_id>``."""

    name = "jobs-roundtrip"
    #: 160 distinct bundles and :data:`RESUBMITS` resubmissions. Job
    #: latency varies a lot from request to request (three threads
    #: share one core), so a run makes 200 requests, not the 100 p90
    #: needs.
    cycle = 200
    rate = 10.0
    required = (
        "repro.scenarioml.xml_io:parse_scenarioml",
        "repro.scenarioml.validation:validate_scenario_set",
        "repro.adl.xadl:parse_xadl",
        "repro.adl.index:structural_fingerprint",
        "repro.core.walkthrough:WalkthroughEngine.walk_scenario",
        "repro.core.report_io:report_to_dict",
        "repro.obs.recorder:Recorder.span",
        "repro.obs.coverage:CoverageBuilder.finalize",
        "repro.obs.runs:RunRegistry.record",
        "repro.obs.jobs:JobRegistry.append",
        "repro.obs.jobs:AuditLog.append",
    )

    def setup(self) -> None:
        super().setup()
        self.pool = bundle_pool(
            self.seed, self.cycle - RESUBMITS, low=40, high=200, events=4
        )
        self.schedule = resubmission_schedule(len(self.pool), RESUBMITS, self.seed)
        #: Terminal audit timestamps by job id, and how far the audit
        #: log has been read.
        self.finished: dict[str, float] = {}
        self.audit_read = 0
        self.figures = {"queue_wait": 0.0, "exec": 0.0, "http": 0.0, "polls": 0, "jobs": 0}
        self.daemon = serve.ServeDaemon(
            _no_watched_spec,
            registry=runs.RunRegistry(self.workdir / "runs"),
            label="perfbench-jobs",
            jobs=True,
        )
        host, port = self.daemon.start_http()
        self.base = f"http://{host}:{port}"
        for warm in range(2):
            self.request(warm - 2)
            self.settle(warm - 2)

    def _call(self, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"Accept": "application/json"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        request = Request(self.base + path, data=body, headers=headers)
        try:
            with urlopen(request, timeout=HTTP_TIMEOUT) as response:
                return response.status, response.read()
        except HTTPError as error:
            return error.code, error.read()

    def request(self, index: int) -> int:
        slot = self.schedule[index % len(self.schedule)]
        tenant = TENANTS[index % len(TENANTS)]
        self.job_id = None
        started = time.perf_counter()
        body = json.dumps(
            {"tenant": tenant, "label": f"req-{index}", "bundle": self.pool[slot].as_job()}
        ).encode("utf-8")
        status, raw = self._call("/jobs", body)
        if status != 202:
            raise RuntimeError(f"POST /jobs answered {status}: {raw[:200]!r}")
        job = json.loads(raw)["job"]
        self.job_id = job["job_id"]
        self.last_sleep = (0.0, 0.0)
        polls = 0
        while job["state"] not in ("done", "failed", "rejected"):
            # Wall clock: it is compared with the audit log's timestamps.
            slept = time.time()
            time.sleep(POLL_SECONDS)
            self.last_sleep = (slept, time.time())
            status, raw = self._call(f"/jobs/{job['job_id']}")
            polls += 1
            if status != 200:
                raise RuntimeError(f"GET /jobs/{job['job_id']} answered {status}")
            job = json.loads(raw)["job"]
        if job["state"] != "done":
            raise RuntimeError(f"job {job['job_id']} ended {job['state']}: {job['error']}")
        status, raw = self._call(f"/report/{job['run_id']}")
        if status != 200:
            raise RuntimeError(f"GET /report/{job['run_id']} answered {status}")
        round_trip = time.perf_counter() - started
        self.report, self.slot = raw, slot
        if not self.observing:
            return self.pool[slot].spec.scenarios
        execution = job["finished_at"] - job["started_at"]
        self.figures["queue_wait"] += job["started_at"] - job["submitted_at"]
        self.figures["exec"] += execution
        self.figures["http"] += round_trip - execution
        self.figures["polls"] += polls
        self.figures["jobs"] += 1
        return self.pool[slot].spec.scenarios

    def settle(self, index: int) -> float:
        """Wait until the job's terminal audit line is on disk. The
        client can see the job done before the executor has written its
        last ``jobs.jsonl`` line and then that audit line. The part of
        the last poll's sleep after the audit line's timestamp is idle
        time."""
        if self.job_id is None:
            return 0.0
        deadline = time.monotonic() + HTTP_TIMEOUT
        self._read_audit()
        while self.job_id not in self.finished:
            if time.monotonic() > deadline:
                raise RuntimeError(f"job {self.job_id} left no terminal audit line")
            time.sleep(SETTLE_POLL_SECONDS)
            self._read_audit()
        finished = self.finished.pop(self.job_id)
        slept, woke = self.last_sleep
        return max(0.0, woke - max(slept, finished))

    def _read_audit(self) -> None:
        """Record the terminal audit lines appended since the last read."""
        with self.daemon.jobs.audit.path.open("rb") as handle:
            handle.seek(self.audit_read)
            chunk = handle.read()
        complete = chunk[: chunk.rfind(b"\n") + 1]
        self.audit_read += len(complete)
        for line in complete.splitlines():
            entry = json.loads(line)
            if entry["transition"].endswith(("->done", "->failed")):
                self.finished[entry["job_id"]] = entry["timestamp"]

    def check(self, index: int) -> None:
        bundle = self.pool[self.slot]
        report = json.loads(self.report)
        _raise_on(
            check_synthetic(
                report, bundle.scenario_names, bundle.never_sampled, bundle.must_fail
            )
        )

    def layer_figures(self) -> dict:
        jobs = self.figures["jobs"] or 1
        return {
            "obs.jobs_queue_wait_ms": self.figures["queue_wait"] * 1e3 / jobs,
            "obs.jobs_exec_ms": self.figures["exec"] * 1e3 / jobs,
            "serve.http_overhead_ms": self.figures["http"] * 1e3 / jobs,
            "serve.polls_per_job": self.figures["polls"] / jobs,
        }


def resubmission_schedule(distinct: int, resubmits: int, seed: int) -> list:
    """The order of one jobs-roundtrip cycle, as indices into the bundle
    pool: each of the ``distinct`` bundles once, plus ``resubmits``
    repeats. The seed picks, for each repeat, an insertion point and an
    earlier submission to repeat; a repeat never lands next to a
    submission of the same bundle."""
    rng = random.Random(seed)
    schedule = list(range(distinct))
    while len(schedule) < distinct + resubmits:
        position = rng.randrange(2, len(schedule) + 1)
        slot = schedule[rng.randrange(position - 1)]
        neighbours = schedule[position - 1 : position + 1]
        if slot not in neighbours:
            schedule.insert(position, slot)
    return schedule


WORKLOADS = {
    workload.name: workload
    for workload in (ColdSpec, ServeSteady, ServeEdit, JobsRoundtrip)
}
