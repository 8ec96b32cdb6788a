"""What the traced run wraps, and how its spans become per-layer metrics.

Each entry point is a public function or method of one layer; its spans
are named after the layer metric they feed. The arrow in README.md's
table says which end-to-end metric, on which workload, each should move.
"""

from __future__ import annotations

from tracing import EntryPoint, IndexProbe, Tracer

__all__ = ["PER_LAYER_UNITS", "entry_points", "per_layer_metrics"]

RECORDER_SPAN = "repro.obs.recorder:Recorder.span"
FINGERPRINT = "repro.adl.index:structural_fingerprint"
LOG_APPENDS = ("repro.obs.jobs:JobRegistry.append", "repro.obs.jobs:AuditLog.append")

#: Every per-layer metric with its unit. ``_ms`` figures are mean
#: milliseconds per traced request spent inside the layer's entry points
#: (outermost calls only); ``count/req`` figures are means per request.
PER_LAYER_UNITS = {
    "scenarioml.parse_ms": "ms",
    "scenarioml.validate_ms": "ms",
    "adl.parse_ms": "ms",
    "adl.fingerprint_calls": "count/req",
    "adl.fingerprint_ms": "ms",
    "adl.index_build_ms": "ms",
    "adl.index_hit_ratio": "ratio",
    "adl.index_invalidations": "count/req",
    "adl.diff_ms": "ms",
    "core.style_ms": "ms",
    "core.coverage_ms": "ms",
    "core.constraints_ms": "ms",
    "core.walkthrough_ms": "ms",
    "core.walked_scenarios": "count/req",
    "core.incremental_ms": "ms",
    "core.rewalked_frac": "ratio",
    "core.incremental_hit_ratio": "ratio",
    "core.tracker_ms": "ms",
    "core.report_json_ms": "ms",
    "obs.spans_per_request": "count/req",
    "obs.coverage_finalize_ms": "ms",
    "obs.runs_record_ms": "ms",
    "obs.runs_load_ms": "ms",
    "obs.log_appends_per_request": "count/req",
    "obs.log_append_ms": "ms",
    "obs.alerts_ms": "ms",
    "obs.metrics_render_ms": "ms",
    "obs.jobs_queue_wait_ms": "ms",
    "obs.jobs_exec_ms": "ms",
    "serve.http_overhead_ms": "ms",
    "serve.polls_per_job": "count/req",
    "trace.overhead_ms": "ms",
}


def entry_points(rewalk: dict) -> tuple[EntryPoint, ...]:
    """The wrapped entry points. ``rewalk`` accumulates the re-walked
    and carried scenario counts of every incremental re-evaluation."""

    def count_rewalked(result) -> None:
        rewalk["rewalked"] += len(result.rewalked)
        rewalk["carried"] += len(result.carried_over)

    return (
        EntryPoint("repro.scenarioml.xml_io:parse_scenarioml", "scenarioml.parse"),
        EntryPoint("repro.scenarioml.validation:validate_scenario_set", "scenarioml.validate"),
        EntryPoint("repro.adl.xadl:parse_xadl", "adl.parse"),
        EntryPoint(FINGERPRINT, "adl.fingerprint"),
        EntryPoint("repro.adl.diff:diff_architectures", "adl.diff"),
        EntryPoint("repro.core.evaluator:style_findings", "core.style"),
        EntryPoint("repro.core.evaluator:coverage_findings", "core.coverage"),
        EntryPoint("repro.core.constraints:check_constraints", "core.constraints"),
        EntryPoint("repro.core.walkthrough:WalkthroughEngine.walk_scenario", "core.walkthrough"),
        EntryPoint("repro.core.negative:evaluate_negative_scenario", "core.walkthrough"),
        EntryPoint("repro.core.incremental:reevaluate", "core.incremental", on_result=count_rewalked),
        EntryPoint("repro.core.incremental:DependencyTracker.from_report", "core.tracker"),
        EntryPoint("repro.core.report_io:report_to_json", "core.report_json"),
        EntryPoint("repro.core.report_io:report_to_dict", "core.report_json"),
        EntryPoint(RECORDER_SPAN, "obs.span", timed=False),
        EntryPoint("repro.obs.coverage:CoverageBuilder.finalize", "obs.coverage_finalize"),
        EntryPoint("repro.obs.runs:RunRegistry.record", "obs.runs_record"),
        EntryPoint("repro.obs.runs:RunRegistry.load", "obs.runs_load"),
        *(EntryPoint(target, "obs.log_append") for target in LOG_APPENDS),
        EntryPoint("repro.obs.alerts:AlertEngine.evaluate", "obs.alerts"),
        EntryPoint("repro.obs.serve:ServeDaemon.render_metrics", "obs.metrics_render"),
    )


def per_layer_metrics(
    tracer: Tracer,
    probe: IndexProbe,
    rewalk: dict,
    requests: int,
    figures: dict,
    overhead_ms: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric from one traced run of
    ``requests`` traced requests. ``figures`` holds the ones the
    workload measured itself; those it has no part in read 0."""
    per = max(requests, 1)

    def ms(layer: str) -> float:
        return tracer.layer_seconds(layer) * 1e3 / per

    walked = rewalk["rewalked"] + rewalk["carried"]
    metrics = {
        "scenarioml.parse_ms": ms("scenarioml.parse"),
        "scenarioml.validate_ms": ms("scenarioml.validate"),
        "adl.parse_ms": ms("adl.parse"),
        "adl.fingerprint_calls": tracer.calls[FINGERPRINT] / per,
        "adl.fingerprint_ms": ms("adl.fingerprint"),
        "adl.index_build_ms": probe.build_seconds * 1e3 / per,
        "adl.index_hit_ratio": probe.hit_ratio,
        "adl.index_invalidations": probe.invalidations / per,
        "adl.diff_ms": ms("adl.diff"),
        "core.style_ms": ms("core.style"),
        "core.coverage_ms": ms("core.coverage"),
        "core.constraints_ms": ms("core.constraints"),
        "core.walkthrough_ms": ms("core.walkthrough"),
        "core.walked_scenarios": tracer.layer_calls("core.walkthrough") / per,
        "core.incremental_ms": ms("core.incremental"),
        "core.rewalked_frac": rewalk["rewalked"] / walked if walked else 0.0,
        "core.tracker_ms": ms("core.tracker"),
        "core.report_json_ms": ms("core.report_json"),
        "obs.spans_per_request": tracer.calls[RECORDER_SPAN] / per,
        "obs.coverage_finalize_ms": ms("obs.coverage_finalize"),
        "obs.runs_record_ms": ms("obs.runs_record"),
        "obs.runs_load_ms": ms("obs.runs_load"),
        "obs.log_appends_per_request": sum(tracer.calls[t] for t in LOG_APPENDS) / per,
        "obs.log_append_ms": ms("obs.log_append"),
        "obs.alerts_ms": ms("obs.alerts"),
        "obs.metrics_render_ms": ms("obs.metrics_render"),
        "trace.overhead_ms": overhead_ms,
    }
    metrics.update(figures)
    return {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
