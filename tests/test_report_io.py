"""Unit tests for report persistence and baseline comparison."""

from __future__ import annotations

import json

import pytest

from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report_io import (
    compare_reports,
    report_from_json,
    report_to_dict,
    report_to_json,
)
from repro.errors import SerializationError
from repro.obs.runs import _report_digest


def evaluate(scenarios, architecture, mapping):
    return Sosae(scenarios, architecture, mapping).evaluate()


class TestPersistence:
    def test_roundtrip_preserves_outcomes(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        restored = report_from_json(report_to_json(report))
        assert restored.architecture == report.architecture
        assert restored.consistent == report.consistent
        assert restored.passed_scenarios == report.passed_scenarios
        assert restored.failed_scenarios == report.failed_scenarios

    def test_roundtrip_preserves_findings_and_steps(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        chain_architecture.excise_links_between("logic", "logic-store")
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        restored = report_from_json(report_to_json(report))
        original = {str(f) for f in report.all_inconsistencies()}
        recovered = {str(f) for f in restored.all_inconsistencies()}
        assert original == recovered
        verdict = restored.verdict("make-widget")
        assert verdict.traces[0].steps[0].event_rendering

    def test_dynamic_verdicts_survive_without_traces(self, crash):
        from repro.sim.network import ChannelPolicy
        from repro.sim.runtime import RuntimeConfig

        report = Sosae(
            crash.scenarios,
            crash.architecture,
            crash.mapping,
            bindings=crash.bindings,
            walkthrough_options=crash.options,
            runtime_config=RuntimeConfig(
                policy=ChannelPolicy(latency=1.0, failure_detection=True)
            ),
        ).evaluate(include_dynamic=True)
        restored = report_from_json(report_to_json(report))
        assert len(restored.dynamic_verdicts) == len(report.dynamic_verdicts)
        assert restored.consistent == report.consistent
        assert "[stored]" in restored.dynamic_verdicts[0].render()

    def test_negative_verdict_polarity_survives(
        self, small_ontology, chain_architecture, chain_mapping
    ):
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import (
            Scenario,
            ScenarioKind,
            ScenarioSet,
        )

        scenarios = ScenarioSet(small_ontology)
        scenarios.add(
            Scenario(
                name="forbidden",
                kind=ScenarioKind.NEGATIVE,
                events=(
                    TypedEvent(type_name="create", arguments={"subject": "x"}),
                ),
            )
        )
        report = evaluate(scenarios, chain_architecture, chain_mapping)
        restored = report_from_json(report_to_json(report))
        verdict = restored.verdict("forbidden")
        assert verdict.negative
        assert verdict.passed == report.verdict("forbidden").passed

    def test_malformed_json_rejected(self):
        with pytest.raises(SerializationError):
            report_from_json("{not json")

    def test_wrong_format_version_rejected(self):
        with pytest.raises(SerializationError):
            report_from_json('{"format": 99, "architecture": "x"}')

    def test_unknown_kind_rejected(self):
        text = (
            '{"format": 1, "architecture": "x", "scenario_verdicts": [], '
            '"findings": [{"kind": "weird", "message": "m"}]}'
        )
        with pytest.raises(SerializationError):
            report_from_json(text)


def excised_pims_report(pims):
    architecture = pims.excised_architecture()
    return Sosae(
        pims.scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    ).evaluate()


class TestCanonicalForm:
    def test_report_json_is_sorted_one_line_json(self, pims):
        text = report_to_json(excised_pims_report(pims))
        assert "\n" not in text
        assert text == json.dumps(json.loads(text), sort_keys=True)

    def test_run_digest_is_unchanged_across_the_format_change(self, pims):
        """Run histories recorded before reports were serialized once
        stay comparable: the digest of the paper's excised PIMS report
        is the value those histories carry."""
        assert _report_digest(excised_pims_report(pims)) == "79f4863c21d208f0"

    def test_indented_baseline_loads_and_compares_clean(self, pims):
        """The indented layout older releases saved still loads, and
        re-serializes to the canonical text of a fresh report."""
        report = excised_pims_report(pims)
        legacy = json.dumps(report_to_dict(report), indent=2)
        baseline = report_from_json(legacy)
        assert report_to_json(baseline) == report_to_json(report)
        comparison = compare_reports(baseline, report)
        assert comparison.summary() == "no verdict changes"


class TestComparison:
    def test_no_changes(self, small_scenarios, chain_architecture, chain_mapping):
        report = evaluate(small_scenarios, chain_architecture, chain_mapping)
        comparison = compare_reports(report, report)
        assert comparison.clean
        assert comparison.summary() == "no verdict changes"

    def test_regression_detected(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        baseline = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        broken = chain_architecture.clone("broken")
        broken.excise_links_between("logic", "logic-store")
        broken_mapping = Mapping.from_dict(
            chain_mapping.to_dict(), chain_mapping.ontology, broken
        )
        current = evaluate(small_scenarios, broken, broken_mapping)
        comparison = compare_reports(baseline, current)
        assert not comparison.clean
        assert "make-widget" in comparison.regressions
        assert "regressions" in comparison.summary()

    def test_fix_detected(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        broken = chain_architecture.clone("broken")
        broken.excise_links_between("logic", "logic-store")
        broken_mapping = Mapping.from_dict(
            chain_mapping.to_dict(), chain_mapping.ontology, broken
        )
        baseline = evaluate(small_scenarios, broken, broken_mapping)
        current = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        comparison = compare_reports(baseline, current)
        assert comparison.clean
        assert "make-widget" in comparison.fixes

    def test_new_and_removed_scenarios(
        self, small_scenarios, chain_architecture, chain_mapping
    ):
        baseline = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        from repro.scenarioml.events import TypedEvent
        from repro.scenarioml.scenario import Scenario

        small_scenarios.add(
            Scenario(
                name="fresh",
                events=(
                    TypedEvent(type_name="create", arguments={"subject": "x"}),
                ),
            )
        )
        current = evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        comparison = compare_reports(baseline, current)
        assert comparison.new_scenarios == ("fresh",)
        reverse = compare_reports(current, baseline)
        assert reverse.removed_scenarios == ("fresh",)

    def test_pims_excision_regression_story(self, pims):
        baseline = Sosae(
            pims.scenarios,
            pims.architecture,
            pims.mapping,
            walkthrough_options=pims.options,
        ).evaluate()
        evolved = pims.excised_architecture()
        mapping = Mapping.from_dict(
            pims.mapping.to_dict(), pims.ontology, evolved
        )
        current = Sosae(
            pims.scenarios, evolved, mapping, walkthrough_options=pims.options
        ).evaluate()
        comparison = compare_reports(baseline, current)
        assert comparison.regressions == ("get-share-prices",)
