"""Each oracle accepts the program's correct report and rejects a
deliberately wrong one."""

import copy
import json

import pytest

from inputs import BundleSpec, generate_bundle, replicated_pims
from oracles import check_pims, check_rendered, check_synthetic

from repro.adl.xadl import parse_xadl
from repro.core.evaluator import Sosae
from repro.core.mapping import Mapping
from repro.core.report import render_report
from repro.core.report_io import report_to_json
from repro.scenarioml.xml_io import parse_scenarioml
from repro.systems.pims import GET_SHARE_PRICES, build_pims


@pytest.fixture(scope="module")
def synthetic():
    bundle = generate_bundle(
        BundleSpec(
            scenarios=60, events_per_scenario=3, event_types=10, components=14,
            clusters=3, reuse=1.0, fan_out=1, seed=7,
        )
    )
    scenario_set = parse_scenarioml(bundle.scenarioml)
    architecture = parse_xadl(bundle.xadl)
    mapping = Mapping.from_json(bundle.mapping, scenario_set.ontology, architecture)
    report = Sosae(scenario_set, architecture, mapping).evaluate()
    return bundle, json.loads(report_to_json(report)), render_report(report)


@pytest.fixture(scope="module")
def pims_reports():
    pims = build_pims()
    suite = replicated_pims(pims, 3)
    reports = {}
    for excised in (True, False):
        architecture = (
            pims.excised_architecture() if excised else pims.architecture.clone("intact")
        )
        report = Sosae(
            suite,
            architecture,
            pims.mapping.rebind(architecture),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        ).evaluate()
        reports[excised] = json.loads(report_to_json(report))
    return tuple(scenario.name for scenario in suite.scenarios), reports


def _check(bundle, report):
    return check_synthetic(
        report, bundle.scenario_names, bundle.never_sampled, bundle.must_fail
    )


def test_synthetic_oracle_accepts_the_correct_report(synthetic):
    bundle, report, text = synthetic
    assert bundle.never_sampled, "the bundle must leave components unmapped"
    assert len(bundle.must_fail) == 2, "one scenario in 25 must fail"
    assert _check(bundle, report) == []
    assert check_rendered(text, bundle.must_fail) == []


def test_synthetic_oracle_rejects_a_failed_scenario(synthetic):
    bundle, report, _ = synthetic
    wrong = copy.deepcopy(report)
    passing = next(
        verdict for verdict in wrong["scenario_verdicts"]
        if verdict["scenario"] not in bundle.must_fail
    )
    passing["passed"] = False
    assert any("must pass" in problem for problem in _check(bundle, wrong))


def test_synthetic_oracle_rejects_a_wrong_pass(synthetic):
    # Path search that found every scenario reachable would pass the
    # island's scenarios too.
    bundle, report, text = synthetic
    wrong = copy.deepcopy(report)
    for verdict in wrong["scenario_verdicts"]:
        verdict["passed"] = True
    assert any("must fail" in problem for problem in _check(bundle, wrong))
    assert any(
        "must fail" in problem
        for problem in check_rendered(text.replace("FAIL ", "PASS "), bundle.must_fail)
    )


def test_synthetic_oracle_rejects_a_missing_unmapped_component(synthetic):
    bundle, report, _ = synthetic
    wrong = copy.deepcopy(report)
    dropped = next(
        i for i, f in enumerate(wrong["findings"]) if f["kind"] == "unmapped-component"
    )
    del wrong["findings"][dropped]
    assert any("unmapped-component" in problem for problem in _check(bundle, wrong))


def test_synthetic_oracle_rejects_a_missing_scenario(synthetic):
    bundle, report, _ = synthetic
    wrong = copy.deepcopy(report)
    wrong["scenario_verdicts"].pop()
    assert any("covers" in problem for problem in _check(bundle, wrong))


def test_pims_oracle_accepts_the_paper_result(pims_reports):
    names, reports = pims_reports
    assert check_pims(reports[True], names, excised=True) == []
    assert check_pims(reports[False], names, excised=False) == []


def test_pims_oracle_rejects_a_wrong_verdict(pims_reports):
    names, reports = pims_reports
    # The excised report read as if it were the intact architecture's.
    assert check_pims(reports[True], names, excised=False)
    # An excised report in which a replica of the faulty scenario passed.
    wrong = copy.deepcopy(reports[True])
    for verdict in wrong["scenario_verdicts"]:
        if verdict["scenario"] == f"{GET_SHARE_PRICES}+r1":
            verdict["passed"] = True
    assert any("missing failures" in p for p in check_pims(wrong, names, excised=True))
    # An intact report with one extra failure.
    wrong = copy.deepcopy(reports[False])
    wrong["scenario_verdicts"][0]["passed"] = False
    assert check_pims(wrong, names, excised=False)
