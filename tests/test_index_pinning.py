"""One communication-index pin per evaluation, and what it must not break.

``Sosae.evaluate`` pins the shared index for the whole pipeline, so the
structural fingerprint is computed once per evaluation rather than once
per scenario. The pin must never outlive the call: a mutation between two
evaluations (or between two lone queries) is still seen. The inter-event
search runs on cached successor tuples; the cache-accounting figures that
``sosae runs attribute`` ranks regressions by must not move.
"""

from __future__ import annotations

import pytest

import repro.adl.index as index_module
from repro.adl.index import communication_index
from repro.core.evaluator import Sosae
from repro.core.walkthrough import WalkthroughEngine
from repro.obs.recorder import Recorder, use
from repro.systems.generators import SyntheticSpec, build_synthetic
from repro.systems.pims import DATA_BUS, GET_SHARE_PRICES, LOADER


@pytest.fixture
def fingerprint_calls(monkeypatch) -> list:
    """Counts calls to the module global every staleness check uses."""
    calls: list = []
    original = index_module.structural_fingerprint

    def counting(architecture):
        calls.append(architecture)
        return original(architecture)

    monkeypatch.setattr(index_module, "structural_fingerprint", counting)
    return calls


def mutable_pims_sosae(pims) -> Sosae:
    """A PIMS evaluator over a private copy of the architecture (the
    session fixture's architecture must stay untouched)."""
    architecture = pims.architecture.clone("pims-mutable")
    return Sosae(
        pims.scenarios,
        architecture,
        pims.mapping.rebind(architecture),
        constraints=pims.constraints,
        walkthrough_options=pims.options,
    )


def failed_scenarios(report) -> set[str]:
    return {v.scenario for v in report.scenario_verdicts if not v.passed}


class TestOnePinPerEvaluation:
    @pytest.mark.parametrize("recorded", [False, True], ids=["null", "recorder"])
    def test_evaluate_fingerprints_once(self, fingerprint_calls, recorded):
        system = build_synthetic(
            SyntheticSpec(
                event_types=60,
                components=120,
                events_per_scenario=10,
                scenarios=100,
            )
        )
        sosae = Sosae(system.scenarios, system.architecture, system.mapping)
        if recorded:
            with use(Recorder()):
                report = sosae.evaluate()
        else:
            report = sosae.evaluate()
        assert len(report.scenario_verdicts) == 100
        assert len(fingerprint_calls) == 1


class TestMutationBetweenCalls:
    def test_second_evaluation_sees_an_excision(self, pims):
        sosae = mutable_pims_sosae(pims)
        assert failed_scenarios(sosae.evaluate()) == set()
        assert sosae.architecture.excise_links_between(LOADER, DATA_BUS)
        failed = failed_scenarios(sosae.evaluate())
        assert GET_SHARE_PRICES in failed
        assert all(name.startswith(GET_SHARE_PRICES) for name in failed)
        assert sosae.index.stats().invalidations == 1

    def test_lone_walk_sees_an_excision(self, pims):
        architecture = pims.architecture.clone("pims-mutable")
        engine = WalkthroughEngine(
            architecture, pims.mapping.rebind(architecture), pims.options
        )
        scenario = pims.scenarios.get(GET_SHARE_PRICES)
        assert engine.walk_scenario(scenario, pims.scenarios).passed
        architecture.excise_links_between(LOADER, DATA_BUS)
        verdict = engine.walk_scenario(scenario, pims.scenarios)
        assert not verdict.passed
        (finding,) = verdict.all_inconsistencies()
        assert finding.event_label == "4"

    def test_lone_best_path_drops_the_cached_adjacency(
        self, chain_architecture
    ):
        index = communication_index(chain_architecture)
        through = ("ui", "ui-logic", "logic", "logic-store", "store")
        for directed in (False, True):
            assert index.best_path_between(
                ["ui"], ["store"], respect_directions=directed
            ) == through
        chain_architecture.excise_links_between("logic", "logic-store")
        for directed in (False, True):
            assert index.best_path_between(
                ["ui"], ["store"], respect_directions=directed
            ) is None
        chain_architecture.link(
            ("logic", "calls"), ("logic-store", "a"), name="relinked"
        )
        assert index.best_path_between(["ui"], ["store"]) == through


class TestAccountingGolden:
    """Cache accounting over one evaluation of the paper's excised PIMS,
    hard-coded from the implementation that fingerprinted once per
    scenario and searched ``graph.adj`` directly. A cached adjacency
    lookup must count one hit, like the graph lookup it replaced."""

    def test_index_stats_and_scenario_costs_are_unchanged(self, pims):
        architecture = pims.excised_architecture()
        sosae = Sosae(
            pims.scenarios,
            architecture,
            pims.mapping.rebind(architecture),
            constraints=pims.constraints,
            walkthrough_options=pims.options,
        )
        before = sosae.index.stats()
        recorder = Recorder()
        with use(recorder):
            sosae.evaluate()
        after = sosae.index.stats()
        assert (
            after.hits - before.hits,
            after.misses - before.misses,
            after.invalidations - before.invalidations,
        ) == (41, 2, 0)
        spans = [
            span
            for root in recorder.roots
            for span in root.iter_spans()
            if span.name == "walkthrough.scenario"
        ]
        assert len(spans) == len(pims.scenarios.scenarios)
        assert sum(s.attributes["cost.index_queries"] for s in spans) == 41
        assert sum(s.attributes["cost.bfs_expansions"] for s in spans) == 0
