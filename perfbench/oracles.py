"""Oracles that judge a report without consulting the evaluator.

Each oracle reads the report as the user receives it (the decoded JSON
of ``report_to_json`` / ``/report``) and returns the list of ways it
disagrees with what must be true; an empty list means it agrees.

* Synthetic bundles: the generator knows the answer. Exactly the
  scenarios that cross to the island (the one component with no link)
  fail, every other scenario passes (every other component can reach
  every other), and the components reported as unmapped are exactly
  those no mapping entry names. The rendered text report lists exactly
  the same failures.
* PIMS: the paper's result. With the Data-Access↔Loader link excised,
  exactly "Get the current prices of shares" fails (here: the
  ``get-share-prices`` scenario and each of its replicas); on the
  intact architecture every scenario passes.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "check_pims",
    "check_rendered",
    "check_synthetic",
    "pims_expected_failures",
]

UNMAPPED_COMPONENT = "unmapped-component"


def _failed(report: dict) -> set:
    return {
        verdict["scenario"]
        for verdict in report["scenario_verdicts"]
        if not verdict["passed"]
    }


def _names(report: dict) -> list:
    return [verdict["scenario"] for verdict in report["scenario_verdicts"]]


def _listed(names: Iterable[str], limit: int = 5) -> str:
    names = sorted(names)
    more = f" (+{len(names) - limit} more)" if len(names) > limit else ""
    return ", ".join(names[:limit]) + more


def _failure_problems(failed: set, must_fail) -> list[str]:
    problems = []
    expected = set(must_fail)
    if failed - expected:
        problems.append(f"scenarios failed that must pass: {_listed(failed - expected)}")
    if expected - failed:
        problems.append(f"scenarios passed that must fail: {_listed(expected - failed)}")
    return problems


def check_synthetic(
    report: dict, scenario_names, never_sampled, must_fail
) -> list[str]:
    """Mismatches between ``report`` and a generated bundle's facts."""
    problems = []
    names = _names(report)
    if sorted(names) != sorted(scenario_names):
        problems.append(
            f"report covers {len(names)} scenario(s), bundle has "
            f"{len(scenario_names)}"
        )
    problems += _failure_problems(_failed(report), must_fail)
    unmapped = [
        element
        for finding in report["findings"]
        if finding["kind"] == UNMAPPED_COMPONENT
        for element in finding["elements"]
    ]
    if sorted(unmapped) != sorted(never_sampled):
        problems.append(
            f"{len(unmapped)} unmapped-component finding(s), expected "
            f"{len(never_sampled)}: reported {_listed(set(unmapped))}, "
            f"expected {_listed(set(never_sampled))}"
        )
    return problems


def check_rendered(text: str, must_fail) -> list[str]:
    """Mismatches between the text report (``render_report``, what
    ``sosae evaluate`` prints) and a generated bundle's failures: one
    ``FAIL <scenario>`` line for each scenario that must fail."""
    failed = {
        line[len("FAIL "):].strip()
        for line in text.splitlines()
        if line.startswith("FAIL ")
    }
    return [f"text report: {problem}" for problem in _failure_problems(failed, must_fail)]


def pims_expected_failures(scenario_names, excised: bool) -> frozenset:
    """The paper's verdict: on the excised architecture the share-price
    download and its replicas fail, and nothing else does."""
    if not excised:
        return frozenset()
    from repro.systems.pims import GET_SHARE_PRICES

    return frozenset(
        name
        for name in scenario_names
        if name == GET_SHARE_PRICES or name.startswith(f"{GET_SHARE_PRICES}+r")
    )


def check_pims(report: dict, scenario_names, excised: bool) -> list[str]:
    """Mismatches between ``report`` and the paper's PIMS result."""
    problems = []
    names = _names(report)
    if sorted(names) != sorted(scenario_names):
        problems.append(
            f"report covers {len(names)} scenario(s), suite has "
            f"{len(scenario_names)}"
        )
    expected = pims_expected_failures(scenario_names, excised)
    failed = _failed(report)
    if failed != expected:
        variant = "excised" if excised else "intact"
        problems.append(
            f"{variant} PIMS: unexpected failures {_listed(failed - expected)}; "
            f"missing failures {_listed(expected - failed)}"
        )
    return problems
