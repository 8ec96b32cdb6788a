"""Seeded workload inputs: synthetic spec bundles as text, and the
replicated PIMS suite.

The synthetic bundles are written here as ScenarioML, xADL and mapping
JSON text rather than produced by ``repro.systems.generators`` and the
program's own serializers. That keeps the workload fixed when a later
change touches those modules, and it lets the oracle know, from the
generator alone, what a correct report must say.

Topology: components sit on ``clusters`` bus connectors, and one
two-port gateway component bridges each pair of adjacent buses, so
every component can reach every other and walkthrough paths cross
gateways (path search does real work). Gateways are never mapped. One
more component, the island, has no link to anything; its own event
type maps to it alone. The few scenarios that contain that event must
fail, and every other scenario must pass.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from xml.sax.saxutils import quoteattr

__all__ = [
    "Bundle",
    "BundleSpec",
    "bundle_pool",
    "generate_bundle",
    "replicated_pims",
]


#: The component with no link, and the event type mapped to it alone.
ISLAND = "island"
ISLAND_EVENT = "ev-island"

#: One scenario in this many (and at least one per bundle) contains the
#: island's event and so has a step no communication path can carry.
FAILING_EVERY = 25


@dataclass(frozen=True)
class BundleSpec:
    """Size and shape of one synthetic bundle."""

    scenarios: int
    events_per_scenario: int
    event_types: int
    components: int
    clusters: int
    reuse: float
    fan_out: int
    seed: int


@dataclass(frozen=True)
class Bundle:
    """One spec bundle as the three documents a user submits, plus the
    facts the oracle checks the report against."""

    spec: BundleSpec
    scenarioml: str
    xadl: str
    mapping: str
    scenario_names: tuple[str, ...]
    #: Components no mapping entry names: each must be reported as an
    #: unmapped-component finding.
    never_sampled: tuple[str, ...]
    #: Scenarios that cross to the island: exactly these must fail.
    must_fail: tuple[str, ...]

    def as_job(self) -> dict:
        """The bundle as the job API's ``bundle`` object."""
        return {
            "scenarioml": self.scenarioml,
            "xadl": self.xadl,
            "mapping": self.mapping,
        }


def generate_bundle(spec: BundleSpec) -> Bundle:
    """The bundle for ``spec``; the same spec gives the same text."""
    if spec.events_per_scenario < 2:
        raise ValueError("a failing scenario needs an event besides the island's")
    rng = random.Random(spec.seed)
    tag = f"b{spec.seed}"
    types = [f"ev-{index}" for index in range(spec.event_types)]
    members = [f"comp-{index}" for index in range(spec.components)]
    gateways = [f"gate-{index}" for index in range(spec.clusters - 1)]

    fan_out = min(spec.fan_out, len(members))
    entries = {name: rng.sample(members, fan_out) for name in types}
    sampled = {component for targets in entries.values() for component in targets}
    entries[ISLAND_EVENT] = [ISLAND]

    weights = [1.0 / (index + 1) ** spec.reuse for index in range(len(types))]
    scenario_names = tuple(f"sc-{index}" for index in range(spec.scenarios))
    failing = set(
        rng.sample(range(spec.scenarios), max(1, spec.scenarios // FAILING_EVERY))
    )
    xml = [f'<scenarioml name="scenarios-{tag}">', f'  <ontology name="onto-{tag}">']
    xml.append('    <instanceType name="Actor" />')
    xml.append('    <instance name="System" type="Actor" />')
    for index, name in enumerate((*types, ISLAND_EVENT)):
        xml.append(f'    <eventType name="{name}" actor="System">')
        xml.append(f"      <text>The system handles request {index} for the [item]</text>")
        xml.append('      <parameter name="item" />')
        xml.append("    </eventType>")
    xml.append("  </ontology>")
    for scenario_index, scenario in enumerate(scenario_names):
        xml.append(f'  <scenario name="{scenario}">')
        chosen = rng.choices(types, weights=weights, k=spec.events_per_scenario)
        if scenario_index in failing:
            chosen[rng.randrange(len(chosen))] = ISLAND_EVENT
        for event_index, name in enumerate(chosen):
            item = quoteattr(f"item-{scenario_index}-{event_index}")
            xml.append(f'    <typedEvent type="{name}" label="{event_index + 1}">')
            xml.append(f'      <argument name="item" value={item} />')
            xml.append("    </typedEvent>")
        xml.append("  </scenario>")
    xml.append("</scenarioml>")

    arch = [f'<xArch name="arch-{tag}">']
    slots: dict[int, list[str]] = {bus: [] for bus in range(spec.clusters)}
    links = []
    for index, name in enumerate(members):
        bus = index % spec.clusters
        arch.append(f'  <component id="{name}">')
        arch.append('    <interface id="port" direction="inout" />')
        arch.append(f"    <responsibility>Serve concern {index}</responsibility>")
        arch.append("  </component>")
        slot = f"slot-{len(slots[bus])}"
        slots[bus].append(slot)
        links.append(((name, "port"), (f"bus-{bus}", slot)))
    arch.append(f'  <component id="{ISLAND}">')
    arch.append('    <interface id="port" direction="inout" />')
    arch.append("    <responsibility>Serve a concern nothing else reaches</responsibility>")
    arch.append("  </component>")
    for index, name in enumerate(gateways):
        arch.append(f'  <component id="{name}">')
        arch.append('    <interface id="left" direction="inout" />')
        arch.append('    <interface id="right" direction="inout" />')
        arch.append(f"    <responsibility>Bridge bus {index} and bus {index + 1}</responsibility>")
        arch.append("  </component>")
        for side, bus in (("left", index), ("right", index + 1)):
            slot = f"slot-{len(slots[bus])}"
            slots[bus].append(slot)
            links.append(((name, side), (f"bus-{bus}", slot)))
    for bus, bus_slots in slots.items():
        arch.append(f'  <connector id="bus-{bus}">')
        for slot in bus_slots:
            arch.append(f'    <interface id="{slot}" direction="inout" />')
        arch.append("  </connector>")
    for number, ((element, port), (bus, slot)) in enumerate(links, start=1):
        arch.append(f'  <link id="link-{number}">')
        arch.append(f'    <point element="{element}" interface="{port}" />')
        arch.append(f'    <point element="{bus}" interface="{slot}" />')
        arch.append("  </link>")
    arch.append("</xArch>")

    mapping = {
        "name": f"mapping-{tag}",
        "ontology": f"onto-{tag}",
        "architecture": f"arch-{tag}",
        "entries": entries,
    }
    return Bundle(
        spec=spec,
        scenarioml="\n".join(xml) + "\n",
        xadl="\n".join(arch) + "\n",
        mapping=json.dumps(mapping, indent=2),
        scenario_names=scenario_names,
        never_sampled=tuple(
            name for name in (*members, *gateways) if name not in sampled
        ),
        must_fail=tuple(scenario_names[index] for index in sorted(failing)),
    )


def bundle_pool(
    seed: int, count: int, low: int, high: int, events: int
) -> tuple[Bundle, ...]:
    """``count`` bundles of ``events``-event scenarios, in seeded order.

    Bundle ``k`` has the midpoint of the ``k``-th of ``count`` equal
    strata of ``[low, high)`` as its scenario count, and takes its
    mapping fan-out (1-3), reuse skew (0-1.5) and bus count (2-5) from
    fixed cycles over ``k``. Every seed therefore gives the same mix of
    work, and so the same latency quantiles up to noise. The seed picks
    every event sequence, mapping sample and name, and the order."""
    rng = random.Random(seed)
    width = (high - low) / count
    bundles = [
        generate_bundle(
            BundleSpec(
                scenarios=int(low + width * (k + 0.5)),
                events_per_scenario=events,
                event_types=60,
                components=100,
                clusters=2 + (k // 3) % 4,
                reuse=(0.0, 0.5, 1.0, 1.5)[k % 4],
                fan_out=1 + k % 3,
                seed=rng.randrange(1 << 30),
            )
        )
        for k in range(count)
    ]
    rng.shuffle(bundles)
    return tuple(bundles)


def replicated_pims(pims, copies: int):
    """The PIMS scenario set plus ``copies - 1`` renamed replicas of
    every top-level scenario. Alternatives stay attached to their
    originals only, so a replica walks exactly like its original."""
    from repro.scenarioml.scenario import ScenarioSet

    scaled = ScenarioSet(pims.ontology, name=f"pims-x{copies}")
    for scenario in pims.scenarios:
        scaled.add(scenario)
    for index in range(1, copies):
        for scenario in pims.scenarios:
            if scenario.alternative_of is None:
                scaled.add(
                    dataclasses.replace(scenario, name=f"{scenario.name}+r{index}")
                )
    return scaled
