"""The tracer: self time, wrapping where names are looked up, and the
loud failure when a wrapper records nothing."""

import sys
import types

import pytest

from tracing import EntryPoint, MissedEntryPoints, Span, Tracer, self_times


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, request=0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("request", 0.0, 10.0),
        _span("evaluate", 1.0, 9.0, parent=0),
        _span("walk", 2.0, 4.0, parent=1),
        _span("walk", 5.0, 8.0, parent=1),
        _span("fingerprint", 2.5, 3.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 3.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 5.0, parent=0),
        _span("b", 3.0, 7.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


@pytest.fixture
def fake_layer():
    """A module defining ``work`` and a second importing it by value."""
    source = types.ModuleType("fake_layer_source")
    exec(
        "def work(x):\n"
        "    return x + 1\n"
        "class Engine:\n"
        "    def step(self, x):\n"
        "        return work(x)\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n",
        source.__dict__,
    )
    user = types.ModuleType("fake_layer_user")
    user.work = source.work
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    yield source, user
    del sys.modules[source.__name__], sys.modules[user.__name__]


def test_names_imported_by_value_are_wrapped_where_looked_up(fake_layer):
    source, user = fake_layer
    original = source.work
    tracer = Tracer(
        (
            EntryPoint("fake_layer_source:work", "layer.work"),
            EntryPoint("fake_layer_source:Engine.step", "layer.step"),
            EntryPoint("fake_layer_source:Engine.build", "layer.build"),
        )
    )
    tracer.install()
    try:
        assert user.work(1) == 2
        engine = source.Engine.build()
        assert engine.step(2) == 3
    finally:
        tracer.uninstall()
    assert source.work is original and user.work is original
    assert "step" in source.Engine.__dict__
    assert tracer.calls["fake_layer_source:work"] == 2
    assert tracer.calls["fake_layer_source:Engine.step"] == 1
    assert tracer.calls["fake_layer_source:Engine.build"] == 1
    assert tracer.layer_calls("layer.work") == 2
    # `work` inside `step` is nested; the step span contains it.
    step = next(s for s in tracer.spans if s.name == "layer.step")
    inner = [s for s in tracer.spans if s.parent == tracer.spans.index(step)]
    assert [s.name for s in inner] == ["layer.work"]
    tracer.require(["fake_layer_source:work", "fake_layer_source:Engine.step"])


def test_a_wrapper_that_records_nothing_fails_loudly(fake_layer):
    source, user = fake_layer
    tracer = Tracer((EntryPoint("fake_layer_source:work", "layer.work"),))
    # Wrapping only the defining module would miss `user.work`; the
    # loud check turns that into an error instead of a free layer.
    tracer._set(source, "work", tracer._wrap(tracer.entry_points[0], source.work))
    try:
        user.work(1)
    finally:
        tracer.uninstall()
    with pytest.raises(MissedEntryPoints, match="fake_layer_source:work"):
        tracer.require(["fake_layer_source:work"])


def test_layer_time_counts_reentry_once():
    tracer = Tracer(())
    outer = tracer.open("core.walkthrough")
    inner = tracer.open("core.walkthrough")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.layer_calls("core.walkthrough") == 1
    assert tracer.layer_seconds("core.walkthrough") == pytest.approx(
        tracer.spans[0].duration
    )
