"""The measuring loop's own rules: tail samples, failure counting, and
speed samples kept clear of the program's background work."""

import pytest

import harness
from harness import (
    REFERENCE_NOMINAL_S,
    OracleMismatch,
    RequestLog,
    drive,
    percentile,
    request_count,
    required_samples,
)


def test_p90_needs_ten_samples_beyond_it():
    assert required_samples(90) == 100
    assert required_samples(99) == 1000
    assert required_samples(50) == 20


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == pytest.approx(89.1)
    # The median has no tail rule.
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_failed_requests_are_counted_and_miss_every_latency_limit():
    outcomes = iter(["ok", "raise", "oracle", "refused", "ok"])
    current = {}

    def request(index):
        current[index] = next(outcomes)
        if current[index] == "raise":
            raise ValueError("evaluation crashed")
        if current[index] == "refused":
            raise RuntimeError("POST /jobs answered 429")
        return 10

    def check(index):
        if current[index] == "oracle":
            raise OracleMismatch("scenario sc-1 failed")

    log = drive(request, check, count=5)
    assert log.attempted == 5
    assert log.failed == 3
    assert log.scenarios == 20
    assert log.passed == [True, False, False, False, True]
    assert any("429" in failure for failure in log.failures)
    assert any("scenario sc-1" in failure for failure in log.failures)
    # Three of five failed: the median is a failure, so it reads as the
    # slowest success, never faster than one.
    assert log.latency_ms(50, at_reference=False) == max(
        seconds for seconds, ok in zip(log.seconds, log.passed) if ok
    ) * 1e3


def test_latency_with_failures_is_no_better_than_any_success():
    log = RequestLog()
    for seconds in (0.010, 0.020, 0.030):
        log.record(seconds, REFERENCE_NOMINAL_S, 1)
    for _ in range(2):
        log.record(0.001, REFERENCE_NOMINAL_S, 1, failure="refused")
    assert log.latency_ms(50) == pytest.approx(30.0)
    assert log.scenarios == 3
    assert log.scenarios_per_s() == pytest.approx(3 / 0.062)


def test_times_at_reference_speed_scale_each_request_by_its_own_sample():
    log = RequestLog()
    # The host ran twice as slow for the second request: same work.
    log.record(0.010, REFERENCE_NOMINAL_S, 1)
    log.record(0.020, 2 * REFERENCE_NOMINAL_S, 1)
    assert log.latency_ms(50) == pytest.approx(10.0)
    assert log.latency_ms(50, at_reference=False) == pytest.approx(15.0)
    assert log.scenarios_per_s() == pytest.approx(100.0)


def test_idle_seconds_are_not_scaled_to_reference_speed():
    log = RequestLog()
    # Twice as slow a host; 4 ms of the 10 ms were spent asleep after
    # the program had finished.
    log.record(0.010, 2 * REFERENCE_NOMINAL_S, 1, idle=0.004)
    assert log.latency_ms(50) == pytest.approx(7.0)
    assert log.latency_ms(50, at_reference=False) == pytest.approx(10.0)


def test_background_work_cannot_lower_the_reported_latency(monkeypatch):
    # A reply can reach the client before the program has finished the
    # request's work (a job's log lines). That work must not run during
    # the speed sample taken before the next request: it would read the
    # host as slow and so scale the next latency down.
    background = []
    monkeypatch.setattr(
        harness,
        "reference_seconds",
        lambda: REFERENCE_NOMINAL_S * (2 if background else 1),
    )

    def request(index):
        background.append(index)
        return 1

    def check(index):
        assert not background, "the oracle ran alongside background work"

    def settle(index):
        background.clear()
        return 0.0

    log = drive(request, check, count=4, settle=settle)
    assert log.failed == 0
    assert log.reference == [REFERENCE_NOMINAL_S] * 4
    # Without settling, every sample after the first reads the host as
    # twice as slow and halves the reported latency.
    background.clear()
    unsettled = drive(request, lambda index: None, count=4)
    assert unsettled.reference[1:] == [2 * REFERENCE_NOMINAL_S] * 3


def test_a_settle_failure_fails_the_request():
    def settle(index):
        raise RuntimeError("job never finished")

    log = drive(lambda index: 1, lambda index: None, count=2, settle=settle)
    assert log.failed == 2
    assert "never finished" in log.failures[0]


def test_a_run_makes_whole_cycles_and_enough_for_p90():
    assert request_count(seconds=20, rate=6.0, cycle=20) == 120
    assert request_count(seconds=20, rate=10.0, cycle=2) == 200
    # Too short a run still makes the 100 requests p90 needs.
    assert request_count(seconds=1, rate=6.0, cycle=25) == 100
    assert request_count(seconds=1, rate=6.0, cycle=40) == 120
    log = drive(lambda index: 1, lambda index: None, count=7)
    assert log.attempted == 7
    assert len(log.reference) == 7
    assert log.failed == 0
