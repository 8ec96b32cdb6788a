"""The jobs-roundtrip client: where resubmissions go, and settling a job
until its last log lines are written."""

import json

from workloads import RESUBMITS, JobsRoundtrip, resubmission_schedule


def test_resubmissions_repeat_earlier_bundles_never_adjacent():
    for seed in range(20):
        schedule = resubmission_schedule(160, RESUBMITS, seed)
        assert len(schedule) == 160 + RESUBMITS
        assert sorted(set(schedule)) == list(range(160))
        assert all(a != b for a, b in zip(schedule, schedule[1:]))
        # Every repeat comes after its bundle's first submission.
        first = {slot: schedule.index(slot) for slot in set(schedule)}
        repeats = [i for i, slot in enumerate(schedule) if i != first[slot]]
        assert len(repeats) == RESUBMITS
    assert resubmission_schedule(160, RESUBMITS, 1) == resubmission_schedule(160, RESUBMITS, 1)
    assert resubmission_schedule(160, RESUBMITS, 1) != resubmission_schedule(160, RESUBMITS, 2)


def _last_line(path, job_id):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [line for line in lines if line["job_id"] == job_id][-1]


def test_settle_waits_for_the_jobs_last_log_lines(tmp_path):
    workload = JobsRoundtrip(seed=5, work_root=tmp_path)
    workload.setup()
    try:
        for index in range(3):
            workload.request(index)
            assert workload.settle(index) >= 0.0
            jobs = workload.daemon.jobs
            assert _last_line(jobs.registry.path, workload.job_id)["state"] == "done"
            assert _last_line(jobs.audit.path, workload.job_id)["transition"] == "running->done"
            workload.check(index)
    finally:
        workload.close()
