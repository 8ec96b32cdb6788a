"""Crash consistency of the append-only logs: ``runs.jsonl``,
``jobs.jsonl`` and ``audit.jsonl``.

Torn tails left by a crashed writer are moved aside instead of breaking
every later load, run ids stay unique across real processes, and a
compaction never drops a line another process appends meanwhile. Also
here: recording a run never spawns ``git`` itself.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import repro
from repro.core.evaluator import Sosae
from repro.obs import (
    JobManager,
    JobRecord,
    JobRegistry,
    Recorder,
    RunRegistry,
    ServeDaemon,
    use,
)

SRC = Path(repro.__file__).resolve().parents[1]


def _evaluate(scenarios, architecture, mapping):
    recorder = Recorder()
    with use(recorder):
        report = Sosae(scenarios, architecture, mapping).evaluate()
    return report, recorder


def _python(*args: str, **kwargs) -> subprocess.Popen:
    """A child interpreter that imports this checkout's ``repro``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, *args], env=env, text=True, **kwargs
    )


def _sosae(*args: str) -> subprocess.CompletedProcess:
    child = _python("-m", "repro", *args, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE)
    out, err = child.communicate(timeout=120)
    return subprocess.CompletedProcess(args, child.returncode, out, err)


def _tear(path: Path) -> bytes:
    """Append the first half of the log's last line, unterminated."""
    line = path.read_bytes().splitlines(keepends=True)[-1]
    partial = line[: len(line) // 2]
    with path.open("ab") as handle:
        handle.write(partial)
    return partial


class TestTornTail:
    def test_runs_torn_tail_moves_aside_and_recording_continues(
        self, tmp_path, small_scenarios, chain_architecture, chain_mapping
    ):
        report, recorder = _evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        registry = RunRegistry(tmp_path)
        registry.record("one", report, recorder, git_sha="abc")
        partial = _tear(registry.path)
        registry.record("two", report, recorder, git_sha="abc")
        reader = RunRegistry(tmp_path)
        assert [run.run_id for run in reader.load()] == ["r0001", "r0002"]
        torn = registry.path.with_name("runs.jsonl.torn")
        assert torn.read_bytes() == partial + b"\n"
        assert registry.log.repairs == 1

    def test_jobs_torn_tail_still_lets_the_manager_start(self, tmp_path):
        registry = JobRegistry(tmp_path)
        registry.append(JobRecord(job_id="j0001", tenant="t", state="queued"))
        registry.append(JobRecord(job_id="j0001", tenant="t", state="done"))
        registry.append(JobRecord(job_id="j0002", tenant="t", state="done"))
        _tear(registry.path)
        manager = JobManager(registry=JobRegistry(tmp_path), executors=0)
        assert [(job.job_id, job.state) for job in manager.jobs()] == [
            ("j0001", "done"),
            ("j0002", "done"),
        ]

    def test_sigkilled_writer_leaves_a_log_the_next_process_can_use(
        self, tmp_path, small_scenarios, chain_architecture, chain_mapping
    ):
        report, recorder = _evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        registry = RunRegistry(tmp_path)
        registry.record("one", report, recorder, git_sha="abc")
        line = registry.path.read_bytes()
        with _python(
            "-c",
            "import os, sys, time\n"
            "fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)\n"
            "os.write(fd, sys.stdin.buffer.read())\n"
            "print('written', flush=True)\n"
            "time.sleep(60)\n",
            str(registry.path),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        ) as writer:
            writer.stdin.buffer.write(line[: len(line) // 2])
            writer.stdin.close()
            assert writer.stdout.readline().strip() == "written"
            writer.send_signal(signal.SIGKILL)
            assert writer.wait(timeout=30) == -signal.SIGKILL

        recorded = _sosae("demo", "pims", "--record", "--runs-dir", str(tmp_path))
        assert recorded.returncode == 0, recorded.stderr
        listed = _sosae("runs", "list", "--runs-dir", str(tmp_path))
        assert listed.returncode == 0, listed.stderr
        assert "r0001" in listed.stdout and "r0002" in listed.stdout
        torn = registry.path.with_name("runs.jsonl.torn")
        assert torn.read_bytes() == line[: len(line) // 2] + b"\n"

    def test_repairs_show_on_healthz_and_metrics(
        self, tmp_path, small_scenarios, chain_architecture, chain_mapping
    ):
        report, recorder = _evaluate(
            small_scenarios, chain_architecture, chain_mapping
        )
        registry = RunRegistry(tmp_path)
        registry.record("one", report, recorder, git_sha="abc")
        _tear(registry.path)
        daemon = ServeDaemon(
            lambda: Sosae(small_scenarios, chain_architecture, chain_mapping),
            registry=RunRegistry(tmp_path),
        )
        assert daemon.run_once().ok
        host, port = daemon.start_http()
        try:
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as got:
                health = json.loads(got.read())
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as got:
                metrics = got.read().decode("utf-8")
        finally:
            daemon.shutdown()
        assert health["log_repairs"] == {"runs.jsonl": 1}
        assert 'sosae_log_repairs_total{log="runs.jsonl"} 1' in metrics


_RACER = """
import sys
from repro.core.evaluator import Sosae
from repro.obs import Recorder, RunRegistry, use
from repro.systems.pims import build_pims

pims = build_pims()
recorder = Recorder()
with use(recorder):
    report = Sosae(pims.scenarios, pims.architecture, pims.mapping).evaluate()
registry = RunRegistry(sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()
print(registry.record("race", report, recorder).run_id, flush=True)
"""


class TestCrossProcess:
    def test_concurrent_processes_mint_distinct_run_ids(self, tmp_path):
        racers = [
            _python("-c", _RACER, str(tmp_path),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for _ in range(6)
        ]
        try:
            for racer in racers:
                assert racer.stdout.readline().strip() == "ready"
            for racer in racers:  # release them all at one instant
                racer.stdin.write("go\n")
            for racer in racers:
                racer.stdin.flush()
            minted = [racer.communicate(timeout=120)[0].strip() for racer in racers]
        finally:
            for racer in racers:
                if racer.poll() is None:
                    racer.kill()
                    racer.wait()
        assert all(racer.returncode == 0 for racer in racers)
        assert len(set(minted)) == 6, minted
        recorded = [run.run_id for run in RunRegistry(tmp_path).load()]
        assert sorted(recorded) == [f"r{n:04d}" for n in range(1, 7)]

    def test_compaction_keeps_a_racing_cross_process_append(
        self, tmp_path, monkeypatch
    ):
        registry = JobRegistry(tmp_path)
        registry.append(JobRecord(job_id="j0001", tenant="t", state="queued"))
        registry.append(
            JobRecord(job_id="j0001", tenant="t", state="done", finished_at=1.0)
        )
        with _python(
            "-c",
            "import sys\n"
            "from repro.obs import JobRecord, JobRegistry\n"
            "registry = JobRegistry(sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "sys.stdin.readline()\n"
            "registry.append(JobRecord(job_id='j0002', tenant='t',"
            " state='queued'))\n",
            str(tmp_path),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        ) as appender:
            assert appender.stdout.readline().strip() == "ready"
            rename = Path.replace

            def racing_rename(staging, target):
                # The compaction has read the log: let the other process
                # append now. An append outside the lock lands before
                # the rename; one under the lock waits for the rename.
                appender.stdin.write("go\n")
                appender.stdin.flush()
                try:
                    appender.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    pass
                return rename(staging, target)

            monkeypatch.setattr(Path, "replace", racing_rename)
            stale, stats = registry.compact(keep_days=1, now=10 * 86400.0)
            monkeypatch.undo()
            assert appender.wait(timeout=60) == 0
        assert stale == {"j0001"} and stats["jobs_dropped"] == 1
        jobs = JobRegistry(tmp_path).load()
        assert [(job.job_id, job.state) for job in jobs] == [
            ("j0001", "done"),
            ("j0002", "queued"),
        ]


def test_threads_on_two_registries_mint_distinct_ids(
    tmp_path, small_scenarios, chain_architecture, chain_mapping
):
    report, recorder = _evaluate(
        small_scenarios, chain_architecture, chain_mapping
    )
    registries = (RunRegistry(tmp_path), RunRegistry(tmp_path))

    def record(registry):
        for _ in range(5):
            registry.record("t", report, recorder, report_digest="d")
            registry.load()

    threads = [
        threading.Thread(target=record, args=(registries[n % 2],))
        for n in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = [f"r{n:04d}" for n in range(1, 41)]
    fresh = [run.run_id for run in RunRegistry(tmp_path).load()]
    assert fresh == expected
    for registry in registries:
        assert [run.run_id for run in registry.load()] == fresh


def test_serve_outside_a_checkout_looks_up_the_sha_once(
    tmp_path, monkeypatch, small_scenarios, chain_architecture, chain_mapping
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    calls = []
    run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    daemon = ServeDaemon(
        lambda: Sosae(small_scenarios, chain_architecture, chain_mapping),
        registry=RunRegistry(tmp_path / "runs"),
    )
    assert daemon.run_once().ok and daemon.run_once().ok
    assert len(calls) <= 1, calls
    shas = [record.git_sha for record in daemon.registry.load()]
    assert shas == [None, None]
