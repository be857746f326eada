"""ParallelRunner: deterministic merge, crash recovery, timeouts."""

import pytest

from repro.exec import JobSpec, ParallelRunner, RunnerError, run_job
from repro.exec.engine import SweepEngine


def _spec(key: str, kind: str = "tests.exec._jobs:echo", **payload) -> JobSpec:
    return JobSpec(kind=kind, payload=payload, seed=0, key=key)


def test_inline_run_job():
    result = run_job(_spec("k", kind="tests.exec._jobs:add", a=2, b=3))
    assert result.ok and result.value == 5
    assert result.wall >= 0.0


def test_inline_run_job_exception_captured():
    result = run_job(_spec("k", kind="tests.exec._jobs:boom", message="nope"))
    assert not result.ok
    assert "ValueError: nope" in result.error


def test_serial_runner_matches_inline():
    runner = ParallelRunner(jobs=1)
    specs = [_spec(f"{i:02d}", kind="tests.exec._jobs:add", a=i, b=1) for i in range(5)]
    results = runner.run(specs)
    assert sorted(results) == [s.key for s in specs]
    assert [results[s.key].value for s in specs] == [1, 2, 3, 4, 5]


def test_duplicate_keys_rejected():
    runner = ParallelRunner(jobs=1)
    with pytest.raises(RunnerError, match="duplicate"):
        runner.run([_spec("same"), _spec("same")])


def test_invalid_parameters_rejected():
    with pytest.raises(RunnerError):
        ParallelRunner(jobs=-1)
    with pytest.raises(RunnerError):
        ParallelRunner(timeout=0)
    with pytest.raises(RunnerError):
        ParallelRunner(retries=-1)


def test_parallel_runs_in_worker_processes():
    import os

    runner = ParallelRunner(jobs=2)
    results = runner.run(
        [_spec(f"{i}", kind="tests.exec._jobs:pid") for i in range(4)]
    )
    pids = {r.value for r in results.values()}
    assert os.getpid() not in pids  # really executed in spawned workers


def test_workers_capped_at_cpu_count(monkeypatch):
    """On one CPU a ``jobs=4`` sweep spawns a single worker, and what it
    returns is byte-identical to the serial run."""
    import json
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    spawned = []
    spawn = ParallelRunner._spawn

    def counting_spawn(self, ctx):
        spawned.append(ctx)
        return spawn(self, ctx)

    monkeypatch.setattr(ParallelRunner, "_spawn", counting_spawn)
    specs = [_spec(f"{i:02d}", kind="tests.exec._jobs:echo", i=i) for i in range(5)]

    def dump(results):
        return json.dumps(
            {k: [r.ok, r.value, r.error, r.attempts] for k, r in results.items()},
            sort_keys=True,
        )

    parallel = ParallelRunner(jobs=4).run(specs)
    assert len(spawned) == 1
    assert dump(parallel) == dump(ParallelRunner(jobs=1).run(specs))


def test_adversarial_completion_order_still_merges_by_key():
    """First-keyed jobs sleep longest, so completion order inverts key
    order — the merged values must still follow key order exactly."""
    durations = [0.6, 0.4, 0.2, 0.0]
    specs = [
        _spec(
            f"{i:02d}", kind="tests.exec._jobs:slow",
            duration=d, value=f"v{i}",
        )
        for i, d in enumerate(durations)
    ]
    engine = SweepEngine(jobs=4, timeout=30.0)
    report = engine.run(specs)
    assert [r.key for r in report.outcomes] == ["00", "01", "02", "03"]
    assert report.values() == ["v0", "v1", "v2", "v3"]


def test_worker_crash_retries_then_succeeds(tmp_path):
    marker = tmp_path / "crashed-once"
    runner = ParallelRunner(jobs=2, retries=2, timeout=60.0)
    results = runner.run(
        [
            _spec(
                "c0", kind="tests.exec._jobs:crash_once", marker=str(marker)
            ),
            _spec("ok", kind="tests.exec._jobs:add", a=1, b=1),
        ]
    )
    assert results["ok"].ok and results["ok"].value == 2
    assert results["c0"].ok and results["c0"].value == "recovered"
    assert results["c0"].attempts == 2
    assert runner.crashes >= 1 and runner.retried >= 1


def test_worker_crash_exhausts_retries(tmp_path):
    runner = ParallelRunner(jobs=2, retries=1, timeout=60.0)
    results = runner.run(
        [
            _spec("dead", kind="tests.exec._jobs:crash"),
            _spec("ok", kind="tests.exec._jobs:add", a=3, b=4),
        ]
    )
    assert results["ok"].ok and results["ok"].value == 7
    dead = results["dead"]
    assert not dead.ok
    assert dead.attempts == 2  # initial + 1 retry
    assert "worker crash after 2 attempt(s)" in dead.error
    assert runner.crashes >= 2


def test_job_timeout_kills_and_reports(tmp_path):
    runner = ParallelRunner(jobs=2, retries=0, timeout=0.5)
    results = runner.run(
        [
            _spec("stuck", kind="tests.exec._jobs:slow", duration=60.0),
            _spec("ok", kind="tests.exec._jobs:add", a=1, b=2),
        ]
    )
    assert results["ok"].ok
    stuck = results["stuck"]
    assert not stuck.ok
    assert "timeout after 1 attempt(s)" in stuck.error
    assert runner.timeouts == 1


def test_in_job_exception_is_terminal_not_retried():
    runner = ParallelRunner(jobs=2, retries=2, timeout=60.0)
    results = runner.run(
        [
            _spec("bad", kind="tests.exec._jobs:boom", message="det-fail"),
            _spec("ok", kind="tests.exec._jobs:add", a=0, b=0),
        ]
    )
    bad = results["bad"]
    assert not bad.ok
    assert "det-fail" in bad.error
    assert bad.attempts == 1  # deterministic failure: no retry
    assert runner.retried == 0


def test_empty_sweep():
    assert ParallelRunner(jobs=2).run([]) == {}
