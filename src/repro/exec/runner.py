"""Process-pool execution of job specs with crash and timeout recovery.

The :class:`ParallelRunner` owns a set of spawned worker processes, each
connected by a duplex pipe.  The parent assigns one job at a time to
each worker, so it always knows exactly which job an unresponsive or
dead worker was holding — the property that makes crash recovery and
per-job timeouts possible without any cooperation from the job itself:

* **crash** — the worker process exits (or its pipe hits EOF) while a
  job is in flight: the job is retried on a fresh worker, up to
  ``retries`` extra attempts, then recorded as a terminal failure;
* **timeout** — a job exceeds ``timeout`` wall seconds: the worker is
  killed (it may be stuck inside a C extension and cannot be interrupted
  politely) and the job is retried the same way.  The clock starts when
  the worker *acknowledges* the job, not when the parent sends it, so
  interpreter startup on a loaded host is never billed to the job (a
  separate generous spawn grace bounds a worker that never comes up);
* **exception** — the job function raises: the traceback is returned as
  a terminal failure immediately.  Job functions are pure, so rerunning
  a deterministic exception would only waste a worker.

Completion order is irrelevant to callers: results are keyed by
:attr:`JobSpec.key` and the engine merges them in sorted-key order, so
parallel output is byte-identical to a serial run.

Wall-clock reads in this module time *host-side* job execution for
metrics and timeout enforcement; nothing here runs inside (or feeds) a
simulation.
"""

from __future__ import annotations

import os
import traceback
from collections import deque
from dataclasses import dataclass, field

# Host-side timing of worker processes (timeouts, utilization); never
# enters the simulated world.
from time import perf_counter  # repro: allow[DET101] -- host-side job timing
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .job import JobSpec, resolve_job

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

__all__ = [
    "JobResult",
    "ParallelRunner",
    "RunnerError",
    "publish_usage",
    "run_job",
]

#: Worker exit codes never retried (interpreter-level misconfiguration).
_POLL_INTERVAL = 0.05

#: Extra deadline slack between job dispatch and the worker's ack,
#: covering spawned-interpreter startup on a loaded host.
_SPAWN_GRACE = 30.0


class RunnerError(Exception):
    """Raised on runner misuse (duplicate keys, bad worker counts)."""


@dataclass
class JobResult:
    """Outcome of executing one spec (possibly after retries)."""

    key: str
    ok: bool
    value: Any = None
    error: str = ""
    attempts: int = 1
    wall: float = 0.0
    cached: bool = False
    #: Usage summary the job published (see :func:`publish_usage`), or
    #: None.  Ships back over the worker pipe and persists in the result
    #: store next to the value, so cache hits restore it too.
    usage: Any = None


#: Usage summary published by the currently executing job (worker-local).
_published_usage: List[Any] = []


def publish_usage(summary: Any) -> None:
    """Attach a JSON-able usage summary to the running job's result.

    Job functions are pure value-in/value-out, which leaves no channel
    for side observations like a :class:`repro.obs.UsageAccountant`
    summary; this side-channel carries exactly one such payload per job.
    The last call wins; the runner clears it between jobs.
    """
    _published_usage.clear()
    _published_usage.append(summary)


def _take_published_usage() -> Any:
    usage = _published_usage[-1] if _published_usage else None
    _published_usage.clear()
    return usage


@dataclass
class _Worker:
    """Parent-side view of one worker process."""

    proc: BaseProcess
    conn: Any
    current: Optional[JobSpec] = None
    attempts: int = 0
    deadline: float = 0.0
    busy_since: float = 0.0
    busy_total: float = 0.0
    spawned_at: float = field(default_factory=perf_counter)  # repro: allow[DET101] -- host-side job timing


def run_job(spec: JobSpec) -> JobResult:
    """Execute one spec in-process; exceptions become failed results."""
    t0 = perf_counter()  # repro: allow[DET101] -- host-side job timing
    _published_usage.clear()
    try:
        fn = resolve_job(spec.kind)
        value = fn(spec.payload, spec.seed)
        return JobResult(
            key=spec.key, ok=True, value=value,
            wall=perf_counter() - t0,  # repro: allow[DET101] -- host-side job timing
            usage=_take_published_usage(),
        )
    except Exception:
        _published_usage.clear()
        return JobResult(
            key=spec.key, ok=False, error=traceback.format_exc(),
            wall=perf_counter() - t0,  # repro: allow[DET101] -- host-side job timing
        )


def _worker_main(conn) -> None:
    """Worker loop: receive specs, run them, send results, until None."""
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            spec = JobSpec.from_dict(message)
            conn.send(("ack", spec.key))
            result = run_job(spec)
            conn.send(  # repro: allow[DET501] -- wall time is host-side job telemetry, not sim state
                (
                    "done", result.key, result.ok, result.value,
                    result.error, result.wall, result.usage,
                )
            )
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ParallelRunner:
    """Shards job specs across spawned workers; survives worker death.

    ``jobs <= 1`` degenerates to inline execution in the calling process
    (no pool, no pipes, no timeout enforcement) — the reference serial
    path that parallel runs must match byte-for-byte.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: float = 600.0,
        retries: int = 2,
    ) -> None:
        if jobs < 0:
            raise RunnerError(f"jobs must be >= 0, got {jobs}")
        if timeout <= 0:
            raise RunnerError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise RunnerError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        #: Counters of the most recent :meth:`run` (the engine reads these).
        self.retried = 0
        self.crashes = 0
        self.timeouts = 0
        self.utilization = 0.0

    # -- public ---------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> Dict[str, JobResult]:
        """Execute every spec; returns ``{spec.key: JobResult}``."""
        specs = list(specs)
        keys = [s.key for s in specs]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise RunnerError(f"duplicate job keys in sweep: {dupes}")
        self.retried = 0
        self.crashes = 0
        self.timeouts = 0
        self.utilization = 1.0
        if not specs:
            return {}
        if self.jobs <= 1:
            return {s.key: run_job(s) for s in specs}
        return self._run_pool(specs)

    # -- pool management ------------------------------------------------
    def _spawn(self, ctx) -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return _Worker(proc=proc, conn=parent_conn)

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - defensive
            worker.proc.kill()
            worker.proc.join(timeout=5.0)

    def _run_pool(self, specs: List[JobSpec]) -> Dict[str, JobResult]:
        # Only the pool path loads multiprocessing: a serial sweep never
        # pays for it.
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        # More workers than CPUs only adds spawned start-ups that then wait.
        n_workers = min(self.jobs, len(specs), os.cpu_count() or 1)
        pending = deque((spec, 0) for spec in specs)
        results: Dict[str, JobResult] = {}
        workers: List[_Worker] = [self._spawn(ctx) for _ in range(n_workers)]
        t_start = perf_counter()  # repro: allow[DET101] -- host-side job timing
        try:
            while len(results) < len(specs):
                self._assign(workers, pending, ctx)
                busy = [w for w in workers if w.current is not None]
                if not busy:
                    raise RunnerError(
                        "sweep stalled: jobs remain but no worker holds one"
                    )
                self._collect(busy, results)
                self._expire(workers, pending, results, ctx)
            return results
        finally:
            elapsed = perf_counter() - t_start  # repro: allow[DET101] -- host-side job timing
            busy_sum = sum(w.busy_total for w in workers)
            if elapsed > 0 and workers:
                self.utilization = min(
                    1.0, busy_sum / (elapsed * len(workers))
                )
            for worker in workers:
                if worker.current is None and worker.proc.is_alive():
                    try:
                        worker.conn.send(None)
                    except (OSError, BrokenPipeError):
                        pass
                self._retire(worker, kill=worker.current is not None)

    def _assign(self, workers: List[_Worker], pending, ctx) -> None:
        """Hand queued jobs to idle live workers, respawning dead ones."""
        for i, worker in enumerate(workers):
            if not pending:
                return
            if worker.current is not None:
                continue
            if not worker.proc.is_alive():
                self._retire(worker)
                workers[i] = worker = self._spawn(ctx)
            spec, attempts = pending.popleft()
            try:
                worker.conn.send(spec.to_dict())
            except (OSError, BrokenPipeError):
                # Died between liveness check and send: requeue, respawn.
                pending.appendleft((spec, attempts))
                self._retire(worker, kill=True)
                workers[i] = self._spawn(ctx)
                continue
            now = perf_counter()  # repro: allow[DET101] -- host-side job timing
            worker.current = spec
            worker.attempts = attempts + 1
            # Provisional deadline with spawn slack; tightened to a pure
            # job deadline when the worker acks (see _collect).
            worker.deadline = now + self.timeout + _SPAWN_GRACE
            worker.busy_since = now

    def _collect(self, busy: List[_Worker], results: Dict[str, JobResult]) -> None:
        """Wait briefly for any busy worker to report, then drain it."""
        from multiprocessing.connection import wait as conn_wait

        ready = conn_wait([w.conn for w in busy], timeout=_POLL_INTERVAL)
        ready_set = {id(c) for c in ready}
        for worker in busy:
            if id(worker.conn) not in ready_set:
                continue
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                # Pipe broke mid-result: treated as a crash by _expire.
                continue
            if message[0] == "ack":
                # Worker picked the job up: start the real job clock.
                worker.deadline = (
                    perf_counter() + self.timeout  # repro: allow[DET101] -- host-side job timing
                )
                continue
            _, key, ok, value, error, wall, usage = message
            spec = worker.current
            worker.busy_total += (
                perf_counter() - worker.busy_since  # repro: allow[DET101] -- host-side job timing
            )
            worker.current = None
            if spec is None or key != spec.key:  # pragma: no cover - defensive
                raise RunnerError(
                    f"worker returned result for {key!r} while holding "
                    f"{spec.key if spec else None!r}"
                )
            results[key] = JobResult(
                key=key, ok=ok, value=value, error=error,
                attempts=worker.attempts, wall=wall, usage=usage,
            )

    def _expire(
        self, workers: List[_Worker], pending, results: Dict[str, JobResult], ctx
    ) -> None:
        """Reap crashed workers and enforce per-job deadlines."""
        now = perf_counter()  # repro: allow[DET101] -- host-side job timing
        for i, worker in enumerate(workers):
            spec = worker.current
            if spec is None:
                continue
            crashed = not worker.proc.is_alive() or worker.conn.closed
            timed_out = now > worker.deadline
            if not crashed and not timed_out:
                continue
            if spec.key in results:
                # Result arrived in the same cycle the process exited.
                worker.current = None
                continue
            if timed_out and not crashed and worker.conn.poll():
                # A message (ack or result) is already in the pipe; let
                # the next collect cycle drain it before judging.
                continue
            reason = "timeout" if timed_out and not crashed else "worker crash"
            if timed_out and not crashed:
                self.timeouts += 1
            else:
                self.crashes += 1
            worker.busy_total += max(0.0, now - worker.busy_since)
            attempts = worker.attempts
            self._retire(worker, kill=True)
            workers[i] = self._spawn(ctx)
            if attempts <= self.retries:
                self.retried += 1
                pending.appendleft((spec, attempts))
            else:
                results[spec.key] = JobResult(
                    key=spec.key, ok=False, attempts=attempts,
                    error=(
                        f"{reason} after {attempts} attempt(s) "
                        f"(timeout={self.timeout:g}s, retries={self.retries})"
                    ),
                )
