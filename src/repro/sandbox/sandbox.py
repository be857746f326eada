"""The sandbox: a resource-constrained execution context for one process.

This is the reproduction of the paper's user-level virtual execution
environment ([7], Section 5.1).  Application code never touches the host
directly; every compute / send / recv / memory request goes through a
:class:`Sandbox` ("API interception"), which

- enforces the configured CPU share, either as an ideal fluid cap or by the
  paper's mechanism — a controller that wakes every few milliseconds and
  suspends/resumes the process (priority manipulation) to steer windowed
  average usage to the target;
- enforces the network bandwidth limit by delaying sends (token bucket) or
  capping the flow rate;
- enforces the physical-memory limit by bounding the resident set and
  charging protection-fault costs;
- keeps the progress accounting that both the limiter and the run-time
  monitoring agent consume.

Several sandboxes can run on one host without interfering (Section 6.2);
benchmarks verify this isolation property.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..cluster.host import Host
from ..sim import (
    URGENT,
    Event,
    Process,
    SimulationError,
    Simulator,
    StoreGet,
    Timeout,
)
from .limits import LimiterMode, ResourceLimits
from .net_limiter import TokenBucket
from .progress import ProgressEstimator

__all__ = ["Sandbox", "SandboxOp", "SendOp", "RecvOp", "TransferLog"]

#: Default controller quantum — the paper adjusts priority "every few
#: milliseconds".
DEFAULT_QUANTUM = 0.005
#: Credit bound of the quantum controller (seconds of full-speed burst).
DEFAULT_BURST = 0.02
#: Default cost of one soft page fault (seconds).
DEFAULT_FAULT_COST = 5e-5


class TransferLog(list):
    """``(start, end, size)`` of completed transfers, bounded.

    Past 4096 entries :meth:`add` trims the oldest 2048.  ``dropped``
    counts what was trimmed, so ``offset`` is the absolute index of the
    next entry: a consumer that holds absolute indices (the monitoring
    agent) re-anchors after a trim instead of slicing out of range.
    """

    __slots__ = ("dropped",)

    def __init__(self) -> None:
        super().__init__()
        self.dropped = 0

    @property
    def offset(self) -> int:
        return self.dropped + len(self)

    def add(self, start: float, end: float, size: float) -> None:
        self.append((start, end, size))
        if len(self) > 4096:
            del self[:2048]
            self.dropped += 2048


class Sandbox:
    """Resource-constrained execution context bound to one host process."""

    def __init__(
        self,
        host: Host,
        limits: ResourceLimits = ResourceLimits(),
        mode: str = LimiterMode.IDEAL,
        name: str = "sandbox",
        weight: float = 1.0,
        quantum: float = DEFAULT_QUANTUM,
        burst: float = DEFAULT_BURST,
        fault_cost: float = DEFAULT_FAULT_COST,
        usage_window: float = 0.1,
    ):
        if mode not in LimiterMode.ALL:
            raise ValueError(f"unknown limiter mode {mode!r}")
        self.host = host
        self.sim: Simulator = host.sim
        self.limits = limits
        self.mode = mode
        self.name = name
        self.weight = float(weight)
        self.quantum = float(quantum)
        self.burst = float(burst)
        self.fault_cost = float(fault_cost)

        # -- CPU accounting ------------------------------------------------
        self._active_job = None
        self._compute_queue: Deque[Tuple[float, Event]] = deque()
        self._finished_consumed = 0.0
        self._suspended = False
        self._credit = 0.0
        self.progress = ProgressEstimator(window=usage_window)
        #: (time, achieved share over the last quantum) samples — Fig. 3(a).
        self.usage_trace: list = []
        self.trace_usage = False
        self._runnable_since: Optional[float] = None
        self._runnable_time = 0.0
        self._controller_proc: Optional[Process] = None
        self._wake: Optional[Event] = None
        self._closed = False
        if self.mode == LimiterMode.QUANTUM and self.limits.cpu_share is not None:
            self._start_controller()

        # -- network -----------------------------------------------------------
        self._bucket: Optional[TokenBucket] = None
        if self.limits.net_bw is not None and self.mode == LimiterMode.QUANTUM:
            self._bucket = TokenBucket(
                rate=self.limits.net_bw, burst=max(1.0, self.limits.net_bw * 0.05)
            )
        # Receive-side shaping: the paper's sandbox delays *receiving* of
        # messages too, so a bandwidth-limited process sees inbound data at
        # its configured rate even when the physical link is much faster.
        self._recv_bucket: Optional[TokenBucket] = None
        if self.limits.net_bw is not None:
            self._recv_bucket = TokenBucket(
                rate=self.limits.net_bw, burst=max(1.0, self.limits.net_bw * 0.01)
            )
        self.bytes_sent = 0.0
        self.bytes_received = 0.0
        #: (start, end, size) of completed sends — monitoring-agent input.
        self.send_log = TransferLog()
        #: (arrival, delivered, size) of completed receives.
        self.recv_log = TransferLog()
        #: (start, end, size) of completed disk operations.
        self.disk_log = TransferLog()

        # -- memory ------------------------------------------------------------
        self.mem_space = None
        if self.limits.mem_pages is not None:
            self.mem_space = host.memory.create_space(self.limits.mem_pages)
        self._next_page = 0

    # ------------------------------------------------------------------ CPU
    @property
    def now(self) -> float:
        return self.sim.now

    def cpu_consumed(self) -> float:
        """Total CPU work completed by this sandbox so far."""
        if self._active_job is not None:
            self.host.cpu.sync()
            return self._finished_consumed + self._active_job.consumed
        return self._finished_consumed

    def runnable_time(self) -> float:
        """Cumulative time this sandbox had CPU demand outstanding."""
        total = self._runnable_time
        if self._runnable_since is not None:
            total += self.sim.now - self._runnable_since
        return total

    def achieved_share(self) -> Optional[float]:
        """Windowed average share of the host CPU actually received."""
        return self.progress.fraction(self.host.cpu.speed, now=self.sim.now)

    def compute(self, work: float) -> Event:
        """Request ``work`` units of CPU; returns a waitable completion event.

        Requests from one sandbox are serialized (the sandboxed process is
        single-threaded, like the paper's Win32 application threads).
        """
        if work < 0:
            raise SimulationError(f"work must be non-negative, got {work!r}")
        done = Event(self.sim)
        if self._runnable_since is None:
            self._runnable_since = self.sim.now
        self._compute_queue.append((work, done))
        if self._active_job is None:
            self._dispatch_next()
        if self._wake is not None:
            self._wake.succeed()
            self._wake = None
        return done

    def _cpu_cap(self) -> Optional[float]:
        if self.mode == LimiterMode.IDEAL and self.limits.cpu_share is not None:
            return self.limits.cpu_share * self.host.cpu.speed
        return None

    def _dispatch_next(self) -> None:
        if not self._compute_queue:
            if self._runnable_since is not None:
                self._runnable_time += self.sim.now - self._runnable_since
                self._runnable_since = None
            return
        work, done = self._compute_queue.popleft()
        weight = 0.0 if self._suspended else self.weight
        job = self.host.cpu.execute(work, weight=weight, cap=self._cpu_cap(), owner=self)
        self._active_job = job

        def on_done(event: Event) -> None:
            self._finished_consumed += job.consumed
            self._active_job = None
            if event._ok:
                self._dispatch_next()
                done.succeed(self.sim.now)
            else:
                event.defused = True
                self._dispatch_next()
                done.fail(event._value)

        job.done.callbacks.append(on_done)

    def _start_controller(self) -> None:
        self._controller_proc = self.sim.process(
            self._controller(), name=f"{self.name}.cpu-controller"
        )

    def _controller(self):
        """Quantum feedback loop: the paper's priority-manipulation scheme.

        Credit accrues at ``share * speed`` work units per second while the
        process is runnable and is spent by actual progress; a negative
        balance suspends the process, a positive one resumes it.
        """
        last_consumed = self.cpu_consumed()
        burst_work = self.burst * self.host.cpu.speed
        while not self._closed:
            runnable = self._runnable_since is not None or self._compute_queue
            if not runnable:
                # Park until the application asks for CPU again; otherwise
                # the controller's ticks would keep the simulation alive
                # forever (and burn events while the app is blocked).
                self._wake = Event(self.sim)
                yield self._wake
                self._wake = None
                last_consumed = self.cpu_consumed()
            yield self.sim.timeout(self.quantum)
            if self._closed:
                return
            share = self.limits.cpu_share
            if share is None:
                continue
            consumed = self.cpu_consumed()
            used = consumed - last_consumed
            last_consumed = consumed
            runnable = self._runnable_since is not None or self._compute_queue
            if runnable or used > 0:
                self._credit += share * self.host.cpu.speed * self.quantum
            self._credit -= used
            self._credit = max(-burst_work, min(burst_work, self._credit))
            if self.trace_usage:
                self.usage_trace.append(
                    (self.sim.now, used / (self.host.cpu.speed * self.quantum))
                )
            self.progress.record(self.sim.now, consumed)
            if self._credit <= 0 and not self._suspended:
                self._set_suspended(True)
            elif self._credit > 0 and self._suspended:
                self._set_suspended(False)

    def _set_suspended(self, suspended: bool) -> None:
        self._suspended = suspended
        if self._active_job is not None:
            self.host.cpu.share.set_weight(
                self._active_job, 0.0 if suspended else self.weight
            )

    # -------------------------------------------------------------- network
    def send(self, dst: str, port: str, payload, size: float) -> "SendOp":
        """Send a message subject to the bandwidth limit; yields the Message."""
        return SendOp(self, dst, port, payload, size)

    def recv(self, port: str, filter=None) -> "RecvOp":
        """Wait for the next message on ``port`` (optionally filtered).

        Inbound data is shaped to the sandbox's bandwidth limit: delivery of
        a message is delayed until its bytes fit the configured rate — the
        paper's "delaying ... receiving of messages".  Yields the Message.
        """
        return RecvOp(self, port, filter)

    def note_received(self, msg) -> None:
        """Record reception for bandwidth accounting (raw-mailbox paths)."""
        self.bytes_received += msg.size

    # ----------------------------------------------------------------- disk
    def disk_read(self, nbytes: float) -> Event:
        """Read from the host disk, capped at the sandbox's disk bandwidth."""
        return self._disk_op(nbytes, "read")

    def disk_write(self, nbytes: float) -> Event:
        """Write to the host disk, capped at the sandbox's disk bandwidth."""
        return self._disk_op(nbytes, "write")

    def _disk_op(self, nbytes: float, kind: str) -> Event:
        cap = self.limits.disk_bw
        op = getattr(self.host.disk, kind)
        start = self.sim.now
        done = op(nbytes, weight=self.weight, cap=cap, owner=self)

        def log(event: Event) -> None:
            if event._ok:
                self.disk_log.add(start, self.sim.now, nbytes)

        if done.callbacks is not None:
            done.callbacks.append(log)
        return done

    # --------------------------------------------------------------- memory
    def alloc_pages(self, count: int) -> range:
        """Allocate a fresh range of virtual pages."""
        start = self._next_page
        self._next_page += count
        if self.mem_space is not None:
            return self.mem_space.alloc_range(start, count)
        return range(start, start + count)

    def touch_pages(self, pages) -> Event:
        """Access pages; completion is delayed by protection-fault costs."""
        faults = 0
        if self.mem_space is not None:
            faults = self.mem_space.touch(pages)
        return self.sim.timeout(faults * self.fault_cost, value=faults)

    def free_pages(self, pages) -> None:
        if self.mem_space is not None:
            self.mem_space.free(pages)

    # ---------------------------------------------------------------- misc
    def sleep(self, dt: float) -> Event:
        return self.sim.timeout(dt)

    def set_limits(self, limits: ResourceLimits) -> None:
        """Reconfigure the sandbox (used to vary resources in experiments)."""
        old = self.limits
        self.limits = limits
        # CPU: update the active job's cap in ideal mode; the quantum
        # controller reads the new share on its next tick.
        if self.mode == LimiterMode.IDEAL and self._active_job is not None:
            self.host.cpu.share.set_cap(self._active_job, self._cpu_cap())
        if (
            self.mode == LimiterMode.QUANTUM
            and limits.cpu_share is not None
            and self._controller_proc is None
        ):
            self._start_controller()
        # Network.
        if limits.net_bw is not None and self.mode == LimiterMode.QUANTUM:
            if self._bucket is None:
                self._bucket = TokenBucket(
                    rate=limits.net_bw, burst=max(1.0, limits.net_bw * 0.05)
                )
            else:
                self._bucket.set_rate(limits.net_bw, self.sim.now)
        elif limits.net_bw is None:
            self._bucket = None
        if limits.net_bw is not None:
            if self._recv_bucket is None:
                self._recv_bucket = TokenBucket(
                    rate=limits.net_bw, burst=max(1.0, limits.net_bw * 0.01)
                )
            else:
                self._recv_bucket.set_rate(limits.net_bw, self.sim.now)
        else:
            self._recv_bucket = None
        # Memory.
        if limits.mem_pages is not None and self.mem_space is not None:
            if limits.mem_pages != old.mem_pages:
                self.mem_space.set_resident_limit(limits.mem_pages)
        elif limits.mem_pages is not None and self.mem_space is None:
            self.mem_space = self.host.memory.create_space(limits.mem_pages)

    def close(self) -> None:
        """Release reservations and stop the controller."""
        self._closed = True
        if self.mem_space is not None:
            self.host.memory.release_space(self.mem_space)
            self.mem_space = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Sandbox {self.name!r} on {self.host.name!r} {self.limits}>"


class SandboxOp(Event):
    """A send or receive in flight: an event the sandbox completes itself.

    It stands where a helper process per message used to, with the same
    same-instant order.  A URGENT start event pushed on creation takes the
    FIFO slot the helper's start event took, and runs the helper's first
    stage.  Each later stage is a callback on the one event the helper
    waited on there: every such event is pushed at NORMAL priority and has
    no other callback.  The last stage books the operation and then runs
    the op's own callbacks (its waiters) inline.  The helper would have
    fired its exit event at URGENT priority at that same instant, which
    sorts before everything left in the queue, so the waiters run exactly
    where they did; only that exit step is gone.

    A cancelled op (:meth:`cancel`, used when the supervisor reaps the
    waiting process) books nothing and never completes, as an interrupted
    helper did.  A send cancelled before its start event still transmits,
    since the helper's first stage ran before its interrupt did; a receive
    cancelled that early takes nothing from the mailbox.
    """

    __slots__ = ("sandbox", "_cancelled")

    def __init__(self, sandbox: Sandbox):
        sim = sandbox.sim
        super().__init__(sim)
        self.sandbox = sandbox
        self._cancelled = False
        Timeout(sim, 0.0, priority=URGENT).callbacks.append(self._begin)

    def cancel(self) -> None:
        """Withdraw the op: it books nothing and never completes."""
        self._cancelled = True

    def _complete(self, ok: bool, value) -> None:
        """Fire inline: run the waiters now, inside the current step."""
        self._ok = ok
        self._value = value
        callbacks = self.callbacks
        self.callbacks = None
        for cb in callbacks:
            cb(self)
        if not ok and not self.defused:
            raise value


class SendOp(SandboxOp):
    """``Sandbox.send`` in flight; its value is the delivered Message."""

    __slots__ = ("dst", "port", "payload", "size", "start", "cap")

    def __init__(self, sandbox: Sandbox, dst: str, port: str, payload, size: float):
        self.dst = dst
        self.port = port
        self.payload = payload
        self.size = size
        self.start = 0.0
        self.cap: Optional[float] = None
        super().__init__(sandbox)

    def _begin(self, _event: Event) -> None:
        sandbox = self.sandbox
        self.start = now = sandbox.sim.now
        limit = sandbox.limits.net_bw
        if limit is not None:
            if sandbox._bucket is None:
                self.cap = limit
            else:
                delay = sandbox._bucket.reserve(self.size, now)
                if delay > 0:
                    sandbox.sim.timeout(delay).callbacks.append(self._shaped)
                    return
        self._transmit()

    def _shaped(self, _event: Event) -> None:
        if not self._cancelled:
            self._transmit()

    def _transmit(self) -> None:
        sandbox = self.sandbox
        sandbox.host.send(
            self.dst, self.port, self.payload, self.size, cap=self.cap, owner=sandbox
        ).callbacks.append(self._sent)

    def _sent(self, event: Event) -> None:
        if self._cancelled:
            return
        if not event._ok:
            event.defused = True
            self._complete(False, event._value)
            return
        sandbox = self.sandbox
        sandbox.bytes_sent += self.size
        sandbox.send_log.add(self.start, sandbox.sim.now, self.size)
        self._complete(True, event._value)


class RecvOp(SandboxOp):
    """``Sandbox.recv`` in flight; its value is the received Message."""

    __slots__ = ("port", "filter", "_get")

    def __init__(self, sandbox: Sandbox, port: str, filter=None):
        self.port = port
        self.filter = filter
        self._get: Optional[StoreGet] = None
        super().__init__(sandbox)

    def _begin(self, _event: Event) -> None:
        if self._cancelled:
            return
        self._get = self.sandbox.host.mailbox(self.port).get(filter=self.filter)
        self._get.callbacks.append(self._got)

    def cancel(self) -> None:
        """Withdraw the op, and its mailbox get so it swallows nothing."""
        super().cancel()
        if self._get is not None:
            self._get.store.cancel(self._get)

    def _got(self, event: Event) -> None:
        if self._cancelled:
            return
        sandbox = self.sandbox
        if sandbox._recv_bucket is not None:
            delay = sandbox._recv_bucket.reserve(event._value.size, sandbox.sim.now)
            if delay > 0:
                shaped = sandbox.sim.timeout(delay, value=event._value)
                shaped.callbacks.append(self._received)
                return
        self._received(event)

    def _received(self, event: Event) -> None:
        if self._cancelled:
            return
        msg = event._value
        sandbox = self.sandbox
        now = sandbox.sim.now
        sandbox.bytes_received += msg.size
        # Log (transmission start, delivered, size): the span covers wire
        # time plus any shaping, which is exactly the "effective bandwidth"
        # the monitoring agent must estimate.
        sandbox.recv_log.add(getattr(msg, "send_time", now), now, msg.size)
        self._complete(True, msg)
