"""Fluid (generalized-processor-sharing) resource model.

A :class:`FluidShare` serves a set of concurrent *jobs*, each with a fixed
amount of work.  At every instant, the total service rate ``speed`` is
divided among active jobs in proportion to their weights, subject to
per-job rate *caps* (water-filling).  This single abstraction models both

- a CPU shared by competing processes under proportional-share scheduling
  (weights ≈ priorities; caps ≈ sandbox CPU-share limits), and
- a network link shared by concurrent flows (weights ≈ flow fairness;
  caps ≈ sandbox bandwidth limits).

The implementation is an event-driven fluid simulation: whenever the job
set, a weight, a cap, or the speed changes, all remaining-work figures are
advanced to "now" and the share is marked for rescheduling.  The rates are
recomputed, and the next completion armed, once per share per virtual
instant: just before the simulator clock next advances.  Same-instant
changes see dt = 0, so the intermediate rates are never integrated and
the single pass is exact.  Between change points rates are constant, so
the evolution is exact (no time-stepping).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from .core import Event, NORMAL, SimulationError, Simulator

__all__ = ["FluidShare", "FluidJob"]

_EPS = 1e-12


class FluidJob:
    """One unit of work in service at a :class:`FluidShare`.

    Attributes
    ----------
    remaining:
        Work still to be done (same unit as ``FluidShare.speed`` per second).
    consumed:
        Work completed so far (monotone; used for usage accounting).
    weight:
        Scheduling weight; 0 suspends the job.
    cap:
        Optional absolute rate ceiling (work units / second).
    done:
        Event fired when the job's work reaches zero.
    """

    __slots__ = (
        "share",
        "remaining",
        "consumed",
        "weight",
        "cap",
        "done",
        "owner",
        "_rate",
    )

    def __init__(
        self,
        share: "FluidShare",
        work: float,
        weight: float,
        cap: Optional[float],
        owner: Optional[object] = None,
    ):
        self.share = share
        self.remaining = float(work)
        self.consumed = 0.0
        self.weight = float(weight)
        self.cap = cap
        self.owner = owner
        self.done: Event = Event(share.sim)
        self._rate = 0.0

    @property
    def rate(self) -> float:
        """Current instantaneous service rate (valid until the next change).

        Read mid-instant, after a change whose rescheduling is still
        pending, the rate is computed on the spot; no timer is armed.
        """
        share = self.share
        if share._dirty and self in share._jobs:
            return share._rates()[self]
        return self._rate

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def set_weight(self, weight: float) -> None:
        self.share.set_weight(self, weight)

    def set_cap(self, cap: Optional[float]) -> None:
        self.share.set_cap(self, cap)

    def cancel(self) -> None:
        self.share.cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FluidJob remaining={self.remaining:.6g} weight={self.weight}"
            f" cap={self.cap} rate={self._rate:.6g}>"
        )


class FluidShare:
    """Weighted fair sharing of a rated resource with per-job caps."""

    def __init__(self, sim: Simulator, speed: float, name: str = "fluid"):
        if speed < 0:
            raise SimulationError(f"speed must be non-negative, got {speed!r}")
        self.sim = sim
        self.name = name
        self._speed = float(speed)
        self._jobs: Dict[FluidJob, None] = {}
        self._last_update = sim.now
        #: Bumped by every change; a completion timer armed under an older
        #: generation is stale and does nothing when it fires.
        self._timer_gen = 0
        #: True while a change awaits the end-of-instant :meth:`_reschedule`.
        self._dirty = False
        #: FIFO slot reserved by the latest change: the completion timer is
        #: pushed with it, so it sorts exactly where a timer pushed at that
        #: change would have.
        self._slot = 0
        #: Cumulative busy work served (for utilization accounting).
        self.total_served = 0.0
        #: Passive accounting tap: ``tap(owner, amount)`` is called for
        #: every chunk of served work as it is folded into the lazy
        #: accumulators.  The tap must not touch the simulator (no events,
        #: no RNG) — :class:`repro.obs.usage.UsageAccountant` only sums
        #: floats — so installing one leaves the run byte-identical.
        self.usage_tap: Optional[Callable[[Optional[object], float], None]] = None
        #: Passive speed-change tap: called just *before* ``set_speed``
        #: replaces the rate, so an accountant can fold its capacity
        #: integral (``old_speed * dt``) exactly at the change point and
        #: keep its per-event hook O(1).  Same passivity contract as
        #: :attr:`usage_tap`.
        self.speed_tap: Optional[Callable[[], None]] = None

    # -- public API -------------------------------------------------------
    @property
    def speed(self) -> float:
        return self._speed

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def submit(
        self,
        work: float,
        weight: float = 1.0,
        cap: Optional[float] = None,
        owner: Optional[object] = None,
    ) -> FluidJob:
        """Enter ``work`` units of demand; returns the job handle.

        Zero-work jobs complete immediately.
        """
        if work < 0:
            raise SimulationError(f"work must be non-negative, got {work!r}")
        if weight < 0:
            raise SimulationError(f"weight must be non-negative, got {weight!r}")
        if cap is not None and cap < 0:
            raise SimulationError(f"cap must be non-negative, got {cap!r}")
        if self.sim.perf is not None:
            self.sim.perf.fluid_event(self.name, "submit")
        self._advance()
        job = FluidJob(self, work, weight, cap, owner)
        if work <= _EPS:
            job.remaining = 0.0
            job.done.succeed(self.sim.now)
        else:
            self._jobs[job] = None
        self._mark()
        return job

    def add_work(self, job: FluidJob, amount: float) -> bool:
        """Top up an in-service job's remaining work in place.

        The aggregate-flow primitive (see :mod:`repro.sim.aggregate`): a
        population of N clients is represented by *one* job whose demand
        grows by ``amount`` per arrival batch, so a rate change costs one
        O(active jobs) reschedule regardless of N — the same lazy-integral
        trick the usage accountant uses, generalized into the resource.

        Returns ``False`` (without applying anything) when the job is no
        longer in service — it completed during the catch-up advance or
        was cancelled — so the caller can resubmit a fresh job.
        """
        if amount < 0:
            raise SimulationError(f"amount must be non-negative, got {amount!r}")
        if job not in self._jobs:
            return False
        if amount <= _EPS:
            return True
        if self.sim.perf is not None:
            self.sim.perf.fluid_event(self.name, "submit")
        self._advance()
        if job not in self._jobs:  # completed exactly at the catch-up point
            return False
        job.remaining += float(amount)
        self._mark()
        return True

    def set_weight(self, job: FluidJob, weight: float) -> None:
        if weight < 0:
            raise SimulationError(f"weight must be non-negative, got {weight!r}")
        if job not in self._jobs:
            return
        if self.sim.perf is not None:
            self.sim.perf.fluid_event(self.name, "set_weight")
        self._advance()
        job.weight = float(weight)
        self._mark()

    def set_cap(self, job: FluidJob, cap: Optional[float]) -> None:
        if cap is not None and cap < 0:
            raise SimulationError(f"cap must be non-negative, got {cap!r}")
        if job not in self._jobs:
            return
        if self.sim.perf is not None:
            self.sim.perf.fluid_event(self.name, "set_cap")
        self._advance()
        job.cap = cap
        self._mark()

    def set_speed(self, speed: float) -> None:
        if speed < 0:
            raise SimulationError(f"speed must be non-negative, got {speed!r}")
        if self.sim.perf is not None:
            self.sim.perf.fluid_event(self.name, "set_speed")
        self._advance()
        if self.speed_tap is not None:
            self.speed_tap()
        self._speed = float(speed)
        self._mark()

    def cancel(self, job: FluidJob) -> None:
        """Abort a job; its ``done`` event fails with :class:`SimulationError`."""
        if job not in self._jobs:
            return
        if self.sim.perf is not None:
            self.sim.perf.fluid_event(self.name, "cancel")
        self._advance()
        del self._jobs[job]
        job._rate = 0.0
        job.done.defused = True
        job.done.fail(SimulationError("job cancelled"))
        self._mark()

    def utilization_since(self, t0: float, served0: float) -> float:
        """Average utilization over [t0, now] given a prior snapshot.

        Callers snapshot ``(sim.now, total_served)`` and later compute the
        achieved fraction of capacity.  Requires an up-to-date accumulator,
        so we advance first.
        """
        self._advance()
        self._mark()
        dt = self.sim.now - t0
        if dt <= _EPS or self._speed <= _EPS:
            return 0.0
        return (self.total_served - served0) / (self._speed * dt)

    def snapshot(self) -> tuple:
        """(now, total_served) pair for :meth:`utilization_since`."""
        self.sync()
        return (self.sim.now, self.total_served)

    def served_now(self) -> float:
        """``total_served`` projected to the current instant, read-only.

        The passive twin of :meth:`sync`: the lazy accumulators and the
        completion timer are left untouched, so instrumentation (the usage
        accountant's step hook) can read progress between events without
        perturbing the run.
        """
        dt = self.sim.now - self._last_update
        if dt <= 0.0 or not self._jobs:
            return self.total_served
        extra = 0.0
        for job in self._jobs:
            if job._rate > 0.0:
                extra += min(job._rate * dt, job.remaining)
        return self.total_served + extra

    def sync(self) -> None:
        """Bring lazy work accumulators up to the current time.

        Progress advances lazily at event boundaries; call this before
        reading ``consumed``/``total_served`` between events.
        """
        self._advance()
        self._mark()

    def peek(self) -> dict:
        """Passive state projection for inspectors, read-only.

        Like :meth:`served_now` but for the whole share: every figure is
        projected to the current instant *without* touching
        ``_last_update`` or re-arming the completion timer, so reading it
        between :meth:`Simulator.step` calls leaves the event sequence
        byte-identical.  Rates still pending rescheduling are computed on
        the spot (dt is 0 then, so nothing is projected).
        (``sync``/``snapshot``/``utilization_since`` all fold the
        accumulators and mark the share changed — never call those from a
        read-only path.)
        """
        now = self.sim.now
        dt = max(0.0, now - self._last_update)
        rates = self._rates() if self._dirty else None
        jobs = []
        projected_total = self.total_served
        for job in self._jobs:
            rate = job._rate if rates is None else rates[job]
            served = min(rate * dt, job.remaining) if rate > 0.0 else 0.0
            projected_total += served
            jobs.append(
                {
                    "remaining": job.remaining - served,
                    "consumed": job.consumed + served,
                    "rate": rate,
                    "weight": job.weight,
                    "cap": job.cap,
                    "owner": str(job.owner) if job.owner is not None else None,
                }
            )
        return {
            "name": self.name,
            "speed": self._speed,
            "active_jobs": len(self._jobs),
            "total_served": projected_total,
            "jobs": jobs,
        }

    # -- fluid mechanics ----------------------------------------------------
    def _rates(self) -> Dict[FluidJob, float]:
        """Water-filling: weighted shares with per-job ceilings."""
        rates: Dict[FluidJob, float] = {}
        pending = []
        budget = self._speed
        for job in self._jobs:
            if job.weight <= _EPS:
                # Suspended jobs may still be allowed a capped trickle of 0.
                rates[job] = 0.0
            else:
                pending.append(job)
        while pending and budget > _EPS:
            total_w = sum(j.weight for j in pending)
            capped = []
            for job in pending:
                fair = budget * job.weight / total_w
                if job.cap is not None and job.cap < fair - _EPS:
                    capped.append(job)
            if not capped:
                for job in pending:
                    rates[job] = budget * job.weight / total_w
                pending = []
                break
            for job in capped:
                rates[job] = job.cap or 0.0
                budget -= rates[job]
                pending.remove(job)
            budget = max(0.0, budget)
        for job in pending:
            rates[job] = 0.0
        return rates

    def _advance(self) -> None:
        """Progress every job's remaining work to the current time."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        # dt can legitimately be as small as the Zeno-guard step in
        # _reschedule; it must still advance, or a near-finished job would
        # spin its timer forever without completing.
        if dt <= 0.0 or not self._jobs:
            return
        finished = []
        for job in self._jobs:
            delta = job._rate * dt
            if delta > 0:
                done_amount = min(delta, job.remaining)
                job.remaining -= done_amount
                job.consumed += done_amount
                self.total_served += done_amount
                if self.usage_tap is not None:
                    self.usage_tap(job.owner, done_amount)
                if job.remaining <= _EPS * max(1.0, job.consumed):
                    job.remaining = 0.0
                    finished.append(job)
        for job in finished:
            del self._jobs[job]
            job._rate = 0.0
            job.done.succeed(now)

    def _mark(self) -> None:
        """Note a change: rescheduling runs once, at the end of this instant.

        Every change stales the armed completion timer and reserves a fresh
        FIFO slot, exactly as pushing a new timer here would; only the
        last change's slot is used.
        """
        self._timer_gen += 1
        sim = self.sim
        self._slot = next(sim._seq)
        if not self._dirty:
            self._dirty = True
            sim._eoi.append(self._reschedule)

    def _reschedule(self) -> None:
        """Recompute rates and arm a timer for the next completion.

        Runs from the simulator's end-of-instant list, at most once per
        instant however many changes the instant made.  It sees the state
        the last change left, and the same float expressions in the same
        order, so rates and completion times are those an eager
        recomputation after every change would end with.
        """
        self._dirty = False
        sim = self.sim
        if sim.perf is not None:
            # The O(active flows) pass ROADMAP item 1 targets: one per
            # share per instant with changes, over the whole job set.
            sim.perf.fluid_reschedule(self.name, len(self._jobs))
        rates = self._rates()
        horizon = math.inf
        for job, rate in rates.items():
            job._rate = rate
            if rate > _EPS:
                horizon = min(horizon, job.remaining / rate)
        if horizon is math.inf:
            return
        # Zeno guard: with a near-finished job the exact horizon can be so
        # small that now + horizon == now in float arithmetic, which would
        # re-fire the timer forever at a frozen clock.  Bump the horizon to
        # at least one representable step; the overshoot just completes the
        # job (delta is clamped to `remaining` in _advance).
        now = sim.now
        horizon = max(horizon, 1e-12, abs(now) * 1e-12)
        gen = self._timer_gen

        def fire(_event: Event) -> None:
            if gen != self._timer_gen:
                return  # stale timer; a later change superseded it
            self._advance()
            self._mark()

        timer = Event(sim)
        timer._ok = True
        timer._value = None
        timer.callbacks.append(fire)
        sim._enqueue(timer, horizon, NORMAL, self._slot)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FluidShare {self.name!r} speed={self._speed} jobs={len(self._jobs)}>"
