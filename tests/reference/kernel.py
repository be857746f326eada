"""Reference kernel: the simplest code that meets the simulator's contract.

The contract of :mod:`repro.sim`, restated without any of its speed-ups:

* events fire in ``(time, priority, FIFO number)`` order, one per step,
  and an event's callbacks run in the order they were added;
* a process starts with an :data:`URGENT` event at its creation instant,
  is resumed by whatever it yields, and fires itself (:data:`URGENT`) when
  its generator ends;
* an interrupt detaches the process from its target and throws
  :class:`Interrupt` into it with a fresh :data:`URGENT` event;
* a fluid share serves its jobs at water-filled rates, piecewise
  constant between changes.

Here the heap is plain, every push takes the next FIFO number, there is
no end-of-instant list, and :class:`FluidShare` is the *eager* pass: every
change advances the jobs, recomputes the rates and arms a fresh completion
timer at once; timers left behind by later changes fire and do nothing.

Four knobs plant known defects, so a test can show that comparing this
kernel with :mod:`repro.sim` catches them: ``Simulator(lifo=True)`` breaks
ties last-in-first-out, ``FluidShare(..., rate_ulps=n)`` moves every
positive rate ``n`` ulps up, ``Store(..., last_match=True)`` hands a
filtered get the newest matching item instead of the oldest, and
``Store(..., lazy_post=True)`` leaves a posted item in the store without
waking a parked getter.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from itertools import count

URGENT = 0
NORMAL = 1

_PENDING = object()
_EPS = 1e-12


class SimulationError(Exception):
    """Misuse of the reference kernel (and a cancelled fluid job)."""


class Interrupt(Exception):
    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Event:
    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self.scheduled = False

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def value(self):
        return self._value

    def succeed(self, value=None, priority=NORMAL):
        if self.triggered:
            raise SimulationError("already triggered")
        self._ok = True
        self._value = value
        self.sim.schedule(self, 0.0, priority)
        return self

    def fail(self, exception, priority=NORMAL):
        if self.triggered:
            raise SimulationError("already triggered")
        self._ok = False
        self._value = exception
        self.sim.schedule(self, 0.0, priority)
        return self


class Process(Event):
    def __init__(self, sim, generator):
        super().__init__(sim)
        self.generator = generator
        self.target = None
        start = Event(sim)
        start._ok = True
        start._value = None
        start.callbacks.append(self._resume)
        sim.schedule(start, 0.0, URGENT)

    @property
    def is_alive(self):
        return self._value is _PENDING

    def interrupt(self, cause=None):
        if not self.is_alive or self is self.sim.active:
            raise SimulationError("cannot interrupt")
        if self.target is not None and self.target.callbacks is not None:
            self.target.callbacks.remove(self._resume)
        self.target = None
        wake = Event(self.sim)
        wake._ok = False
        wake._value = Interrupt(cause)
        wake.defused = True
        wake.callbacks.append(self._resume)
        self.sim.schedule(wake, 0.0, URGENT)

    def _resume(self, event):
        self.sim.active = self
        while True:
            try:
                if event._ok:
                    result = self.generator.send(event._value)
                else:
                    event.defused = True
                    result = self.generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                break
            if result.callbacks is not None:
                result.callbacks.append(self._resume)
                self.target = result
                self.sim.active = None
                return
            event = result  # already fired: feed its outcome straight back
        self.sim.active = None
        self.target = None
        self.sim.schedule(self, 0.0, URGENT)


class ConditionValue:
    def __init__(self, events):
        self.events = events


class Condition(Event):
    """Fires when ``need_all`` (or any one) of ``events`` has fired."""

    def __init__(self, sim, need_all, events):
        super().__init__(sim)
        self.need_all = need_all
        self.events = list(events)
        self.count = 0
        if not self.events:
            self.succeed(ConditionValue([]))
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event):
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self.count += 1
        if self.count == len(self.events) if self.need_all else self.count >= 1:
            fired = [e for e in self.events if e.callbacks is None and e._ok]
            self.succeed(ConditionValue(fired))


class Simulator:
    def __init__(self, lifo=False):
        self.now = 0.0
        self.heap = []
        self.fifo = count()
        self.lifo = lifo
        self.active = None

    def schedule(self, event, delay, priority):
        if event.scheduled:
            return
        event.scheduled = True
        number = next(self.fifo)
        heapq.heappush(
            self.heap,
            (self.now + delay, priority, -number if self.lifo else number, event),
        )

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None, priority=NORMAL):
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule(event, delay, priority)
        return event

    def process(self, generator):
        return Process(self, generator)

    def any_of(self, events):
        return Condition(self, False, events)

    def all_of(self, events):
        return Condition(self, True, events)

    def run(self):
        while self.heap:
            time, _priority, _number, event = heapq.heappop(self.heap)
            self.now = time
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                raise event._value


class Store:
    """FIFO store with a capacity; ``put``/``get`` return events.

    A get may carry a ``filter``: it takes the oldest item the filter
    accepts.  Waiting getters are served in arrival order, one pass over
    them per round; a getter nothing matches waits for a later round.
    ``post`` is a put that returns nothing: nobody can wait on it.
    """

    def __init__(self, sim, capacity=math.inf, last_match=False, lazy_post=False):
        self.sim = sim
        self.capacity = capacity
        self.items = deque()
        self.putters = deque()
        self.getters = deque()
        self.last_match = last_match
        self.lazy_post = lazy_post

    def put(self, item):
        event = Event(self.sim)
        event.item = item
        self.putters.append(event)
        self._dispatch()
        return event

    def post(self, item):
        if self.lazy_post and not self.putters and len(self.items) < self.capacity:
            self.items.append(item)
            return
        self.put(item)

    def get(self, filter=None):
        event = Event(self.sim)
        event.filter = filter
        self.getters.append(event)
        self._dispatch()
        return event

    def _match(self, getter):
        """Index of the item ``getter`` takes, or None."""
        found = [
            j for j, item in enumerate(self.items)
            if getter.filter is None or getter.filter(item)
        ]
        if not found:
            return None
        return found[-1] if self.last_match and getter.filter is not None else found[0]

    def _dispatch(self):
        progressed = True
        while progressed:
            progressed = False
            while self.putters and len(self.items) < self.capacity:
                put = self.putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            for getter in list(self.getters):
                j = self._match(getter)
                if j is None:
                    continue
                item = self.items[j]
                del self.items[j]
                self.getters.remove(getter)
                getter.succeed(item)
                progressed = True


class FluidJob:
    def __init__(self, share, work, weight, cap):
        self.share = share
        self.remaining = float(work)
        self.consumed = 0.0
        self.weight = float(weight)
        self.cap = cap
        self.rate = 0.0
        self.done = Event(share.sim)

    def set_cap(self, cap):
        self.share.set_cap(self, cap)

    def cancel(self):
        self.share.cancel(self)


class FluidShare:
    """Weighted fair sharing with per-job caps, recomputed eagerly."""

    def __init__(self, sim, speed, rate_ulps=0):
        self.sim = sim
        self.speed = float(speed)
        self.jobs = {}
        self.last_update = sim.now
        self.generation = 0
        self.rate_ulps = rate_ulps

    def submit(self, work, weight=1.0, cap=None):
        self._advance()
        job = FluidJob(self, work, weight, cap)
        if work <= _EPS:
            job.remaining = 0.0
            job.done.succeed(self.sim.now)
        else:
            self.jobs[job] = None
        self._reschedule()
        return job

    def set_cap(self, job, cap):
        if job not in self.jobs:
            return
        self._advance()
        job.cap = cap
        self._reschedule()

    def cancel(self, job):
        if job not in self.jobs:
            return
        self._advance()
        if job in self.jobs:  # else it completed at the catch-up point
            del self.jobs[job]
            job.rate = 0.0
            job.done.defused = True
            job.done.fail(SimulationError("job cancelled"))
        self._reschedule()

    def _rates(self):
        """Water-filling: weighted shares with per-job ceilings."""
        rates = {}
        pending = []
        budget = self.speed
        for job in self.jobs:
            if job.weight <= _EPS:
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

    def _advance(self):
        now = self.sim.now
        dt = now - self.last_update
        self.last_update = now
        if dt <= 0.0:
            return
        finished = []
        for job in self.jobs:
            delta = job.rate * dt
            if delta > 0:
                served = min(delta, job.remaining)
                job.remaining -= served
                job.consumed += served
                if job.remaining <= _EPS * max(1.0, job.consumed):
                    job.remaining = 0.0
                    finished.append(job)
        for job in finished:
            del self.jobs[job]
            job.rate = 0.0
            job.done.succeed(now)

    def _reschedule(self):
        horizon = math.inf
        for job, rate in self._rates().items():
            if rate > 0.0:
                for _ in range(self.rate_ulps):
                    rate = math.nextafter(rate, math.inf)
            job.rate = rate
            if rate > _EPS:
                horizon = min(horizon, job.remaining / rate)
        self.generation += 1
        if horizon == math.inf:
            return
        now = self.sim.now
        horizon = max(horizon, 1e-12, abs(now) * 1e-12)
        generation = self.generation

        def fire(_event):
            if generation == self.generation:
                self._advance()
                self._reschedule()

        self.sim.timeout(horizon).callbacks.append(fire)
