"""CrowdSource: N clients as one deterministic aggregate process.

Instead of spawning a coroutine per user, a :class:`CrowdSource` keeps
*columnar* per-class state — numpy tally vectors indexed by class — and
advances the whole population once per tick: draw this tick's arrivals
from the dedicated ``"crowd"`` RNG stream, fold them into the columns,
and emit **one** :class:`CrowdBatch` message per class through the same
``host.send`` network gate coroutine clients use.  Replies come back as
:class:`CrowdSummary` messages covering whole runs of requests, so the
event count per tick is O(classes), independent of N.

Determinism contract (see ``docs/scale.md``):

* all randomness is drawn from one ``stream(seed, "crowd")`` generator,
  in a fixed class order, once per tick — never from the global RNG;
* arrival processes are pure functions of time (no hidden state);
* reads of fluid progress are passive projections (``drained()``), so
  instrumentation cannot perturb the schedule.

Together these make a million-user run byte-identical across repeats
and byte-identical whether or not observers are attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..cluster.host import Host
from ..sim import AllOf, Event, Simulator, stream
from .arrivals import ArrivalProcess, ClosedLoop

__all__ = ["CrowdClass", "CrowdBatch", "CrowdSummary", "CrowdOwner", "CrowdSource"]

#: Fixed wire overhead per batch/summary message, matching the coroutine
#: clients' request/reply header framing.
BATCH_HEADER_BYTES = 64.0
SUMMARY_HEADER_BYTES = 32.0


class CrowdOwner:
    """Usage-attribution handle for one crowd class (``owner.name`` label)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CrowdOwner {self.name}>"


@dataclass(frozen=True)
class CrowdClass:
    """Static description of one homogeneous client population."""

    name: str
    users: int
    arrivals: ArrivalProcess
    #: Request wire size per aggregated request (bytes).
    request_bytes: float = 64.0
    #: Responses later than this violate the class's QoS target (seconds).
    qos_deadline: float = 1.0
    #: Outstanding requests older than this are written off as lost.
    timeout: float = 8.0
    #: Shedding priority handed to the server's OverloadGuard.
    priority: int = 0
    #: Optional coroutine factory ``session(uid) -> iterator`` for the
    #: per-user sessions mode (equivalence fixtures, small-N baselines).
    session: Optional[Callable[[int], Iterator]] = None


@dataclass(frozen=True)
class CrowdBatch:
    """One tick's arrivals for one class, sent as a single message."""

    cls: str
    seq: int
    n: int
    t_issued: float
    priority: int
    reply_port: str


@dataclass(frozen=True)
class CrowdSummary:
    """Service outcome for runs of aggregated requests.

    ``served``/``shed`` are ``(seq, count)`` pairs; a batch may be
    covered across several summaries, and counts never exceed what the
    matching batch issued.
    """

    cls: str
    served: Tuple[Tuple[int, int], ...] = ()
    shed: Tuple[Tuple[int, int], ...] = ()


@dataclass
class _Pending:
    """Mutable remainder of one issued batch awaiting its outcome."""

    n: int
    t_issued: float


# Column indices into the tally matrix.
_ISSUED, _SERVED, _SHED, _LOST, _SATISFIED, _VIOLATED, _INFLIGHT, _THINKING = range(8)
_COLUMNS = (
    "issued",
    "served",
    "shed",
    "lost",
    "satisfied",
    "violated",
    "inflight",
    "thinking",
)


class CrowdSource:
    """Aggregate client process feeding a server fleet from one host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        server_host: str,
        req_port: str,
        classes: List[CrowdClass],
        seed: int,
        tick: float = 0.25,
        horizon: float = 60.0,
        drain: float = 10.0,
        label: str = "crowd",
    ):
        if not classes:
            raise ValueError("CrowdSource needs at least one class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate crowd class names: {names}")
        self.sim = sim
        self.host = host
        self.server_host = server_host
        self.req_port = req_port
        self.classes = list(classes)
        self.tick = float(tick)
        self.horizon = float(horizon)
        self.drain = float(drain)
        self.label = label
        self.port = f"crowd.{label}.replies"
        # The dedicated named stream — the only RNG the subsystem touches.
        self.rng = stream(seed, "crowd")
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(self.classes)}
        self.owners = [CrowdOwner(f"crowd.{c.name}") for c in self.classes]
        # Columnar state: one int64 row per class, one column per tally.
        self._cols = np.zeros((len(self.classes), len(_COLUMNS)), dtype=np.int64)
        for i, c in enumerate(self.classes):
            self._cols[i, _THINKING] = c.users
        self._resp_sum = np.zeros(len(self.classes), dtype=np.float64)
        self._resp_max = np.zeros(len(self.classes), dtype=np.float64)
        self._seq = [0] * len(self.classes)
        self._pending: List[Dict[int, _Pending]] = [{} for _ in self.classes]
        # Classes with a session factory are driven by real coroutines
        # (``drive_sessions``); the aggregate tick loop skips them.
        self._aggregate = [
            (i, c) for i, c in enumerate(self.classes) if c.session is None
        ]
        self._closed = False
        self.finished: Event = Event(sim)
        self._procs = [
            sim.process(self._run(), name=f"crowd.{label}.source"),
            sim.process(self._sink(), name=f"crowd.{label}.sink"),
        ]

    # -- introspection ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Cumulative per-class tallies (plain ints/floats, sorted keys)."""
        out: Dict[str, Dict[str, float]] = {}
        # One tolist() per array yields the same Python ints and floats as
        # int()/float() of each numpy scalar, without the per-element boxing.
        resp_sum = self._resp_sum.tolist()
        resp_max = self._resp_max.tolist()
        for c, cols, total, worst in zip(
            self.classes, self._cols.tolist(), resp_sum, resp_max
        ):
            row = dict(zip(_COLUMNS, cols))
            served = row["served"]
            row["resp_mean"] = total / served if served else 0.0
            row["resp_max"] = worst
            out[c.name] = row
        return out

    def totals(self) -> Dict[str, int]:
        """Population-wide tallies summed across classes."""
        sums = self._cols.sum(axis=0)
        return {name: int(sums[j]) for j, name in enumerate(_COLUMNS)}

    def offered_rate(self, cls: CrowdClass, t: float) -> float:
        """Aggregate offered request rate (req/s) for a class at time ``t``."""
        proc = cls.arrivals
        if proc.closed_loop:
            idx = self._index[cls.name]
            return proc.rate(t) * float(self._cols[idx, _THINKING])
        return proc.rate(t) * cls.users

    # -- the aggregate tick loop --------------------------------------------
    def _run(self):
        sim = self.sim
        rng = self.rng
        eps = 1e-12
        while self._aggregate and sim.now < self.horizon - eps:
            now = sim.now
            self._expire(now)
            for idx, cls in self._aggregate:
                proc = cls.arrivals
                if proc.closed_loop:
                    pool = int(self._cols[idx, _THINKING])
                    p = proc.tick_probability(self.tick)  # type: ignore[attr-defined]
                    n = int(rng.binomial(pool, p)) if pool > 0 and p > 0.0 else 0
                else:
                    lam = proc.rate(now) * cls.users * self.tick
                    n = int(rng.poisson(lam)) if lam > 0.0 else 0
                obs = sim.obs
                if obs is not None:
                    obs.metrics.series(f"crowd.{cls.name}.rate").record(
                        now, self.offered_rate(cls, now)
                    )
                    obs.metrics.series(f"crowd.{cls.name}.inflight").record(
                        now, float(self._cols[idx, _INFLIGHT])
                    )
                if n > 0:
                    self._issue(idx, cls, n, now)
            yield sim.timeout(self.tick)
        # Drain: stop issuing, give in-flight work a grace window.
        deadline = sim.now + self.drain
        while sim.now < deadline - eps and int(self._cols[:, _INFLIGHT].sum()) > 0:
            self._expire(sim.now)
            yield sim.timeout(self.tick)
        self._expire(sim.now, flush=True)
        self._closed = True
        if not self.finished.triggered:
            self.finished.succeed(self.totals())

    def _issue(self, idx: int, cls: CrowdClass, n: int, now: float) -> None:
        seq = self._seq[idx]
        self._seq[idx] = seq + 1
        self._pending[idx][seq] = _Pending(n, now)
        col = self._cols[idx]
        col[_ISSUED] += n
        col[_INFLIGHT] += n
        if cls.arrivals.closed_loop:
            col[_THINKING] -= n
        batch = CrowdBatch(cls.name, seq, n, now, cls.priority, self.port)
        # Fire-and-forget: Network.send defuses the event on failure, and a
        # lost batch is recovered by the timeout scan.
        self.host.send(
            self.server_host,
            self.req_port,
            batch,
            size=BATCH_HEADER_BYTES + n * cls.request_bytes,
            weight=float(n),
            owner=self.owners[idx],
        )
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.counter(f"crowd.{cls.name}.issued").inc(n)

    # -- reply handling ------------------------------------------------------
    def _sink(self):
        mailbox = self.host.mailbox(self.port)
        while True:
            msg = yield mailbox.get()
            summary = msg.payload
            if summary is None:
                break
            self._apply(summary, self.sim.now)

    def _apply(self, summary: CrowdSummary, now: float) -> None:
        idx = self._index.get(summary.cls)
        if idx is None:
            return
        cls = self.classes[idx]
        pend = self._pending[idx]
        col = self._cols[idx]
        obs = self.sim.obs
        shed_n = 0
        for seq, n in summary.shed:
            entry = pend.get(seq)
            if entry is None:
                continue
            take = min(int(n), entry.n)
            entry.n -= take
            if entry.n <= 0:
                del pend[seq]
            col[_SHED] += take
            col[_VIOLATED] += take
            self._release(col, cls, take)
            shed_n += take
        served_n = 0
        sat_n = 0
        for seq, k in summary.served:
            entry = pend.get(seq)
            if entry is None:
                continue
            take = min(int(k), entry.n)
            entry.n -= take
            resp = now - entry.t_issued
            if entry.n <= 0:
                del pend[seq]
            col[_SERVED] += take
            if resp <= cls.qos_deadline:
                col[_SATISFIED] += take
                sat_n += take
            else:
                col[_VIOLATED] += take
            self._resp_sum[idx] += resp * take
            if resp > self._resp_max[idx]:
                self._resp_max[idx] = resp
            self._release(col, cls, take)
            served_n += take
        if obs is not None:
            if served_n:
                obs.metrics.counter(f"crowd.{cls.name}.served").inc(served_n)
                obs.metrics.counter(f"crowd.{cls.name}.satisfied").inc(sat_n)
                if served_n - sat_n:
                    obs.metrics.counter(f"crowd.{cls.name}.violated").inc(
                        served_n - sat_n
                    )
            if shed_n:
                obs.metrics.counter(f"crowd.{cls.name}.shed").inc(shed_n)
                obs.metrics.counter(f"crowd.{cls.name}.violated").inc(shed_n)

    def _release(self, col: np.ndarray, cls: CrowdClass, n: int) -> None:
        col[_INFLIGHT] -= n
        if cls.arrivals.closed_loop:
            col[_THINKING] += n

    def _expire(self, now: float, flush: bool = False) -> None:
        for idx, cls in enumerate(self.classes):
            pend = self._pending[idx]
            if not pend:
                continue
            col = self._cols[idx]
            expired = [
                seq
                for seq, entry in pend.items()
                if flush or now - entry.t_issued >= cls.timeout
            ]
            lost = 0
            for seq in expired:
                entry = pend.pop(seq)
                lost += entry.n
                self._release(col, cls, entry.n)
            if lost:
                col[_LOST] += lost
                col[_VIOLATED] += lost
                obs = self.sim.obs
                if obs is not None:
                    obs.metrics.counter(f"crowd.{cls.name}.lost").inc(lost)
                    obs.metrics.counter(f"crowd.{cls.name}.violated").inc(lost)

    # -- sessions mode -------------------------------------------------------
    def drive_sessions(self):
        """Spawn one real coroutine per user for classes with a ``session``.

        The per-user fallback: identical interface, ordinary processes.
        Used by equivalence fixtures and small-N baselines; the aggregate
        tick loop still runs for session-less classes.
        """
        children = []
        for cls in self.classes:
            if cls.session is None:
                continue
            for uid in range(cls.users):
                children.append(
                    self.sim.process(
                        cls.session(uid), name=f"crowd.{cls.name}.{uid}"
                    )
                )
        if children:
            yield AllOf(self.sim, children)
