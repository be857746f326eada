"""Usage accounting: where the resources actually went, over time.

The adaptation argument of the paper (Sections 5-7) is that decisions
should follow measured resource consumption — CPU share, link bandwidth,
memory — yet the tracing layer records only control-plane causality
(violations -> decisions -> switches).  A :class:`UsageAccountant` adds
the data-plane account: per-resource, per-process, and per-active-
configuration served-work totals, folded into time-weighted
:class:`~repro.obs.metrics.TimeSeries` at event boundaries.

Like the :class:`~repro.obs.record.TraceRecorder` it is strictly
**passive**:

- no probe processes, no scheduled events, no RNG draws — a run with
  accounting enabled is byte-identical to the same run without it
  (enforced by ``benchmarks/bench_obs.py``);
- progress is observed two ways, both read-only at the simulator level:
  a *work tap* on each :class:`~repro.sim.fluid.FluidShare` receives
  exact served-work deltas as the share folds its lazy accumulators (so
  totals are exact regardless of sampling resolution), and a *speed
  tap* folds the capacity integral (``speed * dt``) exactly at each
  ``set_speed`` change point — so the chained kernel ``step_hook`` is
  O(1) per event: it only checks whether virtual time has advanced past
  the next ``resolution`` boundary and, if so, cuts a utilization
  sample;
- attribution keys are stable strings: the ``owner`` label of the fluid
  job (normally a sandbox name) and the label of the configuration
  active when the work was served.  The runtime updates the active
  configuration through :meth:`set_config` at ``config.switch`` safe
  points (see :mod:`repro.runtime.steering`), discovered via the
  ``sim.usage`` attribute.

Accounting invariants (see ``docs/observability.md``):

1. for every tracked share, ``sum(by_owner) == sum(by_config) ==
   served`` to float tolerance — the three views are the same work;
2. ``served / capacity`` equals the share's own
   ``utilization_since(t0, served0)`` ground truth over the tracked
   window (under constant speed; capacity integrates exactly across
   speed changes at event boundaries);
3. the utilization series is time-weighted: each sample ``(t, u)``
   covers exactly the interval since the previous sample, so the
   capacity-weighted mean of the samples reproduces the overall
   utilization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.core import Event, Simulator
from ..sim.fluid import FluidShare
from .metrics import MetricsRegistry

__all__ = ["MemoryUsage", "ResourceUsage", "UsageAccountant", "owner_label"]

_EPS = 1e-12

#: Attribution bucket for work whose fluid job carries no owner.
UNATTRIBUTED = "(unattributed)"

#: Attribution bucket before any configuration label is known.
NO_CONFIG = "(none)"


def owner_label(owner: Optional[object]) -> str:
    """Stable attribution key for a fluid job's owner (a sandbox, usually)."""
    if owner is None:
        return UNATTRIBUTED
    name = getattr(owner, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(owner).__name__


class ResourceUsage:
    """Accounting state for one tracked fluid-shared resource."""

    __slots__ = (
        "name", "kind", "share", "capacity", "served",
        "by_owner", "by_config", "_pending_owner", "_pending_config",
        "_served_mark", "_capacity_mark", "_base_served", "_cap_t",
    )

    def __init__(self, name: str, kind: str, share: FluidShare):
        self.name = name
        self.kind = kind  # "cpu" | "link"
        self.share = share
        #: Integral of ``speed * dt``, folded up to :attr:`_cap_t`.
        self.capacity = 0.0
        #: Exact served work over the tracked window(s) (tap-fed).
        self.served = 0.0
        self.by_owner: Dict[str, float] = {}
        self.by_config: Dict[str, float] = {}
        #: Owner/config deltas since the last sample cut.
        self._pending_owner: Dict[str, float] = {}
        self._pending_config: Dict[str, float] = {}
        #: served/capacity values at the last sample cut.
        self._served_mark = 0.0
        self._capacity_mark = 0.0
        #: ``share.total_served`` when tracking (re)started — taps report
        #: deltas, but the passive projection below is cumulative.
        self._base_served = share.total_served
        #: Virtual time the capacity integral is folded up to.  Between
        #: folds the share's speed is constant (the speed tap folds at
        #: every ``set_speed``), so ``capacity + speed * (t - _cap_t)``
        #: is exact at any later ``t``.
        self._cap_t = share.sim.now

    def rebase(self, share: FluidShare) -> None:
        """Point at a fresh share (new testbed); totals keep accumulating."""
        self.share = share
        self._base_served = share.total_served
        self._cap_t = share.sim.now

    def fold_capacity(self, t: float) -> None:
        """Advance the capacity integral to ``t`` at the current speed."""
        dt = t - self._cap_t
        if dt > 0.0:
            self.capacity += self.share.speed * dt
            self._cap_t = t

    def on_work(self, owner: str, config: str, amount: float) -> None:
        self.served += amount
        self.by_owner[owner] = self.by_owner.get(owner, 0.0) + amount
        self.by_config[config] = self.by_config.get(config, 0.0) + amount
        self._pending_owner[owner] = self._pending_owner.get(owner, 0.0) + amount
        self._pending_config[config] = (
            self._pending_config.get(config, 0.0) + amount
        )

    def projected_served(self) -> float:
        """Served work including the share's not-yet-folded progress."""
        in_flight = self.share.served_now() - self.share.total_served
        return self.served + max(0.0, in_flight)

    def projected_capacity(self) -> float:
        """The capacity integral projected to now, without folding it.

        Folding on a read would split the integral at the read's instant
        and move the float sum, so reads between events stay passive.
        """
        dt = self.share.sim.now - self._cap_t
        if dt > 0.0:
            return self.capacity + self.share.speed * dt
        return self.capacity

    def utilization(self) -> float:
        """Overall served / capacity over the tracked window(s)."""
        capacity = self.projected_capacity()
        if capacity <= _EPS:
            return 0.0
        return self.projected_served() / capacity

    def to_dict(self) -> dict:
        served = self.projected_served()
        return {
            "kind": self.kind,
            "capacity": self.projected_capacity(),
            "served": served,
            "utilization": self.utilization(),
            "by_owner": {k: self.by_owner[k] for k in sorted(self.by_owner)},
            "by_config": {k: self.by_config[k] for k in sorted(self.by_config)},
        }


class MemoryUsage:
    """Accounting state for one tracked host memory."""

    __slots__ = ("name", "memory", "faults", "faults_by_config", "peak_resident")

    def __init__(self, name: str, memory) -> None:
        self.name = name
        self.memory = memory
        self.faults = 0
        self.faults_by_config: Dict[str, int] = {}
        self.peak_resident = 0

    def rebase(self, memory) -> None:
        self.memory = memory

    def resident_pages(self) -> int:
        return sum(space.resident_pages for space in self.memory.spaces)

    def to_dict(self) -> dict:
        return {
            "kind": "memory",
            "faults": self.faults,
            "faults_by_config": {
                k: self.faults_by_config[k]
                for k in sorted(self.faults_by_config)
            },
            "peak_resident_pages": self.peak_resident,
            "total_pages": self.memory.total_pages,
        }


class UsageAccountant:
    """Folds served-work deltas into per-resource utilization series.

    Attach order composes with the rest of the obs stack exactly as the
    recorder does: attach the race detector first (it refuses to chain),
    then :meth:`attach` the accountant, then ``recorder.bind`` — each
    later layer chains the hook it finds.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        resolution: float = 1.0,
    ):
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution!r}")
        #: Where the ``usage.*`` series land; share a recorder's registry
        #: (``UsageAccountant(metrics=recorder.metrics)``) to make them
        #: visible to ``repro metrics`` and the HTML report.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.resolution = float(resolution)
        self.resources: Dict[str, ResourceUsage] = {}
        self.memories: Dict[str, MemoryUsage] = {}
        #: (virtual time, configuration label) attribution switch points,
        #: fed by the runtime at ``config.switch`` safe points.
        self.config_marks: List[Tuple[float, str]] = []
        self._config = NO_CONFIG
        self.sim: Optional[Simulator] = None
        self._prev_hook = None
        self._hook = None
        self._elapsed_mark = 0.0
        self._sample_t = 0.0
        #: Virtual time accounted so far, across attach/detach cycles.
        self.elapsed = 0.0
        self.steps = 0

    # -- binding ----------------------------------------------------------
    def attach(self, sim: Simulator) -> "UsageAccountant":
        """Chain into ``sim.step_hook`` and become ``sim.usage``."""
        if self.sim is not None:
            raise ValueError("accountant is already attached; detach() first")
        if sim.usage is not None:
            raise ValueError("simulator already has an attached accountant")
        self.sim = sim
        sim.usage = self
        self._prev_hook = sim.step_hook
        # One bound-method object, kept for the identity check in detach().
        self._hook = self._step_hook
        sim.step_hook = self._hook
        self._elapsed_mark = sim.now
        self._sample_t = sim.now
        return self

    def detach(self) -> "UsageAccountant":
        """Unchain from the simulator (restores any chained hook)."""
        sim = self.sim
        if sim is None:
            return self
        dt = sim.now - self._elapsed_mark
        if dt > 0.0:
            self.elapsed += dt
            self._elapsed_mark = sim.now
        if sim.usage is self:
            sim.usage = None
        if sim.step_hook is self._hook:
            sim.step_hook = self._prev_hook
        self._prev_hook = None
        self._hook = None
        self.sim = None
        return self

    # -- registration -----------------------------------------------------
    def track_share(self, name: str, share: FluidShare, kind: str) -> ResourceUsage:
        """Track a fluid-shared resource under a stable ``name``.

        Re-tracking an existing name (a fresh testbed in a profiling
        sweep) rebases the entry onto the new share; totals accumulate.
        """
        entry = self.resources.get(name)
        if entry is None:
            entry = ResourceUsage(name, kind, share)
            self.resources[name] = entry
        else:
            entry.rebase(share)

        def tap(owner: Optional[object], amount: float) -> None:
            entry.on_work(owner_label(owner), self._config, amount)

        def speed_tap() -> None:
            # Fold the capacity integral at the old speed just before the
            # share replaces it; keeps the per-event step hook O(1).
            entry.fold_capacity(share.sim.now)

        share.usage_tap = tap
        share.speed_tap = speed_tap
        return entry

    def track_cpu(self, cpu, name: Optional[str] = None) -> ResourceUsage:
        entry = self.track_share(name or cpu.name, cpu.share, "cpu")
        return entry

    def track_link(self, link, name: Optional[str] = None) -> ResourceUsage:
        return self.track_share(name or link.name, link.share, "link")

    def track_memory(self, memory, name: str) -> MemoryUsage:
        entry = self.memories.get(name)
        if entry is None:
            entry = MemoryUsage(name, memory)
            self.memories[name] = entry
        else:
            entry.rebase(memory)

        def tap(_space, faults: int) -> None:
            entry.faults += faults
            entry.faults_by_config[self._config] = (
                entry.faults_by_config.get(self._config, 0) + faults
            )

        memory.install_usage_tap(tap)
        return entry

    def track_testbed(self, testbed) -> "UsageAccountant":
        """Track every host CPU/memory and every network link of a testbed."""
        for host_name in sorted(testbed.hosts):
            host = testbed.hosts[host_name]
            self.track_cpu(host.cpu)
            self.track_memory(host.memory, f"{host_name}.mem")
        for link in testbed.network.links():
            self.track_link(link)
        return self

    # -- configuration attribution ----------------------------------------
    def set_config(self, label: str, t: Optional[float] = None) -> None:
        """Switch the attribution bucket for subsequently served work.

        Called by the runtime at ``config.switch`` safe points (and once
        at startup with the initial configuration); ``t`` records the
        safe-point time in :attr:`config_marks`.
        """
        if t is None:
            t = self.sim.now if self.sim is not None else 0.0
        if label != self._config or not self.config_marks:
            self.config_marks.append((float(t), label))
        self._config = label

    @property
    def active_config(self) -> str:
        return self._config

    # -- the step hook ------------------------------------------------------
    def _step_hook(self, t: float, prio: int, seq: int, event: Event) -> None:
        # Hot path — once per kernel event.  All real work (capacity
        # folding, attribution) happens in the share taps at exact change
        # points; here we only decide whether to cut a sample.
        self.steps += 1
        if t - self._sample_t >= self.resolution:
            self._sample(t)
        prev = self._prev_hook
        if prev is not None:
            prev(t, prio, seq, event)

    def _sample(self, t: float) -> None:
        """Cut one time-weighted sample per tracked resource."""
        for name in self.resources:
            entry = self.resources[name]
            entry.fold_capacity(t)
            served = entry.projected_served()
            d_cap = entry.capacity - entry._capacity_mark
            d_served = served - entry._served_mark
            util = d_served / d_cap if d_cap > _EPS else 0.0
            self.metrics.series(f"usage.{name}").record(t, util)
            for owner in sorted(entry._pending_owner):
                self.metrics.series(f"usage.{name}.proc.{owner}").record(
                    t, entry._pending_owner[owner] / d_cap if d_cap > _EPS else 0.0
                )
            for config in sorted(entry._pending_config):
                self.metrics.series(f"usage.{name}.config.{config}").record(
                    t, entry._pending_config[config] / d_cap if d_cap > _EPS else 0.0
                )
            entry._pending_owner.clear()
            entry._pending_config.clear()
            entry._served_mark = served
            entry._capacity_mark = entry.capacity
        for name in self.memories:
            entry = self.memories[name]
            resident = entry.resident_pages()
            entry.peak_resident = max(entry.peak_resident, resident)
            self.metrics.series(f"usage.{name}.resident").record(t, resident)
        self._sample_t = t

    # -- teardown ------------------------------------------------------------
    def finish(self) -> "UsageAccountant":
        """Flush the final partial interval at the current virtual time."""
        if self.sim is None:
            return self
        t = self.sim.now
        dt = t - self._elapsed_mark
        if dt > 0.0:
            self.elapsed += dt
            self._elapsed_mark = t
        for entry in self.resources.values():
            entry.fold_capacity(t)
        if t > self._sample_t:
            self._sample(t)
        return self

    # -- export ---------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-stable account: per-resource totals and attributions."""
        return {
            "elapsed": self.elapsed,
            "steps": self.steps,
            "resources": {
                name: self.resources[name].to_dict()
                for name in sorted(self.resources)
            },
            "memory": {
                name: self.memories[name].to_dict()
                for name in sorted(self.memories)
            },
            "config_marks": [[t, label] for t, label in self.config_marks],
        }

    def series(self, name: str):
        """The recorded ``usage.<name>`` utilization series (or None)."""
        return self.metrics.get(f"usage.{name}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<UsageAccountant resources={len(self.resources)} "
            f"elapsed={self.elapsed:.6g}>"
        )
