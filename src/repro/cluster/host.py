"""Host model: CPU + memory + mailboxes, attached to a network."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim import Simulator, Store
from .cpu import CPU
from .disk import Disk
from .memory import Memory

__all__ = ["Host"]


class Host:
    """A machine in the simulated execution environment.

    ``cpu_speed`` is in abstract work units per second (see
    :mod:`repro.cluster.machines`), ``mem_pages`` is physical memory size.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu_speed: float,
        mem_pages: int = 32768,
        disk_bandwidth: float = 20e6,
        disk_seek: float = 0.008,
    ):
        self.sim = sim
        self.name = name
        self.cpu = CPU(sim, cpu_speed, name=f"{name}.cpu")
        self.memory = Memory(mem_pages)
        self.disk = Disk(sim, disk_bandwidth, disk_seek, name=f"{name}.disk")
        self.network = None  # set by Network.register
        self._mailboxes: Dict[str, Store] = {}
        #: Liveness flag consulted by the network's delivery gate.
        self.up = True
        #: While down: "queue" parks traffic for redelivery at restart
        #: (sender-side retransmission), "drop" loses it outright.
        self.down_mode = "queue"
        #: (crash_time, restore_time or None) history of outages.
        self.outages: list = []
        #: key -> callback invoked when the host comes back from a crash.
        #: Keys are sorted before invocation so post-restore re-arming
        #: (e.g. monitor-exchange heartbeats) happens in a deterministic
        #: order independent of registration / process creation order.
        self.restore_hooks: Dict[str, Callable[[], None]] = {}

    def mailbox(self, port: str) -> Store:
        """Get (or lazily create) the message queue for ``port``."""
        box = self._mailboxes.get(port)
        if box is None:
            box = Store(self.sim)
            self._mailboxes[port] = box
        return box

    def crash(self, mode: str = "queue", clear_mailboxes: bool = False) -> None:
        """Take the host down (fail-stop for message traffic).

        With ``clear_mailboxes`` the restart also loses every message already
        queued on the host — full fail-stop semantics.  The default keeps
        queued mail (durable-queue model), which lets request/reply protocols
        survive a crash window without application-level retries.
        """
        if mode not in ("queue", "drop"):
            raise ValueError(f"unknown crash mode {mode!r}")
        if not self.up:
            return
        self.up = False
        self.down_mode = mode
        self.outages.append((self.sim.now, None))
        if clear_mailboxes:
            for box in self._mailboxes.values():
                box.items.clear()

    def restore(self) -> None:
        """Bring the host back up; parked traffic is flushed by the network."""
        if self.up:
            return
        self.up = True
        if self.outages and self.outages[-1][1] is None:
            self.outages[-1] = (self.outages[-1][0], self.sim.now)
        for key in sorted(self.restore_hooks):
            self.restore_hooks[key]()
        if self.network is not None:
            self.network.flush_parked()

    def send(
        self,
        dst: str,
        port: str,
        payload,
        size: float,
        weight: float = 1.0,
        cap: Optional[float] = None,
        owner=None,
    ):
        """Send a message from this host; returns the delivery event."""
        if self.network is None:
            raise RuntimeError(f"host {self.name!r} is not attached to a network")
        return self.network.send(
            self.name, dst, port, payload, size, weight=weight, cap=cap, owner=owner
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name!r} cpu={self.cpu.speed}>"
