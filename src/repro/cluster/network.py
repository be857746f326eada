"""Host-to-host message passing over explicit links.

The :class:`Network` keeps a directed link table between named hosts and
delivers :class:`Message` objects into per-port mailboxes on the destination
host.  Transfers contend for link bandwidth fluidly; a per-message ``cap``
implements sandbox bandwidth limits on individual flows.

Fault semantics (driven by :mod:`repro.faults`): every message passes a
*delivery gate* when its last byte arrives.  A down destination host or down
link either parks the message for redelivery at restore time (``"queue"``,
a transient partition with sender backpressure) or loses it (``"drop"``).
An installed fault controller (:attr:`Network.faults`) can additionally
drop, delay, or duplicate individual messages.  A message sent *by* a down
host is lost immediately — the sending process is notionally dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim import Event, Simulator
from .link import Link

__all__ = ["Message", "Network", "NetworkError", "DeliveryVerdict"]


class NetworkError(Exception):
    """Raised on routing/registration problems."""


_msg_ids = count(1)


@dataclass
class Message:
    """One network message.

    ``size`` is the wire size in bytes; ``payload`` is arbitrary and costs
    nothing by itself.  Timing fields are filled in by the network.
    """

    src: str
    dst: str
    port: str
    payload: Any
    size: float
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    send_time: float = 0.0
    deliver_time: float = 0.0


@dataclass
class DeliveryVerdict:
    """What the delivery gate decided for one arriving message."""

    action: str = "deliver"  # "deliver" | "drop" | "park"
    extra_delay: float = 0.0
    copies: int = 1


_DELIVER = DeliveryVerdict()


class Network:
    """Topology of hosts and directed links with message delivery."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.hosts: Dict[str, "Host"] = {}  # noqa: F821 - forward ref
        self._links: Dict[Tuple[str, str], Link] = {}
        self.messages_delivered = 0
        #: Optional fault controller with a ``gate(msg) -> DeliveryVerdict``
        #: method (see :class:`repro.faults.FaultInjector`).
        self.faults = None
        #: Messages parked by a "queue"-mode outage, awaiting redelivery.
        self._parked: List[Tuple[Message, Event]] = []
        self.messages_lost = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0
        self.messages_parked_total = 0

    # -- topology -----------------------------------------------------------
    def register(self, host) -> None:
        if host.name in self.hosts:
            raise NetworkError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        host.network = self

    def connect(
        self,
        a: str,
        b: str,
        bandwidth: float,
        latency: float = 0.0,
    ) -> Tuple[Link, Link]:
        """Create a duplex link between registered hosts ``a`` and ``b``."""
        for name in (a, b):
            if name not in self.hosts:
                raise NetworkError(f"unknown host {name!r}")
        fwd = Link(self.sim, bandwidth, latency, name=f"{a}->{b}")
        rev = Link(self.sim, bandwidth, latency, name=f"{b}->{a}")
        self._links[(a, b)] = fwd
        self._links[(b, a)] = rev
        return fwd, rev

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise NetworkError(f"no link {src!r} -> {dst!r}") from None

    def links(self) -> List[Link]:
        """Every directed link, in deterministic (src, dst) order."""
        return [self._links[key] for key in sorted(self._links)]

    # -- messaging ------------------------------------------------------------
    def send(
        self,
        src: str,
        dst: str,
        port: str,
        payload: Any,
        size: float,
        weight: float = 1.0,
        cap: Optional[float] = None,
        owner: Optional[object] = None,
    ) -> Event:
        """Transmit a message; returns an event firing at delivery.

        The event's value is the delivered :class:`Message`.  Delivery also
        enqueues the message into the destination host's mailbox for ``port``.
        """
        link = self.link(src, dst)
        msg = Message(src=src, dst=dst, port=port, payload=payload, size=size)
        msg.send_time = self.sim.now
        done = Event(self.sim)
        if not self.hosts[src].up:
            # The sending process belongs to a crashed host: the message
            # vanishes, but the (zombie) sender is unblocked immediately.
            self.messages_lost += 1
            done.succeed(msg)
            return done
        _job, arrived = link.transfer(size, weight=weight, cap=cap, owner=owner)

        def on_arrival(event: Event) -> None:
            if not event._ok:
                done.defused = True
                done.fail(event._value)
                return
            self._arrive(msg, done)

        if arrived.callbacks is not None:
            arrived.callbacks.append(on_arrival)
        else:  # pragma: no cover - zero-size, zero-latency fast path
            on_arrival(arrived)
        return done

    # -- delivery gate ---------------------------------------------------------
    def _gate(self, msg: Message, use_faults: bool = True) -> DeliveryVerdict:
        """Decide the fate of a message whose last byte just arrived."""
        dst_host = self.hosts[msg.dst]
        if not dst_host.up:
            return DeliveryVerdict(
                "park" if dst_host.down_mode == "queue" else "drop"
            )
        link = self._links.get((msg.src, msg.dst))
        if link is not None and not link.up:
            return DeliveryVerdict(
                "park" if link.down_mode == "queue" else "drop"
            )
        if use_faults and self.faults is not None:
            return self.faults.gate(msg)
        return _DELIVER

    def _arrive(self, msg: Message, done: Event, use_faults: bool = True) -> None:
        verdict = self._gate(msg, use_faults=use_faults)
        if verdict.action == "drop":
            self.messages_lost += 1
            msg.deliver_time = self.sim.now
            done.succeed(msg)
            return
        if verdict.action == "park":
            self.messages_parked_total += 1
            self._parked.append((msg, done))
            return
        if verdict.extra_delay > 0:
            self.messages_delayed += 1
            self.sim.schedule_callback(
                verdict.extra_delay,
                lambda: self._deliver(msg, done, copies=verdict.copies),
            )
            return
        self._deliver(msg, done, copies=verdict.copies)

    def _deliver(self, msg: Message, done: Event, copies: int = 1) -> None:
        msg.deliver_time = self.sim.now
        dst_host = self.hosts[msg.dst]
        for _ in range(max(1, copies)):
            self.messages_delivered += 1
            dst_host.mailbox(msg.port).post(msg)
        if copies > 1:
            self.messages_duplicated += copies - 1
        done.succeed(msg)

    def flush_parked(self) -> None:
        """Re-gate every parked message; deliver those no longer blocked.

        Random per-message faults are not re-rolled on flush — a parked
        message already 'arrived' once; only host/link liveness is checked.
        """
        parked, self._parked = self._parked, []
        for msg, done in parked:
            self._arrive(msg, done, use_faults=False)

    # -- fault control surface ---------------------------------------------------
    def fail_host(self, name: str, mode: str = "queue",
                  clear_mailboxes: bool = False) -> None:
        self.hosts[name].crash(mode=mode, clear_mailboxes=clear_mailboxes)

    def restore_host(self, name: str) -> None:
        self.hosts[name].restore()

    def fail_link(self, a: str, b: str, mode: str = "queue",
                  both: bool = True) -> None:
        """Take the a->b link down (and b->a with ``both``)."""
        self.link(a, b).fail(mode)
        if both and (b, a) in self._links:
            self.link(b, a).fail(mode)

    def restore_link(self, a: str, b: str, both: bool = True) -> None:
        self.link(a, b).restore()
        if both and (b, a) in self._links:
            self.link(b, a).restore()
        self.flush_parked()

    def partition(self, group_a: Iterable[str], group_b: Iterable[str],
                  mode: str = "queue") -> None:
        """Fail every link crossing the two host groups (both directions)."""
        for a in group_a:
            for b in group_b:
                for key in ((a, b), (b, a)):
                    link = self._links.get(key)
                    if link is not None:
                        link.fail(mode)

    def heal_partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        for a in group_a:
            for b in group_b:
                for key in ((a, b), (b, a)):
                    link = self._links.get(key)
                    if link is not None:
                        link.restore()
        self.flush_parked()
