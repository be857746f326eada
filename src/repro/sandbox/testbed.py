"""The virtual testbed: a fresh controlled environment per measurement.

The paper populates its performance database by running each application
configuration "in a virtual execution environment for different levels of
allocated resources".  A :class:`Testbed` assembles exactly that: a
simulator, hosts, links, optional background daemons, and one sandbox per
application component with the requested resource limits.

Each profiling run uses a *fresh* testbed so measurements are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster import BackgroundLoad, Host, Network
from ..sim import Simulator, stream
from .limits import LimiterMode, ResourceLimits
from .sandbox import Sandbox

__all__ = ["HostSpec", "LinkSpec", "Testbed"]


@dataclass(frozen=True)
class HostSpec:
    """Static description of one host in the execution environment."""

    name: str
    cpu_speed: float
    mem_pages: int = 32768


@dataclass(frozen=True)
class LinkSpec:
    """Duplex link between two hosts."""

    a: str
    b: str
    bandwidth: float
    latency: float = 0.0


@dataclass
class DaemonSpec:
    """Background OS activity on a host (Fig. 3b's 100 %-share gap)."""

    host: str
    mean_interval: float = 0.25
    cpu_fraction: float = 0.02

    def burst_work(self, cpu_speed: float) -> float:
        return self.cpu_fraction * cpu_speed * self.mean_interval


class Testbed:
    """One controlled execution environment instance.

    :meth:`run` advances the simulator to a horizon and :meth:`shutdown`
    stops the daemons and sandbox controllers.  A measurement run uses
    :meth:`run_until_finished` instead: the testbed shuts down the instant
    its last application finishes, so background daemons stop drawing
    bursts on an idle host, and an application that misses the horizon
    raises instead of leaving its metrics unset.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(
        self,
        host_specs: List[HostSpec],
        link_specs: List[LinkSpec] = (),
        mode: str = LimiterMode.IDEAL,
        seed: int = 0,
        daemons: List[DaemonSpec] = (),
        tiebreak=None,
    ):
        self.mode = mode
        self.seed = seed
        # ``tiebreak`` (see repro.analysis.schedule) reorders same-instant
        # event ties for schedule exploration; None is byte-identical FIFO.
        self.sim = Simulator(tiebreak=tiebreak)
        self.network = Network(self.sim)
        self.hosts: Dict[str, Host] = {}
        #: Every sandbox created here, in creation order (names can repeat:
        #: co-located copies of one app share ``{app}.{host}``).
        self.sandboxes: List[Sandbox] = []
        self.daemons: List[BackgroundLoad] = []
        for spec in host_specs:
            host = Host(self.sim, spec.name, spec.cpu_speed, spec.mem_pages)
            self.network.register(host)
            self.hosts[spec.name] = host
        for link in link_specs:
            self.network.connect(link.a, link.b, link.bandwidth, link.latency)
        for i, dspec in enumerate(daemons):
            host = self.hosts[dspec.host]
            self.daemons.append(
                BackgroundLoad(
                    host,
                    rng=stream(seed, f"daemon.{dspec.host}.{i}"),
                    mean_interval=dspec.mean_interval,
                    burst_work=dspec.burst_work(host.cpu.speed),
                )
            )

    def sandbox(
        self,
        host_name: str,
        limits: ResourceLimits = ResourceLimits(),
        name: Optional[str] = None,
        **kwargs,
    ) -> Sandbox:
        """Create a sandbox on ``host_name`` with the given limits."""
        host = self.hosts[host_name]
        sb = Sandbox(
            host,
            limits=limits,
            mode=self.mode,
            name=name or f"{host_name}.sandbox",
            **kwargs,
        )
        self.sandboxes.append(sb)
        return sb

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_until_finished(self, runtimes: Sequence, until: float) -> None:
        """Run every ``AppRuntime`` in ``runtimes`` to completion, then stop.

        The last ``rt.finished`` to fire calls :meth:`shutdown` at that
        instant: daemons draw no more bursts and quantum controllers exit
        at their next tick, so the schedule drains within a few events and
        ``sim.now`` still ends at ``until``.  Raises ``RuntimeError`` if
        an application has not finished by ``until``.
        """
        left = len(runtimes)

        def one_finished(_event) -> None:
            nonlocal left
            left -= 1
            if left == 0:
                self.shutdown()

        for rt in runtimes:
            rt.finished.callbacks.append(one_finished)
        self.run(until=until)
        self.shutdown()
        for rt in runtimes:
            if not rt.finished.triggered:
                raise RuntimeError(
                    f"testbed run did not finish within {until}s: "
                    f"{rt.name} @ {rt.config.label()}"
                )

    def shutdown(self) -> None:
        """Stop the daemons and close the sandboxes; calling it again is a no-op."""
        for daemon in self.daemons:
            daemon.stop()
        for sb in self.sandboxes:
            sb.close()
