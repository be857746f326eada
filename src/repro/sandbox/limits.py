"""Resource-limit specifications for the virtual execution environment."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ResourceLimits", "LimiterMode"]


class LimiterMode:
    """How the sandbox enforces its CPU limit.

    - ``IDEAL``: fluid rate cap — the job never exceeds ``share * speed``
      at any instant (the limiting behaviour the paper's sandbox converges
      to on average).
    - ``QUANTUM``: the paper's actual mechanism — a controller wakes every
      few milliseconds, estimates progress, and manipulates the process
      priority (here: suspend/resume) to steer the *windowed average* share
      to the target.  Produces the measured sawtooth of Fig. 3(a).
    """

    IDEAL = "ideal"
    QUANTUM = "quantum"

    ALL = (IDEAL, QUANTUM)


@dataclass(frozen=True)
class ResourceLimits:
    """Per-process resource caps; ``None`` means unconstrained.

    cpu_share:
        Fraction of the host CPU (0, 1].
    mem_pages:
        Resident physical page limit.
    net_bw:
        Network bandwidth in bytes/second applied to this process's flows.
    disk_bw:
        Disk transfer bandwidth in bytes/second for this process's I/O.
    """

    cpu_share: Optional[float] = None
    mem_pages: Optional[int] = None
    net_bw: Optional[float] = None
    disk_bw: Optional[float] = None

    def __post_init__(self) -> None:
        if self.cpu_share is not None and not (0.0 < self.cpu_share <= 1.0):
            raise ValueError(f"cpu_share must be in (0, 1], got {self.cpu_share!r}")
        if self.mem_pages is not None and self.mem_pages <= 0:
            raise ValueError(f"mem_pages must be positive, got {self.mem_pages!r}")
        if self.net_bw is not None and self.net_bw <= 0:
            raise ValueError(f"net_bw must be positive, got {self.net_bw!r}")
        if self.disk_bw is not None and self.disk_bw <= 0:
            raise ValueError(f"disk_bw must be positive, got {self.disk_bw!r}")

    def with_(self, **changes) -> "ResourceLimits":
        """Functional update (used when the testbed varies one resource)."""
        return replace(self, **changes)
