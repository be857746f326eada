"""The passive instruments of one run, attached and detached together.

The members are duck-typed, so this module imports neither the usage
accountant nor the kernel profiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["Instruments"]


@dataclass(frozen=True)
class Instruments:
    """An optional :class:`~repro.obs.TraceRecorder`,
    :class:`~repro.obs.UsageAccountant` and
    :class:`~repro.obs.KernelProfiler`; false when all three are None.

    None of them schedules events or draws randomness, so attaching any
    subset leaves a seeded run byte-identical.
    """

    recorder: Optional[Any] = None
    usage: Optional[Any] = None
    profiler: Optional[Any] = None

    def __bool__(self) -> bool:
        return not (
            self.recorder is None and self.usage is None and self.profiler is None
        )

    def attach(self, testbed, config) -> "Instruments":
        """Attach to ``testbed``'s simulator, accounting ``config`` as active."""
        sim = testbed.sim
        usage = self.usage
        if usage is not None:
            usage.attach(sim)
            usage.track_testbed(testbed)
            usage.set_config(config.label(), t=sim.now)
        if self.recorder is not None:
            self.recorder.bind(sim)
        if self.profiler is not None:
            self.profiler.attach(sim)
        return self

    def detach(self) -> None:
        """Finish and detach whatever :meth:`attach` installed."""
        if self.recorder is not None:
            self.recorder.finish()
            self.recorder.unbind()
        if self.usage is not None:
            self.usage.finish()
            self.usage.detach()
        if self.profiler is not None:
            self.profiler.detach()
