"""Build/finalize split for steppable experiment scenarios.

The experiment modules historically constructed, ran, and summarized a
scenario in one monolithic function.  The interactive context
(:mod:`repro.obs.interactive`) needs to *pause* between those stages —
construct everything, hand the simulator to the user for ``step()`` /
``run_until()`` driving, then produce the exact same payload at the end.

A :class:`Scene` is the contract between the two: ``build_<name>()``
performs every construction statement in a fixed order (this is
byte-identity-gated by the chaos/recovery/crowd benchmarks), and stores
a ``finalize`` closure holding everything that follows
``testbed.run(...)``.  Every adaptive visualization session builds
through one skeleton, :func:`~repro.experiments.common.build_adaptive_viz`.  ``run_<name>()`` is then
``build_<name>(...).run()``, derived by :func:`scene_runner`, so the
monolithic entry points stay bit-for-bit compatible while the
interactive context can drive the middle leg one event at a time.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import Instruments

__all__ = ["Scene", "scene_runner"]


class Scene:
    """A constructed-but-not-yet-run experiment scenario.

    Attributes are discovery points for inspectors; any of them may be
    ``None`` when the scenario does not use that subsystem.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        until: float,
        testbed,
        finalize: Callable[[], Tuple[Any, Dict]],
        rt=None,
        controller=None,
        config=None,
        workload=None,
        injector=None,
        supervisor=None,
        guard=None,
        brownout=None,
        client_exchange=None,
        server_exchange=None,
        crowd=None,
        instruments: Instruments = Instruments(),
    ):
        self.name = name
        self.seed = seed
        #: Default run horizon; ``finalize`` assumes the sim has reached a
        #: state equivalent to ``testbed.run(until=self.until)``.
        self.until = until
        self.testbed = testbed
        self.rt = rt
        self.controller = controller
        #: The configuration the app starts in.
        self.config = config
        self.workload = workload
        self.injector = injector
        self.supervisor = supervisor
        self.guard = guard
        self.brownout = brownout
        self.client_exchange = client_exchange
        self.server_exchange = server_exchange
        self.crowd = crowd
        #: The run's recorder, usage accountant and kernel profiler.
        self.instruments = instruments
        self._finalize = finalize
        self.result: Optional[Tuple[Any, Dict]] = None

    @property
    def sim(self):
        return self.testbed.sim

    @property
    def finalized(self) -> bool:
        return self.result is not None

    def finalize(self) -> Tuple[Any, Dict]:
        """Tear down and summarize; idempotent (the payload is cached)."""
        if self.result is None:
            self.result = self._finalize()
        return self.result

    def run(self) -> Tuple[Any, Dict]:
        """Run the sim to ``until``, then :meth:`finalize`."""
        self.testbed.run(until=self.until)
        return self.finalize()


def scene_runner(build: Callable[..., Scene]) -> Callable[..., Tuple[Any, Dict]]:
    """Derive ``run_<name>`` from ``build_<name>``: same parameters, run whole."""

    @functools.wraps(build)
    def run(*args, **kwargs):
        return build(*args, **kwargs).run()

    run.__name__ = run.__qualname__ = build.__name__.replace("build_", "run_", 1)
    run.__doc__ = (
        f"``{build.__name__}(...).run()``: build the scenario, run it to its "
        "horizon and finalize; returns ``(figure, payload)``."
    )
    run.__signature__ = inspect.signature(build).replace(
        return_annotation="Tuple[FigureResult, Dict]"
    )
    return run
