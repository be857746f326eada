"""The tunable application object and its run-time instantiation."""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..sandbox import ResourceLimits, Sandbox, Testbed
from ..sim import Event, Simulator
from .environment import ExecutionEnv
from .metrics import QoSMetric, QoSRecorder
from .parameters import ConfigSpace, Configuration, TunabilityError
from .tasks import TaskGraph
from .transitions import ControlBox, TransitionSpec

__all__ = ["AppRuntime", "TunableApp"]


class AppRuntime:
    """Everything one running application instance needs.

    Handed to the application launcher; also the handle the run-time
    adaptation subsystem (monitoring/steering agents) attaches to.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        sandboxes: Dict[str, Sandbox],
        controls: ControlBox,
        qos: QoSRecorder,
        workload: Any = None,
        seed: int = 0,
    ):
        #: Name of the :class:`TunableApp` this instance runs.
        self.name = name
        self.sim = sim
        self.sandboxes = sandboxes
        self.controls = controls
        self.qos = qos
        self.workload = workload
        self.seed = seed
        #: Set by instantiate(): the event that fires when the app finishes.
        self.finished: Optional[Event] = None
        #: Optionally set by the launcher: name -> running Process, so
        #: supervision harnesses can adopt the application's processes.
        self.processes: Dict[str, Any] = {}
        #: Optionally set by the launcher: the built application model
        #: (e.g. the image pyramids), so a supervised restart can re-spawn
        #: a process against the same data.
        self.app_model: Any = None

    @property
    def config(self) -> Configuration:
        return self.controls.current

    def sandbox(self, host_name: str) -> Sandbox:
        try:
            return self.sandboxes[host_name]
        except KeyError:
            raise TunabilityError(
                f"no sandbox for host {host_name!r}; have {sorted(self.sandboxes)}"
            ) from None


class TunableApp:
    """A complete tunability specification plus an executable launcher.

    This is the post-preprocessor form of the paper's annotated program:
    control parameters (:class:`ConfigSpace`), execution environment,
    quality metrics, tunable modules (:class:`TaskGraph`), transitions, and
    the code itself (``launcher``).

    ``launcher(rt)`` must start the application's processes on ``rt.sim``
    and return an :class:`Event` that fires when the run completes.
    """

    def __init__(
        self,
        name: str,
        space: ConfigSpace,
        env: ExecutionEnv,
        metrics: Sequence[QoSMetric],
        tasks: TaskGraph,
        transitions: Sequence[TransitionSpec] = (),
        launcher: Optional[Callable[[AppRuntime], Event]] = None,
    ):
        self.name = name
        self.space = space
        self.env = env
        self.metrics: Tuple[QoSMetric, ...] = tuple(metrics)
        self.tasks = tasks
        self.transitions: Tuple[TransitionSpec, ...] = tuple(transitions)
        if launcher is None:
            raise TunabilityError(f"app {name!r} has no launcher")
        self.launcher = launcher
        # Cross-check task declarations against the other annotations.
        metric_names = {m.name for m in self.metrics}
        param_names = {p.name for p in space.parameters}
        resource_names = set(env.resource_names())
        for task in tasks.tasks.values():
            for p in task.params:
                if p not in param_names:
                    raise TunabilityError(
                        f"task {task.name!r} references unknown parameter {p!r}"
                    )
            for m in task.metrics:
                if m not in metric_names:
                    raise TunabilityError(
                        f"task {task.name!r} references unknown metric {m!r}"
                    )
            for r in task.resources:
                if r not in resource_names:
                    raise TunabilityError(
                        f"task {task.name!r} references unknown resource {r!r}"
                    )

    def configurations(self):
        return self.space.enumerate()

    def metric(self, name: str) -> QoSMetric:
        for m in self.metrics:
            if m.name == name:
                return m
        raise TunabilityError(f"unknown metric {name!r}")

    def instantiate(
        self,
        testbed: Testbed,
        config: Configuration,
        limits: Mapping[str, ResourceLimits] = (),
        workload: Any = None,
        seed: int = 0,
        sandbox_kwargs: Optional[Mapping[str, Any]] = None,
    ) -> AppRuntime:
        """Create sandboxes and start the application on ``testbed``.

        ``limits`` maps host names to their sandbox resource limits (hosts
        not mentioned run unconstrained).  ``sandbox_kwargs`` are forwarded
        to every sandbox (e.g. ``fault_cost`` for disk-backed paging).
        Returns the :class:`AppRuntime`; ``rt.finished`` fires when the run
        completes.
        """
        self.space.validate(config)
        limits = dict(limits) if limits else {}
        sandboxes: Dict[str, Sandbox] = {}
        for host_name in self.env.hosts:
            if host_name not in testbed.hosts:
                raise TunabilityError(
                    f"testbed lacks host {host_name!r} required by app {self.name!r}"
                )
            sandboxes[host_name] = testbed.sandbox(
                host_name,
                limits.get(host_name, ResourceLimits()),
                name=f"{self.name}.{host_name}",
                **dict(sandbox_kwargs or {}),
            )
        controls = ControlBox(config, self.transitions)
        qos = QoSRecorder(self.metrics)
        rt = AppRuntime(
            name=self.name,
            sim=testbed.sim,
            sandboxes=sandboxes,
            controls=controls,
            qos=qos,
            workload=workload,
            seed=seed,
        )
        rt.finished = self.launcher(rt)
        return rt
