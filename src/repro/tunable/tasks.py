"""Tunable modules (the ``task`` construct) and the task DAG.

"The abstract model of a tunable application is that of a family of DAGs
built up from individual modules."  A :class:`TaskSpec` names one module
with the control parameters that affect it, the environment resources it
uses, the quality metrics it produces, and an optional guard over
configurations.  :class:`TaskGraph` holds inter-task control flow and
checks it is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .parameters import Configuration, TunabilityError

__all__ = ["TaskSpec", "TaskGraph"]


@dataclass(frozen=True)
class TaskSpec:
    """One tunable application module.

    Mirrors Fig. 2's ``task module[l][dR][c] [client.CPU, client.network]
    [QoS.transmit_time, ...]`` header.
    """

    name: str
    params: Tuple[str, ...] = ()
    resources: Tuple[str, ...] = ()
    metrics: Tuple[str, ...] = ()
    guard: Optional[Callable[[Configuration], bool]] = None

    def instance_name(self, config: Configuration) -> str:
        """The task handle with parameters evaluated as name-value pairs.

        "The control parameters in the task name are evaluated as name-value
        pairs when the task construct is instantiated at run time."
        """
        return self.name + "".join(f"[{p}={config[p]}]" for p in self.params)

    def enabled(self, config: Configuration) -> bool:
        """Does this task participate in the execution path of ``config``?"""
        return self.guard is None or self.guard(config)


class TaskGraph:
    """DAG of tasks (inter-task control flow)."""

    def __init__(self, tasks: Sequence[TaskSpec], edges: Sequence[Tuple[str, str]] = ()):
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise TunabilityError(f"duplicate task names: {names!r}")
        self.tasks: Dict[str, TaskSpec] = {t.name: t for t in tasks}
        sorter: TopologicalSorter = TopologicalSorter()
        for name in names:
            sorter.add(name)
        for a, b in edges:
            for node in (a, b):
                if node not in self.tasks:
                    raise TunabilityError(f"edge references unknown task {node!r}")
            sorter.add(b, a)
        try:
            #: Task names in topological order (ties in insertion order).
            self.order: Tuple[str, ...] = tuple(sorter.static_order())
        except CycleError as err:
            raise TunabilityError(f"task graph has a cycle: {err.args[1]!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.tasks

    def task(self, name: str) -> TaskSpec:
        try:
            return self.tasks[name]
        except KeyError:
            raise TunabilityError(f"unknown task {name!r}") from None

    def execution_path(self, config: Configuration) -> List[TaskSpec]:
        """Tasks enabled under ``config``, in topological order.

        This is "the family of DAGs": each configuration selects the
        subgraph of tasks whose guards accept it.
        """
        return [self.tasks[n] for n in self.order if self.tasks[n].enabled(config)]

    def resources_used(self, config: Configuration) -> List[str]:
        """Union of resources used along the execution path of ``config``.

        The monitoring agent uses this to decide *which* resources to watch
        for the active configuration.
        """
        seen: Dict[str, None] = {}
        for task in self.execution_path(config):
            for r in task.resources:
                seen.setdefault(r, None)
        return list(seen)
