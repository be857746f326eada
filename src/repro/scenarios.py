"""The scenario registry: one name -> builder table for every consumer.

Each entry maps a scenario name to a ``"module:callable"`` string and is
one of two kinds:

- a **Scene builder** (``build_<name>``) returns a constructed but unrun
  :class:`~repro.experiments.scene.Scene`, which a caller can step
  (``InteractiveContext``, ``repro dash``) or run whole (``Scene.run()``);
- a **sweep** (:data:`SWEEPS`) profiles many independent testbeds in one
  call and cannot be stepped.

Every entry accepts ``seed=`` and the passive ``recorder=``/``usage=``/
``profiler=`` instruments, which is all ``repro trace|metrics|usage|perf|
report|diff`` need; a builder holds them as one
:class:`~repro.obs.Instruments` value (``scene.instruments``) and attaches
them in any order relative to a race detector.  ``repro dash`` and ``InteractiveContext`` take the
Scene entries (:func:`scene_names`); ``repro check explore`` takes the
Scene entries whose builder also accepts ``tiebreak`` and
``detect_races``.

The table holds strings and this module imports only the standard
library, so importing it (``repro.obs`` re-exports it) loads no builder:
a builder is imported only when its name is resolved.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List

__all__ = [
    "SCENARIOS",
    "SWEEPS",
    "register_scenario",
    "resolve",
    "run_scenario",
    "scene_names",
]

#: Scenario name -> ``"module:callable"``.
SCENARIOS: Dict[str, str] = {
    "chaos": "repro.experiments.chaos:build_chaos",
    "crowd": "repro.experiments.crowd:build_crowd",
    "fig5": "repro.experiments.fig5:fig5_database",
    "fig5-cell": "repro.experiments.fig5:build_fig5_cell",
    "fig5sess": "repro.experiments.fig5:build_fig5_session",
    "fig6a": "repro.experiments.fig6:fig6a_database",
    "fig6b": "repro.experiments.fig6:fig6b_database",
    "fig7-exp1": "repro.experiments.fig7:build_fig7_exp1",
    "fig7-exp2": "repro.experiments.fig7:build_fig7_exp2",
    "fig7-exp3": "repro.experiments.fig7:build_fig7_exp3",
    "recovery": "repro.experiments.recovery:build_recovery",
}

#: The sweep entries of :data:`SCENARIOS`; every other entry is a Scene
#: builder.
SWEEPS = frozenset({"fig5", "fig6a", "fig6b"})


def register_scenario(name: str, builder: str) -> None:
    """Register a ``module:callable`` Scene builder under ``name``."""
    if ":" not in builder:
        raise ValueError(f"builder must be 'module:callable', got {builder!r}")
    SCENARIOS[name] = builder


def scene_names() -> List[str]:
    """The steppable (Scene builder) entries, sorted."""
    return sorted(set(SCENARIOS) - SWEEPS)


def resolve(name: str) -> Callable:
    """Import and return the callable registered under ``name``."""
    module_name, _, attr = SCENARIOS[name].partition(":")
    return getattr(importlib.import_module(module_name), attr)


def run_scenario(name: str, seed: int = 0, **kwargs: Any) -> Any:
    """Run entry ``name`` whole; ``kwargs`` go to its callable.

    A Scene entry returns its ``(figure, payload)``; a sweep returns
    whatever its callable does.
    """
    result = resolve(name)(seed=seed, **kwargs)
    return result if name in SWEEPS else result.run()
