"""Experiment harness: one module per paper figure, plus ablations."""

from .ablations import (
    hysteresis_ablation,
    isolation_ablation,
    limiter_mode_ablation,
    sampling_strategy_ablation,
    scheduler_interpolation_ablation,
)
from .chaos import DEFAULT_FAULT_SPEC, DEFAULT_VARIATIONS, run_chaos
from .common import FigureResult, Series, ascii_plot, render_table
from .crowd import crowd_cell, run_crowd, run_crowd_figure
from .extension_memory import memory_database, run_memory_adaptation
from .fig3 import run_fig3a, run_fig3b
from .fig4 import run_fig4a, run_fig4b
from .fig5 import fig5_database, run_fig5
from .fig6 import fig6a_database, fig6b_database, run_fig6a, run_fig6b
from .recovery import (
    CHEAP_CONFIG,
    DEFAULT_CROWD,
    DEFAULT_RECOVERY_FAULTS,
    run_recovery,
)
from .fig7 import (
    AdaptiveRun,
    run_experiment1,
    run_experiment2,
    run_experiment3,
)

__all__ = [
    "Series",
    "FigureResult",
    "render_table",
    "ascii_plot",
    "run_fig3a",
    "memory_database",
    "run_memory_adaptation",
    "run_fig3b",
    "run_fig4a",
    "run_fig4b",
    "run_fig5",
    "fig5_database",
    "run_fig6a",
    "run_fig6b",
    "fig6a_database",
    "fig6b_database",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "AdaptiveRun",
    "run_chaos",
    "DEFAULT_FAULT_SPEC",
    "DEFAULT_VARIATIONS",
    "run_recovery",
    "DEFAULT_RECOVERY_FAULTS",
    "DEFAULT_CROWD",
    "CHEAP_CONFIG",
    "run_crowd",
    "run_crowd_figure",
    "crowd_cell",
    "scheduler_interpolation_ablation",
    "sampling_strategy_ablation",
    "hysteresis_ablation",
    "limiter_mode_ablation",
    "isolation_ablation",
]
