"""Experiment harness: one module per paper figure, plus ablations.

Each run imports only its own module graph: the names below load from
their defining module on first access (PEP 562), so ``import
repro.experiments`` loads no figure, and a share sweep never loads the
adaptation runtime, the fault injector or the crowd model.
"""

from .._lazy import lazy_exports

#: defining module -> the names it exports through this package.
_HOMES = {
    ".ablations": (
        "hysteresis_ablation",
        "isolation_ablation",
        "limiter_mode_ablation",
        "sampling_strategy_ablation",
        "scheduler_interpolation_ablation",
    ),
    ".chaos": ("DEFAULT_FAULT_SPEC", "DEFAULT_VARIATIONS", "run_chaos"),
    ".common": ("FigureResult", "Series", "ascii_plot", "render_table"),
    ".crowd": ("crowd_cell", "run_crowd", "run_crowd_figure"),
    ".extension_memory": ("memory_database", "run_memory_adaptation"),
    ".fig3": ("run_fig3a", "run_fig3b"),
    ".fig4": ("run_fig4a", "run_fig4b"),
    ".fig5": ("fig5_database", "run_fig5"),
    ".fig6": ("fig6a_database", "fig6b_database", "run_fig6a", "run_fig6b"),
    ".fig7": (
        "AdaptiveRun",
        "run_experiment1",
        "run_experiment2",
        "run_experiment3",
    ),
    ".recovery": (
        "CHEAP_CONFIG",
        "DEFAULT_CROWD",
        "DEFAULT_RECOVERY_FAULTS",
        "run_recovery",
    ),
}

__getattr__ = lazy_exports(globals(), _HOMES)
__all__ = [name for names in _HOMES.values() for name in names]
