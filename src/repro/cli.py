"""Command-line interface: regenerate any paper figure or ablation.

Usage::

    python -m repro.cli list
    python -m repro.cli fig3a fig6a
    python -m repro.cli all --out results/
    python -m repro.cli exp1          # alias for fig7a
    python -m repro.cli all --jobs 4  # parallel cells + result cache
    python -m repro.cli lint --json   # determinism/sim-protocol linter
    python -m repro.cli check explore chaos  # schedule-invariance check
    python -m repro.cli check flow    # interprocedural dataflow linter
    python -m repro.cli trace chaos   # traced run: spans + causal chains
    python -m repro.cli metrics chaos # traced run: metrics snapshot
    python -m repro.cli usage chaos   # usage account: who consumed what
    python -m repro.cli diff chaos chaos --seed-b 1  # first divergence
    python -m repro.cli report chaos --out report.html  # HTML report
    python -m repro.cli perf chaos --flame  # kernel flamegraph (folded)
    python -m repro.cli dash fig5-sweep chaos recovery  # fleet dashboard
    python -m repro.cli bench check   # compare benchmarks vs baselines
    python -m repro.cli sweep toy --jobs 4   # standalone sweep engine run
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List

from . import experiments

__all__ = ["main", "TARGETS"]


def _figs(export: str, *names: str):
    """Adapter: normalize every runner to name -> list[FigureResult|dict]."""

    def run(seed: int) -> List:
        result = getattr(experiments, export)(seed=seed)
        if isinstance(result, tuple):
            return [
                r for r in result if isinstance(r, experiments.FigureResult)
            ] or [result]
        return [result]

    return names, run


def _table(export: str, name: str):
    def run(seed: int) -> List:
        return [(name, getattr(experiments, export)(seed=seed))]

    return (name,), run


#: target name -> runner(seed) (aliases share one runner).  Runners are
#: named by their ``repro.experiments`` export, which loads its figure
#: module only when the target runs, so ``repro list``, ``repro lint``
#: and ``repro check`` load no experiment.
TARGETS: Dict[str, Callable] = {}
#: Canonical (deduplicated) target list for `all`: each entry's first name.
CANONICAL: List[str] = []
for names, runner in (
    _figs("run_fig3a", "fig3a"),
    _figs("run_fig3b", "fig3b"),
    _figs("run_fig4a", "fig4a"),
    _figs("run_fig4b", "fig4b"),
    _figs("run_fig5", "fig5", "fig5a", "fig5b"),
    _figs("run_fig6a", "fig6a"),
    _figs("run_fig6b", "fig6b"),
    _figs("run_experiment1", "fig7a", "exp1"),
    _figs("run_experiment2", "fig7b", "exp2"),
    _figs("run_experiment3", "fig7cd", "exp3", "fig7c", "fig7d"),
    _figs("run_chaos", "chaos"),
    _figs("run_recovery", "recovery"),
    _figs("run_crowd_figure", "crowd"),
    _table("scheduler_interpolation_ablation", "ablation-a1"),
    _table("sampling_strategy_ablation", "ablation-a2"),
    _table("hysteresis_ablation", "ablation-a3"),
    _table("limiter_mode_ablation", "ablation-a4"),
    _table("isolation_ablation", "ablation-a5"),
):
    CANONICAL.append(names[0])
    for name in names:
        TARGETS[name] = runner


def _emit(item, out_dir: Path = None, plot: bool = True) -> None:
    if isinstance(item, experiments.FigureResult):
        text = item.render(plot=plot)
        print(text)
        if out_dir is not None:
            stem = item.figure.lower().replace(" ", "")
            (out_dir / f"{stem}.txt").write_text(text + "\n")
            payload = {
                "figure": item.figure,
                "title": item.title,
                "series": {k: s.points for k, s in item.series.items()},
                "notes": item.notes,
            }
            (out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=1))
    else:
        name, data = item
        print(f"== {name} ==")
        for k, v in data.items():
            print(f"  {k}: {v:.6g}" if isinstance(v, float) else f"  {k}: {v}")
        if out_dir is not None:
            (out_dir / f"{name}.json").write_text(json.dumps(data, indent=1))


def main(argv: List[str] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``repro trace chaos --json |
        # head``): stop quietly.  Point stdout at devnull so the flush at
        # interpreter exit does not raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code


def _main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        # The analysis CLI owns its own argument grammar and exit codes.
        from .analysis.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "check":
        # Schedule exploration + dataflow linting (repro check ...).
        from .analysis.check_cli import check_main

        return check_main(argv[1:])
    if argv and argv[0] in (
        "trace", "metrics", "usage", "diff", "report", "perf", "dash"
    ):
        # Likewise the observability CLI.
        from .obs.cli import obs_main

        return obs_main(argv)
    if argv and argv[0] == "bench":
        # Benchmark baseline comparison (repro bench check).
        from .analysis.bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "sweep":
        # Standalone sweep-engine runs (repro.exec).
        from .exec.cli import sweep_main

        return sweep_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from Chang & Karamcheti (HPDC 2000).",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="figure names (fig3a..fig7cd, exp1..exp3, chaos, recovery, crowd, "
        "ablation-a1..a5), 'lint', 'check', 'trace', 'metrics', 'usage', "
        "'diff', 'report', 'perf', 'dash', 'bench', 'sweep', 'list', or 'all'",
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--out", type=Path, default=None, help="artifact directory")
    parser.add_argument(
        "--no-plot", action="store_true", help="tables only, no ASCII plots"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run experiment cells through the sweep engine with N worker "
        "processes (output is byte-identical to the serial run)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persistent result-cache directory (default .repro_cache; "
        "implies the sweep engine)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --jobs: run cells without the persistent result cache",
    )
    args = parser.parse_args(argv)

    if args.targets == ["list"]:
        for name in CANONICAL:
            print(name)
        return 0

    targets = CANONICAL if args.targets == ["all"] else args.targets
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(
            f"unknown target(s) {unknown}; run 'python -m repro.cli list'"
        )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    # Install a process-wide sweep engine only when explicitly requested,
    # so plain invocations neither spawn workers nor touch the cache dir.
    engine = None
    previous_engine = None
    if args.jobs is not None or args.cache_dir is not None:
        from .exec import ResultStore, SweepEngine, set_default_engine

        store = None
        if not args.no_cache:
            store = ResultStore(args.cache_dir or Path(".repro_cache"))
        engine = SweepEngine(jobs=args.jobs or 1, store=store)
        previous_engine = set_default_engine(engine)

    try:
        seen = set()
        for target in targets:
            runner = TARGETS[target]
            if id(runner) in seen:
                continue
            seen.add(id(runner))
            for item in runner(args.seed):
                _emit(item, out_dir=args.out, plot=not args.no_plot)
    finally:
        if engine is not None:
            from .exec import set_default_engine

            set_default_engine(previous_engine)
    if engine is not None:
        m = engine.metrics
        print(
            "sweep engine: "
            f"{m.counter('exec.jobs.run').value:g} run, "
            f"{m.counter('exec.jobs.cached').value:g} cached, "
            f"{m.counter('exec.jobs.retried').value:g} retried, "
            f"{m.counter('exec.wall.saved').value:.2f}s saved "
            f"({engine.jobs} workers)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
