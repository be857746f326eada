"""Observability CLI: trace, metrics, usage, diff, and report.

Runs a traced experiment and renders what the recorder captured::

    python -m repro.cli trace chaos              # human-readable timeline
    python -m repro.cli trace chaos --json       # JSONL span records
    python -m repro.cli trace chaos --chrome     # chrome://tracing JSON
    python -m repro.cli metrics fig6a            # metrics table
    python -m repro.cli metrics chaos --json     # metrics snapshot JSON
    python -m repro.cli metrics chaos --format csv   # deterministic CSV
    python -m repro.cli usage chaos              # where the resources went
    python -m repro.cli diff chaos chaos --seed-b 1  # first divergence
    python -m repro.cli diff a.jsonl b.jsonl     # diff two trace exports
    python -m repro.cli report chaos --out report.html
    python -m repro.cli report chaos --compare chaos --seed-b 1
    python -m repro.cli perf chaos              # kernel cost buckets
    python -m repro.cli perf chaos --flame      # collapsed-stack folded
    python -m repro.cli perf fig5 --json        # full profile summary
    python -m repro.cli dash fig5-sweep chaos recovery --out fleet.html

The experiments are the entries of :data:`repro.scenarios.SCENARIOS`;
``dash`` runs its Scene entries.  Everything printed is a pure function
of ``(experiment, seed)``: traced runs are byte-identical to untraced
ones, and the trace itself is deterministic (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..scenarios import SCENARIOS, SWEEPS, run_scenario, scene_names
from .diff import diff_metrics, diff_traces, format_key
from .export import from_jsonl, ordered, summary, to_chrome, to_jsonl
from .instruments import Instruments
from .query import adaptation_chains, dwell_times
from .record import TraceRecorder
from .usage import UsageAccountant

__all__ = ["obs_main"]


def _record_line(record) -> str:
    if record.kind == "span" and record.t1 is not None:
        when = f"{record.t0:10.4f} +{record.duration:<8.4f}"
    else:
        when = f"{record.t0:10.4f}  {'':8s}"
    parent = f" <-#{record.parent}" if record.parent is not None else ""
    attrs = ""
    if record.attrs:
        attrs = " " + " ".join(
            f"{k}={v}" for k, v in sorted(record.attrs.items())
        )
    proc = f" [{record.proc}]" if record.proc else ""
    return f"{when} #{record.sid}{parent} {record.cat}/{record.name}{proc}{attrs}"


def _render_timeline(recorder: TraceRecorder, limit: Optional[int]) -> str:
    lines = []
    records = ordered(recorder.records)
    shown = records if limit is None else records[:limit]
    lines.append(f"== trace: {len(records)} records ==")
    for record in shown:
        lines.append(_record_line(record))
    if limit is not None and len(records) > limit:
        lines.append(f"... {len(records) - limit} more (use --limit 0 for all)")
    chains = adaptation_chains(recorder.records)
    lines.append(f"== adaptation chains: {len(chains)} ==")
    for chain_records in chains:
        steps = " -> ".join(
            f"{r.name}@{r.t0:.3f}" for r in chain_records if r.cat != "sim"
        )
        lines.append(f"  {steps}")
    dwell = dwell_times(recorder.records)
    if dwell:
        lines.append("== configuration dwell times ==")
        for label, total in dwell.items():
            lines.append(f"  {label}: {total:.3f}s")
    return "\n".join(lines)


def _render_metrics(recorder: TraceRecorder) -> str:
    lines = [f"== metrics: {len(recorder.metrics)} ==\n"]
    for name, payload in recorder.metrics.snapshot().items():
        kind = payload["kind"]
        if kind == "counter":
            lines.append(f"  {name:36s} counter   {payload['value']:g}")
        elif kind == "gauge":
            lines.append(
                f"  {name:36s} gauge     {payload['value']} "
                f"({payload['updates']} updates)"
            )
        elif kind == "histogram":
            lines.append(
                f"  {name:36s} histogram n={payload['count']} "
                f"mean={payload['mean']} min={payload['min']} "
                f"max={payload['max']}"
            )
            edges = payload["edges"]
            labels = [f"<={e:g}" for e in edges] + [f">{edges[-1]:g}"]
            buckets = " ".join(
                f"{label}:{count}"
                for label, count in zip(labels, payload["counts"])
            )
            lines.append(f"  {'':36s}           {buckets}")
        else:
            lines.append(
                f"  {name:36s} series    {len(payload['samples'])} samples"
            )
    return "\n".join(lines)


def _metrics_csv(snapshot: dict) -> str:
    """Long-format CSV with a fixed, deterministic column and row order.

    Columns are always ``name,kind,field,t,value``; rows are ordered by
    metric name (sorted), then by a fixed per-kind field order, then by
    sample index — so two identical snapshots produce identical bytes.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "kind", "field", "t", "value"])
    for name in sorted(snapshot):
        payload = snapshot[name]
        kind = payload["kind"]
        if kind == "counter":
            writer.writerow([name, kind, "value", "", payload["value"]])
        elif kind == "gauge":
            writer.writerow([name, kind, "value", "", payload["value"]])
            writer.writerow([name, kind, "updates", "", payload["updates"]])
        elif kind == "histogram":
            for field in ("count", "total", "min", "max", "mean"):
                writer.writerow([name, kind, field, "", payload[field]])
            edges = payload["edges"]
            labels = [f"le_{e:g}" for e in edges] + ["overflow"]
            for label, count in zip(labels, payload["counts"]):
                writer.writerow([name, kind, label, "", count])
        else:  # series
            for t, value in payload["samples"]:
                writer.writerow([name, kind, "sample", repr(t), value])
    return buf.getvalue().rstrip("\n")


def _render_usage(usage: UsageAccountant) -> str:
    s = usage.summary()
    lines = [
        f"== usage account: {len(s['resources'])} resources, "
        f"{len(s['memory'])} memories, {s['elapsed']:.3f}s =="
    ]
    for name, res in s["resources"].items():
        lines.append(
            f"  {name:24s} {res['kind']:5s} util={100 * res['utilization']:6.2f}%  "
            f"served={res['served']:.6g}  capacity={res['capacity']:.6g}"
        )
        for owner, amount in res["by_owner"].items():
            lines.append(f"    {'by process':22s} {owner}: {amount:.6g}")
        for config, amount in res["by_config"].items():
            lines.append(f"    {'by configuration':22s} {config}: {amount:.6g}")
    for name, mem in s["memory"].items():
        lines.append(
            f"  {name:24s} mem   faults={mem['faults']}  "
            f"peak_resident={mem['peak_resident_pages']}/{mem['total_pages']}"
        )
        for config, faults in mem["faults_by_config"].items():
            lines.append(f"    {'faults by config':22s} {config}: {faults}")
    if s["config_marks"]:
        lines.append("  -- configuration attribution marks --")
        for t, label in s["config_marks"]:
            lines.append(f"    t={t:10.4f}  {label}")
    return "\n".join(lines)


def _render_perf(profiler, experiment: str, seed: int) -> str:
    s = profiler.summary()
    sim, wall = s["sim"], s["wall"]
    lines = [
        f"== kernel profile: {experiment} (seed {seed}) ==",
        f"  steps={sim['steps']}  pushes={sim['pushes']}  "
        f"max_heap={sim['max_heap']}",
        f"  sampling: {sim['sampling']['mode']} "
        f"({sim['sampling']['sampled_steps']}/{sim['steps']} steps observed)",
        "  event mix: " + "  ".join(
            f"{kind}:{n}" for kind, n in sim["event_mix"].items()
        ),
        f"  tie windows: {sim['ties']['windows']} "
        f"({sim['ties']['tied_events']} tied events, "
        f"max window {sim['ties']['max_window']})",
    ]
    fluid = sim["fluid"]
    if fluid["shares"]:
        lines.append(
            f"  fluid: {fluid['updates']} updates, "
            f"{fluid['reschedules']} reschedules, "
            f"fan-out sum {fluid['fanout_sum']} "
            f"(max {fluid['fanout_max']} flows/reschedule)"
        )
        for name, entry in fluid["shares"].items():
            mutations = "  ".join(
                f"{kind}:{entry[kind]}"
                for kind in ("submit", "cancel", "set_speed", "set_weight", "set_cap")
                if entry[kind]
            )
            lines.append(f"    {name}: {mutations or 'no mutations'}")
    lines.append(
        f"  wall: {wall['total_s']:.4f}s attributed over "
        f"{len(wall['buckets'])} buckets "
        f"(coverage {100 * wall['coverage']:.1f}%)"
    )
    ranked = sorted(
        wall["buckets"].items(), key=lambda kv: (-kv[1]["seconds"], kv[0])
    )
    for name, bucket in ranked[:20]:
        lines.append(
            f"    {100 * bucket['share']:5.1f}%  {bucket['seconds']:9.6f}s  "
            f"x{bucket['count']:<7d} {name}"
        )
    if len(ranked) > 20:
        lines.append(f"    ... {len(ranked) - 20} more buckets (use --json)")
    return "\n".join(lines)


def _render_diff(result, metrics_delta: Optional[dict]) -> str:
    lines = []
    if result.identical and (metrics_delta is None or metrics_delta["identical"]):
        lines.append(
            f"== traces are structurally identical "
            f"({result.matched} spans matched) =="
        )
    else:
        lines.append(
            f"== {result.divergences} divergence(s): "
            f"{result.matched} matched, {len(result.changed)} changed, "
            f"{len(result.only_a)} only-in-A, {len(result.only_b)} only-in-B =="
        )
    divergence = result.first_divergence
    if divergence is not None:
        lines.append(
            f"first divergence ({divergence.kind}, side {divergence.side}) "
            f"at t={divergence.record.t0:.4f}:"
        )
        lines.append(f"  key: {format_key(divergence.key)}")
        lines.append("  causal chain (root first):")
        for record in divergence.causal_chain:
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(record.attrs.items())
            )
            lines.append(f"    {record.name}@{record.t0:.4f} {attrs}".rstrip())
        if divergence.other is not None:
            lines.append(
                f"  counterpart in B: {divergence.other.name}"
                f"@{divergence.other.t0:.4f}"
            )
    if metrics_delta is not None and not metrics_delta["identical"]:
        lines.append(
            f"metric deltas: {len(metrics_delta['changed'])} changed, "
            f"{len(metrics_delta['only_a'])} only-in-A, "
            f"{len(metrics_delta['only_b'])} only-in-B"
        )
        for name, entry in metrics_delta["changed"].items():
            if "delta" in entry and entry["delta"] is not None:
                lines.append(
                    f"  {name}: {entry['a']} -> {entry['b']} "
                    f"(delta {entry['delta']:+g})"
                )
            else:
                lines.append(f"  {name}: changed ({entry['kind']})")
    return "\n".join(lines)


def _write_or_print(text: str, out: Optional[Path]) -> None:
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + ("" if text.endswith("\n") else "\n"))
        print(f"wrote {out}")
    else:
        print(text)


def _traced_cell(
    experiment: str, seed: int, with_usage: bool = True, profiler=None,
    group: Optional[str] = None,
) -> dict:
    """Run one experiment traced (and optionally usage-accounted), as a cell."""
    from .dash import dashboard_cell_from_run

    recorder = TraceRecorder()
    usage = None
    if with_usage:
        # Share the recorder's registry so usage.* series appear in the
        # metrics snapshot (and therefore in pages and CSV exports).
        usage = UsageAccountant(metrics=recorder.metrics)
    result = run_scenario(
        experiment, seed, recorder=recorder, usage=usage, profiler=profiler
    )
    return dashboard_cell_from_run(
        f"{experiment}@seed={seed}",
        Instruments(recorder, usage, profiler),
        payload=None if experiment in SWEEPS else result[1],
        group=group,
        seed=seed,
    )


def _load_side(
    source: str, seed: int, with_usage: bool = False, group: Optional[str] = None
) -> dict:
    """A diff or comparison operand as a cell: a trace .jsonl, or a run."""
    path = Path(source)
    if source.endswith(".jsonl") or path.is_file():
        from .dash import dashboard_cell

        return dashboard_cell(
            source, group=group, records=from_jsonl(path.read_text())
        )
    if source not in SCENARIOS:
        raise SystemExit(
            f"repro diff: {source!r} is neither a trace .jsonl file nor an "
            f"experiment ({', '.join(sorted(SCENARIOS))})"
        )
    return _traced_cell(source, seed, with_usage, group=group)


#: The built-in ``fig5-sweep`` source: a 2x2 (cpu share x fovea size)
#: grid of Experiment-3 profiling cells run through the exec engine.
_FIG5_SWEEP_SHARES = (0.4, 0.9)
_FIG5_SWEEP_FOVEAS = (80, 160)


def _fig5_sweep_cells(seed: int, cache: Path, jobs: int) -> List[dict]:
    """The 2x2 fig5 sweep as result-store cells (cache-backed, parallel)."""
    from ..exec import AppSpec, JobSpec, ResultStore, SweepEngine
    from ..exec.profile_jobs import app_spec_payload
    from ..experiments.fig6 import EXP3_BW
    from .dash import dashboard_cell

    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig6:viz_workload",
        workload_kwargs={"exp": 3, "n_images": 2},
    )
    labels, specs = [], []
    for share in _FIG5_SWEEP_SHARES:
        for fovea in _FIG5_SWEEP_FOVEAS:
            payload = app_spec_payload(
                app_spec,
                config={"dR": fovea, "c": "lzw", "l": 4},
                point={"client.cpu": share, "client.network": EXP3_BW},
                mode="ideal",
                max_run_time=3600.0,
            )
            payload["with_usage"] = True
            labels.append(f"fig5 dR={fovea} cpu={share:g} seed={seed}")
            specs.append(
                JobSpec(
                    kind="repro.exec.profile_jobs:measure_cell",
                    payload=payload, seed=seed,
                    key=f"cpu={share:g}/dR={fovea}",
                )
            )
    engine = SweepEngine(jobs=jobs, store=ResultStore(cache))
    report = engine.run(specs)
    return [
        dashboard_cell(
            label, group="fig5-sweep",
            payload=report.value(spec.key),
            usage=next(
                (r.usage for r in report.outcomes if r.key == spec.key), None
            ),
            seed=seed,
        )
        for label, spec in zip(labels, specs)
    ]


def _dash_main(argv: List[str]) -> int:
    """Entry point for ``repro dash <sources...>`` (multi-run dashboard)."""
    from .dash import load_store_cells, render_dashboard

    parser = argparse.ArgumentParser(
        prog="repro dash",
        description="Aggregate N runs/cells into one fleet-dashboard HTML page.",
    )
    parser.add_argument(
        "sources", nargs="+",
        help="traced experiments (%s), 'fig5-sweep' (2x2 grid via the exec "
        "engine), or repro.exec result-store directories"
        % ", ".join(scene_names()),
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for every run")
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the fig5-sweep source",
    )
    parser.add_argument(
        "--cache", type=Path, default=Path(".repro_cache/dash"),
        help="result-store directory backing the fig5-sweep source",
    )
    parser.add_argument("--title", default=None, help="page title")
    parser.add_argument(
        "--out", type=Path, default=Path("fleet_dashboard.html"),
        help="output HTML file",
    )
    args = parser.parse_args(argv)

    cells: List[dict] = []
    for source in args.sources:
        if source in scene_names():
            cells.append(_traced_cell(source, args.seed))
        elif source == "fig5-sweep":
            cells.extend(_fig5_sweep_cells(args.seed, args.cache, args.jobs))
        elif Path(source).is_dir():
            store_cells = load_store_cells(source)
            if not store_cells:
                raise SystemExit(
                    f"repro dash: no result-store entries under {source!r}"
                )
            cells.extend(store_cells)
        else:
            raise SystemExit(
                f"repro dash: {source!r} is neither a runnable scenario "
                f"({', '.join(scene_names())}), 'fig5-sweep', nor a "
                "result-store directory"
            )
    title = args.title or (
        f"repro fleet dashboard: {', '.join(args.sources)} (seed {args.seed})"
    )
    _write_or_print(render_dashboard(cells, title=title), args.out)
    return 0


def obs_main(argv: List[str]) -> int:
    """Entry point for ``repro trace|metrics|usage|diff|report|dash ...``."""
    mode = argv[0]  # vetted by the dispatcher
    if mode == "dash":
        return _dash_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog=f"repro {mode}",
        description="Run an experiment with tracing and render the result.",
    )
    if mode == "diff":
        parser.add_argument(
            "a", help="experiment name or trace .jsonl file (run A)"
        )
        parser.add_argument(
            "b", help="experiment name or trace .jsonl file (run B)"
        )
        parser.add_argument(
            "--seed", type=int, default=0, help="seed for run A (and B unless --seed-b)"
        )
        parser.add_argument(
            "--seed-b", type=int, default=None, help="seed for run B"
        )
    else:
        parser.add_argument(
            "experiment", choices=sorted(SCENARIOS), help="experiment to run"
        )
        parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the human rendering",
    )
    if mode == "trace":
        parser.add_argument(
            "--chrome", action="store_true",
            help="chrome://tracing / Perfetto trace_event JSON",
        )
        parser.add_argument(
            "--limit", type=int, default=40,
            help="max timeline rows in human output (0 = all)",
        )
    if mode == "metrics":
        parser.add_argument(
            "--format", choices=("table", "csv", "json"), default="table",
            help="output format (csv columns/rows are deterministic)",
        )
    if mode == "usage":
        parser.add_argument(
            "--resolution", type=float, default=1.0,
            help="virtual-time resolution of the utilization series",
        )
    if mode == "report":
        parser.add_argument(
            "--compare", default=None, metavar="B",
            help="second experiment (or trace .jsonl) for a comparison report",
        )
        parser.add_argument(
            "--seed-b", type=int, default=None,
            help="seed for the comparison run (defaults to --seed)",
        )
        parser.add_argument(
            "--perf", action="store_true",
            help="attach a kernel profiler and add a perf section",
        )
    if mode == "perf":
        parser.add_argument(
            "--flame", action="store_true",
            help="collapsed-stack folded output for flamegraph tools",
        )
        parser.add_argument(
            "--chrome", action="store_true",
            help="chrome://tracing flame-chart JSON of the cost buckets",
        )
    parser.add_argument(
        "--out", type=Path, default=None, help="write to file instead of stdout"
    )
    args = parser.parse_args(argv[1:])

    if mode == "diff":
        seed_b = args.seed if args.seed_b is None else args.seed_b
        side_a = _load_side(args.a, args.seed)
        side_b = _load_side(args.b, seed_b)
        label_a, snap_a = side_a["label"], side_a["metrics"]
        label_b, snap_b = side_b["label"], side_b["metrics"]
        result = diff_traces(side_a["records"], side_b["records"])
        metrics_delta = (
            diff_metrics(snap_a, snap_b)
            if snap_a is not None and snap_b is not None
            else None
        )
        if args.json:
            payload = {"a": label_a, "b": label_b, **result.to_dict()}
            if metrics_delta is not None:
                payload["metrics"] = metrics_delta
            text = json.dumps(payload, indent=1, sort_keys=True)
        else:
            text = f"A: {label_a}\nB: {label_b}\n" + _render_diff(
                result, metrics_delta
            )
        _write_or_print(text, args.out)
        identical = result.identical and (
            metrics_delta is None or metrics_delta["identical"]
        )
        return 0 if identical else 1

    if mode == "usage":
        recorder = TraceRecorder()
        usage = UsageAccountant(
            metrics=recorder.metrics, resolution=args.resolution
        )
        run_scenario(args.experiment, args.seed, recorder=recorder, usage=usage)
        if args.json:
            payload = {
                "experiment": args.experiment,
                "seed": args.seed,
                "usage": usage.summary(),
            }
            text = json.dumps(payload, indent=1, sort_keys=True)
        else:
            text = _render_usage(usage)
        _write_or_print(text, args.out)
        return 0

    if mode == "perf":
        from .perf import KernelProfiler, to_chrome_profile, to_folded

        # Full fidelity (every step observed): a one-off profile capture
        # wants exact attribution and census, not low overhead.
        profiler = KernelProfiler(full=True)
        run_scenario(args.experiment, args.seed, profiler=profiler)
        if args.flame:
            text = to_folded(profiler)
        elif args.chrome:
            text = json.dumps(to_chrome_profile(profiler), sort_keys=True)
        elif args.json:
            payload = {
                "experiment": args.experiment,
                "seed": args.seed,
                "perf": profiler.summary(),
            }
            text = json.dumps(payload, indent=1, sort_keys=True)
        else:
            text = _render_perf(profiler, args.experiment, args.seed)
        _write_or_print(text, args.out)
        return 0

    if mode == "report":
        from .dash import render_dashboard

        profiler = None
        if args.perf:
            from .perf import KernelProfiler

            profiler = KernelProfiler(full=True)
        cells = [_traced_cell(args.experiment, args.seed, profiler=profiler)]
        title = f"repro report: {args.experiment} (seed {args.seed})"
        if args.compare is not None:
            seed_b = args.seed if args.seed_b is None else args.seed_b
            cells.append(
                _load_side(
                    args.compare, seed_b, with_usage=True, group=cells[0]["group"]
                )
            )
            title = f"repro report: {args.experiment} vs {args.compare}"
        out = args.out
        if out is None:
            out = Path(f"report_{args.experiment}.html")
        _write_or_print(render_dashboard(cells, title=title), out)
        return 0

    recorder = TraceRecorder()
    run_scenario(args.experiment, args.seed, recorder=recorder)

    if mode == "metrics":
        fmt = args.format
        if args.json:
            fmt = "json"
        if fmt == "json":
            payload = {
                "experiment": args.experiment,
                "seed": args.seed,
                "metrics": recorder.metrics.snapshot(),
                "summary": summary(recorder.records),
            }
            text = json.dumps(payload, indent=1, sort_keys=True)
        elif fmt == "csv":
            text = _metrics_csv(recorder.metrics.snapshot())
        else:
            text = _render_metrics(recorder)
    elif args.chrome:
        text = json.dumps(to_chrome(recorder.records), sort_keys=True)
    elif args.json:
        text = to_jsonl(recorder.records)
    else:
        text = _render_timeline(
            recorder, None if args.limit == 0 else args.limit
        )
    _write_or_print(text, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(obs_main(sys.argv[1:]))
