"""Observability CLI: trace, metrics, usage, diff, report, perf and dash.

Runs instrumented experiments and renders what they recorded::

    python -m repro.cli trace chaos              # human-readable timeline
    python -m repro.cli trace chaos@1 --json     # JSONL span records, seed 1
    python -m repro.cli trace chaos --chrome     # chrome://tracing JSON
    python -m repro.cli metrics fig6a            # metrics table
    python -m repro.cli metrics chaos --json     # metrics snapshot JSON
    python -m repro.cli metrics chaos --format csv   # deterministic CSV
    python -m repro.cli usage chaos              # where the resources went
    python -m repro.cli diff chaos chaos --seed-b 1  # first divergence
    python -m repro.cli diff a.jsonl chaos@1     # a trace export vs a run
    python -m repro.cli report chaos --out report.html
    python -m repro.cli report chaos --compare chaos@1
    python -m repro.cli perf chaos              # kernel cost buckets
    python -m repro.cli perf chaos --flame      # collapsed-stack folded
    python -m repro.cli perf fig5 --json        # full profile summary
    python -m repro.cli dash fig5-sweep chaos recovery --out fleet.html
    python -m repro.cli dash chaos@0 chaos@1    # two seeds side by side

:func:`_read_source` reads every source: a :data:`repro.scenarios.SCENARIOS`
entry as ``name`` (at ``--seed``), ``name@N`` or ``name@seed=N``, and where
the mode takes them a trace ``.jsonl``, a result-store directory or
``fig5-sweep``.  Output is a pure function of the sources: traced runs are
byte-identical to untraced ones, and the trace itself is deterministic
(see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import namedtuple
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
    records = ordered(recorder.records)
    shown = records if limit is None else records[:limit]
    lines = [f"== trace: {len(records)} records =="]
    lines += [_record_line(record) for record in shown]
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


def _render_diff(result, metrics_delta: Optional[dict], identical: bool) -> str:
    lines = []
    if identical:
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


#: How each run-source kind is written (see docs/observability.md):
#: ``scenario`` is any entry of :data:`SCENARIOS`, ``scene`` a Scene one.
_KINDS = {
    "trace": "a trace .jsonl file",
    "store": "a result-store directory",
    "fig5-sweep": "'fig5-sweep'",
    "scenario": "a scenario[@seed]",
    "scene": "a scene[@seed]",
}
#: The kinds a mode's sources may be, in the order they are tried
#: (``report --compare`` reads as ``diff``; other modes a scenario).
_READS = {
    "diff": ("trace", "scenario"),
    "dash": ("trace", "store", "fig5-sweep", "scene"),
}

#: One run source: its kind ("trace", "store", "fig5-sweep" or
#: "scenario"), its name (a scenario, or the path given) and its seed.
Source = namedtuple("Source", "kind name seed")


def _read_source(parser, text: str, seed: int, kinds) -> Source:
    """The one reader of a run-source string, ``seed`` its default seed.

    Paths are tried first, so a file or directory whose name holds an
    ``@`` still reads as a path.  ``scene@N`` and ``scene@seed=N`` (the
    form cell labels print) name the seed.  A source ``kinds`` does not
    cover is an argparse usage error (exit 2) that lists them.
    """
    path = Path(text)
    if "trace" in kinds and path.is_file():
        return Source("trace", text, seed)
    if "store" in kinds and path.is_dir() and sorted(path.rglob("*.json")):
        return Source("store", text, seed)
    name, at, seed_text = text.partition("@")
    if at:
        try:
            seed = int(seed_text.removeprefix("seed="))
        except ValueError:
            name = ""
    if name == "fig5-sweep" and "fig5-sweep" in kinds:
        return Source("fig5-sweep", name, seed)
    names = scene_names() if "scene" in kinds else sorted(SCENARIOS)
    if name in names:
        return Source("scenario", name, seed)
    expected = " or ".join(_KINDS[kind] for kind in kinds)
    parser.error(
        f"no source {text!r}: expected {expected} (choose from {', '.join(names)})"
    )


def _run(source: Source, instruments: Instruments) -> Optional[dict]:
    """Run a scenario source with ``instruments`` attached; its payload
    (None for a sweep)."""
    result = run_scenario(source.name, source.seed, **vars(instruments))
    return None if source.name in SWEEPS else result[1]


def _cells(
    source: Source, args, usage=True, profiler=None, group=None
) -> List[dict]:
    """A source as page cells; a scenario runs traced (and by default
    usage-accounted)."""
    from .dash import dashboard_cell, dashboard_cell_from_run, load_store_cells

    if source.kind == "trace":
        records = from_jsonl(Path(source.name).read_text())
        return [dashboard_cell(source.name, group=group, records=records)]
    if source.kind == "store":
        return load_store_cells(source.name)
    if source.kind == "fig5-sweep":
        return _fig5_sweep_cells(source.seed, args.cache, args.jobs)
    recorder = TraceRecorder()
    instruments = Instruments(
        recorder,
        # Share the recorder's registry so usage.* series appear in the
        # metrics snapshot (and therefore in pages and CSV exports).
        UsageAccountant(metrics=recorder.metrics) if usage else None,
        profiler,
    )
    payload = _run(source, instruments)
    label = f"{source.name}@seed={source.seed}"
    return [
        dashboard_cell_from_run(
            label, instruments, payload=payload, group=group, seed=source.seed
        )
    ]


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
    report = SweepEngine(jobs=jobs, store=ResultStore(cache)).run(specs)
    usage = {outcome.key: outcome.usage for outcome in report.outcomes}
    return [
        dashboard_cell(
            label, group="fig5-sweep", payload=report.value(spec.key),
            usage=usage.get(spec.key), seed=seed,
        )
        for label, spec in zip(labels, specs)
    ]


_SWITCH = {"action": "store_true"}
#: Each mode's own flags, added after the shared ones.
_FLAGS = {
    "trace": {
        "--chrome": dict(_SWITCH, help="chrome://tracing / Perfetto JSON"),
        "--limit": dict(type=int, default=40, help="timeline rows (0 = all)"),
    },
    "metrics": {
        "--format": dict(choices=("table", "csv", "json"), default="table"),
    },
    "usage": {
        "--resolution": dict(type=float, default=1.0, help="series resolution"),
    },
    "diff": {"--seed-b": dict(type=int, help="default seed of the second source")},
    "report": {
        "--compare": dict(metavar="B", help="second source of a comparison page"),
        "--seed-b": dict(type=int, help="default seed of the --compare source"),
        "--perf": dict(_SWITCH, help="attach a kernel profiler"),
    },
    "perf": {
        "--flame": dict(_SWITCH, help="collapsed-stack folded output"),
        "--chrome": dict(_SWITCH, help="chrome://tracing flame chart"),
    },
    "dash": {
        "--jobs": dict(type=int, default=2, help="fig5-sweep worker processes"),
        "--cache": dict(type=Path, default=Path(".repro_cache/dash"),
                        help="result store backing the fig5-sweep source"),
        "--title": dict(help="page title"),
    },
}


def _parser(mode: str) -> argparse.ArgumentParser:
    """The one argument grammar: the shared arguments, then ``mode``'s."""
    parser = argparse.ArgumentParser(
        prog=f"repro {mode}",
        description="Run experiments with their instruments attached and "
        "render what they recorded.",
    )
    kinds = _READS.get(mode, ("scenario",))
    parser.add_argument(
        "sources", nargs={"diff": 2, "dash": "+"}.get(mode, 1), metavar="source",
        help=" or ".join(_KINDS[kind] for kind in kinds),
    )
    parser.add_argument("--seed", type=int, default=0, help="seed if no @N")
    if mode != "dash":
        parser.add_argument(
            "--json", action="store_true",
            help="machine-readable JSON instead of the human rendering",
        )
    parser.add_argument(
        "--out", type=Path, help="output file (report and dash default to a page)"
    )
    for flag, kwargs in _FLAGS[mode].items():
        parser.add_argument(flag, **kwargs)
    return parser


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True)


def obs_main(argv: List[str]) -> int:
    """Entry point for ``repro trace|metrics|usage|diff|report|perf|dash``."""
    mode = argv[0]  # vetted by the dispatcher
    parser = _parser(mode)
    args = parser.parse_args(argv[1:])
    texts = [(text, _READS.get(mode, ("scenario",))) for text in args.sources]
    if getattr(args, "compare", None) is not None:
        texts.append((args.compare, _READS["diff"]))
    seed_b = getattr(args, "seed_b", None)
    seed_b = args.seed if seed_b is None else seed_b
    sources = [
        _read_source(parser, text, seed_b if i else args.seed, kinds)
        for i, (text, kinds) in enumerate(texts)
    ]
    source, out, code = sources[0], args.out, 0
    header = {"experiment": source.name, "seed": source.seed}
    if mode in ("trace", "metrics", "usage"):
        recorder = TraceRecorder()
        usage = None
        if mode == "usage":
            usage = UsageAccountant(
                metrics=recorder.metrics, resolution=args.resolution
            )
        _run(source, Instruments(recorder, usage))

    if mode == "dash":
        from .dash import render_dashboard

        cells = [cell for src in sources for cell in _cells(src, args)]
        title = args.title or (
            f"repro fleet dashboard: {', '.join(args.sources)} (seed {args.seed})"
        )
        text = render_dashboard(cells, title=title)
        out = out or Path("fleet_dashboard.html")
    elif mode == "report":
        from .dash import render_dashboard
        from .perf import KernelProfiler

        profiler = KernelProfiler(full=True) if args.perf else None
        cells = _cells(source, args, profiler=profiler)
        title = f"repro report: {source.name} (seed {source.seed})"
        if len(sources) == 2:
            cells += _cells(sources[1], args, group=cells[0]["group"])
            title = f"repro report: {source.name} vs {sources[1].name}"
        text = render_dashboard(cells, title=title)
        out = out or Path(f"report_{source.name}.html")
    elif mode == "diff":
        side_a, side_b = (_cells(src, args, usage=False)[0] for src in sources)
        snap_a, snap_b = side_a["metrics"], side_b["metrics"]
        result = diff_traces(side_a["records"], side_b["records"])
        metrics_delta = None
        if snap_a is not None and snap_b is not None:
            metrics_delta = diff_metrics(snap_a, snap_b)
        identical = result.identical and (
            metrics_delta is None or metrics_delta["identical"]
        )
        code = 0 if identical else 1
        label_a, label_b = side_a["label"], side_b["label"]
        if args.json:
            payload = {"a": label_a, "b": label_b, **result.to_dict()}
            if metrics_delta is not None:
                payload["metrics"] = metrics_delta
            text = _dump(payload)
        else:
            text = f"A: {label_a}\nB: {label_b}\n" + _render_diff(
                result, metrics_delta, identical
            )
    elif mode == "perf":
        from .perf import KernelProfiler, to_chrome_profile, to_folded

        # Full fidelity (every step observed): a one-off profile capture
        # wants exact attribution and census, not low overhead.
        profiler = KernelProfiler(full=True)
        _run(source, Instruments(profiler=profiler))
        if args.flame:
            text = to_folded(profiler)
        elif args.chrome:
            text = json.dumps(to_chrome_profile(profiler), sort_keys=True)
        elif args.json:
            text = _dump({**header, "perf": profiler.summary()})
        else:
            text = _render_perf(profiler, source.name, source.seed)
    elif mode == "usage":
        if args.json:
            text = _dump({**header, "usage": usage.summary()})
        else:
            text = _render_usage(usage)
    elif mode == "metrics":
        fmt = "json" if args.json else args.format
        if fmt == "json":
            text = _dump({
                **header,
                "metrics": recorder.metrics.snapshot(),
                "summary": summary(recorder.records),
            })
        elif fmt == "csv":
            text = _metrics_csv(recorder.metrics.snapshot())
        else:
            text = _render_metrics(recorder)
    elif args.chrome:
        text = json.dumps(to_chrome(recorder.records), sort_keys=True)
    elif args.json:
        text = to_jsonl(recorder.records)
    else:
        text = _render_timeline(recorder, None if args.limit == 0 else args.limit)
    _write_or_print(text, out)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via repro.cli
    sys.exit(obs_main(sys.argv[1:]))
