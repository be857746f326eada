"""One self-contained HTML page over any number of runs (*cells*).

``render_dashboard`` is the only page renderer in :mod:`repro.obs`.
Every caller goes through it: ``repro report X`` (one cell), ``repro
report X --compare Y`` (two cells of one group), ``repro dash ...`` (N
cells) and :meth:`~repro.obs.interactive.InteractiveContext.snapshot_html`
(one cell, mid-flight).  The page has inline CSS and inline SVG and no
JavaScript, so it can be attached to a CI run or mailed around and still
render identically.

A *cell* is a plain dict (see :func:`dashboard_cell`) holding whatever a
run has: trace records, a metrics snapshot, a usage summary, a
kernel-profile summary, the experiment payload and an inspector
snapshot.  Builders exist for the three sources:

- :func:`dashboard_cell_from_run` — a finished run's
  :class:`~repro.obs.Instruments` (+ optional experiment payload);
- :func:`load_store_cells` — every entry of a ``repro.exec``
  :class:`~repro.exec.ResultStore` directory (sweep results);
- :func:`dashboard_cell_from_context` — the mid-flight state of an
  interactive context (strictly passive: rendering leaves the run
  byte-identical).

A section shows because its data is present:

- with two or more cells, a fleet table and QoS/violation heat rows;
- per pair of consecutive same-group traced cells, the verdict, the
  span counts, the first divergence with its causal chain, and the
  metric deltas when both cells carry metrics;
- per cell, the run table, adaptation timeline, interventions, dwell
  times, utilization strips, crowd panel, usage account, fault events,
  kernel profile, metrics table, result numbers and live state.

Determinism: the page is a pure function of the cells — no wall clocks,
no random ids, stable iteration order — so two same-seed builds are
byte-identical (gated in CI).
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .diff import diff_metrics, diff_traces, format_key
from .export import ordered
from .instruments import Instruments
from .query import dwell_times
from .record import SpanRecord

__all__ = [
    "dashboard_cell",
    "dashboard_cell_from_context",
    "dashboard_cell_from_run",
    "load_store_cells",
    "render_dashboard",
]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }
h1 { font-size: 1.4em; border-bottom: 2px solid #16213e; padding-bottom: .3em; }
h2 { font-size: 1.1em; margin-top: 1.6em; color: #16213e; }
table { border-collapse: collapse; font-size: .85em; margin: .5em 0; }
th, td { border: 1px solid #cbd5e1; padding: .25em .6em; text-align: left; }
th { background: #eef2f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #15803d; font-weight: 600; }
.bad { color: #b91c1c; font-weight: 600; }
.strip { margin: .35em 0; }
.strip .label { font-size: .8em; color: #475569; }
svg { display: block; }
code { background: #f1f5f9; padding: 0 .25em; border-radius: 3px; }
.chain { font-size: .85em; }
.chain li { margin: .15em 0; }
.heat { display: flex; gap: 3px; margin: .3em 0; }
.heat .box { width: 5.2em; height: 1.6em; border: 1px solid #cbd5e1;
             font-size: .7em; display: flex; align-items: center;
             justify-content: center; overflow: hidden; }
.cellgrid { border-left: 3px solid #16213e; padding-left: .8em;
            margin: 1.2em 0; }
footer { margin-top: 2.5em; font-size: .75em; color: #64748b;
         border-top: 1px solid #cbd5e1; padding-top: .5em; }
"""

# A small qualitative palette for configuration bands (cycled).
_BAND_COLORS = ("#93c5fd", "#fcd34d", "#86efac", "#f9a8d4", "#c4b5fd",
                "#fdba74", "#a5f3fc", "#d9f99d")


def dashboard_cell(
    label: str,
    group: Optional[str] = None,
    records: Optional[Sequence] = None,
    metrics: Optional[dict] = None,
    usage: Optional[dict] = None,
    payload: Optional[dict] = None,
    inspect: Optional[dict] = None,
    seed: Optional[int] = None,
    perf: Optional[dict] = None,
) -> dict:
    """One page cell.  ``group`` scopes the run-pair sections.

    ``records`` is None for a run without a trace recorder; an empty
    list is a traced run that recorded nothing.  ``perf`` is a
    :meth:`repro.obs.KernelProfiler.summary` dict.
    """
    return {
        "label": label,
        "group": group if group is not None else label.split("@")[0].split()[0],
        "records": list(records) if records is not None else None,
        "metrics": metrics,
        "usage": usage,
        "payload": payload,
        "inspect": inspect,
        "seed": seed,
        "perf": perf,
    }


def dashboard_cell_from_run(
    label: str,
    instruments: Instruments,
    payload: Optional[dict] = None,
    group: Optional[str] = None,
    seed: Optional[int] = None,
) -> dict:
    """Cell from a finished run's :class:`~repro.obs.Instruments`.

    The bundle needs a recorder; its usage accountant and kernel
    profiler are optional.
    """
    recorder, usage, profiler = (
        instruments.recorder, instruments.usage, instruments.profiler
    )
    return dashboard_cell(
        label,
        group=group,
        records=recorder.records,
        metrics=recorder.metrics.snapshot(),
        usage=usage.summary() if usage is not None else None,
        payload=payload,
        seed=seed,
        perf=profiler.summary() if profiler is not None else None,
    )


def dashboard_cell_from_context(ctx) -> dict:
    """Mid-flight cell from an :class:`InteractiveContext` (passive)."""
    recorder = ctx.recorder
    return dashboard_cell(
        f"{ctx.scenario}@seed={ctx.seed} t={ctx.now:.3f}",
        group=ctx.scenario,
        records=recorder.records if recorder is not None else None,
        metrics=recorder.metrics.snapshot() if recorder is not None else None,
        usage=ctx.usage.summary() if ctx.usage is not None else None,
        payload=ctx.result[1] if ctx.result is not None else None,
        inspect=ctx.inspect.snapshot(),
        seed=ctx.seed,
    )


def load_store_cells(root) -> List[dict]:
    """Cells for every entry of a ``repro.exec`` result-store directory.

    Entries are loaded in sorted cache-key order (the sweep engine's
    merge order), so the cell list is deterministic for a given store.
    """
    root = Path(root)
    cells: List[dict] = []
    for path in sorted(root.rglob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        spec = entry.get("spec") or {}
        kind = str(spec.get("kind", "?")).rpartition(":")[2]
        seed = spec.get("seed")
        label_bits = [kind]
        job_payload = spec.get("payload") or {}
        for field in ("config", "point"):
            part = job_payload.get(field)
            if isinstance(part, dict):
                label_bits.append(
                    ",".join(f"{k}={_fmt(v)}" for k, v in sorted(part.items()))
                )
        label_bits.append(f"seed={seed}")
        value = entry.get("value")
        cells.append(
            dashboard_cell(
                " ".join(label_bits),
                group=kind,
                payload=value if isinstance(value, dict) else {"value": value},
                usage=entry.get("usage"),
                seed=seed,
            )
        )
    return cells


# -- formatting and record queries ---------------------------------------------

def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _attrs(record: SpanRecord, hide: Sequence[str] = ()) -> str:
    return " ".join(
        f"{k}={v}" for k, v in sorted(record.attrs.items()) if k not in hide
    )


def _trace_extent(records: Sequence[SpanRecord]) -> float:
    end = 0.0
    for record in records:
        end = max(end, record.t0, record.t1 if record.t1 is not None else 0.0)
    return end


def _config_marks(records: Sequence[SpanRecord]) -> List[Tuple[float, str]]:
    return [
        (record.t0, str(record.attrs.get("config", "?")))
        for record in ordered(records)
        if record.name in ("config.initial", "config.switch")
    ]


def _events(records: Sequence[SpanRecord], cat: str) -> List[SpanRecord]:
    """Instants of category ``cat`` (or named ``<cat>.*``), in trace order."""
    prefix = cat + "."
    return [
        record
        for record in ordered(records)
        if record.cat == cat or record.name.startswith(prefix)
    ]


# -- SVG -------------------------------------------------------------------------

def _timeline_svg(
    marks: List[Tuple[float, str]],
    faults: List[SpanRecord],
    t_end: float,
    width: int = 720,
    height: int = 46,
    recovery: Sequence[SpanRecord] = (),
) -> str:
    """Configuration bands with fault (red) and recovery (green) ticks."""
    if t_end <= 0.0:
        t_end = 1.0

    def x(t: float) -> float:
        return round(width * min(max(t, 0.0), t_end) / t_end, 2)

    parts = [
        f'<svg width="{width}" height="{height}" role="img" '
        f'viewBox="0 0 {width} {height}">'
    ]
    colors: Dict[str, str] = {}
    for t0, label in marks:
        if label not in colors:
            colors[label] = _BAND_COLORS[len(colors) % len(_BAND_COLORS)]
    if not marks:
        parts.append(
            f'<rect x="0" y="8" width="{width}" height="22" fill="#e2e8f0"/>'
        )
    for (t0, label), nxt in zip(marks, marks[1:] + [None]):
        t1 = t_end if nxt is None else nxt[0]
        parts.append(
            f'<rect x="{x(t0)}" y="8" width="{max(0.5, x(t1) - x(t0))}" '
            f'height="22" fill="{colors[label]}">'
            f"<title>{_esc(label)}: {t0:.2f}s - {t1:.2f}s</title></rect>"
        )
    for record in faults:
        parts.append(
            f'<line x1="{x(record.t0)}" y1="4" x2="{x(record.t0)}" y2="34" '
            f'stroke="#b91c1c" stroke-width="1.5">'
            f"<title>{_esc(record.name)} @ {record.t0:.2f}s</title></line>"
        )
    for record in recovery:
        parts.append(
            f'<line x1="{x(record.t0)}" y1="10" x2="{x(record.t0)}" y2="38" '
            f'stroke="#15803d" stroke-width="1.5" stroke-dasharray="2,2">'
            f"<title>{_esc(record.name)} @ {record.t0:.2f}s</title></line>"
        )
    parts.append(
        f'<text x="0" y="{height - 2}" font-size="9" fill="#64748b">0s</text>'
        f'<text x="{width - 40}" y="{height - 2}" font-size="9" '
        f'fill="#64748b" text-anchor="end">{t_end:.1f}s</text>'
    )
    parts.append("</svg>")
    legend = " ".join(
        f'<span style="background:{color};padding:0 .5em;margin-right:.5em">'
        f"</span>{_esc(label)}"
        for label, color in colors.items()
    )
    if legend:
        parts.append(f'<div class="label">{legend}</div>')
    return "".join(parts)


def _series_svg(
    samples: Sequence[Tuple[float, float]],
    t_end: float,
    width: int = 720,
    height: int = 40,
    v_max: Optional[float] = None,
) -> str:
    """One utilization strip: a filled step-ish polyline, 0..v_max."""
    if t_end <= 0.0:
        t_end = 1.0
    if v_max is None:
        v_max = max((v for _, v in samples), default=1.0)
        v_max = max(v_max, 1e-9)
    pts = []
    for t, v in samples:
        px = round(width * min(max(t, 0.0), t_end) / t_end, 2)
        py = round(height - (height - 2) * min(v / v_max, 1.0) - 1, 2)
        pts.append(f"{px},{py}")
    poly = ""
    if pts:
        poly = (
            f'<polyline points="0,{height - 1} {" ".join(pts)}" fill="none" '
            f'stroke="#2563eb" stroke-width="1.2"/>'
        )
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#f8fafc" '
        f'stroke="#e2e8f0"/>{poly}</svg>'
    )


def _strip(name: str, samples: Sequence, t_end: float, v_max=None) -> str:
    return (
        f'<div class="strip"><div class="label">{name}</div>'
        f"{_series_svg(samples, t_end, v_max=v_max)}</div>"
    )


# -- derived per-cell stats ------------------------------------------------------

#: The run table's rows and the fleet table's columns: (label, format).
_STATS = (
    ("virtual duration", "{:.3f}s"),
    ("trace records", "{}"),
    ("metrics", "{}"),
    ("configuration switches", "{}"),
    ("fault events", "{}"),
    ("recovery events", "{}"),
    ("violations", "{:g}"),
)


def _flat_numbers(payload: Optional[dict]) -> Dict[str, float]:
    """Scalar numbers of an experiment/measurement payload, one level deep."""
    out: Dict[str, float] = {}
    if not isinstance(payload, dict):
        return out
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = value
        elif isinstance(value, dict):
            for sub in sorted(value):
                if isinstance(value[sub], (int, float)) and not isinstance(
                    value[sub], bool
                ):
                    out[f"{key}.{sub}"] = value[sub]
    return out


def _cell_stats(cell: dict) -> Dict[str, Optional[float]]:
    """The :data:`_STATS` of one cell, however it was sourced (None = n/a)."""
    records = cell.get("records")
    payload = cell.get("payload") or {}
    metrics = cell.get("metrics")
    stats: Dict[str, Optional[float]] = {label: None for label, _ in _STATS}
    if records:
        stats["virtual duration"] = _trace_extent(records)
        stats["configuration switches"] = max(0, len(_config_marks(records)) - 1)
        stats["fault events"] = len(_events(records, "fault"))
        stats["recovery events"] = len(_events(records, "recovery"))
    if records is not None:
        stats["trace records"] = len(records)
    if metrics is not None:
        stats["metrics"] = len(metrics)
    if stats["configuration switches"] is None and isinstance(
        payload.get("switches"), list
    ):
        stats["configuration switches"] = len(payload["switches"])
    if stats["virtual duration"] is None:
        for key in ("total_time", "run_time", "elapsed"):
            if isinstance(payload.get(key), (int, float)):
                stats["virtual duration"] = float(payload[key])
                break
    violations = (metrics or {}).get("monitor.violations")
    if isinstance(violations, dict) and "value" in violations:
        stats["violations"] = violations["value"]
    elif isinstance(payload.get("violations"), (int, float)):
        stats["violations"] = payload["violations"]
    return stats


def _cell_qos(cell: dict) -> dict:
    payload = cell.get("payload") or {}
    if isinstance(payload.get("qos"), dict):
        return payload["qos"]
    if isinstance(payload.get("metrics"), dict):
        return payload["metrics"]  # profiling measurement records
    return {}


def _heat_color(value: Optional[float], worst: float) -> str:
    """White (no data) / green (0) / yellow-to-red ramp up to ``worst``."""
    if value is None:
        return "#f8fafc"
    if value <= 0:
        return "#bbf7d0"
    frac = min(1.0, value / worst) if worst > 0 else 1.0
    # fixed 4-step ramp keeps the palette (and the bytes) deterministic
    if frac < 0.25:
        return "#fef9c3"
    if frac < 0.5:
        return "#fde68a"
    if frac < 0.75:
        return "#fca5a5"
    return "#ef4444"


def _heat_row(title: str, values: List[Optional[float]]) -> str:
    worst = max((v for v in values if v is not None), default=0.0)
    boxes = "".join(
        f'<div class="box" style="background:{_heat_color(v, worst)}" '
        f'title="cell {i}">{"-" if v is None else _fmt(v)}</div>'
        for i, v in enumerate(values)
    )
    return f'<div class="label">{_esc(title)}</div><div class="heat">{boxes}</div>'


# -- fleet overview --------------------------------------------------------------

def _fleet_section(cells: Sequence[dict], stats: Sequence[dict]) -> str:
    body = ["<h2>Fleet</h2><table><tr><th>#</th><th>cell</th>"]
    body.extend(f"<th>{label}</th>" for label, _ in _STATS)
    body.append("</tr>")
    for i, (cell, st) in enumerate(zip(cells, stats)):
        body.append(
            f'<tr><td class="num">{i}</td>'
            f"<td><a href=\"#cell-{i}\">{_esc(cell['label'])}</a></td>"
        )
        for label, fmt in _STATS:
            text = "-" if st[label] is None else fmt.format(st[label])
            body.append(f'<td class="num">{text}</td>')
        body.append("</tr>")
    body.append("</table>")

    body.append("<h2>QoS / violation heat</h2>")
    body.append(
        _heat_row("constraint violations", [st["violations"] for st in stats])
    )
    qos = [_cell_qos(cell) for cell in cells]
    numeric = [
        {k: v for k, v in q.items() if isinstance(v, (int, float))} for q in qos
    ]
    for metric in sorted({name for q in numeric for name in q}):
        body.append(_heat_row(f"qos: {metric}", [q.get(metric) for q in numeric]))
    return "".join(body)


# -- run pairs -------------------------------------------------------------------

def _pairs(cells: Sequence[dict]) -> List[Tuple[dict, dict]]:
    """Consecutive traced cells of each group, groups in sorted order."""
    by_group: Dict[str, List[dict]] = {}
    for cell in cells:
        if cell.get("records") is not None:
            by_group.setdefault(cell["group"], []).append(cell)
    return [
        pair
        for group in sorted(by_group)
        for pair in zip(by_group[group], by_group[group][1:])
    ]


def _pair_section(a: dict, b: dict) -> str:
    """Verdict, span counts, first divergence and metric deltas of A vs B."""
    trace_diff = diff_traces(a["records"], b["records"])
    deltas = (
        diff_metrics(a["metrics"], b["metrics"])
        if a.get("metrics") is not None and b.get("metrics") is not None
        else {"identical": True, "changed": {}, "only_a": [], "only_b": []}
    )
    body = ['<div class="cellgrid">']
    verdict = (
        '<span class="ok">runs are structurally identical</span>'
        if trace_diff.identical and deltas["identical"]
        else f'<span class="bad">{trace_diff.divergences} trace divergence(s), '
        f"{len(deltas['changed'])} metric change(s)</span>"
    )
    body.append(f"<h3>Verdict</h3><p>{verdict}</p><table>")
    body.append(
        f"<tr><th></th><th>A: {_esc(a['label'])}</th>"
        f"<th>B: {_esc(b['label'])}</th></tr>"
    )
    for name, count in (
        ("matched spans", trace_diff.matched),
        ("changed", len(trace_diff.changed)),
        ("only in A", len(trace_diff.only_a)),
        ("only in B", len(trace_diff.only_b)),
    ):
        body.append(
            f'<tr><th>{name}</th><td class="num" colspan="2">{count}</td></tr>'
        )
    body.append("</table>")

    divergence = trace_diff.first_divergence
    if divergence is not None:
        body.append("<h3>First divergence</h3>")
        body.append(
            f"<p><code>{_esc(format_key(divergence.key))}</code> "
            f"({_esc(divergence.kind)}, side {_esc(divergence.side)}) at "
            f"t={divergence.record.t0:.4f}s</p>"
        )
        body.append('<ol class="chain">')
        for record in divergence.causal_chain:
            body.append(
                f"<li><code>{_esc(record.name)}</code> @ {record.t0:.4f}s "
                f"{_esc(_attrs(record))}</li>"
            )
        body.append("</ol>")
        if divergence.other is not None:
            body.append(
                "<p>Counterpart in B: "
                f"<code>{_esc(divergence.other.name)}</code> @ "
                f"{divergence.other.t0:.4f}s</p>"
            )

    changed, only_a, only_b = deltas["changed"], deltas["only_a"], deltas["only_b"]
    if changed or only_a or only_b:
        body.append("<h3>Metric deltas</h3><table>")
        body.append("<tr><th>metric</th><th>A</th><th>B</th><th>delta</th></tr>")
        for name in sorted(changed):
            entry = changed[name]
            cols = (
                entry.get("a", entry.get("counts_a", "")),
                entry.get("b", entry.get("counts_b", "")),
                entry.get("delta", entry.get("count_delta", "")),
            )
            body.append(f"<tr><td><code>{_esc(name)}</code></td>")
            body.extend(f'<td class="num">{_esc(_fmt(c))}</td>' for c in cols)
            body.append("</tr>")
        for names, cols in ((only_a, ("present", "-")), (only_b, ("-", "present"))):
            for name in names:
                body.append(
                    f"<tr><td><code>{_esc(name)}</code></td>"
                    f'<td class="num">{cols[0]}</td><td class="num">{cols[1]}</td>'
                    "<td></td></tr>"
                )
        body.append("</table>")
    body.append("</div>")
    return "".join(body)


# -- one cell --------------------------------------------------------------------

def _events_table(title: str, records: Sequence[SpanRecord], hide=()) -> str:
    rows = "".join(
        f'<tr><td class="num">{record.t0:.3f}</td>'
        f"<td><code>{_esc(record.name)}</code></td>"
        f"<td>{_esc(_attrs(record, hide))}</td></tr>"
        for record in records
    )
    return (
        f"<h3>{title}</h3><table><tr><th>t</th><th>event</th>"
        f"<th>details</th></tr>{rows}</table>"
    )


def _crowd_counter(snapshot: dict, cls: str, column: str) -> int:
    payload = snapshot.get(f"crowd.{cls}.{column}", {})
    return int(payload.get("value", 0))


def _crowd_section(metrics: dict, t_end: float) -> str:
    """Per-class QoS satisfaction bars + arrival-rate timelines.

    Present only when the run drove a :class:`repro.crowd.CrowdSource`
    (the ``crowd.<class>.*`` metrics exist).
    """
    classes = sorted(
        {
            name.split(".")[1]
            for name in metrics
            if name.startswith("crowd.") and name.count(".") == 2
        }
    )
    if not classes:
        return ""
    body: List[str] = ["<h3>Crowd</h3>"]
    body.append("<table><tr><th>class</th><th>issued</th><th>served</th>"
                "<th>shed</th><th>lost</th><th>QoS satisfaction</th></tr>")
    for cls in classes:
        satisfied = _crowd_counter(metrics, cls, "satisfied")
        resolved = satisfied + _crowd_counter(metrics, cls, "violated")
        frac = satisfied / resolved if resolved else 1.0
        bar = (
            f'<svg width="220" height="14" viewBox="0 0 220 14">'
            f'<rect x="0" y="1" width="200" height="12" fill="#fee2e2"/>'
            f'<rect x="0" y="1" width="{int(round(200 * frac))}" height="12" '
            f'fill="#16a34a"/></svg> <span class="num">{100.0 * frac:.1f}%</span>'
        )
        body.append(f"<tr><td><code>{_esc(cls)}</code></td>")
        body.extend(
            f'<td class="num">{_crowd_counter(metrics, cls, column)}</td>'
            for column in ("issued", "served", "shed", "lost")
        )
        body.append(f"<td>{bar}</td></tr>")
    body.append("</table>")
    for cls in classes:
        samples = [
            tuple(s) for s in metrics.get(f"crowd.{cls}.rate", {}).get("samples", [])
        ]
        if samples:
            body.append(
                _strip(f"<code>crowd.{_esc(cls)}.rate</code> (req/s)", samples, t_end)
            )
    return "".join(body)


def _usage_section(usage: dict) -> str:
    body = ["<h3>Usage account</h3><table>"]
    body.append(
        "<tr><th>resource</th><th>kind</th><th>served</th>"
        "<th>capacity</th><th>utilization</th><th>top consumer</th></tr>"
    )
    for name in sorted(usage.get("resources", {})):
        res = usage["resources"][name]
        owners = res.get("by_owner", {})
        top = max(owners, key=lambda k: owners[k]) if owners else "-"
        body.append(
            f"<tr><td><code>{_esc(name)}</code></td><td>{_esc(res['kind'])}</td>"
            f'<td class="num">{res["served"]:.4g}</td>'
            f'<td class="num">{res["capacity"]:.4g}</td>'
            f'<td class="num">{100.0 * res["utilization"]:.2f}%</td>'
            f"<td><code>{_esc(top)}</code></td></tr>"
        )
    for name in sorted(usage.get("memory", {})):
        mem = usage["memory"][name]
        body.append(
            f"<tr><td><code>{_esc(name)}</code></td><td>memory</td>"
            f'<td class="num">{mem["faults"]} faults</td>'
            f'<td class="num">{mem["total_pages"]} pages</td>'
            f'<td class="num">peak {mem["peak_resident_pages"]}</td>'
            f"<td>-</td></tr>"
        )
    body.append("</table>")
    return "".join(body)


def _perf_section(perf: dict) -> str:
    """Kernel-profile table; its cost buckets are host wall-clock telemetry."""
    sim_side = perf.get("sim", {})
    wall = perf.get("wall", {})
    ties = sim_side.get("ties", {})
    fluid = sim_side.get("fluid", {})
    body = ["<h3>Kernel profile</h3><table>"]
    body.append(
        f'<tr><th>events processed</th>'
        f'<td class="num">{sim_side.get("steps", 0)}</td></tr>'
        f'<tr><th>heap pushes / peak size</th>'
        f'<td class="num">{sim_side.get("pushes", 0)} / '
        f'{sim_side.get("max_heap", 0)}</td></tr>'
        f'<tr><th>same-instant tie windows</th>'
        f'<td class="num">{ties.get("windows", 0)} '
        f'({ties.get("tied_events", 0)} tied events, '
        f'max {ties.get("max_window", 0)})</td></tr>'
        f'<tr><th>fluid updates / reschedules</th>'
        f'<td class="num">{fluid.get("updates", 0)} / '
        f'{fluid.get("reschedules", 0)} '
        f'(max fan-out {fluid.get("fanout_max", 0)})</td></tr>'
        f'<tr><th>wall-clock attributed</th>'
        f'<td class="num">{wall.get("total_s", 0.0):.4f}s over '
        f'{len(wall.get("buckets", {}))} buckets '
        f'(coverage {100 * wall.get("coverage", 0.0):.1f}%)</td></tr>'
    )
    body.append("</table>")
    buckets = wall.get("buckets", {})
    if buckets:
        body.append(
            "<h4>Cost buckets (host wall-clock — not deterministic)</h4>"
            "<table><tr><th>bucket</th><th>share</th><th>seconds</th>"
            "<th>count</th></tr>"
        )
        ranked = sorted(buckets.items(), key=lambda kv: (-kv[1]["seconds"], kv[0]))
        for name, bucket in ranked[:15]:
            body.append(
                f"<tr><td><code>{_esc(name)}</code></td>"
                f'<td class="num">{100 * bucket["share"]:.1f}%</td>'
                f'<td class="num">{bucket["seconds"]:.6f}</td>'
                f'<td class="num">{bucket["count"]}</td></tr>'
            )
        body.append("</table>")
    return "".join(body)


def _metrics_section(snapshot: dict) -> str:
    body = ["<h3>Metrics</h3><table><tr><th>name</th><th>kind</th><th>value</th></tr>"]
    for name in sorted(snapshot):
        payload = snapshot[name]
        kind = payload.get("kind", "?")
        if kind == "counter":
            value = _fmt(payload.get("value"))
        elif kind == "gauge":
            value = f"{_fmt(payload.get('value'))} ({payload.get('updates')} updates)"
        elif kind == "histogram":
            value = (
                f"n={payload.get('count')} mean={_fmt(payload.get('mean'))} "
                f"min={_fmt(payload.get('min'))} max={_fmt(payload.get('max'))}"
            )
        else:
            value = f"{len(payload.get('samples', []))} samples"
        body.append(
            f"<tr><td><code>{_esc(name)}</code></td><td>{_esc(kind)}</td>"
            f'<td class="num">{_esc(value)}</td></tr>'
        )
    body.append("</table>")
    return "".join(body)


def _cell_section(i: int, cell: dict, stats: dict) -> str:
    """Every part of one cell whose data is present."""
    body = [f'<div class="cellgrid" id="cell-{i}">']
    body.append(f"<h2>cell {i}: {_esc(cell['label'])}</h2>")
    rows = [
        f'<tr><th>{label}</th><td class="num">{fmt.format(stats[label])}</td></tr>'
        for label, fmt in _STATS
        if stats[label] is not None
    ]
    if rows:
        body.append(f"<h3>Run</h3><table>{''.join(rows)}</table>")

    records = cell.get("records") or []
    metrics = cell.get("metrics") or {}
    t_end = _trace_extent(records)
    if records:
        faults = _events(records, "fault")
        interventions = [r for r in records if r.cat == "interactive"]
        body.append("<h3>Adaptation timeline</h3>")
        body.append(
            _timeline_svg(
                _config_marks(records), faults, t_end,
                recovery=_events(records, "recovery") + interventions,
            )
        )
        if interventions:
            body.append(_events_table("Interventions", interventions, ("steps",)))
        dwell = dwell_times(records)
        if dwell:
            body.append("<h3>Configuration dwell times</h3><table>")
            body.append("<tr><th>configuration</th><th>dwell</th><th>share</th></tr>")
            total = sum(dwell.values()) or 1.0
            for label, seconds in dwell.items():
                body.append(
                    f"<tr><td><code>{_esc(label)}</code></td>"
                    f'<td class="num">{seconds:.3f}s</td>'
                    f'<td class="num">{100.0 * seconds / total:.1f}%</td></tr>'
                )
            body.append("</table>")

    # Top-level resource strips only, not per-proc/per-config breakdowns.
    strips = [
        name for name, payload in sorted(metrics.items())
        if payload.get("kind") == "series" and name.startswith("usage.")
        and ".proc." not in name and ".config." not in name
    ]
    if strips:
        body.append("<h3>Resource utilization</h3>")
        for name in strips:
            samples = [tuple(s) for s in metrics[name]["samples"]]
            v_max = 1.0 if not name.endswith(".resident") else None
            body.append(_strip(f"<code>{_esc(name)}</code>", samples, t_end, v_max))
    body.append(_crowd_section(metrics, t_end))
    if cell.get("usage"):
        body.append(_usage_section(cell["usage"]))
    if records and faults:
        body.append(_events_table("Fault events", faults))
    if cell.get("perf"):
        body.append(_perf_section(cell["perf"]))
    if metrics:
        body.append(_metrics_section(metrics))

    numbers = _flat_numbers(cell.get("payload"))
    if numbers:
        body.append("<h3>Result</h3><table>")
        body.append("<tr><th>key</th><th>value</th></tr>")
        for key, value in numbers.items():
            body.append(
                f"<tr><td><code>{_esc(key)}</code></td>"
                f'<td class="num">{_esc(_fmt(value))}</td></tr>'
            )
        body.append("</table>")
    inspect = cell.get("inspect")
    if inspect:
        body.append("<h3>Live state</h3>")
        state = json.dumps(inspect, indent=1, sort_keys=True, default=str)
        body.append(f"<pre><code>{_esc(state)}</code></pre>")
    body.append("</div>")
    return "".join(body)


def render_dashboard(
    cells: Sequence[dict], title: str = "repro fleet dashboard"
) -> str:
    """One self-contained HTML page over all ``cells`` (see module doc)."""
    cells = list(cells)
    stats = [_cell_stats(cell) for cell in cells]
    body: List[str] = []
    if len(cells) > 1:
        body.append(_fleet_section(cells, stats))
    pairs = _pairs(cells)
    if pairs:
        body.append("<h2>Run-pair divergences</h2>")
        body.extend(_pair_section(a, b) for a, b in pairs)
    body.extend(
        _cell_section(i, cell, st) for i, (cell, st) in enumerate(zip(cells, stats))
    )
    return (
        "<!DOCTYPE html>\n"
        f'<html lang="en"><head><meta charset="utf-8">'
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{''.join(body)}"
        f"<footer>Generated by <code>repro</code> over {len(cells)} "
        "cell(s) — deterministic: a pure function of the runs.</footer>"
        "</body></html>\n"
    )
