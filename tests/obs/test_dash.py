"""Fleet dashboard: cell builders, heat rows, divergence links, stability."""

import json

from repro.obs import (
    InteractiveContext,
    dashboard_cell,
    dashboard_cell_from_context,
    load_store_cells,
    render_dashboard,
)
from repro.obs.record import SpanRecord


def _rec(sid, name, t0, parent=None, **attrs):
    return SpanRecord(
        sid=sid, parent=parent, name=name, cat="test", kind="span", t0=t0,
        attrs=attrs,
    )


def _payload_cell(label, group, qos, violations=0, total_time=10.0):
    return dashboard_cell(
        label,
        group=group,
        payload={
            "total_time": total_time,
            "violations": violations,
            "qos": qos,
        },
    )


_FLEET = [
    _payload_cell("sweep cpu=0.4", "sweep", {"response_time": 0.8}, 0),
    _payload_cell("sweep cpu=0.9", "sweep", {"response_time": 0.3}, 0),
    _payload_cell("chaos seed=0", "chaos", {"transmit_time": 2.0}, 3),
    _payload_cell("chaos seed=1", "chaos", {"transmit_time": 2.5}, 7),
]


def test_dashboard_aggregates_four_plus_cells_with_heat_rows():
    html = render_dashboard(_FLEET)
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html  # no-JS contract
    assert "over 4 cell(s)" in html
    for i in range(4):
        assert f'id="cell-{i}"' in html
    # Union of disjoint qos namespaces appears as one heat row each.
    assert "qos: response_time" in html and "qos: transmit_time" in html
    assert "constraint violations" in html
    # Worst violation count (7) hits the top of the deterministic ramp.
    assert "#ef4444" in html


def test_dashboard_is_byte_stable_over_same_cells():
    assert render_dashboard(_FLEET) == render_dashboard(_FLEET)


def test_dashboard_handles_empty_fleet():
    html = render_dashboard([])
    assert "over 0 cell(s)" in html
    assert "Run-pair divergences" not in html


def test_divergence_links_pair_same_group_traced_cells():
    base = [_rec(1, "root", 0.0), _rec(2, "work", 1.0, parent=1)]
    twin = [_rec(7, "root", 0.5), _rec(9, "work", 1.5, parent=7)]
    other = [_rec(1, "root", 0.0), _rec(2, "rest", 1.0, parent=1)]
    html = render_dashboard([
        dashboard_cell("run a", group="g", records=base),
        dashboard_cell("run b", group="g", records=twin),
        dashboard_cell("run c", group="g", records=other),
        dashboard_cell("lone", group="other", records=base),
    ])
    assert "Run-pair divergences" in html
    pairs = html.split("<h3>Verdict</h3>")[1:]
    # Groups don't cross: 2 pairs within "g", none touching "lone".
    assert len(pairs) == 2
    assert all("lone" not in pair.split("</table>")[0] for pair in pairs)
    # a/b match structurally (sids and times are free to differ) ...
    assert "A: run a" in pairs[0]
    assert "runs are structurally identical" in pairs[0]
    assert '<th>matched spans</th><td class="num" colspan="2">2</td>' in pairs[0]
    # ... b/c diverge on the renamed child span.
    assert "First divergence" not in pairs[0]
    assert "A: run b" in pairs[1] and "trace divergence(s)" in pairs[1]
    assert "First divergence" in pairs[1]


def test_load_store_cells_reads_sweep_results(tmp_path):
    def entry(key, kind, config, point, seed, metrics):
        payload = {"config": config, "point": point}
        return {
            "key": key,
            "spec": {"kind": kind, "payload": payload, "seed": seed},
            "value": {"config": config, "point": point, "metrics": metrics},
            "wall": 0.1,
        }

    sub = tmp_path / "ab"
    sub.mkdir()
    (sub / "ab01.json").write_text(json.dumps(entry(
        "ab01", "repro.exec.profile_jobs:measure_cell",
        {"dR": 80}, {"client.cpu": 0.4}, 0, {"response_time": 0.9},
    )))
    (sub / "ab02.json").write_text(json.dumps(entry(
        "ab02", "repro.exec.profile_jobs:measure_cell",
        {"dR": 160}, {"client.cpu": 0.9}, 0, {"response_time": 0.2},
    )))
    (sub / "junk.json").write_text("{not json")  # skipped, not fatal

    cells = load_store_cells(tmp_path)
    assert len(cells) == 2
    assert [c["label"] for c in cells] == [
        "measure_cell dR=80 client.cpu=0.4 seed=0",
        "measure_cell dR=160 client.cpu=0.9 seed=0",
    ]
    assert all(c["group"] == "measure_cell" for c in cells)

    html = render_dashboard(cells)
    assert "qos: response_time" in html
    assert "metrics.response_time" in html  # per-cell Result table


def test_cell_from_context_labels_scenario_and_embeds_live_state():
    ctx = InteractiveContext("fig5sess", seed=0)
    ctx.run_until(5.0)
    cell = dashboard_cell_from_context(ctx)
    assert cell["label"].startswith("fig5sess@seed=0 t=")
    assert cell["group"] == "fig5sess" and cell["records"]
    assert cell["inspect"]["scenario"] == "fig5sess"
    html = render_dashboard([cell])
    assert "Live state" in html and "Adaptation timeline" in html
