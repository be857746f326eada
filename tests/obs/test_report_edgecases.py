"""Run-pair section edge cases: empty traces, one-sided runs, disjoint metrics.

The pair section is what operators read when two runs disagree (``repro
report X --compare Y``, or two same-group cells of ``repro dash``);
these tests pin its behaviour on degenerate inputs where the happy-path
tests (full chaos traces) can't exercise the branches.
"""

from repro.obs import dashboard_cell, render_dashboard
from repro.obs.record import SpanRecord


def _rec(sid, name, t0, parent=None, **attrs):
    return SpanRecord(
        sid=sid, parent=parent, name=name, cat="test", kind="span", t0=t0,
        attrs=attrs,
    )


def _counter(value):
    return {"kind": "counter", "value": value}


def _page(records_a, records_b, metrics_a=None, metrics_b=None):
    return render_dashboard([
        dashboard_cell("a", group="g", records=records_a, metrics=metrics_a),
        dashboard_cell("b", group="g", records=records_b, metrics=metrics_b),
    ], title="pair")


def _pair_section(html):
    """The page's run-pair section: from its heading to the first cell."""
    start = html.index("<h2>Run-pair divergences</h2>")
    return html[start:html.index('id="cell-0"', start)]


# -- empty span lists ------------------------------------------------------


def test_comparison_of_two_empty_traces_is_identical():
    html = _page([], [], {}, {})
    assert html.startswith("<!DOCTYPE html>")
    pair = _pair_section(html)
    assert "runs are structurally identical" in pair
    assert "First divergence" not in html
    assert "Metric deltas" not in html
    assert "<script" not in html


def test_comparison_of_empty_traces_is_deterministic():
    assert _page([], [], {}, {}) == _page([], [], {}, {})


# -- single-run input (one side empty) -------------------------------------


def test_single_run_against_empty_trace_diverges_on_side_a():
    records = [_rec(1, "root", 0.0), _rec(2, "work", 1.0, parent=1)]
    pair = _pair_section(_page(records, [], {}, {}))
    assert "First divergence" in pair
    assert "side a" in pair and "root[0]" in pair
    assert '<th>only in A</th><td class="num" colspan="2">2</td>' in pair
    # The divergence's counterpart-in-B paragraph must not render: there
    # is no counterpart when the whole run is missing.
    assert "Counterpart in B" not in pair


def test_single_run_against_empty_trace_mirrored_side_b():
    pair = _pair_section(_page([], [_rec(1, "root", 0.0)], {}, {}))
    assert "1 trace divergence(s)" in pair and "side b" in pair
    assert '<th>only in B</th><td class="num" colspan="2">1</td>' in pair


# -- disjoint metric namespaces --------------------------------------------


def test_disjoint_metric_namespaces_render_as_one_sided_rows():
    snap_a = {"client.sent": _counter(3), "client.retries": _counter(1)}
    snap_b = {"server.served": _counter(3), "server.shed": _counter(0)}
    pair = _pair_section(_page([], [], snap_a, snap_b))
    assert "Metric deltas" in pair
    for name, sides in (
        ("client.retries", ("present", "-")),
        ("client.sent", ("present", "-")),
        ("server.served", ("-", "present")),
        ("server.shed", ("-", "present")),
    ):
        assert (
            f'<tr><td><code>{name}</code></td><td class="num">{sides[0]}</td>'
            f'<td class="num">{sides[1]}</td>'
        ) in pair
    # Identical traces + disjoint metrics is still a non-identical verdict.
    assert "runs are structurally identical" not in pair
    assert "0 trace divergence(s)" in pair


def test_disjoint_namespaces_with_overlapping_counter_delta():
    snap_a = {"shared.count": _counter(2), "a.only": _counter(1)}
    snap_b = {"shared.count": _counter(5), "b.only": _counter(1)}
    pair = _pair_section(_page([], [], snap_a, snap_b))
    assert "1 metric change(s)" in pair
    assert (
        '<tr><td><code>shared.count</code></td><td class="num">2</td>'
        '<td class="num">5</td><td class="num">3</td></tr>'
    ) in pair
