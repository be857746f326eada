"""Tests for `repro trace` / `repro metrics` (the observability CLI)."""

import json
import re

import pytest

from repro.cli import main
from repro.obs import from_jsonl
from repro.obs.query import adaptation_chains


def test_trace_human_timeline(capsys):
    assert main(["trace", "chaos", "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "== trace:" in out
    assert "== adaptation chains:" in out
    assert "monitor.violation@" in out
    assert "config.switch@" in out
    assert "== configuration dwell times ==" in out


def test_trace_json_reconstructs_chain(tmp_path):
    out_file = tmp_path / "chaos.jsonl"
    assert main(["trace", "chaos", "--json", "--out", str(out_file)]) == 0
    records = from_jsonl(out_file.read_text())
    assert records
    chains = adaptation_chains(records)
    assert chains
    names = [r.name for r in chains[0]]
    assert names[-1] == "config.switch"
    assert "monitor.violation" in names


def test_trace_chrome_format(tmp_path):
    out_file = tmp_path / "chaos.chrome.json"
    assert main(["trace", "chaos", "--chrome", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    events = payload["traceEvents"]
    assert {e["ph"] for e in events} == {"X", "i", "M"}
    assert any(e["name"] == "config.switch" for e in events)


def test_metrics_human_and_json(tmp_path, capsys):
    assert main(["metrics", "chaos"]) == 0
    out = capsys.readouterr().out
    assert "steer.acks" in out
    assert "histogram" in out

    out_file = tmp_path / "metrics.json"
    assert main(["metrics", "chaos", "--json", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "chaos"
    assert payload["metrics"]["adapt.decisions"]["kind"] == "counter"
    assert payload["summary"]["records"] > 0


def test_trace_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["trace", "nope"])


def test_metrics_csv_deterministic_and_well_formed(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["metrics", "chaos", "--format", "csv", "--out", str(a)]) == 0
    assert main(["metrics", "chaos", "--format", "csv", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes(), "CSV export must be byte-stable"
    lines = a.read_text().splitlines()
    assert lines[0] == "name,kind,field,t,value"
    # Deterministic column order implies sorted metric names.
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == sorted(names)


def test_usage_cli_reports_resources(capsys):
    assert main(["usage", "chaos"]) == 0
    out = capsys.readouterr().out
    assert "== usage account:" in out
    assert "client.cpu" in out
    assert "configuration attribution marks" in out


def test_usage_cli_json(tmp_path):
    out_file = tmp_path / "usage.json"
    assert main(["usage", "chaos", "--json", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "chaos"
    resources = payload["usage"]["resources"]
    assert any(r["served"] > 0 for r in resources.values())
    assert len(payload["usage"]["config_marks"]) >= 2


def test_diff_cli_same_seed_exits_zero(capsys):
    assert main(["diff", "chaos", "chaos"]) == 0
    out = capsys.readouterr().out
    assert "identical" in out.lower()


def test_diff_cli_different_seed_exits_nonzero(capsys):
    assert main(["diff", "chaos", "chaos", "--seed-b", "1"]) == 1
    out = capsys.readouterr().out
    assert "first divergence" in out.lower()


def test_report_cli_writes_selfcontained_html(tmp_path):
    out_file = tmp_path / "report.html"
    assert main(["report", "chaos", "--out", str(out_file)]) == 0
    html = out_file.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html, "report must be self-contained, no JS"
    assert "Adaptation timeline" in html
    assert "Resource utilization" in html
    assert "config.switch" not in html or True  # layout detail, not contract


def test_report_cli_compare_mode(tmp_path):
    out_file = tmp_path / "cmp.html"
    assert (
        main(
            ["report", "chaos", "--compare", "chaos", "--seed-b", "1",
             "--out", str(out_file)]
        )
        == 0
    )
    html = out_file.read_text()
    assert "first divergence" in html.lower()


def test_report_compare_and_dash_show_the_same_first_divergence(tmp_path):
    """`repro report X --compare Y` and a `repro dash` page over the same
    two runs draw one pair section: same divergence key, same chain."""
    from repro.obs import diff_traces, render_dashboard
    from repro.obs.cli import _traced_cell
    from repro.obs.diff import format_key

    out_file = tmp_path / "cmp.html"
    argv = ["report", "chaos", "--compare", "chaos", "--seed-b", "1"]
    assert main(argv + ["--out", str(out_file)]) == 0
    cells = [_traced_cell("chaos", 0), _traced_cell("chaos", 1)]
    pages = [out_file.read_text(), render_dashboard(cells)]

    def first_divergence(html):
        key = re.search(r"<h3>First divergence</h3><p><code>(.*?)</code>", html)
        chain = re.search(r'<ol class="chain">(.*?)</ol>', html)
        return key.group(1), chain.group(1)

    report_key, report_chain = first_divergence(pages[0])
    assert first_divergence(pages[1]) == (report_key, report_chain)
    expected = diff_traces(cells[0]["records"], cells[1]["records"])
    assert report_key == format_key(expected.first_divergence.key)
    assert report_chain.count("<li>") == len(expected.first_divergence.causal_chain)


def test_report_cli_crowd_section(tmp_path):
    """The crowd run's report carries the per-class QoS + arrival panel."""
    out_file = tmp_path / "crowd.html"
    assert main(["report", "crowd", "--out", str(out_file)]) == 0
    html = out_file.read_text()
    assert "<script" not in html, "report must be self-contained, no JS"
    assert "<h3>Crowd</h3>" in html
    # One row per class, satisfaction bar plus arrival-rate timeline.
    assert "crowd.free.rate" in html
    assert "crowd.premium.rate" in html
    assert "QoS satisfaction" in html


def test_json_output_into_a_reader_that_closes_early_exits_quietly():
    """``repro metrics crowd --json | head -1``: the reader takes one line
    and closes the pipe while the CLI is still writing ~100 kB (more than
    a pipe buffer holds).  No traceback, no shutdown complaint, exit 0."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "metrics", "crowd", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert stderr == ""
