"""Self-test of the benchmark, one iteration per workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )


def _summary(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced") / "result.json"
    proc = _bench("--workload", "profile_db", "--iterations", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "result.json"
    proc = _bench("--trace", "--iterations", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text())


def _metrics(result: dict, workload: str) -> dict:
    return result["workloads"][workload]["metrics"]


def test_spec_names_units_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["per_layer"]:
        assert LAYER_METRICS[m["name"]] == m["unit"], m
    # --compare reads every end-to-end metric as lower-is-better.
    assert all(m["better"] == "lower" for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_untraced_prints_spec_metrics(untraced):
    proc, _ = untraced
    summary = _summary(proc)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 11  # 5 children x 2 warm-ups + 1 timed
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for name, unit in expected.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$",
                         proc.stdout, re.M), name


def test_traced_prints_spec_metrics(traced):
    proc, result = traced
    summary = _summary(proc)
    assert summary["correct"] and summary["failed"] == 0
    expected = {
        f"{w}.{m['name']}": m["unit"]
        for w in WORKLOADS for m in SPEC["per_layer"]
    }
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for name in WORKLOADS:
        assert set(_metrics(result, name)) == set(LAYER_METRICS) | {"failed_ratio"}
        assert result["workloads"][name]["check"].startswith("golden")


def test_workloads_separate_the_layers(traced):
    _, result = traced
    fluid = {w: _metrics(result, w)["sim.fluid.mean_active"] for w in WORKLOADS}
    assert fluid.pop("shared_host") >= 16
    assert _metrics(result, "shared_host")["sim.fluid.max_active"] == 64
    assert all(active <= 3 for active in fluid.values()), fluid
    assert (_metrics(result, "shared_host")["sim.fluid.ns_per_call"]
            >= 2 * _metrics(result, "share_sweep")["sim.fluid.ns_per_call"])
    for name in WORKLOADS:
        observed = _metrics(result, name)["obs.spans"] > 0
        assert observed == (name == "adapt_faults_traced"), name
        assert (_metrics(result, name)["obs.self_s"] > 0) == observed, name
    assert _metrics(result, "crowd_columnar")["sim.aggregate.calls"] > 0
    assert (_metrics(result, "crowd_sessions")["sim.spawns"]
            >= 5 * _metrics(result, "crowd_columnar")["sim.spawns"])


def test_corrupted_golden_fails_every_iteration(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["profile_db"]["0"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    out = tmp_path / "result.json"
    proc = _bench("--workload", "profile_db", "--iterations", "1",
                  "--golden", str(path), "--out", str(out))
    assert proc.returncode != 0
    assert not _summary(proc)["correct"]
    assert _metrics(json.loads(out.read_text()), "profile_db")["failed_ratio"] == 1.0


def test_unknown_workload_is_rejected():
    proc = _bench("--workload", "bogus")
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_compare_flags_a_regression(untraced, tmp_path):
    _, result = untraced
    base = tmp_path / "base.json"
    base.write_text(json.dumps(result))
    same = _bench("--compare", str(base), str(base))
    assert same.returncode == 0, same.stdout
    assert " worse" not in same.stdout
    slower = json.loads(json.dumps(result))
    row = slower["workloads"]["profile_db"]
    row["samples"]["peak_rss_mb"] = [v * 2 for v in row["samples"]["peak_rss_mb"]]
    row["metrics"]["peak_rss_mb"] *= 2
    new = tmp_path / "new.json"
    new.write_text(json.dumps(slower))
    worse = _bench("--compare", str(base), str(new))
    assert worse.returncode == 1
    assert re.search(r"profile_db +peak_rss_mb .* worse$", worse.stdout, re.M)
