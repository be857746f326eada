"""Tests for ``repro bench check`` — baselines, field kinds, --block-on,
--update."""

import json

import pytest

from repro.analysis.bench import (
    _bench_filename,
    bench_main,
    compare_dirs,
    compare_records,
)

BASELINE = {
    "bytes_identical": True,   # bool -> exact
    "cells": 24,               # int  -> exact
    "wall_time_s": 1.0,        # timing float -> band, lower is better
    "speedup": 2.0,            # throughput float -> band, higher is better
    "cpu_count": 8,            # info: never fails
}


def by_field(rows):
    return {r["field"]: r for r in rows}


def test_exact_fields_regress_on_any_drift():
    fresh = dict(BASELINE, bytes_identical=False, cells=23)
    rows = by_field(compare_records("b", fresh, BASELINE))
    assert rows["bytes_identical"]["status"] == "regression"
    assert rows["cells"]["status"] == "regression"
    assert rows["cpu_count"]["status"] == "info"


def test_band_fields_have_direction():
    # Timing doubled (past 50% tolerance) -> regression; speedup doubled
    # -> improvement, never a failure.
    fresh = dict(BASELINE, wall_time_s=2.0, speedup=4.0)
    rows = by_field(compare_records("b", fresh, BASELINE))
    assert rows["wall_time_s"]["status"] == "regression"
    assert rows["speedup"]["status"] == "improved"
    # The good direction for a timing is also just an improvement.
    rows = by_field(compare_records("b", dict(BASELINE, wall_time_s=0.1),
                                    BASELINE))
    assert rows["wall_time_s"]["status"] == "improved"


def test_ns_per_op_fields_are_timings():
    base = dict(BASELINE, spawn_exit_ns=1000.0)
    rows = by_field(compare_records("b", dict(base, spawn_exit_ns=2000.0), base))
    assert rows["spawn_exit_ns"]["status"] == "regression"
    rows = by_field(compare_records("b", dict(base, spawn_exit_ns=400.0), base))
    assert rows["spawn_exit_ns"]["status"] == "improved"


@pytest.mark.parametrize(
    "baseline, fresh, status",
    [
        (0.0023, 0.026, "ok"),          # +2.4 % cost, not +1030 %
        (0.0023, 0.9, "regression"),    # the variant got 1.9x slower
        (-0.017, 0.02, "ok"),           # a negative baseline bands sensibly
        (1.5, 0.1, "improved"),         # cost fell from 2.5x to 1.1x
    ],
)
def test_overhead_fields_band_the_variant_cost(baseline, fresh, status):
    rows = by_field(compare_records(
        "b", {"overhead_profiled": fresh}, {"overhead_profiled": baseline}))
    assert rows["overhead_profiled"]["status"] == status
    expected = (1 + fresh) / (1 + baseline) - 1
    assert rows["overhead_profiled"]["delta_rel"] == round(expected, 4)


def test_crowd_overhead_reads_a_2x_slowdown_as_100_percent():
    # BENCH_crowd.json stores crowd_s / baseline_s - 1 (0.453x -> -0.547);
    # the crowd run getting 2x slower (0.906x -> -0.094) is +100 %.  Stored
    # as the plain ratio, the same slowdown read +31 % and passed.
    field = "crowd_vs_baseline_overhead"
    rows = by_field(compare_records("b", {field: -0.094}, {field: -0.547}))
    assert rows[field]["delta_rel"] == pytest.approx(1.0, abs=1e-3)
    assert rows[field]["status"] == "regression"
    rows = by_field(compare_records("b", {field: 0.906}, {field: 0.453}))
    assert rows[field]["delta_rel"] == pytest.approx(0.312, abs=1e-3)


def test_non_overhead_timings_band_by_plain_relative_change():
    base = {"wall_time_s": 0.0023, "spawn_exit_ns": 1000.0}
    rows = by_field(compare_records(
        "b", {"wall_time_s": 0.026, "spawn_exit_ns": 1400.0}, base))
    assert rows["wall_time_s"]["status"] == "regression"
    assert rows["wall_time_s"]["delta_rel"] == round((0.026 - 0.0023) / 0.0023, 4)
    assert rows["spawn_exit_ns"]["status"] == "ok"
    assert rows["spawn_exit_ns"]["delta_rel"] == 0.4


def test_missing_field_is_a_structural_regression():
    fresh = {k: v for k, v in BASELINE.items() if k != "cells"}
    rows = by_field(compare_records("b", fresh, BASELINE))
    assert rows["cells"]["status"] == "regression"
    assert rows["cells"]["kind"] == "missing"


def write_pair(tmp_path, fresh, baseline):
    fresh_dir, base_dir = tmp_path / "fresh", tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    (fresh_dir / "BENCH_x.json").write_text(json.dumps(fresh))
    (base_dir / "BENCH_x.json").write_text(json.dumps(baseline))
    return fresh_dir, base_dir


def test_compare_dirs_separates_exact_from_band_regressions(tmp_path):
    fresh = dict(BASELINE, cells=23, wall_time_s=2.0)
    fresh_dir, base_dir = write_pair(tmp_path, fresh, BASELINE)
    report = compare_dirs(fresh_dir, base_dir)
    assert report["regressions"] == 2
    assert report["exact_regressions"] == 1
    assert not report["ok"]


@pytest.mark.parametrize(
    "fresh_overrides,block_on,expected_exit",
    [
        ({}, "all", 0),                      # clean either way
        ({}, "exact", 0),
        ({"wall_time_s": 2.0}, "all", 1),    # band drift blocks under 'all'
        ({"wall_time_s": 2.0}, "exact", 0),  # ...but is advisory under 'exact'
        ({"cells": 23}, "exact", 1),         # exact drift always blocks
        ({"cells": 23}, "all", 1),
    ],
)
def test_block_on_policy_sets_exit_code(tmp_path, capsys,
                                        fresh_overrides, block_on,
                                        expected_exit):
    fresh_dir, base_dir = write_pair(
        tmp_path, dict(BASELINE, **fresh_overrides), BASELINE
    )
    rc = bench_main([
        "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--block-on", block_on,
    ])
    capsys.readouterr()
    assert rc == expected_exit


def test_json_report_records_the_policy(tmp_path, capsys):
    fresh_dir, base_dir = write_pair(
        tmp_path, dict(BASELINE, wall_time_s=2.0), BASELINE
    )
    out = tmp_path / "report.json"
    rc = bench_main([
        "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--block-on", "exact", "--json", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["block_on"] == "exact"
    assert report["regressions"] == 1
    assert report["exact_regressions"] == 0
    assert not report["ok"]  # 'ok' still reports *any* regression


def test_missing_benchmark_file_blocks_under_exact(tmp_path, capsys):
    fresh_dir, base_dir = tmp_path / "fresh", tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    (base_dir / "BENCH_x.json").write_text(json.dumps(BASELINE))
    rc = bench_main([
        "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--block-on", "exact",
    ])
    capsys.readouterr()
    assert rc == 1


def test_update_name_normalisation():
    assert _bench_filename("sim") == "BENCH_sim.json"
    assert _bench_filename("BENCH_sim") == "BENCH_sim.json"
    assert _bench_filename("BENCH_sim.json") == "BENCH_sim.json"


def test_update_accepts_drift_and_rewrites_baseline(tmp_path, capsys):
    # Exact drift (cells) would normally block, but --update x accepts
    # the fresh numbers: exit 0 and the baseline copy is overwritten.
    fresh = dict(BASELINE, cells=23, wall_time_s=2.0)
    fresh_dir, base_dir = write_pair(tmp_path, fresh, BASELINE)
    out = tmp_path / "report.json"
    rc = bench_main([
        "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--update", "x", "--json", "--out", str(out),
    ])
    capsys.readouterr()
    assert rc == 0
    assert json.loads((base_dir / "BENCH_x.json").read_text()) == fresh
    report = json.loads(out.read_text())
    assert report["updated"] == ["BENCH_x.json"]
    assert report["ok"]
    statuses = {r["field"]: r["status"] for r in report["rows"]}
    assert statuses["cells"] == "updated"
    assert statuses["wall_time_s"] == "updated"
    assert statuses["bytes_identical"] == "ok"  # unchanged fields stay ok


def test_update_only_unblocks_the_named_benchmark(tmp_path, capsys):
    fresh_dir, base_dir = write_pair(
        tmp_path, dict(BASELINE, cells=23), BASELINE
    )
    (fresh_dir / "BENCH_y.json").write_text(json.dumps({"cells": 9}))
    (base_dir / "BENCH_y.json").write_text(json.dumps({"cells": 10}))
    rc = bench_main([
        "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--update", "y",
    ])
    capsys.readouterr()
    # BENCH_x's exact drift still blocks; only BENCH_y was accepted.
    assert rc == 1
    assert json.loads((base_dir / "BENCH_y.json").read_text()) == {"cells": 9}
    assert json.loads((base_dir / "BENCH_x.json").read_text()) == BASELINE


def test_update_missing_fresh_record_is_usage_error(tmp_path, capsys):
    fresh_dir, base_dir = write_pair(tmp_path, BASELINE, BASELINE)
    rc = bench_main([
        "check", "--fresh", str(fresh_dir), "--baseline", str(base_dir),
        "--update", "nope",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert "BENCH_nope.json" in err


def test_update_with_shared_fresh_and_baseline_dir(tmp_path, capsys):
    # The default invocation compares the committed copies to themselves;
    # --update must not corrupt the file by copying it onto itself.
    d = tmp_path / "out"
    d.mkdir()
    (d / "BENCH_x.json").write_text(json.dumps(BASELINE))
    rc = bench_main(["check", "--fresh", str(d), "--update", "x"])
    capsys.readouterr()
    assert rc == 0
    assert json.loads((d / "BENCH_x.json").read_text()) == BASELINE
