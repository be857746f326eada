"""``repro bench check`` — compare fresh benchmark numbers to baselines.

Benchmarks record their headline numbers as ``BENCH_*.json`` files in
``benchmarks/out/`` (e.g. ``BENCH_exec.json`` from the sweep-engine
benchmark, ``BENCH_obs.json`` from the observability benchmark).  The
committed copies are the *baselines*; a CI run regenerates them and this
command reports what moved.

Comparison rules, per field:

* **exact** — booleans, integers, and strings must match bit-for-bit.
  These encode deterministic guarantees (``bytes_identical``, cell
  counts), so any drift is a regression.
* **band** — floats are wall-clock-derived (timings, speedups, overhead
  ratios) and compared within a relative tolerance band.  Direction
  matters: a timing (key ending ``_s`` or ``_ns``, or containing
  ``overhead``) only regresses when it *grows* past the band; a throughput-like value
  (``speedup``, ``cache_hit_rate``) only regresses when it *shrinks*.
  An overhead (``t_variant / t_base - 1``, often near or below zero) is
  banded as the relative change of the variant's cost,
  ``(1 + fresh) / (1 + baseline) - 1``.
  Movement past the band in the good direction is an ``improved`` note,
  not a failure.
* **info** — machine-dependent fields (``cpu_count``,
  ``speedup_asserted``) are reported but never fail the check.

Exit codes: 0 no blocking regressions, 1 blocking regressions (or
missing benchmarks), 2 usage error.  ``--block-on`` picks what blocks:
``all`` (the default) fails on any regression, while ``exact`` fails
only on exact-field and structural regressions (missing files/fields,
unreadable records) and downgrades band drift to a warning — that is
what CI runs, so the deterministic guarantees gate merges while
wall-clock noise stays advisory.  ``--out`` writes the full comparison
as JSON so CI can upload it as an artifact.

``--update <name>`` (repeatable) accepts the fresh numbers of the named
benchmark as the new baseline: the comparison still reports what moved
(as ``updated`` rows), but that benchmark's drift never blocks, and the
fresh record is copied over the baseline copy after the report.  Names
are short (``sim`` means ``BENCH_sim.json``); re-run the benchmark
first — updating from a stale fresh directory is refused only when the
file is missing outright.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["apply_updates", "bench_main", "compare_dirs", "compare_records"]

#: Default relative tolerance for wall-clock-derived floats.  Generous on
#: purpose: CI machines are noisy and the exact fields carry the
#: deterministic guarantees.
DEFAULT_TOLERANCE = 0.5

#: Fields reported but never compared: they describe the machine, not the
#: code under test.
_INFO_FIELDS = frozenset({"cpu_count", "speedup_asserted"})


def _bench_filename(name: str) -> str:
    """Normalise a benchmark name (``sim`` / ``BENCH_sim`` /
    ``BENCH_sim.json``) to its file name."""
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if not name.startswith("BENCH_"):
        name = f"BENCH_{name}"
    return f"{name}.json"


def _is_timing(key: str) -> bool:
    """True when lower is better for this float field."""
    return key.endswith(("_s", "_ns")) or "overhead" in key


def _field_kind(key: str, value) -> str:
    if key in _INFO_FIELDS:
        return "info"
    if isinstance(value, bool) or isinstance(value, int):
        return "exact"
    if isinstance(value, float):
        return "band"
    return "exact"


def compare_records(
    name: str, fresh: Dict, baseline: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[Dict]:
    """Field-by-field comparison of one benchmark record pair."""
    rows: List[Dict] = []
    for key in sorted(set(fresh) | set(baseline)):
        if key not in baseline:
            rows.append(
                {"benchmark": name, "field": key, "kind": "new",
                 "fresh": fresh[key], "baseline": None, "status": "new"}
            )
            continue
        if key not in fresh:
            rows.append(
                {"benchmark": name, "field": key, "kind": "missing",
                 "fresh": None, "baseline": baseline[key],
                 "status": "regression"}
            )
            continue
        f, b = fresh[key], baseline[key]
        kind = _field_kind(key, b)
        row = {
            "benchmark": name, "field": key, "kind": kind,
            "fresh": f, "baseline": b,
        }
        if kind == "info":
            row["status"] = "info"
        elif kind == "exact":
            row["status"] = "ok" if f == b else "regression"
        else:  # band
            f, b = float(f), float(b)
            if "overhead" in key:
                # An overhead is t_variant / t_base - 1 and may sit near or
                # below zero: band the variant's cost, (1 + f) / (1 + b).
                f, b = 1.0 + f, 1.0 + b
            base = abs(b)
            delta = f - b
            rel = delta / base if base > 1e-12 else (0.0 if delta == 0 else float("inf"))
            row["delta_rel"] = round(rel, 4) if rel != float("inf") else "inf"
            worse = rel > tolerance if _is_timing(key) else rel < -tolerance
            better = rel < -tolerance if _is_timing(key) else rel > tolerance
            row["status"] = (
                "regression" if worse else "improved" if better else "ok"
            )
        rows.append(row)
    return rows


def compare_dirs(
    fresh_dir: Path, baseline_dir: Path, tolerance: float = DEFAULT_TOLERANCE
) -> Dict:
    """Compare every ``BENCH_*.json`` pair across two directories."""
    fresh_files = {p.name: p for p in sorted(fresh_dir.glob("BENCH_*.json"))}
    base_files = {p.name: p for p in sorted(baseline_dir.glob("BENCH_*.json"))}
    rows: List[Dict] = []
    for name in sorted(set(fresh_files) | set(base_files)):
        if name not in base_files:
            rows.append(
                {"benchmark": name, "field": "*", "kind": "new",
                 "fresh": "present", "baseline": None, "status": "new"}
            )
            continue
        if name not in fresh_files:
            rows.append(
                {"benchmark": name, "field": "*", "kind": "missing",
                 "fresh": None, "baseline": "present", "status": "regression"}
            )
            continue
        try:
            fresh = json.loads(fresh_files[name].read_text())
            baseline = json.loads(base_files[name].read_text())
        except (OSError, json.JSONDecodeError) as exc:
            rows.append(
                {"benchmark": name, "field": "*", "kind": "unreadable",
                 "fresh": str(exc), "baseline": None, "status": "regression"}
            )
            continue
        rows.extend(compare_records(name, fresh, baseline, tolerance))
    regressions = [r for r in rows if r["status"] == "regression"]
    blocking = [r for r in regressions if r["kind"] != "band"]
    return {
        "tolerance": tolerance,
        "benchmarks": sorted(set(fresh_files) | set(base_files)),
        "rows": rows,
        "regressions": len(regressions),
        # Band (wall-clock) regressions are separable so callers can gate
        # on the deterministic fields only (``--block-on exact``).
        "exact_regressions": len(blocking),
        "ok": not regressions,
    }


def apply_updates(
    report: Dict, names: List[str], fresh_dir: Path, baseline_dir: Path
) -> List[str]:
    """Accept fresh numbers as the new baseline for the named benchmarks.

    Re-marks the named benchmarks' drift rows as ``updated`` (so they no
    longer block), recomputes the report's regression counts, and copies
    each fresh record over its baseline copy.  Returns a list of error
    strings (unknown names, missing fresh files); on any error nothing
    is copied.
    """
    filenames = [_bench_filename(n) for n in names]
    errors = []
    for filename in filenames:
        if not (fresh_dir / filename).is_file():
            errors.append(
                f"--update {filename}: no fresh record at {fresh_dir / filename}"
            )
    if errors:
        return errors
    updated = set(filenames)
    for row in report["rows"]:
        if row["benchmark"] in updated and row["status"] in (
            "regression", "improved", "new"
        ):
            row["status"] = "updated"
    regressions = [r for r in report["rows"] if r["status"] == "regression"]
    report["regressions"] = len(regressions)
    report["exact_regressions"] = len(
        [r for r in regressions if r["kind"] != "band"]
    )
    report["ok"] = not regressions
    report["updated"] = sorted(updated)
    for filename in filenames:
        src, dst = fresh_dir / filename, baseline_dir / filename
        if src.resolve() != dst.resolve():
            dst.write_text(src.read_text())
    return []


def _render(report: Dict) -> str:
    lines = []
    current = None
    for row in report["rows"]:
        if row["benchmark"] != current:
            current = row["benchmark"]
            lines.append(f"== {current} ==")
        mark = {
            "ok": " ", "info": "i", "new": "+", "improved": "^",
            "regression": "!", "updated": "~",
        }[row["status"]]
        detail = f"{row['fresh']!r} vs baseline {row['baseline']!r}"
        if "delta_rel" in row:
            detail += f" ({row['delta_rel']:+.1%})" if isinstance(
                row["delta_rel"], float
            ) else f" (delta {row['delta_rel']})"
        lines.append(f" {mark} {row['field']}: {detail} [{row['status']}]")
    verdict = (
        "no regressions"
        if report["ok"]
        else f"{report['regressions']} regression(s)"
    )
    lines.append(
        f"repro bench check: {verdict} across "
        f"{len(report['benchmarks'])} benchmark file(s) "
        f"(tolerance {report['tolerance']:.0%} on wall-clock fields)"
    )
    if report.get("updated"):
        lines.append(
            "baselines updated: " + ", ".join(report["updated"])
        )
    if report.get("block_on") == "exact" and not report["ok"]:
        band_only = report["regressions"] - report["exact_regressions"]
        if report["exact_regressions"]:
            lines.append(
                f"blocking: {report['exact_regressions']} exact-field "
                "regression(s) [--block-on exact]"
            )
        elif band_only:
            lines.append(
                f"advisory only: {band_only} wall-clock regression(s) "
                "within --block-on exact policy"
            )
    return "\n".join(lines)


def bench_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Compare fresh benchmark numbers against committed baselines.",
    )
    sub = parser.add_subparsers(dest="command")
    check = sub.add_parser(
        "check", help="diff BENCH_*.json files between two directories"
    )
    check.add_argument(
        "--fresh",
        type=Path,
        default=Path("benchmarks/out"),
        help="directory holding freshly generated BENCH_*.json files "
        "(default: benchmarks/out)",
    )
    check.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="directory holding baseline BENCH_*.json files "
        "(default: same as --fresh, i.e. the committed copies)",
    )
    check.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative tolerance band for wall-clock fields "
        f"(default {DEFAULT_TOLERANCE})",
    )
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.add_argument(
        "--block-on",
        choices=("all", "exact"),
        default="all",
        help="which regressions set a failing exit code: 'all' (default) "
        "or 'exact' (only deterministic/exact-field and structural "
        "regressions block; wall-clock band drift is advisory)",
    )
    check.add_argument(
        "--out", type=Path, default=None,
        help="also write the JSON comparison report to this file",
    )
    check.add_argument(
        "--update", action="append", metavar="NAME", default=None,
        help="accept the fresh numbers of this benchmark as the new "
        "baseline ('sim' means BENCH_sim.json; repeatable): its drift "
        "is reported but never blocks, and the fresh record is copied "
        "over the baseline copy",
    )
    args = parser.parse_args(argv)

    if args.command != "check":
        parser.print_help()
        return 2

    baseline_dir = args.baseline if args.baseline is not None else args.fresh
    for label, path in (("fresh", args.fresh), ("baseline", baseline_dir)):
        if not path.is_dir():
            print(f"repro bench check: no such {label} directory: {path}",
                  file=sys.stderr)
            return 2

    report = compare_dirs(args.fresh, baseline_dir, tolerance=args.tolerance)
    report["block_on"] = args.block_on
    if args.update:
        errors = apply_updates(report, args.update, args.fresh, baseline_dir)
        if errors:
            for error in errors:
                print(f"repro bench check: {error}", file=sys.stderr)
            return 2
    if not report["benchmarks"]:
        print(
            f"repro bench check: no BENCH_*.json files under {args.fresh} "
            f"or {baseline_dir}",
            file=sys.stderr,
        )
        return 2

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(_render(report))
    blocking = (
        report["regressions"] if args.block_on == "all"
        else report["exact_regressions"]
    )
    return 0 if not blocking else 1
