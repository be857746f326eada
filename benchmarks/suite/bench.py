"""The repository benchmark: seven seeded workloads, run closed-loop.

Usage, from the repository root::

    python3 benchmarks/suite/bench.py [--workload NAME]... [--seed N]
        [--seconds S | --iterations N] [--trace [0|1]] [--out FILE]
    python3 benchmarks/suite/bench.py --compare BASE.json NEW.json
    python3 benchmarks/suite/bench.py --write-golden

One caller runs each workload; the next iteration starts only after the
previous one returns.  The parent process only orchestrates: every
measurement happens in a fresh child interpreter, and at most one child
is alive at a time, so the machine never runs more than two benchmark
processes.

Untraced (the default), each workload runs in five children one after
another.  Each child imports the workload's entry modules (timed), runs
two untimed warm-up iterations, then its fifth of the timed iterations,
each after a ``gc.collect()`` (gc stays on inside the iteration).
Spreading the timed iterations over all five children averages them over
the whole run rather than one window of it, which keeps the result
steadier on a machine whose speed drifts.

``wall_s``/``wall_p75_s`` are the median/75th percentile of all timed
iterations; ``setup_s`` is import + (first - second iteration) and
``peak_rss_mb`` the child's ``ru_maxrss`` after its two warm-ups, both
medians over the five children.  ``failed_ratio`` counts every iteration
(timed, warm-up and traced) that raised, broke an invariant or missed
its digest: ``golden.json`` for seeds 0 and 1, and for any other seed
the digest of the run's own first iteration.

``--trace`` replaces the untraced run with one traced child per workload
(see ``layers.py``): one cold iteration, then traced and untraced warm
iterations alternating, at least three of each.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the BENCHMARK.json end-to-end
metrics, or its per-layer metrics with ``--trace``; prefixed by the
workload name when more than one workload ran).  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median, median_low, quantiles
from time import perf_counter  # repro: allow[DET101] -- benchmark harness timing
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYER_METRICS, LayerTracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_invariants,
    crowd_requests,
    digest,
    switch_count,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = HERE / "golden.json"

#: Children per untraced workload: each gives one set-up sample and a
#: fifth of the timed iterations.
CHILDREN = 5
#: Fewest timed iterations per child, and warm traced iterations, that a
#: time-boxed run makes.
MIN_TIMED = 1
MIN_WARM_TRACED = 3
CHILD_TIMEOUT_S = 150.0


def _clock() -> float:
    return perf_counter()  # repro: allow[DET101] -- benchmark harness timing


def _p75(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return quantiles(samples, n=4)[2]


# -- child side ---------------------------------------------------------------


def _import_modules(workload) -> float:
    t0 = _clock()
    for module in workload.modules:
        importlib.import_module(module)
    return _clock() - t0


def _iteration(workload, seed: int, out: dict) -> Tuple[float, dict]:
    """Run one iteration; record its digest and problems.

    Returns (seconds, payload); the payload is empty if the run raised.
    """
    gc.collect()
    t0 = _clock()
    try:
        payload = workload.run(seed)
    except Exception:  # an iteration that raises is a counted failure
        out["digests"].append(None)
        out["problems"].append([traceback.format_exc(limit=3)])
        return _clock() - t0, {}
    elapsed = _clock() - t0
    out["digests"].append(digest(payload))
    out["problems"].append(check_invariants(workload.name, payload))
    return elapsed, payload


def _keep_going(done: int, start: float, iterations, seconds, least: int) -> bool:
    if iterations is not None:
        return done < iterations
    if seconds is None:
        return done < least
    return done < least or _clock() - start < seconds


def run_child(name: str, seed: int, iterations, seconds) -> dict:
    """Import, two warm-ups, then timed iterations (by count or time)."""
    workload = WORKLOADS[name]
    out = {"digests": [], "problems": [], "timed": []}
    out["import_s"] = _import_modules(workload)
    out["warmup"] = [_iteration(workload, seed, out)[0] for _ in range(2)]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = _clock()
    while _keep_going(len(out["timed"]), start, iterations, seconds, MIN_TIMED):
        out["timed"].append(_iteration(workload, seed, out)[0])
    return out


def trace_child(name: str, seed: int, iterations, seconds, spans: Path) -> dict:
    """Cold traced iteration, then traced/untraced warm ones alternating."""
    workload = WORKLOADS[name]
    out = {"digests": [], "problems": [], "event_mismatch": []}
    import_s = _import_modules(workload)
    tracer = LayerTracer()
    tracer.install()
    tracer.begin_iteration(0, record=False)
    cold_s, _ = _iteration(workload, seed, out)
    cold = layer_metrics(tracer, 0)
    traced_s: List[float] = []
    untraced_s: List[float] = []
    per_iteration: List[Dict[str, float]] = []
    start = _clock()
    while _keep_going(len(traced_s), start, iterations, seconds, MIN_WARM_TRACED):
        tracer.begin_iteration(len(traced_s) + 1, record=False)
        elapsed, payload = _iteration(workload, seed, out)
        traced_s.append(elapsed)
        per_iteration.append(_checked_metrics(tracer, payload, out))
        tracer.uninstall()
        untraced_s.append(_iteration(workload, seed, out)[0])
        tracer.install()
    # Keeping raw spans slows an iteration, so it gets one of its own,
    # outside the timings above.
    tracer.begin_iteration(len(traced_s) + 1, record=True)
    _, payload = _iteration(workload, seed, out)
    _checked_metrics(tracer, payload, out)
    _write_spans(spans, tracer.spans)
    tracer.uninstall()

    # median_low keeps each value one that was measured (counts stay ints).
    metrics = {
        key: median_low(m[key] for m in per_iteration) for key in per_iteration[0]
    }
    for key in ("codecs.calls", "codecs.self_s"):
        metrics[key] = cold[key]
    untraced = median(untraced_s)
    requests = crowd_requests(payload)
    metrics["crowd.requests"] = requests
    metrics["crowd.requests_per_s"] = requests / untraced
    metrics["experiments.import_s"] = import_s
    metrics["experiments.cold_extra_s"] = cold_s - traced_s[0]
    metrics["bench.trace_overhead"] = median(traced_s) / untraced - 1.0
    out["metrics"] = metrics
    return out


def _checked_metrics(
    tracer: LayerTracer, payload: dict, out: dict
) -> Dict[str, float]:
    """Layer metrics of the iteration just traced; flags lost kernel events."""
    metrics = layer_metrics(tracer, switch_count(payload))
    if metrics["sim.step.calls"] != metrics["sim.events"]:
        out["event_mismatch"].append(
            [tracer.iteration, metrics["sim.step.calls"], metrics["sim.events"]]
        )
    return metrics


def _write_spans(path: Path, spans) -> None:
    """One JSON object per span; times in ns from the iteration's first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min(span[2] for span in spans)
    with path.open("w") as fh:
        for sid, name, start, end, parent, iteration in spans:
            record = {
                "id": sid, "name": name,
                "start_ns": round((start - origin) * 1e9),
                "end_ns": round((end - origin) * 1e9),
                "parent": parent, "iteration": iteration,
            }
            fh.write(json.dumps(record) + "\n")  # repro: allow[DET501] -- host timings of the benchmark, not sim state


# -- parent side --------------------------------------------------------------


def _spawn(args: List[str]) -> dict:
    """Run one child to completion; its last stdout line is its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: child {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"bench: child {' '.join(args)} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def load_golden(path: Path) -> Dict[str, Dict[str, str]]:
    golden = json.loads(path.read_text())
    for seed, value in sorted(golden.get("adapt_faults", {}).items()):
        if golden.get("adapt_faults_traced", {}).get(seed) != value:
            raise SystemExit(
                f"bench: {path} gives adapt_faults_traced a different digest "
                f"from adapt_faults for seed {seed}; observers must be passive"
            )
    return golden


class Verdict:
    """Counts attempted and failed iterations of one workload."""

    def __init__(self, name: str, seed: int, golden) -> None:
        self.expected = golden.get(name, {}).get(str(seed))
        self.check = (
            "golden digest + invariants" if self.expected is not None
            else "invariants + identical digests across iterations"
        )
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, child: dict) -> None:
        for d, problems in zip(child["digests"], child["problems"]):
            self.attempted += 1
            if self.expected is None and d is not None:
                self.expected = d
            if d is None or d != self.expected:
                problems = problems + [f"digest {d} != expected {self.expected}"]
            if problems:
                self.failed += 1
                self.failures.extend(problems[:1])

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def result(self, metrics: dict, **extra) -> dict:
        return {
            "check": self.check,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:5],
            "metrics": {**metrics, "failed_ratio": self.ratio},
            **extra,
        }


def measure(name: str, seed: int, iterations, seconds, golden) -> dict:
    """The untraced end-to-end measurement of one workload."""
    verdict = Verdict(name, seed, golden)
    if iterations is None:
        timing = [["--seconds", repr(seconds / CHILDREN)]] * CHILDREN
    else:
        timing = [
            ["--iterations", str(iterations // CHILDREN + (i < iterations % CHILDREN))]
            for i in range(CHILDREN)
        ]
    children = [
        _spawn(["--child", "run", "--workload", name, "--seed", str(seed), *t])
        for t in timing
    ]
    for child in children:
        verdict.add(child)
    wall = [t for c in children for t in c["timed"]]
    setup = [c["import_s"] + c["warmup"][0] - c["warmup"][1] for c in children]
    rss = [c["rss_mb"] for c in children]
    metrics = {
        "wall_s": median(wall),
        "wall_p75_s": _p75(wall),
        "setup_s": median(setup),
        "peak_rss_mb": median(rss),
    }
    samples = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
    return verdict.result(metrics, samples=samples)


def measure_traced(name: str, seed: int, iterations, seconds, golden,
                   spans_dir: Path) -> dict:
    """The traced per-layer measurement of one workload."""
    verdict = Verdict(name, seed, golden)
    args = ["--child", "trace", "--workload", name, "--seed", str(seed),
            "--spans", str(spans_dir / f"spans_{name}.jsonl")]
    if iterations is not None:
        args += ["--iterations", str(iterations)]
    elif seconds is not None:
        args += ["--seconds", repr(seconds)]
    child = _spawn(args)
    if child["event_mismatch"]:
        raise SystemExit(
            f"bench: {name}: Simulator.step calls != kernel profiler steps "
            f"(iteration, calls, events): {child['event_mismatch']}; events "
            "no longer route through the public Simulator.step, so the "
            "per-layer numbers would be silently wrong"
        )
    verdict.add(child)
    return verdict.result(child["metrics"])


def _summary_line(results: Dict[str, dict], traced: bool) -> dict:
    section = SPEC["per_layer" if traced else "end_to_end"]
    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for m in section:
            key = m["name"] if single else f"{name}.{m['name']}"
            metrics[key] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_benchmark(args) -> int:
    golden = load_golden(args.golden)
    traced = bool(args.trace)
    names = args.workload or list(WORKLOADS)
    out_path = Path(args.out) if args.out else None
    spans_dir = out_path.parent if out_path is not None else HERE / "out"
    units = {
        **LAYER_METRICS,
        **{m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "failed_ratio": "ratio",
    }
    results: Dict[str, dict] = {}
    for name in names:
        iterations = args.iterations
        if iterations is None and args.seconds is None and not traced:
            iterations = WORKLOADS[name].iterations
        if traced:
            result = measure_traced(
                name, args.seed, iterations, args.seconds, golden, spans_dir)
        else:
            result = measure(name, args.seed, iterations, args.seconds, golden)
        results[name] = result
        print(f"{name}: {result['check']}; attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
        for key, value in result["metrics"].items():
            print(f"  {key:<30} {value:.6g} {units[key]}", flush=True)
        for failure in result["failures"]:
            print(f"  FAILED: {failure.strip()}", flush=True)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        record = {"seed": args.seed, "traced": traced, "workloads": results}
        out_path.write_text(json.dumps(record, indent=1) + "\n")  # repro: allow[DET501] -- host timings of the benchmark, not sim state
    summary = _summary_line(results, traced)
    print(json.dumps(summary))  # repro: allow[DET501] -- host timings of the benchmark, not sim state
    return 0 if summary["correct"] else 1


def write_golden(args) -> int:
    golden: Dict[str, Dict[str, str]] = {}
    for name in WORKLOADS:
        golden[name] = {}
        for seed in (0, 1):
            child = _spawn(["--child", "run", "--workload", name,
                            "--seed", str(seed), "--iterations", "0"])
            first, second = child["digests"]
            problems = child["problems"][0] + child["problems"][1]
            if first is None or first != second or problems:
                raise SystemExit(f"bench: {name} seed {seed}: {problems}")
            golden[name][str(seed)] = first
            print(f"{name} seed {seed}: {first}", flush=True)
    args.golden.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


# -- comparison ---------------------------------------------------------------


def _spread(samples: List[float]) -> float:
    """Distance from median to 75th percentile, as a share of the median."""
    mid = median(samples)
    return (_p75(samples) - mid) / mid if mid else 0.0


def compare(base_path: Path, new_path: Path) -> int:
    """better / same / worse / unresolved per workload and metric."""
    runs = [json.loads(path.read_text()) for path in (base_path, new_path)]
    if any(run["traced"] for run in runs):
        raise SystemExit("bench: --compare takes untraced results")
    base, new = (run["workloads"] for run in runs)
    sample_of = {"wall_s": "wall_s", "wall_p75_s": "wall_s",
                 "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
    regressed = False
    for name in [n for n in WORKLOADS if n in base and n in new]:
        b, n = base[name], new[name]
        for m in SPEC["end_to_end"]:
            key, bound = m["name"], m["bound"]
            old, cur = b["metrics"][key], n["metrics"][key]
            spread = max(_spread(b["samples"][sample_of[key]]),
                         _spread(n["samples"][sample_of[key]]))
            change = cur / old - 1.0  # every end-to-end metric is lower-better
            if spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
            regressed |= verdict == "worse"
            print(f"{name:<20} {key:<12} {old:10.5g} -> {cur:10.5g} "
                  f"{change:+7.1%} (bound {bound:.0%}, spread {spread:.1%}) "
                  f"{verdict}")
        old_f, new_f = b["metrics"]["failed_ratio"], n["metrics"]["failed_ratio"]
        verdict = "worse" if new_f > old_f else "better" if new_f < old_f else "same"
        regressed |= verdict == "worse"
        print(f"{name:<20} {'failed_ratio':<12} {old_f:10.5g} -> {new_f:10.5g} "
              f"{verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the timed iterations of each workload")
    parser.add_argument("--iterations", type=int, default=None,
                        help="exact number of timed (or warm traced) iterations")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the traced per-layer run")
    parser.add_argument("--out", help="write the full result JSON here; "
                        "traced spans go to the same directory")
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute golden.json for seeds 0 and 1")
    parser.add_argument("--child", choices=("run", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.write_golden:
        return write_golden(args)
    if args.child:
        if not args.workload or len(args.workload) != 1:
            parser.error("--child needs exactly one --workload")
        name = args.workload[0]
        if args.child == "run":
            result = run_child(name, args.seed, args.iterations, args.seconds)
        else:
            result = trace_child(name, args.seed, args.iterations, args.seconds,
                                 args.spans)
        print(json.dumps(result))  # repro: allow[DET501] -- host timings of the benchmark, not sim state
        return 0
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
