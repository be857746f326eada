"""Benchmark for the observability layer: overhead and non-perturbation.

Three guarantees the observability subsystem advertises
(docs/observability.md):

* **Zero perturbation (tracing)** — a traced seeded run's simulation
  outcome is byte-identical to the untraced run: the recorder is
  strictly passive (no simulator events, no RNG draws, no wall-clock
  reads).
* **Zero perturbation (accounting)** — the same holds with the
  :class:`~repro.obs.UsageAccountant` attached: usage accounting
  piggybacks on a kernel step observer and the fluid-share work taps, so it
  observes every served-work delta without scheduling anything.
* **Bounded overhead** — tracing alone costs < 15 % wall clock over the
  bare run, and the *full* observability stack (tracing + usage
  accounting) costs < 30 %.  Each overhead is the median of the
  drift-cancelling paired ratios (``paired_ratios`` in ``conftest.py``),
  not a ratio of two bests: on a shared CPU the bests can come from
  different load regimes.  Collecting between samples stops the
  instrumented variants' garbage from being collected inside the *bare*
  variant's window.

Headline numbers land in ``benchmarks/out/BENCH_obs.json``; the
committed copy is the baseline ``repro bench check`` compares against.
"""

import json
from statistics import median

from repro.experiments import run_chaos
from repro.obs import TraceRecorder, UsageAccountant, adaptation_chains, to_jsonl

_ROUNDS = 10
_MAX_OVERHEAD = 0.15
_MAX_TOTAL_OVERHEAD = 0.30


def test_traced_run_byte_identical(artifact_dir):
    """Tracing must not perturb the simulation outcome."""
    _, untraced = run_chaos(seed=0)
    recorder = TraceRecorder()
    _, traced = run_chaos(seed=0, recorder=recorder)
    assert json.dumps(traced, sort_keys=True) == json.dumps(
        untraced, sort_keys=True
    )
    # And the trace itself is worth shipping: complete causal chains.
    chains = adaptation_chains(recorder.records)
    assert chains, "traced chaos run produced no config.switch chain"
    (artifact_dir / "chaos_trace.jsonl").write_text(to_jsonl(recorder.records))
    (artifact_dir / "chaos_metrics.json").write_text(
        json.dumps(recorder.metrics.snapshot(), indent=1, sort_keys=True) + "\n"
    )


def test_usage_accounted_run_byte_identical():
    """Usage accounting must not perturb the simulation outcome."""
    _, bare = run_chaos(seed=0)
    usage = UsageAccountant()
    _, accounted = run_chaos(seed=0, usage=usage)
    assert json.dumps(accounted, sort_keys=True) == json.dumps(
        bare, sort_keys=True
    )
    # And the account itself is non-trivial: resources saw work, the
    # adaptation left config marks behind.
    summary = usage.summary()
    served = [r for r in summary["resources"].values() if r["served"] > 0]
    assert served, "usage accounting recorded no served work"
    assert len(summary["config_marks"]) >= 2, (
        "chaos run should mark at least the initial config and one switch"
    )


def test_obs_overhead_bounded(artifact_dir, paired_ratios):
    """Tracing < 15 %; tracing + usage accounting < 30 % (median paired ratio)."""

    def bare():
        return run_chaos(seed=0)

    def traced():
        return run_chaos(seed=0, recorder=TraceRecorder())

    def full():
        recorder = TraceRecorder()
        return run_chaos(
            seed=0,
            recorder=recorder,
            usage=UsageAccountant(metrics=recorder.metrics),
        )

    (traced_ratios, full_ratios), (base, cost, total) = paired_ratios(
        bare, [traced, full], rounds=_ROUNDS
    )
    overhead = median(traced_ratios) - 1.0
    total_overhead = median(full_ratios) - 1.0

    (artifact_dir / "BENCH_obs.json").write_text(
        json.dumps(  # repro: allow[DET501] -- benchmark wall-time report, not sim state
            {
                "bare_s": round(base, 3),
                "traced_s": round(cost, 3),
                "full_s": round(total, 3),
                "overhead_traced": round(max(overhead, 0.0), 4),
                "overhead_full": round(max(total_overhead, 0.0), 4),
                "bytes_identical": True,
                "rounds": _ROUNDS,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )

    assert overhead < _MAX_OVERHEAD, (
        f"tracing overhead {overhead:.1%} exceeds {_MAX_OVERHEAD:.0%} "
        f"(untraced best {base:.3f}s, traced best {cost:.3f}s)"
    )
    assert total_overhead < _MAX_TOTAL_OVERHEAD, (
        f"tracing+accounting overhead {total_overhead:.1%} exceeds "
        f"{_MAX_TOTAL_OVERHEAD:.0%} (bare best {base:.3f}s, "
        f"full best {total:.3f}s)"
    )
