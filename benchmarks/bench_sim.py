"""Macro-benchmark for the simulation kernel and its self-profiler.

A calibrated mixed workload — the fig5 profiling sweep (database
construction over the CPU-share axis), the chaos run (faults +
adaptation), and the recovery run (supervision + checkpoints + failover)
— exercised end to end, reporting:

* **events/sec** — kernel throughput over the whole workload (steps are
  exact and deterministic; the wall clock is the best sample from the
  shared gc-isolated ``paired_ratios`` harness).
* **profiler overhead** — the same workload with a default
  (burst-sampling) :class:`~repro.obs.KernelProfiler` attached must cost
  < 5 % extra.  Measured as the *median of drift-cancelling paired
  ratios* (see ``paired_ratios`` in conftest): on a shared/throttled
  machine best-of-N floors drift between rounds and their ratio is
  noise, while scoring each profiled sample against the mean of its two
  bare neighbours cancels the drift round by round.
* **byte identity** — asserted *always*, not sampled: each workload
  component's output with the profiler attached is byte-identical to
  the bare run.
* **coverage** — the profiler must attribute >= 95 % of the kernel
  wall-clock it measured to named buckets (attribution is structural —
  ``run()`` boundaries close the books — so this guards hook
  regressions, not a heuristic).
* **per-subsystem cost shares** — bucket seconds folded into coarse
  subsystems (process resumes, fluid-share updates, network and sandbox
  message callbacks,
  process lifecycle), the numbers ROADMAP item 1's "where does kernel
  time go" question asks for.
* **layer microbenchmarks** — ns per operation of six paths run alone
  (``*_ns`` fields): a timeout-yield loop, succeed→resume, spawn→exit, a
  ``Store`` ping-pong round trip, a one-job fluid submit→done, and a
  sandbox round trip (``sandbox_roundtrip_ns``: one ``Sandbox.send`` plus
  the peer's ``Sandbox.recv`` over a testbed link).  The timeout-yield
  loop runs a second time with one no-op step observer attached
  (``timeout_yield_observed_ns``); the difference is the kernel's
  dispatch cost per attached observer.  Best of interleaved rounds, each
  a fresh simulator.

Headline numbers land in ``benchmarks/out/BENCH_sim.json``; the
committed copy is the baseline ``repro bench check`` compares against
(``steps`` / ``pushes`` / ``bytes_identical`` are exact deterministic
fields, the wall-clock-derived floats are banded).
"""

import json
from statistics import median

from repro.experiments import fig5_database, run_chaos, run_recovery
from repro.obs import KernelProfiler
from repro.sandbox import HostSpec, LinkSpec, Testbed
from repro.sim import FluidShare, Simulator, Store

_ROUNDS = 9
#: Operations per layer-microbenchmark run.
_MICRO_OPS = 4000
_MAX_OVERHEAD = 0.05
_MIN_COVERAGE = 0.95

#: Coarse subsystem classification of profile buckets, in match order.
_SUBSYSTEMS = (
    ("fluid", "FluidShare."),
    ("network", "Network."),
    ("network", "Link."),
    # Sandbox sends and receives: the message path, like the network.
    ("network", "SendOp."),
    ("network", "RecvOp."),
    ("lifecycle", "kernel;init;"),
    ("lifecycle", "kernel;exit;"),
    ("processes", ";proc:"),
)


def _workload(profiler=None):
    """One pass of the mixed macro-workload (profiler optional)."""
    fig5_database(seed=0, profiler=profiler)
    run_chaos(seed=0, profiler=profiler)
    run_recovery(seed=0, profiler=profiler)


def _timeout_yield(observed=False):
    sim = Simulator()
    if observed:
        sim.observe(lambda t, prio, seq, event: None)

    def loop():
        for _ in range(_MICRO_OPS):
            yield sim.timeout(1.0)

    sim.process(loop())
    sim.run()


def _succeed_resume():
    """Two processes hand the turn back and forth through fresh events."""
    sim = Simulator()
    parked = [None]

    def side():
        for _ in range(_MICRO_OPS // 2):
            mine = sim.event()
            other, parked[0] = parked[0], mine
            if other is not None:
                other.succeed()
            yield mine

    sim.process(side())
    sim.process(side())
    sim.run()


def _spawn_exit():
    sim = Simulator()

    def child():
        yield from ()

    def parent():
        for _ in range(_MICRO_OPS):
            yield sim.process(child())

    sim.process(parent())
    sim.run()


def _store_pingpong():
    """One op is a round trip: put, get, put back, get back."""
    sim = Simulator()
    ping, pong = Store(sim), Store(sim)

    def echo():
        for _ in range(_MICRO_OPS):
            item = yield ping.get()
            yield pong.put(item)

    def client():
        for i in range(_MICRO_OPS):
            yield ping.put(i)
            yield pong.get()

    sim.process(echo())
    sim.process(client())
    sim.run()


def _fluid_submit_done():
    sim = Simulator()
    share = FluidShare(sim, 1.0)

    def loop():
        for _ in range(_MICRO_OPS):
            yield share.submit(1.0).done

    sim.process(loop())
    sim.run()


def _sandbox_roundtrip():
    """One op is a message: a send and the peer's receive of it."""
    testbed = Testbed(
        [HostSpec("a", 1.0), HostSpec("b", 1.0)],
        [LinkSpec("a", "b", bandwidth=1e6, latency=1e-4)],
    )
    sim = testbed.sim
    src, dst = testbed.sandbox("a"), testbed.sandbox("b")

    def sender():
        for i in range(_MICRO_OPS):
            yield src.send("b", "p", i, 100.0)

    def receiver():
        for _ in range(_MICRO_OPS):
            yield dst.recv("p")

    sim.process(sender())
    sim.process(receiver())
    sim.run()


_MICRO = (
    ("timeout_yield_ns", _timeout_yield),
    ("timeout_yield_observed_ns", lambda: _timeout_yield(observed=True)),
    ("succeed_resume_ns", _succeed_resume),
    ("spawn_exit_ns", _spawn_exit),
    ("store_pingpong_ns", _store_pingpong),
    ("fluid_submit_done_ns", _fluid_submit_done),
    ("sandbox_roundtrip_ns", _sandbox_roundtrip),
)


def _layer_ns(interleaved_best):
    """ns per operation of each kernel layer microbenchmark."""
    best = interleaved_best([fn for _, fn in _MICRO], rounds=7, repeats=1)
    return {
        name: round(seconds / _MICRO_OPS * 1e9, 1)
        for (name, _), seconds in zip(_MICRO, best)
    }


def _subsystem_shares(profiler):
    """Fold bucket seconds into coarse subsystem shares of kernel wall."""
    totals = {"processes": 0.0, "fluid": 0.0, "network": 0.0,
              "lifecycle": 0.0, "other": 0.0}
    for name, (count, seconds) in profiler.buckets.items():
        if name == "kernel;external":
            continue
        for subsystem, needle in _SUBSYSTEMS:
            if needle in name:
                totals[subsystem] += seconds
                break
        else:
            totals["other"] += seconds
    kernel = profiler.kernel_wall
    if kernel <= 0:
        return {k: 0.0 for k in totals}
    return {k: round(v / kernel, 4) for k, v in totals.items()}


def test_profiled_workload_byte_identical():
    """Profiler on vs off: every workload output must be byte-identical.

    Asserted always (not best-of-N sampled): this is the deterministic
    guarantee the profiler advertises, independent of wall-clock noise.
    """
    profiler = KernelProfiler()

    db_bare, _, _ = fig5_database(seed=0)
    db_prof, _, _ = fig5_database(seed=0, profiler=profiler)
    assert json.dumps(db_prof.to_dict(), sort_keys=True) == json.dumps(
        db_bare.to_dict(), sort_keys=True
    )

    _, chaos_bare = run_chaos(seed=0)
    _, chaos_prof = run_chaos(seed=0, profiler=profiler)
    assert json.dumps(chaos_prof, sort_keys=True) == json.dumps(
        chaos_bare, sort_keys=True
    )

    _, rec_bare = run_recovery(seed=0)
    _, rec_prof = run_recovery(seed=0, profiler=profiler)
    assert json.dumps(rec_prof, sort_keys=True) == json.dumps(
        rec_bare, sort_keys=True
    )

    # The profile itself is non-trivial: the workload was observed.
    assert profiler.steps > 10_000
    assert profiler.sampled_steps > 0


def test_sim_throughput_and_profiler_overhead(
    artifact_dir, paired_ratios, interleaved_best
):
    """events/sec headline; default profiler < 5 % overhead, >= 95 % coverage."""
    profilers = []

    def bare():
        _workload()

    def profiled():
        profiler = KernelProfiler()
        _workload(profiler)
        profilers.append(profiler)

    (ratios,), (base, prof) = paired_ratios(bare, [profiled], rounds=_ROUNDS)
    overhead = median(ratios) - 1.0

    profiler = profilers[-1]
    summary = profiler.summary()
    steps = summary["sim"]["steps"]
    coverage = summary["wall"]["coverage"]
    shares = _subsystem_shares(profiler)

    record = {
        # Deterministic structural fields (exact in `repro bench check`).
        "steps": steps,
        "pushes": summary["sim"]["pushes"],
        "bytes_identical": True,
        "rounds": _ROUNDS,
        # Wall-clock-derived fields (banded).  `events_per_second`
        # deliberately avoids the `_s` timing suffix: it is
        # higher-is-better.  The overhead is the median paired ratio,
        # not prof/base (bests may come from different load regimes).
        "events_per_second": round(steps / base, 1),
        "bare_s": round(base, 3),
        "profiled_s": round(prof, 3),
        "overhead_profiled": round(max(overhead, 0.0), 4),
        "coverage": round(coverage, 4),
        "share_processes": shares["processes"],
        "share_fluid": shares["fluid"],
        "share_network": shares["network"],
        "share_lifecycle": shares["lifecycle"],
        "share_other": shares["other"],
        # Layer microbenchmarks (banded; lower is better).
        **_layer_ns(interleaved_best),
    }
    (artifact_dir / "BENCH_sim.json").write_text(
        json.dumps(  # repro: allow[DET501] -- benchmark wall-time report, not sim state
            record, indent=1, sort_keys=True
        )
        + "\n"
    )

    assert coverage >= _MIN_COVERAGE, (
        f"profiler attributed only {coverage:.1%} of measured kernel "
        f"wall-clock to named buckets (floor {_MIN_COVERAGE:.0%})"
    )
    assert overhead < _MAX_OVERHEAD, (
        f"default profiler overhead {overhead:.1%} (median of "
        f"{len(ratios)} paired ratios) exceeds {_MAX_OVERHEAD:.0%} "
        f"(bare best {base:.3f}s, profiled best {prof:.3f}s)"
    )
