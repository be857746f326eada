"""Figure 3: the virtual execution environment controls CPU as specified.

(a) A toy application under the quantum-feedback sandbox with the share
    schedule 80 % -> 40 % (at t=20 s) -> 60 % (at t=50 s); the measured
    usage trace follows the schedule.
(b) Execution time of the toy app on the testbed at CPU shares 10-100 %
    versus the expected time (unconstrained time / share); near-identical
    except at 100 %, where background daemons interfere.
"""

from __future__ import annotations

from typing import List, Tuple

from ..apps import make_toy_app
from ..sandbox import DaemonSpec, LimiterMode, ResourceLimits, Testbed
from ..tunable import Configuration
from .common import FigureResult, sweep_cells

__all__ = ["run_fig3a", "run_fig3b"]


def run_fig3a(
    schedule: Tuple[Tuple[float, float], ...] = ((0.0, 0.8), (20.0, 0.4), (50.0, 0.6)),
    duration: float = 80.0,
    bucket: float = 1.0,
    seed: int = 0,
) -> FigureResult:
    """Measured CPU usage over time under a changing share schedule."""
    app = make_toy_app(total_work=1e9, round_work=4.5)  # long enough to span
    testbed = Testbed(host_specs=app.env.host_specs(), mode=LimiterMode.QUANTUM, seed=seed)
    rt = app.instantiate(
        testbed,
        Configuration({"scale": 1.0}),
        limits={"node": ResourceLimits(cpu_share=schedule[0][1])},
    )
    sandbox = rt.sandboxes["node"]
    sandbox.trace_usage = True

    def vary():
        for t, share in schedule[1:]:
            yield testbed.sim.timeout(t - testbed.sim.now)
            sandbox.set_limits(ResourceLimits(cpu_share=share))

    testbed.sim.process(vary())
    testbed.run(until=duration)
    testbed.shutdown()

    result = FigureResult(
        figure="Fig 3a",
        title="CPU usage of a sandboxed application vs time (spec: "
        + " -> ".join(f"{int(s*100)}% @ {t:g}s" for t, s in schedule) + ")",
        xlabel="time (s)",
        ylabel="CPU usage (fraction)",
    )
    measured = result.new_series("measured")
    spec = result.new_series("specified")
    # Bucket the instantaneous (per-quantum) usage trace for readability.
    trace = sandbox.usage_trace
    t_edge = bucket
    acc: List[float] = []
    for t, usage in trace:
        if t > t_edge:
            if acc:
                measured.add(t_edge - bucket / 2, sum(acc) / len(acc))
            acc = []
            t_edge += bucket
        acc.append(usage)
    for (t, share), (t_next, _s) in zip(schedule, list(schedule[1:]) + [(duration, 0)]):
        spec.add(t, share)
        spec.add(t_next, share)
    return result


def _fig3b_cell(payload: dict, seed: int) -> float:
    """Sweep job: one Fig 3b run; ``share=None`` is the unloaded baseline."""
    share = payload["share"]
    app = make_toy_app()
    if share is None:
        # Baseline: physical, unloaded machine (no daemons, no sandbox).
        tb = Testbed(host_specs=app.env.host_specs())
        rt = app.instantiate(tb, Configuration({"scale": 1.0}))
        tb.run_until_finished([rt], until=3600)
        return rt.qos.get("elapsed")
    tb = Testbed(
        host_specs=app.env.host_specs(),
        mode=LimiterMode.QUANTUM,
        seed=seed,
        daemons=[DaemonSpec("node", mean_interval=0.2, cpu_fraction=0.02)],
    )
    rt = app.instantiate(
        tb,
        Configuration({"scale": 1.0}),
        limits={"node": ResourceLimits(cpu_share=share)},
    )
    # The daemons stop when the app does: their load after it is unmeasured.
    tb.run_until_finished([rt], until=3600)
    return rt.qos.get("elapsed")


def run_fig3b(
    shares: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    seed: int = 0,
    engine=None,
) -> FigureResult:
    """Measured vs expected execution time across CPU shares.

    The expected time is the unconstrained execution time divided by the
    share.  Background daemons run on the host (as on any real NT box), so
    the measured time at 100 % share falls short of expectation — the
    paper's only visible deviation.
    """
    payloads = [{"share": None}] + [{"share": share} for share in shares]
    values = sweep_cells(
        "repro.experiments.fig3:_fig3b_cell", payloads, seed=seed, engine=engine
    )
    baseline = values[0]

    result = FigureResult(
        figure="Fig 3b",
        title="Application execution time under the testbed vs expectation",
        xlabel="CPU share (%)",
        ylabel="execution time (s)",
    )
    measured = result.new_series("measured (testbed)")
    expected = result.new_series("expected (baseline/share)")
    for share, elapsed in zip(shares, values[1:]):
        measured.add(share * 100, elapsed)
        expected.add(share * 100, baseline / share)
    return result
