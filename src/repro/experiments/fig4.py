"""Figure 4: the testbed emulates physical machines.

(a) Toy application: execution time on a physical PII-333 and PPro-200
    versus the testbed on a PII-450 configured with the *clock-ratio* CPU
    share ("such simple modeling ... is sufficient because the application
    is a tight loop running out of registers").
(b) Active visualization: the same comparison with *SpecInt95-ratio*
    shares, the server bandwidth-limited to 1 MBps.  Emulation error stays
    within a few percent (up to ~8 % for the PPro-200 in the paper, caused
    by heuristic progress estimation and hardware differences — we model
    the latter as a per-machine fixed-cost skew).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..apps import make_toy_app
from ..apps.visualization import VizCosts, VizWorkload, make_viz_app
from ..cluster import MACHINES, PII_333, PII_450, PPRO_200, MachineSpec
from ..sandbox import LimiterMode, ResourceLimits, Testbed
from ..tunable import Configuration
from .common import FigureResult, sweep_cells

__all__ = ["run_fig4a", "run_fig4b"]

_TARGETS: Tuple[MachineSpec, ...] = (PII_333, PPRO_200)


def _fig4a_cell(payload: dict, seed: int) -> dict:
    """Sweep job: physical + clock-ratio-emulated run of one machine.

    Both runs of a machine live in one cell so the physical/emulated
    pairing (and the error note derived from it) stays atomic.
    """
    machine = MACHINES[payload["machine"]]
    app = make_toy_app(cpu_speed=machine.clock_mhz)
    tb = Testbed(host_specs=app.env.host_specs(), seed=seed)
    rt = app.instantiate(tb, Configuration({"scale": 1.0}))
    tb.run_until_finished([rt], until=3600)
    physical = rt.qos.get("elapsed")

    app450 = make_toy_app(cpu_speed=PII_450.clock_mhz)
    tb450 = Testbed(
        host_specs=app450.env.host_specs(), mode=LimiterMode.QUANTUM, seed=seed
    )
    share = machine.clock_ratio(PII_450)
    rt450 = app450.instantiate(
        tb450,
        Configuration({"scale": 1.0}),
        limits={"node": ResourceLimits(cpu_share=share)},
    )
    tb450.run_until_finished([rt450], until=3600)
    return {"physical": physical, "emulated": rt450.qos.get("elapsed")}


def run_fig4a(seed: int = 0, engine=None) -> FigureResult:
    """Toy app: physical machines vs clock-ratio testbed emulation."""
    result = FigureResult(
        figure="Fig 4a",
        title="Toy application on testbed vs physical machines",
        xlabel="machine (index)",
        ylabel="execution time (s)",
    )
    physical = result.new_series("physical")
    emulated = result.new_series("testbed (PII-450, clock-ratio share)")
    values = sweep_cells(
        "repro.experiments.fig4:_fig4a_cell",
        [{"machine": machine.name} for machine in _TARGETS],
        seed=seed,
        engine=engine,
    )
    for i, (machine, cell) in enumerate(zip(_TARGETS, values)):
        physical.add(i, cell["physical"])
        emulated.add(i, cell["emulated"])
        result.note(
            f"{machine.name}: physical={physical.ys[-1]:.2f}s "
            f"emulated={emulated.ys[-1]:.2f}s "
            f"error={abs(emulated.ys[-1]-physical.ys[-1])/physical.ys[-1]*100:.1f}%"
        )
    return result


def _viz_run(
    client_speed: float,
    cpu_share: float = None,
    per_message_skew: float = 0.0,
    seed: int = 0,
    mode: str = LimiterMode.IDEAL,
) -> float:
    """Average per-image transmission time of a 3-image download."""
    costs = VizCosts(
        display_cost=1.2e-4,
        client_round_overhead=2.0 + per_message_skew,
    )
    app = make_viz_app(client_speed=client_speed, server_speed=PII_450.specint95 * 26.2)
    tb = Testbed(
        host_specs=app.env.host_specs(),
        link_specs=app.env.link_specs(),
        mode=mode,
        seed=seed,
    )
    limits: Dict[str, ResourceLimits] = {"server": ResourceLimits(net_bw=1e6)}
    if cpu_share is not None:
        limits["client"] = ResourceLimits(cpu_share=cpu_share)
    wl = VizWorkload(n_images=3, costs=costs)
    rt = app.instantiate(
        tb, Configuration({"dR": 320, "c": "lzw", "l": 4}), limits=limits, workload=wl
    )
    tb.run_until_finished([rt], until=10000)
    return rt.qos.get("transmit_time")


def _fig4b_cell(payload: dict, seed: int) -> dict:
    """Sweep job: physical + SpecInt-ratio-emulated viz run of one machine."""
    machine = MACHINES[payload["machine"]]
    t_phys = _viz_run(
        client_speed=machine.specint95 * 26.2,
        per_message_skew=payload["skew"],
        seed=seed,
    )
    t_emul = _viz_run(
        client_speed=PII_450.specint95 * 26.2,
        cpu_share=machine.specint_ratio(PII_450),
        seed=seed,
        mode=LimiterMode.QUANTUM,
    )
    return {"physical": t_phys, "emulated": t_emul}


def run_fig4b(seed: int = 0, engine=None) -> FigureResult:
    """Visualization app: physical machines vs SpecInt-ratio emulation.

    CPU speeds use the SpecInt95 scale (speed = specint * 26.2 puts the
    PII-450 at its 450-unit calibration point).  Physical machines carry a
    small per-message fixed-cost skew standing in for "different network
    cards" and other hardware effects the testbed cannot see.
    """
    result = FigureResult(
        figure="Fig 4b",
        title="Active visualization on testbed vs physical machines "
        "(server bandwidth-limited to 1 MBps)",
        xlabel="machine (index)",
        ylabel="avg image transmission time (s)",
    )
    physical = result.new_series("physical")
    emulated = result.new_series("testbed (PII-450, SpecInt-ratio share)")
    # Per-round fixed-cost skew of the physical machines (older network
    # cards, chipset differences) that the SpecInt-ratio testbed cannot
    # model — the source of the paper's residual error, largest on the
    # PPro-200.
    skews = {PII_333.name: 6.0, PPRO_200.name: 30.0}
    values = sweep_cells(
        "repro.experiments.fig4:_fig4b_cell",
        [
            {"machine": machine.name, "skew": skews[machine.name]}
            for machine in _TARGETS
        ],
        seed=seed,
        engine=engine,
    )
    for i, (machine, cell) in enumerate(zip(_TARGETS, values)):
        t_phys, t_emul = cell["physical"], cell["emulated"]
        physical.add(i, t_phys)
        emulated.add(i, t_emul)
        result.note(
            f"{machine.name}: physical={t_phys:.2f}s emulated={t_emul:.2f}s "
            f"error={abs(t_emul-t_phys)/t_phys*100:.1f}%"
        )
    return result
