"""The benchmark's seven workloads: seeded inputs, entry modules, oracle.

Each workload turns a seed into inputs, hands them to the program, and
returns a JSON-able payload.  The payload's sha256 (``json.dumps`` with
``sort_keys``) is what ``golden.json`` pins for seeds 0 and 1; the
seed-independent invariants in :func:`check_invariants` hold for every
seed.  Nothing here imports ``repro`` at module level: the harness times
the import of each workload's ``modules`` itself, so the import is
charged to ``setup_s`` and never to an iteration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = [
    "WORKLOADS",
    "Workload",
    "check_invariants",
    "crowd_requests",
    "digest",
    "switch_count",
]


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs, closed-loop."""

    name: str
    #: Modules whose import is the workload's start-up cost.
    modules: Tuple[str, ...]
    #: Timed iterations of a full run (no ``--seconds``/``--iterations``).
    iterations: int
    run: Callable[[int], dict]


def digest(payload: dict) -> str:
    """sha256 of the canonical payload."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _share_sweep(seed: int) -> dict:
    from repro.experiments import run_fig3b

    result = run_fig3b(seed=seed, shares=(0.5,))
    return {label: series.points for label, series in result.series.items()}


#: Tenant mix of ``shared_host``: every (scale, CPU cap) pair appears
#: equally often, the first four once more, so the simulated work is the
#: same for every seed and only the assignment of pairs to tenants varies.
_SCALES = (1.0, 2.0, 4.0)
_CAPS = (None, 0.05, 0.1, 0.2)
_TENANTS = 64


def _shared_host_tenants(seed: int) -> List[Tuple[float, object]]:
    """The (scale, CPU cap) of each tenant, in seeded order."""
    from repro.sim import stream

    pairs = [(scale, cap) for scale in _SCALES for cap in _CAPS]
    mix = [pairs[i % len(pairs)] for i in range(_TENANTS)]
    order = stream(seed, "bench.shared_host").permutation(_TENANTS)
    return [mix[int(i)] for i in order]


def _shared_host(seed: int) -> dict:
    from repro.apps import make_toy_app
    from repro.sandbox import ResourceLimits, Testbed
    from repro.tunable import Configuration

    tenants = _shared_host_tenants(seed)
    apps = []
    for i in range(len(tenants)):
        app = make_toy_app(total_work=450.0, round_work=4.5)
        # Sandboxes are named after their app; distinct names keep every
        # tenant's sandbox registered on the one shared testbed.
        app.name = f"toy{i:02d}"
        apps.append(app)
    testbed = Testbed(host_specs=apps[0].env.host_specs())
    runtimes = [
        app.instantiate(
            testbed,
            Configuration({"scale": scale}),
            limits={"node": ResourceLimits(cpu_share=cap)},
        )
        for app, (scale, cap) in zip(apps, tenants)
    ]
    testbed.run()
    testbed.shutdown()
    return {
        "tenants": [[scale, cap] for scale, cap in tenants],
        "elapsed": [rt.qos.get("elapsed") for rt in runtimes],
    }


def _profile_db(seed: int) -> dict:
    from repro.experiments import fig5_database, fig6a_database, fig6b_database

    return {
        fn.__name__: fn(seed=seed)[0].to_dict()
        for fn in (fig5_database, fig6a_database, fig6b_database)
    }


def _adapt_faults(seed: int) -> dict:
    from repro.experiments import run_chaos, run_recovery

    return {
        "chaos": run_chaos(seed=seed)[1],
        "recovery": run_recovery(seed=seed)[1],
    }


def _adapt_faults_traced(seed: int) -> dict:
    from repro.experiments import run_chaos, run_recovery
    from repro.obs import TraceRecorder, UsageAccountant

    payload = {}
    for key, runner in (("chaos", run_chaos), ("recovery", run_recovery)):
        recorder = TraceRecorder()
        usage = UsageAccountant(metrics=recorder.metrics)
        payload[key] = runner(seed=seed, recorder=recorder, usage=usage)[1]
    return payload


def _crowd_columnar(seed: int) -> dict:
    from repro.experiments import run_crowd

    return run_crowd(seed=seed, scenario="diurnal")[1]


def _crowd_sessions(seed: int) -> dict:
    from repro.experiments import run_crowd

    return run_crowd(seed=seed, scenario="baseline", users=50)[1]


_EXPERIMENTS = ("repro.experiments",)
_TOY = ("repro.apps", "repro.sandbox", "repro.tunable")

#: In run order.  Why each workload exists is recorded in BENCHMARK.json
#: and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("share_sweep", _EXPERIMENTS, 60, _share_sweep),
        Workload("shared_host", _TOY, 60, _shared_host),
        Workload("profile_db", _EXPERIMENTS, 160, _profile_db),
        Workload("adapt_faults", _EXPERIMENTS, 40, _adapt_faults),
        Workload(
            "adapt_faults_traced", _EXPERIMENTS + ("repro.obs",), 40,
            _adapt_faults_traced,
        ),
        Workload("crowd_columnar", _EXPERIMENTS, 60, _crowd_columnar),
        Workload("crowd_sessions", _EXPERIMENTS, 40, _crowd_sessions),
    )
}


def switch_count(payload) -> int:
    """Configuration switches recorded anywhere in a payload."""
    if isinstance(payload, dict):
        own = payload.get("switches")
        count = len(own) if isinstance(own, list) else 0
        return count + sum(
            switch_count(value) for key, value in sorted(payload.items())
            if key != "switches"
        )
    return 0


def crowd_requests(payload: dict) -> int:
    """Requests the crowd issued: per-class ``issued`` (or served + shed)."""
    total = 0
    for _name, row in sorted(payload.get("classes", {}).items()):
        if "issued" in row:
            total += int(row["issued"])
        else:
            total += int(row["served"]) + int(row["shed"])
    return total


def check_invariants(name: str, payload: dict) -> List[str]:
    """Seed-independent conservation and completion checks; [] when clean."""
    problems: List[str] = []
    if name in ("adapt_faults", "adapt_faults_traced"):
        chaos = payload["chaos"]
        if len(chaos["image_times"]) != chaos["n_images"]:
            problems.append(
                f"chaos finished {len(chaos['image_times'])} of "
                f"{chaos['n_images']} images"
            )
        if payload["recovery"].get("finished") is not True:
            problems.append("recovery did not report finished")
    elif name == "shared_host":
        missing = [i for i, t in enumerate(payload["elapsed"]) if t is None]
        if missing:
            problems.append(f"tenants without elapsed: {missing}")
    elif name.startswith("crowd_"):
        if payload.get("finished") is not True:
            problems.append("crowd run did not report finished")
        for cls, row in sorted(payload.get("classes", {}).items()):
            if "issued" not in row:
                continue
            settled = row["served"] + row["shed"] + row["lost"]
            if settled != row["issued"] or row["inflight"] != 0:
                problems.append(
                    f"class {cls}: served+shed+lost={settled}, "
                    f"issued={row['issued']}, inflight={row['inflight']}"
                )
    return problems

