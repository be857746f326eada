"""Benchmark for the crowd subsystem: million-user aggregate populations.

Beyond the figure artifact, this benchmark enforces the aggregation
layer's headline guarantees (docs/scale.md):

* **Determinism at scale** — two same-seed 1M-user diurnal runs produce
  byte-identical payloads: all crowd randomness comes from the dedicated
  ``"crowd"`` stream, and every mid-run read is a passive projection.
* **Adaptation still fires** — the controller completes at least one
  trigger -> decision -> switch cycle *during* the diurnal congestion
  episodes, and the flash scenario drives one full brownout cycle
  (enter and exit) through the overload guard.
* **Aggregation pays** — the 1M-user columnar run stays within 10x the
  wall clock of the 100-coroutine baseline scenario (in practice it is
  faster: event count per tick is O(classes), not O(users)).
* **Nobody starves** — the premium class rides through both scenarios
  with zero shed and zero lost requests.

Headline numbers land in ``benchmarks/out/BENCH_crowd.json``; the
committed copy is the baseline ``repro bench check`` compares against.
"""

import json

from repro.experiments import run_crowd

_ROUNDS = 3
_REPEATS = 1
_MAX_SLOWDOWN = 10.0


def test_crowd_diurnal_trajectory(benchmark, save_figure, artifact_dir):
    result, payload = benchmark.pedantic(
        lambda: run_crowd(seed=0, scenario="diurnal"), rounds=1, iterations=1
    )
    save_figure(result, "crowd_diurnal")
    encoded = json.dumps(payload, sort_keys=True, indent=1)
    (artifact_dir / "crowd_diurnal.json").write_text(encoded + "\n")

    assert payload["users"] == 1_000_000
    assert payload["finished"], "interactive session must survive the crowd"
    assert payload["crowd_closed"]

    # The diurnal peaks congest the reply link; the monitor sees the
    # interactive session's bandwidth leave the decision's validity
    # region and the scheduler re-decides lzw -> bzip2 mid-episode.
    switches = [(s["from"], s["to"]) for s in payload["switches"]]
    assert len(switches) >= 1, "no adaptation fired at 1M users"
    assert ("c=lzw,dR=320,l=4", "c=bzip2,dR=320,l=4") in switches
    kinds = [e["kind"] for e in payload["events"]]
    assert "trigger" in kinds and "decision" in kinds and "applied" in kinds

    # Conservation: every issued request resolves to exactly one outcome.
    for name in ("free", "premium"):
        row = payload["classes"][name]
        assert row["served"] + row["shed"] + row["lost"] == row["issued"]
        assert row["inflight"] == 0
    # The free tier takes the peak-hour QoS hit; premium is protected.
    free, premium = payload["classes"]["free"], payload["classes"]["premium"]
    assert free["violated"] > 0
    assert premium["shed"] == 0 and premium["lost"] == 0
    assert premium["violated"] == 0
    assert free["issued"] > 1_000_000  # a genuinely large population


def test_crowd_flash_brownout_cycle(save_figure, artifact_dir):
    result, payload = run_crowd(seed=0, scenario="flash")
    save_figure(result, "crowd_flash")
    encoded = json.dumps(payload, sort_keys=True, indent=1)
    (artifact_dir / "crowd_flash.json").write_text(encoded + "\n")

    assert payload["finished"]
    ov = payload["overload"]
    # Sustained link-level overload (undelivered replies, not CPU queue)
    # tripped shedding, brownout entered, the cheap config drained the
    # backlog, and the window *closed* while the run was still live.
    assert ov["shed"] > 0
    assert ov["shed_hard"] == 0, "soft shedding should absorb the spike"
    windows = ov["brownout_windows"]
    assert len(windows) == 1 and windows[0][1] is not None
    switches = [(s["from"], s["to"]) for s in payload["switches"]]
    assert ("c=lzw,dR=320,l=4", "c=lzw,dR=320,l=3") in switches
    assert ("c=lzw,dR=320,l=3", "c=lzw,dR=320,l=4") in switches
    assert payload["final_config"] == "c=lzw,dR=320,l=4"

    free, premium = payload["classes"]["free"], payload["classes"]["premium"]
    assert free["shed"] > 0, "the spike must actually be shed"
    assert premium["shed"] == 0 and premium["lost"] == 0


def test_crowd_million_user_byte_identity():
    """Same seed => byte-identical payload at 1,000,000 users."""
    _, first = run_crowd(seed=0, scenario="diurnal")
    _, second = run_crowd(seed=0, scenario="diurnal")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    _, other = run_crowd(seed=1, scenario="diurnal")
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)


def test_crowd_headline_numbers(artifact_dir, interleaved_best):
    """Write BENCH_crowd.json for ``repro bench check``.

    Exact fields are deterministic guarantees; ``*_s`` floats are
    wall-clock bands.  ``within_10x`` is the acceptance bound from the
    aggregation design: a 1M-user aggregate run may cost at most 10x the
    100-coroutine baseline scenario.
    """
    _, diurnal = run_crowd(seed=0, scenario="diurnal")
    _, diurnal2 = run_crowd(seed=0, scenario="diurnal")
    _, flash = run_crowd(seed=0, scenario="flash")

    crowd_s, baseline_s = interleaved_best(
        [
            lambda: run_crowd(seed=0, scenario="diurnal"),
            lambda: run_crowd(seed=0, scenario="baseline"),
        ],
        rounds=_ROUNDS, repeats=_REPEATS,
    )
    slowdown = crowd_s / baseline_s
    assert slowdown <= _MAX_SLOWDOWN, (
        f"1M-user aggregate run costs {slowdown:.2f}x the 100-coroutine "
        f"baseline (limit {_MAX_SLOWDOWN:.0f}x)"
    )

    free = diurnal["classes"]["free"]
    premium = diurnal["classes"]["premium"]
    record = {
        "replay_identical": json.dumps(diurnal, sort_keys=True)
        == json.dumps(diurnal2, sort_keys=True),
        "finished": bool(diurnal["finished"]),
        "users": diurnal["users"],
        "diurnal_switches": len(diurnal["switches"]),
        "adapted": len(diurnal["switches"]) >= 1,
        "free_issued": free["issued"],
        "free_served": free["served"],
        "free_lost": free["lost"],
        "free_violated": free["violated"],
        "premium_issued": premium["issued"],
        "premium_violated": premium["violated"],
        "premium_protected": premium["shed"] == 0 and premium["lost"] == 0,
        "flash_shed": flash["classes"]["free"]["shed"],
        "flash_brownout_windows": len(flash["overload"]["brownout_windows"]),
        "flash_brownout_closed": all(
            t1 is not None for _t0, t1 in flash["overload"]["brownout_windows"]
        ),
        "crowd_1m_s": round(crowd_s, 3),
        "coroutine_100_s": round(baseline_s, 3),
        # Stored as t_crowd / t_baseline - 1, like every other *overhead*
        # field, so `repro bench check` bands it as the crowd run's cost.
        "crowd_vs_baseline_overhead": round(slowdown - 1, 3),
        "within_10x": slowdown <= _MAX_SLOWDOWN,
    }
    (artifact_dir / "BENCH_crowd.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"  # repro: allow[DET501] -- benchmark wall-time report, not sim state
    )
