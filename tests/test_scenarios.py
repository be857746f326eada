"""The scenario registry: one table feeds every consumer."""

import hashlib
import importlib
import inspect
import json

import pytest

from repro.analysis import builtin_scenarios
from repro.obs import SCENARIOS, InteractiveContext, register_scenario
from repro.obs.cli import obs_main
from repro.scenarios import SWEEPS, resolve, run_scenario, scene_names

#: sha256 of the fig5-cell seed-0 payload (sorted-key JSON); the cell
#: was a private copy of the profiling driver in ``repro.analysis.explore``
#: before it became a Scene, and its payload did not move.
FIG5_CELL_DIGEST = (
    "b409dd267454078ad270cbcd10909960e67b6c4548e5cccc0d17597de1f1ddab"
)
#: sha256 of the fig5sess payloads for seeds 0 and 1, taken before the
#: session moved onto the shared adaptive-session builder.
FIG5SESS_DIGESTS = {
    0: "dd1c362f8c794ebb4d18f84adfc906eab841f3a9f5f42c5246cf3e41d93bf970",
    1: "33d4ad8f94e517e0cccf005e409939a4fc64202de2d773389263acb0656c6cbd",
}
#: sha256 of each Fig 7 experiment's seed-0 adaptive run, as the sweep
#: cell of ``run_experiment<N>`` returned it before Fig 7 became a Scene.
FIG7_DIGESTS = {
    "fig7-exp1": "d5803bc93f54a54a05b00cc9b9f53003aa2403308133edcdf0d4b21a1036fc6e",
    "fig7-exp2": "a8c9a9aa3c7430caf296bfb209837f9136cb198732340bec1baf9254b0ec9240",
    "fig7-exp3": "a924e192afeb98629e77a63b12ebc57ffa13008202800ebc3fc812ad6b5f1d1d",
}


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _explorable():
    wanted = {"tiebreak", "detect_races"}
    return {
        name
        for name in scene_names()
        if wanted <= set(inspect.signature(resolve(name)).parameters)
    }


def test_table_kinds():
    assert set(SCENARIOS) == {
        "chaos", "crowd", "fig5", "fig5-cell", "fig5sess", "fig6a", "fig6b",
        "fig7-exp1", "fig7-exp2", "fig7-exp3", "recovery",
    }
    assert SWEEPS == {"fig5", "fig6a", "fig6b"}
    assert scene_names() == sorted(set(SCENARIOS) - SWEEPS)
    assert _explorable() == {
        "chaos", "fig5-cell", "fig7-exp1", "fig7-exp2", "fig7-exp3", "recovery",
    }


def test_every_consumer_lists_the_table(capsys):
    with pytest.raises(SystemExit):
        obs_main(["trace", "no-such-scenario"])
    listed = capsys.readouterr().err.split("choose from ")[1]
    assert [n.strip(" '()\n") for n in listed.split(",")] == sorted(SCENARIOS)

    with pytest.raises(SystemExit, match=", ".join(scene_names())):
        obs_main(["dash", "no-such-scenario"])

    with pytest.raises(KeyError, match=", ".join(scene_names())):
        InteractiveContext("no-such-scenario")

    assert set(builtin_scenarios(seed=0)) - {"racy"} == _explorable()


def test_sweep_is_not_steppable():
    with pytest.raises(KeyError, match="not a steppable scenario") as err:
        InteractiveContext("fig5")
    assert ", ".join(scene_names()) in str(err.value)


def test_registered_scenario_reaches_every_consumer(tmp_path, capsys):
    register_scenario("cell-copy", "repro.experiments.fig5:build_fig5_cell")
    try:
        assert "cell-copy" in scene_names()
        assert obs_main(["trace", "cell-copy", "--limit", "1"]) == 0
        assert "== trace:" in capsys.readouterr().out
        out = tmp_path / "dash.html"
        assert obs_main(["dash", "cell-copy", "--out", str(out)]) == 0
        assert "cell-copy@seed=0" in out.read_text()
        ctx = InteractiveContext("cell-copy", seed=0)
        _fig, payload = ctx.finish()
        assert _digest(payload) == FIG5_CELL_DIGEST
    finally:
        SCENARIOS.pop("cell-copy")


@pytest.mark.parametrize("name", ["chaos", "recovery", "crowd", "fig5_session"])
def test_runner_signature_is_its_builders(name):
    module = {"fig5_session": "fig5"}.get(name, name)
    mod = importlib.import_module(f"repro.experiments.{module}")
    build, run = getattr(mod, f"build_{name}"), getattr(mod, f"run_{name}")
    assert inspect.signature(run).parameters == inspect.signature(build).parameters
    assert run.__name__ == f"run_{name}"


def test_fig5_cell_payload_is_pinned():
    from repro.experiments.fig5 import build_fig5_cell

    assert _digest(build_fig5_cell(seed=0).run()[1]) == FIG5_CELL_DIGEST
    assert run_scenario("fig5-cell", seed=0)[1] == build_fig5_cell().run()[1]


@pytest.mark.parametrize("seed", [0, 1])
def test_fig5_session_payload_is_pinned(seed):
    from repro.experiments.fig5 import run_fig5_session

    assert _digest(run_fig5_session(seed=seed)[1]) == FIG5SESS_DIGESTS[seed]


@pytest.mark.parametrize("name", sorted(FIG7_DIGESTS))
def test_fig7_scene_is_the_experiments_adaptive_run(name):
    _fig, payload = run_scenario(name, seed=0)
    assert _digest(payload) == FIG7_DIGESTS[name]
    assert payload["label"] == "adaptive" and payload["switches"]


def test_fig7_scene_steps_to_the_same_payload():
    ctx = InteractiveContext("fig7-exp3", seed=0)
    while not ctx.done:
        ctx.step(1000)
    _fig, payload = ctx.finish()
    assert _digest(payload) == FIG7_DIGESTS["fig7-exp3"]
    assert len(ctx.recorder.records) > 0
