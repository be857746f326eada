"""Which heavy packages a fresh interpreter loads, and when.

Start-up cost is paid by every process: the CLI, each benchmark run and
each worker of the sweep pool.  scipy and ``repro.analysis`` are imported
inside the functions that use them; these tests fail when a module-level
import brings one of them back into ``import repro.experiments``, or when
an adaptive run (whose performance database is flat) loads scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy", "networkx", "repro.analysis")


def _loaded_after(code: str, packages=HEAVY) -> list:
    """Which of ``packages`` are in ``sys.modules`` after running ``code`` fresh."""
    probe = (
        code
        + "\nimport json, sys\n"
        + f"print(json.dumps(sorted(p for p in {tuple(packages)!r}"
        + " if p in sys.modules or any(m.startswith(p + '.') for m in sys.modules))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_experiments_import_loads_no_heavy_package():
    assert _loaded_after("import repro.experiments") == []


def test_1d_interpolator_runs_without_scipy():
    code = (
        "from repro.profiling import Interpolator\n"
        "f = Interpolator([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0])\n"
        "assert f.kind == 'linear-1d' and f([1.5]) == 2.5\n"
    )
    assert _loaded_after(code) == []


def test_scattered_interpolator_loads_scipy():
    # The N-D kinds are where scipy loads: on the first build.
    code = (
        "from repro.profiling import Interpolator\n"
        "f = Interpolator([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]],"
        " [0.0, 1.0, 2.0, 3.0])\n"
        "assert f.kind == 'scattered'\n"
        "f([0.2, 0.2])\n"
    )
    assert _loaded_after(code) == ["scipy"]


def test_flat_interpolator_runs_without_scipy():
    # A vary-one-axis database (second axis fixed) cannot be triangulated;
    # it is answered by nearest neighbour without scipy, ties aside.
    code = (
        "from repro.profiling import Interpolator\n"
        "f = Interpolator([[0.0, 1.0], [1.0, 1.0], [3.0, 1.0]], [5.0, 6.0, 7.0])\n"
        "assert f.kind == 'scattered'\n"
        "assert f([0.4, 2.0]) == 5.0 and f([2.5, 0.0]) == 7.0\n"
    )
    assert _loaded_after(code) == []


def test_chaos_run_loads_no_scipy():
    code = "from repro.experiments import run_chaos\nrun_chaos(seed=0)\n"
    assert "scipy" not in _loaded_after(code)


def test_experiments_import_leaves_obs_tools_unloaded():
    # The kernel's tracer imports repro.obs; its viewers load on first use.
    tools = ("repro.obs.dash", "repro.obs.interactive", "repro.obs.report")
    assert _loaded_after("import repro.experiments", tools) == []


def test_every_obs_export_resolves():
    import repro.obs

    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None, name
