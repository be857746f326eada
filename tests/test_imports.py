"""Which heavy packages a fresh interpreter loads, and when.

Start-up cost is paid by every process: the CLI, each benchmark run and
each worker of the sweep pool.  scipy and ``repro.analysis`` are imported
inside the functions that use them, and ``repro.experiments``,
``repro.apps`` and ``repro.obs`` load their exports on first access; these
tests fail when a module-level import brings a package back into a run
that does not execute it, or when an adaptive run (whose performance
database is flat) loads scipy.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# ``import repro.experiments`` loads no figure module, so the probes
# that guard module-level imports load every one of them.
ALL_EXPERIMENT_MODULES = (
    "import importlib, pkgutil, repro.experiments\n"
    "for info in pkgutil.iter_modules(repro.experiments.__path__):\n"
    "    importlib.import_module('repro.experiments.' + info.name)\n"
)


def test_experiments_import_loads_no_heavy_package():
    assert _loaded_after(ALL_EXPERIMENT_MODULES) == []


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
    # Every experiment imports repro.obs (the recorder and the Instruments
    # bundle); its viewers load on first use.
    tools = ("repro.obs.dash", "repro.obs.interactive")
    assert "repro.obs" in _loaded_after(ALL_EXPERIMENT_MODULES, ("repro.obs",))
    assert _loaded_after(ALL_EXPERIMENT_MODULES, tools) == []


def test_every_obs_export_resolves():
    import repro.obs

    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None, name


def _submodules(package: str) -> list:
    path = importlib.import_module(package).__path__
    return [f"{package}.{info.name}" for info in pkgutil.iter_modules(path)]


def test_package_imports_load_no_submodule():
    for package in ("repro.experiments", "repro.apps"):
        probe = ("numpy",) + tuple(_submodules(package))
        assert _loaded_after(f"import {package}", probe) == [], package


def test_share_sweep_loads_only_its_own_graph():
    unused = (
        "repro.runtime", "repro.recovery", "repro.crowd", "repro.faults",
        "repro.profiling", "repro.codecs", "multiprocessing",
    )
    code = (
        "from repro.experiments import run_fig3b\n"
        "run_fig3b(seed=0, shares=(0.5,))\n"
    )
    assert _loaded_after(code, unused) == []


def test_cli_import_loads_no_numpy():
    probe = ("numpy",) + tuple(_submodules("repro.experiments"))
    assert _loaded_after("import repro.cli", probe) == []


@pytest.mark.parametrize("package", ["repro.experiments", "repro.apps"])
def test_every_lazy_export_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(m) for m in _submodules(package)]
    for name in pkg.__all__:
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(homes) == 1, (name, [m.__name__ for m in homes])
        assert getattr(pkg, name) is getattr(homes[0], name), name
    assert len(set(pkg.__all__)) == len(pkg.__all__), package
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)


@pytest.mark.parametrize("package", ["repro.experiments", "repro.apps", "repro.obs"])
def test_unknown_export_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
