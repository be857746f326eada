"""CLI surface of the sweep engine: `repro sweep` and `--jobs/--no-cache`."""

import json

import pytest

from repro.cli import main
from repro.exec.engine import _default  # noqa: F401  (import check only)


@pytest.mark.parametrize(
    "app, cells",
    [("toy", 12), ("viz", 48)],  # 3 configs x 4 cpu levels; 12 x 2 cpu x 2 bw
    ids=["toy", "viz"],
)
def test_sweep_serial_cached(tmp_path, capsys, app, cells):
    cache = tmp_path / "cache"
    out = tmp_path / f"{app}.json"
    assert main(
        ["sweep", app, "--cache-dir", str(cache), "--out", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert f"== sweep {app}:" in text
    assert f"{cells} run, 0 cached" in text
    db = json.loads(out.read_text())
    assert len(db["records"]) == cells

    # Second invocation is fully cache-served and byte-identical.
    out2 = tmp_path / f"{app}2.json"
    assert main(
        ["sweep", app, "--cache-dir", str(cache), "--out", str(out2)]
    ) == 0
    text2 = capsys.readouterr().out
    assert f"0 run, {cells} cached" in text2
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_no_cache_never_writes(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(
        ["sweep", "toy", "--cache-dir", str(cache), "--no-cache"]
    ) == 0
    assert "12 run, 0 cached" in capsys.readouterr().out
    assert not any(cache.rglob("*.json")) if cache.exists() else True


def test_sweep_rejects_bad_jobs(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "toy", "--jobs", "0"])
    with pytest.raises(SystemExit):
        main(["sweep", "nosuchapp"])


def test_figures_accept_cache_flags_and_restore_default(tmp_path, capsys):
    from repro.exec import default_engine
    from repro.exec.engine import SweepEngine

    before = default_engine()
    assert main(
        ["ablation-a4", "--cache-dir", str(tmp_path / "cache"), "--no-plot"]
    ) == 0
    out = capsys.readouterr().out
    assert "ablation-a4" in out
    assert "sweep engine:" in out
    after = default_engine()
    # The CLI-scoped engine was uninstalled on exit.
    assert isinstance(after, SweepEngine)
    assert after is before
