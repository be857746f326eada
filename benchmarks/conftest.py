"""Benchmark-harness plumbing: artifact saving and shared fixtures.

Every benchmark regenerates one paper figure (or ablation table), asserts
its qualitative shape, and writes the rendered series to
``benchmarks/out/`` so EXPERIMENTS.md can cite actual program output.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from time import perf_counter  # repro: allow[DET101] -- benchmark harness timing

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def interleaved_best():
    """Best-of-N wall clock per fn, interleaved to dodge scheduler drift.

    The throughput harness (``bench_sim``'s layer rows, ``bench_crowd``);
    overhead gates use ``paired_ratios`` below:

    - **interleaved** — scheduler and thermal drift between *blocks* of
      rounds would otherwise bias the comparison toward whichever
      variant ran in the quiet block;
    - **repeats per sample** — keeps each sample long relative to timer
      jitter;
    - **gc-controlled** — each sample runs with the cyclic collector
      off (collected *between* samples): a GC pause landing inside one
      variant's window would otherwise dominate few-hundred-ms runs;
    - **warmed up** — every fn runs once before the first sample so
      import/allocator warm-up is not charged to the first variant.
    """

    def _measure(fns, rounds: int = 8, repeats: int = 2):
        for fn in fns:
            fn()
        best = [float("inf")] * len(fns)
        for _ in range(rounds):
            for i, fn in enumerate(fns):
                gc.collect()
                gc.disable()
                try:
                    t0 = perf_counter()  # repro: allow[DET101] -- benchmark harness timing
                    for _ in range(repeats):
                        fn()
                    best[i] = min(best[i], (perf_counter() - t0) / repeats)  # repro: allow[DET101] -- benchmark harness timing
                finally:
                    gc.enable()
        return best

    return _measure


@pytest.fixture(scope="session")
def paired_ratios():
    """Drift-cancelling per-round timing ratios for overhead gates.

    ``interleaved_best`` is the right tool for *throughput* numbers, but
    best-of-N is fragile for tight overhead gates on a shared machine:
    CPU throttling drifts the floor between rounds, so each variant's
    "best" may come from a different load regime and the ratio of bests
    is noise (it can even go negative).  Worse, throttling *ramps
    within* a round, so naive back-to-back pairs systematically charge
    the ramp to whichever variant runs second.

    This harness interleaves ``b, f, b, f, ..., b`` and scores each
    variant sample against the **mean of its two baseline neighbours**,
    which cancels linear drift exactly; the **median** over rounds then
    rejects the samples a noisy neighbour lands on.

    Returns ``(ratios, times)``: per-round ``t_fn / t_baseline``
    ratio lists (one list per fn) and the per-fn best wall-clock
    ``[baseline, *fns]`` (same gc-isolated, warmed-up sampling
    discipline as ``interleaved_best``).
    """

    def _sample(fn):
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()  # repro: allow[DET101] -- benchmark harness timing
            fn()
            return perf_counter() - t0  # repro: allow[DET101] -- benchmark harness timing
        finally:
            gc.enable()

    def _measure(baseline, fns, rounds: int = 8):
        for fn in (baseline, *fns):
            fn()
        ratios = [[] for _ in fns]
        best = [float("inf")] * (1 + len(fns))
        prev = _sample(baseline)
        best[0] = prev
        for _ in range(rounds):
            samples = [_sample(fn) for fn in fns]
            nxt = _sample(baseline)
            anchor = (prev + nxt) / 2
            for i, dt in enumerate(samples):
                ratios[i].append(dt / anchor)
                best[1 + i] = min(best[1 + i], dt)
            best[0] = min(best[0], nxt)
            prev = nxt
        return ratios, best

    return _measure


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def save_figure(artifact_dir):
    """Persist a FigureResult as .txt (rendered) and .json (raw series)."""

    def _save(result, name: str) -> None:
        (artifact_dir / f"{name}.txt").write_text(result.render() + "\n")
        payload = {
            "figure": result.figure,
            "title": result.title,
            "xlabel": result.xlabel,
            "ylabel": result.ylabel,
            "series": {label: s.points for label, s in result.series.items()},
            "notes": result.notes,
        }
        (artifact_dir / f"{name}.json").write_text(json.dumps(payload, indent=1))

    return _save


@pytest.fixture
def save_table(artifact_dir):
    """Persist a plain dict result as .json with a rendered .txt twin."""

    def _save(data: dict, name: str, title: str = "") -> None:
        lines = [f"== {name}: {title} =="] + [
            f"  {k}: {v:.6g}" if isinstance(v, float) else f"  {k}: {v}"
            for k, v in data.items()
        ]
        (artifact_dir / f"{name}.txt").write_text("\n".join(lines) + "\n")
        (artifact_dir / f"{name}.json").write_text(json.dumps(data, indent=1))

    return _save
