"""Bounded DPOR-style schedule exploration: certify trace-invariance.

The race detector (:mod:`repro.analysis.races`) reports *candidate*
order-sensitivities: same-timestamp conflicting accesses whose relative
order is decided only by the event queue's FIFO tiebreak.  A report is a
smell, not a verdict — the access pair may be benign (both orders compute
the same result).  This module closes that gap by *executing* the other
order and comparing outcomes.

The approach is dynamic partial-order reduction in miniature:

* A scenario is replayed under a :class:`~repro.analysis.schedule.
  DemoteTiebreak` policy whose directives permute only same-``(time,
  priority)`` event ties — everything the kernel treats as semantically
  ordered (virtual time, URGENT-before-NORMAL) is untouchable.
* The only candidate permutations are the race detector's conflict
  pairs (its happens-before pruning already removed causally-ordered
  pairs), so independent events are never reordered — this is the DPOR
  persistent-set idea: exploring schedules that differ only in the
  order of non-conflicting events is provably redundant.
* Each explored schedule re-runs detection, so races that only surface
  *after* a flip extend the frontier, up to a depth / schedule budget.
* A schedule whose payload digest differs from the baseline is a real
  divergence: it is delta-debugged down to a minimal flip set and the
  first divergent span is localized via :func:`repro.obs.diff_traces`.

When the frontier drains without divergence and without hitting a
budget, the scenario is **certified schedule-invariant** over its pruned
tie-permutation space: no same-instant reordering the detector can name
changes a single payload byte.  A scenario with zero reported races is
certified after the baseline run alone.

Flip directives name events by their FIFO sequence number from the run
that reported them.  This is sound because replay is deterministic: the
prefix of a re-run up to the first demoted window enqueues exactly the
same events with exactly the same sequence numbers.  Nested flips are
expressed against the parent run's own schedule for the same reason.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .schedule import DemoteTiebreak

__all__ = [
    "Flip",
    "Scenario",
    "ScheduleDivergence",
    "ExplorationResult",
    "ScheduleExplorer",
    "builtin_scenarios",
    "payload_digest",
    "run_racy",
]

#: Payload keys excluded from the divergence digest: the ``races`` list
#: names FIFO sequence numbers, which legitimately differ under a flip
#: (the flip *is* a renumbering) without the outcome differing.
VOLATILE_KEYS = ("races",)


@dataclass(frozen=True)
class Flip:
    """Demote one event past its same-``(time, priority)`` tie window.

    ``seq`` is the event's FIFO sequence number in the run the flip was
    derived from; the remaining fields describe the race that proposed
    it, and identify the flip stably across runs (:meth:`signature`).
    """

    seq: int
    time: float
    label: str
    first_context: str
    second_context: str

    @classmethod
    def from_report(cls, report: Dict[str, Any]) -> "Flip":
        """Build the flip that reverses a race report's observed order."""
        return cls(
            seq=report["first"]["seq"],
            time=report["t"],
            label=report["label"],
            first_context=report["first"]["context"],
            second_context=report["second"]["context"],
        )

    def signature(self) -> Tuple[float, str, str, str]:
        """Replay-stable identity (sequence numbers are schedule-local)."""
        return (self.time, self.label, self.first_context, self.second_context)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "t": self.time,
            "label": self.label,
            "first": self.first_context,
            "second": self.second_context,
        }


@dataclass
class Scenario:
    """A replayable workload the explorer can drive.

    ``run(tiebreak=..., detect_races=..., recorder=...)`` must return the
    JSON-friendly payload of one complete run; two calls with equal
    arguments must return byte-identical payloads (modulo
    :data:`VOLATILE_KEYS`), and the ``tiebreak``/``detect_races``/
    ``recorder`` instrumentation must itself be payload-passive.
    """

    name: str
    run: Callable[..., Dict[str, Any]]
    description: str = ""


@dataclass
class ScheduleDivergence:
    """One schedule whose outcome differs from the baseline."""

    #: Minimal flip set (delta-debugged) that still diverges.
    flips: Tuple[Flip, ...]
    #: The flip trail as first discovered (superset of ``flips``).
    found_flips: Tuple[Flip, ...]
    digest: str
    #: First payload key path that differs (``$.qos.response_time``).
    payload_path: Optional[str] = None
    #: First divergent span from :func:`repro.obs.diff_traces`.
    first_span: Optional[Dict[str, Any]] = None
    #: Set when the divergent schedule crashed instead of finishing.
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "flips": [f.to_dict() for f in self.flips],
            "found_flips": [f.to_dict() for f in self.found_flips],
            "digest": self.digest,
            "payload_path": self.payload_path,
            "first_span": self.first_span,
            "error": self.error,
        }


@dataclass
class ExplorationResult:
    """Outcome of one bounded exploration."""

    scenario: str
    baseline_digest: str
    #: Scenario executions total (search + minimization + localization).
    schedules: int
    #: Distinct flipped schedules explored during the search proper.
    explored: int
    #: Same-``(time, priority)`` windows with >= 2 events in the baseline.
    tie_windows: int
    #: Distinct race signatures observed across all detection runs.
    races_seen: int
    certified: bool
    exhausted: bool
    #: Which budget stopped the search early, if any.
    budget_hit: Optional[str]
    divergences: List[ScheduleDivergence] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "baseline_digest": self.baseline_digest,
            "schedules": self.schedules,
            "explored": self.explored,
            "tie_windows": self.tie_windows,
            "races_seen": self.races_seen,
            "certified": self.certified,
            "exhausted": self.exhausted,
            "budget_hit": self.budget_hit,
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def summary(self) -> str:
        if self.certified:
            return (
                f"{self.scenario}: certified schedule-invariant "
                f"({self.explored} flipped schedule(s) explored, "
                f"{self.races_seen} race signature(s), "
                f"{self.tie_windows} tie windows)"
            )
        if self.divergences:
            d = self.divergences[0]
            where = d.payload_path or (d.error and "crash") or "payload"
            return (
                f"{self.scenario}: DIVERGENT — minimal schedule of "
                f"{len(d.flips)} flip(s) changes {where} "
                f"({self.explored} schedule(s) explored)"
            )
        return (
            f"{self.scenario}: inconclusive — budget hit "
            f"({self.budget_hit}) after {self.explored} schedule(s), "
            "no divergence found"
        )


def payload_digest(
    payload: Dict[str, Any], volatile: Tuple[str, ...] = VOLATILE_KEYS
) -> str:
    """Canonical outcome digest, ignoring schedule-local bookkeeping."""
    trimmed = {k: v for k, v in payload.items() if k not in volatile}
    blob = json.dumps(trimmed, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def first_payload_divergence(
    a: Any, b: Any, path: str = "$"
) -> Optional[str]:
    """Key path of the first difference between two payloads, else None.

    Dict keys are compared in sorted order so the answer is stable; list
    items positionally.  Returns a JSONPath-ish string like
    ``$.qos.response_time`` or ``$.image_times[3][1]``.
    """
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                return f"{path}.{key}"
            sub = first_payload_divergence(a[key], b[key], f"{path}.{key}")
            if sub is not None:
                return sub
        return None
    if isinstance(a, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            sub = first_payload_divergence(x, y, f"{path}[{i}]")
            if sub is not None:
                return sub
        if len(a) != len(b):
            return f"{path}[{min(len(a), len(b))}]"
        return None
    return None if a == b else path


class ScheduleExplorer:
    """Bounded exploration of one scenario's tie-permutation space.

    ``max_schedules`` bounds search executions (diagnostic re-runs for
    minimization and localization are counted in the result's
    ``schedules`` but never cut a divergence report short);
    ``max_depth`` bounds nested flips per schedule.  With
    ``stop_on_divergence`` (default) the search stops at the first
    divergent schedule — one counterexample is enough for a gate.
    """

    def __init__(
        self,
        scenario: Scenario,
        max_schedules: int = 24,
        max_depth: int = 3,
        localize: bool = True,
        stop_on_divergence: bool = True,
    ):
        self.scenario = scenario
        self.max_schedules = max_schedules
        self.max_depth = max_depth
        self.localize = localize
        self.stop_on_divergence = stop_on_divergence
        self.runs = 0
        self._tie_windows = 0

    # -- execution -------------------------------------------------------
    def _execute(
        self,
        flips: Tuple[Flip, ...],
        detect: bool = True,
        recorder: Any = None,
    ) -> Tuple[str, List[Dict[str, Any]], Optional[Dict[str, Any]], Optional[str]]:
        """One run under ``flips``: (digest, races, payload, error).

        Later flips get higher demotion ranks, so a nested flip demotes
        its event past earlier demotions sharing the window.  A crashed
        run (a reordering can deadlock or trip an invariant) digests its
        error string — always a divergence, never a silent pass.
        """
        directives: Dict[int, int] = {}
        for i, flip in enumerate(flips):
            directives[flip.seq] = max(directives.get(flip.seq, 0), i + 1)
        policy = DemoteTiebreak(directives, observe=not flips)
        self.runs += 1
        try:
            payload = self.scenario.run(
                tiebreak=policy, detect_races=detect, recorder=recorder
            )
        except Exception as exc:  # noqa: BLE001 — crash == divergence
            error = f"{type(exc).__name__}: {exc}"
            digest = "error:" + hashlib.sha256(error.encode()).hexdigest()
            return digest, [], None, error
        if not flips:
            self._tie_windows = policy.tie_windows()
        races = list(payload.get("races", ())) if detect else []
        return payload_digest(payload), races, payload, None

    # -- search ----------------------------------------------------------
    def explore(self) -> ExplorationResult:
        base_digest, base_races, base_payload, base_error = self._execute(())
        if base_error is not None:
            raise RuntimeError(
                f"baseline run of scenario {self.scenario.name!r} failed: "
                f"{base_error}"
            )
        assert base_payload is not None

        frontier: deque = deque([((), base_races)])
        flipped: Set[Tuple] = set()  # race signatures already reversed
        all_sigs: Set[Tuple] = {
            Flip.from_report(r).signature() for r in base_races
        }
        divergences: List[ScheduleDivergence] = []
        explored = 0
        budget_hit: Optional[str] = None
        done = False

        while frontier and not done:
            flips, races = frontier.popleft()
            for report in races:
                flip = Flip.from_report(report)
                sig = flip.signature()
                if sig in flipped:
                    continue
                if len(flips) >= self.max_depth:
                    budget_hit = budget_hit or "max_depth"
                    continue
                if explored + 1 >= self.max_schedules:
                    budget_hit = "max_schedules"
                    done = True
                    break
                flipped.add(sig)
                trail = flips + (flip,)
                digest, child_races, _payload, error = self._execute(trail)
                explored += 1
                if digest != base_digest:
                    divergences.append(
                        self._diagnose(trail, base_digest, base_payload)
                    )
                    if self.stop_on_divergence:
                        done = True
                        break
                else:
                    all_sigs.update(
                        Flip.from_report(r).signature() for r in child_races
                    )
                    frontier.append((trail, child_races))

        # The space was exhausted only if nothing stopped us early: no
        # budget, no early divergence exit, and a drained frontier.
        exhausted = (
            budget_hit is None
            and not frontier
            and not (divergences and self.stop_on_divergence)
        )
        certified = exhausted and not divergences
        return ExplorationResult(
            scenario=self.scenario.name,
            baseline_digest=base_digest,
            schedules=self.runs,
            explored=explored,
            tie_windows=self._tie_windows,
            races_seen=len(all_sigs),
            certified=certified,
            exhausted=exhausted,
            budget_hit=budget_hit,
            divergences=divergences,
        )

    # -- diagnosis -------------------------------------------------------
    def _minimize(
        self, trail: Tuple[Flip, ...], base_digest: str
    ) -> Tuple[Flip, ...]:
        """Greedy delta-debug: drop flips while divergence persists."""
        current = list(trail)
        shrunk = True
        while shrunk and len(current) > 1:
            shrunk = False
            for i in range(len(current)):
                candidate = tuple(current[:i] + current[i + 1 :])
                digest, _races, _payload, _error = self._execute(
                    candidate, detect=False
                )
                if digest != base_digest:
                    current = list(candidate)
                    shrunk = True
                    break
        return tuple(current)

    def _diagnose(
        self,
        trail: Tuple[Flip, ...],
        base_digest: str,
        base_payload: Dict[str, Any],
    ) -> ScheduleDivergence:
        """Shrink a divergent trail and localize where outcomes split."""
        minimal = self._minimize(trail, base_digest)
        digest, _races, payload, error = self._execute(minimal, detect=False)
        payload_path: Optional[str] = None
        first_span: Optional[Dict[str, Any]] = None
        if error is None and payload is not None:
            strip = lambda p: {  # noqa: E731
                k: v for k, v in p.items() if k not in VOLATILE_KEYS
            }
            payload_path = first_payload_divergence(
                strip(base_payload), strip(payload)
            )
            if self.localize:
                first_span = self._localize(minimal)
        return ScheduleDivergence(
            flips=minimal,
            found_flips=trail,
            digest=digest,
            payload_path=payload_path,
            first_span=first_span,
            error=error,
        )

    def _localize(self, minimal: Tuple[Flip, ...]) -> Optional[Dict[str, Any]]:
        """First divergent span between baseline and flipped traces."""
        from ..obs import TraceRecorder, diff_traces

        rec_base, rec_flip = TraceRecorder(), TraceRecorder()
        _d, _r, _p, err_base = self._execute(
            (), detect=False, recorder=rec_base
        )
        _d2, _r2, _p2, err_flip = self._execute(
            minimal, detect=False, recorder=rec_flip
        )
        if err_base or err_flip or not rec_base.records or not rec_flip.records:
            return None
        result = diff_traces(rec_base.records, rec_flip.records)
        if result.first_divergence is None:
            return None
        return result.first_divergence.to_dict()


# --------------------------------------------------------------------------
# Built-in scenarios
# --------------------------------------------------------------------------


def run_racy(
    seed: int = 0, tiebreak=None, detect_races: bool = False, recorder=None
) -> Dict[str, Any]:
    """A deliberately order-sensitive workload (explorer ground truth).

    Two tie windows, each a genuine detector-visible race:

    * ``t=1``: two writers race on a *scratch* cell the payload never
      reads — a benign race, both orders produce the same payload;
    * ``t=2``: two writers race on ``winner`` (last write wins) — the
      payload depends on the tie order, so reversing this window is a
      real divergence.

    The explorer must certify nothing here: it should flip both windows,
    find the ``t=2`` flip divergent, and shrink any divergent trail to
    that single flip.
    """
    from ..sim.core import Simulator

    sim = Simulator(tiebreak=tiebreak)
    detector = None
    if detect_races:
        from .races import RaceDetector

        detector = RaceDetector(sim).attach()
    if recorder is not None:
        recorder.bind(sim)
    state: Dict[str, Any] = {"scratch": 0, "winner": None, "log": []}

    def note(label: str) -> None:
        if detector is not None:
            detector.record(label, "write")

    def scratch_writer(value: int):
        yield sim.timeout(1.0)
        note("racy.scratch")
        state["scratch"] = value

    def winner_writer(name: str):
        yield sim.timeout(2.0)
        note("racy.winner")
        if recorder is not None:
            # position makes the span order-sensitive, so trace diffing
            # can localize the flip (span structure alone would not: each
            # instant's other attrs are tied to its process, not its order)
            recorder.instant(
                "racy.write", cat="racy", writer=name,
                position=len(state["log"]),
            )
        state["winner"] = name
        state["log"].append(name)

    sim.process(scratch_writer(1), name="scratch-a")
    sim.process(scratch_writer(2), name="scratch-b")
    sim.process(winner_writer("a"), name="winner-a")
    sim.process(winner_writer("b"), name="winner-b")
    sim.run()

    payload: Dict[str, Any] = {
        "experiment": "racy",
        "seed": seed,
        "winner": state["winner"],
        "log": list(state["log"]),
    }
    if detector is not None:
        payload["races"] = [r.to_dict() for r in detector.finish()]
        detector.detach()
    if recorder is not None:
        recorder.finish()
        recorder.unbind()
    return payload


def _scene_payload(build: Callable, seed: int, **kwargs: Any) -> Dict[str, Any]:
    return build(seed=seed, **kwargs).run()[1]


def _first_line(fn: Callable) -> str:
    fn = getattr(fn, "func", fn)  # a functools.partial documents its target
    return (fn.__doc__ or "").strip().split("\n")[0]


def builtin_scenarios(seed: int = 0) -> Dict[str, Scenario]:
    """The explorable workloads behind ``repro check explore``.

    Every Scene entry of :data:`repro.scenarios.SCENARIOS` whose builder
    takes ``tiebreak`` and ``detect_races``, plus :func:`run_racy`, the
    calibration workload that must not certify.
    """
    from ..scenarios import resolve, scene_names

    out: Dict[str, Scenario] = {}
    for name in scene_names():
        build = resolve(name)
        params = inspect.signature(build).parameters
        if "tiebreak" in params and "detect_races" in params:
            out[name] = Scenario(
                name, functools.partial(_scene_payload, build, seed),
                _first_line(build),
            )
    out["racy"] = Scenario(
        "racy", functools.partial(run_racy, seed), _first_line(run_racy)
    )
    return out
