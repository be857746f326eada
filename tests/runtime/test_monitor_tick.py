"""The monitoring agent's per-tick path: exact equivalence and cost contract.

Every 10 ms tick samples the watched resources and checks the current
decision's conditions.  These tests pin that the tick's results are the
same floats a straightforward implementation computes, and that the
condition check reads only the windows that carry a condition.
"""

import math
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import HistoryWindow
from repro.runtime.monitor import MonitoringAgent
from repro.sim import Simulator


class TupleWindow:
    """Reference window: one deque of ``(time, value)`` pairs."""

    def __init__(self, window):
        self.window = float(window)
        self._samples = deque()

    def record(self, time, value):
        if self._samples and time < self._samples[-1][0] - 1e-12:
            raise ValueError("samples must arrive in time order")
        self._samples.append((time, value))
        cutoff = time - self.window
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def __len__(self):
        return len(self._samples)

    def last(self):
        return self._samples[-1][1] if self._samples else None

    def mean(self):
        if not self._samples:
            return None
        return sum(v for _, v in self._samples) / len(self._samples)

    def minimum(self):
        return min((v for _, v in self._samples), default=None)

    def maximum(self):
        return max((v for _, v in self._samples), default=None)

    def samples(self):
        return list(self._samples)


# Values spanning many magnitudes, so the order and grouping of the float
# additions inside ``mean()`` shows in the result.
values = st.one_of(
    st.floats(min_value=-1e-9, max_value=1e-9),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e12, max_value=1e12),
    st.sampled_from([0.1, 0.2, 0.3, 1e-16, 1e16]),
)
# Non-decreasing sample times: repeated instants, small and large gaps.
streams = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        values,
    ),
    max_size=80,
)


def _times(stream):
    t = 0.0
    for gap, value in stream:
        t += gap
        yield t, value


@given(window=st.floats(min_value=0.01, max_value=5.0), stream=streams)
@settings(max_examples=200, deadline=None)
def test_history_window_matches_tuple_reference_exactly(window, stream):
    new, ref = HistoryWindow(window), TupleWindow(window)
    for t, v in _times(stream):
        new.record(t, v)
        ref.record(t, v)
        assert new.mean() == ref.mean()  # exact: same sum, same order
        assert len(new) == len(ref)
        assert new.last() == ref.last()
        assert new.minimum() == ref.minimum()
        assert new.maximum() == ref.maximum()
        assert new.samples() == ref.samples()
    new.clear()
    assert new.empty and new.mean() is None and new.samples() == []


def make_agent(watch, hysteresis=0.05):
    rt = SimpleNamespace(sim=Simulator(), sandboxes={}, finished=None)
    return MonitoringAgent(rt, watch=watch, window=1.0, hysteresis=hysteresis)


@given(
    stream=streams,
    conditions=st.dictionaries(
        st.sampled_from(["a.cpu", "b.network", "crowd.x.qos"]),
        st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    ),
)
@settings(max_examples=100, deadline=None)
def test_snapshot_restore_round_trip(stream, conditions):
    watch = ["a.cpu", "b.network", "crowd.x.qos"]
    agent = make_agent(watch)
    agent.retarget(conditions=conditions)
    for i, (t, v) in enumerate(_times(stream)):
        agent._histories[watch[i % 3]].record(t, v)
    state = agent.snapshot()
    twin = make_agent(["a.cpu"])
    twin.restore(state)
    assert twin.snapshot() == state
    assert twin.estimates() == agent.estimates()
    assert twin._check_conditions() == agent._check_conditions()


class GuardedWindow(HistoryWindow):
    """A window whose ``mean()`` fails while ``armed``."""

    armed = True

    def mean(self):
        if self.armed:
            raise AssertionError("read a window that carries no condition")
        return super().mean()


def test_check_reads_only_conditioned_windows():
    agent = make_agent(["a.cpu", "b.cpu", "c.cpu"])
    guarded = agent._histories["b.cpu"] = GuardedWindow(1.0)
    guarded.record(0.0, 5.0)
    agent._histories["a.cpu"].record(0.0, 0.7)
    agent._histories["c.cpu"].record(0.0, 0.1)
    # c.cpu keeps its (violating) window but is no longer watched.
    agent.retarget(
        watch=["a.cpu", "b.cpu"],
        conditions={"a.cpu": (0.5, 1.0), "c.cpu": (0.5, 1.0)},
    )
    # a.cpu inside its bounds, c.cpu unwatched: no violation, and the
    # window without a condition is never read.
    assert agent._check_conditions() is None

    # Tighter bounds take effect on retarget: 0.7 < 0.9 - 5 % margin.
    agent.retarget(conditions={"a.cpu": (0.9, 1.0), "c.cpu": (0.5, 1.0)})
    guarded.armed = False
    violation = agent._check_conditions()
    assert violation == agent.estimates() == {"a.cpu": 0.7, "b.cpu": 5.0}

    # Inside the hysteresis margin is not a violation.
    agent.retarget(conditions={"a.cpu": (0.72, 1.0)})
    assert agent._check_conditions() is None


def parent_check(agent, conditions):
    """The check as one expression over all estimates (the reference)."""
    estimates = agent.estimates()
    for resource, (lo, hi) in conditions.items():
        est = estimates.get(resource)
        if est is None:
            continue
        lo_margin = agent.hysteresis * max(abs(lo), 1e-12)
        hi_margin = agent.hysteresis * max(abs(hi), 1e-12)
        if (math.isfinite(lo) and est < lo - lo_margin) or (
            math.isfinite(hi) and est > hi + hi_margin
        ):
            return estimates
    return None


bounds = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([-math.inf, math.inf, 0.0, 1e-13]),
)


@given(
    hysteresis=st.sampled_from([0.0, 0.05, 0.25]),
    estimates=st.lists(st.one_of(st.none(), st.floats(-2.0, 2.0)),
                       min_size=3, max_size=3),
    conditions=st.dictionaries(
        st.sampled_from(["a.cpu", "b.cpu", "c.cpu", "d.cpu"]),
        st.tuples(bounds, bounds),
    ),
)
@settings(max_examples=300, deadline=None)
def test_check_matches_reference_formula(hysteresis, estimates, conditions):
    agent = make_agent(["a.cpu", "b.cpu", "c.cpu"], hysteresis=hysteresis)
    for resource, est in zip(agent.watch, estimates):
        if est is not None:
            agent._histories[resource].record(0.0, est)
    agent.retarget(conditions=conditions)
    assert agent._check_conditions() == parent_check(agent, conditions)


def test_transfer_sampling_re_anchors_after_the_log_trims():
    """Transfers finished between two ticks are read from the first unseen
    one even when the bounded log trimmed its front meanwhile."""
    from repro.sandbox.sandbox import TransferLog

    rt = SimpleNamespace(sim=Simulator(), sandboxes={}, finished=None)
    agent = MonitoringAgent(rt, watch=["b.network"], window=1e6)
    hist = agent._histories["b.network"]
    log = TransferLog()
    for i in range(4000):
        log.add(float(i), i + 0.5, 8192.0)
    agent._sample_transfers("b.network", "b.network:recv", log)
    assert agent._net_seen == {"b.network:recv": 4000} and len(hist) == 4000
    for i in range(4000, 4200):
        log.add(float(i), i + 0.25, 8192.0)
    assert (log.dropped, len(log), log.offset) == (2048, 2152, 4200)
    hist.clear()
    agent._sample_transfers("b.network", "b.network:recv", log)
    assert agent._net_seen == {"b.network:recv": 4200}
    assert [v for _, v in hist.samples()] == [8192.0 / 0.25] * 200
    agent._sample_transfers("b.network", "b.network:recv", log)
    assert len(hist) == 200  # nothing finished since the last tick
