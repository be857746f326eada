"""History windows for the monitoring agent's raw-data processing.

"The monitoring agent runs periodically (every 10 ms) and processes raw
data within a history window."
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

__all__ = ["HistoryWindow", "EWMA"]


class HistoryWindow:
    """Time-windowed scalar samples with mean/min/max/last queries.

    Times and values live in two parallel deques so that the per-tick
    queries run the builtins straight over the values: ``mean()`` is one
    ``sum`` over the window (the same float additions, in the same order,
    as summing the values of ``(time, value)`` pairs).
    """

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        self.window = float(window)
        self._times: Deque[float] = deque()
        self._values: Deque[float] = deque()

    def record(self, time: float, value: float) -> None:
        times = self._times
        if times and time < times[-1] - 1e-12:
            raise ValueError("samples must arrive in time order")
        times.append(time)
        self._values.append(value)
        cutoff = time - self.window
        # window > 0, so the sample just appended always survives the trim.
        while times[0] < cutoff:
            times.popleft()
            self._values.popleft()

    def __len__(self) -> int:
        return len(self._values)

    @property
    def empty(self) -> bool:
        return not self._values

    def samples(self) -> List[Tuple[float, float]]:
        """The window's ``(time, value)`` pairs, oldest first."""
        return list(zip(self._times, self._values))

    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    def mean(self) -> Optional[float]:
        values = self._values
        if not values:
            return None
        return sum(values) / len(values)

    def minimum(self) -> Optional[float]:
        return min(self._values, default=None)

    def maximum(self) -> Optional[float]:
        return max(self._values, default=None)

    def clear(self) -> None:
        self._times.clear()
        self._values.clear()


class EWMA:
    """Exponentially weighted moving average (alpha per update)."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self._value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self._value is None:
            self._value = float(sample)
        else:
            self._value += self.alpha * (sample - self._value)
        return self._value

    @property
    def value(self) -> Optional[float]:
        return self._value

    def reset(self) -> None:
        self._value = None
