"""Queueing primitive built on the event kernel.

- :class:`Store` — FIFO message queue with optional capacity (mailboxes,
  request queues).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Store", "StorePut", "StoreGet"]


class StorePut(Event):
    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item
        #: Back-reference so teardown code (e.g. a supervisor killing a
        #: parked process) can find the owning store without extra plumbing.
        self.store = store
        store._put_waiters.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ("filter", "store")

    def __init__(self, store: "Store", filter=None):
        super().__init__(store.sim)
        self.filter = filter
        #: Back-reference for :meth:`Store.cancel` from teardown code.
        self.store = store
        store._get_waiters.append(self)
        store._dispatch()


class Store:
    """FIFO store of items; ``put`` and ``get`` return waitable events.

    ``get`` accepts an optional ``filter`` predicate, turning the store into
    a filtered mailbox (used e.g. to wait for a reply matching a request id).
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def post(self, item: Any) -> None:
        """Put ``item`` for a caller that will not wait on the put.

        With room in the store (and no earlier put still queued) the item
        goes in at once and no event is made: a put event nobody waits on
        would only cost a step.  Otherwise it queues as :meth:`put` does.
        """
        if self._put_waiters or len(self.items) >= self.capacity:
            StorePut(self, item)
            return
        self.items.append(item)
        self._dispatch()

    def get(self, filter=None) -> StoreGet:
        return StoreGet(self, filter)

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; None when empty."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return item
        return None

    def cancel(self, get: StoreGet) -> None:
        """Withdraw a pending ``get`` so it can no longer consume an item.

        Needed when the waiting process is being torn down (e.g. an
        interrupted mailbox receiver): the interrupt detaches the process
        from the event, but the :class:`StoreGet` would otherwise stay
        queued and silently swallow the next item.
        """
        try:
            self._get_waiters.remove(get)
        except ValueError:
            pass

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit puts while there is room.
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            # Serve gets. Filtered gets scan the queue; unfiltered take FIFO.
            NO_MATCH = StoreGet  # sentinel distinct from any stored item
            i = 0
            while i < len(self._get_waiters):
                get = self._get_waiters[i]
                matched: Any = NO_MATCH
                if get.filter is None:
                    if self.items:
                        matched = self.items.popleft()
                else:
                    for j, item in enumerate(self.items):
                        if get.filter(item):
                            matched = item
                            del self.items[j]
                            break
                if matched is NO_MATCH:
                    i += 1
                    continue
                del self._get_waiters[i]
                get.succeed(matched)
                progressed = True

