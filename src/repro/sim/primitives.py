"""Queueing primitives built on the event kernel.

- :class:`Store` — FIFO message queue with optional capacity (mailboxes,
  request queues).
- :class:`Resource` — counted semaphore with FIFO waiters (locks, bounded
  servers).
- :class:`Container` — continuous quantity (token buckets, buffers).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Store", "StorePut", "StoreGet", "Resource", "Request", "Container"]


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


class Request(Event):
    """A pending or held claim on a :class:`Resource` unit.

    Usable as a context manager inside a process::

        with resource.request() as req:
            yield req
            ...  # holding one unit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        resource._waiters.append(self)
        resource._dispatch()

    def release(self) -> None:
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class Resource:
    """Counted resource with FIFO granting."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._users: list = []
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Units currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        else:
            # Cancelling a queued request is allowed.
            try:
                self._waiters.remove(request)
            except ValueError:
                return
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiters and len(self._users) < self.capacity:
            req = self._waiters.popleft()
            self._users.append(req)
            req.succeed()


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise SimulationError(f"put amount must be positive, got {amount!r}")
        super().__init__(container.sim)
        self.amount = amount
        container._put_waiters.append(self)
        container._dispatch()


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        if amount <= 0:
            raise SimulationError(f"get amount must be positive, got {amount!r}")
        super().__init__(container.sim)
        self.amount = amount
        container._get_waiters.append(self)
        container._dispatch()


class Container:
    """A continuous quantity with blocking put/get (e.g. a token bucket)."""

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity!r}")
        if not 0 <= init <= capacity:
            raise SimulationError(f"init {init!r} outside [0, {capacity!r}]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(init)
        self._put_waiters: Deque[_ContainerPut] = deque()
        self._get_waiters: Deque[_ContainerGet] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> _ContainerPut:
        return _ContainerPut(self, amount)

    def get(self, amount: float) -> _ContainerGet:
        return _ContainerGet(self, amount)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_waiters:
                put = self._put_waiters[0]
                if self._level + put.amount <= self.capacity + 1e-12:
                    self._put_waiters.popleft()
                    self._level += put.amount
                    put.succeed()
                    progressed = True
            if self._get_waiters:
                get = self._get_waiters[0]
                if self._level >= get.amount - 1e-12:
                    self._get_waiters.popleft()
                    self._level = max(0.0, self._level - get.amount)
                    get.succeed()
                    progressed = True
