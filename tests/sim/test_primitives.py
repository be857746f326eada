"""Tests for the Store primitive."""

import pytest

from repro.sim import SimulationError, Simulator, Store


# ---------------------------------------------------------------- Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put("msg")
        item = yield store.get()
        return item

    assert sim.run_process(proc()) == "msg"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = {}

    def consumer():
        item = yield store.get()
        times["got"] = (sim.now, item)

    def producer():
        yield sim.timeout(3.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times["got"] == (3.0, "late")


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    progress = []

    def producer():
        yield store.put("a")
        progress.append(("a", sim.now))
        yield store.put("b")
        progress.append(("b", sim.now))

    def consumer():
        yield sim.timeout(5.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert progress == [("a", 0.0), ("b", 5.0)]


def test_store_invalid_capacity():
    with pytest.raises(SimulationError):
        Store(Simulator(), capacity=0)


def test_store_filtered_get():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put({"id": 1})
        yield store.put({"id": 2})
        match = yield store.get(filter=lambda m: m["id"] == 2)
        return (match["id"], len(store))

    assert sim.run_process(proc()) == (2, 1)


def test_store_filtered_get_waits_for_matching_item():
    sim = Simulator()
    store = Store(sim)
    result = {}

    def consumer():
        match = yield store.get(filter=lambda m: m == "wanted")
        result["t"] = sim.now
        result["item"] = match

    def producer():
        yield store.put("other")
        yield sim.timeout(2.0)
        yield store.put("wanted")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert result == {"t": 2.0, "item": "wanted"}
    assert list(store.items) == ["other"]


def test_store_none_item_is_deliverable():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put(None)
        item = yield store.get()
        return item is None

    assert sim.run_process(proc()) is True


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    sim.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_multiple_consumers_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    def producer():
        yield sim.timeout(1.0)
        yield store.put("first")
        yield store.put("second")

    sim.process(consumer("c1"))
    sim.process(consumer("c2"))
    sim.process(producer())
    sim.run()
    assert got == [("c1", "first"), ("c2", "second")]

