"""Physical-memory model: per-process resident sets with LRU eviction.

The paper's sandbox limits the *physical* memory of a process by switching
protection bits on mapped pages; exceeding the resident limit turns page
touches into protection faults that cost time.  We model exactly that
accounting: a :class:`MemorySpace` tracks which virtual pages are resident,
and :meth:`touch` reports how many faults a sweep over a page range incurs
under the current limit.  The caller (the sandbox) converts faults into
virtual-time cost.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

__all__ = ["Memory", "MemorySpace", "MemoryError_"]


class MemoryError_(Exception):
    """Raised on invalid memory operations (name avoids shadowing builtins)."""


class Memory:
    """A host's physical memory, divided among process memory spaces."""

    def __init__(self, total_pages: int):
        if total_pages <= 0:
            raise MemoryError_(f"total_pages must be positive, got {total_pages!r}")
        self.total_pages = int(total_pages)
        self._reserved = 0
        self.spaces: list = []
        #: Passive accounting tap: ``tap(space, faults)`` on every faulting
        #: page sweep.  Propagated to spaces created after installation.
        self.usage_tap = None

    def install_usage_tap(self, tap) -> None:
        """Route page-fault deltas of every space to ``tap(space, faults)``."""
        self.usage_tap = tap
        for space in self.spaces:
            space.usage_tap = tap

    @property
    def reserved_pages(self) -> int:
        return self._reserved

    @property
    def free_pages(self) -> int:
        return self.total_pages - self._reserved

    def create_space(self, resident_limit: int) -> "MemorySpace":
        """Reserve ``resident_limit`` physical pages for a new process."""
        if resident_limit <= 0:
            raise MemoryError_(f"resident_limit must be positive, got {resident_limit!r}")
        if resident_limit > self.free_pages:
            raise MemoryError_(
                f"cannot reserve {resident_limit} pages; only {self.free_pages} free"
            )
        self._reserved += resident_limit
        space = MemorySpace(self, resident_limit)
        space.usage_tap = self.usage_tap
        self.spaces.append(space)
        return space

    def release_space(self, space: "MemorySpace") -> None:
        if space in self.spaces:
            self.spaces.remove(space)
            self._reserved -= space.resident_limit


class MemorySpace:
    """Virtual pages of one process mapped onto a bounded resident set."""

    def __init__(self, memory: Memory, resident_limit: int):
        self.memory = memory
        self.resident_limit = int(resident_limit)
        self.allocated: set = set()
        # Resident pages in LRU order (oldest first).
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.fault_count = 0
        #: Passive accounting tap (see :meth:`Memory.install_usage_tap`).
        self.usage_tap = None

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def allocated_pages(self) -> int:
        return len(self.allocated)

    def set_resident_limit(self, limit: int) -> None:
        """Adjust the limit (sandbox reconfiguration); evicts if shrinking."""
        if limit <= 0:
            raise MemoryError_(f"resident_limit must be positive, got {limit!r}")
        grow = limit - self.resident_limit
        if grow > self.memory.free_pages:
            raise MemoryError_("not enough free physical pages to grow limit")
        self.memory._reserved += grow
        self.resident_limit = int(limit)
        while len(self._resident) > self.resident_limit:
            self._resident.popitem(last=False)

    def alloc_range(self, start: int, count: int) -> range:
        pages = range(start, start + count)
        self.allocated.update(pages)
        return pages

    def free(self, pages: Iterable[int]) -> None:
        for p in pages:
            p = int(p)
            self.allocated.discard(p)
            self._resident.pop(p, None)

    def touch(self, pages: Iterable[int]) -> int:
        """Access pages in order; returns the number of faults incurred.

        A fault happens when the page is not resident; bringing it in evicts
        the LRU page if the resident set is at its limit.
        """
        faults = 0
        for p in pages:
            p = int(p)
            if p not in self.allocated:
                raise MemoryError_(f"touch of unallocated page {p}")
            if p in self._resident:
                self._resident.move_to_end(p)
                continue
            faults += 1
            if len(self._resident) >= self.resident_limit:
                self._resident.popitem(last=False)
            self._resident[p] = None
        self.fault_count += faults
        if faults and self.usage_tap is not None:
            self.usage_tap(self, faults)
        return faults

    def touch_range(self, start: int, count: int) -> int:
        return self.touch(range(start, start + count))
