"""Process-wide redistribution plan cache.

The paper's central performance claim is that the intersection cost
``t_i`` is paid once per view set and amortised over every subsequent
access (§8.2).  A :class:`~repro.redistribution.schedule.RedistributionPlan`
depends only on the two partitioning patterns — it is data-independent
and valid for any file length — so the amortisation should not stop at
one ``View`` object: the collective-I/O aggregator, the relayout engine,
checkpoint resharding and every view set against the same pattern pair
can share a single plan.  ViPIOS and Eijkhout's formalisation both treat
the access-pattern -> communication-schedule computation as exactly this
kind of cacheable artifact.

This module provides that cache:

* plans are keyed by the *structural* identity of the two partitions
  (:meth:`repro.core.partition.Partition.structure_key` — a stable
  content hash over displacement and FALLS trees, so structurally equal
  partitions built independently, or loaded from JSON, hit the same
  entry);
* a bounded LRU with hit/miss/eviction counters and an explicit
  :func:`clear_plan_cache`;
* capacity is configurable via :func:`configure_plan_cache` or the
  ``REPRO_PLAN_CACHE_CAPACITY`` environment variable (``0`` disables
  caching entirely);
* a small companion cache for :class:`~repro.core.mapping.ElementMapper`
  instances, which view sets build per element and are likewise
  immutable and shareable.

Everything is thread-safe; cached plans and mappers are treated as
immutable by every consumer.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Dict, Tuple

from ..core.mapping import ElementMapper
from ..core.partition import Partition
from ..obs import metrics as _metrics
from .schedule import RedistributionPlan, build_plan

__all__ = [
    "PlanCache",
    "get_plan",
    "get_mapper",
    "plan_cache_stats",
    "clear_plan_cache",
    "configure_plan_cache",
]

DEFAULT_CAPACITY = int(os.environ.get("REPRO_PLAN_CACHE_CAPACITY", "256"))


class PlanCache:
    """A bounded LRU of redistribution plans keyed by partition pair.

    Not usually instantiated directly — the module-level
    :func:`get_plan` serves the process-wide instance — but separate
    caches are handy in tests and in long-running servers that want
    per-tenant bounds.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, name: str | None = None):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._capacity = capacity
        self._plans: "OrderedDict[Tuple[str, str], RedistributionPlan]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        #: When named, every hit/miss/eviction is mirrored into the
        #: process-wide metrics registry under ``plan_cache.<name>.*``
        #: (the global cache is named ``global``).
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _mirror(self, event: str, n: int = 1) -> None:
        if self.name is not None:
            _metrics.inc(f"plan_cache.{self.name}.{event}", n)

    # -- core API ------------------------------------------------------------

    def get(self, src: Partition, dst: Partition) -> RedistributionPlan:
        """The plan between ``src`` and ``dst``, built at most once per
        structural pattern pair.

        On a hit the *same* plan object is returned, so per-transfer
        derived state (periodic segment memos, projection prefix sums)
        is shared by every consumer as well.
        """
        if self._capacity == 0:
            return build_plan(src, dst)
        key = (src.structure_key(), dst.structure_key())
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                self._mirror("hits")
                return plan
            self.misses += 1
            self._mirror("misses")
        # Build outside the lock: plan construction is the expensive part
        # and must not serialise unrelated lookups.
        plan = build_plan(src, dst)
        with self._lock:
            if key not in self._plans:
                self._plans[key] = plan
                while len(self._plans) > self._capacity:
                    self._plans.popitem(last=False)
                    self.evictions += 1
                    self._mirror("evictions")
            return self._plans[key]

    def configure(self, capacity: int) -> None:
        """Change the capacity, evicting LRU entries as needed."""
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        with self._lock:
            self._capacity = capacity
            while len(self._plans) > capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
                self._mirror("evictions")

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0
            if self.name is not None:
                _metrics.reset_metrics(f"plan_cache.{self.name}")

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters plus current size and capacity."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._plans),
                "capacity": self._capacity,
            }

    def __len__(self) -> int:
        return len(self._plans)


class _MapperCache:
    """LRU of :class:`ElementMapper` keyed by (partition key, element)."""

    def __init__(self, capacity: int = 1024):
        self._capacity = capacity
        self._mappers: "OrderedDict[Tuple[str, int], ElementMapper]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, partition: Partition, element: int) -> ElementMapper:
        key = (partition.structure_key(), element)
        with self._lock:
            mapper = self._mappers.get(key)
            if mapper is not None:
                self._mappers.move_to_end(key)
                return mapper
        mapper = ElementMapper(partition, element)
        with self._lock:
            self._mappers.setdefault(key, mapper)
            while len(self._mappers) > self._capacity:
                self._mappers.popitem(last=False)
            return self._mappers[key]

    def clear(self) -> None:
        with self._lock:
            self._mappers.clear()


_GLOBAL_PLANS = PlanCache(name="global")
_GLOBAL_MAPPERS = _MapperCache()


def get_plan(src: Partition, dst: Partition) -> RedistributionPlan:
    """The process-wide cached redistribution plan for a pattern pair.

    Drop-in replacement for
    :func:`repro.redistribution.schedule.build_plan` wherever the caller
    does not mutate the plan (no caller does — plans are
    data-independent schedules).
    """
    return _GLOBAL_PLANS.get(src, dst)


def get_mapper(partition: Partition, element: int) -> ElementMapper:
    """A shared :class:`ElementMapper` for one partition element."""
    return _GLOBAL_MAPPERS.get(partition, element)


def plan_cache_stats() -> Dict[str, int]:
    """Counters of the process-wide plan cache."""
    return _GLOBAL_PLANS.stats()


def clear_plan_cache() -> None:
    """Empty the process-wide plan (and mapper) cache and reset stats."""
    _GLOBAL_PLANS.clear()
    _GLOBAL_MAPPERS.clear()


def configure_plan_cache(capacity: int) -> None:
    """Set the process-wide plan cache capacity (``0`` disables it)."""
    _GLOBAL_PLANS.configure(capacity)
