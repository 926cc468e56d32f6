"""Tests for the process-wide plan cache and the reusable executor."""

import os

import numpy as np
import pytest

from repro.core.serialize import partition_from_json, partition_to_json
from repro.distributions import matrix_partition, round_robin
from repro.redistribution import (
    PlanCache,
    PlanExecutor,
    build_plan,
    clear_plan_cache,
    collect,
    configure_plan_cache,
    distribute,
    get_plan,
    plan_cache_stats,
    redistribute,
)


@pytest.fixture(autouse=True)
def _isolate_global_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()
    configure_plan_cache(256)


def _pair(n=32, a="r", b="c", p=4):
    return matrix_partition(a, n, n, p), matrix_partition(b, n, n, p)


class TestPlanCache:
    def test_hit_returns_same_object(self):
        cache = PlanCache(capacity=4)
        src, dst = _pair()
        first = cache.get(src, dst)
        assert cache.get(src, dst) is first
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_structural_hit_across_json_roundtrip(self):
        cache = PlanCache(capacity=4)
        src, dst = _pair()
        first = cache.get(src, dst)
        src2 = partition_from_json(partition_to_json(src))
        dst2 = partition_from_json(partition_to_json(dst))
        assert cache.get(src2, dst2) is first

    def test_direction_matters(self):
        cache = PlanCache(capacity=4)
        src, dst = _pair()
        assert cache.get(src, dst) is not cache.get(dst, src)
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        pairs = [_pair(b=l) for l in ("c", "b")] + [
            (round_robin(2, 3), round_robin(3, 2))
        ]
        plans = [cache.get(s, d) for s, d in pairs]
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2
        # The first pair was evicted: re-fetching misses and rebuilds.
        rebuilt = cache.get(*pairs[0])
        assert rebuilt is not plans[0]
        # The last two still hit.
        assert cache.get(*pairs[2]) is plans[2]

    def test_lru_order_updated_on_hit(self):
        cache = PlanCache(capacity=2)
        s1, d1 = _pair(b="c")
        s2, d2 = _pair(b="b")
        p1 = cache.get(s1, d1)
        cache.get(s2, d2)
        cache.get(s1, d1)  # touch: pair 1 is now most recent
        cache.get(round_robin(2, 3), round_robin(3, 2))  # evicts pair 2
        assert cache.get(s1, d1) is p1
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = PlanCache(capacity=0)
        src, dst = _pair()
        a = cache.get(src, dst)
        b = cache.get(src, dst)
        assert a is not b
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0

    def test_configure_shrinks(self):
        cache = PlanCache(capacity=8)
        cache.get(*_pair(b="c"))
        cache.get(*_pair(b="b"))
        cache.configure(1)
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1

    def test_clear_resets(self):
        cache = PlanCache(capacity=4)
        cache.get(*_pair())
        cache.get(*_pair())
        cache.clear()
        stats = cache.stats()
        assert stats == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "capacity": 4,
        }

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)
        with pytest.raises(ValueError):
            PlanCache(capacity=2).configure(-3)

    def test_global_cache_and_stats(self):
        src, dst = _pair()
        plan = get_plan(src, dst)
        assert get_plan(src, dst) is plan
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        clear_plan_cache()
        assert plan_cache_stats()["size"] == 0

    def test_named_cache_mirrors_into_metrics(self):
        from repro.obs import metrics

        metrics.reset_metrics("plan_cache.test")
        cache = PlanCache(capacity=1, name="test")
        p1 = _pair(b="c")
        p2 = _pair(b="b")
        cache.get(*p1)
        cache.get(*p1)
        cache.get(*p2)  # evicts p1
        snap = metrics.snapshot("plan_cache.test")
        assert snap == {
            "plan_cache.test.hits": 1,
            "plan_cache.test.misses": 2,
            "plan_cache.test.evictions": 1,
        }
        cache.clear()
        assert metrics.snapshot("plan_cache.test") == {}

    def test_unnamed_cache_stays_out_of_metrics(self):
        from repro.obs import metrics

        before = metrics.snapshot("plan_cache")
        PlanCache(capacity=2).get(*_pair())
        assert metrics.snapshot("plan_cache") == before


class TestCapacityEnvKnob:
    """REPRO_PLAN_CACHE_CAPACITY is read at import time, so a fresh
    interpreter is required to observe it (this is also the CI guard
    against regressions in the env parsing)."""

    def _capacity_under_env(self, value):
        import subprocess
        import sys

        code = (
            "from repro.redistribution.plan_cache import plan_cache_stats; "
            "print(plan_cache_stats()['capacity'])"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, REPRO_PLAN_CACHE_CAPACITY=value)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return int(out.stdout.strip())

    def test_env_sets_capacity(self):
        assert self._capacity_under_env("7") == 7

    def test_env_zero_disables(self):
        assert self._capacity_under_env("0") == 0


class TestEndpointIndices:
    def test_transfers_from_to_match_scan(self):
        src, dst = _pair(b="b")
        plan = build_plan(src, dst)
        for i in range(src.num_elements):
            assert plan.transfers_from(i) == [
                t for t in plan.transfers if t.src_element == i
            ]
        for j in range(dst.num_elements):
            assert plan.transfers_to(j) == [
                t for t in plan.transfers if t.dst_element == j
            ]
        assert plan.transfers_from(99) == []
        assert plan.transfers_to(99) == []


class TestPlanExecutor:
    def test_repeated_execution_is_stable(self):
        rng = np.random.default_rng(5)
        src, dst = _pair(b="b")
        n = 32 * 32
        plan = build_plan(src, dst)
        ex = PlanExecutor(plan)
        for _ in range(3):
            data = rng.integers(0, 256, n, dtype=np.uint8)
            out = ex.execute(distribute(data, src), n)
            np.testing.assert_array_equal(collect(out, dst, n), data)


class TestRedistributeStructural:
    def test_plan_for_equal_partitions_accepted(self):
        rng = np.random.default_rng(7)
        src, dst = _pair(b="c")
        n = 32 * 32
        data = rng.integers(0, 256, n, dtype=np.uint8)
        plan = get_plan(src, dst)
        # Structurally equal rebuilt partitions must be usable with a
        # cached plan (identity comparison would reject them).
        src2 = partition_from_json(partition_to_json(src))
        dst2 = partition_from_json(partition_to_json(dst))
        out = redistribute(src2, dst2, distribute(data, src), n, plan=plan)
        np.testing.assert_array_equal(collect(out, dst, n), data)

    def test_mismatched_plan_rejected(self):
        src, dst = _pair(b="c")
        other = matrix_partition("b", 32, 32, 4)
        plan = build_plan(src, dst)
        data = distribute(np.zeros(32 * 32, np.uint8), src)
        with pytest.raises(ValueError):
            redistribute(src, other, data, 32 * 32, plan=plan)

    def test_redistribute_uses_global_cache(self):
        src, dst = _pair(b="b")
        n = 32 * 32
        data = distribute(np.arange(n, dtype=np.uint8) % 251, src)
        redistribute(src, dst, data, n)
        redistribute(src, dst, data, n)
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
