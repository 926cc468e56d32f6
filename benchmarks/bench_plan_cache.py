"""Plan-cache benchmark: cold schedule construction vs warm cache hits.

For every Table-1 partition pair (row-block logical views vs the three
physical layouts at each paper size) it times

* **cold** — a full ``build_plan`` (segment-space intersection + PROJ
  over all element pairs), the paper's ``t_i``;
* **warm** — ``PlanCache.get`` on a populated cache, what every view
  set, collective, relayout and reshard after the first one pays;

and reports how many element pairs communicate (candidate vs pruned vs
transfers).

Structural assertions only — no committed result file, no budget: warm
hits are at least 10x faster than cold builds for every pair, and the
metrics registry's hit/miss counters match the traffic.  What a cold
build costs inside a whole op is ``benchmarks/e2e``'s ``cold_views``.

    PYTHONPATH=src python benchmarks/bench_plan_cache.py     # the table
    PYTHONPATH=src python -m pytest benchmarks/bench_plan_cache.py -q
"""

import statistics
import time

from repro.bench.workloads import PAPER_PHYSICAL_LAYOUTS, PAPER_SIZES
from repro.distributions.multidim import matrix_partition, row_blocks
from repro.obs import metrics
from repro.redistribution.plan_cache import PlanCache
from repro.redistribution.schedule import build_plan

NPROCS = 4


def _pairs():
    for n in PAPER_SIZES:
        for ph in PAPER_PHYSICAL_LAYOUTS:
            yield n, ph, row_blocks(n, n, NPROCS), matrix_partition(
                ph, n, n, NPROCS
            )


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(repeats: int = 9) -> dict:
    """Cold/warm medians and pair counts for every Table-1 pair.

    Cache traffic is read back from the process-wide metrics registry
    (the benchmark cache is named ``bench``, so its hits/misses land
    under ``plan_cache.bench.*``), not from private counters.
    """
    rows = []
    metrics.reset_metrics("plan_cache.bench")
    for n, ph, logical, physical in _pairs():
        cold_s = _median_time(lambda: build_plan(logical, physical), repeats)
        cache = PlanCache(capacity=8, name="bench")
        plan = cache.get(logical, physical)  # populate
        warm_s = _median_time(lambda: cache.get(logical, physical), repeats)
        rows.append(
            {
                "size": n,
                "physical": ph,
                "cold_us": cold_s * 1e6,
                "warm_us": warm_s * 1e6,
                "speedup": cold_s / warm_s if warm_s else float("inf"),
                "candidate_pairs": plan.candidate_pairs,
                "pruned_pairs": plan.pruned_pairs,
                "transfers": len(plan.transfers),
            }
        )
    snap = metrics.snapshot("plan_cache.bench")
    cache_stats = {
        "hits": snap.get("plan_cache.bench.hits", 0),
        "misses": snap.get("plan_cache.bench.misses", 0),
        "evictions": snap.get("plan_cache.bench.evictions", 0),
    }
    # One miss (populate) + `repeats` hits per pair, no evictions: a
    # mismatch means the registry mirroring regressed.
    assert cache_stats["misses"] == len(rows), cache_stats
    assert cache_stats["hits"] == len(rows) * repeats, cache_stats
    return {"rows": rows, "cache_stats": cache_stats}


def test_warm_hits_are_10x_faster_than_cold_builds():
    result = measure(repeats=5)
    for row in result["rows"]:
        assert row["speedup"] >= 10, row
        assert row["transfers"] == row["candidate_pairs"] - row["pruned_pairs"]


if __name__ == "__main__":
    result = measure()
    for row in result["rows"]:
        print(
            f"{row['size']:5d} r->{row['physical']}: "
            f"cold {row['cold_us']:9.1f} us, warm {row['warm_us']:6.2f} us "
            f"({row['speedup']:8.0f}x), {row['transfers']:2d} of "
            f"{row['candidate_pairs']} pairs communicate"
        )
    print(f"cache traffic {result['cache_stats']}")
