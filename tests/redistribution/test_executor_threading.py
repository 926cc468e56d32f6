"""Regression test: cached plans share one executor process-wide, and
threads executing one plan concurrently must not see each other's bytes.

The executor once gathered every transfer into a scratch buffer kept on
the (process-wide cached) plan, which two threads could fill at once.
It now copies source segments straight onto destination segments and
keeps only an immutable memo; this test drives the racing shape and
checks every thread's output against the serial result.
"""

import threading

import numpy as np

from repro import matrix_partition
from repro.redistribution import distribute
from repro.redistribution.executor import execute_plan
from repro.redistribution.plan_cache import clear_plan_cache, get_plan


def _case(seed):
    n = 48
    data = np.random.default_rng(seed).integers(0, 256, n * n, dtype=np.uint8)
    src_p = matrix_partition("c", n, n, 4)
    dst_p = matrix_partition("b", n, n, 4)
    return data, src_p, dst_p


class TestSharedPlanScratchRace:
    def test_concurrent_execute_on_one_cached_plan(self):
        clear_plan_cache()
        data, src_p, dst_p = _case(11)
        plan = get_plan(src_p, dst_p)
        assert get_plan(src_p, dst_p) is plan  # genuinely shared object

        # Per-thread distinct payloads: bytes that reach a neighbour's
        # destination come from the wrong payload and fail the
        # comparison below.
        n_threads = 8
        reps = 20
        payloads = [
            np.random.default_rng(100 + i).integers(
                0, 256, data.size, dtype=np.uint8
            )
            for i in range(n_threads)
        ]
        sources = [distribute(p, src_p) for p in payloads]
        expected = [execute_plan(plan, s, data.size) for s in sources]

        barrier = threading.Barrier(n_threads)
        failures = []

        def worker(i):
            src = sources[i]
            want = expected[i]
            barrier.wait()
            for _ in range(reps):
                got = execute_plan(plan, src, data.size)
                for a, b in zip(want, got):
                    if not np.array_equal(a, b):
                        failures.append(i)
                        return

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, f"threads {sorted(set(failures))} saw corrupt bytes"
