"""Fault-machinery benchmark: what robustness costs when nothing fails,
and what recovery costs when something does.

Two measurements:

* **fault-free overhead** — the PR-1 plan-cache workload (Table-1
  row-block views against every physical layout at every paper size)
  written and read back through the engine with no injector and with
  an injector armed with an *empty* fault plan.  Both run the one
  round-based pipeline; the injector adds an operation id, a fate draw
  and a crashed-set lookup per message, with zero faults fired (CRCs
  are stamped lazily, so intact payloads skip the hash).  The
  wall-clock gap is the full price of being armed — the aggregate must
  stay under 5% — and the bytes must match.  (The row keys
  ``fast_wall_us`` / ``robust_wall_us`` date from when these were two
  code paths; they now mean "no injector" / "empty-plan injector".)
* **recovery latency vs drop rate** — a replicated (k=2) write under
  drop rates 0/5/10/20%: modelled write-to-disk completion and retry
  counts, normalised to the 0% run.  This is the curve an operator
  reads to size retry budgets.

Run as a module to (re)generate the committed results file::

    PYTHONPATH=src python benchmarks/bench_faults.py

which writes ``BENCH_faults.json`` at the repository root, or under
pytest (``pytest benchmarks/bench_faults.py --benchmark-only``).
"""

import gc
import json
import os
import statistics
import subprocess
import time

import numpy as np

from repro.bench.workloads import PAPER_PHYSICAL_LAYOUTS, PAPER_SIZES
from repro.clusterfile.fs import Clusterfile
from repro.distributions.multidim import matrix_partition, row_blocks
from repro.faults import FaultInjector, FaultPlan, FaultRule, RetryPolicy
from repro.faults.chaos import _workload
from repro.simulation.cluster import ClusterConfig

NPROCS = 4
N_BYTES = 64 * 1024
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_faults.json",
)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _commit() -> str:
    """The commit the measured tree sits on (``+dirty`` when the tree
    has uncommitted changes); ``unknown`` outside a git checkout."""
    root = os.path.dirname(RESULT_PATH)
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def _run_write_read(plan, replication=1, seed=0, n_bytes=N_BYTES, policy=None):
    """One write+read of the standard chaos workload; returns the
    linear contents, the two OperationResults, and the wall time."""
    logical, physical, data, n = _workload(seed, n_bytes, NPROCS)
    fs = Clusterfile(
        ClusterConfig(),
        fault_injector=FaultInjector(plan) if plan is not None else None,
        retry_policy=policy or RetryPolicy(),
    )
    fs.create("bench", physical, replication=replication)
    for node in range(NPROCS):
        fs.set_view("bench", node, logical, element=node)
    t0 = time.perf_counter()
    wres = fs.write(
        "bench",
        [(node, 0, data[node]) for node in range(NPROCS)],
        to_disk=True,
    )
    bufs, rres = fs.read_with_result(
        "bench",
        [(node, 0, data[node].size) for node in range(NPROCS)],
        from_disk=True,
    )
    wall_s = time.perf_counter() - t0
    for node in range(NPROCS):
        assert np.array_equal(bufs[node], data[node])
    return fs.linear_contents("bench", n), wres, rres, wall_s


def _t_w_disk(result) -> float:
    return max(bd.t_w_disk for bd in result.per_compute.values())


def _run_table1_pair(plan, n, ph):
    """One Table-1 write+read (row-block views over layout ``ph``);
    returns wall seconds and the written contents for identity checks."""
    logical = row_blocks(n, n, NPROCS)
    physical = matrix_partition(ph, n, n, NPROCS)
    total = n * n
    fs = Clusterfile(
        ClusterConfig(),
        fault_injector=FaultInjector(plan) if plan is not None else None,
        retry_policy=RetryPolicy(),
    )
    fs.create("bench", physical)
    data = {
        e: np.full(logical.element_length(e, total), e, np.uint8)
        for e in range(NPROCS)
    }
    for e in range(NPROCS):
        fs.set_view("bench", e, logical, element=e)
    t0 = time.perf_counter()
    wres = fs.write(
        "bench", [(e, 0, data[e]) for e in range(NPROCS)], to_disk=True
    )
    bufs, _ = fs.read_with_result(
        "bench", [(e, 0, data[e].size) for e in range(NPROCS)], from_disk=True
    )
    wall_s = time.perf_counter() - t0
    for e in range(NPROCS):
        assert np.array_equal(bufs[e], data[e])
    return wall_s, fs.linear_contents("bench", total), _t_w_disk(wres)


def measure_fault_free(repeats: int = 9, inner: int = 6) -> dict:
    """Armed-but-idle overhead across every Table-1 pair (PR-1's
    plan-cache workload): no injector vs an empty-plan injector on the
    engine's one pipeline ("fast" / "robust" in the result keys).

    Shared machines drift on a seconds timescale, which swamps a
    per-pair A-then-B comparison; the drift-robust estimator is the
    **median of adjacent-window ratios**: each repetition times one
    plain and one armed window back-to-back (``inner`` runs each,
    order alternating), so both sides of a ratio see the same machine
    state, and the median discards preempted windows.  The per-pair
    baseline is the best plain window (noise only ever adds time).
    """
    rows = []
    fast_total = extra_total = 0.0
    # A GC cycle landing inside one side's timed window but not the
    # other's dwarfs the effect being measured; collect between
    # windows, never during them.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for n in PAPER_SIZES:
            for ph in PAPER_PHYSICAL_LAYOUTS:
                # Byte identity and modelled-time identity: an empty
                # plan must be invisible to the data and the simulated
                # clock.  Checked once, outside any timed window (this
                # also warms the plan cache).
                _, fc, ft = _run_table1_pair(None, n, ph)
                _, rc, rt = _run_table1_pair(FaultPlan(), n, ph)
                assert np.array_equal(fc, rc)
                assert abs(ft - rt) < 1e-6
                ratios, fast_walls = [], []
                for rep in range(repeats):
                    gc.collect()
                    window = {}
                    order = [None, FaultPlan()] if rep % 2 == 0 else [
                        FaultPlan(), None
                    ]
                    for plan in order:
                        wall = 0.0
                        for _ in range(inner):
                            w, _, _ = _run_table1_pair(plan, n, ph)
                            wall += w
                        window[plan is None] = wall / inner
                    ratios.append(window[False] / window[True])
                    fast_walls.append(window[True])
                ratio = statistics.median(ratios)
                fast_s = min(fast_walls)
                fast_total += fast_s
                extra_total += fast_s * (ratio - 1.0)
                rows.append(
                    {
                        "size": n,
                        "physical": ph,
                        "fast_wall_us": fast_s * 1e6,
                        "robust_wall_us": fast_s * ratio * 1e6,
                        "overhead": ratio - 1.0,
                    }
                )
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "rows": rows,
        "fast_total_us": fast_total * 1e6,
        "robust_total_us": (fast_total + extra_total) * 1e6,
        "overhead": extra_total / fast_total if fast_total else 0.0,
    }


def measure_recovery(drop_rates=(0.0, 0.05, 0.10, 0.20), seed=0) -> list:
    """Modelled recovery latency and retry volume vs drop rate (k=2).

    The timeout is sized *above* the fault-free makespan of the 4 KiB
    workload (as an operator would: retransmitting before the slowest
    healthy disk can answer only wastes bandwidth), so every retry
    round genuinely delays completion.
    """
    policy = RetryPolicy(
        timeout_s=0.150, base_backoff_s=0.010, max_backoff_s=0.050
    )
    rows = []
    base = None
    for rate in drop_rates:
        rules = (FaultRule(kind="drop", rate=rate),) if rate else ()
        _, wres, rres, _ = _run_write_read(
            FaultPlan(seed=seed, rules=rules),
            replication=2,
            seed=seed,
            n_bytes=4096,
            policy=policy,
        )
        t = _t_w_disk(wres) + _t_w_disk(rres)
        if base is None:
            base = t
        rows.append(
            {
                "drop_rate": rate,
                "t_disk_us": t,
                "retries": wres.retries + rres.retries,
                "latency_overhead": t / base - 1.0 if base else 0.0,
            }
        )
    return rows


def measure(repeats: int = 9, budget: float = 0.05) -> dict:
    fault_free = measure_fault_free(repeats)
    # The headline number: armed-but-idle hooks must cost under 5%
    # across the whole PR-1 workload (the regression gate re-runs this
    # on noisy CI and raises the budget).
    assert fault_free["overhead"] < budget, fault_free
    recovery = measure_recovery()
    # Recovery latency must be monotone non-decreasing in intent: more
    # drops never make the modelled run *faster* than fault-free.
    assert all(r["latency_overhead"] >= -1e-9 for r in recovery)
    return {
        "benchmark": "faults",
        "cpus": _cpus(),
        "commit": _commit(),
        "nprocs": NPROCS,
        "n_bytes": N_BYTES,
        "repeats": repeats,
        "fault_free": fault_free,
        "recovery_vs_drop_rate": recovery,
    }


class TestFaultBench:
    def test_fault_free_overhead(self, benchmark):
        benchmark.group = "faults"
        benchmark(lambda: _run_write_read(FaultPlan()))

    def test_fault_free_is_byte_and_time_identical(self):
        stats = measure_fault_free(repeats=1)
        # Lenient wall-clock bound (CI machines are noisy; the <5%
        # number is recorded in BENCH_faults.json on a quiet machine);
        # the hard guarantees — byte and modelled-time identity — are
        # asserted inside measure_fault_free.
        assert stats["overhead"] < 0.5

    def test_recovery_latency_grows_with_drop_rate(self):
        rows = measure_recovery(drop_rates=(0.0, 0.20))
        assert rows[-1]["retries"] > 0
        assert rows[-1]["latency_overhead"] > 0.0


if __name__ == "__main__":
    result = measure()
    with open(RESULT_PATH, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    ff = result["fault_free"]
    for row in ff["rows"]:
        print(
            f"{row['size']:5d} {row['physical']}: "
            f"fast {row['fast_wall_us']:8.0f} us, "
            f"robust {row['robust_wall_us']:8.0f} us "
            f"({row['overhead'] * 100:+.1f}%)"
        )
    print(
        f"fault-free overhead, whole workload: {ff['overhead'] * 100:+.2f}%"
    )
    for row in result["recovery_vs_drop_rate"]:
        print(
            f"drop {row['drop_rate'] * 100:4.0f}%: "
            f"t_disk {row['t_disk_us']:9.1f} us, "
            f"retries {row['retries']:3d}, "
            f"latency {row['latency_overhead'] * 100:+.1f}%"
        )
    print(f"-> {RESULT_PATH}")
