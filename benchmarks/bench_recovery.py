"""Recovery benchmark: the two rows ``benchmarks/e2e`` does not have.

* **Recovery wall time vs journal length** — a deployment is journaled
  for N four-write batches, then recovered cold into a fresh one.
  Recovery replays every record since the last checkpoint, so the cost
  *per record* must not grow with the journal: an O(n^2) rescan fails
  the assertion.  Recovered bytes and stamp are checked on every run.
* **Modelled recovery latency vs drop rate** — a replicated (k=2)
  write + read-back under 0/5/10/20% message drops: modelled
  completion time and retries, normalised to the fault-free run.  The
  curve an operator reads to size retry budgets; it is simulated time,
  so it is the same on every host.

Structural assertions only — no committed result file, no budget.  What
one op costs through the whole stack is ``benchmarks/e2e``'s question.

    PYTHONPATH=src python benchmarks/bench_recovery.py     # both tables
    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py -q
"""

import tempfile
import time

import numpy as np

from repro.clusterfile.fs import Clusterfile
from repro.distributions import round_robin
from repro.durability import DurabilityManager
from repro.faults import FaultInjector, FaultPlan, FaultRule, RetryPolicy
from repro.simulation.cluster import ClusterConfig

NPROCS = 8
PAYLOAD = 512
BATCH = 4
JOURNAL_BATCHES = (16, 64, 256)  # 64 / 256 / 1024 records
DROP_RATES = (0.0, 0.05, 0.10, 0.20)


def _make_fs() -> Clusterfile:
    fs = Clusterfile(ClusterConfig(compute_nodes=NPROCS, io_nodes=4))
    fs.create("bench", round_robin(NPROCS, 256))
    for node in range(NPROCS):
        fs.set_view("bench", node, round_robin(NPROCS, 256))
    return fs


def recover_journal(n_batches: int) -> dict:
    """Journal ``n_batches`` batches, then time one cold recovery of the
    whole journal into a fresh deployment."""
    rng = np.random.default_rng(7)
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as root:
        fs = _make_fs()
        manager = DurabilityManager(root)
        manager.register_file(fs, "bench")
        for b in range(n_batches):
            ops = [
                (b * BATCH + i, i % NPROCS, int(rng.integers(0, 8)) * PAYLOAD,
                 rng.integers(0, 256, PAYLOAD, dtype=np.uint8))
                for i in range(BATCH)
            ]
            fs.write("bench", [(n, o, d) for _s, n, o, d in ops])
            manager.commit_write(
                fs, "bench", [(s, n, o, d.size) for s, n, o, d in ops]
            )
        want = fs.linear_contents("bench")
        full_stamp = manager.last_stamp("bench")
        manager.close()

        fresh = _make_fs()
        fresh.unlink("bench")
        m2 = DurabilityManager(root)
        t0 = time.perf_counter()
        report = m2.recover_into(fresh)
        wall = time.perf_counter() - t0
        m2.close()
    assert report["bench"]["stamp"] == full_stamp, report
    got = fresh.linear_contents("bench")
    n = min(got.size, want.size)
    np.testing.assert_array_equal(got[:n], want[:n])
    assert not got[n:].any() and not want[n:].any()
    records = n_batches * BATCH
    return {"records": records, "wall_s": wall,
            "us_per_record": wall / records * 1e6}


def _t_w_disk(result) -> float:
    return max(bd.t_w_disk for bd in result.per_compute.values())


def latency_vs_drop_rate() -> list:
    """Modelled write + read-back completion and retries per drop rate.

    The timeout sits above the fault-free makespan (retransmitting
    before the slowest healthy disk can answer only wastes bandwidth),
    so every retry round genuinely delays completion."""
    nprocs, chunk, n_bytes = 4, 16, 4096
    policy = RetryPolicy(timeout_s=0.150, base_backoff_s=0.010, max_backoff_s=0.050)
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 256, n_bytes // nprocs, dtype=np.uint8)
            for _ in range(nprocs)]
    rows = []
    for rate in DROP_RATES:
        rules = (FaultRule(kind="drop", rate=rate),) if rate else ()
        fs = Clusterfile(
            ClusterConfig(),
            fault_injector=FaultInjector(FaultPlan(seed=0, rules=rules)),
            retry_policy=policy,
        )
        fs.create("bench", round_robin(nprocs, n_bytes // nprocs), replication=2)
        for node in range(nprocs):
            fs.set_view("bench", node, round_robin(nprocs, chunk), element=node)
        wres = fs.write(
            "bench", [(n, 0, data[n]) for n in range(nprocs)], to_disk=True
        )
        bufs, rres = fs.read_with_result(
            "bench", [(n, 0, data[n].size) for n in range(nprocs)], from_disk=True
        )
        for node in range(nprocs):  # every drop was recovered from
            np.testing.assert_array_equal(bufs[node], data[node])
        rows.append({"drop_rate": rate,
                     "t_disk_us": _t_w_disk(wres) + _t_w_disk(rres),
                     "retries": wres.retries + rres.retries})
    for row in rows:
        row["latency_overhead"] = row["t_disk_us"] / rows[0]["t_disk_us"] - 1.0
    return rows


def test_replay_cost_per_record_does_not_grow_with_the_journal():
    small, large = recover_journal(16), recover_journal(256)
    assert (small["records"], large["records"]) == (64, 1024)
    assert large["us_per_record"] <= 3.0 * small["us_per_record"], (small, large)


def test_recovery_latency_is_monotone_in_drop_rate():
    rows = latency_vs_drop_rate()
    latencies = [row["t_disk_us"] for row in rows]
    assert latencies == sorted(latencies), rows
    assert rows[0]["retries"] == 0 and rows[-1]["retries"] > 0, rows


if __name__ == "__main__":
    for row in map(recover_journal, JOURNAL_BATCHES):
        print(f"recovery of {row['records']:5d} records: "
              f"{row['wall_s'] * 1e3:7.2f} ms  "
              f"({row['us_per_record']:5.1f} us per record)")
    for row in latency_vs_drop_rate():
        print(f"drop {row['drop_rate'] * 100:3.0f}%: "
              f"t_disk {row['t_disk_us']:9.1f} us, retries {row['retries']:2d}, "
              f"latency {row['latency_overhead'] * 100:+5.0f}%")
