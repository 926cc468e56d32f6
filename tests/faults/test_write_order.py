"""Overlapping writes of one call land in request order under message
drops, live and after journal recovery.

Two compute nodes view the whole file and write the same kilobyte in
one ``Clusterfile.write`` call: node 0 all 1s, then node 1 all 2s.  A
serial replay leaves 2s.  Every message to one subfile in one round
shares its fate, so a dropped round re-sends both writes in request
order and the later one still lands last.  Seeds whose drops exhaust
the retry budget raise and are skipped (and counted).
"""

import numpy as np

from repro import round_robin
from repro.clusterfile import Clusterfile
from repro.durability import DurabilityManager
from repro.faults import FaultInjector, FaultPlan, FaultRule, RetryBudgetExceeded
from repro.simulation import ClusterConfig

SEEDS = range(200)
N = 1024
#: A seed that drops one subfile six rounds running exhausts the
#: budget; none of 0-199 does today, a few may after a plan change.
MAX_EXHAUSTED = 10


def _deploy(seed):
    plan = FaultPlan(seed=seed, rules=(FaultRule("drop", rate=0.3),))
    fs = Clusterfile(ClusterConfig(), fault_injector=FaultInjector(plan))
    fs.create("f", round_robin(4, 16))
    for node in (0, 1):
        fs.set_view("f", node, round_robin(1, 64), element=0)
    return fs


def _write_both(fs):
    fs.write(
        "f",
        [(0, 0, np.full(N, 1, np.uint8)), (1, 0, np.full(N, 2, np.uint8))],
    )


def _sweep(check):
    """Seeds whose bytes are wrong, and the number that exhausted."""
    wrong, exhausted = [], 0
    for seed in SEEDS:
        try:
            got = check(seed)
        except RetryBudgetExceeded:
            exhausted += 1
            continue
        if not (got == 2).all():
            wrong.append(seed)
    return wrong, exhausted


def test_later_write_lands_last_under_drops():
    def check(seed):
        fs = _deploy(seed)
        _write_both(fs)
        return fs.linear_contents("f", N)

    wrong, exhausted = _sweep(check)
    assert wrong == [], f"{len(wrong)} seeds end with the earlier write"
    assert exhausted <= MAX_EXHAUSTED, exhausted


def test_journal_recovers_the_later_write(tmp_path):
    def check(seed):
        root = str(tmp_path / f"journal-{seed}")
        fs = _deploy(seed)
        with DurabilityManager(root) as manager:
            manager.register_file(fs, "f")
            _write_both(fs)
            manager.commit_write(fs, "f", [(0, 0, 0, N), (1, 1, 0, N)])
        fresh = Clusterfile(ClusterConfig())
        with DurabilityManager(root) as manager:
            manager.recover_into(fresh)
        return fresh.linear_contents("f", N)

    wrong, exhausted = _sweep(check)
    assert wrong == [], f"{len(wrong)} seeds recover the earlier write"
    assert exhausted <= MAX_EXHAUSTED, exhausted
