"""What the benchmark's workloads build per op, counted.

A ``cold_views`` op (create, four view sets, a whole-matrix write and
``linear_contents``) builds its plan from the layouts' row and column
factors and never a nested-FALLS tree; each partition is factored once.
The warm workloads build their plans and trees before the timed loop,
and an access layout only on the first access of its interval.  The
configurations are read from ``benchmarks/e2e/workloads.py``'s
``SPECS``.
"""

import dataclasses
import sys

import numpy as np
import pytest

from repro.clusterfile import Clusterfile
from repro.clusterfile import view as view_mod
from repro.core.partition import Partition
from repro.redistribution import clear_plan_cache, plan_cache
from repro.simulation import ClusterConfig

from .test_workload_copies import WORKLOADS

#: The functions that build a nested-FALLS tree from segments or factors.
TREE_BUILDERS = ("falls_set_from_segments", "product_falls", "node_floor")


def _count(monkeypatch, calls, owner, name, key=None):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[key or name] = calls.get(key or name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _count_tree_builds(monkeypatch, calls):
    """Count every call of a tree builder, in every ``repro`` module that
    holds one, under the key ``"trees"``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for name in TREE_BUILDERS:
                if hasattr(module, name):
                    _count(monkeypatch, calls, module, name, "trees")


def _cold_views_ops():
    """The ``cold_views`` timed pairs, prepared as a repetition does."""
    spec = WORKLOADS.SPECS["cold_views"]
    pairs = spec.pairs()[0 :: spec.stride]
    data = np.random.default_rng(7).integers(
        0, 256, max(spec.ns) ** 2, dtype=np.uint8
    )
    for logical, physical in pairs:
        size = WORKLOADS.oracle.period(logical)
        yield (
            WORKLOADS.partition(logical),
            WORKLOADS.partition(physical),
            data[:size],
            WORKLOADS.oracle.split(data[:size], logical, spec.elements),
        )


def _cold_views_op(logical, physical, pieces):
    fs = Clusterfile(ClusterConfig(**WORKLOADS.CLUSTER))
    fs.create("m", physical)
    for e in range(len(pieces)):
        fs.set_view("m", e, logical)
    fs.write("m", [(e, 0, piece) for e, piece in enumerate(pieces)])
    return fs.linear_contents("m")


def test_cold_views_ops_build_no_tree(monkeypatch):
    """Thread mode, no journal: building and running the timed
    ``cold_views`` ops (the row-block pair among them, which takes the
    flattened sweep) calls no tree builder, yet every plan is built and
    every file holds the right bytes."""
    calls = {}
    clear_plan_cache()
    _count_tree_builds(monkeypatch, calls)
    _count(monkeypatch, calls, plan_cache, "build_plan")
    ops = list(_cold_views_ops())
    assert any(lg.contiguous and ph.contiguous for lg, ph, _, _ in ops)
    for logical, physical, data, pieces in ops:
        np.testing.assert_array_equal(
            _cold_views_op(logical, physical, pieces), data
        )
    assert calls == {"build_plan": len(ops)}


def test_cold_views_factor_each_partition_once(monkeypatch):
    """``build_plan`` and ``linear_contents`` share one factoring of the
    physical partition: one ``_factor`` call per partition, except the
    row-block pair, whose plan reads no factors (only its physical is
    factored, for ``linear_contents``)."""
    calls = {}
    clear_plan_cache()
    _count(monkeypatch, calls, Partition, "_factor")
    ops = list(_cold_views_ops())
    for logical, physical, data, pieces in ops:
        np.testing.assert_array_equal(
            _cold_views_op(logical, physical, pieces), data
        )
    assert calls == {"_factor": 2 * len(ops) - 1}


class _Window:
    """A stand-in probe recorder: the workload marks it as its timed loop
    opens and closes, and each mark snapshots the counts."""

    def __init__(self, calls):
        self.calls, self.marks = calls, []

    def mark(self):
        self.marks.append(dict(self.calls))
        return len(self.marks)

    def count(self, _probe):
        return 0

    def remove(self):
        pass

    def during(self):
        opened, closed = self.marks
        return {
            k: v - opened.get(k, 0)
            for k, v in closed.items()
            if v != opened.get(k, 0)
        }


@pytest.mark.parametrize(
    "name", ["small_write", "large_write", "mixed_rw", "reshard"]
)
def test_warm_workload_timed_ops_build_nothing(name, monkeypatch, tmp_path):
    """Past the warm-up, a timed op builds no plan and no tree, and an
    access layout only the first time its (view, direction, interval) is
    accessed at all: the streams draw offsets at random, so the warm-up
    need not touch every one.  No layout is built twice.  ``reshard``
    (no views) runs on a 512 x 512 matrix instead of 4096 x 4096."""
    calls, layouts = {}, []
    _count_tree_builds(monkeypatch, calls)
    _count(monkeypatch, calls, plan_cache, "build_plan")
    link_accesses = view_mod.View._link_accesses

    def building(view, write, lo, hi):
        layouts.append((id(view._layouts), view.element, write, lo, hi))
        return link_accesses(view, write, lo, hi)

    monkeypatch.setattr(view_mod.View, "_link_accesses", building)
    window = _Window(calls)
    spec = WORKLOADS.SPECS[name]
    if name == "reshard":
        spec = dataclasses.replace(spec, side=512, timed_ops=12)
        out = WORKLOADS.run_reshard_rep(spec, 3, 0, 1.0, recorder=window)
    else:
        out = WORKLOADS.run_service_rep(
            spec, 3, 0, 0.05, str(tmp_path / name), recorder=window
        )
    assert out["failed"] == 0 and not out["failures"]
    assert out["ops"] > 0 and calls["build_plan"]
    assert window.during() == {}
    assert len(set(layouts)) == len(layouts)
    assert bool(layouts) == (name != "reshard")
