"""Unit tests for the metrics registry."""

import threading

import numpy as np
import pytest

from repro import round_robin
from repro.apps import reshard
from repro.clusterfile import Clusterfile
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    inc,
    reset_metrics,
    set_stage_histograms,
    snapshot,
    stage_histograms_enabled,
)
from repro.redistribution import distribute
from repro.simulation import ClusterConfig


class TestMetricsRegistry:
    def test_counter_created_on_first_use(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        assert c.value == 0
        assert reg.counter("a.b") is c

    def test_inc(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        assert reg.snapshot() == {"x": 5}

    def test_snapshot_prefix_filter(self):
        reg = MetricsRegistry()
        reg.inc("cache.hits", 2)
        reg.inc("cache.misses", 1)
        reg.inc("cachet.other", 9)  # prefix must match on dot boundaries
        reg.inc("engine.ops", 3)
        assert reg.snapshot("cache") == {"cache.hits": 2, "cache.misses": 1}
        assert reg.snapshot("cache.hits") == {"cache.hits": 2}

    def test_reset_prefix(self):
        reg = MetricsRegistry()
        reg.inc("a.x")
        reg.inc("a.y")
        reg.inc("b.z")
        reg.reset("a")
        assert reg.snapshot() == {"b.z": 1}
        reg.reset()
        assert reg.snapshot() == {}

    def test_thread_safety(self):
        reg = MetricsRegistry()

        def worker():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.snapshot()["n"] == 4000


class TestProcessWideRegistry:
    def test_module_functions_hit_one_registry(self):
        reset_metrics("test_obs")
        inc("test_obs.k", 7)
        assert snapshot("test_obs") == {"test_obs.k": 7}
        assert get_registry().counter("test_obs.k").value == 7
        reset_metrics("test_obs")
        assert snapshot("test_obs") == {}


class TestStageHistogramToggle:
    """``set_stage_histograms``: the engine's one telemetry switch (the
    end-to-end benchmark's ``obs.off_gain_share`` pass flips it)."""

    STAGES = ("map_s", "gather_s", "scatter_s", "transport_s", "op_s")

    @pytest.fixture()
    def toggle(self):
        # The flag is process-wide: fixture teardown puts it back on
        # every way out of a test, a failed assert or an exception
        # included.
        was = stage_histograms_enabled()
        reset_metrics("engine")
        yield set_stage_histograms
        set_stage_histograms(was)
        reset_metrics("engine")

    @staticmethod
    def _write_then_shuffle():
        """One engine write (stage histograms + ``_observe_op``) and one
        shuffle (``_observe_op`` alone)."""
        data = np.arange(64, dtype=np.uint8)
        fs = Clusterfile(ClusterConfig(compute_nodes=2, io_nodes=2))
        fs.create("f", round_robin(2, 8))
        fs.set_view("f", 0, round_robin(1, 16))
        fs.write("f", [(0, 0, data)])
        two, four = round_robin(2, 4), round_robin(4, 4)
        reshard(distribute(data, two), two, four)

    def test_on_by_default(self):
        assert stage_histograms_enabled()

    def test_off_records_no_engine_histogram(self, toggle):
        toggle(False)
        assert not stage_histograms_enabled()
        self._write_then_shuffle()
        assert not get_registry().histograms("engine")
        # Counters are not part of the switch.
        assert snapshot("engine.write")["engine.write.ops"] == 1

    def test_on_again_records_every_stage(self, toggle):
        toggle(False)
        self._write_then_shuffle()
        toggle(True)
        self._write_then_shuffle()
        hists = get_registry().histograms("engine")
        for stage in self.STAGES:
            assert hists[f"engine.write.{stage}"].count == 1, stage
        assert hists["engine.shuffle.op_s"].count == 1
