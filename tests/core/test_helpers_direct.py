"""Direct tests for helpers that are otherwise exercised only indirectly."""

import numpy as np
import pytest

from repro.core.falls import Falls, FallsSet
from repro.core.indexset import falls_set_indices, indices_to_offsets_map
from repro.core.mapping import map_aux
from repro.core.segments import segments_from_pairs, segments_to_linesegments
from repro.distributions.multidim import compose_dims, scale_falls


class TestMapAux:
    """The paper's MAP-AUX_S in isolation (pattern-relative)."""

    SET = FallsSet([Falls(0, 1, 6, 1), Falls(4, 5, 6, 1)])

    def test_exact_ranks(self):
        # Selected pattern offsets: 0,1,4,5 -> ranks 0..3.
        assert map_aux(self.SET, 0) == 0
        assert map_aux(self.SET, 1) == 1
        assert map_aux(self.SET, 4) == 2
        assert map_aux(self.SET, 5) == 3

    def test_exact_miss_returns_none(self):
        assert map_aux(self.SET, 2) is None
        assert map_aux(self.SET, 3) is None

    def test_next_sentinel_past_end(self):
        # Past the footprint: 'next' returns total size (4), the
        # "first byte of the following tile" sentinel.
        assert map_aux(self.SET, 5) == 3
        assert map_aux(FallsSet([Falls(0, 1, 6, 1)]), 3, mode="next") == 2

    def test_prev_sentinel_before_start(self):
        assert map_aux(FallsSet([Falls(2, 3, 6, 1)]), 1, mode="prev") == -1

    def test_gap_modes(self):
        assert map_aux(self.SET, 2, mode="next") == 2
        assert map_aux(self.SET, 3, mode="prev") == 1


class TestScaleFalls:
    def test_leaf_scaling(self):
        f = Falls(1, 2, 4, 3)  # elements 1-2 every 4, three times
        scaled = scale_falls(f, 8, ())
        assert scaled == Falls(8, 23, 32, 3)

    def test_partial_inner_attached(self):
        inner = (Falls(0, 1, 8, 1),)  # first 2 bytes of each 8-byte element
        scaled = scale_falls(Falls(0, 0, 2, 2), 8, inner)
        got = set(falls_set_indices([scaled]).tolist())
        assert got == {0, 1, 16, 17}

    def test_full_inner_collapses_to_leaf(self):
        inner = (Falls(0, 7, 8, 1),)
        scaled = scale_falls(Falls(0, 1, 4, 2), 8, inner)
        assert scaled.is_leaf

    def test_multielement_block_wraps_inner(self):
        inner = (Falls(0, 0, 4, 1),)  # first byte of each 4-byte element
        scaled = scale_falls(Falls(0, 2, 4, 1), 4, inner)  # 3 elements
        got = set(falls_set_indices([scaled]).tolist())
        assert got == {0, 4, 8}


class TestComposeDims:
    def test_2d_manual(self):
        # dim0: row 1 of 3; dim1: cols {0, 2} of 4; itemsize 2.
        per_dim = [[Falls(1, 1, 3, 1)], [Falls(0, 0, 2, 2)]]
        out = compose_dims(per_dim, (3, 4), 2)
        got = falls_set_indices(out)
        arr = np.arange(24).reshape(3, 4, 2)
        want = np.sort(arr[1, [0, 2]].reshape(-1))
        np.testing.assert_array_equal(got, want)

    def test_empty_dim_gives_empty(self):
        assert compose_dims([[], [Falls(0, 1, 2, 1)]], (2, 2), 1) == []

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            compose_dims([[Falls(0, 0, 1, 1)]], (2, 2), 1)


class TestSmallConversions:
    def test_segments_to_linesegments(self):
        segs = segments_from_pairs([(0, 3), (8, 8)])
        ls = segments_to_linesegments(segs)
        assert [(s.start, s.stop) for s in ls] == [(0, 3), (8, 8)]

    def test_indices_to_offsets_map(self):
        m = indices_to_offsets_map(np.array([3, 7, 9]))
        assert m == {3: 0, 7: 1, 9: 2}


class TestParallelCallsDirect:
    def test_parallel_write_and_read_functions(self):
        """Exercise the engine's write/read without the facade."""
        from repro.clusterfile import ClusterFile, WriteRequest
        from repro.clusterfile.engine import IOEngine
        from repro.clusterfile.view import set_view
        from repro.distributions import round_robin
        from repro.simulation import Cluster, ClusterConfig

        engine = IOEngine(Cluster(ClusterConfig(compute_nodes=2, io_nodes=2)))
        phys = round_robin(2, 4)
        cfile = ClusterFile("f", phys)
        views = [set_view(c, phys, c, phys) for c in range(2)]
        data = [np.arange(8, dtype=np.uint8) + 10 * c for c in range(2)]
        result = engine.write(
            cfile,
            [WriteRequest(views[c], 0, 7, data[c]) for c in range(2)],
            to_disk=True,
        )
        assert result.payload_bytes == 16
        assert set(result.per_compute) == {0, 1}
        out = [np.zeros(8, dtype=np.uint8) for _ in range(2)]
        engine.read(
            cfile,
            [WriteRequest(views[c], 0, 7, out[c]) for c in range(2)],
            from_disk=True,
        )
        for c in range(2):
            np.testing.assert_array_equal(out[c], data[c])
