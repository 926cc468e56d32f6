"""Property tests for the fast-path machinery added with the plan cache:

* closed-form ``PeriodicFallsSet.count_in`` against the byte-index
  oracle (no tiling may change the answer);
* ``build_plan``'s segment-space intersections and projections select
  exactly the bytes of the paper's INTERSECT-AUX and PROJ, and a pair
  is dropped exactly when it has no common byte;
* plan-cache hits are structurally identical to fresh plans, and
  structure keys are stable across independent construction and the
  JSON round-trip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.indexset import pattern_element_indices
from repro.core.intersect_nested import intersect_elements
from repro.core.periodic import PeriodicFallsSet
from repro.core.projection import project
from repro.core.serialize import (
    partition_from_json,
    partition_structure_key,
    partition_to_json,
)
from repro.redistribution.plan_cache import PlanCache
from repro.redistribution.schedule import build_plan

from .strategies import any_partition, falls_sets, nested_partitions

MAX_EXAMPLES = 200


@st.composite
def periodic_sets(draw):
    fs = draw(falls_sets())
    slack = draw(st.integers(0, 7))
    period = fs.extent_stop + 1 + slack
    disp = draw(st.integers(0, 12))
    return PeriodicFallsSet(fs, disp, period)


class TestClosedFormCounting:
    @given(periodic_sets(), st.integers(0, 400), st.integers(0, 120))
    @settings(max_examples=MAX_EXAMPLES)
    def test_count_in_matches_oracle(self, pfs, lo, span):
        hi = lo + span
        offsets = pattern_element_indices(
            pfs.falls, pfs.period, pfs.displacement, hi + 1
        )
        expected = int(np.count_nonzero(offsets >= lo))
        assert pfs.count_in(lo, hi) == expected

    @given(periodic_sets(), st.integers(0, 400), st.integers(0, 120))
    @settings(max_examples=MAX_EXAMPLES)
    def test_count_in_matches_segments(self, pfs, lo, span):
        hi = lo + span
        _, lengths = pfs.segments_in(lo, hi)
        assert pfs.count_in(lo, hi) == int(lengths.sum())

    @given(periodic_sets(), st.integers(0, 50))
    @settings(max_examples=50)
    def test_count_in_far_window_consistent(self, pfs, span):
        # The closed form must not depend on how far from the origin the
        # window sits: shifting a period-aligned window by whole periods
        # preserves the count.
        lo = pfs.displacement
        hi = lo + span
        base = pfs.count_in(lo, hi)
        k = 10**9  # far beyond anything tiling could materialise
        assert pfs.count_in(lo + k * pfs.period, hi + k * pfs.period) == base

    @given(periodic_sets())
    @settings(max_examples=50)
    def test_whole_periods_count(self, pfs):
        lo = pfs.displacement
        for periods in (1, 3):
            hi = lo + periods * pfs.period - 1
            assert pfs.count_in(lo, hi) == periods * pfs.size_per_period


def _selected(pfs: PeriodicFallsSet, length: int) -> np.ndarray:
    """The byte-index oracle of a periodic set over ``[0, length)``."""
    return pattern_element_indices(
        pfs.falls, pfs.period, pfs.displacement, length
    )


class TestPruningCompleteness:
    @given(nested_partitions(), nested_partitions())
    @settings(max_examples=100, deadline=None)
    def test_plan_matches_intersect_aux(self, src, dst):
        """The segment-space plan against the paper's INTERSECT-AUX and
        PROJ, byte for byte: same communicating pairs, same intersection
        bytes, same bytes selected by both projections."""
        plan = build_plan(src, dst)
        reference = {
            (i, j): inter
            for i in range(src.num_elements)
            for j in range(dst.num_elements)
            if not (inter := intersect_elements(src, i, dst, j)).is_empty
        }
        assert set(plan.by_pair) == set(reference)
        assert plan.pruned_pairs == plan.candidate_pairs - len(reference)
        period = int(np.lcm(src.size, dst.size))
        length = max(src.displacement, dst.displacement) + 2 * period
        for (i, j), t in plan.by_pair.items():
            ref = reference[(i, j)]
            np.testing.assert_array_equal(
                _selected(t.intersection, length), _selected(ref, length)
            )
            for attr, part, e in (
                ("src_projection", src, i),
                ("dst_projection", dst, j),
            ):
                want = project(ref, part, e)
                got = getattr(t, attr)
                assert (got.displacement, got.period) == (
                    want.displacement,
                    want.period,
                )
                span = want.displacement + 2 * want.period
                np.testing.assert_array_equal(
                    _selected(got, span), _selected(want, span)
                )

    @given(any_partition(), any_partition())
    @settings(max_examples=100, deadline=None)
    def test_pruning_accounting(self, src, dst):
        plan = build_plan(src, dst)
        assert 0 <= plan.pruned_pairs <= plan.candidate_pairs
        assert len(plan.transfers) == plan.candidate_pairs - plan.pruned_pairs


class TestPlanCacheEquivalence:
    @given(any_partition(), any_partition())
    @settings(max_examples=60, deadline=None)
    def test_cached_plan_structurally_equal_to_fresh(self, src, dst):
        cache = PlanCache(capacity=8)
        first = cache.get(src, dst)
        # Structurally identical partitions built via the JSON round-trip
        # must hit the same entry and return the very same plan object.
        src2 = partition_from_json(partition_to_json(src))
        dst2 = partition_from_json(partition_to_json(dst))
        again = cache.get(src2, dst2)
        assert again is first
        assert cache.stats()["hits"] == 1
        fresh = build_plan(src, dst)
        assert [
            (t.src_element, t.dst_element) for t in first.transfers
        ] == [(t.src_element, t.dst_element) for t in fresh.transfers]
        length = max(src.displacement, dst.displacement) + 2 * np.lcm(
            src.size, dst.size
        )
        for tc, tf in zip(first.transfers, fresh.transfers):
            a = tc.intersection.segments_in(0, length)
            b = tf.intersection.segments_in(0, length)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    @given(any_partition())
    @settings(max_examples=60, deadline=None)
    def test_structure_key_stability(self, p):
        key = p.structure_key()
        # Independent reconstruction and the JSON round-trip agree.
        assert partition_structure_key(p) == key
        assert partition_from_json(partition_to_json(p)).structure_key() == key
        # Displacement is part of the structure.
        from repro.core.partition import Partition

        shifted = Partition(
            [e for e in p.elements], displacement=p.displacement + 1
        )
        assert shifted.structure_key() != key
