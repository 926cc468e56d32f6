"""FaultPlan / FaultInjector: determinism, scoping, serialisation."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultRule, checksum


class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="lightning")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(kind="drop", rate=1.5)

    def test_node_rules_need_io_node(self):
        with pytest.raises(ValueError, match="io_node"):
            FaultRule(kind="crash")
        with pytest.raises(ValueError, match="io_node"):
            FaultRule(kind="slow_disk", factor=2.0)

    def test_slow_disk_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            FaultRule(kind="slow_disk", io_node=0, factor=0.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_s"):
            FaultRule(kind="delay", delay_s=-1.0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(kind="drop", rate=0.1, op="write"),
                FaultRule(kind="corrupt", rate=0.2, subfile=3),
                FaultRule(kind="delay", rate=1.0, delay_s=0.01),
                FaultRule(kind="crash", io_node=2, after_ops=1),
                FaultRule(kind="slow_disk", io_node=0, factor=4.0),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_a_sender_scope_does_not_load(self):
        """Every message to one subfile in one round shares its fate,
        so a rule cannot single out one compute node."""
        text = '{"seed": 0, "rules": [{"kind": "drop", "compute": 1}]}'
        with pytest.raises(TypeError):
            FaultPlan.from_json(text)

    def test_crashed_nodes_respects_after_ops(self):
        plan = FaultPlan(rules=(FaultRule(kind="crash", io_node=1, after_ops=2),))
        assert plan.crashed_nodes(0) == frozenset()
        assert plan.crashed_nodes(1) == frozenset()
        assert plan.crashed_nodes(2) == frozenset({1})
        assert plan.crashed_nodes(5) == frozenset({1})

    def test_disk_factors_compose(self):
        plan = FaultPlan(
            rules=(
                FaultRule(kind="slow_disk", io_node=0, factor=2.0),
                FaultRule(kind="slow_disk", io_node=0, factor=3.0),
            )
        )
        assert plan.disk_factor(0) == 6.0
        assert plan.disk_factor(1) == 1.0


class TestInjectorDeterminism:
    PLAN = FaultPlan(
        seed=11,
        rules=(
            FaultRule(kind="drop", rate=0.3),
            FaultRule(kind="corrupt", rate=0.3),
            FaultRule(kind="delay", rate=0.5, delay_s=0.002),
        ),
    )

    def _fates(self, injector):
        op_id = injector.begin_op("write")
        return [
            injector.message_fate(op_id, "write", s, a)
            for s in range(16)
            for a in range(3)
        ]

    def test_same_plan_same_schedule(self):
        assert self._fates(FaultInjector(self.PLAN)) == self._fates(
            FaultInjector(self.PLAN)
        )

    def test_different_seed_different_schedule(self):
        other = FaultPlan(seed=12, rules=self.PLAN.rules)
        assert self._fates(FaultInjector(self.PLAN)) != self._fates(
            FaultInjector(other)
        )

    def test_schedule_varies_with_attempt(self):
        injector = FaultInjector(self.PLAN)
        op_id = injector.begin_op("write")
        fates = {
            injector.message_fate(op_id, "write", 0, a)[0]
            for a in range(64)
        }
        assert len(fates) > 1  # retries eventually see a different fate

    def test_scope_filters(self):
        plan = FaultPlan(
            seed=0, rules=(FaultRule(kind="drop", rate=1.0, op="read"),)
        )
        injector = FaultInjector(plan)
        op_id = injector.begin_op("write")
        assert injector.message_fate(op_id, "write", 0, 0)[0] == "ok"
        assert injector.message_fate(op_id, "read", 0, 0)[0] == "drop"

    def test_crash_memo_is_bounded_by_the_crash_rules(self):
        """The crashed set of an op depends only on which crash rules
        have started, so a long-lived injector must not remember every
        operation id it was asked about."""
        plan = FaultPlan(
            seed=0,
            rules=(
                FaultRule(kind="crash", io_node=1, after_ops=10),
                FaultRule(kind="crash", io_node=2, after_ops=5000),
                FaultRule(kind="drop", rate=0.1),
            ),
        )
        inj = FaultInjector(plan)
        for _ in range(10_000):
            op_id = inj.begin_op("write")
            assert inj.crashed_nodes(op_id) == plan.crashed_nodes(op_id)
        assert len(inj._crash_cache) <= 2 + 1

    def test_op_counter(self):
        injector = FaultInjector(self.PLAN)
        assert injector.begin_op("write") == 0
        assert injector.begin_op("read") == 1
        assert injector.ops_started == 2


class TestCorruptPayload:
    def test_returns_copy_with_one_flipped_byte(self):
        injector = FaultInjector(FaultPlan(seed=3))
        payload = np.arange(32, dtype=np.uint8)
        before = payload.copy()
        out = injector.corrupt_payload(payload, "tok", 1)
        np.testing.assert_array_equal(payload, before)  # original intact
        assert out is not payload
        assert (out != payload).sum() == 1

    def test_deterministic_flip_position(self):
        injector = FaultInjector(FaultPlan(seed=3))
        payload = np.arange(32, dtype=np.uint8)
        a = injector.corrupt_payload(payload, "tok")
        b = injector.corrupt_payload(payload, "tok")
        np.testing.assert_array_equal(a, b)

    def test_empty_payload_survives(self):
        injector = FaultInjector(FaultPlan(seed=3))
        out = injector.corrupt_payload(np.empty(0, np.uint8), "tok")
        assert out.size == 0
        # An "un-corruptible" empty payload still checksums as itself.
        assert checksum(out) == checksum(np.empty(0, np.uint8))


class TestChecksum:
    def test_detects_single_byte_flip(self):
        payload = np.arange(64, dtype=np.uint8)
        corrupted = payload.copy()
        corrupted[17] ^= 0xFF
        assert checksum(payload) != checksum(corrupted)

    def test_handles_non_contiguous_input(self):
        payload = np.arange(64, dtype=np.uint8)
        assert checksum(payload[::2]) == checksum(
            np.ascontiguousarray(payload[::2])
        )
