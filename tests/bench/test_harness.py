"""Tests for the benchmark harness itself (small sizes, fast)."""

import pytest

from repro.bench import (
    MatrixWorkload,
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_table1,
    format_table2,
    paper_workloads,
    run_workload,
    shape_checks_table1,
    shape_checks_table2,
    table1,
    table2,
)
from repro.bench.experiments import Table1Row, Table2Row


class TestWorkloads:
    def test_grid(self):
        ws = paper_workloads()
        assert len(ws) == 12
        assert {w.n for w in ws} == {256, 512, 1024, 2048}

    def test_partitions_are_consistent(self):
        w = MatrixWorkload(64, "b")
        assert w.physical().size == 64 * 64
        assert w.logical().size == 64 * 64
        assert w.bytes_per_process == 1024

    def test_view_accesses_cover_data(self):
        w = MatrixWorkload(32, "r")
        data = w.data()
        acc = w.view_accesses(data)
        assert len(acc) == 4
        assert sum(a[2].size for a in acc) == data.size

    def test_label(self):
        assert MatrixWorkload(256, "c").label == "256x256 c-r"


class TestRunWorkload:
    def test_produces_rows_and_verifies(self):
        res = run_workload(MatrixWorkload(64, "c"), repeats=1)
        assert isinstance(res.table1, Table1Row)
        assert isinstance(res.table2, Table2Row)
        assert res.payload_bytes == 64 * 64
        assert res.table1.t_i > 0
        assert res.table2.t_sc_disk > res.table2.t_sc_bc

    def test_reference_t_i_is_measured(self):
        # INTERSECT-AUX + PROJ on the same pairs, beside the production t_i.
        res = run_workload(MatrixWorkload(64, "c"), repeats=1)
        assert res.table1.t_i_ref > 0
        assert "t_i_ref" in format_table1([res.table1])

    def test_reference_t_g_is_measured(self):
        # One slice per segment of the same payloads, and their count:
        # a 64-row view gathers 16 rows from each of 4 column blocks.
        res = run_workload(MatrixWorkload(64, "c"), repeats=1)
        assert res.table1.t_g_ref > 0
        assert res.table1.gather_segments == 64
        assert "t_g_ref" in format_table1([res.table1])
        matched = run_workload(MatrixWorkload(64, "r"), repeats=1).table1
        assert matched.t_g_ref == matched.gather_segments == 0

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            run_workload(MatrixWorkload(64, "c"), repeats=0)

    def test_matched_layout_row(self):
        res = run_workload(MatrixWorkload(64, "r"), repeats=1)
        assert res.table1.t_g == 0.0
        assert res.table1.t_m < 50  # identity fast path


class TestTablesSmall:
    @pytest.fixture(scope="class")
    def rows1(self):
        return table1(sizes=(128, 256), repeats=2)

    @pytest.fixture(scope="class")
    def rows2(self):
        return table2(sizes=(128, 256), repeats=2)

    def test_table1_grid(self, rows1):
        assert len(rows1) == 6
        assert {(r.size, r.physical) for r in rows1} == {
            (n, ph) for n in (128, 256) for ph in ("c", "b", "r")
        }

    def test_table1_shapes_hold_at_small_scale(self, rows1):
        checks = shape_checks_table1(rows1)
        # Assert the noise-robust structural checks at toy scale; the
        # measured-time orderings (t_i, t_g between mismatched layouts)
        # are asserted at full scale by benchmarks/bench_table1.py.
        for name in (
            "t_g zero for r-r",
            "segments per gather c>b>r",
            "t_m near zero for r-r",
            "t_w_disk best for r-r at small size",
        ):
            assert checks[name], name

    def test_table2_shapes_hold_at_small_scale(self, rows2):
        checks = shape_checks_table2(rows2)
        assert checks["t_sc ordering c>b>r at small size"]
        assert checks["t_sc grows with size"]

    def test_formatting_includes_paper_columns(self, rows1, rows2):
        # Only paper-size rows get the comparison column; at toy sizes
        # the table still renders.
        txt1 = format_table1(rows1)
        assert "t_w_disk" in txt1 and "128" in txt1
        txt2 = format_table2(rows2, compare=False)
        assert "t_sc_bc" in txt2

    def test_formatting_with_paper_rows(self):
        row = Table1Row(256, "c", "r", 1, 2, 3, 4, 5)
        txt = format_table1([row])
        assert "1229" in txt  # the paper's value appears alongside
        row2 = Table2Row(256, "r", "r", 1, 2)
        assert "918" in format_table2([row2])


class TestPaperConstants:
    def test_paper_tables_complete(self):
        keys = {(n, ph) for n in (256, 512, 1024, 2048) for ph in "cbr"}
        assert set(PAPER_TABLE1) == keys
        assert set(PAPER_TABLE2) == keys

    def test_paper_values_spot_checks(self):
        assert PAPER_TABLE1[(2048, "c")] == (1222, 22, 6501, 30781, 80793)
        assert PAPER_TABLE2[(256, "r")] == (45, 918)
