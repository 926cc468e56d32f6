"""Tests for the reporting/shape-check layer, including negatives: the
checks must actually *fail* when the data contradicts the paper."""

import pytest

from repro.bench.experiments import Table1Row, Table2Row
from repro.bench.reporting import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_table1,
    format_table2,
    shape_checks_table1,
    shape_checks_table2,
)


def t1(size, ph, t_i, t_m, t_g, bc, disk):
    """A row whose reference columns are its own ``t_i`` and ``t_g`` (the
    paper timed its own INTERSECT-AUX + PROJ and per-segment GATHER) and
    whose segment count is the §8.2 geometry: a row-block view gathers
    one segment per matrix row from each of the four column blocks, from
    two square blocks, from one row block none."""
    segments = {"c": size, "b": size // 2, "r": 0}[ph]
    return Table1Row(
        size, ph, "r", t_i, t_m, t_g, bc, disk,
        t_i_ref=t_i, t_g_ref=t_g, gather_segments=segments,
    )


def t2(size, ph, bc, disk):
    return Table2Row(size, ph, "r", bc, disk)


def paper_rows_table1():
    return [
        t1(size, ph, *PAPER_TABLE1[(size, ph)])
        for size in (256, 512, 1024, 2048)
        for ph in ("c", "b", "r")
    ]


def paper_rows_table2():
    return [
        t2(size, ph, *PAPER_TABLE2[(size, ph)])
        for size in (256, 512, 1024, 2048)
        for ph in ("c", "b", "r")
    ]


class TestChecksOnPaperData:
    """The paper's own numbers must pass every shape check — the checks
    encode the paper's claims, so this is their ground truth."""

    def test_table1_paper_numbers_pass(self):
        checks = shape_checks_table1(paper_rows_table1())
        assert all(checks.values()), checks

    def test_table2_paper_numbers_pass(self):
        checks = shape_checks_table2(paper_rows_table2())
        assert all(checks.values()), checks


class TestChecksRejectContradictions:
    def test_t_g_nonzero_for_matched_detected(self):
        rows = paper_rows_table1()
        bad = [
            t1(r.size, r.physical, r.t_i, r.t_m, 50.0, r.t_w_bc, r.t_w_disk)
            if r.physical == "r"
            else r
            for r in rows
        ]
        assert not shape_checks_table1(bad)["t_g zero for r-r"]

    def test_t_i_growth_detected(self):
        rows = [
            t1(r.size, r.physical, r.t_i * (r.size / 16), r.t_m, r.t_g,
               r.t_w_bc, r.t_w_disk)
            for r in paper_rows_table1()
        ]
        assert not shape_checks_table1(rows)["t_i roughly constant with size"]

    def test_inverted_write_ordering_detected(self):
        rows = []
        for r in paper_rows_table1():
            disk = r.t_w_disk
            if r.size == 256:
                disk = 100 if r.physical == "c" else 5000
            rows.append(
                t1(r.size, r.physical, r.t_i, r.t_m, r.t_g, r.t_w_bc, disk)
            )
        assert not shape_checks_table1(rows)[
            "t_w_disk best for r-r at small size"
        ]

    @pytest.mark.parametrize(
        "field,check",
        [
            ("t_i_ref", "t_i ordering c>b>r"),
            ("t_g_ref", "t_g ordering c>b"),
            ("gather_segments", "segments per gather c>b>r"),
        ],
    )
    def test_inverted_reference_ordering_detected(self, field, check):
        """The orderings read the reference columns and the segment
        count: b overtaking c there fails them, in production ``t_i``
        and ``t_g`` it does not."""
        rows = paper_rows_table1()
        for r in rows:
            if r.physical == "b" and r.size == 1024:
                setattr(r, field, 3 * getattr(r, field))
        assert not shape_checks_table1(rows)[check]
        rows = paper_rows_table1()
        for r in rows:
            if r.physical == "c":
                r.t_i, r.t_g = r.t_i / 3, r.t_g / 3
        assert all(shape_checks_table1(rows).values())

    def test_production_t_i_above_reference_detected(self):
        rows = paper_rows_table1()
        rows[0].t_i = 2 * rows[0].t_i_ref
        assert not shape_checks_table1(rows)["t_i at most t_i_ref"]

    def test_non_convergence_detected(self):
        rows = []
        for r in paper_rows_table2():
            disk = r.t_sc_disk * (3 if r.physical == "c" and r.size == 2048 else 1)
            rows.append(t2(r.size, r.physical, r.t_sc_bc, disk))
        assert not shape_checks_table2(rows)["t_sc converges at large size"]


class TestFormatting:
    def test_table1_aligns_and_compares(self):
        text = format_table1(paper_rows_table1())
        lines = text.splitlines()
        assert lines[0].startswith("Table 1")
        assert len(lines) == 3 + 12
        # Every paper row shows its own values twice (ours == paper here).
        assert "80793" in text

    def test_table2_no_compare_variant(self):
        text = format_table2(paper_rows_table2(), compare=False)
        assert "paper:" not in text
        assert "41684" in text  # the measured column still prints values
