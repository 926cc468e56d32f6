"""Post-mortem forensics under real SIGKILL.

One full kill-restart run with a kept workdir, then everything the
flight ring promises is checked against that single corpse: the ring
decodes from the mmap file alone with **zero** CRC failures, the
acked-ticket prefix is covered by ``op_finish`` events, the ``tools
blackbox`` CLI renders the same timeline, and the ``/stats`` payload
grows its ``durability`` section.  The Prometheus round-trip for the
``durability.*`` families rides on the recovery the run performed.
"""

import json
import os

import pytest

from repro import tools
from repro.conformance import run
from repro.obs import metrics as obs_metrics
from repro.obs.forensics import decode_ring, finished_ops, reconstruct
from repro.obs.live import stats_payload
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import parse_prometheus_text, render_prometheus


@pytest.fixture(scope="module")
def kill_run(tmp_path_factory):
    """One SIGKILL run whose workdir (ring, journals, ack log) we keep."""
    workdir = str(tmp_path_factory.mktemp("chaos"))
    obs_metrics.reset_metrics("durability")
    report = run(
        {"ops": 120, "replication": 1, "snapshot_every": 16},
        11,
        {"kind": "sigkill", "by": "acks"},
        workdir=workdir,
    )
    return workdir, report, report["ok"]


class TestSigkillForensics:
    def test_run_recovers_and_blackbox_is_ok(self, kill_run):
        _, report, ok = kill_run
        assert report["killed"]
        assert ok, report
        assert report["blackbox_ok"], report["blackbox"]

    def test_ring_decodes_with_zero_crc_failures(self, kill_run):
        """The ISSUE's acceptance bar: after SIGKILL under load the
        mmap ring alone reconstructs the victim's final operations and
        a torn record is detected, never misparsed.  A single 64-byte
        slot store leaves no torn slot at all in practice."""
        workdir, report, _ = kill_run
        ring = os.path.join(workdir, "flight.ring")
        dump = decode_ring(ring)
        assert dump.torn == 0
        assert dump.events, "ring captured nothing before the kill"
        # Every record re-verified its CRC during decode; the victim's
        # pid is stamped in the header.
        assert dump.pid != os.getpid()

    def test_every_ack_has_an_op_finish_in_the_ring(self, kill_run):
        """Ticket resolution happens *after* the op_finish record, so
        the ack log can never be ahead of the ring (modulo wrap)."""
        workdir, report, _ = kill_run
        dump = decode_ring(os.path.join(workdir, "flight.ring"))
        finished = finished_ops(dump)
        acked = report["acked"]
        assert sum(acked.values()) > 0, "kill landed before any ack"
        for fname, count in acked.items():
            if count == 0:
                continue
            have = finished.get(fname, set())
            assert have, f"{fname}: acks with no op_finish events"

    def test_reconstruction_names_final_operations(self, kill_run):
        workdir, _, _ = kill_run
        dump = decode_ring(os.path.join(workdir, "flight.ring"))
        recon = reconstruct(dump, last=16)
        assert recon["events"] == len(dump.events)
        assert recon["torn"] == 0
        assert recon["timeline"]
        newest = recon["timeline"][-1]
        assert newest["seq"] == dump.events[-1].seq
        assert newest["t_rel_s"] == 0.0
        # Timestamps are relative to the moment of death, so they run
        # from most-negative up to zero.
        rels = [e["t_rel_s"] for e in recon["timeline"]]
        assert rels == sorted(rels)

    def test_per_file_recovery_detail_in_report(self, kill_run):
        _, report, _ = kill_run
        for name, verdict in report["files"].items():
            assert "records_replayed" in verdict
            assert "tail_bytes_discarded" in verdict
            assert verdict["recovery_time_s"] >= 0.0


class TestBlackboxCli:
    def test_render_and_json_agree(self, kill_run, capsys):
        workdir, _, _ = kill_run
        ring = os.path.join(workdir, "flight.ring")
        assert tools.main(["blackbox", ring, "--last", "8"]) == 0
        text = capsys.readouterr().out
        assert "flight ring" in text
        assert "final" in text
        assert tools.main(["blackbox", ring, "--json"]) == 0
        recon = json.loads(capsys.readouterr().out)
        assert recon["torn"] == 0
        assert recon["events"] > 0

    def test_directory_scan_finds_rings(self, kill_run, capsys):
        workdir, _, _ = kill_run
        assert tools.main(["blackbox", workdir, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        recons = out if isinstance(out, list) else [out]
        assert any(r["events"] > 0 for r in recons)

    def test_missing_ring_exits_nonzero(self, tmp_path):
        assert tools.main(["blackbox", str(tmp_path / "nope.ring")]) == 2

    def test_chaos_cli_prints_blackbox_summary(self, capsys):
        rc = tools.main(
            ["chaos", "--perturbation", "sigkill", "--seeds", "1",
             "--ops", "60", "--replication", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "blackbox" in out
        assert "recovery_time_s=" in out


class TestStatsDurabilitySection:
    def test_section_appears_with_durability_counters(self):
        reg = MetricsRegistry()
        reg.counter("durability.journal.records").inc(7)
        reg.counter("durability.journal.bytes").inc(512)
        reg.counter("durability.journal.commits").inc(3)
        reg.counter("durability.recovery.records_replayed").inc(5)
        hist = reg.histogram("durability.commit_s")
        for v in (0.001, 0.002, 0.004):
            hist.observe(v)
        payload = stats_payload(registry=reg)
        d = payload["durability"]
        assert d["journal"] == {"records": 7, "bytes": 512, "commits": 3}
        assert d["recovery"]["records_replayed"] == 5
        assert d["commit_s"]["count"] == 3
        assert d["commit_s"]["p50"] > 0.0

    def test_section_absent_without_durability_metrics(self):
        reg = MetricsRegistry()
        reg.counter("service.ops").inc()
        assert "durability" not in stats_payload(registry=reg)


class TestPrometheusDurabilityFamilies:
    def test_recovery_counters_round_trip(self, kill_run):
        """The chaos run recovered in-process, so the global registry
        carries durability.* families; they must survive the strict
        exposition parser."""
        _, report, _ = kill_run
        families = parse_prometheus_text(render_prometheus())
        replayed = families["repro_durability_recovery_records_replayed_total"]
        assert replayed["type"] == "counter"
        assert replayed["samples"][0][2] >= 0.0
        hist = families["repro_durability_recovery_time_s"]
        assert hist["type"] == "histogram"
