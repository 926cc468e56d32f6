"""The conformance driver itself: reports are per-run and replayable,
the oracle can fail, and a failing run's artifact re-runs from the
CLI.  The data-path and SIGKILL coverage lives beside the subsystems
(``tests/faults/test_chaos.py``, ``tests/durability/``,
``tests/mp/test_mp_engine.py``)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import tools
from repro.conformance import default_plan, replay, run, stream

PLAN = dict(drop=0.10, corrupt=0.10)


@pytest.fixture
def broken_checksum(monkeypatch):
    """A wire checksum that never sees corruption: corrupted payloads
    are delivered as if intact."""
    for module in ("engine", "server"):
        monkeypatch.setattr(
            f"repro.clusterfile.{module}.checksum", lambda _p: 0
        )


def _verdicts(report):
    return {name: p["ok"] for name, p in report["paths"].items()}


class TestReports:
    def test_report_is_headed_by_its_inputs(self):
        report = run({"ops": 16}, 2, "none")
        assert report["config"]["ops"] == 16
        assert report["seed"] == 2
        assert report["perturbation"] == {"kind": "none"}
        assert report["ok"], report
        assert report["metrics"] == {}

    def test_counters_are_per_run_not_process_totals(self):
        """Seed 1 after seed 0 reports what seed 1 alone reports in a
        fresh process."""
        run(None, 0, default_plan(seed=0, **PLAN))
        after_another = run(None, 1, default_plan(seed=1, **PLAN))
        code = (
            "import json; from repro.conformance import default_plan, run; "
            "print(json.dumps(run(None, 1, default_plan(seed=1, "
            "drop=0.10, corrupt=0.10))))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120,
        )
        fresh_report = json.loads(fresh.stdout)
        assert fresh_report == json.loads(json.dumps(after_another))
        assert after_another["metrics"]["faults.retry.messages"] > 0

    def test_stream_is_a_pure_function_of_the_seed(self):
        config = {"nprocs": 4, "files": 2, "ops": 30, "snapshot_every": 7}
        a, b = stream(config, 9), stream(config, 9)
        assert [op[:4] for op in a] == [op[:4] for op in b]
        assert all((x.payload == y.payload).all() for x, y in zip(a, b))
        # A checkpoint takes a ticket seq of its own on its file.
        seqs = [op.seq for op in a if op.file == "c0"]
        assert seqs == sorted(set(seqs)) and seqs[-1] > len(seqs) - 1

    def test_unknown_axis_raises_instead_of_being_dropped(self):
        with pytest.raises(ValueError, match="unknown config axes"):
            run({"workers": 2}, 0, {"kind": "sigkill", "by": "time"})
        with pytest.raises(ValueError, match="mode"):
            run({"mode": "gpu"}, 0, "none")


class TestSharedViews:
    """Every node views the whole file, so one write call carries
    overlapping requests, and the serial replay orders them."""

    def test_views_default_to_disjoint_and_unknown_views_raise(self):
        report = run({"ops": 8}, 0, "none")
        assert report["config"]["views"] == "disjoint"
        with pytest.raises(ValueError, match="views"):
            run({"views": "overlapping"}, 0, "none")

    def test_overlapping_calls_equal_the_serial_replay_under_drops(self):
        """At drop rate 0.3 a path may exhaust its retry budget (one
        subfile lost six rounds running), which is counted; any other
        failed verdict is a byte out of request order."""
        exhausted = 0
        for seed in range(5):
            plan = default_plan(seed, drop=0.3)
            report = run({"views": "shared"}, seed, plan)
            for name, path in report["paths"].items():
                if "RetryBudgetExceeded" in path.get("error", ""):
                    exhausted += 1
                else:
                    assert path["ok"], (seed, name, path)
        assert exhausted <= 3, exhausted


class TestOracleCanFail:
    def test_broken_checksum_fails_every_byte_moving_path(
        self, broken_checksum
    ):
        report = run(None, 0, default_plan(seed=0, drop=0.05, corrupt=0.2))
        assert not report["ok"]
        # Re-layout and reshard transfers re-send their intact packed
        # source, so a broken comparison cannot corrupt reshard's bytes
        # (ROBUSTNESS.md); re-layout fails on the bytes the writes broke.
        assert _verdicts(report) == {
            "write_read": False,
            "relayout": False,
            "collective": False,
            "reshard": True,
        }
        again = replay(json.loads(json.dumps(report)))
        assert again["paths"] == report["paths"]

    def test_failing_run_writes_an_artifact_the_cli_replays(
        self, broken_checksum, tmp_path, capsys
    ):
        artifact = tmp_path / "failing.json"
        argv = ["chaos", "--seed", "3", "--corrupt", "0.2",
                "--artifact", str(artifact)]
        assert tools.main(argv) == 1
        assert f"--replay {artifact}" in capsys.readouterr().out
        saved = json.loads(artifact.read_text())
        assert saved["seed"] == 3
        assert saved["perturbation"]["kind"] == "faults"
        assert not saved["ok"]
        assert tools.main(["chaos", "--replay", str(artifact)]) == 1
        assert f"verdicts as in {artifact}: True" in capsys.readouterr().out
