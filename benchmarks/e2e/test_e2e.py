"""Tests of the benchmark itself: ``python -m pytest benchmarks/e2e -q``.

Outside tier-1 (``pyproject.toml`` collects ``tests/`` only).  The smoke
runs use ``--scale 0.02``: a few dozen ops per repetition, the same
code paths, about a minute in all.
"""

import ast
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SCALE = 0.02

#: The names ISSUE 12 fixed.
ISSUE_WORKLOADS = [
    "small_write", "large_write", "large_write_proc", "mixed_rw",
    "cold_views", "reshard",
]
ISSUE_END_TO_END = [
    "ops_per_s", "lat_p50_us", "lat_p95_us", "setup_s", "recover_s",
    "journal_amp", "peak_rss_mib", "failed_share",
]


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def _shm_segments():
    return set(glob.glob("/dev/shm/repro-*"))


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1].startswith(spec["paths"][0] + "/")
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert os.path.getsize(run.SPEC_PATH) <= 64 * 1024


def test_names_are_the_issues(spec):
    assert [w["name"] for w in spec["workloads"]] == ISSUE_WORKLOADS
    assert list(workloads.WORKLOADS) == ISSUE_WORKLOADS
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert set(e2e) <= set(ISSUE_END_TO_END)
    for wanted in ISSUE_END_TO_END:  # kept, or demoted under a layer prefix
        assert wanted in e2e or any(
            n.split(".", 1)[1] == wanted for n in layer
        ), wanted


def test_cold_views_list_outgrows_the_plan_cache():
    pairs = workloads.SPECS["cold_views"].pairs()
    assert len(pairs) >= 288 and len(set(pairs)) == len(pairs)
    keys = {
        (workloads.partition(lg).structure_key(),
         workloads.partition(ph).structure_key())
        for lg, ph in pairs
    }
    from repro.redistribution import plan_cache_stats

    assert len(keys) == len(pairs) > plan_cache_stats()["capacity"]


# -- the oracle --------------------------------------------------------------


def test_oracle_does_not_import_the_program():
    with open(os.path.join(HERE, "oracle.py")) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"typing", "numpy"}


@pytest.mark.parametrize("layout,elements", [
    (("rr", 8, 256), 8), (("r", 64, 64, 8), 8), (("c", 64, 64, 4), 4),
    (("b", 64, 64, 4), 4), (("bc", 96, 8, 2, 2), 4), (("bc", 64, 16, 4, 1), 4),
    (("bc", 64, 8, 1, 4), 4),
])
def test_oracle_arithmetic_agrees_with_the_program(layout, elements):
    from repro.redistribution import distribute

    data = np.random.default_rng(1).integers(
        0, 256, 2 * oracle.period(layout), dtype=np.uint8
    )
    mine = oracle.split(data, layout, elements)
    theirs = distribute(data, workloads.partition(layout))
    assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
    assert np.array_equal(oracle.assemble(mine, layout, data.size), data)
    if layout[0] in ("rr", "r"):  # the closed-form view runs
        image = oracle.FileImage(layout)
        for e, piece in enumerate(mine):
            image.write(e, 0, piece)
        assert np.array_equal(image.data[:data.size], data)


def test_oracle_checks_reads_in_sequence_order():
    layout = ("rr", 2, 4)
    first, second = np.full(4, 1, np.uint8), np.full(4, 2, np.uint8)
    ops = [
        (2, "write", 0, 0, second),
        (0, "write", 0, 0, first),
        (1, "read", 0, 0, first),  # sequenced between the two writes
        (3, "read", 0, 0, first),  # stale: the second write came before
    ]
    image, checked, bad = oracle.replay(layout, ops)
    assert (checked, bad) == (2, 1)
    assert oracle.mismatched_bytes(image.data, second) == 0
    assert oracle.mismatched_bytes(image.data, np.append(second, 7)) == 1


@pytest.mark.parametrize("name", ["small_write", "cold_views", "reshard"])
def test_a_flipped_byte_is_caught(name, tmp_path):
    clean = workloads.run_rep(name, 3, 0, SCALE, str(tmp_path / "clean"))
    assert clean["failed"] == 0 and not clean["failures"]
    assert clean["oracle_checks"] > 0
    bad = workloads.run_rep(name, 3, 0, SCALE, str(tmp_path / "bad"),
                            corrupt=True)
    assert bad["failed"] >= 1 and bad["failures"]


# -- the runner --------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One whole-set run at smoke scale."""
    tmp = tmp_path_factory.mktemp("e2e")
    before = _shm_segments()
    out = tmp / "out.json"
    done = subprocess.run(
        [sys.executable, RUN, "--scale", str(SCALE), "--seed", "5",
         "--out", str(out), "--tmp-root", str(tmp / "work")],
        capture_output=True, text=True, timeout=600,
    )
    return types.SimpleNamespace(
        done=done, out=out, work=tmp / "work", before=before,
        results=json.loads(out.read_text()) if out.exists() else None,
    )


def test_smoke_runs_all_six_and_checks_them(smoke):
    assert smoke.done.returncode == 0, smoke.done.stdout[-3000:]
    results = smoke.results
    assert list(results["workloads"]) == ISSUE_WORKLOADS
    assert results["environment"]["scale"] == SCALE
    for name, w in results["workloads"].items():
        assert w["failed"] == 0 and not w["failures"], name
        assert w["oracle_checks"] > 0 and not w["leaked"], name


def test_smoke_prints_every_name_in_benchmark_json(smoke, spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    seen = set()
    for name, w in smoke.results["workloads"].items():
        assert e2e <= set(w["end_to_end"]), name
        assert set(w["per_layer"]) <= layer, name
        seen |= set(w["per_layer"])
        for metric in list(w["end_to_end"]) + list(w["per_layer"]):
            assert metric in smoke.done.stdout
        has_mp = any(k.startswith("mp.") for k in w["per_layer"])
        assert has_mp == (name == "large_write_proc")
        journaled = workloads.SPECS[name].journaled
        assert ("recover_s" in w["end_to_end"]) == journaled
        assert ("journal_amp" in w["end_to_end"]) == journaled
    assert seen == layer  # every listed layer metric is produced somewhere


def test_smoke_leaves_nothing_behind(smoke):
    assert os.listdir(smoke.work) == []
    assert _shm_segments() <= smoke.before


def test_compare_refuses_scaled_results(smoke):
    done = subprocess.run(
        [sys.executable, RUN, "compare", str(smoke.out), str(smoke.out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 2 and "--scale" in done.stderr


def test_compare_verdicts(tmp_path, spec):
    def results(ops_per_s, spread):
        e2e = {m["name"]: 1.0 for m in spec["end_to_end"]}
        e2e["ops_per_s"] = ops_per_s
        return {
            "environment": {"scale": 1.0, "host_spin_ms": 10.0},
            "workloads": {
                w["name"]: {"end_to_end": e2e, "rep_spread_share": spread,
                            "failed": 0}
                for w in spec["workloads"]
            },
        }

    def verdict(a, b):
        for path, data in (("a.json", a), ("b.json", b)):
            (tmp_path / path).write_text(json.dumps(data))
        done = subprocess.run(
            [sys.executable, RUN, "compare", str(tmp_path / "a.json"),
             str(tmp_path / "b.json")], capture_output=True, text=True,
        )
        return done.returncode, done.stdout

    code, out = verdict(results(100.0, 0.01), results(99.0, 0.01))
    assert code == 0 and "worse" not in out and "unresolved" not in out
    code, out = verdict(results(100.0, 0.01), results(50.0, 0.01))
    assert code == 1 and "worse" in out
    code, out = verdict(results(100.0, 0.9), results(50.0, 0.01))
    assert code == 0 and "unresolved" in out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_the_drivers_line(trace, section, spec, tmp_path):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "mixed_rw", "--seed", "9",
         "--seconds", "0.2", "--trace", str(trace),
         "--tmp-root", str(tmp_path / "work")],
        capture_output=True, text=True, timeout=300, cwd=str(tmp_path),
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in spec[section]]
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    if trace == 0:
        assert all(e["value"] > 0 for e in line["metrics"].values())
    assert os.listdir(tmp_path / "work") == []


def test_the_driver_run_leaves_no_process(tmp_path):
    """Process mode starts pool workers and the interpreter's
    shared-memory resource tracker; none may outlive the run, not even
    as a zombie.  The run gets a session of its own so that whatever it
    started can be found afterwards."""
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "large_write_proc", "--seed", "4",
         "--seconds", "0.2", "--trace", "0",
         "--tmp-root", str(tmp_path / "work")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0, out[-3000:]
    session = str(proc.pid)
    left = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[3] == session:
            left.append(stat)
    assert left == []


def test_nothing_to_measure_is_an_error(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero
    and print no result."""
    bare = tmp_path / "bare"
    os.makedirs(bare / "benchmarks")
    shutil.copy(run.SPEC_PATH, bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "small_write",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, cwd=str(bare), timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_a_killed_child_leaves_nothing(tmp_path):
    before = _shm_segments()
    args = types.SimpleNamespace(
        seed=1, seconds=float(workloads.NOMINAL_SECONDS), scale=1.0,
        tmp_root=str(tmp_path / "work"),
    )
    os.makedirs(args.tmp_root)
    # process mode: shared-memory stores, rings and pool workers are all
    # alive when the child is killed mid-repetition
    result = run.run_child(args, "large_write_proc", 0, kill_after_s=4.0)
    assert result.get("died") and result["failed"] == 1
    assert result["swept"], "the child should have been caught mid-run"
    assert os.listdir(args.tmp_root) == []
    assert _shm_segments() <= before
