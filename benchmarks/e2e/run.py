#!/usr/bin/env python3
"""The repository's benchmark: six workloads through the whole stack.

Three ways in (see README.md beside this file):

``run.py --seed S --out results.json [--trace-out spans.json]``
    Every workload, one after another, each pass in its own fresh child
    process: an untraced pass (end-to-end metrics) and a traced pass
    (per-layer metrics, the stacked per-op budget, the toggle pass on
    ``small_write``).  Prints every metric by name with its unit and
    exits non-zero on any byte mismatch, failed operation or leaked
    shared-memory segment or directory.

``run.py --workload W --seed S --seconds T --trace 0|1``
    One pass of one workload in this process — what the driver runs.
    The last line of standard output is one JSON object: ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``).

``run.py compare A.json B.json``
    Per (workload, end-to-end metric): B against A under the bound in
    BENCHMARK.json — ``ok``, ``worse`` or ``unresolved``; exit 1 on
    ``worse``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_TMP = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for side, path in ((a, path_a), (b, path_b)):
        if side["environment"]["scale"] != 1.0:
            print(f"{path}: run with --scale {side['environment']['scale']}; "
                  f"only full-scale results compare", file=sys.stderr)
            return 2
    spin_a = a["environment"]["host_spin_ms"]
    spin_b = b["environment"]["host_spin_ms"]
    if abs(spin_b / spin_a - 1.0) > 0.10:
        print(f"note: the host's plain-Python spin took {spin_a:.1f} ms for A "
              f"and {spin_b:.1f} ms for B ({spin_b / spin_a - 1.0:+.0%}); "
              f"differences of that size are the host's, not the program's")
    worst = 0
    print(f"{'workload':<18}{'metric':<14}{'A':>14}{'B':>14}{'B vs A':>10}"
          f"{'bound':>8}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:<18}missing on one side")
            worst = max(worst, 1)
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = wa["end_to_end"][key], wb["end_to_end"][key]
            change = vb / va - 1.0
            worse_by = -change if metric["better"] == "higher" else change
            spread = max(wa["rep_spread_share"], wb["rep_spread_share"])
            if key != "setup_s" and spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
                worst = max(worst, 1)
            else:
                verdict = "ok"
            print(f"{name:<18}{key:<14}{va:>14.4f}{vb:>14.4f}{change:>+10.1%}"
                  f"{bound:>8.0%}  {verdict}")
        for side, label in ((wa, "A"), (wb, "B")):
            if side["failed"]:
                print(f"{name:<18}{label}: {side['failed']} failed operations")
                worst = max(worst, 1)
    return worst


# --------------------------------------------------------------------------
# one pass in this process (what the driver runs)
# --------------------------------------------------------------------------


def _log(line: str) -> None:
    print(line, flush=True)


def run_pass(args) -> int:
    import harness
    import workloads

    spec = load_spec()
    scale = args.scale * args.seconds / workloads.NOMINAL_SECONDS
    os.makedirs(args.tmp_root, exist_ok=True)
    env = harness.environment(args.tmp_root, args.seed, scale)
    _log(f"{args.workload}  seed {args.seed}  scale {scale:g}  "
         f"{'traced' if args.trace else 'untraced'} pass  "
         f"cpus {env['cpus']}  spin {env['host_spin_ms']:.1f} ms  "
         f"tmp {env['tmp_dir']}  flush: {env['flush_policy']}")
    if args.trace:
        result = harness.traced_pass(
            args.workload, args.seed, scale, args.tmp_root, _log,
            keep_spans=bool(args.trace_out),
        )
        wanted = spec["per_layer"]
    else:
        result = harness.untraced_pass(
            args.workload, args.seed, scale, args.tmp_root, _log
        )
        wanted = spec["end_to_end"]
    result["environment"] = env
    leaks = harness.leaked(args.tmp_root, os.getpid()) + [
        f"process {pid}" for pid in harness.stop_children()
    ]
    result["leaked"] = leaks
    for path in leaks:
        _log(f"LEAKED: {path}")
    for line in result["failures"]:
        _log(f"FAILED: {line}")

    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # The driver's contract wants every listed metric on every workload;
    # one that does not apply here is reported as 0 on that line only —
    # the tables and --out omit it.
    line_metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    for m in wanted:
        if m["name"] in measured:
            _log(f"  {m['name']:<40}{measured[m['name']]:>16.4f} {m['unit']}")
    spans = result.pop("spans", None)
    if args.trace_out and spans is not None:
        with open(args.trace_out, "w") as fh:
            json.dump({
                "workload": args.workload,
                "columns": ["id", "name", "thread", "start_ns", "end_ns",
                            "parent", "trace_id"],
                "repetitions": spans,
                "per_layer": measured,
                "stack_us": result["stack_us"],
            }, fh)
    if args.result_file:
        with open(args.result_file, "w") as fh:
            json.dump(result, fh)
    correct = not result["failed"] and not result["failures"] and not leaks
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": line_metrics,
    }), flush=True)
    return 0 if correct else 1


# --------------------------------------------------------------------------
# the whole set: every workload, each pass in a fresh child
# --------------------------------------------------------------------------


def _reap(proc: subprocess.Popen) -> None:
    """Kill a child's whole process group (its pool workers with it)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _sweep(child_root: str, pid: int) -> list:
    """Remove what a dead child left behind; returns what was found."""
    import harness

    found = harness.shm_segments(pid)
    for path in found:
        os.unlink(path)
    if os.path.isdir(child_root):
        found.extend(
            os.path.join(child_root, entry) for entry in os.listdir(child_root)
        )
        shutil.rmtree(child_root)
    return found


def run_child(args, workload: str, trace: int, trace_out=None,
              kill_after_s=None) -> dict:
    """One pass in a fresh child process; returns its result (or a
    failure record when the child died), leaving nothing behind."""
    child_root = os.path.join(
        args.tmp_root, f"child-{os.getpid()}-{workload}-{trace}"
    )
    os.makedirs(child_root)
    result_file = os.path.join(child_root, "result.json")
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(trace), "--tmp-root", child_root,
        "--result-file", result_file,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=kill_after_s or CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _reap(proc)
    result = None
    if os.path.exists(result_file):
        with open(result_file) as fh:
            result = json.load(fh)
        os.remove(result_file)
    left = _sweep(child_root, proc.pid)
    if result is None:
        why = "killed" if code is None else f"exit code {code}"
        result = {
            "workload": workload, "metrics": {}, "attempted": 1, "failed": 1,
            "failures": [f"{workload}: child {why} before reporting"],
            "leaked": [], "died": True,
        }
    result["swept"] = left
    if code not in (0, None) and not result["failed"]:
        result["failed"] = 1
        result["failures"].append(f"{workload}: child exit code {code}")
    return result


def _table(title: str, rows: list) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + row)


def run_all(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    os.makedirs(args.tmp_root, exist_ok=True)
    started = time.time()
    workloads_out, bad = {}, 0
    import harness

    environment = harness.environment(
        args.tmp_root, args.seed,
        args.scale * args.seconds / spec["run_seconds"],
    )
    print(json.dumps(environment, indent=1))
    for name in names:
        print(f"\n== {name}", flush=True)
        plain = run_child(args, name, 0)
        trace_out = (
            f"{args.trace_out}.{name}.json" if args.trace_out else None
        )
        traced = run_child(args, name, 1, trace_out=trace_out)
        e2e = dict(plain["metrics"])
        layer = dict(traced["metrics"])
        # recovery and journal size are end-to-end facts of the journaled
        # workloads, measured in the traced pass (see README: demotions)
        for key in ("recover_s", "journal_amp"):
            if f"durability.{key}" in layer:
                e2e[key] = layer[f"durability.{key}"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        e2e["failed_share"] = failed / max(1, attempted)
        leaks = (plain["leaked"] + traced["leaked"]
                 + plain["swept"] + traced["swept"])
        workloads_out[name] = {
            "end_to_end": e2e,
            "per_layer": layer,
            "stack_us": traced.get("stack_us", {}),
            "flags": traced.get("flags", []),
            "rep_spread_share": plain.get("rep_spread_share", 0.0),
            "samples_per_rep": plain.get("samples_per_rep", 0),
            "payload_bytes": plain.get("payload_bytes", 0),
            "reps": plain.get("reps", []),
            "attempted": attempted,
            "failed": failed,
            "oracle_checks": plain.get("oracle_checks", 0)
            + traced.get("oracle_checks", 0),
            "failures": plain["failures"] + traced["failures"],
            "leaked": leaks,
        }
        if failed or leaks or workloads_out[name]["failures"]:
            bad += 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(recover_s="s", journal_amp="ratio", failed_share="ratio")
    for name, w in workloads_out.items():
        mib_s = (w["end_to_end"].get("ops_per_s", 0.0) * w["payload_bytes"]
                 / (1 << 20))
        _table(
            f"{name}: end to end (median of 5 repetitions, "
            f"{w['samples_per_rep']} samples each; {mib_s:.1f} MiB/s at "
            f"{w['payload_bytes']} B per op)",
            [f"{k:<40}{v:>16.4f} {units.get(k, '')}"
             for k, v in w["end_to_end"].items()],
        )
        _table(
            f"{name}: per layer (traced pass)",
            [f"{k:<40}{v:>16.4f} {units.get(k, '')}"
             for k, v in w["per_layer"].items()],
        )
        latency = w["stack_us"].get("latency", 0.0)
        if latency:
            _table(
                f"{name}: one op's traced latency, stacked "
                f"({latency:.1f} us)",
                [f"{k:<40}{v:>16.1f} us {v / latency:>8.1%}"
                 for k, v in w["stack_us"].items() if k != "latency"],
            )
        for flag in w["flags"]:
            print(f"  FLAG {flag}")
        for line in w["failures"]:
            print(f"  FAILED {line}")
        for path in w["leaked"]:
            print(f"  LEAKED {path}")
    out = {
        "benchmark": "e2e",
        "environment": environment,
        "elapsed_s": time.time() - started,
        "workloads": workloads_out,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        print(f"\nresults -> {args.out}")
    print(f"{len(names) - bad}/{len(names)} workloads correct, "
          f"{out['elapsed_s']:.0f} s")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # the checkout's own sources, ahead of any installed copy
    sys.path[:0] = [HERE, SRC]
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply op counts (smoke tests); stamped "
                             "into the output, refused by compare")
    parser.add_argument("--out", help="whole-set results file")
    parser.add_argument("--trace-out",
                        help="write the probe spans and per-layer table here")
    parser.add_argument("--tmp-root", default=DEFAULT_TMP,
                        help="where repetition directories live")
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        import harness

        try:
            return run_pass(args)
        finally:  # on every path out: no process outlives the pass
            harness.stop_children()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
