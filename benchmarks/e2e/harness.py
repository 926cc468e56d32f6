"""Passes over one workload: repetitions, medians, the environment block.

``untraced_pass`` yields the end-to-end metrics: one discarded warm-up
repetition, then five measured ones, each on a fresh deployment.  A
value is the median of the five; percentiles are taken per repetition
first.  ``traced_pass`` yields the per-layer metrics: after a warm-up it
alternates untraced control repetitions with traced ones (probes
installed, restart and recovery included), and on ``small_write`` adds
the toggle repetitions — durability off, telemetry off.
"""

import glob
import os
import platform
import resource
import signal
import statistics
import subprocess
import time
from typing import Callable, Dict, List

import numpy as np

import layers
import probes
import workloads

REPS = 5
TRACED_REPS = 2
#: The workload on which each switchable layer is toggled off.
TOGGLE_WORKLOAD = "small_write"
#: Flag a toggle whose gain differs from the traced share by more than
#: this many points of op time.
TOGGLE_TOLERANCE = 0.05
#: The engine records this many stage histograms per engine call;
#: ``set_stage_histograms(False)`` is what the telemetry toggle removes.
STAGE_HISTOGRAMS_PER_CALL = 5

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _commit() -> str:
    if not os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _llc() -> str:
    sizes = []
    for path in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(path, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(path, "size")) as fh:
                sizes.append((level, fh.read().strip()))
        except (OSError, ValueError):
            continue
    return max(sizes)[1] if sizes else "unknown"


def host_spin_ms() -> float:
    """How fast this host runs plain interpreter code right now: the
    median of five fixed pure-Python loops.  Not a metric and never used
    to rescale one — on shared hosts it drifts by tens of percent over
    minutes, and two results taken at different speeds should be read
    with that in mind (``compare`` says so)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def environment(tmp_root: str, seed: int, scale: float) -> dict:
    """The block every result carries."""
    real = os.path.realpath(tmp_root)
    return {
        "cpus": _cpus(),
        "host_spin_ms": host_spin_ms(),
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tmp_dir": "tmpfs (/dev/shm)" if real.startswith("/dev/shm")
        else f"disk ({os.path.relpath(real, REPO_ROOT)})",
        "loadavg_at_start": list(os.getloadavg()),
        "last_level_cache": _llc(),
        "flush_policy": workloads.FLUSH_POLICY,
        "seed": seed,
        "scale": scale,
    }


def peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:  # reaped pool workers: the largest of them
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def shm_segments(pid: int) -> List[str]:
    """Shared-memory segments process ``pid`` created (``repro.mp.shm``
    names them ``repro-<pid>-<seq>-<hint>``) that still exist."""
    return sorted(glob.glob(f"/dev/shm/repro-{pid}-*"))


def leaked(tmp_root: str, pid: int) -> List[str]:
    """Shared-memory segments and repetition directories a process of
    this benchmark left behind."""
    return shm_segments(pid) + sorted(
        glob.glob(os.path.join(tmp_root, f"*-{pid}-rep*"))
    )


def _child_pids() -> List[int]:
    """Processes whose parent is this one, zombies included."""
    me, found = os.getpid(), []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # gone between the listing and the read
            continue
        if int(fields[1]) == me:
            found.append(int(stat.split("/")[2]))
    return sorted(found)


def stop_children() -> List[int]:
    """End every process this one started and wait until each has ended.

    The one child a clean pass still has is the interpreter's
    shared-memory resource tracker (``large_write_proc``): it is started
    by the first ``SharedMemory(create=True)`` and normally outlives its
    parent by a moment — or for ever as a zombie where nothing adopts
    orphans.  Anything else still alive is a leak of the program's:
    killed, reaped, and returned so the pass can report it.  Then the
    tracker is stopped in the orderly way (it ends once every holder of
    its pipe has gone, hence last) and reaped too."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    strays = [
        pid for pid in _child_pids()
        if stop is None or pid != getattr(tracker, "_pid", None)
    ]
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if stop is not None:
        stop()  # closes its pipe, then waitpid()s it
    return strays


def _rep_dir(tmp_root: str, name: str, rep: int) -> str:
    return os.path.join(tmp_root, f"{name}-{os.getpid()}-rep{rep}")


def _summary(out: dict) -> dict:
    """The printable part of one repetition."""
    lat = out["lat_us"]
    row = {
        "ops": out["ops"],
        "ops_per_s": out["ops"] / out["wall_s"],
        "lat_p50_us": float(np.percentile(lat, 50)),
        "lat_p95_us": float(np.percentile(lat, 95)),
        "setup_s": out["setup_s"],
    }
    for key in ("recover_s", "journal_amp"):
        if key in out:
            row[key] = out[key]
    if "streams" in out:
        sizes = [
            tk.batched_with
            for st in out["streams"] for tk in st.ticket[out["warm"]:]
        ]
        row["batch_size_mean"] = float(np.mean(sizes))
    return row


class _Tally:
    """Attempts, failures and messages across a pass's repetitions."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.oracle_checks = 0
        self.failures: List[str] = []

    def add(self, out: dict) -> None:
        self.attempted += out["attempted"]
        self.failed += out["failed"] + (
            1 if out["failures"] and not out["failed"] else 0
        )
        self.oracle_checks += out["oracle_checks"]
        self.failures.extend(out["failures"])

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "oracle_checks": self.oracle_checks,
            "failures": self.failures[:20],
        }


def untraced_pass(name: str, seed: int, scale: float, tmp_root: str,
                  log: Callable[[str], None]) -> dict:
    spec = workloads.SPECS[name]
    tally = _Tally()
    rows = []
    for rep in range(REPS + 1):
        out = workloads.run_rep(name, seed, rep, scale,
                                _rep_dir(tmp_root, name, rep))
        row = _summary(out)
        tally.add(out)
        if rep == 0:
            log(f"  warm-up  {_fmt_row(row)}")
            continue
        rows.append(row)
        log(f"  rep {rep}    {_fmt_row(row)}")
    metrics = {
        key: statistics.median(r[key] for r in rows)
        for key in ("ops_per_s", "lat_p50_us", "lat_p95_us", "setup_s")
    }
    metrics["peak_rss_mib"] = peak_rss_mib(getattr(spec, "process", False))
    rates = [r["ops_per_s"] for r in rows]
    return {
        "workload": name,
        "metrics": metrics,
        "rep_spread_share": (max(rates) - min(rates)) / metrics["ops_per_s"],
        "samples_per_rep": rows[0]["ops"],
        "payload_bytes": out["payload_bytes"],
        "reps": rows,
        **tally.as_dict(),
    }


def _fmt_row(row: dict) -> str:
    parts = [
        f"{row['ops_per_s']:10.1f} ops/s",
        f"p50 {row['lat_p50_us']:9.1f} us",
        f"p95 {row['lat_p95_us']:9.1f} us",
        f"setup {row['setup_s']:.3f} s",
    ]
    if "batch_size_mean" in row:
        parts.append(f"batch {row['batch_size_mean']:.2f}")
    if "recover_s" in row:
        parts.append(f"recover {row['recover_s']:.3f} s")
    return "  ".join(parts)


def _mean_of(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = dict.fromkeys(k for d in dicts for k in d)  # first-seen order
    return {k: statistics.fmean(d[k] for d in dicts if k in d) for k in keys}


def traced_pass(name: str, seed: int, scale: float, tmp_root: str,
                log: Callable[[str], None], keep_spans: bool = False) -> dict:
    spec = workloads.SPECS[name]
    service = spec.kind == "service"
    tally = _Tally()
    primitive = layers.primitive_costs(tmp_root)

    def rep_dir(rep: int) -> str:
        return _rep_dir(tmp_root, name, rep)

    out = workloads.run_rep(name, seed, 0, scale, rep_dir(0))
    tally.add(out)
    log(f"  warm-up   {_fmt_row(_summary(out))}")

    plain, traced, toggled = [], [], {"durability": [], "obs": []}
    layer_sets, stacks, span_rows = [], [], []
    rep = 0
    for k in range(TRACED_REPS):
        rep += 1
        out = workloads.run_rep(name, seed, rep, scale, rep_dir(rep))
        tally.add(out)
        plain.append(out["wall_s"] / out["ops"])
        log(f"  untraced  {_fmt_row(_summary(out))}")

        rep += 1
        recorder = probes.Recorder()
        recorder.install()
        try:
            out = workloads.run_rep(
                name, seed, rep, scale, rep_dir(rep),
                # one restart per pass: recovering a 32 MiB file costs
                # more than all the timed repetitions together
                recorder=recorder, recover=(k == TRACED_REPS - 1),
            )
        finally:
            recorder.remove()
        tally.add(out)
        traced.append(out["wall_s"] / out["ops"])
        log(f"  traced    {_fmt_row(_summary(out))}")
        got = (layers.service_layers if service else layers.direct_layers)(
            out, recorder.spans
        )
        layer_sets.append(got["metrics"])
        stacks.append(got["stack_us"])
        if keep_spans:
            span_rows.append([list(sp) for sp in recorder.spans])

        if name == TOGGLE_WORKLOAD:
            for layer, kwargs in (
                ("durability", {"durability": False}),
                ("obs", {"obs": False}),
            ):
                rep += 1
                out = workloads.run_rep(name, seed, rep, scale, rep_dir(rep),
                                        **kwargs)
                tally.add(out)
                toggled[layer].append(out["wall_s"] / out["ops"])
                log(f"  {layer:<9} off  {_fmt_row(_summary(out))}")

    metrics = _mean_of(layer_sets)
    metrics.update(primitive)
    on = statistics.median(plain)
    traced_op = statistics.median(traced)
    metrics["bench.trace_overhead_share"] = traced_op / on - 1.0
    metrics["bench.rep_spread_share"] = (max(plain) - min(plain)) / on
    metrics["bench.failed_share"] = tally.failed / max(1, tally.attempted)
    flags = []
    if name == TOGGLE_WORKLOAD:
        predicted = {
            "durability": metrics["durability.commit_us_per_op"]
            / (traced_op * 1e6),
            "obs": (
                metrics["obs.flightrec_events_per_op"]
                * primitive["obs.flightrec_record_ns"]
                + STAGE_HISTOGRAMS_PER_CALL * metrics["service.batches_per_op"]
                * primitive["obs.hist_observe_ns"]
            ) / 1e3 / (traced_op * 1e6),
        }
        for layer, times in toggled.items():
            gain = 1.0 - statistics.median(times) / on
            metrics[f"{layer}.off_gain_share"] = gain
            if abs(gain - predicted[layer]) > TOGGLE_TOLERANCE:
                flags.append(
                    f"{layer}: switching it off gains {gain:+.1%} of op time, "
                    f"its traced row says {predicted[layer]:.1%}"
                )
    result = {
        "workload": name,
        "metrics": metrics,
        "stack_us": _mean_of(stacks),
        "flags": flags,
        **tally.as_dict(),
    }
    if keep_spans:
        result["spans"] = span_rows
    return result


