"""Command-line inspection tools for partitions and layouts.

Usage::

    python -m repro.tools render r 16 16 4        # draw a matrix layout
    python -m repro.tools match c r 256 4         # matching-degree report
    python -m repro.tools plan b r 64 4           # redistribution schedule
    python -m repro.tools figure3                 # the paper's figure 3
    python -m repro.tools trace r c 64 4 \\
        --json out.json --chrome out.trace        # traced write + read

These are development/demonstration aids; the programmatic API lives in
:mod:`repro.viz`, :mod:`repro.core.matching` and
:mod:`repro.redistribution.schedule`.
"""

from __future__ import annotations

import argparse
import sys

from .core.falls import Falls
from .core.matching import matching_degree
from .core.partition import Partition
from .distributions.multidim import matrix_partition
from .redistribution.schedule import build_plan
from .viz import render_partition


def _cmd_render(args) -> int:
    p = matrix_partition(args.layout, args.rows, args.cols, args.nprocs)
    print(render_partition(p, length=min(p.size, args.width)))
    return 0


def _cmd_match(args) -> int:
    p1 = matrix_partition(args.src, args.n, args.n, args.nprocs)
    p2 = matrix_partition(args.dst, args.n, args.n, args.nprocs)
    m = matching_degree(p1, p2)
    print(f"matching degree {args.src} -> {args.dst} on a "
          f"{args.n}x{args.n} matrix over {args.nprocs} processes")
    print(f"  degree               {m.degree():.4f}")
    print(f"  identity             {m.identity}")
    print(f"  transfers            {m.transfers} (minimum {m.min_transfers})")
    print(f"  fan-out / fan-in     {m.fan_out} / {m.fan_in}")
    print(f"  fragments/period     src {m.src_fragments}, dst {m.dst_fragments}")
    print(f"  mean message bytes   {m.mean_message_bytes:.1f}")
    print(f"  mean fragment bytes  {m.mean_fragment_bytes:.1f}")
    print(f"  contiguity           {m.contiguity:.3f}")
    return 0


def _cmd_plan(args) -> int:
    p1 = matrix_partition(args.src, args.n, args.n, args.nprocs)
    p2 = matrix_partition(args.dst, args.n, args.n, args.nprocs)
    plan = build_plan(p1, p2)
    print(f"redistribution plan {args.src} -> {args.dst}: "
          f"{plan.message_count} transfers"
          f"{'  [identity]' if plan.is_identity else ''}")
    for t in plan.transfers:
        print(
            f"  element {t.src_element} -> {t.dst_element}: "
            f"{t.bytes_per_period} B/period, "
            f"gather {t.src_fragments_per_period} frag, "
            f"scatter {t.dst_fragments_per_period} frag"
        )
    from .viz import render_plan

    print()
    print(render_plan(plan))
    return 0


def _cmd_trace(args) -> int:
    import numpy as np

    from .clusterfile.fs import Clusterfile
    from .obs import metrics
    from .obs.export import chrome_to_json, render_trace, trace_to_json
    from .obs.span import Tracer, open_span
    from .simulation.cluster import ClusterConfig
    from .simulation.price import price

    logical = matrix_partition(args.logical, args.n, args.n, args.nprocs)
    physical = matrix_partition(args.physical, args.n, args.n, args.nprocs)
    length = args.n * args.n

    fs = Clusterfile(
        ClusterConfig(compute_nodes=args.nprocs, io_nodes=args.nprocs),
        workers_mode=args.mode,
        workers=args.io_processes,
    )
    fs.create("traced", physical)

    tracer = Tracer("tools-trace")
    with tracer.activate():
        accesses = []
        for e in range(args.nprocs):
            fs.set_view("traced", e, logical, element=e)
            piece = np.full(
                logical.element_length(e, length), e, dtype=np.uint8
            )
            accesses.append((e, 0, piece))
        wres = fs.write("traced", accesses, to_disk=True)
        _, rres = fs.read_with_result(
            "traced", [(0, 0, logical.element_length(0, length))], from_disk=True
        )
        # Ops do not price themselves: draw their modelled schedules here.
        with open_span("modelled_time") as modelled:
            for res in (wres, rres):
                price(res, fs.cluster, trace_span=modelled.child(res.trace.name))
    if args.mode == "process":
        fs.close()  # spans are already collected; release the pool

    print(render_trace(tracer.roots))
    if args.json:
        with open(args.json, "w") as f:
            f.write(trace_to_json(tracer.roots))
        print(f"\nnested JSON trace -> {args.json}")
    if args.chrome:
        with open(args.chrome, "w") as f:
            f.write(chrome_to_json(tracer.roots))
        print(f"chrome://tracing file -> {args.chrome}")
    print("\nmetrics:")
    for name, value in metrics.snapshot().items():
        print(f"  {name} = {value}")
    dists = metrics.get_registry().gauges()
    if dists:
        print("\ndistributions:")
        for name, d in dists.items():
            print(
                f"  {name}: count={d['count']} mean={d['mean']:.3g} "
                f"p50={d.get('p50', 0.0):.3g} p99={d.get('p99', 0.0):.3g} "
                f"max={d['max']:.3g}"
            )
    return 0


def _cmd_chaos(args) -> int:
    """Conformance runs over seeds: every data path under a fault plan,
    or a journaled service SIGKILLed and recovered; each report is
    byte-checked against a serial replay of the acknowledged ops."""
    import json

    from .conformance import DEFAULT_CONFIG, default_plan, replay, run

    if args.replay:
        with open(args.replay) as f:
            original = json.load(f)
        reports = [replay(original)]
    else:
        # Unset stream flags are left to the driver's DEFAULT_CONFIG.
        config = {
            axis: getattr(args, axis) for axis in DEFAULT_CONFIG
            if getattr(args, axis) is not None
        }
        seeds = range(args.seeds) if args.seed is None else [args.seed]
        reports = []
        for seed in seeds:
            if args.perturbation == "faults":
                pert = default_plan(
                    seed, args.drop, args.corrupt, args.delay,
                    args.crash_node, args.crash_after, args.slow_node,
                    args.slow_factor,
                )
            elif args.perturbation == "sigkill":
                # Odd seeds kill right after an ack, even ones at a time.
                by = "acks" if seed % 2 else "time"
                pert = {"kind": "sigkill", "by": by}
            else:
                pert = "none"
            reports.append(run(config, seed, pert))
    def verdicts(report):
        return {**report.get("paths", {}), **report.get("files", {})}

    for report in reports:
        pert = report["perturbation"]
        print(
            f"[{'OK ' if report['ok'] else 'FAIL'}] seed {report['seed']}: "
            + " ".join(f"{k}={v}" for k, v in pert.items() if k != "plan")
            + (f" killed={report['killed']} acked={report['total_acked']}"
               if "killed" in report else "")
        )
        for name, facts in verdicts(report).items():
            print(f"    {name:<11} "
                  + " ".join(f"{k}={v}" for k, v in facts.items()))
        bb = report.get("blackbox", {})
        if "error" in bb:
            print(f"    blackbox: undecodable ({bb['error']})")
        elif bb:
            print(f"    blackbox: {bb['events']} events ({bb['torn']} torn); "
                  f"last words: {len(bb['in_flight'])} in flight, "
                  f"{len(bb['held_locks'])} held lock(s), "
                  f"{len(bb['commit_in_progress'])} mid-commit")
    if args.replay:
        same = [
            {name: facts["ok"] for name, facts in verdicts(r).items()}
            for r in (original, reports[0])
        ]
        print(f"verdicts as in {args.replay}: {same[0] == same[1]}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(reports, f, indent=2, default=str)
        print(f"\nreports -> {args.json}")
    failing = [r for r in reports if not r["ok"]]
    if failing:
        if not args.replay:
            with open(args.artifact, "w") as f:
                json.dump(failing[0], f, indent=2, default=str)
        print(f"FAILED: seed(s) {[r['seed'] for r in failing]} diverged from "
              f"the serial replay; replay with: python -m repro.tools chaos "
              f"--replay {args.replay or args.artifact}")
        return 1
    print(f"\nall {len(reports)} run(s) equal the serial replay")
    return 0


def _cmd_blackbox(args) -> int:
    """Decode a dead process's flight-recorder ring(s) into a
    post-mortem report — from the mmap ring file alone."""
    import json
    import os

    from .obs.forensics import decode_ring, reconstruct, render_blackbox

    paths = []
    if os.path.isdir(args.ring):
        for entry in sorted(os.listdir(args.ring)):
            paths.append(os.path.join(args.ring, entry))
    else:
        paths.append(args.ring)
    recons = []
    decoded = 0
    for path in paths:
        try:
            dump = decode_ring(path)
        except (OSError, ValueError) as exc:
            if not os.path.isdir(args.ring):
                print(f"error: {exc}", file=sys.stderr)
                return 2
            continue  # a directory scan skips non-ring files quietly
        decoded += 1
        recon = reconstruct(dump, last=args.last)
        recons.append(recon)
        if not args.json:
            print(render_blackbox(recon))
    if decoded == 0:
        print(f"error: no flight rings under {args.ring!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(recons if len(recons) > 1 else recons[0], indent=2))
    return 0


def _parse_tenant_weights(spec, tenants):
    """``"3,1"`` or ``"t0=3,t1=1"`` -> ``{tenant: weight}`` over the
    generated tenant names ``t0..tN-1``."""
    if not spec:
        return {}
    weights = {}
    parts = [p for p in spec.split(",") if p.strip()]
    for i, part in enumerate(parts):
        if "=" in part:
            name, value = part.split("=", 1)
            weights[name.strip()] = float(value)
        else:
            if i >= tenants:
                raise SystemExit(
                    f"--tenant-weights lists {len(parts)} weights for "
                    f"{tenants} tenants"
                )
            weights[f"t{i}"] = float(part)
    for w in weights.values():
        if w <= 0:
            raise SystemExit("--tenant-weights must be > 0")
    return weights


def _cmd_serve(args) -> int:
    """Load driver for the concurrent file service: a mixed workload of
    threaded clients, spread over a namespace of files and a set of
    weighted tenants, against one deployment — reported as JSON."""
    import json
    import threading
    import time

    import numpy as np

    from .clusterfile.fs import Clusterfile
    from .distributions import round_robin
    from .namespace import ClusterNamespace
    from .obs import flightrec, metrics
    from .obs.live import StatsServer, TelemetrySampler
    from .obs.slo import SloObjective, SloTracker
    from .service import FileService, request_timeline

    metrics.reset_metrics("service")
    metrics.reset_metrics("engine")
    metrics.reset_metrics("namespace")
    if args.flightrec:
        flightrec.arm(args.flightrec)
        print(f"flight recorder armed -> {args.flightrec}", file=sys.stderr)
    nprocs = args.nprocs
    if args.files < 1:
        raise SystemExit("--files must be >= 1")
    if args.tenants < 1:
        raise SystemExit("--tenants must be >= 1")
    fs = Clusterfile(workers_mode=args.mode, workers=args.io_processes)
    cns = ClusterNamespace(fs)
    paths = [f"/load/f{j}" for j in range(args.files)]
    for path in paths:
        cns.create(path, round_robin(nprocs, args.chunk), parents=True)
        for node in range(nprocs):
            cns.set_view(path, node, round_robin(nprocs, args.chunk))
    tenant_names = [f"t{j}" for j in range(args.tenants)]
    tenant_weights = _parse_tenant_weights(args.tenant_weights, args.tenants)

    slo = None
    if args.slo:
        slo = SloTracker([SloObjective.parse(s) for s in args.slo])

    sampler = None
    stats = None
    if args.stats_port is not None:
        sampler = TelemetrySampler(
            interval_s=args.sample_interval, slo=slo
        ).start()
        stats = StatsServer(
            port=args.stats_port, sampler=sampler, slo=slo
        ).start()
        print(
            f"stats endpoint: {stats.url}/metrics  {stats.url}/stats",
            file=sys.stderr,
        )

    sample: dict = {}

    def client(i, svc):
        rng = np.random.default_rng(args.seed + i)
        tenant = tenant_names[i % len(tenant_names)]
        for k in range(args.ops):
            path = paths[int(rng.integers(len(paths)))]
            node = int(rng.integers(nprocs))
            off = int(rng.integers(0, 4 * args.chunk))
            if rng.random() < args.write_fraction:
                data = rng.integers(
                    0, 256, int(rng.integers(1, args.chunk + 1)), np.uint8
                )
                tk = svc.submit_write(path, node, off, data, tenant=tenant)
            else:
                tk = svc.submit_read(
                    path,
                    node,
                    off,
                    int(rng.integers(1, args.chunk + 1)),
                    tenant=tenant,
                )
            if i == 0 and k == 0:
                sample["ticket"] = tk

    started = time.perf_counter()
    with FileService(
        fs,
        workers=args.workers,
        max_queue=args.max_queue,
        admission="park",
        max_batch=args.max_batch,
        batch_window_s=args.batch_window,
        namespace=cns,
        tenant_weights=tenant_weights,
        tenant_quota=args.tenant_quota,
    ) as svc:
        threads = [
            threading.Thread(target=client, args=(i, svc))
            for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        svc.drain()
    elapsed = time.perf_counter() - started

    if stats is not None and args.linger > 0:
        print(
            f"lingering {args.linger}s for scrapes at {stats.url}",
            file=sys.stderr,
        )
        time.sleep(args.linger)
    series = sampler.stop() if sampler is not None else None
    if stats is not None:
        stats.close()
    if args.mode == "process":
        fs.close()  # shut the worker pool down; unlink shared memory

    total = args.clients * args.ops
    report = {
        "clients": args.clients,
        "workers": args.workers,
        "max_batch": args.max_batch,
        "files": args.files,
        "tenants": args.tenants,
        "tenant_weights": tenant_weights or None,
        "namespace": cns.stats(),
        "operations": total,
        "elapsed_s": elapsed,
        "ops_per_s": total / elapsed if elapsed else None,
        "counters": metrics.snapshot("service"),
        "gauges": metrics.get_registry().gauges("service"),
        "exemplars": {
            name: h.exemplars()
            for name, h in metrics.get_registry().histograms().items()
            if h.exemplars()
        },
        # One request reconstructed end to end across threads — the
        # trace-context propagation demonstrated on real load.
        "example_timeline": (
            request_timeline(sample["ticket"]) if "ticket" in sample else None
        ),
    }
    if series is not None:
        report["telemetry"] = {"samples": len(series), "series": series[-64:]}
    if slo is not None:
        slo.tick(force=True)
        report["slo"] = slo.payload()
    rec = flightrec.disarm()
    if rec is not None:
        report["flightrec"] = {"path": rec.path, "events": rec.events}
    print(json.dumps(report, indent=2))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"report -> {args.json}", file=sys.stderr)
    return 0


def _cmd_figure3(_args) -> int:
    p = Partition(
        [Falls(0, 1, 6, 1), Falls(2, 3, 6, 1), Falls(4, 5, 6, 1)],
        displacement=2,
    )
    print(render_partition(p, length=26))
    return 0


def _add_mode_flags(sub, io_processes: bool = True) -> None:
    """The execution-mode knobs shared by trace/chaos/serve."""
    sub.add_argument(
        "--mode", choices=["thread", "process"], default="thread",
        help="I/O-node execution mode: in-process threads or a "
        "shared-memory worker-process pool",
    )
    if io_processes:
        sub.add_argument(
            "--io-processes", type=int, default=4,
            help="worker processes in --mode process (default 4)",
        )


def main(argv=None) -> int:
    """Entry point for ``python -m repro.tools``."""
    parser = argparse.ArgumentParser(prog="python -m repro.tools")
    sub = parser.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("render", help="draw a matrix layout")
    pr.add_argument("layout", choices=["r", "c", "b"])
    pr.add_argument("rows", type=int)
    pr.add_argument("cols", type=int)
    pr.add_argument("nprocs", type=int)
    pr.add_argument("--width", type=int, default=128)
    pr.set_defaults(fn=_cmd_render)

    pm = sub.add_parser("match", help="matching-degree report")
    pm.add_argument("src", choices=["r", "c", "b"])
    pm.add_argument("dst", choices=["r", "c", "b"])
    pm.add_argument("n", type=int)
    pm.add_argument("nprocs", type=int)
    pm.set_defaults(fn=_cmd_match)

    pp = sub.add_parser("plan", help="print a redistribution schedule")
    pp.add_argument("src", choices=["r", "c", "b"])
    pp.add_argument("dst", choices=["r", "c", "b"])
    pp.add_argument("n", type=int)
    pp.add_argument("nprocs", type=int)
    pp.set_defaults(fn=_cmd_plan)

    pt = sub.add_parser(
        "trace", help="trace a parallel write + read end to end"
    )
    pt.add_argument("logical", choices=["r", "c", "b"])
    pt.add_argument("physical", choices=["r", "c", "b"])
    pt.add_argument("n", type=int)
    pt.add_argument("nprocs", type=int)
    pt.add_argument("--json", help="write the nested JSON trace here")
    pt.add_argument(
        "--chrome", help="write a chrome://tracing / Perfetto file here"
    )
    _add_mode_flags(pt)
    pt.set_defaults(fn=_cmd_trace)

    pc = sub.add_parser(
        "chaos", help="seeded conformance runs: message faults or SIGKILL"
    )
    pc.add_argument(
        "--seeds", type=int, default=3, help="run seeds 0..N-1 (default 3)"
    )
    pc.add_argument(
        "--seed", type=int, default=None, help="run one specific seed"
    )
    pc.add_argument(
        "--perturbation", choices=["none", "faults", "sigkill"],
        default="faults",
        help="message faults in process, or SIGKILL a journaled service "
        "subprocess and recover it (default faults)",
    )
    pc.add_argument("--ops", type=int, help="ops in the stream")
    pc.add_argument("--files", type=int, help="files in the stream")
    pc.add_argument("--nprocs", type=int)
    pc.add_argument("--replication", type=int)
    pc.add_argument(
        "--snapshot-every", type=int,
        help="a checkpoint boundary every N ops (0: never)",
    )
    pc.add_argument(
        "--views", choices=["disjoint", "shared"],
        help="each node views its own element (disjoint, the default) or "
        "the whole file, so one write call's requests overlap (shared)",
    )
    pc.add_argument("--drop", type=float, default=0.05)
    pc.add_argument("--corrupt", type=float, default=0.05)
    pc.add_argument("--delay", type=float, default=0.0)
    pc.add_argument("--crash-node", type=int, default=None)
    pc.add_argument("--crash-after", type=int, default=0)
    pc.add_argument("--slow-node", type=int, default=None)
    pc.add_argument("--slow-factor", type=float, default=1.0)
    pc.add_argument("--json", help="write the reports here")
    pc.add_argument(
        "--artifact", default="chaos-failing-run.json",
        help="where a failing run's report is written for --replay",
    )
    pc.add_argument(
        "--replay", metavar="FILE",
        help="re-run a failing-run artifact (its config, seed and "
        "perturbation)",
    )
    _add_mode_flags(pc, io_processes=False)
    pc.set_defaults(fn=_cmd_chaos)

    ps = sub.add_parser(
        "serve", help="drive the concurrent file service with load"
    )
    ps.add_argument("--clients", type=int, default=8, help="client threads")
    ps.add_argument("--workers", type=int, default=4, help="service workers")
    ps.add_argument("--ops", type=int, default=50, help="operations/client")
    ps.add_argument("--nprocs", type=int, default=4)
    ps.add_argument("--chunk", type=int, default=64, help="striping unit")
    ps.add_argument("--max-queue", type=int, default=64)
    ps.add_argument("--max-batch", type=int, default=8)
    ps.add_argument(
        "--batch-window", type=float, default=0.0,
        help="seconds to linger for batch stragglers",
    )
    ps.add_argument(
        "--write-fraction", type=float, default=0.7,
        help="fraction of operations that are writes",
    )
    ps.add_argument(
        "--files", type=int, default=1,
        help="independent files in the namespace (default 1)",
    )
    ps.add_argument(
        "--tenants", type=int, default=1,
        help="tenants; client i submits as t(i %% tenants) (default 1)",
    )
    ps.add_argument(
        "--tenant-weights", default=None,
        help="WFQ weights: '3,1' (t0,t1 in order) or 't0=3,t1=1'",
    )
    ps.add_argument(
        "--tenant-quota", type=int, default=None,
        help="per-tenant cap on queued operations (default: max-queue)",
    )
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--json", help="also write the report here")
    ps.add_argument(
        "--stats-port", type=int, default=None,
        help="serve /metrics and /stats on this port (0 = ephemeral)",
    )
    ps.add_argument(
        "--sample-interval", type=float, default=0.25,
        help="telemetry sampler period in seconds",
    )
    ps.add_argument(
        "--linger", type=float, default=0.0,
        help="keep the stats endpoint up this long after the workload",
    )
    ps.add_argument(
        "--slo", action="append", default=None, metavar="T=THRESH@TARGET",
        help="per-tenant latency SLO, e.g. 't0=0.05@0.99' (99%% of t0's "
        "requests under 50 ms); repeatable. Adds burn-rate gauges to "
        "/metrics and an slo/alerts section to /stats",
    )
    ps.add_argument(
        "--flightrec", default=None, metavar="PATH",
        help="arm the crash-surviving flight recorder on this ring file "
        "(decode later with 'blackbox PATH')",
    )
    _add_mode_flags(ps)
    ps.set_defaults(fn=_cmd_serve)

    pb = sub.add_parser(
        "blackbox",
        help="decode a dead process's flight-recorder ring into a "
        "post-mortem timeline",
    )
    pb.add_argument(
        "ring",
        help="a flight ring file, or a directory to scan for rings",
    )
    pb.add_argument(
        "--last", type=int, default=32,
        help="timeline length: the final N events (default 32)",
    )
    pb.add_argument(
        "--json", action="store_true",
        help="emit the reconstruction as JSON instead of text",
    )
    pb.set_defaults(fn=_cmd_blackbox)

    pf = sub.add_parser("figure3", help="draw the paper's figure 3")
    pf.set_defaults(fn=_cmd_figure3)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
