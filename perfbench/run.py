#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the simulator from this checkout's sources (perfbench/CMakeLists.txt,
into .bench_build/ or $CARGO_TARGET_DIR), then runs the workload repeatedly,
each repetition in a fresh process (so each peak-RSS figure is its own),
until --seconds have passed. It checks every output, prints a readable
report, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the repetitions);
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones. perfbench/README.md defines every
metric and says which end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("stencil-scale", "serve-incast", "cholesky-variants",
             "stencil-recover")
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# The whole run must end within 180 s; no single repetition may take more.
RUN_DEADLINE_S = 170.0

# End-to-end metrics reported in the JSON line, with units (BENCHMARK.json).
E2E = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "virt_ms": "ms",
}
# Per-layer metrics reported in the JSON line, with units (BENCHMARK.json).
# Every one is defined on every workload; a count or ratio may read 0 where
# its layer does no work (ft.* outside stencil-recover must).
PER_LAYER = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.self_s": "s",
    "sim.rank_exec_s": "s",
    "sim.event_queue_hw": "count",
    "sim.blocked_frac": "ratio",
    "sim.run_rss_kib_per_rank": "KiB",
    "net.transfer_s": "s",
    "net.ops": "count",
    "net.bytes": "B",
    "net.credit_stalls": "count",
    "net.retries": "count",
    "core.match_s": "s",
    "core.tests": "count",
    "core.matches": "count",
    "core.match_ratio": "ratio",
    "core.uq_inserts": "count",
    "core.uq_depth_hw": "count",
    "core.hw_drained": "count",
    "core.test_ns": "ns",
    "core.world_rss_kib_per_rank": "KiB",
    "rma.puts": "count",
    "rma.atomics": "count",
    "rma.flushes": "count",
    "rma.flush_wait_us": "us",
    "mp.sends_eager": "count",
    "mp.sends_rdzv": "count",
    "mp.recvs": "count",
    "mp.unexpected_depth_hw": "count",
    "obs.registry_bytes": "B",
    "ft.ckpts": "count",
    "ft.ckpt_bytes": "B",
    "ft.replay_applied": "count",
    "ft.replay_dupes": "count",
    "ft.dupe_ratio": "ratio",
    "apps.compute_s": "s",
    "bench.requests": "count",
    "bench.late_frac": "ratio",
    "bench.backlog_ratio": "ratio",
    "bench.unattributed_frac": "ratio",
    "bench.trace_overhead": "ratio",
}
# Workload-specific results, printed in the report only: each exists on one
# workload, and the JSON line carries only metrics every workload has.
REPORT_ONLY = {
    "run_cpu_s": "s", "run_wall_s": "s", "setup_cpu_s": "s",
    "slowdown": "ratio",
    "virt_ms.mp": "ms", "virt_ms.os": "ms", "virt_ms.na": "ms",
    "req_p50_us": "us", "req_p99_us": "us", "req_p999_us": "us",
    "slo_miss_frac": "ratio", "recovery_us": "us",
}
LAYER_REPORT_ONLY = {
    "net.chan_queue_us_p99": "us", "obs.self_s": "s",
    "core.put_notify_ns": "ns", "core.test_span_ns": "ns",
    "bench.gen_lag_us_p99": "us", "rma.win_allocate_s": "s",
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_environment():
    """World reads NARMA_* variables at construction (NARMA_EXEC,
    NARMA_EVENT_QUEUE, NARMA_TRANSPORT, NARMA_OBS*, NARMA_FAULT_*,
    NARMA_FT_*, NARMA_OVERFLOW, NARMA_STACK_KB, NARMA_CRASH_DIR, ...). Any of
    them would silently change the configuration being measured; the
    threads executor would also start one OS thread per simulated rank."""
    for name in sorted(os.environ):
        if name.startswith("NARMA_"):
            fail(f"refusing to run: {name} is set; it changes the simulated "
                 "configuration. Unset it and run again.")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}; run from a "
             "full checkout of the repository")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if target.is_absolute() or ".." in target.parts:
        target = Path(".bench_build")
    build_dir = ROOT / target / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})", 1)
    return build_dir


def run_once(binary, workload, seed, traced, spans, budget_s):
    """One repetition in a fresh process. Returns (planned checks, result
    dict or None, diagnostic)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--trace", "--spans", str(spans)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, cwd=ROOT, timeout=max(1.0, budget_s))
        out, err, code = p.stdout, p.stderr, p.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        err, code = "timed out", None
    planned, result = None, None
    for line in out.splitlines():
        if line.startswith("PLAN "):
            planned = int(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if code != 0 or result is None:
        why = err.strip().splitlines()[-3:] if err.strip() else []
        return planned or 1, None, f"exit {code}: " + " | ".join(why)
    return planned, result, ""


def median(xs):
    return statistics.median(xs) if xs else 0.0


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_all(args):
    """--workload all: each workload in turn, as its own run.py process.
    The last line sums the checks and names metrics <workload>/<metric>."""
    attempted = failed = 0
    metrics = {}
    for w in WORKLOADS:
        p = subprocess.run([sys.executable, __file__, "--workload", w,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            fail(f"{w} exited with {p.returncode}", 1)
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}/{m}": v for m, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    check_environment()
    build_dir = build()
    if args.workload == "all":
        return run_all(args)
    binary = build_dir / "narma_perfbench"
    spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.tsv"
    spans.parent.mkdir(exist_ok=True)

    start = time.monotonic()
    attempted = failed = 0
    crashes = []
    untraced, traced = [], []
    failures = []
    rep = 0
    while True:
        elapsed = time.monotonic() - start
        done = len(untraced) + len(crashes)
        # Untraced: at least three repetitions, so setup_s is a median of
        # three or more cold set-ups.
        enough = (done >= 1 and len(traced) >= 1) if args.trace else done >= 3
        if elapsed >= args.seconds and enough:
            break
        if elapsed >= RUN_DEADLINE_S * 0.6 and (untraced or traced or crashes):
            break  # stay well inside the 180 s limit on a slow machine
        want_trace = bool(args.trace) and rep % 2 == 0
        planned, res, diag = run_once(binary, args.workload, args.seed,
                                      want_trace, spans,
                                      RUN_DEADLINE_S - elapsed)
        rep += 1
        attempted += planned
        if res is None:
            # A crash (including the default fatal overflow policy's abort)
            # fails every check the repetition planned.
            failed += planned
            crashes.append(diag)
            continue
        attempted += res["checks"] - planned
        failed += res["failed"]
        failures += res["failures"]
        (traced if res["traced"] else untraced).append(res)

    # Traced repetitions must attribute at least 90% of profiled host time
    # to a phase, or their per-layer split is not trustworthy.
    for r in traced:
        attempted += 1
        if r["layers"]["bench.unattributed_frac"] > 0.10:
            failed += 1
            failures.append("profiler attributed less than 90% of host time")

    # Determinism guard: same seed, so every repetition — traced or not —
    # must reproduce the same virtual-time outputs bit for bit.
    digests = {r["digest"] for r in untraced + traced}
    attempted += 1
    if len(digests) > 1:
        failed += 1
        failures.append(f"virtual-time digests differ across repetitions: "
                        f"{sorted(digests)}")

    base = (untraced or traced or [None])[0]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(untraced)} untraced, {len(traced)} "
          f"traced repetitions, {len(crashes)} crashed, "
          f"{time.monotonic() - start:.1f} s")
    for c in crashes:
        print(f"  crashed repetition: {c}")
    for f in failures[:10]:
        print(f"  failed check: {f}")
    if base:
        print(f"  inputs: {json.dumps(base['extra'].get('ranks'))} ranks, "
              f"digest {base['digest']}")

    e2e = {}
    if untraced:
        # run_s and setup_s are CPU times divided by the speed probe's
        # slowdown, so a host that runs slower for a while moves them less
        # than wall time (perfbench/README.md, "Host time").
        for name in ("run_s", "setup_s", "run_cpu_s", "run_wall_s",
                     "setup_cpu_s", "slowdown"):
            e2e[name] = median([r[name] for r in untraced])
        e2e["peak_rss_mib"] = median([r["peak_rss_mib"] for r in untraced])
        e2e["virt_ms"] = untraced[0]["virt"]["virt_ms"]
    fail_frac = failed / attempted if attempted else 1.0
    print("  end-to-end (medians over untraced repetitions; virtual times "
          "are deterministic per seed):")
    for name, unit in {**E2E, **REPORT_ONLY}.items():
        v = e2e.get(name, base["virt"].get(name) if base else None)
        print(f"    {name:<16} {fmt(v) if v is not None else 'n/a':>14} {unit}")
    print(f"    {'fail_frac':<16} {fmt(fail_frac):>14} ratio "
          f"({failed} of {attempted} checks)")
    if base and args.workload == "serve-incast":
        x = base["extra"]
        print(f"    requests {int(x['bench.requests'])}, latency samples "
              f"{int(x['latency_samples'])}, SLO p99 limit {x['slo_us']} us, "
              f"server busy share {x['bench.server_busy_frac']:.3f}")
        print("  traffic mix (an assumption; see perfbench/README.md):")
        for name in sorted(k for k in x if k.startswith("mix.")):
            print(f"    {name:<28} {fmt(x[name]):>14}")

    metrics = {}
    if args.trace:
        layers = {}
        if traced:
            for name in {**PER_LAYER, **LAYER_REPORT_ONLY}:
                if name == "bench.trace_overhead":
                    continue
                # Serve-incast validity numbers travel in "extra"; other
                # workloads have none and report 0 in the JSON line, or
                # n/a in the report.
                vals = [r["layers"].get(name, r["extra"].get(name))
                        for r in traced]
                vals = [v for v in vals if v is not None]
                if vals or name in PER_LAYER:
                    layers[name] = median(vals)
            tw = median([r["run_cpu_s"] for r in traced])
            uw = median([r["run_cpu_s"] for r in untraced])
            layers["bench.trace_overhead"] = tw / uw - 1.0 if uw > 0 else 0.0
        print("  per-layer (medians over traced repetitions):")
        for name, unit in {**PER_LAYER, **LAYER_REPORT_ONLY}.items():
            v = layers.get(name)
            print(f"    {name:<28} {fmt(v) if v is not None else 'n/a':>14} "
                  f"{unit}")
        if traced:
            print("  bench spans (first traced repetition): calls, mean host "
                  "ns of non-blocking calls, virtual wait of blocking ones:")
            for name, v in traced[0]["spans"].items():
                print(f"    {name:<28} {fmt(v):>14}")
            print(f"  spans: {spans}")
            metrics = {n: {"value": layers[n], "unit": u}
                       for n, u in PER_LAYER.items()}
    elif untraced:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in E2E.items()}

    if not metrics:
        # Nothing ran to completion: every metric is missing. Report the
        # failure rather than a partial result.
        failed = max(failed, 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
