"""Benchmark of sepk: one workload per run, one thread, closed loop.

    python3 perfbench/run.py --workload tame-tower --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program under test is imported from
src/.  The run sets up the workload five times, each time building its
inputs and making one warm-up pass over its ops, and reports the median; then
it measures a fixed number of passes sized to --seconds.  Each op is issued
only after the previous one returned, runs under a timeout, and has its output
checked after the clock stops.  An op's latency is its fastest time over the
measured passes, which filters out the slow spells a shared machine goes
through; wall_s sums them.  A fixed pure-Python probe is timed before each
pass, and every end-to-end time is scaled by the probe's reference time over
its 5th-percentile time in the run, so that a host running slower for
minutes on end does not read as a slower program.

The report lines come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured untraced.  With --trace 1 they are the per-layer
ones, from traced passes alternated with untraced ones.  NOTES.md defines
every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 140.0  # no op starts later than this into the run
MEASURE_CAP = 1.5  # measured passes stop after this many times --seconds
SETUP_REPEATS = 5
PROBE_REPS = 8  # host probes before each measured pass
PROBE_REF_S = 1.9e-3  # host_probe()'s 5th-percentile time on the reference host (NOTES.md)
HASH_SEED = "0"
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def load_sepk() -> None:
    """Import sepk from this checkout's src/, and from nowhere else."""
    pkg = ROOT / "src" / "sepk"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no sepk sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import sepk

    if Path(sepk.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: sepk was imported from {sepk.__file__}, not {pkg}")


@dataclass
class PassResult:
    times: list[float | None] = field(default_factory=list)  # per op; None if it failed
    failures: list[tuple[str, str]] = field(default_factory=list)  # (op, kind)


def run_pass(
    workload, references, deadline: float, tracer=None, timeout: float = OP_TIMEOUT_S
) -> PassResult:
    """Run each op once, in order; time it, then check its result."""
    from workloads import CliResult, check  # late: importing it imports sepk

    signal.signal(signal.SIGALRM, _on_alarm)
    res = PassResult()
    for op in workload.ops:
        if time.perf_counter() > deadline:
            break
        result = failure = None
        if tracer is not None:
            tracer.begin_op()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        t0 = time.perf_counter()
        try:
            try:
                result = op.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            failure = "timeout"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failure = f"exception-{type(exc).__name__}"
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(dt)
            if isinstance(result, CliResult):
                tracer.add("cli.stdout_mb", len(result.stdout.encode("utf-8")) / 1e6)
        if failure is None:
            failure = check(op, result, references)
        res.times.append(dt if failure is None else None)
        if failure is not None:
            res.failures.append((op.name, failure))
    return res


def best_times(passes: list[PassResult]) -> list[float]:
    """Each op's fastest successful time over the passes."""
    per_op: dict[int, float] = {}
    for p in passes:
        for i, t in enumerate(p.times):
            if t is not None:
                per_op[i] = min(t, per_op.get(i, t))
    return list(per_op.values())


def tail_latency(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 10 if n > 10 else n  # 1-based rank; n - k samples lie above it
    return ordered[k - 1], 100.0 * k / n


def host_probe() -> float:
    """Time a fixed piece of pure-Python work that calls nothing in sepk.

    It mixes what sepk's layers spend their time on: string-keyed dicts,
    name formatting and escaping, sorting, and integer row operations.
    """
    t0 = time.perf_counter()
    names = {}
    for i in range(3000):
        key = f"v|a{i},b{i % 7}"
        names[key] = (i, key.replace(",", "\\,"))
    ordered = sorted(names, key=len)
    row, pivot = list(range(1, 300)), list(range(300, 1, -1))
    for _ in range(20):
        row = [(a * 3 - b) % 1000003 for a, b in zip(row, pivot)]
    return time.perf_counter() - t0


def host_scale(probes: list[float]) -> float:
    """How much faster the reference host ran than this one during the probes.

    The probes' 5th percentile stands for the host's speed: their minimum
    catches moments too brief for an op of 0.3 s to run through whole.
    """
    return PROBE_REF_S / statistics.quantiles(probes, n=20, method="inclusive")[0]


def measure(
    workload, references, passes: int, deadline: float, probes: list[float]
) -> list[PassResult]:
    """Run the passes, timing PROBE_REPS host probes before each one.

    No pass starts after the deadline, so a host running very slowly gives
    fewer passes rather than a run that overstays its time.
    """
    results = []
    for _ in range(passes):
        if results and time.perf_counter() > deadline:
            break
        gc.collect()
        probes += [host_probe() for _ in range(PROBE_REPS)]
        results.append(run_pass(workload, references, deadline))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    load_sepk()
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    os.environ.pop("SEPK_BUDGET", None)  # the ops run at the default budget

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        references = workloads.load_references(args.workload)
        setup_times, warm = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            warm.append(run_pass(workload, references, deadline))
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        print(f"setup_s: import {import_s:.4g} s + median of set-ups "
              + ", ".join(f"{t:.4g}" for t in setup_times) + " s (unscaled)")
        passes = max(1, round(args.seconds / workload.pass_s))
        deadline = min(deadline, time.perf_counter() + MEASURE_CAP * args.seconds)

        if args.trace:
            tracer = tracing.Tracer()
            for g, layer in workload.layers:
                tracer.set_layer(g, layer)
            untraced, traced = [], []
            for _ in range(max(1, round(passes / 2))):
                if untraced and time.perf_counter() > deadline:
                    break
                untraced += measure(workload, references, 1, deadline, [])
                gc.collect()
                with tracer.installed():
                    traced.append(run_pass(workload, references, deadline, tracer))
            runs = [*warm, *untraced, *traced]
            base = sum(best_times(untraced))
            overhead = sum(best_times(traced)) / base - 1 if base else 0.0
            values = tracer.metrics(len(traced), overhead)
            units = dict(tracing.METRICS)
            shares = tracer.layer_shares()
            print(f"{args.workload}: {len(traced)} traced and {len(untraced)} untraced passes"
                  f" of {len(workload.ops)} ops")
            print("self-time shares: " + ", ".join(
                f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1]))
                + f"; largest layer: {max(tracing.LAYERS, key=shares.get)}")
        else:
            probes: list[float] = []
            timed = measure(workload, references, passes, deadline, probes)
            runs = [*warm, *timed]
            best = best_times(timed) or [0.0]  # no op succeeded: zeros, and correct is false
            tail, pct = tail_latency(best)
            scale = host_scale(probes)
            raw = {
                "wall_s": sum(best),
                "op_p50_ms": statistics.median(best) * 1e3,
                "op_tail_ms": tail * 1e3,
                "setup_s": setup_s,
            }
            values = {name: v * scale for name, v in raw.items()}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
            print(f"{args.workload}: {len(timed)} passes of {len(workload.ops)} ops;"
                  f" latencies are each op's best of {len(timed)}")
            print(f"op_tail_ms is p{pct:.2f} of {len(best)} op latencies")
            print(f"host speed: probe p5 {PROBE_REF_S / scale * 1e3:.4g} ms of {len(probes)};"
                  f" times below are scaled by"
                  f" {scale:.4g}, unscaled: " + ", ".join(
                      f"{name} {v:.6g} {units[name]}" for name, v in raw.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in runs)
    failures = [f for p in runs for f in p.failures]
    for name, kind in failures:
        print(f"failed op: {name}: {kind}")
    print(f"failed_ratio {len(failures) / max(attempted, 1):.6g} ({len(failures)} of {attempted}"
          " ops, warm-up included)")
    for name, value in values.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes, and with them dict and set layouts, are randomised per
        # process; that alone moves these timings by several percent between
        # runs.  Restart once with a fixed seed (same process, no child).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
