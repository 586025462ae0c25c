"""Self-test of the benchmark itself (not of sepk).

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes about a minute.  It checks that:

1. every metric a run prints is declared in BENCHMARK.json with the same
   unit, and every declared metric is printed, for each workload with
   tracing off and on;
2. a corrupted reference digest is reported as a failed op, not a crash,
   and so is an op that overruns its timeout;
3. a traced pass puts back every wrapped sepk function as the identical
   original object;
4. each CLI op's stdout is byte-identical traced and untraced.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import ROOT, load_sepk, run_pass


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared[trace], (workload, trace, printed)
            for m in result["metrics"].values():
                assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics as declared")


def check_failures_are_counted(workloads, references) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        wl = workloads.tame_tower(0, Path(tmp))
    cheap = dataclasses.replace(wl, ops=wl.ops[:1])
    bad = dict(references, **{cheap.ops[0].name: "0" * 64})
    res = run_pass(cheap, bad, deadline=time.perf_counter() + 60)
    assert res.failures == [(cheap.ops[0].name, "digest")], res.failures
    big = next(op for op in wl.ops if op.name == "k0-tame E(2,6) d2")
    t0 = time.perf_counter()
    res = run_pass(dataclasses.replace(wl, ops=(big,)), references,
                   deadline=t0 + 60, timeout=0.05)
    assert res.failures == [(big.name, "timeout")] and res.times == [None], res.failures
    assert time.perf_counter() - t0 < 1.0, "the timeout did not stop the op"
    print("ok  a corrupted digest and a timeout are each one failed op")


def _namespace_snapshot():
    import sepk.graph_model
    import sepk.ktheory

    snap = {}
    for name, mod in sys.modules.items():
        if name == "sepk" or name.startswith("sepk."):
            snap.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (sepk.graph_model.SeparatedGraph, sepk.ktheory.IncidencePair):
        snap.update({(cls.__qualname__, attr): v for attr, v in vars(cls).items()})
    return snap


def check_restore_and_identical_stdout(workloads, tracing) -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        ops = list(workloads.tame_tower(0, Path(tmp)).ops)
        ops += workloads.layer_kgroups(0, Path(tmp)).ops
        untraced = [op.call().stdout for op in ops]
        before = _namespace_snapshot()
        tracer = tracing.Tracer()
        traced = []
        with tracer.installed():
            during = _namespace_snapshot()
            for op in ops:
                tracer.begin_op()
                traced.append(op.call().stdout)
                tracer.end_op(0.0)
    wrapped = [key for key, value in before.items() if during[key] is not value]
    restored = _namespace_snapshot()
    assert restored.keys() == before.keys()
    assert all(restored[key] is value for key, value in before.items())
    assert len(wrapped) >= sum(map(len, tracing.WRAPPED.values())), len(wrapped)
    assert tracer.spans, "the traced pass recorded no span"
    print(f"ok  {len(wrapped)} wrapped names restored to the identical objects")
    for op, a, b in zip(ops, untraced, traced):
        assert a == b, f"{op.name}: traced stdout differs"
    print(f"ok  stdout of {len(ops)} CLI ops is byte-identical traced and untraced")


def main() -> int:
    load_sepk()
    import tracer as tracing
    import workloads

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    check_printed_metrics()
    check_failures_are_counted(workloads, workloads.load_references("tame-tower"))
    check_restore_and_identical_stdout(workloads, tracing)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
