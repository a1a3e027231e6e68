"""Self-test of the benchmark on tiny sizes: ``python3 benchmarks/run.py --smoke``.

Runs every workload at a tiny size, untraced and traced, and checks the
result schema against ``BENCHMARK.json``.  Then checks that the harness
catches what it must: a time-out, broken outputs, a reference mismatch, a
trace that missed calls and a trace whose time sits in spans without a
metric.  Takes seconds; exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math

import run
import workloads as wl

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units the result must carry, as BENCHMARK.json declares."""
    ours = dict(run.PER_LAYER) if trace else dict(run.END_TO_END)
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return ours
    spec = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != ours:
        raise AssertionError(f"BENCHMARK.json declares {declared}, run.py reports {ours}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.py")
    return declared


def schema_problems(result: dict, trace: bool) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append("result not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')!r}")
    want = declared_metrics(trace)
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name} = {value!r}")
        if metric.get("unit") != want.get(name):
            problems.append(f"{name} unit {metric.get('unit')!r}")
    if not trace:
        for name, metric in metrics.items():
            if metric["value"] <= 0:
                problems.append(f"end-to-end metric {name} is {metric['value']}")
    return problems


def negative_problems() -> list[str]:
    """The harness must flag each of these; a returned string is a miss."""
    misses = []
    h2 = wl.SMOKE_WORKLOADS["simulate-h2"]
    run_dir = run.WORK / "smoke-negative"
    inputs = wl.make_inputs(h2, 0, run.ROOT, run_dir / "inputs")
    outdir = run_dir / "out"
    job = {"src": str(run.SRC), "inputs": inputs, "spans": str(run_dir / "spans.json"),
           "mode": "plain", "argv": wl.cli_argv(h2, inputs, outdir)}

    record = run.run_operation(job, run_dir / "timeout", time_limit=0.05)
    if record["failure"] != "timeout":
        misses.append(f"time limit not enforced: {record['failure']!r}")

    record = run.run_operation(dict(job, argv=["simulate"]), run_dir / "bad-args", 30.0)
    if record["ok"]:
        misses.append("a CLI exit code other than 0 was not counted as a failure")

    record = run.run_operation(job, run_dir / "good", 30.0)
    context = wl.check_context(h2, 0, inputs, smoke=True)
    if not record["ok"] or wl.check_outputs(h2, outdir, context):
        misses.append(f"a good run failed: {record['failure']}")
        return misses
    errors = wl.simulate_errors(outdir)
    reference = {"seed": 0, "errors": {v: {repr(t): e * (1 + 1e-3) for t, e in by.items()}
                                       for v, by in errors.items()}}
    if not wl.check_outputs(h2, outdir, dict(context, reference=reference)):
        misses.append("a reference mismatch of 1e-3 was not caught")

    table = outdir / "error_scaling.csv"
    swapped = table.read_text().replace("basic", "tmp").replace(
        "improved", "basic").replace("tmp", "improved")
    table.write_text(swapped)
    if not wl.check_outputs(h2, outdir, context):
        misses.append("improved errors above basic were not caught")

    summary = {"calls": {}, "self_s": {"cli.main": 1.0}, "counts": {}}
    if not run.trace_problems(h2, summary, wall_s=2.0):
        misses.append("a trace missing calls and time was not caught")

    complete = {
        "calls": {"algorithm.step": h2.trotter_steps, "algorithm.evolve": h2.engines,
                  "hamiltonian.build_many_body_operator": h2.engines},
        "self_s": {"cli.main": 2.0},
        "counts": {"algorithm.compile.columns": h2.compile_columns},
    }
    if run.trace_problems(h2, complete, wall_s=2.0):
        misses.append("a complete trace was flagged")
    unreported = dict(complete, self_s={"cli.main": 1.0, "cli.build_parser": 1.0})
    if not run.trace_problems(h2, unreported, wall_s=2.0):
        misses.append("time in spans without a metric was not caught")
    return misses


def main() -> int:
    failures = []
    for name, workload in wl.SMOKE_WORKLOADS.items():
        for trace in (False, True):
            result, detail = run.run_benchmark(
                workload, seed=0, seconds=0.0, trace=trace, smoke=True,
                setup_samples=1, log=lambda _line: None,
            )
            problems = schema_problems(result, trace) + detail["failures"]
            status = "ok" if not problems else "FAIL " + "; ".join(map(str, problems))
            print(f"smoke {name} trace={int(trace)}: {status}")
            failures += problems
    misses = negative_problems()
    print("smoke negative checks: " + ("ok" if not misses else "FAIL " + "; ".join(misses)))
    failures += misses
    print(json.dumps({"smoke": "pass" if not failures else "fail",
                      "problems": len(failures)}))
    return 0 if not failures else 1
