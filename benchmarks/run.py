#!/usr/bin/env python3
"""Benchmark of the isothc batch CLI: time to solution, set-up, memory, step rate.

Usage, from the repository root::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Each operation is one ``isothc.cli.main`` invocation in a fresh interpreter
(``worker.py``) on inputs generated from ``--seed`` (see ``workloads.py``).
Operations repeat, closed loop, one at a time, while another one would
still end less than half an operation past ``--seconds``; every metric is
the median over the operations of the run.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: wall time of the CLI invocation after set-up.
* ``setup_s``: time for a fresh interpreter to import ``isothc.cli`` and
  load the inputs through the public loaders.  Every worker measures it;
  set-up-only workers run before the first operation and between the
  operations as the run's time passes, until ``SETUP_SAMPLES`` samples
  are in.
* ``peak_rss_mb``: peak resident memory of the worker process (MiB).
* ``steps_per_s``: solver steps per second spent in the solver loop:
  Trotter steps (``_StepEngine.step`` calls) on the simulate workloads,
  timed without the compilation of the step unitaries that the first step
  of each engine does, so only step and reset work counts; Adam steps
  (``thc.loss_gradient`` calls per second inside ``thc.refine``) on the
  factorize workload.  Spans around these calls are the only
  instrumentation of an untraced run (``tracing.install_solver_spans``).

With ``--trace 1`` traced and untraced operations alternate, and the run
reports the per-layer metrics from spans around every public function of
``hamiltonian``, ``thc``, ``focksim``, ``algorithm`` and ``cli`` (see
``tracing.py``), the exact counts of the workload, and
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

Every operation's outputs are checked (``workloads.py``).  An exit code
other than 0, an exception, a time-out or a failed check counts as one
failed operation.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
detailed record with the environment, counts and every sample is written
under ``.bench_build/isothc/``.  The exit code is 0 when every operation
succeeded, 1 when one failed, and 2 when the source tree is missing.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, here and in every
# worker.  One thread: on a shared two-core machine a second BLAS thread
# slows the small-matrix workload and makes every workload noisier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "isothc"
WORKER = HERE / "worker.py"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "steps_per_s": "1/s"}

# (metric, unit); ".self_s" and ".calls" metrics come straight from spans
PER_LAYER = [
    ("hamiltonian.parse_fcidump.self_s", "s"),
    ("hamiltonian.rotate_to_h_eigenbasis.self_s", "s"),
    ("hamiltonian.build_many_body_operator.calls", "count"),
    ("hamiltonian.build_many_body_operator.self_s", "s"),
    ("hamiltonian.eigensystem.self_s", "s"),
    ("thc.refine.calls", "count"),
    ("thc.refine.self_s", "s"),
    ("thc.refine.iter_ms", "ms"),
    ("thc.contract_vtilde.calls", "count"),
    ("thc.contract_vtilde.self_s", "s"),
    ("thc.product_matrix.self_s", "s"),
    ("thc.projected_interaction.self_s", "s"),
    ("thc.loss_gradient.self_s", "s"),
    ("thc.approximation_errors.calls", "count"),
    ("thc.approximation_errors.self_s", "s"),
    ("thc.polar_retract.self_s", "s"),
    ("algorithm.compile_s", "s"),
    ("algorithm.compile.columns", "count"),
    ("focksim.apply_basis_rotation.calls", "count"),
    ("focksim.apply_basis_rotation.self_s", "s"),
    ("focksim.apply_diagonal_two_body.self_s", "s"),
    ("focksim.apply_diagonal_one_body.self_s", "s"),
    ("focksim.phase_on_ancillas.self_s", "s"),
    ("algorithm.step.calls", "count"),
    ("algorithm.step.self_s", "s"),
    ("algorithm.step.p50_ms", "ms"),
    ("algorithm.step.p99_ms", "ms"),
    ("focksim.reset_ancillas.calls", "count"),
    ("focksim.reset_ancillas.self_s", "s"),
    ("focksim.density_bytes", "B"),
    ("focksim.exact_evolution.self_s", "s"),
    ("focksim.trace_distance.self_s", "s"),
    ("focksim.givens_decompose.self_s", "s"),
    ("algorithm.evolve.calls", "count"),
    ("algorithm.evolve.self_s", "s"),
    ("cli.cmd_factorize.self_s", "s"),
    ("cli.cmd_simulate.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("algorithm.register_modes", "count"),
    ("algorithm.fock_dim", "count"),
    ("algorithm.trotter_steps", "count"),
    ("thc.adam_iterations", "count"),
    ("trace.other_self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

SETUP_SAMPLES = 15
# The whole run must end within 180 s; no operation is allowed past this.
DEADLINE_S = 170.0
# Self times of all spans must add up to the traced wall time within this.
TRACE_SUM_RTOL = 0.01
# Self time of spans without a metric of their own (trace.other_self_s) may
# be at most this share of the traced wall time, plus a fixed allowance for
# the CLI's argument parsing and file writes, which do not grow with the
# workload; more means a layer's time goes unreported.
TRACE_OTHER_MAX = 0.05
TRACE_OTHER_FIXED_S = 0.02
# Spans whose self time is a per-layer metric.
REPORTED_SPANS = {name.rpartition(".")[0] for name, _ in PER_LAYER if name.endswith(".self_s")}
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ[var] for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# operations


def run_operation(job: dict, job_dir: Path, time_limit: float) -> dict:
    """Run one worker; return its result or the reason it failed."""
    job_dir.mkdir(parents=True, exist_ok=True)
    job = dict(job, result=str(job_dir / "result.json"))
    (job_dir / "job.json").write_text(json.dumps(job))
    record = {"mode": job["mode"], "ok": False, "failure": None}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(job_dir / "job.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=time_limit,
        )
    except subprocess.TimeoutExpired:
        record["failure"] = "timeout"
        return record
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record["failure"] = f"exception (worker exit {proc.returncode}): {tail[0]}"
        return record
    result = json.loads(Path(job["result"]).read_text())
    record.update(result)
    if result.get("rc", 0) != 0:
        record["failure"] = f"CLI exit code {result['rc']}"
        return record
    record["ok"] = True
    return record


def trace_problems(workload, summary: dict, wall_s: float) -> list[str]:
    """Checks that the spans saw every call and account for the wall time."""
    problems = []
    total_self = sum(summary["self_s"].values())
    if abs(total_self - wall_s) > TRACE_SUM_RTOL * wall_s:
        problems.append(
            f"span self times sum to {total_self:.4f} s, traced wall_s is {wall_s:.4f} s"
        )
    other = other_self_s(summary["self_s"])
    if other > TRACE_OTHER_MAX * wall_s + TRACE_OTHER_FIXED_S:
        problems.append(
            f"spans without a metric hold {other:.4f} s of self time, more than "
            f"{TRACE_OTHER_MAX:.0%} of the traced wall_s {wall_s:.4f} s "
            f"+ {TRACE_OTHER_FIXED_S} s"
        )
    calls = summary["calls"]
    expected = {
        "algorithm.step": workload.trotter_steps,
        "algorithm.evolve": workload.engines,
        "hamiltonian.build_many_body_operator": workload.engines,
        "thc.loss_gradient": workload.adam_iterations,
        "thc.refine": workload.restarts,
    }
    for name, want in expected.items():
        if calls.get(name, 0) != want:
            problems.append(f"{name}: {calls.get(name, 0)} calls traced, expected {want}")
    columns = summary["counts"].get("algorithm.compile.columns", 0)
    if columns != workload.compile_columns:
        problems.append(
            f"compiled {columns} columns, expected {workload.compile_columns}"
        )
    return problems


def other_self_s(self_s: dict[str, float]) -> float:
    """Self time of the spans that have no metric of their own."""
    return sum(seconds for span, seconds in self_s.items() if span not in REPORTED_SPANS)


def percentile_ms(durations: list[float], q: float) -> float:
    """The q-quantile in ms, or 0 when fewer than TAIL_SAMPLES lie beyond it."""
    if not durations or len(durations) * (1.0 - q) < TAIL_SAMPLES:
        return 0.0
    ordered = sorted(durations)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return 1000.0 * ordered[index]


def layer_metrics(workload, record: dict) -> dict[str, float]:
    """Per-layer values of one traced operation (trace.overhead_s excluded)."""
    summary = record["trace"]
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif kind == "calls":
            values[name] = calls.get(span, 0)
    iterations = calls.get("thc.loss_gradient", 0)
    values["thc.refine.iter_ms"] = (
        1000.0 * total_s.get("thc.refine", 0.0) / iterations if iterations else 0.0
    )
    values["algorithm.compile_s"] = total_s.get("algorithm.compile", 0.0)
    values["algorithm.compile.columns"] = summary["counts"].get(
        "algorithm.compile.columns", 0)
    values["algorithm.step.p50_ms"] = percentile_ms(summary["step_durations"], 0.5)
    values["algorithm.step.p99_ms"] = percentile_ms(summary["step_durations"], 0.99)
    values.update(workload.counts())
    values["trace.other_self_s"] = other_self_s(self_s)
    values["trace.wall_s"] = record["wall_s"]
    return values


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_benchmark(workload, seed: int, seconds: float, trace: bool, smoke: bool,
                  setup_samples: int = SETUP_SAMPLES, log=print) -> tuple[dict, dict]:
    """Run one workload; return the result line and the detailed record."""
    import workloads as wl

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    label = f"{'smoke-' if smoke else ''}{workload.name}-seed{seed}-trace{int(trace)}"
    run_dir = WORK / label
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = wl.make_inputs(workload, seed, ROOT, run_dir / "inputs")
    context = wl.check_context(workload, seed, inputs, smoke)
    argv_job = {"src": str(SRC), "inputs": inputs, "spans": str(run_dir / "spans.json")}

    ops: list[dict] = []
    modes = ["plain", "traced"] if trace else ["plain"]
    outputs = None

    def setup_until(samples: int) -> None:
        """Run set-up-only workers until ``samples`` set-up times are in."""
        while (sum(1 for op in ops if "setup_s" in op) < samples
               and time.perf_counter() < deadline):
            job = dict(argv_job, mode="setup", argv=[])
            record = run_operation(job, run_dir / f"op{len(ops):03d}",
                                   min(workload.time_limit_s, deadline - time.perf_counter()))
            if not record["ok"]:
                log(f"op {len(ops) + 1} setup: {record['failure']}")
            ops.append(record)

    cli_ops = 0
    cli_s = 0.0
    measure_start = time.perf_counter()
    if not trace and seconds > 0:
        # a third of the set-up samples come before the first operation, so
        # that a workload with one long operation still has samples on both
        # sides of it
        setup_until(setup_samples // 3)
    while True:
        mode = modes[cli_ops % len(modes)]
        op_dir = run_dir / f"op{len(ops):03d}"
        outdir = op_dir / "out"
        job = dict(argv_job, mode=mode, argv=wl.cli_argv(workload, inputs, outdir))
        limit = min(workload.time_limit_s, deadline - time.perf_counter())
        op_start = time.perf_counter()
        record = run_operation(job, op_dir, limit)
        cli_ops += 1
        cli_s += time.perf_counter() - op_start
        if record["ok"]:
            try:
                problems = wl.check_outputs(workload, outdir, context)
                if mode == "traced":
                    problems += trace_problems(workload, record["trace"], record["wall_s"])
                if outputs is None:
                    outputs = wl.output_summary(workload, seed, outdir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            if problems:
                record.update(ok=False, failure="check: " + "; ".join(problems))
        shutil.rmtree(outdir, ignore_errors=True)
        ops.append(record)
        log(f"op {len(ops)} {mode}: "
            + (f"wall {record['wall_s']:.3f} s" if record["ok"] else record["failure"]))
        if record["failure"] == "timeout":
            break
        if not trace and seconds > 0:
            # set-up samples are due in proportion to the measured time, so
            # they spread over the run instead of bunching at its end
            elapsed = time.perf_counter() - measure_start
            setup_until(min(setup_samples, math.ceil(setup_samples * elapsed / seconds)))
        now = time.perf_counter()
        mean_op = cli_s / cli_ops
        if cli_ops >= len(modes) and (now - measure_start + 0.5 * mean_op >= seconds
                                      or now + 1.5 * mean_op > deadline):
            break
    if not trace:
        setup_until(setup_samples)

    ok = [op for op in ops if op["ok"]]
    plain = [op for op in ok if op["mode"] == "plain"]
    traced = [op for op in ok if op["mode"] == "traced"]
    failed = len(ops) - len(ok)
    metrics: dict[str, dict] = {}
    if not trace and plain:
        rates = [op["solver_steps"] / op["solver_s"] for op in plain if op["solver_s"] > 0]
        values = {
            "wall_s": median([op["wall_s"] for op in plain]),
            "setup_s": median([op["setup_s"] for op in ok]),
            "peak_rss_mb": median([op["peak_rss_mb"] for op in plain]),
            "steps_per_s": median(rates),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    elif trace and traced and plain:
        per_op = [layer_metrics(workload, op) for op in traced]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = (median([op["wall_s"] for op in traced])
                         - median([op["wall_s"] for op in plain]))
            else:
                value = median([values[name] for values in per_op])
            metrics[name] = {"value": value, "unit": unit}

    result = {"correct": failed == 0 and bool(metrics), "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "counts": workload.counts(),
        "ops_attempted": len(ops), "ops_failed": failed,
        "failures": [op["failure"] for op in ops if not op["ok"]],
        "outputs": outputs, "operations": [
            {k: v for k, v in op.items() if k != "trace"} for op in ops
        ],
        "elapsed_s": time.perf_counter() - started,
        "result": result,
    }
    if traced:
        summary = traced[-1]["trace"]
        detail["last_trace"] = {k: summary[k] for k in ("calls", "self_s", "total_s")}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test on tiny sizes")
    args = parser.parse_args(argv)

    if not (SRC / "isothc" / "cli.py").is_file():
        print(f"error: no isothc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        import smoke

        return smoke.main()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    env = environment()
    print(f"isothc benchmark: {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env))
    print("exact counts, computed from the workload sizes (density_bytes = 16 * 4**M): "
          + json.dumps(workload.counts()))
    result, detail = run_benchmark(workload, args.seed, args.seconds, bool(args.trace),
                                   smoke=False)
    detail["environment"] = env
    WORK.mkdir(parents=True, exist_ok=True)
    detail_path = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1))
    print(f"ops_attempted = {detail['ops_attempted']}, ops_failed = {detail['ops_failed']}")
    for failure in detail["failures"]:
        print(f"failed operation: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"details: {detail_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
