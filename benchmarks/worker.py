"""One benchmark operation in a fresh interpreter: set up, then one CLI invocation.

Usage: ``python3 benchmarks/worker.py JOB.json``, where the job document
(written by ``run.py``) names the source tree, the input files, the CLI
arguments, the mode (``setup``, ``plain`` or ``traced``) and where to write
the result.

Set-up is the time from the first line of this file to the end of loading
the workload's inputs through the public loaders (``parse_fcidump``,
``rotate_to_h_eigenbasis``, ``ThcFactorization.from_json``); every CLI run
pays it.  The CLI invocation that follows is timed by itself.  Peak
resident memory is read from ``getrusage`` of this process, which runs
nothing else.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import isothc.cli as cli
    from isothc.hamiltonian import parse_fcidump, rotate_to_h_eigenbasis
    from isothc.thc import ThcFactorization

    inputs = job["inputs"]
    rotate_to_h_eigenbasis(parse_fcidump(inputs["fcidump"]))
    if "thc" in inputs:
        ThcFactorization.from_json(Path(inputs["thc"]).read_text())
    result: dict = {"setup_s": time.perf_counter() - START}

    if job["mode"] != "setup":
        import tracing

        tracer = tracing.Tracer()
        if job["mode"] == "traced":
            tracing.install_tracer(tracer)
        else:
            tracing.install_solver_spans(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(job["argv"])
            result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if job["mode"] == "traced":
            result["trace"] = tracer.summary()
            # spans stay in memory until the run is over, then go out once
            Path(job["spans"]).write_text(json.dumps(tracer.spans))
        else:
            result["solver_steps"], result["solver_s"] = tracer.solver()

    tmp = job["result"] + ".tmp"
    Path(tmp).write_text(json.dumps(result))
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
