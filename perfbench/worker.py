"""One workload in its own process: set up, then a closed loop of timed ops.

usage: python3 perfbench/worker.py {setup|run|trace} WORKLOAD SEED SECONDS [--tiny]

Run from the repository root with src/ on PYTHONPATH (run.py does both);
CLI children inherit that environment.
Prints one JSON object as its last line of standard output.  One client, one
op at a time: the next op starts when the previous op and its check are done.
A run is a fixed number of whole cycles, set by SECONDS and the workload's
nominal cycle time, so that one seed always gives the same ops.
"""

import itertools
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUN_DIR = ROOT / ".perfbench_run"

# The fewest whole cycles in a run (or in each pass of a traced run).
MIN_CYCLES = 2


def setup(name, seed, tiny):
    """Import xft, generate the seeded inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    import numpy as np

    import workloads
    import xft

    src = (ROOT / "src").resolve()
    if src not in Path(xft.__file__).resolve().parents:
        raise RuntimeError(f"xft imported from {xft.__file__}, not from {src}")
    rng = np.random.default_rng(seed)
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliRuns:
        RUN_DIR.mkdir(exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR)
        wl = cls(rng, tmpdir, cli_launch_plain(), tiny=tiny)
    else:
        wl = cls(rng, tiny=tiny)
    wl.warm_up()
    return wl, time.perf_counter() - start


def cli_launch_plain():
    import workloads

    return workloads.cli_launcher(lambda out: [sys.executable, "-m", "xft.cli"])


def cli_launch_traced():
    import workloads

    counter = itertools.count(1)

    def prefix(out):
        return [sys.executable, str(HERE / "cli_child.py"), out + ".spans", str(next(counter))]

    return workloads.cli_launcher(prefix)


def timed(op, tracer=None):
    """Run one op; returns (latency_s, failure kind, known defect, op label).

    All but the latency are None when the op passes its check.
    """
    import xft

    if tracer is not None:
        tracer.op += 1
        tracer.recording = True
    error = None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is counted, never fatal
        error = exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.recording = False
    if error is not None:
        kind = f"exception:{type(error).__name__}"
        typed = isinstance(error, xft.XftError)
    else:
        kind = op.check(result)
        typed = True
    if kind is None:
        return latency, None, None, None
    return latency, kind, op.defect if typed else None, op.label


def cycle_count(wl, seconds):
    """Whole cycles that take about `seconds` at the workload's nominal pace."""
    return max(MIN_CYCLES, round(seconds / wl.cycle_seconds))


def run_cycles(wl, cycles, tracer=None):
    """`cycles` whole cycles of ops; returns their records."""
    records = []
    for _ in range(cycles):
        records.extend(timed(op, tracer) for op in wl.cycle())
    return records


def environment(name, seed, seconds):
    import numpy as np

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli_runs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def trace_run(name, seed, seconds, tiny):
    """Untraced then traced passes over the same number of whole cycles.

    The cycle count depends only on --seconds, so the call counts repeat
    exactly for a given seed; each pass takes about half the run.
    """
    from tracer import Tracer, layer_metrics, read_spans, write_spans

    tracer = Tracer()
    launch = cli_launch_traced() if name == "cli_runs" else None
    wl, _ = setup(name, seed, tiny)
    cycles = cycle_count(wl, seconds / 2)
    plain = run_cycles(wl, cycles)
    if launch is not None:
        wl.launch = launch
    else:
        tracer.install()
    traced = run_cycles(wl, cycles, tracer)
    if launch is not None:
        spans_files = sorted(Path(wl.tmpdir).glob("*.spans"))
        spans = [span for path in spans_files for span in read_spans(path)]
    else:
        spans = tracer.spans
    RUN_DIR.mkdir(exist_ok=True)
    write_spans(RUN_DIR / f"spans-{name}-{seed}.jsonl", spans)
    traced_wall = sum(r[0] for r in traced)
    metrics = layer_metrics(spans, traced_wall)
    metrics["trace.overhead_ratio"] = (len(traced) / traced_wall) / (len(plain) / sum(r[0] for r in plain))
    return {"records": plain + traced, "cycles": 2 * cycles, "metrics": metrics}


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    tiny = "--tiny" in argv[4:]
    # the damped_overflow defect warns before returning NaN; the op's check
    # counts it, so the warning text adds nothing
    warnings.simplefilter("ignore", RuntimeWarning)
    try:
        if mode == "setup":
            _, setup_s = setup(name, seed, tiny)
            out = {"setup_s": setup_s}
        elif mode == "run":
            wl, setup_s = setup(name, seed, tiny)
            cycles = cycle_count(wl, seconds)
            records = run_cycles(wl, cycles)
            out = {"setup_s": setup_s, "records": records, "cycles": cycles, "peak_rss_mb": peak_rss_mb(name)}
        else:
            out = trace_run(name, seed, seconds, tiny)
    finally:
        for tmp in RUN_DIR.glob(f"{name}-*") if RUN_DIR.exists() else ():
            shutil.rmtree(tmp, ignore_errors=True)
    out["env"] = environment(name, seed, seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
