"""xft benchmark: one workload, end-to-end metrics (or per-layer ones with --trace 1).

usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own worker process as one single-threaded
closed-loop client (one BLAS thread).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
lines before it give every metric with its unit and sample counts, the
failures by kind, and the environment.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import metric_units  # noqa: E402

WORKLOADS = ("fast_fixed_z", "fresh_z_mixed_n", "cli_runs")

# Set-up is timed in this many fresh processes (the measuring worker is one);
# setup_s is their median.
SETUP_REPEATS = 3

# One BLAS thread keeps each client single-threaded (the cap is at most the
# core count).  On a 2-core box two threads made the dense eigenbasis ops both
# slower and noisier: p50 50-59 ms over three runs against 52.8-54.1 ms with one.
BLAS_THREADS = 1

# The whole command must end within 180 s.
DEADLINE_S = 170

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def worker(mode, args, env, deadline):
    """Run worker.py in `mode`; returns its JSON result.  Every worker ends by `deadline`."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed), str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    # its own session, so that a timeout also ends the CLI processes it started
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with status {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def summarize(records):
    """Failure counts and the end-to-end numbers of (latency_s, kind, known, label) records.

    Latency percentiles cover every attempted op: a failed op's caller waited
    too, and the percentile ranks then do not move with the failure count.
    ops_per_s counts only the ops that passed.
    """
    lat = np.array([record[0] for record in records])
    failures = [record[1:] for record in records if record[1] is not None]
    ok = len(records) - len(failures)
    busy = float(lat.sum())
    kinds, examples = {}, {}
    for kind, known, label in failures:
        key = f"{kind} [known: {known}]" if known else kind
        kinds[key] = kinds.get(key, 0) + 1
        examples.setdefault(key, label)
    unexpected = sum(1 for _, known, _ in failures if known is None)
    p50, p90 = np.percentile(lat, [50, 90]) * 1e3
    return {
        "attempted": len(records),
        "failed": len(records) - ok,
        "fail_ratio": (len(records) - ok) / len(records),
        "unexpected": unexpected,
        "kinds": kinds,
        "examples": examples,
        "ok": ok,
        "above_p90": int((lat * 1e3 > p90).sum()),
        "busy_s": busy,
        "ops_per_s": ok / busy if busy > 0 else 0.0,
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
    }


def report(args, env_record, stats, metrics, notes):
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env_record))
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']:<8} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<48} {stats['fail_ratio']:>14.6g} {'-':<8} "
          f"{stats['failed']} of {stats['attempted']} ops failed")
    print("failures by kind:" + ("" if stats["kinds"] else " none"))
    for kind, count in sorted(stats["kinds"].items()):
        print(f"  {kind}: {count} (first: {stats['examples'][kind]})")
    result = {
        "correct": stats["unexpected"] == 0 and stats["ok"] > 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "xft" / "__init__.py").is_file():
        print(f"error: {root} has no src/xft; run from the root of an xft checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    try:
        if args.trace:
            out = worker("trace", args, env, deadline)
            stats = summarize(out["records"])
            metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in metric_units().items()}
            notes = {}
        else:
            setups = [worker("setup", args, env, deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
            out = worker("run", args, env, deadline)
            setups.append(out["setup_s"])
            stats = summarize(out["records"])
            values = {
                "setup_s": float(np.median(setups)),
                "ops_per_s": stats["ops_per_s"],
                "latency_p50_ms": stats["latency_p50_ms"],
                "latency_p90_ms": stats["latency_p90_ms"],
                "peak_rss_mb": out["peak_rss_mb"],
                "ok_ratio": 1.0 - stats["fail_ratio"],
            }
            metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
            notes = {
                "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
                "ops_per_s": f"{stats['ok']} ok ops in {stats['busy_s']:.3f} s timed",
                "latency_p50_ms": f"{stats['attempted']} samples",
                "latency_p90_ms": f"{stats['attempted']} samples, {stats['above_p90']} above",
                "peak_rss_mb": "children's peak" if args.workload == "cli_runs" else "worker peak",
                "ok_ratio": "1 - fail_ratio",
            }
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env_record = dict(out["env"], ops=stats["attempted"], cycles=out["cycles"])
    report(args, env_record, stats, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
