"""Harness smoke test at tiny sizes.

usage (from the repository root): python3 perfbench/smoke.py

Runs every workload through run.py at tiny sizes, untraced and traced, and
checks that each metric BENCHMARK.json names is printed with a unit.  Then
feeds the measuring loop a workload with injected failing ops and checks
that each is counted, by kind, in the failure ratio.  Exits 1 on any miss.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import Op  # noqa: E402


def check_metric_names(problems):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit status {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            if list(result["metrics"]) != wanted[trace]:
                problems.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(wanted[trace]))} differ")
            table = "\n".join(lines[:-1])
            for name in wanted[trace] + (["fail_ratio"] if trace == 0 else []):
                if f"  {name} " not in table:
                    problems.append(f"{where}: {name} not printed")
            for name, entry in result["metrics"].items():
                if not entry.get("unit") or not math.isfinite(entry["value"]):
                    problems.append(f"{where}: {name} = {entry}")


class Injected:
    """Per cycle: one good op, one that raises, one untagged NaN, one NaN tagged as a known defect."""

    def cycle(self):
        def nan():
            return [float("nan")]

        def boom():
            raise ValueError("injected")

        def finite_or_kind(values):
            return None if all(math.isfinite(v) for v in values) else "non_finite"

        return [
            Op("good", lambda: [1.0], finite_or_kind),
            Op("raises", boom, finite_or_kind),
            Op("nan", nan, finite_or_kind),
            Op("nan known", nan, finite_or_kind, defect="damped_overflow"),
        ]


def check_injected_failures(problems):
    records = worker.run_cycles(Injected(), 3)
    stats = run.summarize(records)
    expected = {"exception:ValueError": 3, "non_finite": 3, "non_finite [known: damped_overflow]": 3}
    if (stats["attempted"], stats["failed"], stats["unexpected"]) != (12, 9, 6):
        problems.append(f"injected: attempted/failed/unexpected = "
                        f"{stats['attempted']}/{stats['failed']}/{stats['unexpected']}, want 12/9/6")
    if stats["fail_ratio"] != 9 / 12:
        problems.append(f"injected: fail_ratio {stats['fail_ratio']}, want 0.75")
    if stats["kinds"] != expected:
        problems.append(f"injected: kinds {stats['kinds']}, want {expected}")
    if stats["ok"] != 3:
        problems.append(f"injected: {stats['ok']} ops passed, want the 3 good ones")


def main():
    problems = []
    check_injected_failures(problems)
    check_metric_names(problems)
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
