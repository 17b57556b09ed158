"""treeshift benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: family-analyze, oracle-corpus, oracle-large, cli-cold (see
bench/RATIONALE.md).  The seed fixes every input; ``--seconds`` fixes the op
count.  Each invocation starts fresh worker processes with BLAS pinned to one
thread: SETUP_SAMPLES - 1 that only set up, then one that sets up and runs the
timed ops.  ``setup_s`` is the median of all SETUP_SAMPLES set-ups.

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics for ``--trace 0`` and the per-layer
metrics for ``--trace 1``.  The line before it carries the details (tail
percentile and sample count, error rate, set-up samples, environment).  The
exit code is 1 when any op's output fails its check, and 2 when the
benchmark cannot run (for instance, no treeshift sources under ./src).
Nothing here changes machine settings: no CPU pinning, cgroups or huge pages.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from metrics import error_rate
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole invocation, set-ups included
BLAS_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, workdir: str, deadline: float, *extra: str) -> dict:
    command = [
        sys.executable,
        os.path.join(BENCH, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", workdir,
        *extra,
    ]
    # The worker gets its own process group, so that a timeout also ends the
    # CLI processes it may have started.
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker exceeded the {DEADLINE_S} s budget") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treeshift benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "treeshift", "__init__.py")):
        sys.stderr.write(f"bench: no treeshift sources under {SRC}; run from a full checkout\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        setups = [
            run_worker(args, workdir, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = run_worker(args, workdir, deadline, *(["--trace"] if args.trace else []))
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    # Every round runs the same inputs, so the traced round must fail as many
    # ops as each untraced round.
    per_round = result["failed_per_round"]
    correct = result["wrong"] == 0 and result.get("traced_failed_per_round", per_round) == per_round
    if "throughput_ops_s" not in result:
        correct = False
        sys.stderr.write("bench: no op succeeded\n")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": result["attempted"],
        "errors": result["errors"],
        "wrong": result["wrong"],
        "error_rate": error_rate(result["attempted"], result["failed"]),
        "problems": result["problems"],
        "wall_s": result["wall_s"],
        "round_walls_s": result["round_walls_s"],
        "wall_throughput_ops_s": result.get("wall_throughput_ops_s"),
        "tail_percentile": result.get("tail_percentile"),
        "tail_samples": result.get("tail_samples"),
        "setup_samples_s": setups,
        "environment": result["environment"],
    }
    if args.trace:
        details["trace_file"] = result["trace_file"]
        details["traced_failed_per_round"] = result["traced_failed_per_round"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    elif correct:
        values = dict(result, setup_s=statistics.median(setups))
        values["success_rate"] = 1.0 - details["error_rate"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = {}
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
