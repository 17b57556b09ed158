"""Run one workload in this (fresh) process and print its measurements as JSON.

    python bench/worker.py --workload NAME --seed N --seconds S --workdir DIR
                           [--trace] [--setup-only]

``bench/run.py`` starts this with BLAS pinned to one thread.  Set-up is
everything from interpreter start to the end of the warm-up: importing
treeshift, generating the inputs, a warm-up op, ``gc.collect()`` and
``gc.freeze()``.
Without ``--trace`` every round runs untraced.  With ``--trace`` the process
installs the layer wrappers before set-up, runs the first round traced,
removes the wrappers and runs the other rounds untraced; the per-layer
numbers come from set-up and the traced round, the overhead from the wall
time of the traced round against the mean untraced round.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402
from metrics import Tally  # noqa: E402
from workloads import CLI_LABELS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".bench_work")


def timed_phase(workload, rounds, tracer=None) -> dict:
    """Run each round's ops in order; outputs are checked after each op's clock stops."""
    tally = Tally()
    report_bytes = []
    round_walls = []
    op_id = 0
    for ops in rounds:
        start = time.perf_counter()
        for key, payload in ops:
            if tracer is not None:
                tracer.begin_op(op_id)
            op_id += 1
            elapsed, status, detail, nbytes = workload.run((key, payload))
            tally.record(key, status, elapsed, detail)
            if nbytes:
                report_bytes.append(nbytes)
        round_walls.append(time.perf_counter() - start)
    tally.wall_s = sum(round_walls)
    return {"tally": tally, "report_bytes": report_bytes, "round_walls": round_walls}


def end_to_end(phase: dict, rss_who: int) -> dict:
    tally = phase["tally"]
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "wrong": tally.wrong,
        "problems": tally.problems,
        "wall_s": tally.wall_s,
        "round_walls_s": phase["round_walls"],
        "failed_per_round": tally.failed / len(phase["round_walls"]),
        "peak_rss_mb": resource.getrusage(rss_who).ru_maxrss / 1024.0,
    }
    if tally.times:
        tail, pct, count = tally.tail_ms()
        out.update(
            throughput_ops_s=tally.throughput(),
            wall_throughput_ops_s=tally.ok / tally.wall_s,
            latency_p50_ms=tally.p50_ms(),
            latency_tail_ms=tail,
            tail_percentile=pct,
            tail_samples=count,
        )
    return out


def _ms(stats: dict, name: str, column: int) -> float:
    return stats.get(name, [0, 0, 0])[column] / 1e6


def layer_metrics(snapshot: dict, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``; totals over set-up and the traced round."""
    stats, counters = snapshot["stats"], snapshot["counters"]

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def incl_ms(name):
        return _ms(stats, name, 1)

    def self_ms(name):
        return _ms(stats, name, 2)

    out = {}
    for layer in tracing.LAYERS:
        total = sum(v[2] for k, v in stats.items() if k.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (total / 1e6, "ms")
    for name in ("series.inverse_square_sum", "trees.sample_vertices", "cli.load_tree_spec"):
        out[f"{name}.ms"] = (incl_ms(name), "ms")
    for name in ("analysis.check_hyponormal", "analysis.check_densely_defined", "analysis.nonclosability_witness"):
        out[f"{name}.ms"] = (incl_ms(name), "ms")
    for name in (
        "series.verify_certificate",
        "series.sum_series",
        "operators.adjoint_aluthge_basis_action",
        "analysis.certify_trivial_aluthge_domain",
        "oracle.projection_sum_matrix",
        "oracle.compare_with_formula",
        "cli.emit",
    ):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in (
        "series.inverse_square_sum",
        "series.verify_certificate",
        "series.sum_series",
        "trees.OmegaVertex.make",
        "weights.aggregate",
        "weights.node_norm",
        "weights.weight",
        "operators.adjoint_aluthge_basis_action",
        "operators.expand",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
    aggregates = calls("weights.aggregate")
    distinct = counters.get("weights.aggregate.distinct", 0)
    out["weights.aggregate.hit_ratio"] = (1.0 - distinct / aggregates if aggregates else 0.0, "ratio")
    out["weights.derived_systems"] = (counters.get("weights.derived_systems", 0), "count")
    out["oracle.svd.calls"] = (counters.get("oracle.svd.calls", 0), "count")
    out["oracle.svd.n3_sum"] = (counters.get("oracle.svd.n3_sum", 0), "computed_n3")
    dense = sum(self_ms(name) for name in tracing.ORACLE_DENSE)
    compare = incl_ms("oracle.compare_with_formula")
    out["oracle.dense.self_ms"] = (dense, "ms")
    out["oracle.formula.self_ms"] = (sum(incl_ms(name) for name in tracing.ORACLE_FORMULA), "ms")
    out["oracle.dense_share"] = (dense / compare if compare else 0.0, "ratio")
    sizes = untraced["report_bytes"]
    out["cli.report_bytes"] = (statistics.mean(sizes) if sizes else 0.0, "B")
    for label in CLI_LABELS:  # the op keys of cli-cold
        samples = untraced["tally"].times.get(label)
        out[f"cli.p50_ms.{label}"] = (1000.0 * statistics.median(samples) if samples else 0.0, "ms")
    per_round = untraced["tally"].wall_s / len(untraced["round_walls"])
    overhead = traced["tally"].wall_s / len(traced["round_walls"]) / per_round - 1.0
    out["trace.overhead"] = (overhead, "ratio")
    return out


def environment() -> dict:
    """Versions and the BLAS thread setting this process ran with."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.workdir, ROOT)
    in_process = workload.name != "cli-cold"
    tracer = None
    if args.trace and in_process:
        tracer = tracing.Tracer()
        tracer.begin_op("setup")
        tracer.install()
    workload.setup()
    gc.collect()
    # Keep the inputs out of later collections: otherwise the number of trees
    # the harness holds, not the program, would set the length of GC pauses.
    gc.freeze()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s}
    rounds = workload.rounds
    traced = None
    if args.trace:
        if in_process:
            traced = timed_phase(workload, rounds[:1], tracer)
            snapshot = tracer.snapshot()
            tracer.uninstall()
        else:
            workload.trace_parts = []
            traced = timed_phase(workload, rounds[:1])
            snapshot = tracing.empty_snapshot()
            for path in filter(os.path.exists, workload.trace_parts):
                with open(path, encoding="utf-8") as fh:
                    tracing.merge(snapshot, json.load(fh))
            workload.trace_parts = None
        rounds = rounds[1:]
        gc.collect()
    untraced = timed_phase(workload, rounds)
    rss_who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result.update(end_to_end(untraced, rss_who))
    result["environment"] = environment()
    if traced is not None:
        result["traced_failed_per_round"] = traced["tally"].failed / len(traced["round_walls"])
        result["layers"] = layer_metrics(snapshot, traced, untraced)
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_file = os.path.join(TRACE_DIR, f"trace-{workload.name}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh)
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
