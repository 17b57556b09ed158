"""Tests of the benchmark harness itself: schedules, output checks, arithmetic, tracing."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
try:
    import treeshift  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from treeshift import cli, oracle  # noqa: E402
from treeshift.trees import finite_tree  # noqa: E402
from treeshift.weights import TableWeights  # noqa: E402


# -- same seed, same schedule ---------------------------------------------------


def test_family_schedule_repeats_per_seed_and_covers_every_combination():
    rounds = workloads.family_schedule(7, 20)
    assert rounds == workloads.family_schedule(7, 20)
    assert rounds != workloads.family_schedule(8, 20)
    assert len(rounds) == workloads.FAMILY_ROUNDS
    for ops in rounds:
        assert len(ops) % 36 == 0 and len(ops) >= 36
        for start in range(0, len(ops), 36):
            chunk = ops[start : start + 36]
            assert len(set(chunk)) == 36
            assert {op[1] for op in chunk} == set(workloads.FAMILY_T)
        assert sorted(ops) == sorted(rounds[0])
    assert rounds[0] != rounds[1]


def test_large_inputs_repeat_per_seed_and_span_the_size_range():
    first = workloads.large_inputs(3, 15)
    again = workloads.large_inputs(3, 15)
    assert [p for p, _ in first] == [p for p, _ in again]
    assert all((a == b).all() for (_, a), (_, b) in zip(first, again))
    assert [p for p, _ in first] != [p for p, _ in workloads.large_inputs(4, 15)]
    sizes = sorted(len(p) for p, _ in first)
    lo, hi = workloads.LARGE_SIZES
    assert lo <= sizes[0] < lo + (hi - lo) / 10 and hi - (hi - lo) / 10 < sizes[-1] <= hi


def test_every_round_runs_the_same_inputs_as_fresh_objects():
    runner = workloads.OracleLarge(3, 15, "", ROOT)
    runner.setup()
    assert len(runner.rounds) == workloads.ROUNDS
    by_key = {}
    for ops in runner.rounds:
        assert sorted(key for key, _ in ops) == list(range(len(runner.raw)))
        for key, (tree, weights) in ops:
            by_key.setdefault(key, []).append((tree, weights))
    for copies in by_key.values():
        assert len({id(w) for _, w in copies}) == len(copies)
        assert len({len(t) for t, _ in copies}) == 1
        values = [[w.weight(v) for v in t.vertices()[1:]] for t, w in copies]
        assert all(v == values[0] for v in values)
    assert [k for k, _ in runner.rounds[0]] != [k for k, _ in runner.rounds[1]]


def test_cli_and_corpus_inputs_repeat_per_seed():
    assert workloads.cli_schedule(5, 20) == workloads.cli_schedule(5, 20)
    for ops in workloads.cli_schedule(5, 20):
        assert {label for label, _ in ops} == set(workloads.CLI_LABELS)
    a = oracle.random_tree_corpus(12, 9, complex_count=1)
    b = oracle.random_tree_corpus(12, 9, complex_count=1)
    assert [t.vertices() for t, _ in a] == [t.vertices() for t, _ in b]
    assert [[w.weight(v) for v in t.vertices()[1:]] for t, w in a] == [
        [w.weight(v) for v in t.vertices()[1:]] for t, w in b
    ]
    assert workloads.round_orders(5, 30) == workloads.round_orders(5, 30)
    assert workloads.round_orders(5, 30) != workloads.round_orders(6, 30)


# -- output checks ----------------------------------------------------------------


@pytest.fixture(scope="module")
def analyze_report(tmp_path_factory):
    spec = tmp_path_factory.mktemp("spec") / "descendant.json"
    spec.write_text(json.dumps(workloads.FAMILY_SPECS["descendant"]))
    runner = workloads.FamilyAnalyze(0, 1, str(spec.parent), ROOT)
    runner.cli = cli
    runner.paths = {"descendant": str(spec)}
    code, text = runner._execute(("descendant", "0.5", 2, 3))
    assert code == 0
    return text


def test_genuine_analyze_report_passes(analyze_report):
    assert workloads.check_analyze(analyze_report) is None


@pytest.mark.parametrize(
    "path, value",
    [
        (("densely_defined", "status"), "sample"),
        (("hyponormal", "verdict"), "unknown"),
        (("hyponormal", "margins", "family", "value"), 0.71),
        (("aluthge_domain", "status"), "certified-sample"),
    ],
)
def test_tampered_analyze_report_fails(analyze_report, path, value):
    doc = json.loads(analyze_report)
    node = doc["verdicts"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert workloads.check_analyze(json.dumps(doc)) is not None


def test_truncated_report_and_changed_bytes_fail(analyze_report):
    assert workloads.check_analyze(analyze_report[:-40]) is not None
    ledger = workloads.ByteLedger()
    assert ledger.check(("paper", "0.5"), analyze_report) is None
    assert ledger.check(("paper", "0.5"), analyze_report) is None
    assert ledger.check(("paper", "0.5"), analyze_report.replace("0.", "1.", 1)) is not None


def test_discrepancy_above_tolerance_fails():
    ok = oracle.ComparisonReport(n=3, aluthge={0.5: 1e-12}, adjoint_modulus={1.0: 1e-9})
    assert workloads.check_comparison(ok) is None
    assert workloads.check_comparison(oracle.ComparisonReport(n=3, aluthge={0.5: 2e-8})) is not None
    assert workloads.check_comparison(oracle.ComparisonReport(n=3, polar_factor=float("nan"))) is not None
    disagree = oracle.ComparisonReport(n=3, hyponormal_dense=False)
    assert workloads.check_comparison(disagree) is not None
    text = json.dumps({"max_discrepancy": 3e-8, "hyponormality_disagreements": 0})
    assert workloads.check_oracle_report(text) is not None


def test_witness_and_weight_table_checks():
    good = {"partial_sums": [1.0, 2.0, 5.0], "crossing_index": 2, "growth_certificate": {"kind": "eventually-increasing"}}
    assert workloads.check_witness(json.dumps(good), 3) is None
    assert workloads.check_witness(json.dumps(dict(good, crossing_index=None)), 3) is not None
    assert workloads.check_witness(json.dumps(dict(good, partial_sums=[1.0, 0.5, 5.0])), 3) is not None
    row = {"vertex": "1:3", "weight": [0.25, 0.0], "aluthge": [0.7, 0.0], "polar": [0.19, 0.0]}
    assert workloads.check_aluthge_weights(json.dumps({"table": [row]}), ["1:3"]) is None
    assert workloads.check_aluthge_weights(json.dumps({"table": [row]}), ["2:1,0"]) is not None


# -- arithmetic on synthetic latencies ------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    assert metrics.tail_latency(list(range(100, 0, -1))) == (90, 90.0, 100)
    assert metrics.tail_latency(list(range(1, 21))) == (10, 50.0, 20)
    assert metrics.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert metrics.tail_latency(list(range(1, 12))) == (1, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        metrics.tail_latency([])


def test_tally_takes_each_ops_median_time_and_counts_every_execution():
    tally = metrics.Tally()
    # three rounds over ops a..d; op "d" always fails, op "c" once returns bad output
    for ms in (4, 60, 5):  # one stalled execution does not move the median
        tally.record("a", metrics.OK, ms / 1000.0)
    for ms in (3, 1, 2):
        tally.record("b", metrics.OK, ms / 1000.0)
    tally.record("c", metrics.OK, 0.008)
    tally.record("c", metrics.WRONG, 0.001, "bad bytes")
    tally.record("c", metrics.OK, 0.006)
    for ms in (9, 8, 9):
        tally.record("d", metrics.ERROR, ms / 1000.0, "raised")
    assert (tally.attempted, tally.failed, tally.errors, tally.wrong) == (12, 4, 3, 1)
    assert tally.typical() == pytest.approx([0.005, 0.002, 0.007])
    assert tally.p50_ms() == pytest.approx(5.0)
    assert tally.tail_ms() == (pytest.approx(7.0), 100.0, 3)
    # one pass at median times spends 5 + 2 + 6 + 9 ms and completes 3 ops
    assert tally.throughput() == pytest.approx(3 / 0.022)
    assert metrics.error_rate(tally.attempted, tally.failed) == pytest.approx(1 / 3)
    assert tally.problems[:2] == ["wrong: bad bytes", "error: raised"]
    with pytest.raises(ValueError):
        metrics.error_rate(0, 0)
    with pytest.raises(ValueError):
        tally.record("a", "lost", 1.0)


# -- tracing and the metric contract ---------------------------------------------------


def test_wrappers_cover_reimported_names_and_uninstall_cleanly():
    from treeshift import operators

    original = operators.adjoint_aluthge_basis_action
    assert oracle.adjoint_aluthge_basis_action is original
    tree = finite_tree([None, 0, 0, 1, 1, 2])
    weights = TableWeights(tree, {v: 0.5 + v for v in range(1, 6)})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oracle.adjoint_aluthge_basis_action is operators.adjoint_aluthge_basis_action
        assert oracle.adjoint_aluthge_basis_action is not original
        tracer.begin_op(0)
        report = oracle.compare_with_formula(weights, tree, t_values=(0.5,))
    finally:
        tracer.uninstall()
    assert operators.adjoint_aluthge_basis_action is original
    assert oracle.adjoint_aluthge_basis_action is original
    assert workloads.check_comparison(report) is None
    stats, counters = tracer.stats, tracer.counters
    assert stats["oracle.compare_with_formula"][0] == 1
    assert stats["operators.adjoint_aluthge_basis_action"][0] == 6
    assert stats["series.inverse_square_sum"][0] == 0
    assert counters["oracle.svd.calls"] == 2 and counters["oracle.svd.n3_sum"] == 2 * 6**3
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["oracle.compare_with_formula"]
    for name, calls, incl, self_ns in ((k, *v) for k, v in stats.items()):
        assert 0 <= self_ns <= incl, name


def test_reported_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    phase = {"tally": metrics.Tally(wall_s=1.0), "report_bytes": [], "round_walls": [1.0]}
    layers = worker.layer_metrics(tracing.empty_snapshot(), phase, phase)
    assert {name: unit for name, (_, unit) in layers.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
