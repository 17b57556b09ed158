"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every workload turns ``(seed, seconds)`` into rounds of ops.  Each round
holds the same inputs, as fresh objects and in its own seeded order, so an
op's time in one round is free of the caches its earlier rounds filled.  The
op count is fixed from ``seconds`` through the nominal rates below (measured
on a 2-core x86-64 container), so a run lasts about ``seconds`` there but
never stops on a clock.  Only the generated inputs reach the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

from metrics import ERROR, OK, WRONG

ROUNDS = 3
FAMILY_ROUNDS = 4  # its 36 inputs are few and long-running, so each gets more repeats
ORACLE_TOLERANCE = 1e-8

FAMILY_SPECS = {
    "paper": {"family": "paper"},
    "descendant": {"family": "descendant", "apex": {"level": 0, "digits": [2]}},
}
FAMILY_T = ("1.0", "0.9", "0.5", "0.1", "0.02", "0.001")
FAMILY_WINDOWS = ((2, 3), (3, 2), (3, 3))  # (depth, digits); (3, 3) is the CLI default
FAMILY_PASS_S = 6.0  # one pass over the 36 (spec, t, window) combinations

CORPUS_T = (0.1, 0.5, 0.9, 1.0)
CORPUS_OPS_PER_S = 240
CORPUS_MAX_VERTICES = 40

LARGE_T = (0.5,)
LARGE_OPS_PER_S = 7.0
LARGE_SIZES = (120, 300)  # vertex counts, evenly spaced so every run has the same size mix
LARGE_WEIGHTS = (0.1, 4.0)

CLI_CYCLE_S = 2.4
CLI_OP_TIMEOUT_S = 60


# -- output checks ----------------------------------------------------------


def check_analyze(text: str) -> str | None:
    """Problems with an ``analyze`` report on the built-in family, or None."""
    try:
        doc = json.loads(text)
        verdicts = doc["verdicts"]
        density = verdicts["densely_defined"]["status"]
        hypo = verdicts["hyponormal"]["verdict"]
        margin = verdicts["hyponormal"]["margins"]["family"]["value"]
        domain = verdicts["aluthge_domain"]["status"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed analyze report ({type(exc).__name__}: {exc})"
    if density != "family":
        return f"densely_defined is {density!r}, expected 'family'"
    if hypo != "hyponormal":
        return f"hyponormal verdict is {hypo!r}"
    if not (isinstance(margin, float) and 0.6 < margin < 0.7):
        return f"hyponormality margin {margin!r} outside (0.6, 0.7)"
    if domain != "certified-family":
        return f"aluthge_domain is {domain!r}, expected 'certified-family'"
    return None


def check_aluthge_weights(text: str, vertices) -> str | None:
    try:
        rows = json.loads(text)["table"]
        labels = [row["vertex"] for row in rows]
        numbers = [x for row in rows for key in ("weight", "aluthge", "polar") for x in row[key]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed aluthge-weights report ({type(exc).__name__}: {exc})"
    if labels != list(vertices):
        return f"table rows {labels} do not match the requested vertices {list(vertices)}"
    if not all(isinstance(x, float) and math.isfinite(x) for x in numbers):
        return "non-finite weight in the aluthge-weights table"
    return None


def check_witness(text: str, terms: int) -> str | None:
    try:
        doc = json.loads(text)
        sums = doc["partial_sums"]
        crossing = doc["crossing_index"]
        kind = doc["growth_certificate"]["kind"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed witness report ({type(exc).__name__}: {exc})"
    if len(sums) != terms or any(b < a for a, b in zip(sums, sums[1:])):
        return "partial sums are not a nondecreasing list of the requested length"
    if crossing is None or kind != "eventually-increasing":
        return f"no certified crossing (crossing_index={crossing!r}, certificate={kind!r})"
    return None


def check_oracle_report(text: str) -> str | None:
    try:
        doc = json.loads(text)
        worst = doc["max_discrepancy"]
        disagreements = doc["hyponormality_disagreements"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed oracle report ({type(exc).__name__}: {exc})"
    if not worst <= ORACLE_TOLERANCE:
        return f"oracle discrepancy {worst!r} above {ORACLE_TOLERANCE}"
    if disagreements != 0:
        return f"{disagreements} hyponormality disagreement(s)"
    return None


def check_comparison(report) -> str | None:
    """An oracle ``ComparisonReport`` must agree with the formulas to tolerance."""
    worst = report.max_discrepancy()
    if not worst <= ORACLE_TOLERANCE:
        return f"discrepancy {worst!r} above {ORACLE_TOLERANCE} (n={report.n})"
    if not report.hyponormal_agree:
        return f"dense and formula hyponormality verdicts disagree (n={report.n})"
    return None


class ByteLedger:
    """Remembers the report bytes of each input; a rerun must reproduce them."""

    def __init__(self):
        self._seen: dict = {}

    def check(self, key, data: str) -> str | None:
        first = self._seen.setdefault(key, data)
        if first != data:
            return f"report for {key} differs from an earlier run of the same input"
        return None



# -- schedules --------------------------------------------------------------


def per_round(seconds: float, unit_s: float, least: int = 1, rounds: int = ROUNDS) -> int:
    """How many units of ``unit_s`` nominal seconds one of ``rounds`` rounds holds."""
    return max(least, round(seconds / rounds / unit_s))


def family_schedule(seed: int, seconds: float) -> list:
    """FAMILY_ROUNDS rounds of whole passes over spec x t x window, each pass in its own seeded order.

    A round holds at least one pass, so a run measures at least
    FAMILY_ROUNDS passes (20 to 35 s here) whatever ``seconds`` asks.
    """
    combos = [
        (spec, t, depth, digits)
        for spec in FAMILY_SPECS
        for t in FAMILY_T
        for depth, digits in FAMILY_WINDOWS
    ]
    rng = random.Random(seed)
    rounds = []
    for _ in range(FAMILY_ROUNDS):
        ops = []
        for _ in range(per_round(seconds, FAMILY_PASS_S, rounds=FAMILY_ROUNDS)):
            order = combos[:]
            rng.shuffle(order)
            ops.extend(order)
        rounds.append(ops)
    return rounds


def round_orders(seed: int, count: int) -> list:
    """ROUNDS seeded permutations of ``range(count)``."""
    rng = random.Random(seed)
    return [rng.sample(range(count), count) for _ in range(ROUNDS)]


def corpus_count(seconds: float) -> int:
    return per_round(seconds, 1.0 / CORPUS_OPS_PER_S, least=20)


def large_inputs(seed: int, seconds: float) -> list:
    """``(parents, weights)`` of random finite trees with n spread over LARGE_SIZES.

    The sizes are the midpoints of ``count`` equal slices of the range, in a
    seeded order, so every seed has the same mix of small and large trees;
    the seed draws the shapes and weights.  Every tenth tree gets complex
    weights.
    """
    import numpy as np

    count = per_round(seconds, 1.0 / LARGE_OPS_PER_S, least=12)
    rng = np.random.default_rng(seed)
    lo, hi = LARGE_SIZES
    width = hi - lo + 1
    sizes = [lo + int((i + 0.5) * width / count) for i in range(count)]
    out = []
    for pos, i in enumerate(rng.permutation(count)):
        n = sizes[i]
        parents = [None] + [int(rng.integers(0, j)) for j in range(1, n)]
        values = rng.uniform(*LARGE_WEIGHTS, size=n - 1).astype(np.complex128)
        if pos % 10 == 9:
            values *= np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n - 1))
        out.append((parents, values))
    return out


CLI_LABELS = ("analyze-paper", "analyze-descendant", "aluthge-weights", "witness", "oracle", "import")


def cli_schedule(seed: int, seconds: float) -> list:
    """ROUNDS rounds of whole cycles of the documented commands, as ``(label, argv)``.

    ``argv`` names spec files by family (``@paper``); the runner substitutes
    paths.  A ``None`` argv is the bare package import.
    """
    oracle_seed = random.Random(seed).randrange(2**31)
    cycle = [
        ("analyze-paper", ["analyze", "@paper", "--t", "0.5"]),
        ("analyze-descendant", ["analyze", "@descendant", "--t", "0.5"]),
        (
            "aluthge-weights",
            ["aluthge-weights", "@paper", "--t", "0.5", "--vertex", "1:3", "--vertex", "2:1,0"],
        ),
        ("witness", ["witness", "--t", "0.5", "--K", "40"]),
        (
            "oracle",
            ["oracle", "--random", "20", "--seed", str(oracle_seed), "--t", "0.1,0.5,0.9,1.0"],
        ),
        ("import", None),
    ]
    return [cycle * per_round(seconds, CLI_CYCLE_S) for _ in range(ROUNDS)]


# -- workloads ----------------------------------------------------------------
#
# A workload's ``setup()`` fills ``rounds``, a list of op lists.  Every
# op is ``(key, payload)``: ops with the same key run the same input, and the
# key's median time is its latency.  ``run(op)`` returns
# ``(elapsed_s, status, detail, report_bytes)``.


def _write_specs(workdir: str) -> dict:
    paths = {}
    for name, doc in FAMILY_SPECS.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


class FamilyAnalyze:
    """In-process ``treeshift.cli.main(["analyze", ...])`` on the built-in family."""

    name = "family-analyze"

    def __init__(self, seed: int, seconds: float, workdir: str, root: str):
        self.schedule = family_schedule(seed, seconds)
        self.workdir = workdir
        self.ledger = ByteLedger()

    def setup(self) -> None:
        from treeshift import cli

        self.cli = cli
        self.paths = _write_specs(self.workdir)
        for spec in FAMILY_SPECS:
            self._execute((spec, "0.5", 2, 3))
        self.rounds = [[(combo, combo) for combo in ops] for ops in self.schedule]

    def _execute(self, combo):
        spec, t, depth, digits = combo
        argv = ["analyze", self.paths[spec], "--t", t, "--depth", str(depth), "--digits", str(digits)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def run(self, op):
        combo = op[1]
        start = time.perf_counter()
        try:
            code, text = self._execute(combo)
        except Exception as exc:  # an op that raises is a counted failure
            return time.perf_counter() - start, ERROR, f"{combo}: {type(exc).__name__}: {exc}", 0
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, ERROR, f"{combo}: exit code {code}", len(text)
        problem = check_analyze(text) or self.ledger.check(combo, text)
        return elapsed, (WRONG if problem else OK), problem or "", len(text)


class OracleWorkload:
    """``oracle.compare_with_formula`` on one finite tree per op.

    Subclasses provide ``trees()``: one fresh list of ``(tree, weights)`` per
    call, the same inputs every time.  The op key is the index in that list.
    """

    t_values: tuple = ()

    def __init__(self, seed: int, seconds: float, workdir: str, root: str):
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        from treeshift import oracle

        self.oracle = oracle
        warm = self.trees()
        self._execute(min(warm, key=lambda op: len(op[0])))
        self.rounds = []
        for order in round_orders(self.seed, len(warm)):
            trees = self.trees()
            self.rounds.append([(i, trees[i]) for i in order])

    def _execute(self, pair):
        tree, weights = pair
        return self.oracle.compare_with_formula(weights, tree, t_values=self.t_values)

    def run(self, op):
        pair = op[1]
        start = time.perf_counter()
        try:
            report = self._execute(pair)
        except Exception as exc:  # an op that raises is a counted failure
            return time.perf_counter() - start, ERROR, f"n={len(pair[0])}: {type(exc).__name__}: {exc}", 0
        elapsed = time.perf_counter() - start
        problem = check_comparison(report)
        return elapsed, (WRONG if problem else OK), problem or "", 0


class OracleCorpus(OracleWorkload):
    """The CLI's seeded random corpus: trees of at most 40 vertices, a tenth complex."""

    name = "oracle-corpus"
    t_values = CORPUS_T

    def trees(self) -> list:
        count = corpus_count(self.seconds)
        return self.oracle.random_tree_corpus(
            count, self.seed, max_vertices=CORPUS_MAX_VERTICES, complex_count=count // 10
        )


class OracleLarge(OracleWorkload):
    """Harness-built trees of 120 to 300 vertices with tabulated weights."""

    name = "oracle-large"
    t_values = LARGE_T

    def __init__(self, seed: int, seconds: float, workdir: str, root: str):
        super().__init__(seed, seconds, workdir, root)
        self.raw = large_inputs(seed, seconds)

    def trees(self) -> list:
        from treeshift.trees import finite_tree
        from treeshift.weights import TableWeights

        out = []
        for parents, values in self.raw:
            tree = finite_tree(parents)
            out.append((tree, TableWeights(tree, {v: values[v - 1] for v in range(1, len(parents))})))
        return out


class CliCold:
    """A fresh ``python -m treeshift.cli`` process per op, as a user runs it."""

    name = "cli-cold"

    def __init__(self, seed: int, seconds: float, workdir: str, root: str):
        self.schedule = cli_schedule(seed, seconds)
        self.workdir = workdir
        self.root = root
        self.ledger = ByteLedger()
        self.trace_parts = None  # list of dump paths while a traced phase runs

    def setup(self) -> None:
        self.paths = _write_specs(self.workdir)
        self._execute(("import", None))
        self.rounds = [[(label, (label, argv)) for label, argv in ops] for ops in self.schedule]

    def _command(self, argv):
        if argv is not None:
            argv = [self.paths[a[1:]] if a.startswith("@") else a for a in argv]
        if self.trace_parts is None:
            if argv is None:
                return [sys.executable, "-c", "import treeshift"]
            return [sys.executable, "-m", "treeshift.cli", *argv]
        dump = os.path.join(self.workdir, f"trace-{len(self.trace_parts)}.json")
        self.trace_parts.append(dump)
        entry = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_entry.py")
        rest = ["--import-only"] if argv is None else argv
        return [sys.executable, entry, dump, str(len(self.trace_parts) - 1), *rest]

    def _execute(self, command):
        label, argv = command
        return subprocess.run(
            self._command(argv),
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=CLI_OP_TIMEOUT_S,
        )

    def run(self, op):
        label, argv = op[1]
        start = time.perf_counter()
        try:
            proc = self._execute(op[1])
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, ERROR, f"{label}: timed out", 0
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            return elapsed, ERROR, f"{label}: exit code {proc.returncode}: {last[0]}", 0
        text = proc.stdout
        if label.startswith("analyze"):
            problem = check_analyze(text)
        elif label == "aluthge-weights":
            problem = check_aluthge_weights(text, ("1:3", "2:1,0"))
        elif label == "witness":
            problem = check_witness(text, 40)
        elif label == "oracle":
            problem = check_oracle_report(text)
        else:
            problem = None if text == "" else "bare import printed to stdout"
        problem = problem or self.ledger.check(tuple(argv or ()), text)
        return elapsed, (WRONG if problem else OK), problem or "", len(text) if argv else 0


WORKLOADS = {cls.name: cls for cls in (FamilyAnalyze, OracleCorpus, OracleLarge, CliCold)}
