"""Layer spans and counters for treeshift, installed from outside the package.

Wrappers replace the public functions of each layer on every attribute a
caller resolves: the defining module and every treeshift module that
re-imported the same object (``oracle.adjoint_aluthge_basis_action``,
``cli.sample_vertices``, ...), plus the methods of the weight classes.

Every wrapped call is timed on one stack, so each function gets calls,
inclusive time and self time (inclusive minus wrapped children).  Coarse
functions also keep a span ``(name, start, end, parent, op_id)`` in memory;
per-vertex functions, called hundreds of thousands of times a run, keep only
their totals.  ``dump`` writes everything out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("trees", "series", "weights", "operators", "analysis", "oracle", "cli")

# Public functions per layer; True keeps a span per call, False totals only.
FUNCTIONS = {
    "trees": {"sample_vertices": True, "finite_tree": False, "descendant_subtree": False},
    "series": {
        "inverse_square_sum": False,
        "verify_certificate": False,
        "sum_series": False,
        "closed_form_aggregate": False,
    },
    "weights": {"aluthge_weights": False, "polar_weights": False},
    "operators": {
        "adjoint_aluthge_basis_action": False,
        "aluthge_basis_action": False,
        "apply_adjoint": False,
        "domain_check": False,
        "expand": False,
    },
    "analysis": {
        "check_densely_defined": True,
        "check_hyponormal": True,
        "certify_trivial_aluthge_domain": True,
        "nonclosability_witness": True,
    },
    "oracle": {
        "compare_with_formula": True,
        "assemble": True,
        "polar": True,
        "psd_power": False,
        "left_psd_power": False,
        "projection_sum_matrix": True,
        "dense_hyponormal_defect": True,
        "dense_vector": False,
    },
    "cli": {
        "main": True,
        "load_tree_spec": True,
        "emit": True,
        "cmd_analyze": True,
        "cmd_aluthge_weights": True,
        "cmd_oracle": True,
        "cmd_witness": True,
    },
}

ORACLE_DENSE = ("oracle.polar", "oracle.psd_power", "oracle.left_psd_power", "oracle.dense_hyponormal_defect")
ORACLE_FORMULA = (
    "oracle.assemble",
    "oracle.projection_sum_matrix",
    "oracle.dense_vector",
    "operators.adjoint_aluthge_basis_action",
)


class Tracer:
    """Call totals, spans and counters for one process."""

    def __init__(self):
        self.stats: dict = {}  # name -> [calls, inclusive_ns, self_ns]
        self.spans: list = []  # (name, start_ns, end_ns, parent_index, op_id)
        self.counters: dict = {}
        self.op_id = None
        self._stack: list = []  # [start_ns, child_ns, span_index] per open call
        self._pairs: dict = {}  # id(system) -> (system, vertices seen) for the current op
        self._undo: list = []
        self._origin = time.perf_counter_ns()

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self._pairs = {}

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_aggregate(self, system, vertex) -> None:
        """Count a (system, vertex) pair the first time this op asks for it.

        The systems are held until the next op so that a freed system's id
        cannot be reused by a new one within the op.
        """
        entry = self._pairs.get(id(system))
        if entry is None:
            entry = self._pairs[id(system)] = (system, set())
        if vertex not in entry[1]:
            entry[1].add(vertex)
            self.count("weights.aggregate.distinct")

    def timed(self, name: str, fn, keep_span: bool, before=None):
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0, 0])
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span_index = None
            if keep_span:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                span_index = len(spans)
                spans.append([name, 0, 0, parent, self.op_id])
            frame = [clock(), 0, span_index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span_index is not None:
                    spans[span_index][1] = frame[0] - self._origin
                    spans[span_index][2] = end - self._origin

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function on each attribute that resolves to it."""
        import treeshift  # noqa: F401  (loads every layer module)

        modules = {layer: importlib.import_module(f"treeshift.{layer}") for layer in LAYERS}
        modules["treeshift"] = importlib.import_module("treeshift")
        hooks = {
            "oracle.polar": lambda matrix, *a, **k: self._note_svd(matrix),
        }
        for layer, names in FUNCTIONS.items():
            for attr, keep_span in names.items():
                original = getattr(modules[layer], attr)
                name = f"{layer}.{attr}"
                wrapped = self.timed(name, original, keep_span, hooks.get(name))
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, wrapped)

        trees, weights = modules["trees"], modules["weights"]
        make = trees.OmegaVertex.__dict__["make"].__func__
        self._replace(
            trees.OmegaVertex, "make", classmethod(self.timed("trees.OmegaVertex.make", make, False))
        )
        self._replace(
            weights.WeightSystem,
            "aggregate",
            self.timed(
                "weights.aggregate",
                weights.WeightSystem.aggregate,
                False,
                lambda system, u: self.note_aggregate(system, u),
            ),
        )
        self._replace(
            weights.WeightSystem,
            "node_norm",
            self.timed("weights.node_norm", weights.WeightSystem.node_norm, False),
        )
        for cls in vars(weights).values():
            if isinstance(cls, type) and issubclass(cls, weights.WeightSystem) and "weight" in cls.__dict__:
                self._replace(cls, "weight", self.timed("weights.weight", cls.__dict__["weight"], False))
        for cls in (weights.PolarWeights, weights.AluthgeWeights):
            init = cls.__dict__["__init__"]
            self._replace(cls, "__init__", self._counting(init, "weights.derived_systems"))

    def _counting(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _note_svd(self, matrix) -> None:
        n = len(matrix)
        self.count("oracle.svd.calls")
        self.count("oracle.svd.n3_sum", n**3)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(v) for name, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op_id": s[4]}
                for s in self.spans
            ],
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(into: dict, part: dict) -> None:
    """Add one process's snapshot to a running total.

    Spans are appended with their parent indices shifted to the merged list.
    """
    for name, (calls, incl, self_ns) in part["stats"].items():
        total = into["stats"].setdefault(name, [0, 0, 0])
        total[0] += calls
        total[1] += incl
        total[2] += self_ns
    for name, value in part["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    offset = len(into["spans"])
    for span in part["spans"]:
        if span["parent"] is not None:
            span = {**span, "parent": span["parent"] + offset}
        into["spans"].append(span)


def empty_snapshot() -> dict:
    return {"stats": {}, "counters": {}, "spans": []}
