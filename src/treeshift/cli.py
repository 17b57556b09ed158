"""Command-line front end: load trees and weights, run analyses, emit reports.

One JSON report per run goes to standard output, written by ``emit`` byte for
byte as ``json.dumps(report, sort_keys=True, indent=2)`` would: sorted keys,
so reruns are byte-identical, only the types reports hold, and each container
shared within a report encoded once per call.  A short human summary goes to
standard error.  Exit codes: 0 success, 1 usage or parse problem, 2
verdict-level failure (oracle mismatch, missing witness), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from . import __version__, analysis
from .errors import NoWitnessError, OracleError, TreeShiftError
from .operators import basis_vector
from .trees import (
    OmegaVertex,
    SampleWindow,
    descendant_subtree,
    finite_tree,
    format_vertex,
    int_path,
    nat_path,
    omega_tree,
    sample_vertices,
)
from .weights import CallableWeights, OmegaShiftWeights, TableWeights, aluthge_weights, polar_weights

ORACLE_TOLERANCE = 1e-8
_MAX_RANDOM = 10_000  # trees ``oracle --random`` builds before its first comparison
_MAX_ORACLE_VERTICES = 4_000  # a complex tree of this size peaks near 1.3 GB, growing as n^2


class ParseError(TreeShiftError):
    pass


# -- tree specification files -------------------------------------------


def load_tree_spec(path: str):
    """Read a tree file, a built-in family or explicit edge list, into ``(weights, meta)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"parse error at position {exc.pos} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    if "family" in doc:
        return _family_spec(doc)
    if "vertices" in doc or "edges" in doc:
        return _explicit_spec(doc)
    raise ParseError("document needs either a 'family' field or 'vertices'/'edges'")


def _family_spec(doc: dict):
    family = doc.get("family")
    if family in ("paper", "omega"):
        return OmegaShiftWeights(omega_tree()), {"doc": doc}
    if family == "descendant":
        apex_doc = doc.get("apex", {"level": 0, "digits": []})
        try:
            level = _integral(apex_doc["level"])
            apex = OmegaVertex.make(level, [_integral(d) for d in apex_doc.get("digits", [])])
        except (KeyError, TypeError, ValueError, OverflowError, TreeShiftError) as exc:
            raise ParseError(f"bad 'apex' field: {exc}") from exc
        return OmegaShiftWeights(descendant_subtree(omega_tree(), apex)), {"doc": doc}
    if family in ("nat_path", "int_path"):
        tree = nat_path() if family == "nat_path" else int_path()
        fn = _path_weight_fn(doc.get("weights", {"kind": "constant", "value": 1.0}), family)
        return CallableWeights(tree, fn), {"doc": doc}
    raise ParseError(f"unknown family {family!r}")


def _integral(value) -> int:
    """An apex level or digit: a JSON integer, or a float with an integral value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _path_weight_fn(spec: dict, family: str):
    if not isinstance(spec, dict):
        raise ParseError(f"'weights' must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "constant":
        value = _parse_number(spec.get("value", 1.0), "'weights' field 'value'", real=False)
        return lambda v: value
    if kind == "geometric":
        base = _parse_number(spec.get("base", 2.0), "'weights' field 'base'", real=True)
        if base == 0.0 and family == "int_path":
            raise ParseError("'weights' field 'base' must be nonzero on int_path, which has negative vertices")
        scale = _parse_number(spec.get("scale", 1.0), "'weights' field 'scale'", real=False)

        def geometric(v):
            try:
                weight = scale * base**v  # float ** raises where it should give inf
            except OverflowError:
                weight = math.inf
            if not cmath.isfinite(weight):
                raise OverflowError(f"path weight at {v} overflows")
            return weight

        return geometric
    raise ParseError(f"unknown path weight kind {kind!r} (use 'constant' or 'geometric')")


def _explicit_spec(doc: dict):
    names = doc.get("vertices")
    edges = doc.get("edges")
    if not isinstance(names, list) or not names:
        raise ParseError("'vertices' must be a non-empty list of names")
    if len(set(map(str, names))) != len(names):
        raise ParseError("'vertices' contains duplicate names")
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list")
    index = {str(name): i for i, name in enumerate(names)}
    parents: list = [None] * len(names)
    table: dict = {}
    for pos, edge in enumerate(edges):
        if not isinstance(edge, dict):
            raise ParseError(f"edge #{pos}: must be an object with 'parent', 'child' and 'weight'")
        try:
            parent = index[str(edge["parent"])]
            child = index[str(edge["child"])]
            weight = _parse_number(edge["weight"], f"edge #{pos}: weight", real=False)
        except KeyError as exc:
            raise ParseError(f"edge #{pos}: missing or unknown field {exc}") from exc
        if parents[child] is not None:
            raise ParseError(f"edge #{pos}: vertex {edge['child']!r} has two parents")
        parents[child] = parent
        table[child] = weight
    try:
        tree = finite_tree(parents)
    except TreeShiftError as exc:
        raise ParseError(f"bad tree structure: {exc}") from exc
    return TableWeights(tree, table), {"doc": doc, "names": [str(n) for n in names]}


def _parse_number(value, what: str, *, real: bool):
    """A finite tree-file number: a JSON number or, unless ``real``, an
    ``[re, im]`` pair; strings and booleans are refused."""
    parts = value if not real and isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        try:
            number = complex(float(parts[0]), float(parts[1]))
            if cmath.isfinite(number):
                return number.real if real else number
        except OverflowError:  # an integer beyond the double range
            pass
    kind = "a number" if real else "a number or an [re, im] pair"
    raise ParseError(f"{what} must be finite, given as {kind}; got {value!r}")


def _vertex_label(meta: dict, v) -> str:
    names = meta.get("names")
    if names is not None and isinstance(v, int):
        return names[v]
    return format_vertex(v)


def parse_vertex(meta: dict, text: str):
    """Selector syntax: 'level:d1,d2,...' for digit-word vertices, an index or
    a declared name otherwise."""
    names = meta.get("names")
    if names is not None:
        if text in names:
            return names.index(text)
        raise ParseError(f"unknown vertex name {text!r}")
    if ":" in text:
        level_text, _, digit_text = text.partition(":")
        try:
            level = int(level_text)
            digits = [int(d) for d in digit_text.split(",") if d != ""]
            return OmegaVertex.make(level, digits)
        except (ValueError, TreeShiftError) as exc:
            raise ParseError(f"bad vertex selector {text!r}: {exc}") from exc
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"bad vertex selector {text!r}") from exc


# -- report serialization -------------------------------------------------


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def cert_dict(cert) -> dict:
    if cert is None:
        return None
    return {"kind": cert.kind, **vars(cert)}  # the fields are plain numbers


def _margin_dict(margins: dict) -> dict:
    return {
        key: {"value": m.value, "tail_bound": m.tail, "kind": m.kind}
        for key, m in margins.items()
    }


def _write(value, level: int, out: list, memo: dict) -> None:
    """Append the JSON text of ``value``, indented from ``level``, to ``out``.

    ``memo`` maps ``(id(container), level)`` to the container's text, so a
    container the report holds many times is encoded once per level.  Ids
    stay unique because the report keeps every container alive meanwhile.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ArithmeticError(f"the report holds a non-finite value ({value!r})")
        out.append(float.__repr__(value))
    else:
        key = (id(value), level)
        text = memo.get(key)
        if text is None:
            start = len(out)
            inner = "\n" + "  " * (level + 1)
            if isinstance(value, (list, tuple)):
                brackets = "[]"
                for item in value:
                    out.append(inner)
                    _write(item, level + 1, out, memo)
                    out.append(",")
            elif isinstance(value, dict):
                brackets = "{}"
                for k, item in sorted(value.items()):  # a non-str key raises TypeError
                    out.append(inner + encode_basestring_ascii(k) + ": ")
                    _write(item, level + 1, out, memo)
                    out.append(",")
            else:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            if len(out) == start:
                text = brackets
            else:
                out[-1] = "\n" + "  " * level + brackets[1]
                text = brackets[0] + "".join(out[start:])
                del out[start:]
            memo[key] = text
        out.append(text)


def emit(report: dict, summary_lines: list[str]) -> None:
    """Print the report byte for byte as ``json.dumps(report, sort_keys=True,
    indent=2)`` would, then the summary lines to standard error.

    Only the types reports hold are accepted (dict with str keys, list, tuple,
    str, int, float, bool, None); any other raises ``TypeError``.  A non-finite
    value raises ``ArithmeticError`` (exit 3) before anything is printed.  The
    memo that encodes each shared container once lives for this one call.
    """
    out: list = []
    _write(report, 0, out, {})
    out.append("\n")
    sys.stdout.write("".join(out))
    for line in summary_lines:
        sys.stderr.write(line + "\n")


# -- subcommands -----------------------------------------------------------


def _check_at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise ParseError(f"{flag} must be at least {low}, got {value}")
    return value


def _sample_from(args, tree) -> list:
    return sample_vertices(tree, SampleWindow(
        digit_bound=_check_at_least(args.digits, 0, "--digits"),
        depth_bound=_check_at_least(args.depth, 0, "--depth"),
        seed=args.sample_seed,
    ))


def _check_t(t: float, *, open_top: bool = False) -> float:
    if open_top:
        if not 0 < t < 1:
            raise ParseError(f"t must lie in (0, 1), got {t}")
    elif not 0 < t <= 1:
        raise ParseError(f"t must lie in (0, 1], got {t}")
    return t


def cmd_analyze(args) -> int:
    weights, meta = load_tree_spec(args.file)
    t = _check_t(args.t)
    sample = _sample_from(args, weights.tree)
    density = analysis.check_densely_defined(weights, sample)
    hypo = analysis.check_hyponormal(weights, sample)
    trivial = analysis.certify_trivial_aluthge_domain(weights, t, sample)
    # One dict per distinct certificate object, so ``emit`` encodes each once.
    # Matched by identity: equality would merge 1 with 1.0 and 0.0 with -0.0.
    certs = {id(c): c for c in trivial.per_vertex.values()}
    cert_dicts = {i: cert_dict(c) for i, c in certs.items()}
    report = {
        "command": "analyze",
        "version": __version__,
        "seed": args.sample_seed,
        "inputs": {"file": meta["doc"], "t": t, "depth": args.depth, "digits": args.digits},
        "verdicts": {
            "densely_defined": {
                "status": density.status,
                "counterexample": None
                if density.counterexample is None
                else _vertex_label(meta, density.counterexample),
                "notes": density.notes,
            },
            "hyponormal": {
                "verdict": hypo.verdict,
                "family_level": hypo.family_level,
                "margins": _margin_dict(hypo.margins),
                "witness": None
                if hypo.witness is None
                else [_vertex_label(meta, hypo.witness[0]), hypo.witness[1]],
                "notes": hypo.notes,
            },
            "aluthge_domain": {
                "status": trivial.status,
                "t": t,
                "family_certificate": cert_dict(trivial.family_certificate),
                "per_vertex": {k: cert_dicts[id(c)] for k, c in trivial.per_vertex.items()},
                "refuted_vertex": None
                if trivial.refuted_vertex is None
                else _vertex_label(meta, trivial.refuted_vertex),
            },
        },
    }
    emit(
        report,
        [
            f"densely defined: {density.status}",
            f"hyponormal: {hypo.verdict}"
            + (
                f" (margin {hypo.margins['family'].value:.4f} certified < 1)"
                if "family" in hypo.margins
                else ""
            ),
            f"aluthge domain at t={t}: {trivial.status}",
        ],
    )
    return 0


def cmd_aluthge_weights(args) -> int:
    weights, meta = load_tree_spec(args.file)
    tree = weights.tree
    t = _check_t(args.t)
    limit = _check_at_least(args.limit, 0, "--limit")
    if args.vertex:
        chosen = [parse_vertex(meta, text) for text in args.vertex]
    else:
        chosen = [v for v in _sample_from(args, tree) if tree.parent(v) is not None]
        chosen = chosen[:limit]
    mu = aluthge_weights(weights, t)
    pi = polar_weights(weights)
    rows = []
    for v in chosen:
        if tree.parent(v) is None:
            raise ParseError(f"vertex {_vertex_label(meta, v)} is the root; it has no weight")
        rows.append(
            {
                "vertex": _vertex_label(meta, v),
                "weight": _pair(weights.weight(v)),
                "aluthge": _pair(mu.weight(v)),
                "polar": _pair(pi.weight(v)),
            }
        )
    report = {
        "command": "aluthge-weights",
        "version": __version__,
        "seed": args.sample_seed,
        "inputs": {"file": meta["doc"], "t": t},
        "table": rows,
    }
    emit(report, [f"{len(rows)} vertices at t={t}"])
    return 0


def cmd_oracle(args) -> int:
    t_values = [_check_t(float(x)) for x in args.t.split(",") if x]
    if not t_values:
        raise ParseError("--t needs at least one value")
    if len(set(t_values)) < len(t_values):  # each instance reports one key per value
        raise ParseError(f"--t lists {max(t_values, key=t_values.count)} more than once")
    if args.random is not None:
        _check_at_least(args.random, 1, "--random")
        if args.random > _MAX_RANDOM:
            raise ParseError(f"--random must be at most {_MAX_RANDOM:,}, got {args.random:,}")
        _check_at_least(args.seed, 0, "--seed")
    elif args.file is None:
        raise ParseError("oracle needs a tree file or --random N")
    from . import oracle  # numpy loads here; no other command needs it

    if args.random is not None:
        instances = oracle.random_tree_corpus(
            args.random, args.seed, complex_count=max(1, args.random // 10)
        )
        source = {"random": args.random, "seed": args.seed}
    else:
        weights, meta = load_tree_spec(args.file)
        if not weights.tree.is_finite:
            raise ParseError("oracle requires a finite tree")
        count = len(weights.tree.vertices())
        if count > _MAX_ORACLE_VERTICES:
            raise ParseError(f"oracle takes a tree of at most {_MAX_ORACLE_VERTICES:,} vertices, got {count:,}")
        instances = [(weights.tree, weights)]
        source = {"file": meta["doc"]}

    worst = 0.0
    disagreements = 0
    per_instance = []
    for tree, weights in instances:
        report = oracle.compare_with_formula(weights, tree, t_values=t_values)
        worst = max(worst, report.max_discrepancy())
        if not report.hyponormal_agree:
            disagreements += 1
        per_instance.append(report.to_dict())
    doc = {
        "command": "oracle",
        "version": __version__,
        "seed": args.seed,
        "inputs": {"source": source, "t_values": t_values, "tolerance": ORACLE_TOLERANCE},
        "max_discrepancy": worst,
        "hyponormality_disagreements": disagreements,
        "instances": per_instance,
    }
    ok = worst <= ORACLE_TOLERANCE and disagreements == 0
    emit(
        doc,
        [
            f"{len(per_instance)} instance(s), max discrepancy {worst:.3e}, "
            f"{disagreements} hyponormality disagreement(s)",
            "oracle: PASS" if ok else "oracle: FAIL",
        ],
    )
    return 0 if ok else 2


def cmd_witness(args) -> int:
    t = _check_t(args.t, open_top=True)
    _check_at_least(args.K, 0, "--K")
    if not math.isfinite(args.threshold):
        raise ParseError(f"--threshold must be finite, got {args.threshold}")
    v = parse_vertex({}, args.vertex)
    if not isinstance(v, OmegaVertex):
        raise ParseError("witness vertices use the 'level:d1,d2' selector")
    weights = OmegaShiftWeights()
    witness = analysis.nonclosability_witness(
        weights, t, basis_vector(v), terms=args.K, threshold=args.threshold
    )
    report = {
        "command": "witness",
        "version": __version__,
        "seed": 0,
        "inputs": {"t": t, "vertex": args.vertex, "K": args.K, "threshold": args.threshold},
        "base_vertex": format_vertex(witness.base_vertex),
        "adjoint_coefficient": _pair(witness.adjoint_coefficient),
        "partial_sums": list(witness.partial_sums),
        "crossing_index": witness.crossing_index,
        "ratio_limit": witness.ratio_limit,
        "growth_certificate": cert_dict(witness.certificate),
        "probe_vertices": list(witness.probe_vertices),
    }
    crossed = (
        f"threshold {witness.threshold:g} crossed at K={witness.crossing_index}"
        if witness.crossing_index is not None
        else f"threshold {witness.threshold:g} not crossed in {args.K} terms"
    )
    lines = [crossed, f"term ratio tends to {witness.ratio_limit:.6f}"]
    if len(witness.partial_sums) < args.K:
        lines.append(f"partial sums end after {len(witness.partial_sums)} terms; the next overflows")
    emit(report, lines)
    return 0


# -- entry point ------------------------------------------------------------


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Weighted shifts on directed trees: analyses, transforms, oracle checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="density, hyponormality and domain verdicts")
    analyze.add_argument("file")
    analyze.add_argument("--t", type=float, default=0.5)
    analyze.add_argument("--depth", type=int, default=3)
    analyze.add_argument("--digits", type=int, default=3)
    analyze.add_argument("--sample-seed", type=int, default=0)
    analyze.set_defaults(func=cmd_analyze)

    alw = sub.add_parser("aluthge-weights", help="transformed and polar weights per vertex")
    alw.add_argument("file")
    alw.add_argument("--t", type=float, default=0.5)
    alw.add_argument("--vertex", action="append", default=[])
    alw.add_argument("--limit", type=int, default=12)
    alw.add_argument("--depth", type=int, default=3)
    alw.add_argument("--digits", type=int, default=3)
    alw.add_argument("--sample-seed", type=int, default=0)
    alw.set_defaults(func=cmd_aluthge_weights)

    orc = sub.add_parser("oracle", help="dense-matrix cross-validation of the formulas")
    orc.add_argument("file", nargs="?")
    orc.add_argument("--random", type=int, default=None, metavar="N")
    orc.add_argument("--seed", type=int, default=42)
    orc.add_argument("--t", default="0.5")
    orc.set_defaults(func=cmd_oracle)

    wit = sub.add_parser("witness", help="divergent pairing sums for the adjoint transform")
    wit.add_argument("--t", type=float, required=True)
    wit.add_argument("--vertex", default="1:")
    wit.add_argument("--K", type=int, default=60)
    wit.add_argument("--threshold", type=float, default=1e6)
    wit.set_defaults(func=cmd_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except NoWitnessError as exc:
        sys.stderr.write(f"no witness: {exc}\n")
        return 2
    except (OracleError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (TreeShiftError, ValueError) as exc:  # ParseError included
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
