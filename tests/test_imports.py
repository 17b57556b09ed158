"""Every name a package module imports is used in that module, every
function a package module defines is used somewhere, src adds no defaulted
parameter past its ceiling, the analysis layer reaches family facts only
through weight-system hooks, reads no vertex attribute, only ``WeightSystem``
defines ``child_terms``, numpy loads only with the oracle, and the CLI writes
reports through its own writer alone.

``__init__.py`` is exempt from the first check: its imports are the public
re-exports.
"""

import ast
import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treeshift"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = "import math\nfrom .trees import OmegaVertex, nat_path\n\nnat_path()\n"
    assert unused_imports(source) == ["OmegaVertex (line 2)", "math (line 1)"]


def dead_names(definitions: list, code: list, texts=()) -> list:
    """Non-dunder ``def`` names in the ``definitions`` sources that no
    ``code`` source references, as a name or an attribute, and no ``texts``
    mention.  Imports and ``__all__`` strings are not references, so a name
    that is only exported stays dead."""
    defined = {
        node.name
        for source in definitions
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = set()
    for source in code:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for text in texts:
        used.update(re.findall(r"\w+", text))
    return sorted(defined - used)


def test_every_defined_function_is_used():
    # bench/tracer.py wraps functions by their names as strings, and the
    # README example is code in a text.
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    code = [*MODULES, *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("bench/*.py"))]
    texts = [ROOT / "README.md", ROOT / "bench" / "tracer.py"]
    assert dead_names(
        sources,
        [p.read_text(encoding="utf-8") for p in code],
        [p.read_text(encoding="utf-8") for p in texts],
    ) == []


def test_dead_name_check_flags_an_unused_function():
    source = (
        "def used():\n    return 1\n\n\n"
        "class Planted:\n"
        "    def never_called(self):\n        return used()\n\n"
        "    def __repr__(self):\n        return 'Planted()'\n"
    )
    assert dead_names([source], [source, "Planted().__repr__()"]) == ["never_called"]


def test_dead_name_check_flags_an_exported_orphan():
    # Defined, listed in ``__all__`` and re-exported, but never called.
    module = "__all__ = ['orphan', 'used']\n\n\ndef orphan():\n    return 1\n\n\ndef used():\n    return 2\n"
    init = "from .module import orphan, used\n\n__all__ = ['orphan', 'used']\n"
    caller = "from treeshift import used\n\nused()\n"
    assert dead_names([module, init], [module, caller]) == ["orphan"]


# Every parameter with a default is an option a caller may leave out.  ROADMAP
# aim 2 tracks this count; a change that adds a default raises the ceiling and
# gives its reason in CHANGES.md.
MAX_DEFAULTED_PARAMETERS = 33


def defaulted_parameters(source: str) -> int:
    """Parameters with a default in the ``def`` and ``lambda`` signatures of a module."""
    return sum(
        len(node.args.defaults) + sum(default is not None for default in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def test_src_adds_no_defaulted_parameter():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert sum(map(defaulted_parameters, sources)) <= MAX_DEFAULTED_PARAMETERS


def test_default_counter_counts_planted_defaults():
    source = (
        "def f(a, b=1, *args, c, d=2, e=None, **kw):\n    return lambda x, y=3: x\n\n\n"
        "def g(a=1, /, b=2):\n    pass\n\n\n"
        "class C:\n    async def h(self, p, q=()):\n        pass\n"
    )
    assert defaulted_parameters(source) == 7


# The hooks through which a weight system states its family's analytic facts.
FAMILY_HOOKS = (
    "closed_form_total",
    "_closed_form",
    "_aluthge_closed_form",
    "_aluthge_unit_terms",
    "_family_margin",
    "_pairing_growth",
)


def imported_family_classes(source: str) -> list:
    """Names imported from ``weights`` (at any level of the module) that are
    weight-system subclasses overriding a family hook."""
    from treeshift import weights

    imported = {
        alias.name: getattr(weights, alias.name, None)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "weights"
        for alias in node.names
    }
    return sorted(
        name
        for name, cls in imported.items()
        if isinstance(cls, type)
        and issubclass(cls, weights.WeightSystem)
        and cls is not weights.WeightSystem
        and any(hook in vars(cls) for hook in FAMILY_HOOKS)
    )


def test_analysis_names_no_family_class():
    source = (PACKAGE / "analysis.py").read_text(encoding="utf-8")
    assert imported_family_classes(source) == []


def test_layering_checker_flags_a_family_class():
    source = "def f():\n    from .weights import CallableWeights, OmegaShiftWeights, WeightSystem\n"
    assert imported_family_classes(source) == ["OmegaShiftWeights"]


def vertex_attribute_reads(source: str) -> list:
    """Attribute reads in a module that name a field or property of the
    family's vertices (``digit_sum``, ``digits``, ...)."""
    from treeshift.trees import OmegaVertex

    fields = {f.name for f in dataclasses.fields(OmegaVertex)}
    properties = {name for name, value in vars(OmegaVertex).items() if isinstance(value, property)}
    return sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in fields | properties
    )


def test_analysis_reads_no_vertex_attribute():
    # How vertices share a certificate stream is the weight system's to say,
    # through ``_aluthge_unit_terms``; the analysis never reads a vertex's digits.
    assert vertex_attribute_reads((PACKAGE / "analysis.py").read_text(encoding="utf-8")) == []


def test_vertex_attribute_check_flags_planted_reads():
    source = (
        "def certify(w, u, seen):\n"
        "    key = u.digit_sum\n"
        "    seen.add((key, u.digits[-1], u.level))\n"
        "    return w._aluthge_unit_terms(0.5, key), u.child(0)\n"
    )
    assert vertex_attribute_reads(source) == ["digit_sum (line 2)", "digits (line 3)", "level (line 3)"]


# The transformed system checks its base's divergence claim where it takes the
# claim in, so the analysis reaches no child stream, unit stream included.
STREAM_HOOKS = ("_aluthge_unit_terms", "child_terms")


def stream_hook_names(source: str) -> list:
    """Names, attributes and imported names in a module that are stream hooks."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(f"{name} (line {node.lineno})" for name in names if name in STREAM_HOOKS)
    return sorted(found)


def test_analysis_names_no_stream_hook():
    assert stream_hook_names((PACKAGE / "analysis.py").read_text(encoding="utf-8")) == []


def test_stream_hook_check_flags_planted_names():
    source = (
        "from .weights import child_terms\n\n\n"
        "def certify(w, mu, u, cert):\n"
        "    unit = w._aluthge_unit_terms(mu.t, cert.start)\n"
        "    terms = mu.child_terms(u, cert.start)\n"
        "    return unit, terms, mu.weight(u), child_terms\n"
    )
    assert stream_hook_names(source) == [
        "_aluthge_unit_terms (line 5)",
        "child_terms (line 1)",
        "child_terms (line 6)",
        "child_terms (line 7)",
    ]


def child_term_definers(source: str) -> list:
    """Classes in a module, other than ``WeightSystem``, that define
    ``child_terms`` by a ``def`` or an assignment."""
    return sorted(
        f"{node.name} (line {item.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name != "WeightSystem"
        for item in node.body
        if getattr(item, "name", None) == "child_terms"
        or any(getattr(target, "id", None) == "child_terms" for target in getattr(item, "targets", ()))
    )


# A system's child terms are its squared weights, so a transform's terms
# cannot drift from its ``weight``: no subclass streams them by a formula of
# its own.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_base_class_defines_child_terms(path):
    assert child_term_definers(path.read_text(encoding="utf-8")) == []


def test_child_terms_check_flags_planted_definitions():
    source = (
        "class WeightSystem:\n"
        "    def child_terms(self, u, first=0):\n        return iter(())\n\n\n"
        "class Transformed(WeightSystem):\n"
        "    def weight(self, v):\n        return 1j\n\n"
        "    def child_terms(self, u, first=0):\n        return iter([1.0])\n\n\n"
        "class Aliased(WeightSystem):\n"
        "    child_terms = WeightSystem.child_terms\n"
    )
    assert child_term_definers(source) == ["Aliased (line 15)", "Transformed (line 10)"]


# The series verdicts; only ``operators.basis_domain_verdict`` turns one into
# a domain status.
SERIES_VERDICTS = ("Converges", "Diverges")


def verdict_readers(source: str) -> list:
    """Top-level functions (or ``<module>``) of a module that name a series
    verdict class, bare, as an attribute or in an import."""
    tree = ast.parse(source)

    def names(node) -> set:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                found.update(alias.name for alias in sub.names)
        return found & set(SERIES_VERDICTS)

    readers = set()
    for node in tree.body:
        if names(node):
            is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            readers.add(node.name if is_function else "<module>")
    return sorted(readers)


def test_one_function_classifies_series_verdicts():
    assert verdict_readers((PACKAGE / "analysis.py").read_text(encoding="utf-8")) == []
    assert verdict_readers((PACKAGE / "operators.py").read_text(encoding="utf-8")) == [
        "basis_domain_verdict"
    ]


def test_verdict_check_flags_a_planted_classification():
    source = (
        "from .series import Diverges\n\n\n"
        "def density(w, u):\n    return isinstance(w.aggregate(u), series.Converges)\n\n\n"
        "def untouched(w, u):\n    return w.node_norm(u)\n"
    )
    assert verdict_readers(source) == ["<module>", "density"]


# ``cli.emit`` is the one report writer: the CLI reaches the stdlib encoder
# through neither ``json.dumps`` nor ``json.dump``; ``json.load`` reads tree files.
JSON_WRITERS = ("dump", "dumps")


def json_writer_uses(source: str) -> list:
    """Uses of ``json.dump``/``json.dumps`` in a module, through any alias."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and node.attr in JSON_WRITERS:
                found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(f"{a.name} (line {node.lineno})" for a in node.names if a.name in JSON_WRITERS)
    return sorted(found)


def test_cli_has_one_report_writer():
    assert json_writer_uses((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_json_writer_check_flags_planted_uses():
    source = (
        "import json\n"
        "import json as j\n"
        "from json import dumps, load\n\n\n"
        "def emit(report, fh):\n"
        "    text = json.dumps(report, indent=2)\n"
        "    json.dump(report, fh)\n"
        "    return text, j.dumps(report), dumps(report), json.load(fh), load(fh)\n"
    )
    assert json_writer_uses(source) == ["dump (line 8)", "dumps (line 3)", "dumps (line 7)", "dumps (line 9)"]


# numpy serves only the dense oracle, so it loads with ``oracle`` and with
# nothing else: an import of either runs in a function body or not at all.
LAZY = ("numpy", "oracle")


def eager_imports(source: str) -> list:
    """Imports of numpy or of the ``oracle`` module that run when the module
    loads, that is anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                dotted = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = child.module or ""
                dotted = [base] + [f"{base}.{alias.name}" for alias in child.names]
            else:
                dotted = []
            parts = {part for name in dotted for part in name.split(".")}
            found.extend(f"{lazy} (line {child.lineno})" for lazy in LAZY if lazy in parts)
            visit(child)

    visit(ast.parse(source))
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_and_the_oracle_load_only_on_use(path):
    found = eager_imports(path.read_text(encoding="utf-8"))
    if path.name == "oracle.py":
        found = [entry for entry in found if not entry.startswith("numpy ")]
    assert found == []


def test_eager_import_check_flags_planted_imports():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import svd\n"
        "from . import analysis, oracle\n"
        "from .oracle import polar\n"
        "import treeshift.oracle\n"
        "try:\n    import numpy.random\nexcept ImportError:\n    pass\n"
        "from .trees import oracle_free\n\n\n"
        "def cmd_oracle(args):\n    from . import oracle\n    import numpy\n\n\n"
        "def __getattr__(name):\n    from .oracle import polar\n    return polar\n"
    )
    assert eager_imports(source) == [
        "numpy (line 1)",
        "numpy (line 2)",
        "numpy (line 7)",
        "oracle (line 3)",
        "oracle (line 4)",
        "oracle (line 5)",
    ]


# The benchmark's tracer counts ``oracle.polar`` calls as SVDs, so no other
# function may decompose: an SVD anywhere else would run uncounted.  Likewise
# ``oracle.dense_hyponormal_defect`` is the one eigen-solver site, so no
# other function can take the full n x n eigenvalue route it replaced.
EIGEN_SOLVERS = ("eigvalsh", "eigh", "eig", "eigvals")


def named_sites(source: str, names) -> list:
    """Each use of an attribute in ``names`` (``np.linalg.svd``, ``la.eigh``)
    or import of such a name, as ``function (line N)``; ``<module>`` at top
    level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr in names) or (
                isinstance(child, ast.ImportFrom) and any(a.name in names for a in child.names)
            ):
                found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def svd_sites(source: str) -> list:
    return named_sites(source, ("svd",))


def package_sites(names) -> list:
    return [
        f"{path.name}: {site.split(' (')[0]}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in named_sites(path.read_text(encoding="utf-8"), names)
    ]


def test_polar_is_the_only_svd_site():
    assert package_sites(("svd",)) == ["oracle.py: polar"]


def test_defect_is_the_only_eigen_solver_site():
    assert package_sites(EIGEN_SOLVERS) == ["oracle.py: dense_hyponormal_defect"]


PLANTED_DECOMPOSITIONS = (
    "import numpy as np\n"
    "import scipy.linalg as la\n"
    "from numpy.linalg import eigh, svd\n\n\n"
    "def polar(m):\n    return np.linalg.svd(m)\n\n\n"
    "class Oracle:\n    def rank(self, m):\n        return la.svd(m, compute_uv=False)\n\n\n"
    "def decompose(m):\n    return np.linalg.eigh(m), np.linalg.svd(m, full_matrices=False)\n\n\n"
    "def spectrum(m):\n    return np.linalg.eigvals(m), la.eig(m), np.linalg.eigvalsh(m)\n"
)


def test_svd_site_check_flags_planted_uses():
    assert svd_sites(PLANTED_DECOMPOSITIONS) == [
        "<module> (line 3)",
        "Oracle.rank (line 12)",
        "decompose (line 16)",
        "polar (line 7)",
    ]


def test_eigen_solver_site_check_flags_planted_uses():
    assert named_sites(PLANTED_DECOMPOSITIONS, EIGEN_SOLVERS) == [
        "<module> (line 3)",
        "decompose (line 16)",
        "spectrum (line 20)",
        "spectrum (line 20)",
        "spectrum (line 20)",
    ]


# The dense side is the independent ground truth, so ``oracle.polar`` factors
# T from the matrix alone: neither it nor any function or class of its module
# that it names may name the tree, a weight, a node norm or an aggregate, or
# anything imported from the modules that compute them.
FORMULA_NAMES = ("node_norm", "weight", "tree", "aggregate")
FORMULA_MODULES = ("trees", "weights")


def formula_reads(source: str, entry: str) -> list:
    """Each formula name read by ``entry`` or by a module-level function or
    class it names, directly or through another, as ``function: name (line N)``."""
    module = ast.parse(source)
    defs = {node.name: node for node in module.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    forbidden = set(FORMULA_NAMES)
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in FORMULA_MODULES:
            forbidden.update(alias.asname or alias.name for alias in node.names)
    found, seen, todo = [], set(), [entry]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                todo.append(node.id)
            word = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg"}.get(type(node))
            if word and getattr(node, word) in forbidden:
                found.append(f"{name}: {getattr(node, word)} (line {node.lineno})")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in FORMULA_MODULES:
                found.append(f"{name}: import from {node.module} (line {node.lineno})")
    return sorted(found)


def test_polar_reads_no_tree_or_weight():
    assert formula_reads((PACKAGE / "oracle.py").read_text(encoding="utf-8"), "polar") == []


def test_formula_read_check_flags_planted_reads():
    source = (
        "import numpy as np\n"
        "from .weights import TableWeights, node_norm as norm_of\n"
        "from .trees import finite_tree\n\n\n"
        "def polar(matrix):\n    return _scale(matrix) + Factors(matrix).size\n\n\n"
        "def _scale(matrix):\n    return matrix * norm_of(0) + _degree(matrix)\n\n\n"
        "def _degree(matrix, tree=None):\n    return len(finite_tree([None]).vertices())\n\n\n"
        "class Factors:\n    def size(self, w):\n"
        "        from treeshift.weights import aluthge_weights\n        return w.weight(1)\n\n\n"
        "def unrelated(w):\n    return w.aggregate(0), TableWeights\n"
    )
    assert formula_reads(source, "polar") == [
        "Factors: import from treeshift.weights (line 20)",
        "Factors: weight (line 21)",
        "_degree: finite_tree (line 15)",
        "_degree: tree (line 14)",
        "_scale: norm_of (line 11)",
    ]


ORACLE_NAMES = ("assemble", "compare_with_formula", "matrix_aluthge", "polar", "random_tree_corpus")


def test_oracle_names_are_the_oracle_modules():
    import treeshift
    from treeshift import assemble, compare_with_formula, matrix_aluthge, polar, random_tree_corpus

    oracle = sys.modules["treeshift.oracle"]
    assert treeshift.oracle is oracle
    names = (assemble, compare_with_formula, matrix_aluthge, polar, random_tree_corpus)
    for name, value in zip(ORACLE_NAMES, names):
        assert value is getattr(oracle, name)


def test_unknown_package_name_is_an_attribute_error():
    import treeshift

    with pytest.raises(AttributeError, match="module 'treeshift' has no attribute 'no_such_name'"):
        treeshift.no_such_name


# pytest's ``filterwarnings`` setting imports numpy into this process, so each
# probe runs in a fresh interpreter and reports its exit code and whether
# numpy was loaded.
PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import treeshift
    code = 0
elif argv == []:
    import treeshift.cli
    code = 0
else:
    from treeshift import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (None, False),
        ([], False),
        (["analyze", "{paper}"], False),
        (["witness", "--t", "0.5", "--K", "40"], False),
        (["aluthge-weights", "{paper}"], False),
        (["oracle", "--random", "2"], True),
    ],
    ids=["import-treeshift", "import-cli", "analyze", "witness", "aluthge-weights", "oracle"],
)
def test_only_the_oracle_command_loads_numpy(tmp_path, argv, loads_numpy):
    paper = tmp_path / "paper.json"
    paper.write_text(json.dumps({"family": "paper"}))
    if argv:
        argv = [arg.format(paper=paper) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loads_numpy]
