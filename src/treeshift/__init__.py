"""Weighted shift operators on directed trees.

Symbolic weight systems, structured-vector operator actions, polar and
Aluthge transforms with certified domain verdicts, and a dense-matrix oracle
for cross-validation on finite trees.
"""

__version__ = "0.1.0"

from .analysis import (
    branching_necessity_check,
    certify_trivial_aluthge_domain,
    check_densely_defined,
    check_hyponormal,
    nonclosability_witness,
    strict_inclusion_example,
)
from .operators import (
    DomainVerdict,
    StructuredVector,
    adjoint_aluthge_basis_action,
    aluthge_basis_action,
    apply_adjoint,
    apply_shift,
    basis_vector,
    bundle_vector,
    domain_check,
    expand,
    truncate,
    zero_vector,
)
from .series import (
    Converges,
    Diverges,
    EventuallyIncreasing,
    TermsDoNotVanish,
    inverse_square_sum,
    sum_series,
)
from .trees import (
    DescendantSubtree,
    DirectedTree,
    FiniteTree,
    IntPath,
    NatPath,
    OmegaTree,
    OmegaVertex,
    SampleWindow,
    descendant_subtree,
    finite_tree,
    int_path,
    nat_path,
    omega_tree,
    sample_vertices,
)
from .weights import (
    AluthgeWeights,
    CallableWeights,
    OmegaShiftWeights,
    PolarWeights,
    TableWeights,
    WeightSystem,
    aluthge_weights,
    node_norm,
    polar_weights,
)


# The oracle is the one module that needs numpy, so it loads on first use.
_ORACLE_NAMES = ("assemble", "compare_with_formula", "matrix_aluthge", "polar", "random_tree_corpus")


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        import importlib

        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
