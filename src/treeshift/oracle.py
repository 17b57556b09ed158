"""Independent dense-matrix ground truth on finite trees.

Everything here goes through numpy's SVD rather than the symbolic weight
formulas, so the two routes can be compared entry by entry.  The polar
factors reuse one decomposition T = L Σ R*: the positive part and all its
fractional powers come from the right singular vectors, with singular values
at or below the rank cutoff treated as exact zeros before powering.  With K
the kept-rank mask, U = L K R*.  The factors keep U in the right singular
basis, R*UR = R*(L K), and form U and P only when read, so each transform
P^t U P^(1-t) = R Σ^t (R*UR) Σ^(1-t) R* costs two matrix products.

The dense side follows the dtype of its input: a shift whose weights all
have zero imaginary part is assembled and decomposed in real arithmetic
(float64), and any nonzero imaginary part keeps the whole comparison in
complex128.  The formula side of the adjoint comparison is always complex,
so no imaginary part a formula produces can be dropped.  It expands each
child bundle b_u once per comparison, since the bundle does not depend on
t: a formula column is its vector's basis terms plus each bundle
coefficient times that bundle's cached column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import OracleError, SingularWeightError
from .operators import StructuredVector, adjoint_aluthge_basis_action, bundle_vector, expand
from .trees import DirectedTree, finite_tree
from .weights import TableWeights, WeightSystem, aluthge_weights, polar_weights

__all__ = [
    "DenseOperator",
    "PolarFactors",
    "assemble",
    "polar",
    "psd_power",
    "left_psd_power",
    "matrix_aluthge",
    "projection_sum_matrix",
    "dense_hyponormal_defect",
    "ComparisonReport",
    "compare_with_formula",
    "random_tree_corpus",
    "violating_instances",
    "dense_vector",
]

DEFAULT_RANK_TOL = 1e-12
_HYPONORMAL_TOL = 1e-9  # T*T - T T* counts as positive down to this eigenvalue


@dataclass
class DenseOperator:
    """Matrix of a weighted shift in a fixed vertex enumeration."""

    matrix: np.ndarray
    order: list
    index: dict

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble(w: WeightSystem, tree: Optional[DirectedTree] = None) -> DenseOperator:
    """Dense matrix of the shift: column u carries the child weights of u.

    ``tree``, when given, must be ``w.tree`` itself.
    """
    if tree is not None and tree is not w.tree:
        raise OracleError("the oracle runs on the weight system's own tree")
    tree = w.tree
    if not tree.is_finite:
        raise OracleError("oracle requires a finite tree")
    order = tree.vertices()
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    matrix = np.zeros((n, n), dtype=np.complex128)
    for v in order:
        parent = tree.parent(v)
        if parent is not None:
            matrix[index[v], index[parent]] = w.weight(v)
    if not matrix.imag.any():  # real values give a real matrix, whatever their dtype
        matrix = np.ascontiguousarray(matrix.real)
    return DenseOperator(matrix, order, index)


@dataclass
class PolarFactors:
    """SVD-based polar decomposition T = U P with P = (T*T)^(1/2)."""

    singular_values: np.ndarray  # zero at and below the rank cutoff
    left: np.ndarray
    right: np.ndarray  # columns are right singular vectors
    u_core: np.ndarray  # R*UR = R*(L K): U in the right singular basis

    @property
    def u_factor(self) -> np.ndarray:
        """U = L K R*, computed from the factorization on each read."""
        return (self.left * (self.singular_values > 0)) @ self.right.conj().T

    @property
    def p_factor(self) -> np.ndarray:
        """P, computed from the factorization on each read."""
        return psd_power(self, 1.0)


def polar(matrix: np.ndarray) -> PolarFactors:
    matrix = np.asarray(matrix)
    matrix = matrix.astype(np.result_type(matrix, np.float64), copy=False)
    try:
        left, sigma, right_h = np.linalg.svd(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise OracleError(f"SVD failed: {exc}") from exc
    keep = sigma > DEFAULT_RANK_TOL * (sigma[0] if sigma.size else 0.0)
    sigma_eff = np.where(keep, sigma, 0.0)
    return PolarFactors(sigma_eff, left, right_h.conj().T, right_h @ (left * keep))


def psd_power(factors: PolarFactors, exponent: float) -> np.ndarray:
    """P^exponent from the stored factorization; P^0 is the identity."""
    if exponent == 0:
        return np.eye(factors.right.shape[0], dtype=factors.right.dtype)
    powered = factors.singular_values ** exponent
    return (factors.right * powered) @ factors.right.conj().T


def left_psd_power(factors: PolarFactors, exponent: float) -> np.ndarray:
    """(T T*)^(exponent/2) i.e. |T*|^exponent, from the left singular vectors."""
    if exponent == 0:
        return np.eye(factors.left.shape[0], dtype=factors.left.dtype)
    powered = factors.singular_values ** exponent
    return (factors.left * powered) @ factors.left.conj().T


def matrix_aluthge(matrix: np.ndarray, t: float) -> np.ndarray:
    """P^t U P^(1-t) for the polar factors of the matrix; t in (0, 1]."""
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    return _transform(polar(matrix), t)


def _transform(factors: PolarFactors, t: float) -> np.ndarray:
    """P^t U P^(1-t) as R Σ^t (R*UR) Σ^(1-t) R*: two products, the powers of Σ
    applied as column scalings.  Both exponents lie in [0, 1], so a zero
    singular value never meets a negative power."""
    sigma, right = factors.singular_values, factors.right
    return ((right * sigma**t) @ factors.u_core * sigma ** (1 - t)) @ right.conj().T


def projection_sum_matrix(w: WeightSystem, dense: DenseOperator, alpha: float) -> np.ndarray:
    """|T*|^alpha assembled as the per-vertex projection sum.

    Each active vertex contributes norm^alpha times the rank-one projection
    onto its shift image; with the shift columns as M and the node norms as
    s, that is the single product M diag(s^(alpha-2)) M*.
    """
    norms = np.array([w.node_norm(u) for u in dense.order], dtype=np.float64)
    active = norms != 0.0
    scale = np.zeros_like(norms)
    scale[active] = norms[active] ** (alpha - 2)
    return (dense.matrix * scale) @ dense.matrix.conj().T


def dense_hyponormal_defect(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of T*T - T T*; nonnegative means hyponormal."""
    h = matrix.conj().T @ matrix - matrix @ matrix.conj().T
    return float(np.linalg.eigvalsh(h)[0])


@dataclass
class ComparisonReport:
    """Max-entry discrepancies between the dense oracle and the weight formulas."""

    n: int
    aluthge: dict = field(default_factory=dict)  # t -> max entry difference
    adjoint_aluthge: dict = field(default_factory=dict)  # t -> max column difference
    adjoint_modulus: dict = field(default_factory=dict)  # alpha -> max entry difference
    polar_factor: float = 0.0
    hyponormal_dense: bool = True
    hyponormal_formula: bool = True
    dense_defect: float = 0.0
    skipped_singular: int = 0

    @property
    def hyponormal_agree(self) -> bool:
        return self.hyponormal_dense == self.hyponormal_formula

    def max_discrepancy(self) -> float:
        values = [self.polar_factor]
        values += list(self.aluthge.values())
        values += list(self.adjoint_aluthge.values())
        values += list(self.adjoint_modulus.values())
        return max(values)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "aluthge": {str(k): v for k, v in self.aluthge.items()},
            "adjoint_aluthge": {str(k): v for k, v in self.adjoint_aluthge.items()},
            "adjoint_modulus": {str(k): v for k, v in self.adjoint_modulus.items()},
            "polar_factor": self.polar_factor,
            "hyponormal_dense": self.hyponormal_dense,
            "hyponormal_formula": self.hyponormal_formula,
            "hyponormal_agree": self.hyponormal_agree,
            "dense_defect": self.dense_defect,
            "skipped_singular": self.skipped_singular,
            "max_discrepancy": self.max_discrepancy(),
        }


def dense_vector(vec: StructuredVector, dense: DenseOperator) -> np.ndarray:
    """Coordinates of a structured vector in the oracle's enumeration."""
    flat = expand(vec)
    out = np.zeros(dense.n, dtype=np.complex128)
    for v, c in flat.e.items():
        out[dense.index[v]] = c
    return out


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def compare_with_formula(
    w: WeightSystem,
    tree: Optional[DirectedTree] = None,
    t_values: Sequence[float] = (0.5,),
    alphas: Sequence[float] = (0.5, 1.0, 2.0),
) -> ComparisonReport:
    """Run every oracle-vs-formula comparison on one finite tree.

    Compares, entry by entry: the matrix transform against the transformed
    weight matrix; |T*|^alpha against the projection sum; the SVD polar
    factor against the polar weight matrix; the positivity test of
    T*T - T T* against the per-vertex hyponormality criterion; and the
    transform of T* on basis vectors against the closed adjoint formula
    (vertices where that formula is singular are skipped and counted).
    ``tree``, when given, must be ``w.tree`` itself.
    """
    from .analysis import check_hyponormal  # local import to keep layering acyclic

    dense = assemble(w, tree)
    factors = polar(dense.matrix)
    report = ComparisonReport(n=dense.n)

    pi_matrix = assemble(polar_weights(w)).matrix
    report.polar_factor = _max_abs(factors.u_factor - pi_matrix)

    for t in t_values:
        direct = _transform(factors, t)
        mu_matrix = assemble(aluthge_weights(w, t)).matrix
        report.aluthge[t] = _max_abs(direct - mu_matrix)

    for alpha in alphas:
        oracle_side = left_psd_power(factors, alpha)
        formula_side = projection_sum_matrix(w, dense, alpha)
        report.adjoint_modulus[alpha] = _max_abs(oracle_side - formula_side)

    adjoint_factors = polar(dense.matrix.conj().T)
    bundles = {}  # vertex u -> dense column of the bundle b_u; t plays no part
    for t in t_values:
        adjoint_transform = _transform(adjoint_factors, t)
        # Complex whatever the transform's dtype: no formula value loses an imaginary part.
        formula = np.zeros(adjoint_transform.shape, dtype=np.complex128)
        skipped = []
        for v in dense.order:
            try:
                formula_vec = adjoint_aluthge_basis_action(w, t, v)
            except SingularWeightError:
                skipped.append(dense.index[v])
                continue
            column = formula[:, dense.index[v]]
            for u, c in formula_vec.b.items():
                if u not in bundles:
                    bundles[u] = dense_vector(bundle_vector(w, u), dense)
                column += c * bundles[u]
            for x, c in formula_vec.e.items():
                column[dense.index[x]] += c
        # Column v of the transform is its action on the basis vector at v.
        np.subtract(adjoint_transform, formula, out=formula)
        formula[:, skipped] = 0.0
        report.skipped_singular += len(skipped)
        report.adjoint_aluthge[t] = _max_abs(formula)

    report.dense_defect = dense_hyponormal_defect(dense.matrix)
    report.hyponormal_dense = report.dense_defect >= -_HYPONORMAL_TOL
    report.hyponormal_formula = check_hyponormal(w).verdict == "hyponormal"
    return report


def random_tree_corpus(
    count: int,
    seed: int,
    max_vertices: int = 40,
    complex_count: int = 0,
):
    """Seeded corpus of random finite trees, weight moduli uniform in [0.1, 4).

    The last ``complex_count`` instances get complex weights of the same
    moduli, exercising every conjugation in the formulas.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        n = int(rng.integers(2, max_vertices + 1))
        parents = [None] + [int(rng.integers(0, j)) for j in range(1, n)]
        tree = finite_tree(parents)
        mags = rng.uniform(0.1, 4.0, size=n - 1)
        if i >= count - complex_count:
            phases = rng.uniform(0.0, 2.0 * math.pi, size=n - 1)
            vals = mags * np.exp(1j * phases)
        else:
            vals = mags.astype(np.complex128)
        table = {v: vals[v - 1] for v in range(1, n)}
        corpus.append((tree, TableWeights(tree, table)))
    return corpus


def violating_instances(count: int, seed: int):
    """Trees of 3 to 12 vertices violating only the zero-norm hyponormality condition.

    All weights vanish except one leaf edge, so the margin condition holds
    vacuously while the nonzero leaf weight breaks hyponormality.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 13))
        parents = [None] + [int(rng.integers(0, j)) for j in range(1, n)]
        tree = finite_tree(parents)
        leaves = [v for v in tree.vertices() if tree.child_count(v) == 0 and v != tree.root]
        leaf = leaves[int(rng.integers(0, len(leaves)))]
        table = {v: 0.0 for v in range(1, n)}
        table[leaf] = float(rng.uniform(0.5, 3.0))
        out.append((tree, TableWeights(tree, table), leaf))
    return out
