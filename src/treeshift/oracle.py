"""Independent dense-matrix ground truth on finite trees.

Everything here works on the dense matrix alone, with numpy's SVD and
eigenvalue routines where a block needs them, rather than the symbolic
weight formulas, so the two routes can be compared entry by entry.  The
polar factors reuse one thin decomposition T = L Σ R*, taken block by block
over the connected blocks of the bipartite row-column pattern of T's
nonzero entries (found from the matrix alone), and kept at the rank r of
the singular values above the cutoff: L and R are n x r, zero off T's
nonzero rows and columns, and U = L R*.  A block with one nonzero column or
row is its norm and its normalised vector; only the other blocks go through
the SVD.  A shift on a tree has only the first kind, since column u of T
holds u's children and so does row u of T*: it is factored from its own
column or row norms.  The positive part and all its fractional powers come
from the right singular vectors.  The factors keep U in the right singular
basis, R*UR = R*L, and form U and P only when read, so each transform
P^t U P^(1-t) = R Σ^t (R*UR) Σ^(1-t) R* costs two n x r x n products.

The dense side follows the dtype of its input: a shift whose weights all
have zero imaginary part is assembled and decomposed in real arithmetic
(float64), and any nonzero imaginary part keeps the whole comparison in
complex128.  The formula side of the adjoint comparison is always complex,
so no imaginary part a formula produces can be dropped.  It expands each
child bundle b_u once per comparison, since the bundle does not depend on
t: a formula column is its vector's basis terms plus each bundle
coefficient times that bundle's cached column.

The hyponormality defect, the smallest eigenvalue of T*T - T T*, is taken
block by block, over the connected blocks of that matrix's own nonzero
pattern: for a shift on a tree, the root and each sibling group.
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
_ALPHAS = (0.5, 1.0, 2.0)  # the powers of |T*| compared against projection sums


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
    rows, cols, values = [], [], []
    for v in order:
        parent = tree.parent(v)
        if parent is not None:
            rows.append(index[v])
            cols.append(index[parent])
            values.append(w.weight(v))
    values = np.array(values, dtype=np.complex128)
    if not values.imag.any():  # real values give a real matrix, whatever their dtype
        values = values.real
    matrix = np.zeros((len(order), len(order)), dtype=values.dtype)
    matrix[rows, cols] = values
    return DenseOperator(matrix, order, index)


@dataclass
class PolarFactors:
    """Polar decomposition T = U P with P = (T*T)^(1/2), from a thin singular
    value decomposition kept at rank r."""

    singular_values: np.ndarray  # the r values above the rank cutoff, in block order, not sorted
    left: np.ndarray  # n x r: left singular vectors, zero off T's nonzero rows
    right: np.ndarray  # n x r: right singular vectors, zero off T's nonzero columns
    u_core: np.ndarray  # r x r, R*UR = R*L: U in the right singular basis

    @property
    def u_factor(self) -> np.ndarray:
        """U = L R*, computed from the factorization on each read."""
        return self.left @ self.right.conj().T

    @property
    def p_factor(self) -> np.ndarray:
        """P, computed from the factorization on each read."""
        return psd_power(self, 1.0)


def polar(matrix: np.ndarray) -> PolarFactors:
    """The factors block by block, over the connected blocks of the bipartite
    row-column pattern of the square matrix's nonzero entries, found from
    the matrix alone.

    A block with one nonzero column or one nonzero row has rank one: its
    singular value is that column's or row's norm, its singular vector on
    that side is the column, or the conjugated row, normalised, and on the
    other side a basis vector.  Every block of a shift on a tree is of this
    kind, so a shift is factored from its own column or row norms, all in
    one step, and R*L is a gather of rows of L (one-column blocks) or of R*
    (one-row blocks).  The other blocks go through one thin SVD of their
    rows and columns together: under a permutation that matrix is block
    diagonal, with the same singular values.  The cutoff is global: a value
    counts when it is above ``DEFAULT_RANK_TOL`` times the largest of all
    blocks.  The singular values come in block order (the rank-one blocks by
    smallest column, then the SVD's), not sorted.  The exactly zero rows and
    columns only pad the factors.
    """
    matrix = np.asarray(matrix)
    matrix = matrix.astype(np.result_type(matrix, np.float64), copy=False)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise OracleError(f"polar takes a square matrix, got shape {matrix.shape}")
    rows, cols = (matrix != 0).nonzero()
    values = matrix[rows, cols]
    # Columns are nodes 0..n-1 and rows n..2n-1, so a block's label is its
    # smallest column: the one column of a one-column block.  A zero column
    # or row is a block of its own, with no row or no column.
    labels = _components(2 * n, cols, rows + n)
    block = labels[cols]
    width = np.bincount(labels[:n], minlength=2 * n)  # columns per block
    height = np.bincount(labels[n:], minlength=2 * n)  # rows per block
    thin = np.minimum(width, height)
    rank_one = (thin == 1).nonzero()[0]
    # Each block is scaled by an exact power of two that brings its largest
    # modulus into [0.5, 1), or as near as 2**1022 brings a subnormal one, so
    # no square under- or overflows and the normalised vectors stay exact.
    modulus = np.abs(values)
    top = np.zeros(2 * n)
    np.maximum.at(top, block, modulus)
    scale = np.ldexp(1.0, np.minimum(-np.frexp(top)[1], 1022))
    root = np.sqrt(np.bincount(block, np.square(modulus * scale[block]), minlength=2 * n))
    with np.errstate(over="ignore"):  # a norm past the double range is inf, as LAPACK gives it
        norms = root / scale

    # The factors' columns: one per rank-one block, in label order, then the
    # singular triples of the other blocks.
    multi_rows = np.flatnonzero(thin[labels[n:]] >= 2)
    multi_cols = np.flatnonzero(thin[labels[:n]] >= 2)
    sigma = norms[rank_one]
    if multi_cols.size:
        try:
            a, s, b_h = np.linalg.svd(matrix[np.ix_(multi_rows, multi_cols)], full_matrices=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise OracleError(f"SVD failed: {exc}") from exc
        sigma = np.concatenate((sigma, s))
    left = np.zeros((n, sigma.size), dtype=matrix.dtype)
    right = np.zeros(left.shape, dtype=left.dtype)
    if multi_cols.size:
        left[multi_rows, rank_one.size:], right[multi_cols, rank_one.size:] = a, b_h.conj().T

    # A rank-one block's entries are its column's, or its row's, conjugated:
    # each sets one entry of the normalised vector, beside a basis vector.  A
    # 1 x 1 block can take either side; it takes the row's when every block
    # has one row, so that L is all basis vectors.
    by_row = not multi_cols.size and bool((height[rank_one] == 1).all())
    on = thin[block] == 1
    block = block[on]
    slot = rank_one.searchsorted(block)
    unit = values[on] * scale[block] / root[block]
    one_column = (width[block] == 1) & (not by_row)
    left[rows[on], slot] = np.where(one_column, unit, 1.0)
    right[cols[on], slot] = np.where(one_column, 1.0, unit.conj())

    keep = sigma > DEFAULT_RANK_TOL * sigma.max(initial=0.0)
    if not keep.all():
        sigma, left, right = sigma[keep], left[:, keep], right[:, keep]
    if by_row:  # column j of R*L is R*'s column at block j's row
        row_of = np.zeros(rank_one.size, dtype=np.intp)
        row_of[slot] = rows[on]
        return PolarFactors(sigma, left, right, right[row_of[keep]].conj().T)
    if not multi_cols.size and (width[rank_one] == 1).all():  # row j of R*L is L's row at block j's column
        return PolarFactors(sigma, left, right, left[rank_one[keep]])
    shared = (height[labels[:n]] > 0) & (width[labels[n:]] > 0)  # rows where both factors can be nonzero
    return PolarFactors(sigma, left, right, right[shared].conj().T @ left[shared])


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
    half = factors.left * factors.singular_values ** (exponent / 2)
    return half @ half.conj().T  # real: one symmetric rank-r update


def matrix_aluthge(matrix: np.ndarray, t: float) -> np.ndarray:
    """P^t U P^(1-t) for the polar factors of the matrix; t in (0, 1]."""
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    return _transform(polar(matrix), t)


def _transform(factors: PolarFactors, t: float) -> np.ndarray:
    """P^t U P^(1-t) as R Σ^t (R*UR) Σ^(1-t) R*: two n x r x n products, the
    powers of Σ applied as column scalings.  Σ holds only the values above
    the cutoff, so no power meets a zero singular value."""
    sigma, right = factors.singular_values, factors.right
    return ((right * sigma**t) @ factors.u_core * sigma ** (1 - t)) @ right.conj().T


def projection_sum_matrix(w: WeightSystem, dense: DenseOperator, alpha: float) -> np.ndarray:
    """|T*|^alpha assembled as the per-vertex projection sum.

    Each active vertex contributes norm^alpha times the rank-one projection
    onto its shift image; with the active vertices' shift columns as M and
    their node norms as s, that is the single product X X* with
    X = M diag(s^(alpha/2 - 1)).
    Vertices of zero norm are left out, not scaled by 0.
    """
    norms = np.array([w.node_norm(u) for u in dense.order], dtype=np.float64)
    active = norms != 0.0
    half = dense.matrix[:, active]  # a copy, scaled in place
    half *= norms[active] ** (alpha / 2 - 1)
    return half @ half.conj().T


def dense_hyponormal_defect(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of h = T*T - T T*; nonnegative means hyponormal.

    With C the k nonzero columns of T, h is C*C on those columns minus C C*,
    two n x k products, in an order that puts those columns first.  Its
    spectrum is that of its connected blocks, found from its own nonzero
    pattern (for a shift, T*T is diagonal and T T* couples only siblings).
    A 1 x 1 block is its diagonal entry; the larger blocks of each size go
    through one batched ``eigvalsh``, unpadded, so they hold at most h's
    memory.
    """
    nonzero = matrix.any(axis=0)
    cols = np.flatnonzero(nonzero)
    c = matrix[np.ix_(np.concatenate((cols, np.flatnonzero(~nonzero))), cols)]
    h = c @ c.conj().T  # real: one symmetric rank-k update, as below
    np.negative(h, out=h)
    h[: cols.size, : cols.size] += c.conj().T @ c
    labels = _components(h.shape[0], *np.nonzero(h))  # a block's label is its smallest index
    size_of = np.bincount(labels)[labels]  # each index's block size
    order = np.argsort(size_of * labels.size + labels, kind="stable")  # by size, block, index
    counts = np.bincount(size_of)  # counts[s]: indices in blocks of size s
    ends = np.cumsum(counts)
    lowest = float(h.diagonal().real[size_of == 1].min(initial=math.inf))
    for size in np.flatnonzero(counts[2:]) + 2:
        members = order[ends[size - 1]:ends[size]].reshape(-1, size)
        blocks = h[members[:, :, None], members[:, None, :]]
        lowest = min(lowest, float(np.linalg.eigvalsh(blocks)[:, 0].min()))
    return lowest


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest index connected to each of ``range(size)``, where each
    ``a[k]`` is linked to ``b[k]``."""
    labels = np.arange(size)
    while True:
        # Each label stays an index of the same block and only falls.
        # Reading a label's own label halves a chain in index order, such as
        # a bidiagonal pattern's, so it takes O(log size) rounds; a scrambled
        # chain can take more, but a block that large costs its decomposition
        # far more.  Once every link joins equal labels, each block has one
        # label: its smallest index.
        np.minimum.at(labels, b, labels[a])
        np.minimum.at(labels, a, labels[b])
        labels = labels[labels]
        if (labels[a] == labels[b]).all():
            return labels


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


def _discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, taken in the buffer of the operand whose dtype holds the
    difference; both operands are the caller's to overwrite."""
    out = a if a.dtype == np.result_type(a, b) else b
    np.subtract(a, b, out=out)
    np.abs(out, out=out)
    return float(out.real.max())


def compare_with_formula(
    w: WeightSystem,
    tree: Optional[DirectedTree] = None,
    t_values: Sequence[float] = (0.5,),
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
    # Each discrepancy is taken in a buffer of one of its operands, and no
    # operand or factorization outlives its comparisons, so few n x n arrays
    # are alive at once.
    report.polar_factor = _discrepancy(factors.u_factor, assemble(polar_weights(w)).matrix)
    for t in t_values:
        report.aluthge[t] = _discrepancy(_transform(factors, t), assemble(aluthge_weights(w, t)).matrix)
    for alpha in _ALPHAS:
        report.adjoint_modulus[alpha] = _discrepancy(
            left_psd_power(factors, alpha), projection_sum_matrix(w, dense, alpha)
        )
    del factors
    report.dense_defect = dense_hyponormal_defect(dense.matrix)
    report.hyponormal_dense = report.dense_defect >= -_HYPONORMAL_TOL

    adjoint_factors = polar(dense.matrix.conj().T)
    bundles = {}  # vertex u -> dense column of the bundle b_u; t plays no part
    for t in t_values:
        # Column j of the transform is its action on the basis vector at the
        # j-th vertex; the formula is kept transposed, one row per column.
        adjoint_transform = _transform(adjoint_factors, t).T
        # Complex whatever the transform's dtype: no formula value loses an imaginary part.
        formula = np.zeros(adjoint_transform.shape, dtype=np.complex128)
        skipped = []
        for j, v in enumerate(dense.order):
            try:
                formula_vec = adjoint_aluthge_basis_action(w, t, v)
            except SingularWeightError:
                skipped.append(j)
                continue
            for u, c in formula_vec.b.items():
                if u not in bundles:
                    bundles[u] = dense_vector(bundle_vector(w, u), dense)
                formula[j] += c * bundles[u]
            for x, c in formula_vec.e.items():
                formula[j, dense.index[x]] += c
        adjoint_transform[skipped] = 0.0
        report.skipped_singular += len(skipped)
        report.adjoint_aluthge[t] = _discrepancy(adjoint_transform, formula)
        del adjoint_transform, formula  # before the next t allocates its own

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
