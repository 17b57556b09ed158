import math

import numpy as np
import pytest

from treeshift import oracle
from treeshift.errors import OracleError, SingularWeightError
from treeshift.operators import (
    adjoint_aluthge_basis_action,
    aluthge_basis_action,
    expand,
)
from treeshift.oracle import (
    assemble,
    compare_with_formula,
    dense_hyponormal_defect,
    dense_vector,
    left_psd_power,
    matrix_aluthge,
    polar,
    projection_sum_matrix,
    psd_power,
    random_tree_corpus,
    violating_instances,
)
from treeshift.trees import finite_tree, omega_tree
from treeshift.weights import OmegaShiftWeights, TableWeights, aluthge_weights

# An overflow, a 0 ** negative or a NaN in numpy's products fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def path_weights(values):
    n = len(values) + 1
    tree = finite_tree([None] + list(range(n - 1)))
    return tree, TableWeights(tree, {i + 1: values[i] for i in range(len(values))})


class TestAssemble:
    def test_path_matrix_entries(self):
        tree, w = path_weights([2.0, 3.0])
        dense = assemble(w, tree)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 0] = 2.0
        expected[2, 1] = 3.0
        np.testing.assert_allclose(dense.matrix, expected)

    def test_single_vertex_is_zero_matrix(self):
        tree = finite_tree([None])
        dense = assemble(TableWeights(tree, {}), tree)
        assert dense.matrix.shape == (1, 1)
        assert dense.matrix[0, 0] == 0

    def test_star_column_norm(self):
        tree = finite_tree([None, 0, 0, 0])
        w = TableWeights(tree, {1: 1.0, 2: 2.0, 3: 2.0})
        dense = assemble(w, tree)
        assert np.linalg.norm(dense.matrix[:, 0]) == pytest.approx(3.0)

    def test_infinite_tree_rejected(self):
        with pytest.raises(OracleError):
            assemble(OmegaShiftWeights(), omega_tree())


def _block_shape_matrices(dtype):
    rng = np.random.default_rng(41)

    def draw(*shape):
        values = rng.normal(size=shape)
        return values + 1j * rng.normal(size=shape) if dtype == np.complex128 else values

    unitary, _ = np.linalg.qr(draw(5, 5))
    tall = np.zeros((6, 6), dtype=dtype)
    tall[np.ix_([0, 2, 3, 5], [1, 4])] = draw(4, 2)  # two zero rows, four zero columns
    mixed = np.zeros((14, 14), dtype=dtype)  # rows 8 and 11 and columns 5, 10 and 13 stay zero
    mixed[[0, 3, 5], 1] = draw(3)  # one column
    mixed[2, [0, 4, 6]] = draw(3)  # one row
    mixed[np.ix_([4, 7], [2, 8])] = draw(2, 2)  # two 2 x 2 blocks
    mixed[np.ix_([1, 13], [7, 12])] = draw(2, 2)
    mixed[np.ix_([6, 9, 10], [3, 9])] = draw(3, 2)
    mixed[12, 11] = draw(1)[0]  # one entry
    return {
        "zero": np.zeros((4, 4), dtype=dtype),
        "zero 1x1": np.zeros((1, 1), dtype=dtype),
        "unitary": unitary,
        "tall": tall,
        "wide": tall.conj().T,
        "dense": draw(7, 7),  # one block
        "bidiagonal": np.diag(draw(9)) + np.diag(draw(8), 1),  # one chain of 17 links
        "mixed": mixed,  # every route through polar
        "1x1": draw(1, 1),
    }


class TestPolar:
    def test_zero_matrix(self):
        factors = polar(np.zeros((4, 4)))
        assert np.all(factors.u_factor == 0)
        assert np.all(factors.p_factor == 0)

    def test_unitary_input(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        factors = polar(q)
        np.testing.assert_allclose(factors.u_factor, q, atol=1e-12)
        np.testing.assert_allclose(factors.p_factor, np.eye(6), atol=1e-12)

    def test_invariants_on_random_tree_shifts(self):
        for tree, w in random_tree_corpus(20, seed=9, max_vertices=20, complex_count=5):
            matrix = assemble(w, tree).matrix
            factors = polar(matrix)
            scale = 1.0 + np.max(np.abs(matrix))
            # U P reconstructs T
            assert np.max(np.abs(factors.u_factor @ factors.p_factor - matrix)) <= 1e-9 * scale
            # U* U projects onto the closure of range(P)
            proj = factors.u_factor.conj().T @ factors.u_factor
            np.testing.assert_allclose(proj @ factors.p_factor, factors.p_factor, atol=1e-9)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-9)
            # P agrees with the square root of T*T computed independently
            eigvals, eigvecs = np.linalg.eigh(matrix.conj().T @ matrix)
            root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
            assert np.max(np.abs(root - factors.p_factor)) <= 1e-9

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("name", ["zero", "zero 1x1", "unitary", "tall", "wide"])
    def test_factors_on_degenerate_and_block_inputs(self, dtype, name):
        matrix = _block_shape_matrices(dtype)[name]
        n = matrix.shape[0]
        factors = polar(matrix)
        u, p = factors.u_factor, factors.p_factor
        scale = 1.0 + np.max(np.abs(matrix))
        assert u.shape == p.shape == (n, n) and u.dtype == p.dtype == dtype
        assert np.max(np.abs(u @ p - matrix)) <= 1e-12 * scale
        proj = u.conj().T @ u
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
        assert np.max(np.abs(proj - proj.conj().T)) <= 1e-12
        # eigh leaves the kernel's eigenvalues near eps * lambda_max, whose
        # roots are near 1e-8: count those below 1e-12 * lambda_max as zero.
        eigvals, eigvecs = np.linalg.eigh(matrix.conj().T @ matrix)
        eigvals[eigvals <= 1e-12 * eigvals[-1]] = 0.0
        root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
        assert np.max(np.abs(root - p)) <= 1e-12 * scale
        for power in (psd_power, left_psd_power):
            identity = power(factors, 0)
            assert identity.dtype == dtype
            assert np.array_equal(identity, np.eye(n))

    def test_svd_factors_the_tall_nonzero_block(self, monkeypatch):
        # A shift and its adjoint are factored from their own column and row
        # norms, so a whole comparison calls no SVD.  Only a block with more
        # than one nonzero row and column reaches the SVD, exactly as it
        # stands in the matrix: here the tall 4 x 2 block, and its adjoint's
        # wide one.
        inputs = []
        real_svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            inputs.append(np.array(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        (tree, w), = _large_trees([200], seed=5)
        compare_with_formula(w, t_values=(0.5,))
        assert inputs == []
        tall = _block_shape_matrices(np.complex128)["tall"]
        block = tall[np.ix_([0, 2, 3, 5], [1, 4])]
        polar(tall)
        polar(tall.conj().T)
        assert [got.shape for got in inputs] == [(4, 2), (2, 4)]
        assert np.array_equal(inputs[0], block) and np.array_equal(inputs[1], block.conj().T)


class TestRealArithmetic:
    # Real weights are decomposed in float64, whatever dtype stores them; any
    # nonzero imaginary part keeps the whole comparison complex.
    def test_real_weights_give_real_matrix_and_factors(self):
        corpus = random_tree_corpus(4, seed=5, max_vertices=20)
        assert isinstance(corpus[0][1].weight(1), complex)  # real values stored as complex
        for tree, w in [path_weights([2.0, 3, 0.5 + 0j])] + corpus:
            matrix = assemble(w, tree).matrix
            assert matrix.dtype == np.float64
            factors = polar(matrix)
            for part in (factors.u_factor, factors.left, factors.right, factors.p_factor):
                assert part.dtype == np.float64

    def test_one_complex_weight_keeps_everything_complex(self):
        tree = finite_tree([None, 0, 0, 1, 1, 2])
        w = TableWeights(tree, {1: 2.0, 2: 0.5, 3: 1.0, 4: 3.0, 5: 1.5 - 0.5j})
        matrix = assemble(w, tree).matrix
        assert matrix.dtype == np.complex128
        assert matrix[5, 2] == 1.5 - 0.5j
        assert polar(matrix).u_factor.dtype == np.complex128
        report = compare_with_formula(w, tree, t_values=(0.1, 0.5, 1.0))
        assert report.max_discrepancy() <= 1e-8
        assert report.hyponormal_agree

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_real_transform_matches_complex_route(self, t):
        for tree, w in random_tree_corpus(6, seed=13, max_vertices=30):
            matrix = assemble(w, tree).matrix
            real = matrix_aluthge(matrix, t)
            assert real.dtype == np.float64
            np.testing.assert_allclose(real, matrix_aluthge(matrix.astype(complex), t), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zeroth_power_is_identity_of_factor_dtype(self, dtype):
        factors = polar(np.diag([2.0, 0.0, 1.0]).astype(dtype))
        for power in (psd_power, left_psd_power):
            identity = power(factors, 0)
            assert identity.dtype == dtype
            assert np.array_equal(identity, np.eye(3))


class TestMatrixAluthge:
    def test_diagonal_positive_fixed_point(self):
        d = np.diag([3.0, 1.0, 0.5, 0.0])
        for t in (0.2, 0.5, 1.0):
            np.testing.assert_allclose(matrix_aluthge(d, t), d, atol=1e-12)

    def test_t_one_uses_identity_for_zeroth_power(self):
        tree, w = path_weights([2.0, 5.0])
        matrix = assemble(w, tree).matrix
        factors = polar(matrix)
        np.testing.assert_allclose(
            matrix_aluthge(matrix, 1.0),
            factors.p_factor @ factors.u_factor,
            atol=1e-12,
        )
        assert np.array_equal(psd_power(factors, 0.0), np.eye(3))

    def test_t_validated(self):
        with pytest.raises(ValueError):
            matrix_aluthge(np.eye(2), 0.0)

    def test_doubling_path_gives_geometric_means(self):
        tree, w = path_weights([1.0, 2.0, 4.0, 8.0])
        matrix = assemble(w, tree).matrix
        got = matrix_aluthge(matrix, 0.5)
        sub = np.diag(got, -1)
        np.testing.assert_allclose(
            sub[:3], [math.sqrt(2.0), math.sqrt(8.0), math.sqrt(32.0)], atol=1e-12
        )
        assert abs(sub[3]) <= 1e-12  # last edge ends in a leaf
        mu = aluthge_weights(w, 0.5)
        for v in (1, 2, 3):
            assert got[v, v - 1] == pytest.approx(mu.weight(v), rel=1e-12)


def _four_product_transform(factors, t):
    """P^t U P^(1-t) with each factor formed, as the textbook writes it."""
    return psd_power(factors, t) @ factors.u_factor @ psd_power(factors, 1 - t)


def _rank_deficient_instances():
    yield from random_tree_corpus(30, seed=19, max_vertices=30, complex_count=8)
    yield from ((tree, w) for tree, w, _ in violating_instances(10, seed=23))
    # all child weights of vertex 1 vanish, so T has a nontrivial kernel
    tree = finite_tree([None, 0, 1, 1, 0, 4])
    yield tree, TableWeights(tree, {1: 2.0, 2: 0.0, 3: 0.0, 4: 1.5, 5: 0.75j})


class TestTransformInTwoProducts:
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 1.0])
    def test_matches_four_product_route(self, t):
        # At t = 1 the reference multiplies by P^0 = I; every instance has a
        # kernel, so the kept rank is below n and the two-product route's
        # powers 0 and 1 - t act on range(P) only.
        for tree, w in _rank_deficient_instances():
            matrix = assemble(w, tree).matrix
            for side in (matrix, matrix.conj().T):
                factors = polar(side)
                assert factors.singular_values.size < side.shape[0]
                got = oracle._transform(factors, t)
                assert got.dtype == side.dtype
                want = _four_product_transform(factors, t)
                assert np.max(np.abs(got - want)) <= 1e-13


class TestFormulaEquivalence:
    def test_trivial_tree_all_zero(self):
        tree = finite_tree([None])
        report = compare_with_formula(TableWeights(tree, {}), tree, t_values=(0.5, 1.0))
        assert report.max_discrepancy() == 0.0
        assert report.hyponormal_agree

    def test_small_corpus(self):
        for tree, w in random_tree_corpus(25, seed=17, max_vertices=25, complex_count=6):
            report = compare_with_formula(w, tree, t_values=(0.1, 0.5, 1.0))
            assert report.max_discrepancy() <= 1e-8
            assert report.hyponormal_agree

    def test_zero_leaf_weight_instance(self):
        # a zero weight on a leaf edge keeps both hyponormality verdicts aligned
        tree = finite_tree([None, 0, 1, 1])
        w = TableWeights(tree, {1: 1.0, 2: 0.0, 3: 0.5})
        report = compare_with_formula(w, tree, t_values=(0.5,))
        assert report.hyponormal_agree
        assert not report.hyponormal_dense  # nonzero weight into the leaf 3

    def test_zero_node_kills_polar_column(self):
        # all child weights of vertex 1 vanish: the SVD kernel handling and
        # the zero branch of the polar weights must both zero that column
        tree = finite_tree([None, 0, 1, 1])
        w = TableWeights(tree, {1: 2.0, 2: 0.0, 3: 0.0})
        dense = assemble(w, tree)
        factors = polar(dense.matrix)
        np.testing.assert_allclose(factors.u_factor[:, 1], 0.0, atol=1e-15)
        report = compare_with_formula(w, tree, t_values=(0.5, 1.0))
        assert report.polar_factor <= 1e-8
        assert max(report.aluthge.values()) <= 1e-8

    def test_violating_instances_detected_by_both_routes(self):
        for tree, w, leaf in violating_instances(10, seed=23):
            matrix = assemble(w, tree).matrix
            assert dense_hyponormal_defect(matrix) < -1e-9
            report = compare_with_formula(w, tree, t_values=(0.5,))
            assert report.hyponormal_agree

    def test_adjoint_modulus_power_matches_matrix(self):
        tree, w = path_weights([1.5, 0.25, 3.0])
        dense = assemble(w, tree)
        factors = polar(dense.matrix)
        for alpha in (0.5, 1.0, 2.0):
            formula = projection_sum_matrix(w, dense, alpha)
            np.testing.assert_allclose(
                left_psd_power(factors, alpha), formula, atol=1e-10
            )

    def test_aluthge_basis_action_matches_matrix(self):
        for tree, w in random_tree_corpus(5, seed=31, max_vertices=15):
            dense = assemble(w, tree)
            transform = matrix_aluthge(dense.matrix, 0.5)
            for u in dense.order:
                vec = aluthge_basis_action(w, 0.5, u)
                got = dense_vector(vec, dense) if not hasattr(vec, "status") else None
                assert got is not None  # finite trees keep every basis vector inside
                want = transform @ _unit(dense.n, u)
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_adjoint_aluthge_action_matches_matrix(self):
        for tree, w in random_tree_corpus(5, seed=37, max_vertices=15, complex_count=2):
            dense = assemble(w, tree)
            adj = dense.matrix.conj().T
            transform = matrix_aluthge(adj, 0.5)
            for v in dense.order:
                formula = adjoint_aluthge_basis_action(w, 0.5, v)
                got = dense_vector(formula, dense)
                want = transform @ _unit(dense.n, v)
                np.testing.assert_allclose(got, want, atol=1e-9)


def _projection_sum_reference(w, dense, alpha):
    """The per-vertex loop: one outer product per active vertex."""
    out = np.zeros_like(dense.matrix)
    for u in dense.order:
        s = w.node_norm(u)
        if s == 0.0:
            continue
        column = dense.matrix[:, dense.index[u]]
        out += (s ** (alpha - 2)) * np.outer(column, column.conj())
    return out


class TestProjectionSum:
    @staticmethod
    def _instances():
        yield from random_tree_corpus(25, seed=17, complex_count=6)
        # vertex 1 is internal with zero norm: its scale is 0, not 0 ** (alpha - 2)
        tree = finite_tree([None, 0, 1, 1, 0, 4])
        yield tree, TableWeights(tree, {1: 2.0, 2: 0.0, 3: 0.0, 4: 1.5, 5: 0.75j})

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_per_vertex_loop(self, alpha):
        for tree, w in self._instances():
            dense = assemble(w, tree)
            want = _projection_sum_reference(w, dense, alpha)
            got = projection_sum_matrix(w, dense, alpha)
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class _NudgedNorm(TableWeights):
    """Node norm 1.001 times too large at vertex 1."""

    def node_norm(self, u):
        s = super().node_norm(u)
        return s * 1.001 if u == 1 else s


class TestOracleSeesEveryColumn:
    TREE_PARENTS = [None, 0, 0, 1, 1, 2]
    T_VALUES = (0.5, 1.0)

    def _instance(self, cls=TableWeights):
        tree = finite_tree(self.TREE_PARENTS)
        return tree, cls(tree, {v: 0.5 + v for v in range(1, 6)})

    def test_perturbed_adjoint_column_detected(self, monkeypatch):
        tree, w = self._instance()
        assert compare_with_formula(w, tree, t_values=self.T_VALUES).max_discrepancy() <= 1e-8
        real = oracle.adjoint_aluthge_basis_action

        def perturbed(weights, t, v):
            vec = real(weights, t, v)
            return vec.scaled(1.001) if v == 3 else vec  # two levels below the root

        monkeypatch.setattr(oracle, "adjoint_aluthge_basis_action", perturbed)
        report = compare_with_formula(w, tree, t_values=self.T_VALUES)
        for t in self.T_VALUES:
            assert report.adjoint_aluthge[t] > 1e-8

    def test_imaginary_formula_part_detected_on_real_tree(self, monkeypatch):
        # the transform is real here; a real formula array would keep the
        # real part, which is right, and drop the imaginary part, which is not
        tree, w = self._instance()
        real = oracle.adjoint_aluthge_basis_action

        def tilted(weights, t, v):
            vec = real(weights, t, v)
            return vec.scaled(1 + 1e-3j) if v == 3 else vec

        monkeypatch.setattr(oracle, "adjoint_aluthge_basis_action", tilted)
        report = compare_with_formula(w, tree, t_values=self.T_VALUES)
        for t in self.T_VALUES:
            assert report.adjoint_aluthge[t] > 1e-8

    def test_perturbed_node_norm_detected(self):
        tree, w = self._instance(_NudgedNorm)
        assert w.node_norm(1) > 0 and tree.child_count(1) > 0
        report = compare_with_formula(w, tree, t_values=(0.5,))
        assert report.adjoint_modulus[0.5] > 1e-8
        assert report.adjoint_modulus[1.0] > 1e-8


def _per_column_values(w, t_values):
    """The transform and adjoint-transform discrepancies by the per-column
    route: four products per transform and one bundle expansion per column."""
    dense = assemble(w)
    factors, adjoint = polar(dense.matrix), polar(dense.matrix.conj().T)
    values, skipped = {}, 0
    for t in t_values:
        mu_matrix = assemble(aluthge_weights(w, t)).matrix
        values["aluthge", t] = np.max(np.abs(_four_product_transform(factors, t) - mu_matrix))
        transform = _four_product_transform(adjoint, t)
        formula = np.zeros(transform.shape, dtype=np.complex128)
        for v in dense.order:
            try:
                vec = adjoint_aluthge_basis_action(w, t, v)
            except SingularWeightError:
                formula[:, dense.index[v]] = transform[:, dense.index[v]]
                skipped += 1
                continue
            formula[:, dense.index[v]] = dense_vector(vec, dense)
        values["adjoint_aluthge", t] = np.max(np.abs(transform - formula))
    return values, skipped


def _full_svd_polar(matrix):
    """The full n x n SVD route polar took before it decomposed only the
    nonzero block; the same cutoff, with the factors cut to the kept rank."""
    matrix = np.asarray(matrix)
    matrix = matrix.astype(np.result_type(matrix, np.float64), copy=False)
    left, sigma, right_h = np.linalg.svd(matrix)
    rank = int(np.count_nonzero(sigma > oracle.DEFAULT_RANK_TOL * (sigma[0] if sigma.size else 0.0)))
    left, right_h = left[:, :rank], right_h[:rank]
    return oracle.PolarFactors(sigma[:rank], left, right_h.conj().T, right_h @ left)


def _large_trees(sizes, seed):
    """Trees built as the oracle-large benchmark builds them: random recursive
    parents and weight moduli in [0.1, 4); the last tree is complex."""
    rng = np.random.default_rng(seed)
    out = []
    for i, n in enumerate(sizes):
        parents = [None] + [int(rng.integers(0, j)) for j in range(1, n)]
        values = rng.uniform(0.1, 4.0, size=n - 1).astype(np.complex128)
        if i == len(sizes) - 1:
            values *= np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=n - 1))
        tree = finite_tree(parents)
        out.append((tree, TableWeights(tree, {v: values[v - 1] for v in range(1, n)})))
    return out


def _report_items(report):
    for key, value in report.to_dict().items():
        if isinstance(value, dict):
            yield from (((key, k), v) for k, v in value.items())
        else:
            yield key, value


class TestBlockRoute:
    T_VALUES = (0.1, 0.5, 0.9, 1.0)

    @staticmethod
    def _instances():
        yield from random_tree_corpus(200, 42, complex_count=20)
        yield from _large_trees([120, 156, 192, 228, 264, 300], seed=11)

    def test_reports_what_the_full_route_reports(self, monkeypatch):
        for tree, w in self._instances():
            got = dict(_report_items(compare_with_formula(w, tree, t_values=self.T_VALUES)))
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "polar", _full_svd_polar)
                want = dict(_report_items(compare_with_formula(w, tree, t_values=self.T_VALUES)))
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, float):
                    assert abs(got[key] - value) <= 1e-13, key
                else:  # n, the booleans and skipped_singular
                    assert got[key] == value, key


# Each read of the factors, with the power of the matrix's scale it carries.
_FACTOR_READS = {
    "u_factor": (lambda f: f.u_factor, 0),
    "p_factor": (lambda f: f.p_factor, 1),
    "|T*|^0.5": (lambda f: left_psd_power(f, 0.5), 0.5),
    "|T*|^1": (lambda f: left_psd_power(f, 1.0), 1),
    "|T*|^2": (lambda f: left_psd_power(f, 2.0), 2),
    "transform 0.1": (lambda f: oracle._transform(f, 0.1), 1),
    "transform 1.0": (lambda f: oracle._transform(f, 1.0), 1),
}


def _assert_reads_agree(got, want, scale):
    for name, (read, power) in _FACTOR_READS.items():
        assert np.max(np.abs(read(got) - read(want)), initial=0.0) <= 1e-13 * scale**power, name


class TestBlockFactors:
    """``polar`` block by block against ``_full_svd_polar`` on matrices that
    are not shifts, so the SVD of the multi-column blocks runs beside the
    rank-one blocks."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize(
        "name", ["zero", "zero 1x1", "1x1", "unitary", "tall", "wide", "dense", "bidiagonal", "mixed"]
    )
    def test_matches_the_full_svd(self, dtype, name):
        matrix = _block_shape_matrices(dtype)[name]
        got = polar(matrix)
        want = _full_svd_polar(matrix)
        assert got.left.dtype == got.right.dtype == dtype
        assert got.left.shape == got.right.shape == want.left.shape
        assert np.allclose(np.sort(got.singular_values), np.sort(want.singular_values), rtol=1e-13, atol=0.0)
        _assert_reads_agree(got, want, max(1.0, float(np.max(np.abs(matrix)))))

    def test_rectangular_input_refused(self):
        with pytest.raises(OracleError, match="square"):
            polar(np.ones((4, 6)))

    def test_cutoff_is_global(self):
        # A star whose one leg goes on with weight 1e-14, and a star reached
        # by an edge of weight 1e-14: that weight is a block of its own, last
        # or first, below the cutoff of the largest singular value though it
        # is its own block's largest.
        star = finite_tree([None, 0, 0, 0, 1])
        leg = assemble(TableWeights(star, {1: 1.0, 2: 0.9, 3: 1.1, 4: 1e-14})).matrix
        stem = finite_tree([None, 0, 1, 1, 1, 2])
        root = assemble(TableWeights(stem, {1: 1e-14, 2: 1.0, 3: 0.9, 4: 1.1 * np.exp(0.3j), 5: 0.8})).matrix
        mixed = _block_shape_matrices(np.complex128)["mixed"]
        mixed[np.ix_([4, 7], [2, 8])] *= 1e-14  # a whole multi-column block below the cutoff
        for matrix in (leg, leg.conj().T, root, root.conj().T, mixed, mixed.conj().T):
            got, want = polar(matrix), _full_svd_polar(matrix)
            assert got.singular_values.size == want.singular_values.size < np.count_nonzero(matrix.any(axis=0))
            _assert_reads_agree(got, want, max(1.0, float(np.max(np.abs(matrix)))))

    # A norm taken as sqrt(sum |v|^2) gives 0 at 1e-170 and 1e-300 and inf at
    # 1e170, and then divides by it; numpy's RuntimeWarning fails the test.
    @pytest.mark.parametrize("scale", [1e-170, 1e170, 1e-300])
    def test_extreme_scales(self, scale):
        path = finite_tree([None, 0, 1, 2, 3])
        star = finite_tree([None, 0, 0, 0, 0])
        for tree in (path, star):
            for phase in (1.0, np.exp(0.7j)):
                w = TableWeights(tree, {v: scale * (0.5 + v) * phase**v for v in range(1, 5)})
                matrix = assemble(w).matrix
                for side in (matrix, matrix.conj().T):
                    got, want = polar(side), _full_svd_polar(side)
                    values = np.sort(got.singular_values)[::-1]
                    assert values.shape == want.singular_values.shape
                    assert np.all(np.abs(values - want.singular_values) <= 2 * np.spacing(want.singular_values))
                    assert np.max(np.abs(got.u_factor - want.u_factor)) <= 1e-15


def _full_eigvalsh_defect(matrix):
    """The full route the defect took before it went block by block: both
    n x n products and one ``eigvalsh`` of all of T*T - T T*."""
    h = matrix.conj().T @ matrix - matrix @ matrix.conj().T
    return float(np.linalg.eigvalsh(h)[0])


class TestBlockedDefect:
    @staticmethod
    def _agrees(matrix):
        want = _full_eigvalsh_defect(matrix)
        scale = max(1.0, float(np.max(np.abs(matrix.conj().T @ matrix - matrix @ matrix.conj().T))))
        got = dense_hyponormal_defect(matrix)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-13 * scale, (got, want)
        return got

    def test_corpus_and_large_trees(self):
        for tree, w in random_tree_corpus(200, 42, complex_count=20):
            self._agrees(assemble(w, tree).matrix)
        for tree, w in _large_trees([120, 156, 192, 228, 264, 300], seed=11):
            self._agrees(assemble(w, tree).matrix)

    def test_blocks_are_sibling_groups(self, monkeypatch):
        # a 300-vertex tree: eigvalsh only sees stacks of blocks no larger
        # than the largest sibling group, never the whole matrix
        (tree, w), = _large_trees([300], seed=5)
        shapes = []
        real = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        self._agrees(assemble(w, tree).matrix)
        widest = max(tree.child_count(u) for u in tree.vertices())
        assert shapes[0] == (300, 300)  # the reference's own call
        blocked = shapes[1:]
        assert len(blocked) == len({shape[-1] for shape in blocked})  # one batch per size
        assert all(2 <= shape[-1] <= widest for shape in blocked)

    def test_zero_and_one_by_one(self):
        for matrix in (np.zeros((5, 5)), np.zeros((1, 1)), np.array([[2.5]]), np.array([[1j]])):
            assert self._agrees(matrix) == 0.0

    def test_dense_non_shift_is_one_block(self):
        rng = np.random.default_rng(7)
        self._agrees(rng.standard_normal((40, 40)))
        self._agrees(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))

    def test_complex_shift(self):
        tree, w = path_weights([1.5j, 0.5 - 2j, 3.0])
        matrix = assemble(w, tree).matrix
        assert matrix.dtype == np.complex128
        assert self._agrees(matrix) < -1e-9

    def test_entries_that_cancel_to_zero(self):
        # (T*T)[1, 2] = (T T*)[1, 2] = 2, so h[1, 2] is exactly 0 in a
        # connected 4 x 4 h
        connected = np.array([[2, 1, 0, 0], [0, 0, -1, 1], [-2, 0, -1, 1], [1, 1, 2, 2]], dtype=float)
        h = connected.T @ connected - connected @ connected.T
        assert h[1, 2] == 0.0 and (connected.T @ connected)[1, 2] != 0.0
        self._agrees(connected)
        # a symmetric 2 x 2 beside a shift edge: every entry of h on the
        # symmetric block cancels, so it splits into 1 x 1 blocks of 0
        split = np.zeros((4, 4))
        split[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
        split[3, 2] = 3.0
        assert self._agrees(split) == -9.0
        # a path whose two weights are equal: the middle vertex's diagonal
        # entry cancels
        tree, w = path_weights([2.0, 2.0])
        assert self._agrees(assemble(w, tree).matrix) == -4.0

    def test_violating_instances_still_caught(self):
        for tree, w, leaf in violating_instances(50, seed=23):
            matrix = assemble(w, tree).matrix
            assert dense_hyponormal_defect(matrix) < -1e-9
            assert _full_eigvalsh_defect(matrix) < -1e-9


class TestBundleCache:
    T_VALUES = (0.1, 0.5, 0.9, 1.0)

    def test_report_values_match_per_column_route(self):
        for tree, w in random_tree_corpus(200, 42, complex_count=20):
            report = compare_with_formula(w, tree, t_values=self.T_VALUES)
            values, skipped = _per_column_values(w, self.T_VALUES)
            assert report.skipped_singular == skipped
            for (kind, t), want in values.items():
                assert abs(getattr(report, kind)[t] - want) <= 1e-14

    def test_each_bundle_expanded_once_per_call(self, monkeypatch):
        tree = finite_tree([None, 0, 0, 1, 1, 2, 3, 3, 5, 0])
        w = TableWeights(tree, {v: 0.25 + 0.5j * v for v in range(1, 10)})
        bundles = set()
        for v in tree.vertices():
            bundles.update(adjoint_aluthge_basis_action(w, 0.5, v).b)
        calls = []
        real = oracle.dense_vector

        def counting(vec, dense):
            calls.append(tuple(vec.b))
            return real(vec, dense)

        monkeypatch.setattr(oracle, "dense_vector", counting)
        report = compare_with_formula(w, tree, t_values=self.T_VALUES)
        assert report.max_discrepancy() <= 1e-8
        assert sorted(calls) == sorted((u,) for u in bundles)
        assert len(bundles) == 3  # grandparents 0, 1 and 2

    def test_foreign_tree_rejected(self):
        tree, w = path_weights([2.0, 3.0])
        twin = finite_tree([None, 0, 1])
        with pytest.raises(OracleError, match="own tree"):
            assemble(w, twin)
        with pytest.raises(OracleError, match="own tree"):
            compare_with_formula(w, twin)
        assert assemble(w, tree).n == assemble(w).n == 3


class TestSingularSkip:
    def test_singular_vertex_skipped(self):
        # the transformed weight at 1 vanishes while the root stays active
        tree = finite_tree([None, 0, 0, 1])
        w = TableWeights(tree, {1: 0, 2: 1, 3: 1})
        t_values = (0.1, 0.5, 1.0)
        report = compare_with_formula(w, tree, t_values=t_values)
        assert report.skipped_singular == len(t_values)
        assert report.max_discrepancy() <= 1e-8

    def test_every_vertex_skipped_gives_zero(self, monkeypatch):
        def singular(weights, t, v):
            raise SingularWeightError("forced", vertex=v)

        monkeypatch.setattr(oracle, "adjoint_aluthge_basis_action", singular)
        tree = finite_tree([None, 0, 0, 1, 1, 2])
        w = TableWeights(tree, {v: 0.5 + v for v in range(1, 6)})
        t_values = (0.5, 1.0)
        report = compare_with_formula(w, tree, t_values=t_values)
        assert report.adjoint_aluthge == {0.5: 0.0, 1.0: 0.0}
        assert report.skipped_singular == len(tree) * len(t_values)


class TestCorpus:
    def test_deterministic(self):
        a = random_tree_corpus(5, seed=1, complex_count=2)
        b = random_tree_corpus(5, seed=1, complex_count=2)
        for (t1, w1), (t2, w2) in zip(a, b):
            assert t1._parents == t2._parents
            assert all(w1.weight(v) == w2.weight(v) for v in t1.vertices() if v != t1.root)

    def test_sizes_and_weights_in_range(self):
        for tree, w in random_tree_corpus(30, seed=2, max_vertices=40):
            assert 2 <= len(tree) <= 40
            for v in tree.vertices():
                if v != tree.root:
                    assert 0.1 <= abs(w.weight(v)) <= 4.0


def _unit(n, i):
    out = np.zeros(n, dtype=complex)
    out[i] = 1.0
    return out
