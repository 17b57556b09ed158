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
        # kernel, so zero singular values meet the powers 0 and 1 - t.
        for tree, w in _rank_deficient_instances():
            matrix = assemble(w, tree).matrix
            for side in (matrix, matrix.conj().T):
                factors = polar(side)
                assert np.any(factors.singular_values == 0.0)
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
