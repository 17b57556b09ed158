import math

import numpy as np
import pytest

from treeshift.errors import (
    EvaluationError,
    MixedBasisError,
    OutOfDomainError,
    SingularWeightError,
    UnsupportedRepresentationError,
)
from treeshift.operators import (
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
from treeshift.oracle import random_tree_corpus, violating_instances
from treeshift.series import closed_form_aggregate, inverse_square_sum
from treeshift.trees import OmegaVertex, finite_tree, nat_path
from treeshift.weights import (
    CallableWeights,
    OmegaShiftWeights,
    TableWeights,
    aluthge_weights,
    node_norm,
)

GAMMA = math.sqrt(inverse_square_sum().value)


@pytest.fixture
def omega():
    return OmegaShiftWeights()


@pytest.fixture
def small_tree():
    #      0
    #    /   \
    #   1     2
    #  / \     \
    # 3   4     5
    tree = finite_tree([None, 0, 0, 1, 1, 2])
    table = {1: 1.5, 2: 0.5 - 0.5j, 3: 2.0, 4: 1.0 + 1.0j, 5: 0.25}
    return tree, TableWeights(tree, table)


def vec_items(v):
    return {u: c for u, c in v.e.items()}


def assert_vec_close(got, expected_e, tol=1e-12):
    assert not got.b
    assert set(got.e) == set(expected_e)
    for u, c in expected_e.items():
        assert got.e[u] == pytest.approx(c, abs=tol)


class TestStructuredVector:
    def test_bundle_inner_products(self, omega):
        u = OmegaVertex(0)
        b = bundle_vector(omega, u)
        assert b.inner(b) == pytest.approx(1.0)
        assert b.norm() == pytest.approx(1.0)
        other = bundle_vector(omega, OmegaVertex(0, (1,)))
        assert b.inner(other) == 0

    def test_cross_inner_product(self, omega):
        u = OmegaVertex(0)
        v = u.child(2)  # weight 1/3, parent norm gamma
        e = basis_vector(v)
        b = bundle_vector(omega, u)
        expected = (1.0 / 3.0) / GAMMA
        assert e.inner(b) == pytest.approx(expected, rel=1e-14)
        assert b.inner(e) == pytest.approx(expected, rel=1e-14)

    def test_norm_squared_nonnegative(self, omega):
        u = OmegaVertex(0)
        f = basis_vector(u.child(0)).scaled(2.0) - bundle_vector(omega, u).scaled(1.5)
        assert f.norm_squared() >= 0

    def test_expansion_matches_symbolic_norm(self, small_tree):
        tree, w = small_tree
        f = bundle_vector(w, 1).scaled(1 + 2j) + basis_vector(3).scaled(0.5)
        flat = expand(f)
        assert flat.norm() == pytest.approx(f.norm(), rel=1e-12)

    def test_mixed_bases_rejected(self, omega):
        from treeshift.weights import polar_weights

        pi = polar_weights(omega)
        u = OmegaVertex(0)
        with pytest.raises(MixedBasisError):
            bundle_vector(omega, u) + bundle_vector(pi, u)

    def test_expand_infinite_children_fails_loudly(self, omega):
        with pytest.raises(UnsupportedRepresentationError):
            expand(bundle_vector(omega, OmegaVertex(0)))

    def test_zero_vector(self):
        assert zero_vector().is_zero
        assert zero_vector().norm() == 0.0


class TestApplyShift:
    def test_omega_basis_goes_to_scaled_bundle(self, omega):
        u = OmegaVertex(0, (2, 1))  # digit sum 3
        got = apply_shift(omega, basis_vector(u))
        assert not got.e
        assert got.b == {u: pytest.approx(8.0 * GAMMA, rel=1e-14)}

    def test_leaf_maps_to_zero(self, small_tree):
        tree, w = small_tree
        assert apply_shift(w, basis_vector(5)).is_zero

    def test_path_expands(self):
        w = CallableWeights(nat_path(), lambda v: 3.0 if v == 1 else 1.0)
        got = apply_shift(w, basis_vector(0))
        assert_vec_close(got, {1: 3.0})

    def test_finite_tree_expansion_is_exact(self, small_tree):
        tree, w = small_tree
        got = apply_shift(w, basis_vector(1))
        assert_vec_close(got, {3: 2.0, 4: 1.0 + 1.0j})

    def test_infinite_norm_raises_out_of_domain(self):
        # the family's transform: every node norm diverges through its closed form
        w, u = aluthge_weights(OmegaShiftWeights(), 0.5), OmegaVertex(0)
        with pytest.raises(OutOfDomainError) as err:
            apply_shift(w, basis_vector(u))
        assert err.value.vertex == u
        assert err.value.certificate == closed_form_aggregate(4.0**0.5).certificate


@pytest.mark.parametrize(
    "cls", [EvaluationError, OutOfDomainError, SingularWeightError, UnsupportedRepresentationError]
)
def test_errors_name_their_vertex(cls):
    err = cls("at the vertex", vertex=OmegaVertex(1))
    assert (str(err), err.vertex) == ("at the vertex", OmegaVertex(1))
    assert cls("nowhere").vertex is None


class TestApplyAdjoint:
    def test_root_annihilated(self, small_tree):
        tree, w = small_tree
        assert apply_adjoint(w, basis_vector(0)).is_zero

    def test_basis_action_conjugates(self, small_tree):
        tree, w = small_tree
        got = apply_adjoint(w, basis_vector(2))
        assert_vec_close(got, {0: 0.5 + 0.5j})

    def test_omega_example(self, omega):
        v = OmegaVertex(1, (2,))  # weight 2^0 / 3
        got = apply_adjoint(omega, basis_vector(v))
        assert_vec_close(got, {OmegaVertex(0): 1.0 / 3.0}, tol=1e-14)

    def test_bundle_goes_to_scaled_basis(self, omega):
        u = OmegaVertex(0)
        got = apply_adjoint(omega, bundle_vector(omega, u))
        assert_vec_close(got, {u: GAMMA}, tol=1e-14)

    def test_adjoint_of_shift_is_squared_norm(self, omega):
        u = OmegaVertex(0, (3,))
        back = apply_adjoint(omega, apply_shift(omega, basis_vector(u)))
        s = node_norm(omega, u)
        assert_vec_close(back, {u: s * s}, tol=1e-10)

    def test_adjoint_consistency_inner_products(self, omega):
        # <S f, g> == <f, S* g> with exact bundle inner products
        rng = np.random.default_rng(5)
        verts = [OmegaVertex(0), OmegaVertex(0, (1,)), OmegaVertex(1, (2, 3)), OmegaVertex(1)]
        for _ in range(25):
            f = zero_vector()
            for v in verts:
                f = f + basis_vector(v).scaled(complex(*rng.normal(size=2)))
            g_e = basis_vector(verts[2].child(1)).scaled(complex(*rng.normal(size=2)))
            g_b = bundle_vector(omega, verts[1]).scaled(complex(*rng.normal(size=2)))
            g = g_e + g_b
            lhs = apply_shift(omega, f).inner(g)
            rhs = f.inner(apply_adjoint(omega, g))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


class TestAluthgeBasisAction:
    def test_omega_excluded_with_certificate(self, omega):
        verdict = aluthge_basis_action(omega, 0.5, OmegaVertex(0))
        assert isinstance(verdict, DomainVerdict)
        assert verdict.is_out
        assert verdict.condition == "aluthge-weight-aggregate"
        assert verdict.certificate.ratio > 1

    def test_constant_path_action(self):
        w = CallableWeights(nat_path(), lambda v: 2.0)
        got = aluthge_basis_action(w, 0.5, 4)
        flat = expand(got)
        assert_vec_close(flat, {5: 2.0})

    def test_finite_tree_action(self, small_tree):
        tree, w = small_tree
        got = aluthge_basis_action(w, 0.3, 0)
        mu = aluthge_weights(w, 0.3)
        flat = expand(got)
        assert_vec_close(flat, {1: mu.weight(1), 2: mu.weight(2)}, tol=1e-13)


class TestAdjointAluthgeBasisAction:
    def test_omega_coefficient_formula(self, omega):
        t = 0.3
        v = OmegaVertex(2, (3, 2))  # parent digits (3,), grandparent all-zero
        got = adjoint_aluthge_basis_action(omega, t, v)
        grand = OmegaVertex(0)
        expected = (
            2.0 ** ((1 - t) * 3)
            / ((3 + 1) * (2 + 1) * GAMMA**2)
            * node_norm(omega, grand)
        )
        assert set(got.b) == {grand}
        assert got.b[grand] == pytest.approx(expected, rel=1e-12)

    def test_root_and_children_of_root_zero(self, small_tree):
        tree, w = small_tree
        assert adjoint_aluthge_basis_action(w, 0.5, 0).is_zero
        assert adjoint_aluthge_basis_action(w, 0.5, 1).is_zero
        assert adjoint_aluthge_basis_action(w, 0.5, 2).is_zero

    def test_depth_two_nonzero(self, small_tree):
        tree, w = small_tree
        got = adjoint_aluthge_basis_action(w, 0.5, 3)
        assert set(got.b) == {0}

    def test_singular_zero_over_zero_raises(self):
        # parent weight vanishes while the grandparent stays active: 0/0 form
        tree = finite_tree([None, 0, 1, 2, 1])
        w = TableWeights(tree, {1: 1.0, 2: 0.0, 3: 7.0, 4: 1.0})
        with pytest.raises(SingularWeightError) as err:
            adjoint_aluthge_basis_action(w, 0.5, 3)
        assert err.value.vertex == 2

    @staticmethod
    def _instances():
        yield from random_tree_corpus(30, seed=41, max_vertices=25, complex_count=10)
        yield from ((tree, w) for tree, w, _ in violating_instances(10, seed=43))
        # the transformed weight at 1 vanishes while the root stays active
        tree = finite_tree([None, 0, 0, 1, 1, 3])
        yield tree, TableWeights(tree, {1: 0.0, 2: 1.0, 3: 2.0, 4: 0.5j, 5: 1.5})

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 1.0])
    def test_coefficient_equals_the_transformed_system_route(self, t):
        # The action reads the parent's transformed weight without building
        # AluthgeWeights; the coefficient must be the same float, not a near one.
        checked = skipped = expected_skips = 0
        for tree, w in self._instances():
            mu = aluthge_weights(w, t)
            for v in tree.vertices():
                parent = tree.parent(v)
                grand = None if parent is None else tree.parent(parent)
                if grand is None or w.node_norm(grand) == 0.0:
                    assert adjoint_aluthge_basis_action(w, t, v).is_zero
                    continue
                grand_norm = w.node_norm(grand)
                mu_parent = mu.weight(parent)
                expected_skips += mu_parent == 0
                try:
                    got = adjoint_aluthge_basis_action(w, t, v)
                except SingularWeightError as err:
                    assert err.vertex == parent
                    skipped += 1
                    continue
                expected = (
                    w.weight(v).conjugate()
                    * abs(w.weight(parent) / grand_norm) ** 2
                    / mu_parent
                    * grand_norm
                )
                assert got.b == {grand: expected} and not got.e
                checked += 1
        assert checked > 100
        assert skipped == expected_skips > 0

    def test_inactive_grandparent_gives_zero(self):
        tree = finite_tree([None, 0, 1, 2])
        w = TableWeights(tree, {1: 0.0, 2: 0.0, 3: 1.0})
        # grandparent of 3 is 1; its norm |weight(2)| = 0, so the action is 0
        assert adjoint_aluthge_basis_action(w, 0.5, 3).is_zero


class TestDomainCheck:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_omega_basis_out_of_transform_domain(self, omega, t):
        verdict = domain_check(omega, basis_vector(OmegaVertex(0)), t=t)
        assert verdict.is_out
        assert verdict.certificate is not None

    def test_shift_domain_on_finite_tree(self, small_tree):
        tree, w = small_tree
        f = sum((basis_vector(v) for v in range(1, 6)), basis_vector(0))
        assert domain_check(w, f).is_in

    def test_transform_domain_at_t_one_matches_transformed_shift_domain(self, omega, small_tree):
        # at t = 1 the modulus factor is the identity, so membership reduces
        # to the transformed system's shift domain
        tree, w = small_tree
        for system, u in [(omega, OmegaVertex(1, (4,))), (w, 0), (w, 4)]:
            f = basis_vector(u)
            direct = domain_check(system, f, t=1.0)
            mu = aluthge_weights(system, 1.0)
            via_mu = domain_check(mu, f)
            assert direct.status == via_mu.status

    def test_parameter_validation(self, omega):
        f = basis_vector(OmegaVertex(0))
        with pytest.raises(ValueError):
            domain_check(omega, f, t=0.0)

    def test_modulus_power_keeps_finite_evidence(self, omega, small_tree):
        tree, w = small_tree
        verdict = domain_check(w, basis_vector(0) + basis_vector(1))
        assert verdict == DomainVerdict(status="in", evidence=((0, "node-norm-finite"), (1, "node-norm-finite")))
        # an ``out`` vertex keeps the conditions met before it
        u = OmegaVertex(0)
        verdict = domain_check(omega, basis_vector(u) + basis_vector(OmegaVertex(1)), t=0.5)
        assert (verdict.status, verdict.condition, verdict.vertex) == ("out", "aluthge-weight-aggregate", u)
        assert verdict.evidence == ((u, "node-norm-finite"),)

    def test_leaf_in_transform_domain(self, small_tree):
        tree, w = small_tree
        verdict = domain_check(w, basis_vector(3), t=0.5)
        assert verdict.is_in
        assert verdict.evidence == ((3, "node-norm-finite"), (3, "aluthge-aggregate-finite"))


class TestTruncate:
    def test_zero_terms(self):
        profile = [(0, 1.0), (1, 0.5)]
        assert truncate(profile, 0).is_zero

    def test_full_profile_recovered(self):
        profile = [(0, 1.0), (1, 0.5), (2, 0.25)]
        full = truncate(profile, 10)
        assert vec_items(full) == {0: 1.0, 1: 0.5, 2: 0.25}

    def test_shift_tail_norms_strictly_decrease(self):
        # geometric profile on a path truncation
        n = 10
        tree = finite_tree([None] + list(range(n - 1)))
        w = TableWeights(tree, {v: 1.0 for v in range(1, n)})
        profile = [(j, 2.0**-j) for j in range(n)]
        f = truncate(profile, n)
        previous_tail = None
        previous_shift = None
        for k in range(n):
            diff = f - truncate(profile, k)
            tail = diff.norm()
            shift_tail = apply_shift(w, diff).norm()
            if previous_tail is not None:
                assert tail < previous_tail
                assert shift_tail <= previous_shift
            previous_tail, previous_shift = tail, shift_tail
        assert truncate(profile, n).e == f.e
        assert (f - truncate(profile, n)).is_zero
