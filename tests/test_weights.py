import itertools
import math
import re

import pytest

from treeshift.analysis import check_densely_defined
from treeshift.errors import EvaluationError, StructureError
from treeshift.operators import StructuredVector, basis_vector, domain_check
from treeshift.series import (
    Converges,
    Diverges,
    closed_form_aggregate,
    inverse_square_sum,
)
from treeshift.trees import (
    OmegaVertex,
    descendant_subtree,
    finite_tree,
    nat_path,
    omega_tree,
)
from treeshift.weights import (
    AluthgeWeights,
    CallableWeights,
    OmegaShiftWeights,
    TableWeights,
    aluthge_weights,
    node_norm,
    polar_weights,
)

GAMMA = math.sqrt(inverse_square_sum().value)


def doubling_path():
    # weight of edge into n is 2^(n-1), so the norm at n is 2^n
    return CallableWeights(nat_path(), lambda v: 2.0 ** (v - 1))


def divergent_family():
    # the family's transform at t = 1/2: every node norm diverges through the
    # checked closed form
    return aluthge_weights(OmegaShiftWeights(), 0.5)


# a vertex of the family and its first child
APEX, FIRST_CHILD = OmegaVertex(0), OmegaVertex(1)


class TestNodeNorm:
    def test_omega_all_zero_norm_is_gamma(self):
        w = OmegaShiftWeights()
        nn = node_norm(w, OmegaVertex(0))
        assert math.isfinite(nn)
        assert nn == pytest.approx(GAMMA, rel=1e-15)

    def test_omega_norm_scales_with_digit_sum(self):
        w = OmegaShiftWeights()
        nn = node_norm(w, OmegaVertex(2, (1, 2)))
        assert nn == pytest.approx(8.0 * GAMMA, rel=1e-14)

    def test_leaf_norm_is_zero(self):
        tree = finite_tree([None, 0])
        w = TableWeights(tree, {1: 2.5})
        assert node_norm(w, 1) == 0.0

    def test_doubling_path_norm(self):
        w = doubling_path()
        assert node_norm(w, 5) == pytest.approx(2.0**5, rel=1e-15)

    def test_nan_weight_has_no_finite_norm(self):
        w = CallableWeights(nat_path(), lambda v: math.nan)
        with pytest.raises(EvaluationError):
            w.node_norm(0)

    def test_infinite_norm_with_claim(self):
        w = divergent_family()
        nn = node_norm(w, APEX)
        assert nn == math.inf
        assert w.aggregate(APEX) == closed_form_aggregate(4.0**0.5)

    def test_aggregate_cached(self):
        # Summed aggregates are cached; closed forms are recomputed.
        w = CallableWeights(nat_path(), lambda v: 2.0)
        assert w.aggregate(0) is w.aggregate(0)
        family = OmegaShiftWeights()
        assert family.aggregate(APEX) == family.aggregate(APEX)
        assert family.aggregate(APEX) is not family.aggregate(APEX)
        table = TableWeights(finite_tree([None, 0, 0]), {1: 1.0, 2: 2.0})
        assert table.aggregate(0) is table.aggregate(0)


class TestOmegaWeights:
    def test_weight_formula(self):
        w = OmegaShiftWeights()
        # digits (3, 2): 2^3 / (2 + 1)
        assert w.weight(OmegaVertex(1, (3, 2))) == pytest.approx(8.0 / 3.0)
        assert w.weight(OmegaVertex(1, (2,))) == pytest.approx(1.0 / 3.0)
        assert w.weight(OmegaVertex(9)) == 1.0

    def test_works_on_descendant_subtree(self):
        apex = OmegaVertex(0, (1,))
        sub = descendant_subtree(omega_tree(), apex)
        w = OmegaShiftWeights(sub)
        child = apex.child(2)
        assert w.weight(child) == pytest.approx(2.0 / 3.0)
        assert node_norm(w, apex) == pytest.approx(2.0 * GAMMA, rel=1e-14)
        with pytest.raises(EvaluationError):
            w.weight(apex)  # the apex is the root of the subtree

    def test_rejects_foreign_trees(self):
        with pytest.raises(StructureError):
            OmegaShiftWeights(nat_path())


class TestPolarWeights:
    def test_omega_modulus(self):
        w = OmegaShiftWeights()
        pi = polar_weights(w)
        for digits in [(), (3,), (2, 5)]:
            level = len(digits)
            v = OmegaVertex.make(level, digits) if digits else OmegaVertex(level)
            expected = 1.0 / ((v.last_digit + 1) * GAMMA)
            assert abs(pi.weight(v)) == pytest.approx(expected, rel=1e-14)

    def test_zero_parent_norm_gives_zero(self):
        # vertex 1 is a zero node (both child weights vanish), so both
        # children take the zero branch of the polar formula
        tree = finite_tree([None, 0, 1, 1])
        w = TableWeights(tree, {1: 1.0, 2: 0.0, 3: 0.0})
        pi = polar_weights(w)
        assert pi.weight(2) == 0
        assert pi.weight(3) == 0

    def test_doubling_path_polar_weights_are_one(self):
        pi = polar_weights(doubling_path())
        for n in (1, 2, 7):
            assert pi.weight(n) == pytest.approx(1.0, rel=1e-15)

    def test_polar_aggregate_is_unit_on_active_vertices(self):
        w = OmegaShiftWeights()
        pi = polar_weights(w)
        agg = pi.aggregate(OmegaVertex(0, (4,)))
        assert agg == Converges(1.0, 0.0)

    def test_infinite_parent_norm_errors_with_vertex(self):
        pi = polar_weights(divergent_family())
        with pytest.raises(EvaluationError) as err:
            pi.weight(FIRST_CHILD)
        assert err.value.vertex == FIRST_CHILD


class TestAluthgeWeights:
    def test_t_range_validated(self):
        w = OmegaShiftWeights()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                aluthge_weights(w, bad)

    def test_geometric_mean_on_path(self):
        # positive path weights, t = 1/2: transformed weight is the geometric
        # mean of adjacent weights
        vals = {1: 1.3, 2: 0.7, 3: 2.9, 4: 1.1, 5: 0.4}
        w = CallableWeights(nat_path(), lambda v: vals.get(v, 1.0))
        mu = aluthge_weights(w, 0.5)
        for n in (1, 2, 3, 4):
            assert mu.weight(n).real == pytest.approx(
                math.sqrt(vals[n] * vals[n + 1]), rel=1e-12
            )

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_constant_weights_fixed_point(self, t):
        w = CallableWeights(nat_path(), lambda v: 1.7)
        mu = aluthge_weights(w, t)
        assert mu.weight(4).real == pytest.approx(1.7, rel=1e-15)

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.9])
    def test_omega_closed_form(self, t):
        w = OmegaShiftWeights()
        mu = aluthge_weights(w, t)
        for digits in [(2,), (3, 1), (1, 0, 4)]:
            v = OmegaVertex.make(len(digits), digits)
            expected = 2.0 ** (v.digit_sum - (1 - t) * v.last_digit) / (v.last_digit + 1)
            assert mu.weight(v).real == pytest.approx(expected, rel=1e-12)

    def test_omega_aggregate_diverges_for_all_t(self):
        w = OmegaShiftWeights()
        for t in (0.01, 0.25, 0.5, 0.75, 1.0):
            agg = aluthge_weights(w, t).aggregate(OmegaVertex(0, (2,)))
            assert isinstance(agg, Diverges)
            assert agg.certificate.ratio > 1.0

    def test_omega_aggregate_refuses_t_below_float_resolution(self):
        # 4^t rounds to exactly 1 here; that must not read as the convergent t = 0 series
        mu = aluthge_weights(OmegaShiftWeights(), 1e-17)
        with pytest.raises(ArithmeticError):
            mu.aggregate(OmegaVertex(0))

    def test_t_equals_one_matches_norm_ratio_times_weight(self):
        w = doubling_path()
        mu = aluthge_weights(w, 1.0)
        for n in (1, 2, 5):
            s_child = node_norm(w, n)
            s_parent = node_norm(w, n - 1)
            assert mu.weight(n).real == pytest.approx(
                s_child / s_parent * w.weight(n).real, rel=1e-15
            )

    def test_zero_branches(self):
        tree = finite_tree([None, 0, 1, 2])
        w = TableWeights(tree, {1: 1.0, 2: 0.0, 3: 4.0})
        mu = aluthge_weights(w, 0.5)
        # vertex 3 is a leaf: zero child norm kills its transformed weight
        assert mu.weight(3) == 0
        # vertex 2's parent has zero norm: the inactive-parent branch applies
        assert mu.weight(2) == 0


class TestScaleCovariance:
    def test_scaling_weights_scales_mu_and_fixes_pi(self):
        tree = finite_tree([None, 0, 0, 1, 1, 2])
        base = {1: 1.5, 2: 0.3, 3: 2.2, 4: 0.9, 5: 1.1}
        c = 3.7
        w1 = TableWeights(tree, base)
        w2 = TableWeights(tree, {v: c * x for v, x in base.items()})
        mu1, mu2 = aluthge_weights(w1, 0.4), aluthge_weights(w2, 0.4)
        pi1, pi2 = polar_weights(w1), polar_weights(w2)
        for v in range(1, 6):
            assert mu2.weight(v) == pytest.approx(c * mu1.weight(v), rel=1e-12)
            assert pi2.weight(v) == pytest.approx(pi1.weight(v), rel=1e-12)


class TestTableWeights:
    def test_table_must_cover_non_root_vertices(self):
        tree = finite_tree([None, 0, 0])
        with pytest.raises(StructureError):
            TableWeights(tree, {1: 1.0})
        with pytest.raises(StructureError):
            TableWeights(tree, {1: 1.0, 2: 1.0, 3: 1.0})

    def test_root_has_no_weight(self):
        tree = finite_tree([None, 0])
        w = TableWeights(tree, {1: 2.0})
        with pytest.raises(EvaluationError):
            w.weight(0)

    def test_complex_weights(self):
        tree = finite_tree([None, 0])
        w = TableWeights(tree, {1: 1 + 2j})
        assert node_norm(w, 0) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def weight_by_weight(mu, u, count, first=0):
    return [abs(mu.weight(v)) ** 2 for v in itertools.islice(mu.tree.children(u, first), count)]


def hexes(terms):
    """The terms as exact hex strings, so that equal lists are bit-equal."""
    return [term.hex() for term in terms]


class TestChildTerms:
    """``child_terms`` equals the squared weights taken one ``weight`` call at a time."""

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.1, 0.02])
    @pytest.mark.parametrize(
        "tree, vertices",
        [
            (omega_tree(), [OmegaVertex(0), OmegaVertex(-3), OmegaVertex(2, (3, 0, 1))]),
            (
                descendant_subtree(omega_tree(), OmegaVertex(0, (2,))),
                [OmegaVertex(0, (2,)), OmegaVertex(2, (2, 0, 5))],
            ),
        ],
        ids=["omega", "descendant"],
    )
    def test_omega_family_bit_equal(self, t, tree, vertices):
        mu = aluthge_weights(OmegaShiftWeights(tree), t)
        for u in vertices:
            for first in (0, 1, 13, 71):
                got = itertools.islice(mu.child_terms(u, first), 64)
                assert hexes(got) == hexes(weight_by_weight(mu, u, 64, first))

    def test_finite_tree_with_zero_norm_vertex(self):
        # vertex 1 has norm 0 (both child weights vanish); 2, 3 and 5 are leaves
        tree = finite_tree([None, 0, 1, 1, 0, 4])
        w = TableWeights(tree, {1: 1.5, 2: 0.0, 3: 0.0, 4: 0.5 - 2j, 5: 3.0})
        for t in (1.0, 0.5, 0.1, 0.02):
            mu = aluthge_weights(w, t)
            for u in tree.vertices():
                for first in range(3):
                    assert hexes(mu.child_terms(u, first)) == hexes(weight_by_weight(mu, u, 64, first))
            assert list(w.child_terms(0)) == [abs(w.weight(v)) ** 2 for v in (1, 4)]

    @pytest.mark.parametrize("first", [1, 13, 71])
    def test_from_first_index_drops_the_earlier_children(self, first):
        tree = descendant_subtree(omega_tree(), OmegaVertex(0, (2,)))
        for w in (OmegaShiftWeights(tree), aluthge_weights(OmegaShiftWeights(tree), 0.02)):
            for u in (OmegaVertex(0, (2,)), OmegaVertex(2, (2, 0, 5))):
                expected = list(itertools.islice(w.child_terms(u), first, first + 32))
                assert list(itertools.islice(w.child_terms(u, first), 32)) == expected
        w = TableWeights(finite_tree([None, 0, 0, 0]), {1: 1.0, 2: 2.0, 3: 3.0})
        assert list(w.child_terms(0, first)) == [4.0, 9.0][first - 1 :]

    def test_infinite_parent_norm_names_first_child(self):
        mu = aluthge_weights(divergent_family(), 0.5)
        with pytest.raises(EvaluationError) as by_weight:
            mu.weight(FIRST_CHILD)
        with pytest.raises(EvaluationError) as by_stream:
            next(mu.child_terms(APEX))
        assert by_stream.value.vertex == by_weight.value.vertex == FIRST_CHILD
        assert str(by_stream.value) == str(by_weight.value)


class TestUndeterminedNorm:
    # An infinite child set without a closed form has no aggregate: every
    # reader raises, naming the vertex, before it reads a child weight.
    @staticmethod
    def counted(value, reads):
        def fn(v):
            reads.append(v)
            return value

        return CallableWeights(omega_tree(), fn)

    def test_finite_norm_names_the_vertex(self):
        w = self.counted(1.0, [])
        message = f"^{re.escape(f'infinite child set at {APEX!r} has no closed form')}$"
        with pytest.raises(EvaluationError, match=message) as err:
            w.finite_norm(APEX)
        assert err.value.vertex == APEX

    def test_transform_at_zero_norm_parent_reads_the_child_norm_first(self):
        # vertex 0's single child 1 weighs 0, so 0 has norm 0; 1's own norm
        # needs the weight at 2, which the table lacks
        w = TableWeights(nat_path(), {1: 0.0})
        assert node_norm(w, 0) == 0.0
        mu = aluthge_weights(w, 0.5)
        # parent norm, then the child's norm and weight, then the zero check
        with pytest.raises(EvaluationError, match="^no weight stored for vertex 2$") as by_weight:
            mu.weight(1)
        with pytest.raises(EvaluationError, match="^no weight stored for vertex 2$") as by_stream:
            next(mu.child_terms(0))
        assert by_weight.value.vertex == by_stream.value.vertex == 2

    @pytest.mark.parametrize("value", [1.0, 1e7])
    @pytest.mark.parametrize(
        "reader",
        [
            lambda w, u: w.aggregate(u),
            lambda w, u: node_norm(w, u),
            lambda w, u: domain_check(w, basis_vector(u)),
            lambda w, u: check_densely_defined(w, sample=[u]),
        ],
        ids=["aggregate", "node_norm", "domain_check", "density"],
    )
    def test_no_closed_form_raises_at_the_vertex(self, reader, value):
        reads = []
        w = self.counted(value, reads)
        for u in (APEX, OmegaVertex(2, (3, 1))):
            with pytest.raises(EvaluationError, match="has no closed form$") as err:
                reader(w, u)
            assert err.value.vertex == u
        assert reads == []


class TestWeightReadErrors:
    # A weight read checks its vertex once, through the parent lookup in the
    # derived systems; each refusal keeps its type, message and vertex.
    SYSTEMS = {
        "table": lambda base: base,
        "polar": polar_weights,
        "aluthge": lambda base: aluthge_weights(base, 0.5),
    }

    @staticmethod
    def _bases():
        tree = finite_tree([None, 0, 0, 1])
        table = TableWeights(tree, {1: 2.0, 2: 0.5, 3: 0.0})  # vertex 1 has norm 0
        partial = TableWeights(nat_path(), {1: 1.0, 2: 3.0})  # no weight at 3
        return {"table": table, "partial": partial, "divergent": divergent_family()}

    ROOT = (EvaluationError, "weights are defined on non-root vertices only", 0)
    OUTSIDE = (StructureError, "vertex 7 is not in this tree", None)
    MISSING = (EvaluationError, "no weight stored for vertex 3", 3)
    INFINITE = (EvaluationError, f"node norm at {APEX!r} is infinite", FIRST_CHILD)
    CASES = [
        ("table", "table", 0, ROOT),
        ("table", "table", 7, OUTSIDE),
        ("table", "partial", 3, MISSING),
        ("polar", "table", 0, ROOT),
        ("polar", "table", 7, OUTSIDE),
        ("polar", "partial", 3, MISSING),
        ("polar", "divergent", FIRST_CHILD, INFINITE),
        ("aluthge", "table", 0, ROOT),
        ("aluthge", "table", 7, OUTSIDE),
        ("aluthge", "partial", 3, MISSING),
        ("aluthge", "partial", 2, MISSING),  # the child's own norm reads weight 3
        ("aluthge", "divergent", FIRST_CHILD, INFINITE),
    ]

    @pytest.mark.parametrize("system, base, v, expected", CASES)
    def test_refusal(self, system, base, v, expected):
        kind, message, vertex = expected
        w = self.SYSTEMS[system](self._bases()[base])
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
            w.weight(v)
        assert type(caught.value) is kind
        assert getattr(caught.value, "vertex", None) == vertex

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_zero_parent_norm_gives_zero(self, system):
        assert self.SYSTEMS[system](self._bases()["table"]).weight(3) == 0j

    @pytest.mark.parametrize("u, norm", [(1, 0.0), (APEX, math.inf), (2, 0.0)])
    def test_outside_vector_refuses_a_bundle_without_finite_positive_norm(self, u, norm):
        base = self._bases()["divergent" if norm == math.inf else "table"]
        assert base.node_norm(u) == norm
        message = re.escape(f"bundle at {u!r} needs a finite positive node norm")
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            StructuredVector(base, {u: 1.0}, {u: 2.0})
