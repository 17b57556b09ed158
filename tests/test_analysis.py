import itertools
import math
from fractions import Fraction

import pytest

from treeshift.analysis import (
    branching_necessity_check,
    certify_trivial_aluthge_domain,
    check_densely_defined,
    check_hyponormal,
    nonclosability_witness,
    strict_inclusion_example,
    strict_inclusion_weight,
)
from treeshift.errors import CertificateError, NoWitnessError
from treeshift.operators import basis_vector
from treeshift.series import (
    Diverges,
    EventuallyIncreasing,
    SumPolicy,
    TermsDoNotVanish,
    inverse_square_sum,
)
from treeshift.trees import (
    LazyTree,
    OmegaVertex,
    SampleWindow,
    descendant_subtree,
    finite_tree,
    nat_path,
    omega_tree,
    sample_vertices,
)
from treeshift.weights import CallableWeights, OmegaShiftWeights, TableWeights, aluthge_weights

WINDOW = SampleWindow(levels=(-1, 1), depth_bound=2, digit_bound=2, deep_count=3)


def unit_star():
    tree = LazyTree(
        root="hub",
        parent_fn=lambda v: None if v == "hub" else "hub",
        children_fn=lambda u: itertools.count(0) if u == "hub" else (),
        child_count_fn=lambda u: None if u == "hub" else 0,
        contains_fn=lambda v: v == "hub" or isinstance(v, int),
    )
    claims = lambda u: TermsDoNotVanish(0, 1.0) if u == "hub" else None
    return CallableWeights(tree, lambda v: 1.0, divergence_claims=claims)


class TestDensity:
    def test_omega_family_level(self):
        report = check_densely_defined(OmegaShiftWeights())
        assert report.status == "family"
        assert report.densely_defined

    def test_finite_tree_family_level(self):
        tree = finite_tree([None, 0, 0])
        report = check_densely_defined(TableWeights(tree, {1: 5.0, 2: 0.0}))
        assert report.status == "family"

    def test_star_counterexample(self):
        w = unit_star()
        report = check_densely_defined(w, sample=["hub", 1, 2])
        assert report.status == "counterexample"
        assert report.counterexample == "hub"
        assert not report.densely_defined

    def test_bounded_path_sample_level(self):
        w = CallableWeights(nat_path(), lambda v: 1.0 / v)
        report = check_densely_defined(w)
        assert report.status == "sample"
        assert report.densely_defined


class TestHyponormality:
    def test_omega_margin_certified(self):
        report = check_hyponormal(OmegaShiftWeights())
        assert report.verdict == "hyponormal"
        assert report.family_level
        entry = report.margins["family"]
        assert 0.6 < entry.value < 0.7
        assert entry.value == pytest.approx(0.6508531727245893, abs=1e-9)
        assert entry.value + entry.tail < 1.0
        assert 1.0 - (entry.value + entry.tail) > 0.3
        assert entry.kind == "closed-form-tail"

    def test_margin_partial_sums_monotone_with_tail(self):
        w = OmegaShiftWeights()
        terms = list(itertools.islice(w.margin_terms(), 40))
        partials = list(itertools.accumulate(terms))
        # strictly increasing until the terms drop below float resolution
        assert all(a < b for a, b in zip(partials[:20], partials[1:20]))
        assert all(a <= b for a, b in zip(partials, partials[1:]))
        final = check_hyponormal(w).margins["family"]
        for n in (5, 10, 20):
            assert partials[n - 1] <= final.value + final.tail
            assert final.value <= partials[n - 1] + w.margin_tail_bound(n)

    def test_leaf_child_with_nonzero_weight_breaks_it(self):
        # margins stay below 1, so only the zero-norm condition is violated
        tree = finite_tree([None, 0, 1])
        w = TableWeights(tree, {1: 0.1, 2: 1.0})
        report = check_hyponormal(w)
        assert report.verdict == "not-hyponormal"
        vertex, condition = report.witness
        assert condition == "zero-norm-child"
        assert vertex == 2

    def test_nondecreasing_path_weights_pass(self):
        w = CallableWeights(nat_path(), lambda v: 1.0 + 0.1 * v)
        report = check_hyponormal(w, sample=list(range(12)))
        assert report.verdict == "hyponormal"
        assert all(entry.value <= 1.0 for entry in report.margins.values())

    def test_decreasing_path_weights_fail_margin(self):
        w = CallableWeights(nat_path(), lambda v: 2.0**-v)
        report = check_hyponormal(w, sample=list(range(6)))
        assert report.verdict == "not-hyponormal"
        assert report.witness[1] == "margin-above-one"

    def test_descendant_subtree_inherits_margin(self):
        apex = OmegaVertex(0, (2,))
        sub = descendant_subtree(omega_tree(), apex)
        report = check_hyponormal(OmegaShiftWeights(sub))
        assert report.verdict == "hyponormal"
        assert report.family_level


class TestHyponormalityDivergentChild:
    def test_child_with_divergent_norm_contributes_nothing(self):
        # 0 -> 1 -> 2, 3, 4, ...: the root has one child, whose infinitely many
        # children of weight 1 give it a claimed-divergent aggregate
        tree = LazyTree(
            root=0,
            parent_fn=lambda v: None if v == 0 else (0 if v == 1 else 1),
            children_fn=lambda u: (1,) if u == 0 else (itertools.count(2) if u == 1 else ()),
            child_count_fn=lambda u: {0: 1, 1: None}.get(u, 0),
        )
        claims = lambda u: TermsDoNotVanish(0, 1.0) if u == 1 else None
        w = CallableWeights(tree, lambda v: 1.0, divergence_claims=claims)
        assert w.node_norm(1) == math.inf
        report = check_hyponormal(w, sample=[0])
        assert report.verdict == "hyponormal"
        assert report.margins["0"].value == 0.0


class TestTriviality:
    @pytest.mark.parametrize("t", [0.01, 0.25, 0.5, 0.75, 1.0])
    def test_omega_family_certificate(self, t):
        report = certify_trivial_aluthge_domain(OmegaShiftWeights(), t, sample=sample_vertices(omega_tree(), WINDOW))
        assert report.status == "certified-family"
        assert report.family_certificate.ratio > 1.0
        assert report.per_vertex  # sampled vertices carry verified certificates

    def test_finite_tree_refuted(self):
        tree = finite_tree([None, 0, 0, 1])
        w = TableWeights(tree, {1: 1.0, 2: 2.0, 3: 0.5})
        report = certify_trivial_aluthge_domain(w, 0.5)
        assert report.status == "refuted"
        assert report.refuted_vertex == 0

    def test_descendant_subtree_certified(self):
        apex = OmegaVertex(0, (1,))
        sub = descendant_subtree(omega_tree(), apex)
        report = certify_trivial_aluthge_domain(OmegaShiftWeights(sub), 0.25, sample=sample_vertices(sub, WINDOW))
        assert report.status == "certified-family"

    def test_t_validated(self):
        with pytest.raises(ValueError):
            certify_trivial_aluthge_domain(OmegaShiftWeights(), 0.0)


class OverclaimedWeights(OmegaShiftWeights):
    """The built-in family with its transform's ratio claim raised to the
    real ratio one step past the start, so only the first ratio past the
    start contradicts it."""

    def _aluthge_closed_form(self, u, t):
        start = super()._aluthge_closed_form(u, t).certificate.start
        return Diverges(EventuallyIncreasing(start, 4.0**t * ((start + 2) / (start + 3)) ** 2))


class TestTrivialityWork:
    # Deterministic work of the per-vertex certificate check on the
    # descendant window of 21 vertices: each vertex reads the window
    # [start, max(48, start + 17)) and nothing before it.
    WINDOW = SampleWindow(depth_bound=2, digit_bound=3)

    # The family streams each child's (norm, weight) pair by digit arithmetic
    # without calling ``weight``, so the count is taken on that stream.
    @pytest.mark.parametrize("t, weight_calls", [(0.5, 966), (0.1, 735), (0.02, 357)])
    def test_weight_calls_and_no_cached_closed_forms(self, monkeypatch, t, weight_calls):
        w = OmegaShiftWeights(descendant_subtree(omega_tree(), OmegaVertex(0, (2,))))
        pairs = []
        stream = OmegaShiftWeights.child_norms_and_weights

        def counting(self, u, first=0):
            for pair in stream(self, u, first):
                pairs.append(pair)
                yield pair

        monkeypatch.setattr(OmegaShiftWeights, "child_norms_and_weights", counting)
        report = certify_trivial_aluthge_domain(w, t, sample=sample_vertices(w.tree, self.WINDOW))
        assert report.status == "certified-family"
        start = report.family_certificate.start
        assert len(pairs) == 21 * (max(48, start + 17) - start) == weight_calls
        assert w._aggregates == {}

    def test_violation_at_first_ratio_past_start_caught(self):
        with pytest.raises(CertificateError, match="ratio at term 3 drops"):
            certify_trivial_aluthge_domain(OverclaimedWeights(), 0.5, sample=sample_vertices(omega_tree(), WINDOW))


def leaf_star(leaf_weight):
    """Root 0 with children 1, 2, ..., each with the one leaf -v.  Child v has
    weight 1/v and its leaf ``leaf_weight(v)``; the root's aggregate is a
    series with a tail bound, every other aggregate an exact finite sum."""
    tree = LazyTree(
        root=0,
        parent_fn=lambda v: None if v == 0 else (0 if v > 0 else -v),
        children_fn=lambda u: itertools.count(1) if u == 0 else ((-u,) if u > 0 else ()),
        child_count_fn=lambda u: None if u == 0 else int(u > 0),
    )
    policy = SumPolicy(max_terms=1000, tail_bound=lambda n: 1.0 / n)
    return CallableWeights(tree, lambda v: 1.0 / v if v > 0 else leaf_weight(-v), policy=policy)


class OpenFamilyWeights(OmegaShiftWeights):
    """The built-in family without its claim that the closed forms cover
    every vertex, so only the sampled vertices can be certified."""

    closed_form_total = False


class TestTrivialityRoutes:
    # The statuses other than certified-family and refuted, each from a
    # system whose transformed aggregate ends in the matching verdict.
    def test_partial_sum_crossing_is_heuristic(self):
        # transformed weights v / norm(0): the partial sums pass the threshold
        report = certify_trivial_aluthge_domain(leaf_star(lambda v: v**2), 1.0, sample=[0])
        assert report.status == "heuristic"
        assert report.per_vertex["0"].kind == "partial-sum-exceeds"
        assert report.family_certificate is None

    def test_term_budget_without_tail_bound_is_inconclusive(self):
        # zero child norms make every transformed weight 0
        report = certify_trivial_aluthge_domain(leaf_star(lambda v: 0.0), 0.5, sample=[0])
        assert report.status == "inconclusive"
        assert report.per_vertex == {}
        assert report.checked == (0,)

    def test_verified_claims_without_family_cover_are_sampled(self):
        sample = [OmegaVertex(0), OmegaVertex(1, (2,))]
        report = certify_trivial_aluthge_domain(OpenFamilyWeights(), 0.5, sample=sample)
        assert report.status == "certified-sample"
        assert report.family_certificate is None
        assert sorted(report.per_vertex) == ["0:", "1:2"]
        assert all(cert.kind == "eventually-increasing" for cert in report.per_vertex.values())


class TestWitness:
    def test_partial_sums_cross_threshold(self):
        w = OmegaShiftWeights()
        f = basis_vector(OmegaVertex(1))  # weight 1 into the all-zero chain
        witness = nonclosability_witness(w, 0.5, f, terms=40)
        assert witness.crossing_index == 31  # pinned from the first run
        assert witness.partial_sums[31] > 1e6
        assert witness.partial_sums[30] <= 1e6
        sums = witness.partial_sums
        assert all(a < b for a, b in zip(sums, sums[1:]))

    def test_term_growth_matches_limit(self):
        w = OmegaShiftWeights()
        f = basis_vector(OmegaVertex(1))
        t = 0.5
        witness = nonclosability_witness(w, t, f, terms=300)
        ratios = [b / a for a, b in zip(witness.terms, witness.terms[1:])]
        limit = 4.0 ** (1 - t)
        assert witness.ratio_limit == limit
        for k, r in enumerate(ratios):
            assert r == pytest.approx(limit * ((k + 1) / (k + 2)) ** 2, rel=1e-12)
        assert ratios[-1] == pytest.approx(limit, rel=1e-2)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_growth_certificate_eventually_increasing(self, t):
        w = OmegaShiftWeights()
        witness = nonclosability_witness(w, t, basis_vector(OmegaVertex(1)), terms=64)
        cert = witness.certificate
        assert cert.ratio > 1.0
        for k in range(cert.start, 60):
            assert witness.terms[k + 1] >= witness.terms[k] * cert.ratio * (1 - 1e-12)

    def test_kernel_vector_has_no_witness(self):
        w = OmegaShiftWeights()
        u = OmegaVertex(0)
        # weights at the two children: 1 and 1/2; the combination below is
        # annihilated by the adjoint exactly
        f = basis_vector(u.child(0)) + basis_vector(u.child(1)).scaled(-2.0)
        with pytest.raises(NoWitnessError):
            nonclosability_witness(w, 0.5, f)

    def test_t_one_rejected(self):
        with pytest.raises(ValueError):
            nonclosability_witness(OmegaShiftWeights(), 1.0, basis_vector(OmegaVertex(1)))

    @pytest.mark.parametrize("t", [-600.0, -1e300, 2.0, math.inf, math.nan])
    def test_far_t_rejected_before_any_power(self, t):
        # 4^(1-t) overflows for t below -511; the t check must still answer
        with pytest.raises(ValueError, match="strictly inside"):
            nonclosability_witness(OmegaShiftWeights(), t, basis_vector(OmegaVertex(1)))

    def test_pairing_uses_adjoint_coefficient(self):
        w = OmegaShiftWeights()
        v = OmegaVertex(1, (3,))  # weight 1/4
        witness = nonclosability_witness(w, 0.5, basis_vector(v), terms=8)
        assert witness.base_vertex == OmegaVertex(0)
        assert witness.adjoint_coefficient == pytest.approx(0.25)
        g4 = inverse_square_sum().value ** 2
        assert witness.terms[0] == pytest.approx(0.0625 / g4, rel=1e-12)

    def test_works_on_descendant_subtree(self):
        apex = OmegaVertex(0)
        sub = descendant_subtree(omega_tree(), apex)
        w = OmegaShiftWeights(sub)
        f = basis_vector(apex.child(0).child(0))
        witness = nonclosability_witness(w, 0.5, f, terms=40)
        assert witness.crossing_index is not None


def family_weight(v):
    return 2.0 ** (v.digit_sum - v.last_digit) / (v.last_digit + 1)


class TestNonFamilySystem:
    # The family's weights as a plain callable system: the same operator, but
    # without the family's hooks, so no family-level claim may come out.
    def test_margin_not_family_level(self):
        w = CallableWeights(omega_tree(), family_weight)
        report = check_hyponormal(w, sample=[OmegaVertex(0)])
        assert not report.family_level
        assert "family" not in report.margins

    @pytest.mark.parametrize(
        "t, f",
        [
            (0.5, basis_vector(OmegaVertex(1))),
            # annihilated by the adjoint, which would raise NoWitnessError
            (0.5, basis_vector(OmegaVertex(0).child(0)) + basis_vector(OmegaVertex(0).child(1)).scaled(-2.0)),
            # outside (0, 1), which would raise the t error
            (1.0, basis_vector(OmegaVertex(1))),
        ],
        ids=["normal", "kernel", "t-one"],
    )
    def test_witness_refused_first(self, t, f):
        w = CallableWeights(omega_tree(), family_weight)
        with pytest.raises(ValueError, match="^the witness construction needs the built-in branching family$"):
            nonclosability_witness(w, t, f)


class TestBranching:
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_random_finite_trees_all_in(self, t):
        from treeshift.oracle import random_tree_corpus

        for tree, w in random_tree_corpus(12, seed=77, max_vertices=20):
            report = branching_necessity_check(w, t)
            assert report.status == "all-in"
            assert not report.violations

    def test_bounded_path_all_in(self):
        w = CallableWeights(nat_path(), lambda v: 1.0)
        report = branching_necessity_check(w, 0.5, sample=list(range(8)))
        assert report.status == "all-in"

    def test_omega_vacuous(self):
        report = branching_necessity_check(OmegaShiftWeights(), 0.5, sample=sample_vertices(omega_tree(), WINDOW))
        assert report.status == "vacuous"
        assert "vacuous" in report.notes

    def test_zero_weight_refused(self):
        tree = finite_tree([None, 0])
        w = TableWeights(tree, {1: 0.0})
        with pytest.raises(ValueError):
            branching_necessity_check(w, 0.5)


class TestStrictInclusion:
    def test_half_transform_exact(self):
        report = strict_inclusion_example(Fraction(1, 2), terms=64)
        assert report.weight_exponent == 2
        assert report.all_terms_one
        assert report.transformed_weights_zero
        assert report.proper_inclusion
        cert = report.modulus_certificate
        assert cert.lower_bound == 1.0 and cert.start == 0

    def test_other_admissible_t(self):
        report = strict_inclusion_example(Fraction(2, 3), terms=32)
        assert report.weight_exponent == 3
        assert report.proper_inclusion

    def test_inadmissible_t_rejected(self):
        with pytest.raises(ValueError):
            strict_inclusion_example(Fraction(1, 3))
        with pytest.raises(ValueError):
            strict_inclusion_example(Fraction(3, 2))

    def test_float_route_confirms_vanishing_transform(self):
        w = CallableWeights(nat_path(), strict_inclusion_weight(2))
        mu = aluthge_weights(w, 0.5)
        assert all(mu.weight(v) == 0 for v in range(1, 40))
        # while the base operator itself is unbounded along the path
        norms = [w.node_norm(2 * k) for k in range(1, 6)]
        assert all(b > a for a, b in zip(norms, norms[1:]))
