import collections
import itertools
import math
from fractions import Fraction

import pytest

from treeshift import series
from treeshift.analysis import (
    branching_necessity_check,
    certify_trivial_aluthge_domain,
    check_densely_defined,
    check_hyponormal,
    nonclosability_witness,
    strict_inclusion_example,
    strict_inclusion_weight,
)
from treeshift.errors import CertificateError, EvaluationError, NoWitnessError, StructureError
from treeshift.operators import (
    DomainVerdict,
    aluthge_basis_action,
    basis_domain_verdict,
    basis_vector,
    domain_check,
)
from treeshift.series import (
    Diverges,
    EventuallyIncreasing,
    TermsDoNotVanish,
    inverse_square_sum,
)
from treeshift.trees import (
    OmegaVertex,
    SampleWindow,
    descendant_subtree,
    finite_tree,
    nat_path,
    omega_tree,
    sample_vertices,
)
from treeshift.weights import (
    AluthgeWeights,
    CallableWeights,
    OmegaShiftWeights,
    PolarWeights,
    TableWeights,
    aluthge_weights,
)

WINDOW = SampleWindow(levels=(-1, 1), depth_bound=2, digit_bound=2, deep_count=3)


def divergent_family():
    """The family's transform at t = 1/2: every vertex is the hub of a star
    of infinitely many children, and every node norm diverges through the
    checked closed form."""
    return aluthge_weights(OmegaShiftWeights(), 0.5)


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
        w = divergent_family()
        report = check_densely_defined(w, sample=[OmegaVertex(0), OmegaVertex(1), OmegaVertex(1, (2,))])
        assert report.status == "counterexample"
        assert report.counterexample == OmegaVertex(0)
        assert report.checked == ()
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


class InsideSlackWeights(OmegaShiftWeights):
    """The built-in family with its transform's ratio claim moved to the
    first index whose ratio exceeds 1, before the check can confirm it."""

    def _aluthge_closed_form(self, u, t):
        growth = 4.0**t
        start = next(n for n in itertools.count() if growth * ((n + 1) / (n + 2)) ** 2 > 1.0)
        return Diverges(EventuallyIncreasing(start, growth * ((start + 1) / (start + 2)) ** 2))


class TestTrivialityWork:
    # Deterministic work of the certificate check on the descendant window of
    # 21 vertices with 7 distinct digit sums: one transform reads the family's
    # unit stream once, on [start, max(48, start + 17)) and nothing before it,
    # and builds no child's norm or weight.
    WINDOW = SampleWindow(depth_bound=2, digit_bound=3)

    @pytest.mark.parametrize("t, unit_terms", [(0.5, 46), (0.1, 35), (0.02, 17)])
    def test_unit_terms_read_and_no_cached_closed_forms(self, monkeypatch, t, unit_terms):
        w = OmegaShiftWeights(descendant_subtree(omega_tree(), OmegaVertex(0, (2,))))
        weighed, terms = [], []
        weight, unit = OmegaShiftWeights.weight, OmegaShiftWeights._aluthge_unit_terms

        def counting_weight(self, v):
            weighed.append(v)
            return weight(self, v)

        def counting_unit(self, t, first):
            for term in unit(self, t, first):
                terms.append(term)
                yield term

        monkeypatch.setattr(OmegaShiftWeights, "weight", counting_weight)
        monkeypatch.setattr(OmegaShiftWeights, "_aluthge_unit_terms", counting_unit)
        sample = sample_vertices(w.tree, self.WINDOW)
        report = certify_trivial_aluthge_domain(w, t, sample=sample)
        assert report.status == "certified-family"
        assert len(sample) == 21 and len({u.digit_sum for u in sample}) == 7
        start = report.family_certificate.start
        assert len(terms) == max(48, start + 17) - start == unit_terms
        assert weighed == []
        assert w._aggregates == {}

    def test_one_check_per_transform_on_the_paper_sample(self, monkeypatch):
        # 326 sampled vertices, 16 distinct digit sums.  The node-norm closed
        # form runs once per vertex (its domain verdict) and never for the
        # check, which reads no parent norm.
        calls = collections.Counter()
        verify, closed_form = series.verify_certificate, OmegaShiftWeights._closed_form

        def counting_verify(*args, **kwargs):
            calls["verify"] += 1
            return verify(*args, **kwargs)

        def counting_closed_form(self, u):
            calls["closed_form"] += 1
            return closed_form(self, u)

        monkeypatch.setattr(series, "verify_certificate", counting_verify)
        monkeypatch.setattr(OmegaShiftWeights, "_closed_form", counting_closed_form)
        w = OmegaShiftWeights()
        sample = sample_vertices(w.tree)
        assert len(sample) == 326
        assert certify_trivial_aluthge_domain(w, 0.5, sample=sample).status == "certified-family"
        assert calls == {"verify": 1, "closed_form": 326}
        for _ in range(9):  # each call builds its own transform
            certify_trivial_aluthge_domain(w, 0.5, sample=sample)
        assert calls == {"verify": 10, "closed_form": 3260}

    def test_violation_at_first_ratio_past_start_caught(self):
        with pytest.raises(CertificateError, match="ratio at term 3 drops"):
            certify_trivial_aluthge_domain(OverclaimedWeights(), 0.5, sample=sample_vertices(omega_tree(), WINDOW))


class OverclaimedAtOneVertex(OmegaShiftWeights):
    """The built-in family with its transform's ratio claim raised, as in
    ``OverclaimedWeights``, at the one vertex ``target`` only."""

    def __init__(self, target):
        super().__init__()
        self.target = target

    def _aluthge_closed_form(self, u, t):
        verdict = super()._aluthge_closed_form(u, t)
        if u != self.target:
            return verdict
        start = verdict.certificate.start
        return Diverges(EventuallyIncreasing(start, 4.0**t * ((start + 2) / (start + 3)) ** 2))


class FloorClaimWeights(OmegaShiftWeights):
    """The built-in family with its transform's ratio claim replaced by the
    claim that the squared transformed child weights are at least 1.  At
    t = 0.5 they are 4^S(u) 2^n / (n + 1)^2, whose least value is 4^S(u) 4/9:
    the claim fails at digit sum 0 and holds at every other one."""

    def _aluthge_closed_form(self, u, t):
        return Diverges(TermsDoNotVanish(0, 1.0))


class TestSharedStreams:
    # The family hands its transforms one child stream in units of 4^S(u)
    # through ``_aluthge_unit_terms``, and a transform checks a ratio claim
    # on it once.
    FAMILIES = {
        "paper": lambda: OmegaShiftWeights(),
        "descendant": lambda: OmegaShiftWeights(descendant_subtree(omega_tree(), OmegaVertex(0, (2,)))),
    }

    @pytest.mark.parametrize("t", [1.0, 0.9, 0.5, 0.1, 0.02])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_unit_stream_scaled_is_every_vertex_stream(self, family, t):
        w = self.FAMILIES[family]()
        mu = aluthge_weights(w, t)
        for depth, digits in [(2, 3), (3, 2), (3, 3)]:
            for u in sample_vertices(w.tree, SampleWindow(depth_bound=depth, digit_bound=digits)):
                start = mu.aggregate(u).certificate.start
                terms = list(itertools.islice(mu.child_terms(u, start), 48))
                unit = list(itertools.islice(w._aluthge_unit_terms(t, start), 48))
                assert len(terms) == len(unit) == 48
                for term, g in zip(terms, unit):
                    assert 4.0**u.digit_sum * g == pytest.approx(term, rel=1e-14, abs=0.0), (u, term)

    def test_other_systems_share_nothing(self):
        tree = finite_tree([None, 0, 0])
        systems = [
            TableWeights(tree, {1: 1.0, 2: 2.0}),
            CallableWeights(nat_path(), lambda v: 1.0),
            PolarWeights(OmegaShiftWeights()),
            AluthgeWeights(OmegaShiftWeights(), 0.5),
        ]
        for w in systems:
            assert w._aluthge_unit_terms(0.5, 0) is None, type(w).__name__

    def test_claim_that_is_not_a_ratio_claim_is_checked_at_each_vertex(self, monkeypatch):
        calls = []
        verify = series.verify_certificate

        def counting_verify(*args, **kwargs):
            calls.append(args[0])
            return verify(*args, **kwargs)

        monkeypatch.setattr(series, "verify_certificate", counting_verify)
        w = FloorClaimWeights()
        sample = [OmegaVertex(0, (1,)), OmegaVertex(1, (1, 0)), OmegaVertex(2, (3,))]
        report = certify_trivial_aluthge_domain(w, 0.5, sample=sample)
        assert report.status == "certified-family"
        assert calls == [TermsDoNotVanish(0, 1.0)] * 3
        with pytest.raises(CertificateError, match="below claimed bound"):
            certify_trivial_aluthge_domain(w, 0.5, sample=sample + [OmegaVertex(1)])

    def test_overclaim_at_a_shared_digit_sum_caught(self):
        sample = sample_vertices(omega_tree(), WINDOW)
        seen = set()
        for target in sample:
            if target.digit_sum in seen:
                break
            seen.add(target.digit_sum)
        with pytest.raises(CertificateError, match="ratio at term 3 drops"):
            certify_trivial_aluthge_domain(OverclaimedAtOneVertex(target), 0.5, sample=sample)

    def test_vertex_outside_the_tree_raises_at_a_shared_digit_sum(self):
        w = self.FAMILIES["descendant"]()
        outside = OmegaVertex(0, (1, 1))  # digit sum 2, like the apex
        with pytest.raises(StructureError, match="not in this tree"):
            certify_trivial_aluthge_domain(w, 0.5, sample=[OmegaVertex(0, (2,)), outside])


class TestClaimCheckedWhereTakenIn:
    # The transformed system checks its base's divergence claim before any
    # caller reads it, so the operator-level callers get checked verdicts too.
    CALLERS = {
        "domain_check": lambda w, t, u: domain_check(w, basis_vector(u), t=t),
        "aluthge_basis_action": lambda w, t, u: aluthge_basis_action(w, t, u),
    }

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_ratio_inside_the_float_slack_is_refused(self, caller):
        # The family's own claim at 4^(4e-5) starts where the check can
        # confirm it; one claiming the first rising index's ratio,
        # 1.0000000001906053, inside the slack, is refused.
        assert self.CALLERS[caller](OmegaShiftWeights(), 4e-5, OmegaVertex(0)).is_out
        with pytest.raises(ArithmeticError, match="within the float slack of 1"):
            self.CALLERS[caller](InsideSlackWeights(), 4e-5, OmegaVertex(0))

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_overclaimed_ratio_is_refused(self, caller):
        with pytest.raises(CertificateError, match="ratio at term 3 drops"):
            self.CALLERS[caller](OverclaimedWeights(), 0.5, OmegaVertex(0))

    def test_one_check_for_two_vertices_sharing_a_stream(self, monkeypatch):
        calls = []
        verify = series.verify_certificate

        def counting_verify(*args, **kwargs):
            calls.append(args[0])
            return verify(*args, **kwargs)

        monkeypatch.setattr(series, "verify_certificate", counting_verify)
        w = OmegaShiftWeights()
        u, v = OmegaVertex(0, (2,)), OmegaVertex(1, (1, 1))  # digit sum 2 each
        verdict = domain_check(w, basis_vector(u) + basis_vector(v), t=0.5)
        assert verdict.is_out and verdict.vertex == u
        assert calls == [verdict.certificate]
        # one transformed system reads the shared stream once for both
        mu = aluthge_weights(w, 0.5)
        assert mu.aggregate(u) == mu.aggregate(v) == mu.aggregate(u)
        assert mu.node_norm(v) == math.inf
        assert calls == [verdict.certificate] * 2


class OpenFamilyWeights(OmegaShiftWeights):
    """The built-in family without its claim that the closed forms cover
    every vertex, so only the sampled vertices can be certified."""

    closed_form_total = False


class TestTrivialityRoutes:
    # The status other than certified-family and refuted: the family's
    # claims, checked, without its claim to cover every vertex.
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


class TestOneDomainRoute:
    """The five domain callers read one per-vertex verdict, so they agree."""

    T_VALUES = (0.5, 1.0)

    @staticmethod
    def undetermined():
        # infinite child sets with no closed form: no aggregate to read
        return CallableWeights(omega_tree(), lambda v: 1.0)

    @pytest.mark.parametrize("t", T_VALUES)
    def test_undetermined_norm_raises_everywhere(self, t):
        w, u = self.undetermined(), OmegaVertex(0)
        calls = [
            lambda: domain_check(w, basis_vector(u), t=t),
            lambda: aluthge_basis_action(w, t, u),
            lambda: basis_domain_verdict(w, u, aluthge_weights(w, t)),
            lambda: check_densely_defined(w, sample=[u]),
            lambda: certify_trivial_aluthge_domain(w, t, sample=[u]),
        ]
        for call in calls:
            with pytest.raises(EvaluationError, match="has no closed form$") as err:
                call()
            assert err.value.vertex == u
        # every vertex of the tree branches infinitely, so the hypothesis of
        # the branching check never holds and it reads no verdict
        assert branching_necessity_check(w, t, sample=[u]).status == "vacuous"

    def test_divergent_norm_is_out_below_one(self):
        w, u = divergent_family(), OmegaVertex(0)
        base = w.aggregate(u).certificate
        out = DomainVerdict(status="out", condition="node-norm", vertex=u, certificate=base)
        assert domain_check(w, basis_vector(u), t=0.5) == out
        assert aluthge_basis_action(w, 0.5, u) == out
        assert check_densely_defined(w, sample=[u]).status == "counterexample"
        report = certify_trivial_aluthge_domain(w, 0.5, sample=[u])
        assert report.status == "certified-sample"
        assert report.per_vertex == {"0:": base}

    def test_divergent_norm_raises_at_one(self):
        w, u = divergent_family(), OmegaVertex(0)
        calls = [
            lambda: domain_check(w, basis_vector(u), t=1.0),
            lambda: aluthge_basis_action(w, 1.0, u),
            lambda: certify_trivial_aluthge_domain(w, 1.0, sample=[u]),
        ]
        for call in calls:
            with pytest.raises(EvaluationError, match="infinite; the transform is undefined"):
                call()

    def test_node_norm_is_no_condition_at_one(self):
        w = TableWeights(finite_tree([None, 0, 0]), {1: 1.0, 2: 2.0})
        norm, transformed = (0, "node-norm-finite"), (0, "aluthge-aggregate-finite")
        for t, evidence in [(0.5, (norm, transformed)), (1.0, (transformed,))]:
            verdict = basis_domain_verdict(w, 0, aluthge_weights(w, t))
            assert verdict.is_in
            assert verdict.evidence == evidence
        assert basis_domain_verdict(w, 0, None).evidence == (norm,)

    @staticmethod
    def statuses(w, t, u) -> set:
        """The in/out answer of each caller at ``u``, as one set."""
        action = aluthge_basis_action(w, t, u)
        certify = "in" if certify_trivial_aluthge_domain(w, t, sample=[u]).status == "refuted" else "out"
        answers = {
            domain_check(w, basis_vector(u), t=t).status,
            action.status if isinstance(action, DomainVerdict) else "in",
            certify,
        }
        branching = branching_necessity_check(w, t, sample=[u])
        if branching.status != "vacuous":
            answers.add(branching.violations[0][1].status if branching.violations else "in")
        return answers

    @pytest.mark.parametrize("t", T_VALUES)
    def test_callers_agree_on_the_random_corpus(self, t):
        from treeshift.oracle import random_tree_corpus

        for tree, w in random_tree_corpus(16, seed=2024, max_vertices=16, complex_count=4):
            for u in tree.vertices():
                assert self.statuses(w, t, u) == {"in"}, (tree, u)

    @pytest.mark.parametrize("t", T_VALUES)
    def test_callers_agree_on_infinite_trees(self, t):
        cases = [
            (OmegaShiftWeights(), OmegaVertex(1, (2,)), "out"),
            (CallableWeights(nat_path(), lambda v: 2.0), 3, "in"),
        ]
        for w, u, expected in cases:
            assert self.statuses(w, t, u) == {expected}
