import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift.errors import CertificateError, NonnegativityError
from treeshift.series import (
    Converges,
    EventuallyIncreasing,
    TermsDoNotVanish,
    closed_form_aggregate,
    inverse_square_sum,
    sum_series,
    verify_certificate,
)
from treeshift.trees import OmegaVertex, finite_tree
from treeshift.weights import CallableWeights, OmegaShiftWeights, TableWeights, aluthge_weights


def inv_squares():
    n = 0
    while True:
        yield 1.0 / (n + 1) ** 2
        n += 1


def doubling_over_squares():
    n = 0
    while True:
        yield 2.0**n / (n + 1) ** 2
        n += 1


def independent_zeta2(extra_terms=20_000_000):
    # Independent oracle: longer partial sum, summed small-to-large, plus the
    # midpoint tail correction.
    # In place, so the call holds one array rather than three.
    ns = np.arange(extra_terms, 0, -1, dtype=np.float64)
    np.multiply(ns, ns, out=ns)
    np.divide(1.0, ns, out=ns)
    return float(np.sum(ns)) + 1.0 / (extra_terms + 0.5)


def checkable(growth, n):
    # verify_certificate confirms a ratio claim only above the 1e-9 slack
    return growth * ((n + 1) / (n + 2)) ** 2 * (1 - 1e-9) > 1.0


def linear_search_start(growth):
    # The first index whose ratio the check can confirm, by an O(start)
    # search; the reference for closed_form_aggregate's O(1) start.
    n = 0
    while not checkable(growth, n):
        n += 1
        if n > 10**7:
            raise ArithmeticError("no increasing index found; growth too close to 1")
    return n


class TestSumSeries:
    def test_inverse_squares_with_tail_bound(self):
        verdict = sum_series(inv_squares(), 10**6, 1e-6)
        assert isinstance(verdict, Converges)
        assert verdict.tail_bound == 1e-6
        assert round(verdict.value, 5) == 1.64493
        truth = independent_zeta2()
        assert verdict.value <= truth <= verdict.value + verdict.tail_bound

    def test_growing_terms_with_analytic_claim(self):
        cert = EventuallyIncreasing(start=2, ratio=9.0 / 8.0)
        verify_certificate(cert, doubling_over_squares(), 48)

    def test_empty_stream(self):
        verdict = sum_series(iter(()), 5, 0.0)
        assert verdict == Converges(0.0, 0.0)

    def test_finite_stream_sums_exactly(self):
        verdict = sum_series(iter([1.0, 2.0, 3.5]), 3, 0.0)
        assert verdict == Converges(6.5, 0.0)

    def test_reads_exactly_count_terms(self):
        pulled = []
        terms = (pulled.append(n) or 1.0 for n in itertools.count())
        assert sum_series(terms, 48, 0.25) == Converges(48.0, 0.25)
        assert pulled == list(range(48))

    def test_negative_term_rejected(self):
        with pytest.raises(NonnegativityError):
            sum_series(iter([1.0, -0.5]), 2, 0.0)

    def test_nan_term_rejected(self):
        with pytest.raises(NonnegativityError):
            sum_series([1.0, math.nan], 2, 0.0)

    def test_infinite_last_term_is_not_a_value(self):
        with pytest.raises(OverflowError, match="^series sum inf is not finite$"):
            sum_series(iter([1.0, math.inf]), 2, 0.0)

    def test_single_heavy_child_has_a_finite_norm(self):
        # a squared weight of 1e14 is a value, not evidence of divergence
        tree = finite_tree([None, 0])
        assert CallableWeights(tree, lambda v: 1e7).node_norm(0) == 1e7

    def test_false_claim_contradicted(self):
        bad = EventuallyIncreasing(start=0, ratio=3.0)
        with pytest.raises(CertificateError):
            verify_certificate(bad, doubling_over_squares(), 48)
        with pytest.raises(CertificateError):
            verify_certificate(TermsDoNotVanish(start=0, lower_bound=0.5), inv_squares(), 48)

    def test_claim_on_finite_stream_rejected(self):
        with pytest.raises(CertificateError):
            verify_certificate(TermsDoNotVanish(start=5, lower_bound=1.0), iter([1.0, 1.0]), 48)


class TestCertificateWindow:
    # Every claim with a start index is checked on 16 terms past its start,
    # whatever count the caller passes.
    @staticmethod
    def growth_then_drop(drop_at):
        for n in itertools.count():
            yield 1.0 if n >= drop_at else 1.5**n

    def test_late_start_sees_sixteenth_ratio(self):
        with pytest.raises(CertificateError, match="drops below"):
            verify_certificate(EventuallyIncreasing(300, 1.5), self.growth_then_drop(316), 48)

    def test_drop_past_window_accepted(self):
        verify_certificate(EventuallyIncreasing(300, 1.5), self.growth_then_drop(317), 48)

    def test_short_count_widened_for_terms_do_not_vanish(self):
        terms = itertools.chain(itertools.repeat(1.0, 26), itertools.repeat(0.5))
        with pytest.raises(CertificateError, match="below claimed bound"):
            verify_certificate(TermsDoNotVanish(10, 1.0), terms, 12)

    def test_short_count_widened_for_eventually_increasing(self):
        with pytest.raises(CertificateError, match="drops below"):
            verify_certificate(EventuallyIncreasing(10, 1.5), self.growth_then_drop(26), 12)


class TestNanInWindow:
    # A NaN term inside [start, end) contradicts either claim, so it cannot
    # end an eventual-ratio check early and hide the terms after it.
    @pytest.mark.parametrize(
        "cert", [EventuallyIncreasing(0, 1.5), TermsDoNotVanish(0, 0.5)], ids=["ratio", "bound"]
    )
    def test_nan_after_start_refused(self, cert):
        terms = iter([1.0, 2.0, math.nan] + [0.0] * 60)
        with pytest.raises(CertificateError, match="^term 2 is not a number$"):
            verify_certificate(cert, terms, 48)

    @pytest.mark.parametrize(
        "cert", [EventuallyIncreasing(5, 1.5), TermsDoNotVanish(5, 0.5)], ids=["ratio", "bound"]
    )
    def test_nan_at_start_refused_from_any_first(self, cert):
        terms = [2.0**n for n in range(5)] + [math.nan] + [2.0**n for n in range(6, 64)]
        for first in range(6):
            with pytest.raises(CertificateError, match="^term 5 is not a number$"):
                verify_certificate(cert, iter(terms[first:]), 48, first=first)

    def test_nan_before_start_keeps_its_outcome(self):
        # the claims say nothing before their start: the bound check skips
        # such a term, and the ratio check still ends there
        terms = [1.0, math.nan] + [2.0**n for n in range(2, 64)]
        for first in (0, 1):
            verify_certificate(TermsDoNotVanish(2, 0.5), iter(terms[first:]), 48, first=first)
            with pytest.raises(CertificateError, match="^stream ended before the claimed start index$"):
                verify_certificate(EventuallyIncreasing(2, 1.5), iter(terms[first:]), 48, first=first)

    def test_nan_past_window_not_read(self):
        terms = [2.0**n for n in range(48)] + [math.nan]
        verify_certificate(EventuallyIncreasing(0, 1.5), iter(terms), 48)
        verify_certificate(TermsDoNotVanish(0, 0.5), iter(terms), 48)

    def test_growth_into_infinity_accepted(self):
        terms = [2.0**n for n in range(8)] + [math.inf] * 60
        verify_certificate(EventuallyIncreasing(0, 1.5), iter(terms), 48)
        verify_certificate(TermsDoNotVanish(0, 0.5), iter(terms), 48)


class TestInfinityInWindow:
    # +inf compares as a number, so it cannot end a ratio check early and
    # hide the finite terms after it.
    def test_finite_term_after_infinity_refused(self):
        terms = iter([1.0, 2.0, math.inf] + [0.0] * 60)
        with pytest.raises(CertificateError, match="^ratio at term 3 drops below the claimed 1.5$"):
            verify_certificate(EventuallyIncreasing(0, 1.5), terms, 48)

    def test_infinity_at_start_compared(self):
        terms = iter([math.inf, 2.0] + [0.0] * 60)
        with pytest.raises(CertificateError, match="^ratio at term 1 drops below the claimed 1.5$"):
            verify_certificate(EventuallyIncreasing(0, 1.5), terms, 48)


def outcome(certificate, terms, count, first=0):
    """The error message ``verify_certificate`` raises, or None when it passes."""
    try:
        verify_certificate(certificate, iter(terms), count, first=first)
    except CertificateError as exc:
        return str(exc)
    return None


TERM_LISTS = st.lists(st.floats(1e-3, 1e3), max_size=60) | st.builds(
    lambda n, g: [g**k for k in range(n)], st.integers(0, 60), st.floats(1.0, 3.0)
)
START_CLAIMS = st.builds(
    TermsDoNotVanish, st.integers(0, 25), st.floats(1e-3, 10.0)
) | st.builds(EventuallyIncreasing, st.integers(0, 25), st.floats(1.001, 3.0))


class TestCertificateFromStart:
    # Passing ``first`` and the terms from that index on checks the same
    # window as passing every term from index 0.
    @given(terms=TERM_LISTS, cert=START_CLAIMS, count=st.integers(0, 48))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_from_any_first_up_to_start(self, terms, cert, count):
        expected = outcome(cert, terms, count)
        for first in range(cert.start + 1):
            assert outcome(cert, terms[first:], count, first=first) == expected

    @pytest.mark.parametrize("cert", [TermsDoNotVanish(4, 1.0), EventuallyIncreasing(4, 1.5)])
    def test_first_past_start_refused(self, cert):
        with pytest.raises(CertificateError, match="terms begin at index 5"):
            verify_certificate(cert, itertools.repeat(1.0), 32, first=5)

    def test_violation_at_first_ratio_past_start_caught(self):
        # ratio 1.1 from term 6 to 7, 2 everywhere else: only the first
        # ratio past the start breaks the claim
        terms = [2.0**n for n in range(7)] + [1.1 * 2.0**n for n in range(6, 40)]
        with pytest.raises(CertificateError, match="ratio at term 7 drops"):
            verify_certificate(EventuallyIncreasing(6, 2.0), iter(terms[6:]), 16, first=6)
        verify_certificate(EventuallyIncreasing(7, 2.0), iter(terms[7:]), 16, first=7)
        # a term exactly at the slackened bound prev * ratio * (1 - 1e-9)
        # passes, and the next double toward 0 drops below it
        at_bound = [1.0]
        for _ in range(24):
            at_bound.append(at_bound[-1] * 1.1 * (1 - 1e-9))
        verify_certificate(EventuallyIncreasing(2, 1.1), iter(at_bound[1:]), 16, first=1)
        below = at_bound[:9] + [math.nextafter(at_bound[9], 0.0)] + at_bound[10:]
        with pytest.raises(CertificateError, match="^ratio at term 9 drops below the claimed 1.1$"):
            verify_certificate(EventuallyIncreasing(2, 1.1), iter(below[1:]), 16, first=1)

    @pytest.mark.parametrize("count, start, first", [(48, 2, 2), (48, 40, 40), (10, 5, 0)])
    def test_reads_exactly_the_window(self, count, start, first):
        pulled = []
        terms = (pulled.append(n) or 2.0**n for n in itertools.count(first))
        verify_certificate(EventuallyIncreasing(start, 1.5), terms, count, first=first)
        assert pulled == list(range(first, max(count, start + 17)))


class TestCertificates:
    def test_self_verifying_eventual_ratio(self):
        terms = [2.0**n / (n + 1) ** 2 for n in range(64)]
        cert = EventuallyIncreasing(start=2, ratio=9.0 / 8.0)
        verify_certificate(cert, iter(terms), len(terms))
        for n in range(2, 63):
            assert terms[n] * cert.ratio <= terms[n + 1] * (1 + 1e-12)

    def test_terms_do_not_vanish(self):
        verify_certificate(TermsDoNotVanish(3, 1.0), itertools.repeat(1.0), 32)
        with pytest.raises(CertificateError):
            verify_certificate(TermsDoNotVanish(0, 2.0), itertools.repeat(1.0), 32)

    def test_invalid_parameters(self):
        with pytest.raises(CertificateError):
            verify_certificate(EventuallyIncreasing(0, 0.9), itertools.repeat(1.0), 8)
        with pytest.raises(CertificateError):
            verify_certificate(TermsDoNotVanish(0, 0.0), itertools.repeat(1.0), 8)
        # a NaN ratio would make every comparison false and pass any stream
        with pytest.raises(CertificateError, match="ratio must exceed 1"):
            verify_certificate(EventuallyIncreasing(0, math.nan), iter([1.0, 0.5, 0.25] + [0.0] * 60), 48)


class TestUncheckableRatio:
    # A ratio claim is checked as term >= prev * ratio * (1 - 1e-9), so a
    # claim whose slackened ratio is not above 1 lets a shrinking stream pass.
    def test_claim_inside_the_slack_refused_before_any_term(self):
        # The first index whose ratio exceeds 1 for growth 4^(1e-6), built by
        # hand: closed_form_aggregate starts 1,041 indices later, where the
        # check can confirm the ratio.
        cert = EventuallyIncreasing(1442694, 4.0**1e-6 * (1442695 / 1442696) ** 2)
        assert cert.ratio == 1.0000000000004412
        assert closed_form_aggregate(4.0**1e-6).certificate == EventuallyIncreasing(
            1443735, 1.0000000010000225
        )
        shrinking = (0.5 * (1 - 1e-10) ** k for k in itertools.count())
        with pytest.raises(ArithmeticError, match="within the float slack of 1"):
            verify_certificate(cert, shrinking, 48, first=cert.start)

    def test_slack_boundary(self):
        # the smallest ratio whose slackened value exceeds 1
        ratio = 1.0 / (1 - 1e-9)
        while ratio * (1 - 1e-9) > 1:
            ratio = math.nextafter(ratio, 0.0)
        while not ratio * (1 - 1e-9) > 1:
            ratio = math.nextafter(ratio, math.inf)
        below = math.nextafter(ratio, 0.0)
        assert below > 1

        def geometric(r):
            term = 1.0
            while True:
                yield term
                term *= r

        verify_certificate(EventuallyIncreasing(0, ratio), geometric(ratio), 48)
        with pytest.raises(ArithmeticError, match="within the float slack of 1"):
            verify_certificate(EventuallyIncreasing(0, below), geometric(ratio), 48)


class TestInverseSquareConstant:
    N = 10_000_000

    def test_value_is_the_pairwise_sum(self):
        # The whole-array computation the pinned double was taken from, done
        # in place (the same elementwise roundings) to hold one array.
        terms = np.arange(self.N, 0, -1, dtype=np.float64)
        np.multiply(terms, terms, out=terms)
        np.divide(1.0, terms, out=terms)
        reference = float(np.sum(terms)) + 1.0 / (self.N + 0.5)
        assert inverse_square_sum().value.hex() == reference.hex()

    def test_tail_bound_expression(self):
        expected = 1.0 / (6.0 * (self.N + 1.0) ** 3) + 64 * np.finfo(np.float64).eps
        assert inverse_square_sum().tail_bound == expected
        assert type(inverse_square_sum().tail_bound) is float

    def test_within_tail_bound_of_zeta2(self):
        got = inverse_square_sum()
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(got.value) - mpmath.zeta(2)) <= got.tail_bound

    def test_value_against_independent_sum(self):
        got = inverse_square_sum()
        assert abs(got.value - independent_zeta2()) <= 1e-12
        assert 0 < got.tail_bound < 1e-12

    def test_cached(self):
        assert inverse_square_sum() is inverse_square_sum()


class TestClosedForms:
    def test_base_aggregate_scales_with_digit_sum(self):
        inv_sq = inverse_square_sum().value
        flat = OmegaShiftWeights().aggregate(OmegaVertex(0))
        assert flat.value == pytest.approx(inv_sq, rel=1e-15)
        three = OmegaShiftWeights().aggregate(OmegaVertex(0, (2, 1)))
        assert three.value == pytest.approx(64.0 * inv_sq, rel=1e-15)

    def test_unregistered_family_signals_absence(self):
        assert TableWeights(finite_tree([None, 0]), {1: 1.0})._closed_form(0) is None

    @pytest.mark.parametrize("t", [0.01, 0.25, 0.5, 0.75, 1.0])
    def test_transformed_aggregate_divergence(self, t):
        got = aluthge_weights(OmegaShiftWeights(), t).aggregate(OmegaVertex(0))
        cert = got.certificate
        assert cert.ratio > 1.0
        # the certified ratio bound holds for the actual term stream
        terms = [4.0 ** (t * n) / (n + 1) ** 2 for n in range(cert.start, cert.start + 40)]
        for a, b in zip(terms, terms[1:]):
            assert b >= a * cert.ratio * (1 - 1e-12)

    def test_start_matches_linear_search(self):
        growths = [4.0**t for t in np.logspace(-4, 0, 300)]
        # growths where 1/(sqrt(g (1 - 1e-9)) - 1) lands on an integer, and
        # their neighbouring doubles, are where a rounded guess is off by
        # one; those where 1/(sqrt(g) - 1) does are where the first rising
        # index and the first checkable one part
        for m in range(0, 2000, 11):
            for edge in (((m + 2) / (m + 1)) ** 2 / (1 - 1e-9), ((m + 2) / (m + 1)) ** 2):
                g = edge
                for _ in range(3):
                    g = math.nextafter(g, 0.0)
                for _ in range(7):
                    growths.append(g)
                    g = math.nextafter(g, math.inf)
        growths += [1.5, 2.0, 4.0, 1e3, 1e300, math.inf]
        for g in growths:
            start = linear_search_start(g)
            cert = closed_form_aggregate(g).certificate
            assert cert.start == start, g
            assert cert.ratio == g * ((start + 1) / (start + 2)) ** 2

    def test_start_at_the_index_limit(self):
        # The first growths whose start is 10**7 and 10**7 + 1: the first is
        # reported, the second is refused, as by the linear search.
        rises = checkable
        limit = 10**7
        g = ((limit + 2) / (limit + 1)) ** 2 / (1 - 1e-9)
        while rises(g, limit):
            g = math.nextafter(g, 0.0)
        while not rises(g, limit + 1):
            g = math.nextafter(g, math.inf)
        with pytest.raises(ArithmeticError, match="no increasing index"):
            closed_form_aggregate(g)
        while not rises(g, limit):
            g = math.nextafter(g, math.inf)
        assert not rises(g, limit - 1)
        assert closed_form_aggregate(g).certificate.start == limit

    @pytest.mark.parametrize("t", [1e-5, 1e-6, 2e-7])
    def test_start_is_first_rising_index(self, t):
        # rising as far as the check can confirm: the first index whose
        # ratio clears the 1e-9 slack, and the certificate passes its check
        growth = 4.0**t
        cert = closed_form_aggregate(growth).certificate
        assert checkable(growth, cert.start)
        assert not checkable(growth, cert.start - 1)
        unit = (4.0 ** (t * n) / (n + 1) ** 2 for n in itertools.count(cert.start))
        verify_certificate(cert, unit, 48, first=cert.start)

    def test_truncations_increase_to_closed_form(self):
        # partial sums of the base aggregate are monotone below the closed form
        u = OmegaVertex(0, (1,))
        closed = OmegaShiftWeights().aggregate(u).value
        scale = 4.0**u.digit_sum
        partials = []
        for n_terms in (10, 100, 1000):
            partial = sum(scale / (n + 1) ** 2 for n in range(n_terms))
            partials.append(partial)
            assert partial <= closed
        assert partials[0] < partials[1] < partials[2]
        rel_err = (closed - partials[-1]) / closed
        assert rel_err < 1e-3  # dominated by the 1/N integral tail at N=1000
