"""Nonnegative series evaluation with certified verdicts.

A sum over a child stream ends in one of three verdicts: a value with a tail
bound, a divergence certificate, or an inconclusive partial sum.  Analytic
certificates (terms bounded below, eventual ratio above 1) are only ever
*claimed* by callers that own a closed form; this module verifies the claim
against the actual terms before endorsing it.  Without such a claim, a raw
stream can at best earn the heuristic partial-sum certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .errors import CertificateError, NonnegativityError

__all__ = [
    "TermsDoNotVanish",
    "EventuallyIncreasing",
    "PartialSumExceeds",
    "DivergenceCertificate",
    "Converges",
    "Diverges",
    "Inconclusive",
    "SeriesVerdict",
    "SumPolicy",
    "DEFAULT_POLICY",
    "sum_series",
    "verify_certificate",
    "inverse_square_sum",
    "closed_form_aggregate",
]

_REL_SLACK = 1e-9  # float slack when checking analytic certificates on computed terms
_VERIFY_TERMS = 256  # terms ``sum_series`` checks a claim on (more if it starts late)


@dataclass(frozen=True)
class TermsDoNotVanish:
    """All terms from ``start`` on are at least ``lower_bound`` > 0."""

    kind = "terms-do-not-vanish"
    start: int
    lower_bound: float
    heuristic: bool = False


@dataclass(frozen=True)
class EventuallyIncreasing:
    """From ``start`` on, each term is at least ``ratio`` > 1 times the previous."""

    kind = "eventually-increasing"
    start: int
    ratio: float
    heuristic: bool = False


@dataclass(frozen=True)
class PartialSumExceeds:
    """Partial sums crossed ``threshold`` at term ``crossed_at``.

    Evidence-grade only: says nothing about the infinite tail.
    """

    kind = "partial-sum-exceeds"
    threshold: float
    crossed_at: int
    heuristic: bool = True


DivergenceCertificate = Union[TermsDoNotVanish, EventuallyIncreasing, PartialSumExceeds]


@dataclass(frozen=True, slots=True)
class Converges:
    value: float
    tail_bound: float = 0.0


@dataclass(frozen=True, slots=True)
class Diverges:
    certificate: DivergenceCertificate


@dataclass(frozen=True, slots=True)
class Inconclusive:
    partial_sum: float
    terms_evaluated: int


SeriesVerdict = Union[Converges, Diverges, Inconclusive]


@dataclass(frozen=True)
class SumPolicy:
    """Evaluation budget and verdict thresholds for ``sum_series``.

    ``tail_bound`` maps the number of evaluated terms to a bound dominating
    the true tail; convergence is only certified when it is present or the
    stream ends.
    """

    max_terms: int = 100_000
    divergence_threshold: float = 1e12
    tail_bound: Optional[Callable[[int], float]] = None


DEFAULT_POLICY = SumPolicy()


def verify_certificate(
    certificate: DivergenceCertificate, terms: Iterable[float], count: int, first: int = 0
) -> None:
    """Check a divergence claim against up to ``count`` actual terms.

    ``terms`` yields the terms from index ``first`` on.  A claim with a start
    index is checked on the window ``[start, max(count, start + 17))``, so it
    always holds 16 terms (or ratios) past the start; ``first`` may lie
    anywhere from 0 to ``start``, and the terms before ``first`` are never
    computed.  A NaN term inside the window contradicts either claim; an
    ``EventuallyIncreasing`` check ends at a NaN before the start, so with
    ``first`` past such a term the check no longer stops there.  An infinite
    term compares as a number: a stream that grows into ``+inf`` and stays
    there passes, and a finite term after ``+inf`` drops below the claimed
    ratio.  A partial-sum claim is checked from index 0 only.  Raises
    :class:`CertificateError` on any contradiction.  Passing proves nothing
    beyond the sampled window; the analytic validity of the claim is the
    caller's responsibility.  A NaN ratio is a contradiction too; a ratio
    within the float slack of 1, which a shrinking stream would pass, raises
    ``ArithmeticError`` before any term is read.
    """
    if isinstance(certificate, PartialSumExceeds):
        if first != 0:
            raise CertificateError("a partial-sum claim is checked from term 0")
        total = 0.0
        for n, term in enumerate(terms):
            total += term
            if total > certificate.threshold:
                return
            if n > certificate.crossed_at + count:
                break
        raise CertificateError("partial sums never crossed the claimed threshold")
    if isinstance(certificate, TermsDoNotVanish):
        if certificate.lower_bound <= 0:
            raise CertificateError("lower bound must be positive")
    elif isinstance(certificate, EventuallyIncreasing):
        if not certificate.ratio > 1:  # also refuses NaN
            raise CertificateError("ratio must exceed 1")
        if not certificate.ratio * (1 - _REL_SLACK) > 1:
            raise ArithmeticError(
                f"claimed ratio {certificate.ratio} lies within the float slack of 1; "
                "no float check can confirm it"
            )
    else:
        raise CertificateError(f"unknown certificate {certificate!r}")
    start = certificate.start
    if not 0 <= first <= start:
        raise CertificateError(f"terms begin at index {first}, outside 0..{start}")
    end = max(count, start + 17)
    window = enumerate(itertools.islice(terms, end - first), first)
    if isinstance(certificate, TermsDoNotVanish):
        seen = 0
        for n, term in window:
            if n >= start:
                seen += 1
                if not term >= certificate.lower_bound * (1 - _REL_SLACK):
                    if math.isnan(term):
                        raise CertificateError(f"term {n} is not a number")
                    raise CertificateError(
                        f"term {n} = {term} below claimed bound {certificate.lower_bound}"
                    )
        if seen == 0:
            raise CertificateError("stream ended before the claimed start index")
        return
    ratio = certificate.ratio
    slack = 1 - _REL_SLACK
    isnan = math.isnan
    prev = None
    checked = 0
    for n, term in window:
        if n < start:
            if isnan(term):
                break
            continue
        if isnan(term):
            raise CertificateError(f"term {n} is not a number")
        if prev is None:  # the start index
            if term <= 0:
                raise CertificateError("term at the start index must be positive")
        else:
            checked += 1
            if term < prev * ratio * slack:
                raise CertificateError(f"ratio at term {n} drops below the claimed {ratio}")
        prev = term
    if checked == 0:
        raise CertificateError("stream ended before the claimed start index")


def sum_series(
    terms: Iterable[float],
    policy: SumPolicy = DEFAULT_POLICY,
    certificate: Optional[DivergenceCertificate] = None,
) -> SeriesVerdict:
    """Evaluate a nonnegative series under the given policy.

    With a claimed analytic ``certificate`` the terms are sampled against it
    and the verdict is ``Diverges`` carrying that certificate.  Otherwise the
    stream is summed: a stream that ends converges exactly; hitting the term
    budget converges only when the policy supplies a tail bound; a partial
    sum past the divergence threshold yields the heuristic partial-sum
    certificate once a further term arrives, so a stream that ends at its
    crossing is still summed exactly, unless its sum is infinite.
    """
    if certificate is not None:
        verify_certificate(certificate, _nonneg(terms), _VERIFY_TERMS)
        return Diverges(certificate)

    total = 0.0
    comp = 0.0  # Kahan compensation
    n = 0
    for term in _nonneg(terms):
        if total > policy.divergence_threshold:
            return Diverges(PartialSumExceeds(policy.divergence_threshold, n - 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n += 1
        if n >= policy.max_terms and total <= policy.divergence_threshold:
            if policy.tail_bound is not None:
                return Converges(total, float(policy.tail_bound(n)))
            return Inconclusive(total, n)
    if math.isinf(total):  # an infinite last term is never summed to a value
        return Diverges(PartialSumExceeds(policy.divergence_threshold, n - 1))
    return Converges(total, 0.0)


def _nonneg(terms: Iterable[float]):
    for term in terms:
        if not term >= 0:  # also rejects NaN
            raise NonnegativityError(f"negative or NaN series term {term}")
        yield term


_INV_SQUARE_TERMS = 10_000_000

_INV_SQUARE = Converges(
    float.fromhex("0x1.a51a6625307d0p+0"),
    1.0 / (6.0 * (_INV_SQUARE_TERMS + 1.0) ** 3) + 64 * math.ulp(1.0),
)


def inverse_square_sum() -> Converges:
    """Sum of 1/n^2 over n >= 1, as a pinned double with its tail bound.

    The value is the double that pairwise float64 summation of 1/n^2 over
    n <= N = 1e7 gives, plus the midpoint tail correction 1/(N + 1/2);
    ``tests/test_series.py`` recomputes it that way and checks it against
    zeta(2).  The tail bound covers both the correction defect and the float
    rounding of the pairwise sum.
    """
    return _INV_SQUARE


_MAX_START = 10**7


@functools.lru_cache(maxsize=64)
def closed_form_aggregate(growth: float) -> Diverges:
    """Divergence verdict for the sum over n >= 0 of growth^n / (n + 1)^2.

    Needs growth > 1.  Consecutive terms grow by growth * ((n+1)/(n+2))^2,
    which exceeds 1 from some index on; the divergence certificate starts at
    the first index whose ratio ``verify_certificate`` can confirm, one above
    1 + 1e-9.  A later start with a larger ratio proves the same divergence.
    The verdict is frozen and depends on ``growth`` alone, so it is cached;
    a refusal is raised again on every call.
    """
    if not growth > 1.0:
        raise ValueError(f"no divergence certificate for growth {growth}; it must exceed 1")

    def ratio(n: int) -> float:
        return growth * ((n + 1) / (n + 2)) ** 2

    def checkable(n: int) -> bool:
        return ratio(n) * (1 - _REL_SLACK) > 1.0

    # The rounded ratio never decreases in n, so the start is the first
    # checkable n.  It lies near 1/(sqrt(growth (1 - slack)) - 1) - 1; step
    # from there.  Checking the last admissible index first keeps the guess
    # finite.
    if not checkable(_MAX_START):
        raise ArithmeticError("no increasing index found; growth too close to 1")
    n = min(max(int(1.0 / (math.sqrt(growth * (1 - _REL_SLACK)) - 1.0)) - 1, 0), _MAX_START)
    while n > 0 and checkable(n - 1):
        n -= 1
    while not checkable(n):
        n += 1
    return Diverges(EventuallyIncreasing(n, ratio(n)))
