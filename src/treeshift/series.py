"""Nonnegative series evaluation with certified verdicts.

A sum over a child stream ends in one of two verdicts: a value with a tail
bound, or a divergence certificate.  Analytic certificates (terms bounded
below, eventual ratio above 1) are only ever *claimed* by callers that own a
closed form; this module verifies the claim against the actual terms before
endorsing it; each carries ``heuristic = False``, which reports print.  A
raw stream earns no verdict here: ``sum_series`` sums a fixed number of terms
under a tail bound that its caller supplies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import CertificateError, NonnegativityError

__all__ = [
    "TermsDoNotVanish",
    "EventuallyIncreasing",
    "DivergenceCertificate",
    "Converges",
    "Diverges",
    "SeriesVerdict",
    "sum_series",
    "verify_certificate",
    "inverse_square_sum",
    "closed_form_aggregate",
]

_REL_SLACK = 1e-9  # float slack when checking analytic certificates on computed terms


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


DivergenceCertificate = Union[TermsDoNotVanish, EventuallyIncreasing]


@dataclass(frozen=True, slots=True)
class Converges:
    value: float
    tail_bound: float = 0.0


@dataclass(frozen=True, slots=True)
class Diverges:
    certificate: DivergenceCertificate


SeriesVerdict = Union[Converges, Diverges]


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
    ratio.  Raises :class:`CertificateError` on any contradiction.  Passing
    proves nothing beyond the sampled window; the analytic validity of the
    claim is the caller's responsibility.  A NaN ratio is a contradiction too; a ratio
    within the float slack of 1, which a shrinking stream would pass, raises
    ``ArithmeticError`` before any term is read.
    """
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


def sum_series(terms: Iterable[float], count: int, tail_bound: float) -> Converges:
    """The Kahan sum of the first ``count`` terms of a nonnegative series,
    with the caller's ``tail_bound``, which must dominate the terms past them.

    A negative or NaN term raises :class:`NonnegativityError`, and a sum that
    is not finite raises ``OverflowError``.
    """
    total = 0.0
    comp = 0.0  # Kahan compensation
    for term in itertools.islice(terms, count):
        if not term >= 0:  # also rejects NaN
            raise NonnegativityError(f"negative or NaN series term {term}")
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if not math.isfinite(total):
        raise OverflowError(f"series sum {total} is not finite")
    return Converges(total, tail_bound)


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
