"""High-level verdicts: density, hyponormality, domain triviality, closability.

Family-level claims come only from closed forms; everything else is reported
per sampled vertex.  Analytic certificates reach this layer already checked
by the weight systems that take them in, so no report checks one again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import series
from .errors import NoWitnessError
from .operators import StructuredVector, apply_adjoint, basis_domain_verdict
from .trees import format_vertex, nat_path, sample_vertices
from .weights import CallableWeights, WeightSystem, aluthge_weights

__all__ = [
    "DensityReport",
    "HyponormalityReport",
    "TrivialityReport",
    "NonClosabilityWitness",
    "BranchingReport",
    "StrictInclusionReport",
    "check_densely_defined",
    "check_hyponormal",
    "certify_trivial_aluthge_domain",
    "nonclosability_witness",
    "branching_necessity_check",
    "strict_inclusion_example",
    "strict_inclusion_weight",
]


def _default_sample(w: WeightSystem, sample) -> list:
    """The vertices an analysis visits: ``sample``, or the tree's default sample."""
    return list(sample) if sample is not None else sample_vertices(w.tree)


@dataclass(frozen=True)
class DensityReport:
    """Whether every sampled (or, family-level, every) basis vector is in the domain."""

    status: str  # "family" | "sample" | "counterexample"
    counterexample: object = None
    checked: tuple = ()
    notes: str = ""

    @property
    def densely_defined(self) -> bool:
        return self.status != "counterexample"


def check_densely_defined(w: WeightSystem, sample=None) -> DensityReport:
    """Dense definedness reduces to finiteness of every node norm."""
    if w.closed_form_total:
        return DensityReport(status="family", notes="closed-form aggregate covers every vertex")
    if w.tree.is_finite:
        return DensityReport(status="family", notes="finite tree: all aggregates are finite sums")
    checked = []
    for u in _default_sample(w, sample):
        if basis_domain_verdict(w, u, None).is_out:
            return DensityReport(status="counterexample", counterexample=u, checked=tuple(checked))
        checked.append(u)
    return DensityReport(status="sample", checked=tuple(checked))


@dataclass(frozen=True)
class MarginEntry:
    value: float
    tail: float
    kind: str  # "closed-form-tail" | "exact-finite"


@dataclass(frozen=True)
class HyponormalityReport:
    verdict: str  # "hyponormal" | "not-hyponormal" | "unknown"
    family_level: bool = False
    margins: dict = field(default_factory=dict)
    witness: Optional[tuple] = None  # (vertex, violated condition)
    notes: str = ""


def check_hyponormal(w: WeightSystem, sample=None) -> HyponormalityReport:
    """Two per-vertex conditions: zero-norm children carry zero weight, and the
    sum over active children of |weight|^2 / child-norm^2 stays at most 1.

    The verdict is ``unknown`` for a family margin that its tail bound does
    not certify, or at a sampled vertex with infinitely many children and no
    family margin."""
    family = w._family_margin()
    if family is not None:
        entry = MarginEntry(family.value, family.tail_bound, "closed-form-tail")
        certified = family.value + family.tail_bound <= 1.0
        return HyponormalityReport(
            verdict="hyponormal" if certified else "unknown",
            family_level=True,
            margins={"family": entry},
            notes=(
                "all node norms are positive closed forms; the margin is "
                "vertex-independent and certified below 1 by its tail bound"
            ),
        )

    margins: dict = {}
    unknown_at = None
    for u in _default_sample(w, sample):
        if w.tree.child_count(u) is None:
            unknown_at = (u, "infinite child set without closed form")
            continue
        terms = []
        for v in w.tree.children(u):
            weight = w.weight(v)
            child_norm = w.node_norm(v)
            if child_norm == 0.0:
                if weight != 0:
                    return HyponormalityReport(
                        verdict="not-hyponormal",
                        margins=margins,
                        witness=(v, "zero-norm-child"),
                    )
                continue
            try:
                terms.append(abs(weight) ** 2 / child_norm**2)
            except OverflowError as exc:  # either square
                raise OverflowError(f"margin term at {v!r} overflows") from exc
        margin = math.fsum(terms)
        margins[format_vertex(u)] = MarginEntry(margin, 0.0, "exact-finite")
        if margin > 1.0:
            return HyponormalityReport(
                verdict="not-hyponormal", margins=margins, witness=(u, "margin-above-one")
            )
    if unknown_at is not None:
        return HyponormalityReport(
            verdict="unknown", margins=margins, notes=f"undetermined at {unknown_at}"
        )
    return HyponormalityReport(verdict="hyponormal", margins=margins)


@dataclass(frozen=True)
class TrivialityReport:
    """Every (sampled) basis vector outside the transform's domain."""

    status: str  # "certified-family" | "certified-sample" | "refuted"
    t: float
    family_certificate: object = None
    per_vertex: dict = field(default_factory=dict)
    refuted_vertex: object = None
    checked: tuple = ()


def certify_trivial_aluthge_domain(w: WeightSystem, t: float, sample=None) -> TrivialityReport:
    """Certify that no basis vector lies in the transform's domain.

    Every basis vector outside the domain empties it, because any nonzero
    vector has a nonzero coefficient somewhere.  Of ``basis_domain_verdict``
    at a vertex, ``in`` refutes and ``out`` gives its certificate, which the
    transformed system has already checked (a refused claim raises).
    Family-level certification needs closed forms at every vertex.
    """
    mu = aluthge_weights(w, t)
    vertices = _default_sample(w, sample)
    family_cert = None
    per_vertex = {}
    for i, u in enumerate(vertices):
        verdict = basis_domain_verdict(w, u, mu)
        if verdict.is_in:
            return TrivialityReport(status="refuted", t=t, refuted_vertex=u, checked=tuple(vertices))
        cert = verdict.certificate
        if i == 0 and w.closed_form_total:
            family_cert = cert
        per_vertex[format_vertex(u)] = cert
    return TrivialityReport(
        status="certified-family" if family_cert is not None else "certified-sample",
        t=t,
        family_certificate=family_cert,
        per_vertex=per_vertex,
        checked=tuple(vertices),
    )


@dataclass(frozen=True)
class NonClosabilityWitness:
    """Unbounded pairing sums of one vector against the adjoint-transform images.

    ``partial_sums[K]`` accumulates |<f, transform-of-adjoint at the k-th probe
    vertex>|^2 for k <= K; the probe vertices extend the base vertex by the
    digits (k, 0).  Unboundedness of these sums shows no adjoint can pair with
    f, so the transform of the adjoint shift has no closure.
    """

    t: float
    base_vertex: object
    adjoint_coefficient: complex
    terms: tuple
    partial_sums: tuple
    threshold: float
    crossing_index: Optional[int]
    ratio_limit: float
    certificate: series.EventuallyIncreasing
    probe_vertices: tuple = ()


def nonclosability_witness(
    w: WeightSystem,
    t: float,
    f: StructuredVector,
    terms: int = 60,
    threshold: float = 1e6,
) -> NonClosabilityWitness:
    """Build the divergent pairing-sum witness for the built-in family.

    Requires a system that gives its pairing growth (``_pairing_growth``),
    t in (0, 1) and a vector not annihilated by the adjoint shift.  The
    squared pairing against the k-th probe vertex is the system's term at k
    times |adjoint coefficient|^2.  The reported sums end at the last finite
    one, so there are fewer than ``terms`` when the running sum overflows.
    """
    pairing, ratio_limit = w._pairing_growth(t)
    if not 0 < t < 1:
        raise ValueError("the witness needs t strictly inside (0, 1)")
    image = apply_adjoint(w, f)
    support = [v for v in image.support() if image.e[v] != 0]
    if not support:
        raise NoWitnessError("the adjoint shift annihilates this vector")
    base = support[0]
    coeff = image.e[base]
    try:
        base_sq = abs(coeff) ** 2
    except OverflowError as exc:
        raise OverflowError(f"squared adjoint coefficient at {base!r} overflows") from exc

    def pairing_term(k: int) -> float:
        return pairing(k) * base_sq

    term_list = []
    sums = []
    total = 0.0
    crossing = None
    for k in range(terms):
        term = pairing_term(k)
        if not math.isfinite(total + term):
            break  # the term or the running sum left the double range
        term_list.append(term)
        total += term
        sums.append(total)
        if crossing is None and total > threshold:
            crossing = k

    certificate = series.closed_form_aggregate(ratio_limit).certificate
    # The claim's window may start past the K reported terms (t near 1), so
    # check it on a lazy stream rather than on the reported terms.
    start = certificate.start
    terms = map(pairing_term, itertools.count(start))
    series.verify_certificate(certificate, terms, len(term_list), first=start)

    probes = tuple(
        format_vertex(base.child(k).child(0)) for k in range(min(4, len(term_list)))
    )
    return NonClosabilityWitness(
        t=t,
        base_vertex=base,
        adjoint_coefficient=coeff,
        terms=tuple(term_list),
        partial_sums=tuple(sums),
        threshold=threshold,
        crossing_index=crossing,
        ratio_limit=ratio_limit,
        certificate=certificate,
        probe_vertices=probes,
    )


@dataclass(frozen=True)
class BranchingReport:
    """Contrapositive check: finite branching keeps basis vectors in the domain."""

    status: str  # "all-in" | "violation" | "vacuous"
    t: float
    checked: tuple = ()
    violations: tuple = ()
    vacuous: tuple = ()
    notes: str = ""


def branching_necessity_check(w: WeightSystem, t: float, sample=None) -> BranchingReport:
    """At vertices with finitely many children and nonzero weights, the basis
    vector must stay inside the transform's domain; a violation would need
    infinite branching.  Refuses zero weights."""
    mu = aluthge_weights(w, t)
    checked, violations, vacuous = [], [], []
    for u in _default_sample(w, sample):
        if w.tree.child_count(u) is None:
            vacuous.append(u)
            continue
        for v in w.tree.children(u):
            if w.weight(v) == 0:
                raise ValueError(f"branching check requires nonzero weights; zero weight at {v!r}")
        verdict = basis_domain_verdict(w, u, mu)
        checked.append(u)
        if not verdict.is_in:
            violations.append((u, verdict))
    if violations:
        return BranchingReport(
            status="violation",
            t=t,
            checked=tuple(checked),
            violations=tuple(violations),
            vacuous=tuple(vacuous),
        )
    if not checked and vacuous:
        return BranchingReport(
            status="vacuous",
            t=t,
            vacuous=tuple(vacuous),
            notes="every sampled vertex has infinitely many children; hypothesis is vacuous",
        )
    return BranchingReport(status="all-in", t=t, checked=tuple(checked), vacuous=tuple(vacuous))


@dataclass(frozen=True)
class StrictInclusionReport:
    """Exact-arithmetic record of the domain gap on the rooted path.

    With the even-indexed profile 1/(k+1) and odd path weights (k+1)^m for
    m = 1/(1-t), every term of the modulus-power domain series equals exactly
    1, so the profile leaves that domain even though every transformed weight
    vanishes and the transformed shift is defined everywhere.
    """

    t: Fraction
    weight_exponent: int
    terms_checked: int
    all_terms_one: bool
    modulus_certificate: series.TermsDoNotVanish
    transformed_weights_zero: bool

    @property
    def proper_inclusion(self) -> bool:
        return self.all_terms_one and self.transformed_weights_zero


def strict_inclusion_weight(m: int):
    """Float-side weight callable matching the exact construction: odd path
    vertices get (k+1)^m, even ones 0."""

    def fn(v: int) -> float:
        if v % 2 == 1:
            k = (v - 1) // 2
            return float((k + 1) ** m)
        return 0.0

    return fn


def strict_inclusion_example(t: Fraction = Fraction(1, 2), terms: int = 64) -> StrictInclusionReport:
    """Certify the domain gap exactly, in big-integer rationals.

    ``t`` must make 1/(1-t) a whole number m >= 2, so the modulus power
    2 - 2t = 2/m turns the integer weights (k+1)^m into the exact squares
    (k+1)^2 that cancel the profile.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError("the strict-inclusion construction needs t in (0, 1)")
    m_frac = 1 / (1 - t)
    if m_frac.denominator != 1:
        raise ValueError("exact arithmetic needs 1/(1-t) to be a whole number")
    m = int(m_frac)

    exact_terms = []
    for k in range(terms):
        profile = Fraction(1, k + 1)  # value of the vector at path vertex 2k
        norm_power = Fraction((k + 1) ** 2)  # ((k+1)^m)^(2/m), exactly
        exact_terms.append(norm_power * profile * profile)
    all_one = all(term == 1 for term in exact_terms)

    # Dual route: the generic float machinery must agree that every
    # transformed weight vanishes (odd vertices have zero child norm, even
    # vertices zero weight).
    float_system = CallableWeights(nat_path(), strict_inclusion_weight(m))
    mu = aluthge_weights(float_system, float(t))
    transformed_zero = all(mu.weight(v) == 0 for v in range(1, 2 * min(terms, 24)))

    certificate = series.TermsDoNotVanish(start=0, lower_bound=1.0)
    series.verify_certificate(certificate, (float(x) for x in exact_terms), terms)
    return StrictInclusionReport(
        t=t,
        weight_exponent=m,
        terms_checked=terms,
        all_terms_one=all_one,
        modulus_certificate=certificate,
        transformed_weights_zero=transformed_zero,
    )
