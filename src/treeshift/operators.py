"""Structured vectors and the shift-operator actions on them.

A structured vector is a finite combination of basis vectors ``e_v`` and
unit child bundles ``b_u`` (the normalized shift image of ``e_u``).  The
class is closed under every operator implemented here, and all inner
products reduce to exact finite expressions:

    <b_u, b_w> = 1 if u == w else 0
    <e_v, b_u> = conj(weight(v)) / norm(u)   when u is the parent of v

Bundles at a vertex with infinitely many children are kept symbolic; any
operation that would need their basis expansion fails loudly instead of
truncating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from . import series
from .errors import (
    EvaluationError,
    MixedBasisError,
    OutOfDomainError,
    SingularWeightError,
    UnsupportedRepresentationError,
)
from .trees import OmegaVertex
from .weights import WeightSystem, aluthge_weights

__all__ = [
    "StructuredVector",
    "basis_vector",
    "bundle_vector",
    "zero_vector",
    "expand",
    "truncate",
    "DomainVerdict",
    "apply_shift",
    "apply_adjoint",
    "apply_modulus_power",
    "apply_adjoint_modulus_power",
    "apply_partial_isometry",
    "apply_partial_isometry_adjoint",
    "aluthge_basis_action",
    "adjoint_aluthge_basis_action",
    "domain_check",
]


def _sort_key(v):
    if isinstance(v, OmegaVertex):
        return (1,) + v.sort_key()
    return (0, v)


class StructuredVector:
    """Finite combination of basis vectors and child bundles."""

    __slots__ = ("weights", "e", "b")

    def __init__(self, weights: Optional[WeightSystem] = None, e=None, b=None):
        self.e = {v: complex(c) for v, c in (e or {}).items() if c != 0}
        self.b = {u: complex(c) for u, c in (b or {}).items() if c != 0}
        if self.b:
            if weights is None:
                raise MixedBasisError("bundle terms need their weight system")
            for u in self.b:
                if not 0.0 < weights.node_norm(u) < math.inf:
                    raise EvaluationError(
                        f"bundle at {u!r} needs a finite positive node norm", vertex=u
                    )
            self.weights = weights
        else:
            self.weights = None

    # -- algebra ---------------------------------------------------------

    def scaled(self, c) -> "StructuredVector":
        c = complex(c)
        return StructuredVector(
            self.weights,
            {v: c * x for v, x in self.e.items()},
            {u: c * x for u, x in self.b.items()},
        )

    def __add__(self, other: "StructuredVector") -> "StructuredVector":
        basis = _common_basis(self, other)
        e = dict(self.e)
        for v, c in other.e.items():
            e[v] = e.get(v, 0j) + c
        b = dict(self.b)
        for u, c in other.b.items():
            b[u] = b.get(u, 0j) + c
        return StructuredVector(basis, e, b)

    def __sub__(self, other: "StructuredVector") -> "StructuredVector":
        return self + other.scaled(-1.0)

    @property
    def is_zero(self) -> bool:
        return not self.e and not self.b

    def support(self):
        return sorted(self.e, key=_sort_key)

    # -- geometry --------------------------------------------------------

    def inner(self, other: "StructuredVector") -> complex:
        """<self, other>, linear in self and conjugate-linear in other."""
        basis = _common_basis(self, other)
        total = 0j
        for v, c in self.e.items():
            d = other.e.get(v)
            if d is not None:
                total += c * d.conjugate()
        for u, c in self.b.items():
            d = other.b.get(u)
            if d is not None:
                total += c * d.conjugate()
        if basis is not None:
            tree = basis.tree
            for v, c in self.e.items():
                parent = tree.parent(v)
                if parent is not None and parent in other.b:
                    cross = basis.weight(v).conjugate() / basis.node_norm(parent)
                    total += c * other.b[parent].conjugate() * cross
            for v, d in other.e.items():
                parent = tree.parent(v)
                if parent is not None and parent in self.b:
                    cross = basis.weight(v) / basis.node_norm(parent)
                    total += self.b[parent] * d.conjugate() * cross
        return total

    def norm_squared(self) -> float:
        return max(self.inner(self).real, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def __repr__(self):
        parts = [f"{c:.4g}*e[{v!r}]" for v, c in sorted(self.e.items(), key=lambda p: _sort_key(p[0]))]
        parts += [f"{c:.4g}*b[{u!r}]" for u, c in sorted(self.b.items(), key=lambda p: _sort_key(p[0]))]
        return "StructuredVector(" + (" + ".join(parts) if parts else "0") + ")"


def _common_basis(f: StructuredVector, g: StructuredVector) -> Optional[WeightSystem]:
    if f.weights is not None and g.weights is not None and f.weights is not g.weights:
        raise MixedBasisError("bundle terms from two different weight systems")
    return f.weights if f.weights is not None else g.weights


def _require_basis(w: WeightSystem, f: StructuredVector) -> None:
    if f.weights is not None and f.weights is not w:
        raise MixedBasisError("vector bundles belong to a different weight system")


def basis_vector(v) -> StructuredVector:
    return StructuredVector(None, {v: 1.0}, None)


def bundle_vector(w: WeightSystem, u) -> StructuredVector:
    return StructuredVector(w, None, {u: 1.0})


def zero_vector() -> StructuredVector:
    return StructuredVector(None, None, None)


def expand(f: StructuredVector) -> StructuredVector:
    """Rewrite bundle terms over the basis; needs finite child sets."""
    if not f.b:
        return f
    w = f.weights
    e = dict(f.e)
    for u, c in f.b.items():
        if w.tree.child_count(u) is None:
            raise UnsupportedRepresentationError(
                f"bundle at {u!r} has infinitely many children", vertex=u
            )
        s = w.node_norm(u)
        for v in w.tree.children(u):
            wt = w.weight(v)
            if wt != 0:
                e[v] = e.get(v, 0j) + c * wt / s
    return StructuredVector(None, e, None)


def truncate(profile: Sequence[Tuple[object, complex]], n: int) -> StructuredVector:
    """First-``n`` truncation of a profile listed in its fixed enumeration order."""
    if n < 0:
        raise ValueError("truncation length must be nonnegative")
    return StructuredVector(None, dict(itertools.islice(iter(profile), n)), None)


@dataclass(frozen=True)
class DomainVerdict:
    """Membership verdict for one vector and one operator domain."""

    status: str  # "in" | "out" | "unknown"
    condition: Optional[str] = None
    vertex: object = None
    certificate: object = None
    evidence: tuple = ()

    @property
    def is_in(self) -> bool:
        return self.status == "in"

    @property
    def is_out(self) -> bool:
        return self.status == "out"


def _unmet(condition: str, v, verdict: series.SeriesVerdict, evidence=()) -> Optional[DomainVerdict]:
    """The verdict an aggregate that does not converge forces: ``out`` with its
    divergence certificate, or ``unknown`` when it is inconclusive."""
    if isinstance(verdict, series.Diverges):
        return DomainVerdict("out", condition, v, verdict.certificate, tuple(evidence))
    if isinstance(verdict, series.Inconclusive):
        return DomainVerdict("unknown", condition, v, evidence=tuple(evidence))
    return None


def _domain_norm(w: WeightSystem, v) -> float:
    """Finite node norm at ``v``; an infinite one puts the vector outside the domain."""
    verdict = w.aggregate(v)
    if isinstance(verdict, series.Diverges):
        raise OutOfDomainError(
            f"vector leaves the domain: infinite node norm at {v!r}",
            vertex=v,
            certificate=verdict.certificate,
        )
    return w.finite_norm(v)


def _expand_if_possible(w: WeightSystem, result: StructuredVector) -> StructuredVector:
    if result.b and all(w.tree.child_count(u) is not None for u in result.b):
        return expand(result)
    return result


def apply_shift(w: WeightSystem, f: StructuredVector) -> StructuredVector:
    """Shift action on a basis combination: e_u -> norm(u) * b_u.

    Expands to the basis whenever every support vertex has finitely many
    children; raises when a support vertex has an infinite node norm (the
    vector is then outside the domain).
    """
    if f.b:
        raise UnsupportedRepresentationError("shift application takes a plain basis combination")
    out = {}
    for v, c in f.e.items():
        s = _domain_norm(w, v)
        if s == 0.0:
            continue
        out[v] = out.get(v, 0j) + c * s
    return _expand_if_possible(w, StructuredVector(w, None, out))


def apply_adjoint(w: WeightSystem, f: StructuredVector) -> StructuredVector:
    """Adjoint action: e_v -> conj(weight(v)) e_parent, b_u -> norm(u) e_u."""
    _require_basis(w, f)
    out = {}
    for v, c in f.e.items():
        parent = w.tree.parent(v)
        if parent is None:
            continue
        out[parent] = out.get(parent, 0j) + c * w.weight(v).conjugate()
    for u, c in f.b.items():
        out[u] = out.get(u, 0j) + c * w.node_norm(u)
    return StructuredVector(None, out, None)


def apply_modulus_power(w: WeightSystem, alpha: float, f: StructuredVector) -> StructuredVector:
    """|shift|^alpha: diagonal scaling of basis coefficients by norm^alpha."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _require_basis(w, f)
    g = expand(f) if f.b else f
    out = {}
    for v, c in g.e.items():
        s = _domain_norm(w, v)
        if s == 0.0:
            continue
        out[v] = c * s**alpha
    return StructuredVector(None, out, None)


def apply_adjoint_modulus_power(w: WeightSystem, alpha: float, f: StructuredVector) -> StructuredVector:
    """|adjoint shift|^alpha: e_v -> conj(weight(v)) norm(parent)^(alpha-1) b_parent.

    Bundles are eigenvectors: b_u -> norm(u)^alpha b_u, so the action stays
    symbolic on infinite trees.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _require_basis(w, f)
    out = {}
    for v, c in f.e.items():
        parent = w.tree.parent(v)
        if parent is None:
            continue
        s = w.finite_norm(parent)
        if s == 0.0:
            continue
        out[parent] = out.get(parent, 0j) + c * w.weight(v).conjugate() * s ** (alpha - 1)
    for u, c in f.b.items():
        out[u] = out.get(u, 0j) + c * w.node_norm(u) ** alpha
    return StructuredVector(w, None, out)


def apply_partial_isometry(w: WeightSystem, f: StructuredVector) -> StructuredVector:
    """Polar factor action: e_u -> b_u on active vertices, 0 elsewhere."""
    _require_basis(w, f)
    g = expand(f) if f.b else f
    out = {}
    for u, c in g.e.items():
        if w.finite_norm(u) == 0.0:
            continue
        out[u] = out.get(u, 0j) + c
    return _expand_if_possible(w, StructuredVector(w, None, out))


def apply_partial_isometry_adjoint(w: WeightSystem, f: StructuredVector) -> StructuredVector:
    """Adjoint polar factor: e_v -> conj(weight(v))/norm(parent) e_parent, b_u -> e_u."""
    _require_basis(w, f)
    out = {}
    for v, c in f.e.items():
        parent = w.tree.parent(v)
        if parent is None:
            continue
        s = w.finite_norm(parent)
        if s == 0.0:
            continue
        out[parent] = out.get(parent, 0j) + c * w.weight(v).conjugate() / s
    for u, c in f.b.items():
        out[u] = out.get(u, 0j) + c
    return StructuredVector(None, out, None)


def aluthge_basis_action(
    w: WeightSystem, t: float, u
) -> Union[StructuredVector, DomainVerdict]:
    """Transform action on one basis vector, or the verdict excluding it.

    The basis vector lies in the transform's domain exactly when the
    transformed-weight aggregate at ``u`` converges (and, for t < 1, the node
    norm is finite); the image is then the transformed node norm times the
    bundle of the transformed system.
    """
    mu = aluthge_weights(w, t)
    agg = mu.aggregate(u)
    unmet = _unmet("aluthge-weight-aggregate", u, agg)
    if unmet is None and t < 1:
        unmet = _unmet("node-norm", u, w.aggregate(u))
    if unmet is not None:
        return unmet
    value = math.sqrt(agg.value)
    if value == 0.0:
        return zero_vector()
    return StructuredVector(mu, None, {u: value})


def adjoint_aluthge_basis_action(w: WeightSystem, t: float, v) -> StructuredVector:
    """Transform of the adjoint shift on one basis vector.

    Zero for vertices fewer than two levels below an active vertex.  When the
    transformed weight at the parent vanishes while the grandparent stays
    active, the closed formula is a 0/0 form and no limit is guessed.
    """
    if not 0 < t <= 1:
        raise ValueError("t must lie in (0, 1]")
    tree = w.tree
    parent = tree.parent(v)
    if parent is None:
        return zero_vector()
    grand = tree.parent(parent)
    if grand is None:
        return zero_vector()
    grand_norm = w.finite_norm(grand)
    if grand_norm == 0.0:
        return zero_vector()
    # The transformed weight at the parent, as AluthgeWeights(w, t).weight
    # computes it, without building that system.
    parent_norm = w.finite_norm(parent)
    w_parent = w.weight(parent)
    mu_parent = (parent_norm / grand_norm) ** float(t) * w_parent
    if mu_parent == 0:
        raise SingularWeightError(
            f"transformed weight vanishes at {parent!r}; formula is a 0/0 form",
            vertex=parent,
        )
    polar_parent = w_parent / grand_norm
    coeff = (
        w.weight(v).conjugate()
        * abs(polar_parent) ** 2
        / mu_parent
        * grand_norm
    )
    return StructuredVector(w, None, {grand: coeff})


def domain_check(w: WeightSystem, f: StructuredVector, t: Optional[float] = None) -> DomainVerdict:
    """Reduce domain membership of a finitely supported vector to aggregates.

    Without ``t`` the domain is the shift's, which every positive power of
    its modulus shares; with ``t`` it is the transform's.  The adjoint needs
    no check: it is defined on every finite combination.  Each support vertex
    runs its checks in order: a divergent aggregate puts the vector out at
    once, an inconclusive one skips the vertex's remaining checks, and the
    last such vertex makes the verdict unknown.
    """
    if f.b:
        raise UnsupportedRepresentationError("domain checks take plain basis combinations")
    checks = [("node-norm", w.aggregate, "node-norm-finite")]
    if t is not None:
        if not 0 < t <= 1:
            raise ValueError("aluthge needs t in (0, 1]")
        mu = aluthge_weights(w, t)
        transformed = ("aluthge-weight-aggregate", mu.aggregate, "aluthge-aggregate-finite")
        checks = [transformed] if t == 1 else [transformed] + checks

    evidence = []
    unknown = None
    for v in f.support():
        for condition, aggregate, label in checks:
            unmet = _unmet(condition, v, aggregate(v), evidence)
            if unmet is None:
                evidence.append((v, label))
            elif unmet.is_out:
                return unmet
            else:
                unknown = unmet
                break
    if unknown is not None:
        return replace(unknown, evidence=tuple(evidence))
    return DomainVerdict(status="in", evidence=tuple(evidence))
