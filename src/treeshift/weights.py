"""Weight systems on directed trees and their derived systems.

A weight system assigns a complex weight to every non-root vertex.  The
square norm of the shift at a basis vector is the aggregate of squared child
weights; derived systems divide by parent norms (polar factor) or scale by a
power of the child/parent norm ratio (Aluthge transform).  Aggregates go
through a system's own closed form or an exact finite sum, in that order;
only the sums are cached.  An infinite child set without a closed form has
no aggregate: it raises :class:`EvaluationError` naming its vertex.  Of the
closed forms only a transform's may claim divergence, and the transformed
system checks that claim.

Every system's child terms are its squared weights, one ``weight`` call per
child, so a transform's terms are its own transformed weights squared.  A
ratio claim is checked on the base's ``_aluthge_unit_terms`` instead, where
the base has them: one stream for every vertex.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping, Optional

from . import series
from .errors import EvaluationError, StructureError
from .trees import DescendantSubtree, DirectedTree, OmegaTree

__all__ = [
    "WeightSystem",
    "TableWeights",
    "CallableWeights",
    "OmegaShiftWeights",
    "PolarWeights",
    "AluthgeWeights",
    "node_norm",
    "polar_weights",
    "aluthge_weights",
]


class WeightSystem:
    """Base class: weights live on non-root vertices of ``tree``.

    A family states its analytic facts through six hooks that the analysis
    layer reads without naming a class; the built-in family overrides all six:
    ``_closed_form`` and ``_aluthge_closed_form`` (aggregates of the system
    and of its transforms; only the latter may claim divergence, which
    ``AluthgeWeights`` checks), ``closed_form_total`` (they cover every vertex),
    ``_aluthge_unit_terms`` (a transform's child stream up to a positive factor
    of the vertex), ``_family_margin``
    (the vertex-independent hyponormality margin, or ``None``) and
    ``_pairing_growth`` (the witness's pairing terms and their ratio limit;
    the base class refuses the witness).
    """

    closed_form_total = False

    def __init__(self, tree: DirectedTree):
        self.tree = tree
        self._aggregates: dict = {}
        self._norms: dict = {}  # the square roots of the cached sums

    def weight(self, v) -> complex:
        raise NotImplementedError

    def _require_non_root(self, v):
        tree = self.tree
        tree.require_vertex(v)
        if tree.root is not None and v == tree.root:
            raise EvaluationError("weights are defined on non-root vertices only", vertex=v)

    def _parent_of(self, v):
        """The parent of ``v``, refused as ``_require_non_root`` refuses it;
        the parent lookup is the vertex check."""
        parent = self.tree.parent(v)
        if parent is None:
            raise EvaluationError("weights are defined on non-root vertices only", vertex=v)
        return parent

    def _closed_form(self, u) -> Optional[series.SeriesVerdict]:
        return None

    def _aluthge_closed_form(self, u, t: float) -> Optional[series.SeriesVerdict]:
        return None

    def _aluthge_unit_terms(self, t: float, first: int) -> Optional[Iterator[float]]:
        """A stream ``g`` from index ``first`` on such that, at every vertex
        ``u``, the transform's squared child weights are ``c(u) * g(n)`` for
        some ``c(u) > 0``; ``None`` (the default) when there is none."""
        return None

    def _family_margin(self) -> Optional[series.Converges]:
        return None

    def _pairing_growth(self, t: float) -> tuple[Callable[[int], float], float]:
        raise ValueError("the witness construction needs the built-in branching family")

    def aggregate(self, u) -> series.SeriesVerdict:
        """Verdict for the sum of squared child weights at ``u``.

        Closed forms cost O(1) and are recomputed on every call; only exact
        finite sums are cached, each with its square root, which
        ``node_norm`` reads.
        """
        cached = self._aggregates.get(u)
        if cached is not None:
            return cached
        closed = self._closed_form(u)
        if closed is not None:
            return closed
        verdict = self._summed_aggregate(u)
        self._aggregates[u] = verdict
        self._norms[u] = math.sqrt(verdict.value)
        return verdict

    def _summed_aggregate(self, u) -> series.Converges:
        if self.tree.child_count(u) is None:
            raise EvaluationError(f"infinite child set at {u!r} has no closed form", vertex=u)
        try:
            total = math.fsum(self.child_terms(u))
        except OverflowError as exc:  # a weight, its square or fsum's running sum
            raise OverflowError(f"squared-weight sum at {u!r} overflows") from exc
        if total == math.inf:
            raise OverflowError(f"squared-weight sum at {u!r} overflows")
        if math.isnan(total):
            raise EvaluationError(f"squared-weight sum at {u!r} is nan", vertex=u)
        return series.Converges(total, 0.0)

    def child_terms(self, u, first: int = 0) -> Iterator[float]:
        """Squared weights of the children of ``u``, in enumeration order
        from child index ``first`` on."""
        return (abs(self.weight(v)) ** 2 for v in self.tree.children(u, first))

    def node_norm(self, u) -> float:
        """Norm of the shift at the basis vector of ``u``: the square root of
        the aggregate, or ``inf`` when it diverges.  The verdict and its
        certificate are ``aggregate(u)``."""
        norm = self._norms.get(u)
        if norm is not None:
            return norm
        verdict = self.aggregate(u)
        return math.sqrt(verdict.value) if isinstance(verdict, series.Converges) else math.inf

    def finite_norm(self, u, vertex=None) -> float:
        """The node norm at ``u``; an infinite one is an evaluation error
        naming ``vertex`` (default ``u``)."""
        s = self.node_norm(u)
        if s == math.inf:
            raise EvaluationError(f"node norm at {u!r} is infinite", vertex=u if vertex is None else vertex)
        return s


class TableWeights(WeightSystem):
    """Weights from an explicit table; must cover exactly the non-root vertices."""

    def __init__(self, tree: DirectedTree, table: Mapping):
        super().__init__(tree)
        if tree.is_finite:
            expected = {v for v in tree.vertices() if v != tree.root}
            given = set(table)
            if given != expected:
                missing = sorted(expected - given)
                extra = sorted(given - expected)
                raise StructureError(
                    f"weight table mismatch: missing {missing}, unexpected {extra}"
                )
        self._table = {v: complex(c) for v, c in table.items()}

    def weight(self, v) -> complex:
        self._require_non_root(v)
        try:
            return self._table[v]
        except KeyError:
            raise EvaluationError(f"no weight stored for vertex {v!r}", vertex=v) from None


class CallableWeights(WeightSystem):
    """Weights from a callable ``fn(v)``, for trees with finite child sets."""

    def __init__(self, tree, fn):
        super().__init__(tree)
        self._fn = fn

    def weight(self, v) -> complex:
        self._require_non_root(v)
        return complex(self._fn(v))


def _require_omega_family(tree: DirectedTree) -> None:
    if isinstance(tree, OmegaTree):
        return
    if isinstance(tree, DescendantSubtree) and isinstance(tree.base, OmegaTree):
        return
    raise StructureError("this weight family lives on the infinitely-branching tree")


class OmegaShiftWeights(WeightSystem):
    """Built-in weights on the infinitely-branching family.

    The weight at a vertex is 2^(sum of digits before the last) over
    (last digit + 1).  Child weights at any vertex then share the factor
    2^(digit sum of the parent), so every node norm is that factor times the
    square root of the inverse-square constant: finite and positive
    everywhere, with an exact closed form.
    """

    closed_form_total = True

    def __init__(self, tree: Optional[DirectedTree] = None):
        tree = tree if tree is not None else OmegaTree()
        _require_omega_family(tree)
        super().__init__(tree)

    def weight(self, v) -> complex:
        self._require_non_root(v)
        try:
            return complex(2.0 ** (v.digit_sum - v.last_digit) / (v.last_digit + 1))
        except OverflowError as exc:
            raise OverflowError(f"weight at {v!r} overflows") from exc

    def _closed_form(self, u):
        try:
            scale = 4.0**u.digit_sum
        except OverflowError as exc:
            raise OverflowError(f"squared-weight sum at {u!r} overflows") from exc
        inv_sq = series.inverse_square_sum()
        return series.Converges(scale * inv_sq.value, scale * inv_sq.tail_bound)

    def _aluthge_unit_terms(self, t, first):
        # squared transformed child weights at u are 4^S(u) * 4^(t n) / (n + 1)^2;
        # 4^(t n) is taken from its exponent, so no 2^n or 4^(S(u) + n) is formed
        return (4.0 ** (t * n) / (n + 1) ** 2 for n in itertools.count(first))

    def _aluthge_closed_form(self, u, t):
        # the ratio certificate of 4^(t n) / (n + 1)^2 does not depend on the
        # 4^S(u) scale
        growth = 4.0**t
        if growth == 1.0:
            raise ArithmeticError(f"4^t rounds to 1 at t={t}; t too small for floats")
        return series.closed_form_aggregate(growth)

    def _family_margin(self):
        return series.sum_series(self.margin_terms(), 48, self.margin_tail_bound(48))

    def _pairing_growth(self, t):
        # With g^2 the inverse-square constant, the k-th probe pairs to
        # 4^((1-t) k) / ((k+1)^2 g^4) per unit of |adjoint coefficient|^2, so
        # consecutive terms grow like 4^(1-t).  The witness needs t in (0, 1);
        # outside it the limit is NaN rather than a power that may overflow.
        inv_sq = series.inverse_square_sum().value
        g4 = inv_sq * inv_sq

        def term(k: int) -> float:
            try:
                return 4.0 ** ((1 - t) * k) / ((k + 1) ** 2 * g4)
            except OverflowError:  # float ** raises where it should give inf
                return math.inf

        return term, 4.0 ** (1 - t) if 0 < t < 1 else math.nan

    def margin_terms(self):
        """Terms of the per-vertex hyponormality margin, in child-digit order.

        The margin is the sum over children of |weight|^2 divided by the
        child's squared node norm; for this family it is independent of the
        vertex.
        """
        inv_sq = series.inverse_square_sum().value
        return (1.0 / ((n + 1) ** 2 * 4.0**n * inv_sq) for n in itertools.count())

    def margin_tail_bound(self, n: int) -> float:
        """Dominates the margin tail past the first ``n`` terms (geometric bound)."""
        inv_sq = series.inverse_square_sum().value
        return (4.0 / 3.0) * 4.0 ** (-n) / ((n + 1) ** 2 * inv_sq)


class PolarWeights(WeightSystem):
    """Weights of the polar-factor shift: child weight over parent node norm.

    Children of a vertex with zero norm get weight 0; an infinite parent norm
    is an evaluation error naming the vertex.  The aggregate at any vertex
    with finite positive norm is exactly 1.
    """

    def __init__(self, base: WeightSystem):
        super().__init__(base.tree)
        self.base = base

    def weight(self, v) -> complex:
        s = self.base.finite_norm(self._parent_of(v), vertex=v)
        if s == 0.0:
            return 0j
        return complex(self.base.weight(v)) / s

    def _closed_form(self, u):
        return series.Converges(1.0 if self.base.finite_norm(u) > 0.0 else 0.0, 0.0)


class AluthgeWeights(WeightSystem):
    """Transformed weights: base weight times (child norm / parent norm)^t.

    A divergence claim of the base's ``_aluthge_closed_form`` is checked
    before any caller sees it, on 48 terms from its start; a refused claim
    raises.  A ratio claim holds for a stream exactly when it holds for every
    positive multiple of it, so where the base gives ``_aluthge_unit_terms``
    it is checked there, once per certificate; any other claim is checked on
    each vertex's own child terms.
    """

    def __init__(self, base: WeightSystem, t: float):
        if not 0 < t <= 1:
            raise ValueError("t must lie in (0, 1]")
        super().__init__(base.tree)
        self.base = base
        self.t = float(t)
        self._checked: set = set()  # ratio certificates passed on the unit stream

    def weight(self, v) -> complex:
        parent_norm = self.base.finite_norm(self._parent_of(v), vertex=v)
        child_norm, weight = self.base.finite_norm(v), self.base.weight(v)
        if parent_norm == 0.0:
            return 0j
        return (child_norm / parent_norm) ** self.t * weight

    def _closed_form(self, u):
        closed = self.base._aluthge_closed_form(u, self.t)
        if not isinstance(closed, series.Diverges):
            return closed
        cert = closed.certificate
        unit = None
        if isinstance(cert, series.EventuallyIncreasing):
            self.tree.require_vertex(u)  # as reading its own stream would
            if cert in self._checked:
                return closed
            unit = self.base._aluthge_unit_terms(self.t, cert.start)
        # from the claim's start, so no earlier term is computed
        terms = self.child_terms(u, cert.start) if unit is None else unit
        series.verify_certificate(cert, terms, 48, first=cert.start)
        if unit is not None:
            self._checked.add(cert)
        return closed


def node_norm(w: WeightSystem, u) -> float:
    return w.node_norm(u)


def polar_weights(w: WeightSystem) -> PolarWeights:
    return PolarWeights(w)


def aluthge_weights(w: WeightSystem, t: float) -> AluthgeWeights:
    return AluthgeWeights(w, t)
