"""Weight systems on directed trees and their derived systems.

A weight system assigns a complex weight to every non-root vertex.  The
square norm of the shift at a basis vector is the aggregate of squared child
weights; derived systems divide by parent norms (polar factor) or scale by a
power of the child/parent norm ratio (Aluthge transform).  Aggregates go
through a system's own closed form, exact finite sums, or the series engine,
in that order; only the last two are cached.

A transformed system reads its base's children through one hook,
``child_norms_and_weights(u, first)``, a lazy stream of ``(node norm,
weight)`` pairs.  By default it builds each child and asks for both; the
built-in family computes them by digit arithmetic from the parent's digit
sum, with the same float expressions and without building any child.
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

    A family states its analytic facts through hooks that the analysis layer
    reads without naming a class; the built-in family overrides all six:
    ``_closed_form`` and ``_aluthge_closed_form`` (aggregates of the system
    and of its transforms), ``closed_form_total`` (they cover every vertex),
    ``child_norms_and_weights`` (the children's norms and weights, streamed),
    ``_family_margin`` (the vertex-independent hyponormality margin, or
    ``None``) and ``_pairing_growth`` (the witness's pairing terms and their
    ratio limit; the base class refuses the witness).
    """

    closed_form_total = False

    def __init__(self, tree: DirectedTree, policy: series.SumPolicy = series.DEFAULT_POLICY):
        self.tree = tree
        self.policy = policy
        self._aggregates: dict = {}

    def weight(self, v) -> complex:
        raise NotImplementedError

    def _require_non_root(self, v):
        tree = self.tree
        tree.require_vertex(v)
        if tree.root is not None and v == tree.root:
            raise EvaluationError("weights are defined on non-root vertices only", vertex=v)

    def _closed_form(self, u) -> Optional[series.SeriesVerdict]:
        return None

    def _aluthge_closed_form(self, u, t: float) -> Optional[series.SeriesVerdict]:
        return None

    def _divergence_claim(self, u) -> Optional[series.DivergenceCertificate]:
        return None

    def _family_margin(self) -> Optional[series.Converges]:
        return None

    def _pairing_growth(self, t: float) -> tuple[Callable[[int], float], float]:
        raise ValueError("the witness construction needs the built-in branching family")

    def aggregate(self, u) -> series.SeriesVerdict:
        """Verdict for the sum of squared child weights at ``u``.

        Closed forms cost O(1) and are recomputed on every call; only exact
        finite sums and series verdicts are cached.
        """
        cached = self._aggregates.get(u)
        if cached is not None:
            return cached
        closed = self._closed_form(u)
        if closed is not None:
            return closed
        verdict = self._summed_aggregate(u)
        self._aggregates[u] = verdict
        return verdict

    def _summed_aggregate(self, u) -> series.SeriesVerdict:
        if self.tree.child_count(u) is not None:
            total = math.fsum(self.child_terms(u))
            if not math.isfinite(total):
                raise EvaluationError(f"squared-weight sum at {u!r} is {total}", vertex=u)
            return series.Converges(total, 0.0)
        stream = self.child_terms(u)
        return series.sum_series(stream, self.policy, certificate=self._divergence_claim(u))

    def child_terms(self, u, first: int = 0) -> Iterator[float]:
        """Squared weights of the children of ``u``, in enumeration order
        from child index ``first`` on."""
        return (abs(self.weight(v)) ** 2 for v in self.tree.children(u, first))

    def child_norms_and_weights(self, u, first: int = 0) -> Iterator[tuple[float, complex]]:
        """``(finite_norm(v), weight(v))`` for each child ``v`` of ``u``, in
        enumeration order from child index ``first`` on; lazy, so each pair
        is computed when it is read."""
        for v in self.tree.children(u, first):
            yield self.finite_norm(v), self.weight(v)

    def node_norm(self, u) -> float:
        """Norm of the shift at the basis vector of ``u``: the square root of
        the aggregate, ``inf`` when it diverges, ``nan`` when its verdict is
        inconclusive.  The verdict and its certificate are ``aggregate(u)``."""
        verdict = self.aggregate(u)
        if isinstance(verdict, series.Converges):
            return math.sqrt(verdict.value)
        return math.inf if isinstance(verdict, series.Diverges) else math.nan

    def finite_norm(self, u, vertex=None) -> float:
        """The node norm at ``u``; an infinite or undetermined one is an
        evaluation error naming ``vertex`` (default ``u``)."""
        s = self.node_norm(u)
        if not math.isfinite(s):
            state = "infinite" if s == math.inf else "undetermined"
            named = u if vertex is None else vertex
            raise EvaluationError(f"node norm at {u!r} is {state}", vertex=named)
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
    """Weights from a callable; optional per-vertex analytic divergence claims.

    ``divergence_claims``, when given, maps a vertex to a certificate that the
    squared-weight aggregate at that vertex diverges; the claim is verified
    against the actual child stream before being endorsed.
    """

    def __init__(self, tree, fn, divergence_claims=None, policy=series.DEFAULT_POLICY):
        super().__init__(tree, policy)
        self._fn = fn
        self._claims = divergence_claims

    def weight(self, v) -> complex:
        self._require_non_root(v)
        return complex(self._fn(v))

    def _divergence_claim(self, u):
        return self._claims(u) if self._claims is not None else None


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
        return complex(2.0 ** (v.digit_sum - v.last_digit) / (v.last_digit + 1))

    def _closed_form(self, u):
        scale = 4.0**u.digit_sum
        inv_sq = series.inverse_square_sum()
        return series.Converges(scale * inv_sq.value, scale * inv_sq.tail_bound)

    def child_norms_and_weights(self, u, first=0):
        # Child n of u has digit sum S(u) + n and last digit n, so its node
        # norm and weight are the float expressions of ``_closed_form`` and
        # ``weight`` at that child, evaluated without building it.
        self.tree.require_vertex(u)
        s = u.digit_sum
        inv_sq = series.inverse_square_sum().value
        for n in itertools.count(first):
            yield math.sqrt(4.0 ** (s + n) * inv_sq), complex(2.0**s / (n + 1))

    def _aluthge_closed_form(self, u, t):
        # squared transformed child weights are 4^S(u) * 4^(t n) / (n + 1)^2;
        # the ratio certificate does not depend on the 4^S(u) scale
        growth = 4.0**t
        if growth == 1.0:
            raise ArithmeticError(f"4^t rounds to 1 at t={t}; t too small for floats")
        return series.closed_form_aggregate(growth)

    def _family_margin(self):
        policy = series.SumPolicy(max_terms=48, tail_bound=self.margin_tail_bound)
        return series.sum_series(self.margin_terms(), policy)

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
        self._require_non_root(v)
        s = self.base.finite_norm(self.tree.parent(v), vertex=v)
        if s == 0.0:
            return 0j
        return complex(self.base.weight(v)) / s

    def _closed_form(self, u):
        return series.Converges(1.0 if self.base.finite_norm(u) > 0.0 else 0.0, 0.0)


class AluthgeWeights(WeightSystem):
    """Transformed weights: base weight times (child norm / parent norm)^t."""

    def __init__(self, base: WeightSystem, t: float):
        if not 0 < t <= 1:
            raise ValueError("t must lie in (0, 1]")
        super().__init__(base.tree)
        self.base = base
        self.t = float(t)

    def weight(self, v) -> complex:
        self._require_non_root(v)
        parent_norm = self.base.finite_norm(self.tree.parent(v), vertex=v)
        return self._scaled(self.base.finite_norm(v), parent_norm, self.base.weight(v))

    def child_terms(self, u, first=0):
        # The parent norm is the same for every child: take it once, before
        # the first child's norm, so an infinite one still names that child.
        for v in self.tree.children(u, first):
            parent_norm = self.base.finite_norm(u, vertex=v)
            break
        else:
            return
        for child_norm, weight in self.base.child_norms_and_weights(u, first):
            yield abs(self._scaled(child_norm, parent_norm, weight)) ** 2

    def _scaled(self, child_norm: float, parent_norm: float, weight: complex) -> complex:
        if parent_norm == 0.0:
            return 0j
        return (child_norm / parent_norm) ** self.t * complex(weight)

    def _closed_form(self, u):
        return self.base._aluthge_closed_form(u, self.t)


def node_norm(w: WeightSystem, u) -> float:
    return w.node_norm(u)


def polar_weights(w: WeightSystem) -> PolarWeights:
    return PolarWeights(w)


def aluthge_weights(w: WeightSystem, t: float) -> AluthgeWeights:
    return AluthgeWeights(w, t)
