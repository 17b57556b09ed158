"""Directed trees with deterministic child enumeration.

Finite trees store eager children lists.  The built-in infinite families
(:class:`NatPath`, :class:`IntPath`, :class:`OmegaTree`) hand out a fresh
iterator on every ``children`` call, so independent consumers never share
iterator state.  All child streams follow one fixed enumeration order; every
series evaluated over a child set uses that order.  ``children(u, first)``
starts the stream at index ``first`` without building the children before it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import StructureError, TreeShiftError

__all__ = [
    "OmegaVertex",
    "DirectedTree",
    "FiniteTree",
    "NatPath",
    "IntPath",
    "OmegaTree",
    "DescendantSubtree",
    "finite_tree",
    "nat_path",
    "int_path",
    "omega_tree",
    "descendant_subtree",
    "SampleWindow",
    "sample_vertices",
    "format_vertex",
]


@dataclass(frozen=True)
class OmegaVertex:
    """Vertex of the infinitely-branching rootless tree.

    ``digits`` lists the trailing nonnegative entries of the vertex word,
    ending at position ``level``; entries below the listed range are zero.
    Canonical form carries no leading zero, so the all-zero vertex at a
    level is ``digits=()``.
    """

    level: int
    digits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.digits:
            if min(self.digits) < 0:
                raise StructureError("vertex digits must be nonnegative")
            if self.digits[0] == 0:
                raise StructureError("leading zero digit: vertex not canonical")

    @classmethod
    def make(cls, level: int, digits) -> "OmegaVertex":
        """Build a vertex, trimming leading zeros into the implicit range."""
        digits = tuple(int(d) for d in digits)
        while digits and digits[0] == 0:
            digits = digits[1:]
        return cls(int(level), digits)

    @classmethod
    def _canonical(cls, level: int, digits: tuple) -> "OmegaVertex":
        """A vertex from a word that is canonical by construction, built
        without the checks of ``__post_init__``."""
        v = object.__new__(cls)
        vars(v).update(level=level, digits=digits)
        return v

    @property
    def digit_sum(self) -> int:
        return sum(self.digits)

    @property
    def last_digit(self) -> int:
        return self.digits[-1] if self.digits else 0

    def child(self, digit: int) -> "OmegaVertex":
        if digit < 0:
            raise StructureError("child digit must be nonnegative")
        return OmegaVertex(self.level + 1, self.digits + (digit,) if self.digits or digit else ())

    def sort_key(self):
        return (self.level, len(self.digits), self.digits)

    def __repr__(self):
        return f"OmegaVertex({self.level}, {self.digits})"


def format_vertex(v) -> str:
    """Stable textual key for report tables: ``level:d1,d2`` or the index."""
    if isinstance(v, OmegaVertex):
        return f"{v.level}:{','.join(str(d) for d in v.digits)}"
    return str(v)


class DirectedTree:
    """Parent/children structure in which every vertex has at most one parent."""

    root = None

    def parent(self, v):
        raise NotImplementedError

    def children(self, u, first: int = 0) -> Iterator:
        """The children of ``u`` in enumeration order, from index ``first`` >= 0 on."""
        raise NotImplementedError

    def child_count(self, u) -> Optional[int]:
        """Number of children, or None when the child set is infinite."""
        return None

    def contains(self, v) -> bool:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return False

    def vertices(self):
        raise StructureError("vertex enumeration requires a finite tree")

    def require_vertex(self, v):
        if not self.contains(v):
            raise StructureError(f"vertex {v!r} is not in this tree")


class FiniteTree(DirectedTree):
    """Eager tree built from a parent list; enumeration order = index order."""

    def __init__(self, parents: Sequence[Optional[int]]):
        parents = list(parents)
        n = len(parents)
        if n == 0:
            raise StructureError("a tree needs at least one vertex")
        roots = [i for i, p in enumerate(parents) if p is None]
        if len(roots) != 1:
            raise StructureError(f"expected exactly one root, found {len(roots)}")
        kids: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parents):
            if p is None:
                continue
            if not isinstance(p, int) or not 0 <= p < n:
                raise StructureError(f"parent index {p!r} of vertex {i} out of range")
            kids[p].append(i)
        # One sweep down from the root: a vertex it misses has an ancestor
        # chain that runs into a cycle instead of reaching the root.
        reached = [False] * n
        stack = [roots[0]]
        while stack:
            u = stack.pop()
            reached[u] = True
            stack.extend(kids[u])
        if not all(reached):
            raise StructureError(f"cycle through vertex {reached.index(False)}")
        self._parents = parents
        self._children = [tuple(k) for k in kids]
        self.root = roots[0]
        self._n = n

    def require_vertex(self, v):
        if not (isinstance(v, int) and 0 <= v < self._n):
            raise StructureError(f"vertex {v!r} is not in this tree")

    def parent(self, v):
        self.require_vertex(v)
        return self._parents[v]

    def children(self, u, first=0):
        self.require_vertex(u)
        return iter(self._children[u][first:])

    def child_count(self, u):
        self.require_vertex(u)
        return len(self._children[u])

    def contains(self, v):
        return isinstance(v, int) and 0 <= v < self._n

    @property
    def is_finite(self):
        return True

    def vertices(self):
        return list(range(self._n))

    def __len__(self):
        return self._n


class NatPath(DirectedTree):
    """Rooted path 0 -> 1 -> 2 -> ..."""

    root = 0

    def parent(self, v):
        self.require_vertex(v)
        return None if v == 0 else v - 1

    def children(self, u, first=0):
        self.require_vertex(u)
        return iter((u + 1,)[first:])

    def child_count(self, u):
        self.require_vertex(u)
        return 1

    def contains(self, v):
        return isinstance(v, int) and v >= 0


class IntPath(DirectedTree):
    """Rootless path ... -> -1 -> 0 -> 1 -> ..."""

    def parent(self, v):
        self.require_vertex(v)
        return v - 1

    def children(self, u, first=0):
        self.require_vertex(u)
        return iter((u + 1,)[first:])

    def child_count(self, u):
        self.require_vertex(u)
        return 1

    def contains(self, v):
        return isinstance(v, int)


class OmegaTree(DirectedTree):
    """Rootless tree on digit words; children append one digit each.

    The children of ``u`` are ``u.child(0), u.child(1), ...`` in digit order,
    so every vertex has countably many children and the whole tree has no
    root.
    """

    def parent(self, v):
        self.require_vertex(v)
        # a prefix of a canonical word is canonical, so no trimming is needed
        return OmegaVertex(v.level - 1, v.digits[:-1])

    def children(self, u, first=0):
        self.require_vertex(u)
        return map(u.child, itertools.count(first))

    def child_count(self, u):
        self.require_vertex(u)
        return None

    def contains(self, v):
        return isinstance(v, OmegaVertex)


class DescendantSubtree(DirectedTree):
    """Restriction of a base tree to one vertex and all its descendants."""

    def __init__(self, base: DirectedTree, apex):
        base.require_vertex(apex)
        self.base = base
        self.apex = apex
        self._members = None  # on a finite base, the vertex set, built on first use

    @property
    def root(self):
        return self.apex

    def parent(self, v):
        self.require_vertex(v)
        return None if v == self.apex else self.base.parent(v)

    def children(self, u, first=0):
        self.require_vertex(u)
        return self.base.children(u, first)

    def child_count(self, u):
        self.require_vertex(u)
        return self.base.child_count(u)

    def contains(self, v):
        if not self.base.contains(v):
            return False
        if self.base.is_finite:
            if self._members is None:
                self._members = frozenset(self.vertices())
            return v in self._members
        if isinstance(v, OmegaVertex) and isinstance(self.apex, OmegaVertex):
            # the ancestor ``depth`` levels up drops the last ``depth`` digits
            depth = v.level - self.apex.level
            return depth >= 0 and v.digits[: max(len(v.digits) - depth, 0)] == self.apex.digits
        if isinstance(v, int) and isinstance(self.apex, int):
            # Path-shaped integer families grow upward only.
            if isinstance(self.base, (NatPath, IntPath)):
                return v >= self.apex
        # On an infinite base the parent walk may never end, so it is cut off
        # after 100,000 steps.
        w = v
        for _ in range(100_000):
            if w == self.apex:
                return True
            w = self.base.parent(w)
            if w is None:
                return False
        return False

    @property
    def is_finite(self):
        return self.base.is_finite

    def vertices(self):
        if not self.base.is_finite:
            raise StructureError("vertex enumeration requires a finite tree")
        out = [self.apex]
        for u in out:  # breadth first: the loop reaches what it appends
            out.extend(self.base.children(u))
        return out


def finite_tree(parents: Sequence[Optional[int]]) -> FiniteTree:
    return FiniteTree(parents)


def nat_path() -> NatPath:
    return NatPath()


def int_path() -> IntPath:
    return IntPath()


def omega_tree() -> OmegaTree:
    return OmegaTree()


def descendant_subtree(tree: DirectedTree, apex) -> DescendantSubtree:
    return DescendantSubtree(tree, apex)


@dataclass(frozen=True)
class SampleWindow:
    """Deterministic sweep bounds plus a seeded sample of deeper vertices."""

    levels: tuple[int, int] = (-2, 2)
    digit_bound: int = 3
    depth_bound: int = 3
    deep_count: int = 6
    seed: int = 0


def _canonical_words(depth: int, bound: int):
    yield ()
    for length in range(1, depth + 1):
        for first in range(1, bound + 1):
            for rest in itertools.product(range(bound + 1), repeat=length - 1):
                yield (first,) + rest


def _deep_omega_vertices(window: SampleWindow):
    rng = random.Random(window.seed)
    out = []
    for _ in range(window.deep_count):
        level = rng.randint(window.levels[1] + 1, window.levels[1] + 6)
        length = rng.randint(window.depth_bound + 1, window.depth_bound + 3)
        digits = [rng.randint(1, window.digit_bound + 4)]
        digits += [rng.randint(0, window.digit_bound + 4) for _ in range(length - 1)]
        out.append(OmegaVertex.make(level, digits))
    return out


_MAX_WINDOW = 10**6  # vertices plus digits one sample may build; the default window counts 1,607


def _check_window_size(window: SampleWindow, levels: int, deep_count: int) -> None:
    """Refuse a window whose size passes ``_MAX_WINDOW``.  Each of ``levels`` levels counts
    ``(digit_bound + 1)**k`` words of ``k <= depth_bound`` digits at ``k + 1`` each (a vertex
    and its digits), and each deep word counts ``depth_bound + 4``.  The sum stops once past
    the bound, so a huge depth costs nothing."""
    size = deep_count * (window.depth_bound + 4)
    width = levels
    for k in range(window.depth_bound + 1):
        if size > _MAX_WINDOW or not width:
            break
        size += width * (k + 1)
        width *= window.digit_bound + 1
    if size > _MAX_WINDOW:
        raise TreeShiftError(f"sample window too large: at least {size:,} vertices and digits, above {_MAX_WINDOW:,}")


def sample_vertices(tree: DirectedTree, window: Optional[SampleWindow] = None) -> list:
    """Deterministic vertex sample for a tree family.

    Finite trees return every vertex.  The rootless digit-word tree returns
    the sweep given by the window plus a seeded batch of deeper vertices,
    sorted and duplicate-free; the rooted path returns 0..12 and the rootless
    one -6..6.
    Any other rooted tree, descendant subtrees included, returns the first
    ``digit_bound + 1`` children of each vertex, ``depth_bound`` levels
    down, breadth first.  Either way reports keep a stable order.  A window
    too large for ``_check_window_size`` raises ``TreeShiftError``.
    """
    window = window or SampleWindow()
    if tree.is_finite:
        return tree.vertices()
    if isinstance(tree, OmegaTree):
        lo, hi = window.levels
        _check_window_size(window, max(hi - lo + 1, 0), window.deep_count)
        # Sorted and duplicate-free as built; the deep batch lies on higher levels.
        words = list(_canonical_words(window.depth_bound, window.digit_bound))
        canonical = OmegaVertex._canonical
        sweep = [canonical(level, word) for level in range(lo, hi + 1) for word in words]
        return sweep + sorted(set(_deep_omega_vertices(window)), key=OmegaVertex.sort_key)
    if isinstance(tree, NatPath):
        return list(range(13))
    if isinstance(tree, IntPath):
        return list(range(-6, 7))
    # Any other rooted tree: bounded breadth-first sweep from the root.
    if tree.root is None:
        raise StructureError("cannot sample a rootless tree of unknown shape")
    _check_window_size(window, 1, 0)
    out = [tree.root]
    frontier = [tree.root]
    for _ in range(window.depth_bound):
        nxt = []
        for u in frontier:
            for v in itertools.islice(tree.children(u), window.digit_bound + 1):
                out.append(v)
                nxt.append(v)
        frontier = nxt
    return out
