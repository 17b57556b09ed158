import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift.errors import StructureError
from treeshift.trees import (
    DescendantSubtree,
    LazyTree,
    OmegaVertex,
    SampleWindow,
    descendant_subtree,
    finite_tree,
    int_path,
    nat_path,
    omega_tree,
    sample_vertices,
)


def take(stream, n):
    return list(itertools.islice(stream, n))


class TestOmegaVertex:
    def test_canonical_trims_leading_zeros(self):
        assert OmegaVertex.make(3, [0, 0, 2, 1]) == OmegaVertex(3, (2, 1))
        assert OmegaVertex.make(5, [0, 0, 0]) == OmegaVertex(5, ())

    def test_non_canonical_rejected(self):
        with pytest.raises(StructureError):
            OmegaVertex(2, (0, 1))
        with pytest.raises(StructureError):
            OmegaVertex(2, (-1,))

    def test_digit_sum_and_last(self):
        v = OmegaVertex(1, (3, 2))
        assert v.digit_sum == 5
        assert v.last_digit == 2
        assert OmegaVertex(4).digit_sum == 0
        assert OmegaVertex(4).last_digit == 0

    def test_first_support_position(self):
        # first nonzero entry sits at level - len + 1
        v = OmegaVertex(3, (7, 0, 2))
        assert v.first_support == 1
        assert OmegaVertex(3).first_support is None

    @given(
        level=st.integers(-50, 50),
        pad=st.integers(0, 5),
        digits=st.lists(st.integers(0, 30), max_size=6),
    )
    @settings(max_examples=1000, deadline=None)
    def test_encode_decode_round_trip(self, level, pad, digits):
        v = OmegaVertex.make(level, [0] * pad + digits)
        again = OmegaVertex.make(v.level, v.digits)
        assert again == v
        assert not v.digits or v.digits[0] != 0

    @given(
        level=st.integers(-50, 50),
        digits=st.lists(st.integers(0, 30), max_size=6),
        digit=st.integers(0, 30),
    )
    @settings(max_examples=500, deadline=None)
    def test_child_matches_make(self, level, digits, digit):
        v = OmegaVertex.make(level, digits)
        child = v.child(digit)
        assert child == OmegaVertex.make(level + 1, list(v.digits) + [digit])
        assert not child.digits or child.digits[0] != 0

    def test_negative_child_digit_rejected(self):
        with pytest.raises(StructureError):
            OmegaVertex(0).child(-1)


class TestOmegaTree:
    def test_parent_drops_last_entry(self):
        tree = omega_tree()
        assert tree.parent(OmegaVertex(1, (3, 2))) == OmegaVertex(0, (3,))

    def test_parent_of_all_zero_decrements_level(self):
        tree = omega_tree()
        assert tree.parent(OmegaVertex(4)) == OmegaVertex(3)
        assert tree.parent(OmegaVertex(-2)) == OmegaVertex(-3)

    def test_first_children_of_all_zero(self):
        tree = omega_tree()
        kids = take(tree.children(OmegaVertex(0)), 3)
        assert kids == [OmegaVertex(1), OmegaVertex(1, (1,)), OmegaVertex(1, (2,))]

    def test_children_append_digit_in_order(self):
        tree = omega_tree()
        u = OmegaVertex(0, (3,))
        kids = take(tree.children(u), 4)
        assert kids == [OmegaVertex(1, (3, d)) for d in range(4)]

    def test_rootless(self):
        assert omega_tree().root is None

    @given(level=st.integers(-50, 50), digits=st.lists(st.integers(0, 30), max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_parent_matches_make(self, level, digits):
        v = OmegaVertex.make(level, digits)
        assert omega_tree().parent(v) == OmegaVertex.make(v.level - 1, v.digits[:-1])

    def test_child_streams_are_independent(self):
        tree = omega_tree()
        s1 = tree.children(OmegaVertex(0))
        s2 = tree.children(OmegaVertex(0))
        assert next(s1) == next(s2)
        next(s1)
        assert next(s2) == OmegaVertex(1, (1,))


class TestFiniteTree:
    def test_small_tree(self):
        tree = finite_tree([None, 0, 0, 1])
        assert tree.root == 0
        assert list(tree.children(0)) == [1, 2]
        assert list(tree.children(1)) == [3]
        assert tree.parent(3) == 1

    @pytest.mark.parametrize("v", [-1, 4, "1", 1.0, None])
    def test_vertex_outside_rejected(self, v):
        tree = finite_tree([None, 0, 0, 1])
        assert not tree.contains(v)
        with pytest.raises(StructureError, match="is not in this tree"):
            tree.parent(v)

    def test_every_index_is_a_vertex(self):
        tree = finite_tree([None, 0, 0, 1])
        for v in range(4):
            assert tree.contains(v)
            tree.require_vertex(v)

    def test_single_vertex(self):
        tree = finite_tree([None])
        assert list(tree.children(0)) == []
        assert tree.parent(0) is None

    def test_path_truncation(self):
        n = 6
        tree = finite_tree([None] + list(range(n - 1)))
        for i in range(n - 1):
            assert list(tree.children(i)) == [i + 1]

    @pytest.mark.parametrize(
        "parents", [[None, None], [0], [None, 2, 1], [None, 5]]
    )
    def test_structural_errors(self, parents):
        with pytest.raises(StructureError):
            finite_tree(parents)

    @pytest.mark.parametrize(
        "parents, vertex",
        [([None, 2, 1], 1), ([None, 3, 0, 4, 3], 1), ([2, 0, None, 4, 3, 3], 3)],
    )
    def test_cycle_names_smallest_vertex_off_the_root(self, parents, vertex):
        # the smallest vertex the root cannot reach, on the cycle or hanging off it
        with pytest.raises(StructureError, match=rf"^cycle through vertex {vertex}$"):
            finite_tree(parents)


class TestPaths:
    def test_nat_path_children(self):
        assert list(nat_path().children(5)) == [6]

    def test_nat_path_root(self):
        tree = nat_path()
        assert tree.root == 0
        assert tree.parent(0) is None
        assert tree.parent(3) == 2

    def test_int_path_parent_of_zero(self):
        assert int_path().parent(0) == -1


class TestDescendantSubtree:
    def test_root_is_apex(self):
        apex = OmegaVertex(0)
        sub = descendant_subtree(omega_tree(), apex)
        assert sub.root == apex
        assert sub.parent(apex) is None

    def test_children_delegate(self):
        apex = OmegaVertex(0, (2,))
        sub = descendant_subtree(omega_tree(), apex)
        assert take(sub.children(apex), 2) == [OmegaVertex(1, (2, 0)), OmegaVertex(1, (2, 1))]

    def test_every_sampled_vertex_has_apex_ancestor(self):
        apex = OmegaVertex(1, (3,))
        base = omega_tree()
        sub = descendant_subtree(base, apex)
        for v in sample_vertices(sub, SampleWindow(depth_bound=2, digit_bound=2)):
            w = v
            while w != apex:
                w = base.parent(w)
                assert w.level >= apex.level
            assert w == apex

    def test_membership(self):
        apex = OmegaVertex(0, (1,))
        sub = descendant_subtree(omega_tree(), apex)
        assert sub.contains(apex.child(4))
        assert not sub.contains(OmegaVertex(1, (2, 0)))
        assert not sub.contains(OmegaVertex(-1))

    @given(
        apex_level=st.integers(-20, 20),
        apex_digits=st.lists(st.integers(0, 4), max_size=4),
        descend=st.booleans(),
        level=st.integers(-25, 25),
        digits=st.lists(st.integers(0, 4), max_size=8),
    )
    @settings(max_examples=500, deadline=None)
    def test_membership_matches_parent_walk(self, apex_level, apex_digits, descend, level, digits):
        # apex_digits may be all zero, giving the all-zero apex ``()``
        apex = OmegaVertex.make(apex_level, apex_digits)
        if descend:
            v = apex
            for d in digits:
                v = v.child(d)
        else:
            v = OmegaVertex.make(level, digits)
        w, depth = v, v.level - apex.level
        for _ in range(max(depth, 0)):
            w = OmegaVertex.make(w.level - 1, w.digits[:-1])
        expected = depth >= 0 and w == apex
        assert descendant_subtree(omega_tree(), apex).contains(v) == expected

    def test_unknown_apex_rejected(self):
        with pytest.raises(StructureError):
            descendant_subtree(finite_tree([None, 0]), 7)

    def test_finite_subtree_vertices(self):
        tree = finite_tree([None, 0, 0, 1, 1])
        sub = descendant_subtree(tree, 1)
        assert sorted(sub.vertices()) == [1, 3, 4]


class TestMembershipInvariant:
    """Every sampled vertex with a parent is found among its parent's children."""

    def test_omega_family(self):
        tree = omega_tree()
        for v in sample_vertices(tree, SampleWindow(deep_count=4, seed=7)):
            parent = tree.parent(v)
            cover = v.last_digit + 1
            assert v in take(tree.children(parent), cover)

    def test_finite_and_paths(self):
        cases = [
            (finite_tree([None, 0, 0, 2, 2]), [1, 2, 3, 4]),
            (nat_path(), [1, 2, 9]),
            (int_path(), [-3, 0, 5]),
        ]
        for tree, vs in cases:
            for v in vs:
                assert v in take(tree.children(tree.parent(v)), 3)


def _lazy_binary_tree():
    return LazyTree(
        root=1,
        parent_fn=lambda v: None if v == 1 else v // 2,
        children_fn=lambda u: [2 * u, 2 * u + 1],
        child_count_fn=lambda u: 2,
        contains_fn=lambda v: isinstance(v, int) and v >= 1,
    )


class TestChildrenFrom:
    # (tree, vertices) for every tree class; children(u, first) must equal
    # the stream from index 0 with the first ``first`` children dropped.
    CASES = [
        (finite_tree([None, 0, 0, 1, 0]), [0, 1, 2]),
        (nat_path(), [0, 7]),
        (int_path(), [-3, 0, 4]),
        (omega_tree(), [OmegaVertex(0), OmegaVertex(2, (1, 0, 3))]),
        (descendant_subtree(omega_tree(), OmegaVertex(0, (2,))), [OmegaVertex(1, (2, 5))]),
        (descendant_subtree(finite_tree([None, 0, 0, 1, 1]), 1), [1, 3]),
        (_lazy_binary_tree(), [1, 6]),
    ]

    @pytest.mark.parametrize(
        "tree, vertices",
        CASES,
        ids=["finite", "nat-path", "int-path", "omega", "omega-descendant", "finite-descendant", "lazy"],
    )
    @pytest.mark.parametrize("first", [0, 1, 2, 5])
    def test_matches_dropping_the_first_children(self, tree, vertices, first):
        for u in vertices:
            expected = take(itertools.islice(tree.children(u), first, None), 8)
            assert take(tree.children(u, first), 8) == expected


class TestSampling:
    def test_deterministic(self):
        tree = omega_tree()
        window = SampleWindow(seed=11)
        assert sample_vertices(tree, window) == sample_vertices(tree, window)

    def test_finite_tree_returns_all(self):
        tree = finite_tree([None, 0, 1])
        assert sample_vertices(tree) == [0, 1, 2]

    @staticmethod
    def digit_word_grid(apex, window):
        """The apex and each word of 1 to ``depth_bound`` digits, each at most
        ``digit_bound``, appended to it; sorted by level, length and digits."""
        out = {apex}
        for length in range(1, window.depth_bound + 1):
            for word in itertools.product(range(window.digit_bound + 1), repeat=length):
                v = apex
                for d in word:
                    v = v.child(d)
                out.add(v)
        return sorted(out, key=OmegaVertex.sort_key)

    @pytest.mark.parametrize("level", range(-3, 4))
    def test_descendant_sweep_is_the_sorted_digit_word_grid(self, level):
        # the breadth-first sweep lists the grid in exactly this order
        for digits in [(), (1,), (2,), (1, 0), (3, 1), (1, 0, 2), (2, 2, 2)]:
            apex = OmegaVertex(level, digits)
            sub = descendant_subtree(omega_tree(), apex)
            for depth, bound in itertools.product(range(5), repeat=2):
                window = SampleWindow(depth_bound=depth, digit_bound=bound)
                assert sample_vertices(sub, window) == self.digit_word_grid(apex, window)

    def test_path_samples(self):
        assert sample_vertices(nat_path()) == list(range(13))
        assert sample_vertices(int_path()) == list(range(-6, 7))

    def test_descendant_of_a_path_is_swept_from_its_apex(self):
        assert sample_vertices(descendant_subtree(nat_path(), 3)) == [3, 4, 5, 6]
        window = SampleWindow(depth_bound=2)
        assert sample_vertices(descendant_subtree(int_path(), -2), window) == [-2, -1, 0]

    def test_omega_window_bounds(self):
        vs = sample_vertices(omega_tree(), SampleWindow(levels=(0, 1), depth_bound=2, digit_bound=2, deep_count=0))
        assert all(0 <= v.level <= 1 for v in vs)
        assert all(len(v.digits) <= 2 and all(d <= 2 for d in v.digits) for v in vs)
        assert OmegaVertex(0) in vs and OmegaVertex(1, (2, 1)) in vs
