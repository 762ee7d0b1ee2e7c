"""Cobweb poset shape examples and the poset axioms by exhaustion."""

from __future__ import annotations

import pytest

from cobweb.poset import CobwebPoset, GuardError, Vertex, _node_ids, build_cobweb

import naive


def reachable_by_covers(P: CobwebPoset, x: Vertex) -> set[Vertex]:
    """Independent closure oracle: BFS strictly upward along cover edges."""
    seen: set[Vertex] = set()
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for w in P.covers_above(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


class TestConstruction:
    def test_single_level(self):
        P = build_cobweb(1)
        assert P.vertex_count == 1
        assert P.vertices() == (Vertex(1, 0),)
        assert P.covers_above(Vertex(1, 0)) == ()

    def test_depth_five_matches_figure(self):
        P = build_cobweb(5)
        assert P.level_sizes == (1, 1, 2, 3, 5)
        assert P.vertex_count == 12

    def test_depth_six_count(self):
        assert build_cobweb(6).vertex_count == 20

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            build_cobweb(0)
        with pytest.raises(ValueError):
            build_cobweb(-2)

    def test_level_sizes_are_fibonacci(self):
        for depth in range(1, 101):
            P = build_cobweb(depth)
            assert P.level_sizes == tuple(naive.level_sizes(depth))
            # closed-form total as a cross-check
            assert P.vertex_count == naive.fib(depth + 2) - 1

    def test_equality_is_by_depth(self):
        assert build_cobweb(4) == build_cobweb(4)
        assert build_cobweb(4) != build_cobweb(5)


class TestCanonicalOrder:
    def test_depth_three_vertices(self):
        assert build_cobweb(3).vertices() == (
            Vertex(1, 0),
            Vertex(2, 0),
            Vertex(3, 0),
            Vertex(3, 1),
        )

    def test_order_is_level_major(self):
        verts = build_cobweb(6).vertices()
        assert list(verts) == sorted(verts)
        assert len(verts) == 20

    def test_level_vertices_ascending(self):
        P = build_cobweb(5)
        assert P.level_vertices(4) == (Vertex(4, 0), Vertex(4, 1), Vertex(4, 2))

    def test_level_vertices_are_vertex_records(self):
        P = build_cobweb(12)
        for level in range(1, 13):
            got = P.level_vertices(level)
            assert type(got) is tuple and len(got) == naive.fib(level)
            for i, v in enumerate(got):
                assert type(v) is Vertex
                assert v == Vertex(level, i) and (v.level, v.index) == (level, i)
                assert repr(v) == f"Vertex(level={level}, index={i})" and v.node_id() == f"v{level}_{i}"
            if level > 1:
                # Every vertex of the level below is handed one shared object.
                handed = [P.covers_above(v) for v in P.level_vertices(level - 1)]
                assert all(h is handed[0] for h in handed) and tuple(handed[0]) == got
                assert P.level(level) is handed[0]


class TestNodeIds:
    """`_node_ids` writes a range of one level's ids, each as `Vertex.node_id` writes it."""

    INDICES = 12_346  # indices 0..12,345: one to five digits
    SLICES = [(0, 1), (0, 10), (9, 11), (10, 100), (99, 101), (999, 1001), (9999, 10001), (12_345, 12_346)]

    @pytest.mark.parametrize("level", [1, 9, 10, 100])
    def test_equals_node_id_across_digit_widths(self, level):
        ids = [Vertex(level, i).node_id() for i in range(self.INDICES)]
        for sep in (" ", "\n", "; ", ";\n  v1_0 -> "):
            assert _node_ids(level, 0, self.INDICES, sep) == sep.join(ids)
        for lo, hi in self.SLICES:
            assert _node_ids(level, lo, hi, " ") == " ".join(ids[lo:hi])

    def test_empty_range_is_empty(self):
        assert _node_ids(4, 2, 2, " ") == _node_ids(4, 3, 1, " ") == ""


class TestRelations:
    def test_leq_examples(self):
        P = build_cobweb(5)
        assert P.leq(Vertex(1, 0), Vertex(1, 0))
        assert P.leq(Vertex(2, 0), Vertex(5, 4))
        assert not P.leq(Vertex(3, 0), Vertex(3, 1))

    def test_cover_examples(self):
        P = build_cobweb(5)
        assert Vertex(2, 0) in P.covers_above(Vertex(1, 0))
        assert Vertex(3, 1) not in P.covers_above(Vertex(1, 0))
        assert Vertex(5, 0) in P.covers_above(Vertex(4, 2))

    def test_invalid_vertices_rejected(self):
        P = build_cobweb(5)
        with pytest.raises(ValueError):
            P.leq(Vertex(3, 2), Vertex(4, 0))  # level 3 has only 2 vertices
        with pytest.raises(ValueError):
            P.leq(Vertex(1, 0), Vertex(6, 0))  # level above depth
        with pytest.raises(ValueError):
            P.covers_above(Vertex(0, 0))
        with pytest.raises(ValueError):
            P.covers_above(Vertex(2, 1))
        with pytest.raises(ValueError):
            P.level_vertices(0)

    @pytest.mark.parametrize("call, message", [
        (lambda P: P.check_vertex(Vertex(0, 0)), "level must be in 1..5, got 0"),
        (lambda P: P.check_vertex(Vertex(6, 0)), "level must be in 1..5, got 6"),
        (lambda P: P.check_vertex(Vertex(3, 2)), "vertex Vertex(level=3, index=2) invalid: level 3 has 2 vertices"),
        (lambda P: P.check_vertex(Vertex(4, -1)), "vertex Vertex(level=4, index=-1) invalid: level 4 has 3 vertices"),
        (lambda P: P.covers_above(Vertex(2, 1)), "vertex Vertex(level=2, index=1) invalid: level 2 has 1 vertices"),
        (lambda P: P.covers_above(Vertex(-1, 0)), "level must be in 1..5, got -1"),
        (lambda P: P.leq(Vertex(1, 0), Vertex(5, 5)), "vertex Vertex(level=5, index=5) invalid: level 5 has 5 vertices"),
        (lambda P: P.level_vertices(0), "level must be in 1..5, got 0"),
        (lambda P: P.level_vertices(6), "level must be in 1..5, got 6"),
        (lambda P: P.level(0), "level must be in 1..5, got 0"),
    ])
    def test_error_messages(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(build_cobweb(5))
        assert str(exc.value) == message

    def test_covers_are_whole_next_level(self):
        P = build_cobweb(5)
        assert tuple(P.covers_above(Vertex(3, 1))) == P.level_vertices(4)
        assert P.covers_above(Vertex(5, 4)) == ()


class TestAxiomsByExhaustion:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_reflexive_antisymmetric_transitive(self, depth):
        P = build_cobweb(depth)
        verts = P.vertices()
        for x in verts:
            assert P.leq(x, x)
        for x in verts:
            for y in verts:
                if P.leq(x, y) and P.leq(y, x):
                    assert x == y
        for x in verts:
            for y in verts:
                if not P.leq(x, y):
                    continue
                for z in verts:
                    if P.leq(y, z):
                        assert P.leq(x, z)

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_graded(self, depth):
        P = build_cobweb(depth)
        verts = P.vertices()
        for x in verts:
            for y in verts:
                if P.leq(x, y) and x != y:
                    assert x.level < y.level

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_leq_is_cover_reachability(self, depth):
        P = build_cobweb(depth)
        verts = P.vertices()
        for x in verts:
            above = reachable_by_covers(P, x)
            for y in verts:
                assert P.leq(x, y) == (x == y or y in above)


class TestGuardError:
    def test_numbers_of_up_to_4300_digits_print_exactly(self):
        # str() of the 4300-digit number works under the default limit; the
        # expected text is built from digits, not by converting it.
        err = GuardError(10**4300 - 1, 7)
        assert (err.predicted, err.limit) == (10**4300 - 1, 7)
        assert str(err) == f"predicted cost {'9' * 4300} exceeds the limit of 7"

    def test_numbers_past_a_lowered_digit_limit_are_named_by_bit_length(self, digit_limit_640):
        err = GuardError(10**640 - 1, 10**640)
        assert str(err) == f"predicted cost {'9' * 640} exceeds the limit of (a {(10**640).bit_length()}-bit number)"

    def test_longer_numbers_are_named_by_bit_length(self):
        assert (10**4300).bit_length() == 14285
        assert str(GuardError(10**4300, 10**9000)) == (
            f"predicted cost (a 14285-bit number) exceeds the limit of (a {(10**9000).bit_length()}-bit number)"
        )
