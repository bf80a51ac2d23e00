"""Reflexive graphs, box products, pullbacks, and bounded homotopies."""

import pytest
from hypothesis import given, settings, strategies as hst

from cubigraph import graphs as gr


def test_interval_and_cycle_shapes():
    I3 = gr.interval(3)
    assert len(I3.vertices) == 4
    assert I3.adjacent(0, 1) and not I3.adjacent(0, 2)
    assert I3.adjacent(2, 2)  # reflexive
    C5 = gr.cycle(5)
    assert len(C5.vertices) == 5
    assert C5.adjacent(0, 4) and not C5.adjacent(0, 2)


def test_graph_map_validation():
    C4 = gr.cycle(4)
    I1 = gr.interval(1)
    fold = gr.GraphMap(C4, I1, {0: 0, 1: 1, 2: 0, 3: 1})
    assert fold.is_valid()
    zigzag = gr.GraphMap(gr.interval(2), I1, {0: 0, 1: 1, 2: 0})
    assert zigzag.is_valid()  # 2 -> 0 still maps the edge 1~2 to 1~0
    # mapping an edge to a non-edge fails
    assert not gr.GraphMap(
        gr.interval(1), gr.Graph([0, 1], []), {0: 0, 1: 1}
    ).is_valid()


def test_box_product_adjacency():
    I1 = gr.interval(1)
    P = gr.box_product(I1, I1)
    assert len(P.vertices) == 4
    # box product: change one coordinate along an edge, keep the other
    assert not P.adjacent((0, 0), (1, 1))
    assert P.adjacent((0, 0), (0, 1))
    assert P.adjacent((0, 0), (1, 0))
    for u in P.vertices:
        for v in P.vertices:
            expect = (u[0] == v[0] and I1.adjacent(u[1], v[1])) or (
                u[1] == v[1] and I1.adjacent(u[0], v[0])
            )
            assert P.adjacent(u, v) == expect


def test_box_product_symmetric_and_associative_up_to_iso():
    A, B, C = gr.interval(1), gr.cycle(3), gr.interval(2)
    AB = gr.box_product(A, B)
    BA = gr.box_product(B, A)
    assert sorted(
        len(AB.neighbors(v)) for v in AB.vertices
    ) == sorted(len(BA.neighbors(v)) for v in BA.vertices)
    lhs = gr.box_product(gr.box_product(A, B), C)
    rhs = gr.box_product(A, gr.box_product(B, C))
    assert len(lhs.vertices) == len(rhs.vertices)
    assert len(lhs.edges()) == len(rhs.edges())


def test_pi0_counts_components():
    C5 = gr.cycle(5)
    assert len(gr.pi0(C5)) == 1
    two = gr.Graph([0, 1, 2, 3], [(0, 1), (2, 3)])
    comps = gr.pi0(two)
    assert len(comps) == 2
    assert frozenset({0, 1}) in comps and frozenset({2, 3}) in comps


def test_pullback_of_constant_maps_is_product():
    I1 = gr.interval(1)
    C3 = gr.cycle(3)
    f = gr.constant_map(I1, gr.interval(0), 0)
    g = gr.constant_map(C3, gr.interval(0), 0)
    P, p1, p2 = gr.pullback(f, g)
    assert len(P.vertices) == len(I1.vertices) * len(C3.vertices)
    assert p1.is_valid() and p2.is_valid()
    # adjacency is componentwise in both factors
    for u in P.vertices:
        for v in P.vertices:
            assert P.adjacent(u, v) == (
                I1.adjacent(u[0], v[0]) and C3.adjacent(u[1], v[1])
            )


def test_pullback_universal_property_on_vertices():
    I2 = gr.interval(2)
    I1 = gr.interval(1)
    f = gr.GraphMap(I2, I1, {0: 0, 1: 1, 2: 1})
    g = gr.GraphMap(I1, I1, {0: 0, 1: 1})
    P, p1, p2 = gr.pullback(f, g)
    assert f.compose(p1).assignment == g.compose(p2).assignment
    # every compatible pair of vertices appears exactly once
    pairs = {(p1(v), p2(v)) for v in P.vertices}
    expected = {
        (x, y) for x in I2.vertices for y in I1.vertices if f(x) == g(y)
    }
    assert pairs == expected and len(P.vertices) == len(expected)


def test_all_graph_maps_count():
    I1 = gr.interval(1)
    # every vertex function I1 -> I1 is a graph map
    assert len(gr.all_graph_maps(I1, I1)) == 4
    C5 = gr.cycle(5)
    # no retraction onto a 5-cycle from an interval-like count check:
    maps_to_edge = gr.all_graph_maps(C5, I1)
    for m in maps_to_edge:
        assert m.is_valid()


def test_one_step_homotopy_lemma():
    # two layers form a homotopy step iff pointwise adjacent and each a
    # graph map; cross-check against the interleaved cylinder map
    C4 = gr.cycle(4)
    I1 = gr.interval(1)
    maps = gr.all_graph_maps(C4, I1)
    for h1 in maps[:6]:
        for h2 in maps[:6]:
            direct = gr.is_homotopy_step(h1, h2)
            cmap, _ = gr.interleaved_cylinder_map(h1, h2)
            assert direct == cmap.is_valid()


def test_a_homotopy_search_reflexive_and_symmetric():
    C4 = gr.cycle(4)
    I1 = gr.interval(1)
    maps = gr.all_graph_maps(C4, I1)
    f, g = maps[0], maps[1]
    assert "steps" in gr.a_homotopy_search(f, f, max_len=2)
    fg = gr.a_homotopy_search(f, g, max_len=6)
    gf = gr.a_homotopy_search(g, f, max_len=6)
    assert ("steps" in fg) == ("steps" in gf)
    if "steps" in fg:
        steps = fg["steps"]
        assert steps[0] == f and steps[-1] == g
        for a, b in zip(steps, steps[1:]):
            assert gr.is_homotopy_step(a, b)


def test_rotation_homotopic_but_constant_not_on_long_cycle():
    C6 = gr.cycle(6)
    ident = gr.graph_identity(C6)
    rot = gr.GraphMap(C6, C6, {v: (v + 3) % 6 for v in C6.vertices})
    assert "steps" in gr.a_homotopy_search(ident, rot, max_len=4)
    const = gr.constant_map(C6, C6, 0)
    res = gr.a_homotopy_search(ident, const, max_len=10)
    assert "none_found" in res and res["exhausted"]
    # the short cycles, by contrast, contract
    for n in (3, 4):
        Cn = gr.cycle(n)
        res = gr.a_homotopy_search(
            gr.graph_identity(Cn), gr.constant_map(Cn, Cn, 0), max_len=6
        )
        assert "steps" in res


def test_a_homotopy_search_miss_at_the_length_cap():
    # the half turn of C6 is three one-step moves from the identity
    C6 = gr.cycle(6)
    ident = gr.graph_identity(C6)
    rot = gr.GraphMap(C6, C6, {v: (v + 3) % 6 for v in C6.vertices})
    assert gr.a_homotopy_search(ident, rot, max_len=2) == {
        "none_found": True, "exhausted": False}
    res = gr.a_homotopy_search(ident, rot, max_len=3)
    assert res["length"] == 3 and res["steps"][-1] == rot


# a directed graph whose successor lists fix the search order
_STEP = {0: [2, 1], 1: [3, 0], 2: [3], 3: [4], 4: [], 5: [0]}


def test_bfs_order_parents_depths_and_depth_cap():
    expanded = []

    def step(a):
        expanded.append(a)
        return _STEP[a]

    assert list(gr._bfs(0, step)) == [
        (0, None, 0), (2, 0, 1), (1, 0, 1), (3, 2, 2), (4, 3, 3)]
    assert expanded == [0, 2, 1, 3, 4]
    expanded.clear()
    assert list(gr._bfs(0, step, max_depth=2)) == [
        (0, None, 0), (2, 0, 1), (1, 0, 1), (3, 2, 2)]
    assert expanded == [0, 2, 1]
    expanded.clear()
    assert list(gr._bfs(0, step, max_depth=0)) == [(0, None, 0)]
    assert expanded == []


def test_shortest_path_exhausted_flag():
    step = _STEP.__getitem__
    assert gr._shortest_path(0, 4, step, 3)[0] == [0, 2, 3, 4]
    assert gr._shortest_path(0, 0, step, 0)[0] == [0]
    # a node at the cap, even one with no successors, leaves the miss
    # inconclusive
    assert gr._shortest_path(0, 5, step, 2) == (None, False)
    assert gr._shortest_path(0, 5, step, 3) == (None, False)
    assert gr._shortest_path(0, 5, step, 4) == (None, True)
    assert gr._shortest_path(0, 5, step, None) == (None, True)
    assert gr._shortest_path(0, 4, step, 2) == (None, False)


def test_graph_json_round_trip():
    C5 = gr.cycle(5)
    J = gr.Graph.from_json(C5.to_json())
    assert set(J.vertices) == set(C5.vertices)
    assert J.edges() == C5.edges()
    f = gr.constant_map(C5, gr.interval(1), 0)
    g = gr.GraphMap.from_json(f.to_json())
    assert g.is_valid() and g.assignment == f.assignment


@settings(max_examples=30, deadline=None)
@given(hst.integers(min_value=3, max_value=8), hst.integers(min_value=1, max_value=5))
def test_box_product_vertex_and_edge_counts(n, m):
    C = gr.cycle(n)
    I = gr.interval(m)
    P = gr.box_product(C, I)
    assert len(P.vertices) == n * (m + 1)
    # closed neighborhoods: |N(x,y)| = |N(x)| + |N(y)| - 1
    for v in P.vertices:
        assert len(P.neighbors(v)) == len(C.neighbors(v[0])) + len(
            I.neighbors(v[1])
        ) - 1
