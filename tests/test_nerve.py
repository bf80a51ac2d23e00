"""Stable cubes, nerve fragments, and bounded open-box lifting."""

import itertools
import math
import random

import pytest

from cubigraph import graphs as gr
from cubigraph import nerve as nv
from cubigraph import presheaf as ps


def _brute_force_cubes(X, k, M_max):
    """Oracle: trimmed stable k-cubes enumerated by raw product search."""
    found = set()
    for M in range(M_max + 1):
        grid = nv._grid(M, k)
        for combo in itertools.product(X.vertices, repeat=len(grid)):
            table = dict(zip(grid, combo))
            ok = True
            for t in grid:
                for axis in range(k):
                    if t[axis] < M:
                        s = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
                        if not X.adjacent(table[t], table[s]):
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                continue
            c = nv.make_cube(k, M, lambda t: table[t])
            if c.support <= M_max:
                found.add(c)
    return found


def test_make_cube_trims_constant_padding():
    I1 = gr.interval(1)
    c = nv.make_cube(1, 2, lambda t: 0 if t[0] < 1 else 1)
    # values stabilize outside [-0..1]; trimming keeps support minimal
    assert c.support == 1
    assert nv.is_cube_of(c, I1)
    assert c.value((-5,)) == 0 and c.value((5,)) == 1


def test_constant_cube():
    c = nv.constant_cube(3, 7)
    assert c.support == 0 and c.value((9, -9, 0)) == 7


def test_enumerate_cubes_matches_brute_force():
    for X in (gr.interval(1), gr.cycle(3)):
        for k, M in [(0, 2), (1, 1), (2, 1)]:
            fast = set(nv.enumerate_cubes(X, k, M))
            slow = _brute_force_cubes(X, k, M)
            assert fast == slow


def test_enumerate_vertex_and_edge_cubes_of_interval():
    I1 = gr.interval(1)
    assert len(nv.enumerate_cubes(I1, 0, 2)) == 2
    # 1-cubes with support <= 1: walks of length 2 in I1, trimmed
    cubes = nv.enumerate_cubes(I1, 1, 1)
    walks = [c for c in cubes if c.support == 1]
    assert len(cubes) == 2 + len(walks)
    for c in cubes:
        assert nv.is_cube_of(c, I1)


def test_operators_land_in_the_graph():
    C3 = gr.cycle(3)
    for c in nv.enumerate_cubes(C3, 2, 1):
        for key in [("face", 1, 0), ("face", 2, 1)]:
            assert nv.is_cube_of(nv._apply_generator(c, key), C3)
        for key in [("deg", 1), ("conn", 1, 0), ("conn", 2, 1)]:
            assert nv.is_cube_of(nv._apply_generator(c, key), C3)


def test_nerve_operator_respects_composition():
    from cubigraph import site as st

    C3 = gr.cycle(3)
    cubes = nv.enumerate_cubes(C3, 2, 1)
    for c in cubes[:10]:
        for m in st.all_cube_morphisms(1, 2):
            res = nv.nerve_operator(c, m)
            # pointwise: acting then evaluating equals evaluating the
            # composite grid point (cube morphisms extend to grids by
            # min/max/constants over the clamped cube)
            assert nv.is_cube_of(res, C3)
    # face then degeneracy is the identity on every cube
    for c in cubes[:10]:
        d = nv._apply_generator(c, ("deg", 1))
        back = nv._apply_generator(d, ("face", 1, 0))
        assert back == c


def test_nerve_fragment_is_valid_presheaf():
    I1 = gr.interval(1)
    N = nv.nerve_fragment(I1, 2, 1)
    N.validate()
    assert len(N.cells[0]) == 2


def test_nerve_map_functorial():
    I1 = gr.interval(1)
    C3 = gr.cycle(3)
    f = gr.GraphMap(I1, C3, {0: 0, 1: 1})
    NI = nv.nerve_fragment(I1, 2, 1)
    NC = nv.nerve_fragment(C3, 2, 1)
    Nf = nv.nerve_map(f, NI, NC)
    assert Nf.is_valid()
    ident = nv.nerve_map(gr.graph_identity(C3), NC, NC)
    assert ident.compose(Nf) == Nf


def test_nerve_preserves_products():
    # the nerve fragment of a categorical product agrees with the pullback
    # (over the point) of the nerve fragments
    I1 = gr.interval(1)
    P, p1, p2 = gr.graph_product(I1, I1)
    NP = nv.nerve_fragment(P, 1, 1)
    NX = nv.nerve_fragment(I1, 1, 1)
    # cells of NP biject with compatible pairs of cells of NX
    for k in NP.dims():
        pairs = set()
        for c in NP.cells[k]:
            a = nv.make_cube(k, c.support, lambda t: c.value(t)[0])
            b = nv.make_cube(k, c.support, lambda t: c.value(t)[1])
            pairs.add((a, b))
        assert len(pairs) == len(NP.cells[k])
        assert pairs == {
            (a, b)
            for a in NX.cells[k]
            for b in NX.cells[k]
        } & pairs  # pairs land in the expected product
        assert len(pairs) == len(NX.cells[k]) ** 2


def test_constant_map_is_fibration():
    C4 = gr.cycle(4)
    f = gr.constant_map(C4, gr.interval(0), 0)
    rep = nv.is_graph_n_fibration_bounded(f, 1, M_max=1, budget=10**7)
    assert rep.verdict == "yes_on_tested_range"


def test_identity_is_fibration():
    C3 = gr.cycle(3)
    rep = nv.is_graph_n_fibration_bounded(
        gr.graph_identity(C3), 1, M_max=1, budget=10**7
    )
    assert rep.verdict == "yes_on_tested_range"


def test_end_inclusion_is_not_fibration():
    I1 = gr.interval(1)
    pt = gr.interval(0)
    f = gr.GraphMap(pt, I1, {0: 0})
    rep = nv.is_graph_n_fibration_bounded(f, 1, M_max=1, budget=10**7)
    assert rep.verdict == "counterexample"


def test_budget_exhaustion_reports_inconclusive():
    C4 = gr.cycle(4)
    f = gr.constant_map(C4, gr.interval(0), 0)
    rep = nv.is_graph_n_fibration_bounded(f, 1, M_max=1, budget=5)
    assert rep.verdict == "inconclusive"
    # where the budget runs out pins how the search spends it
    rep = nv.is_graph_n_fibration_bounded(f, 1, M_max=1, budget=5000)
    assert rep.verdict == "inconclusive"
    assert rep.detail["tested"] == 8


def test_search_order_is_pinned():
    """The first counterexample and the number of problems tested move
    with any change to the search order, the random draws or where the
    budget is spent."""
    C3, C6 = gr.cycle(3), gr.cycle(6)
    cover = gr.GraphMap(C6, C3, {v: v % 3 for v in C6.vertices})
    rep = nv.is_graph_n_fibration_bounded(
        cover, 1, M_max=1, slack=2, budget=10**7, seed=0, samples=25,
        sample_dim_from=2)
    assert rep.verdict == "counterexample"
    assert rep.detail["member"] == ("box_into_cell", 2, 1, 0)
    assert rep.detail["tested"] == 110
    assert rep.detail["u"] == {
        (-1, -1): 4, (-1, 1): 2, (0, -1): 5, (0, 1): 1, (1, -1): 4,
        (1, 0): 3, (1, 1): 2,
    }
    assert rep.detail["w"] == {
        (-1, -1): 1, (-1, 0): 0, (-1, 1): 2, (0, -1): 2, (0, 0): 0,
        (0, 1): 1, (1, -1): 1, (1, 0): 0, (1, 1): 2,
    }
    rep = nv.is_graph_n_fibration_bounded(
        gr.graph_identity(gr.interval(1)), 1, M_max=1, slack=2,
        budget=10**7, seed=0, samples=25, sample_dim_from=3)
    assert rep.verdict == "yes_on_tested_range"
    assert rep.detail["tested"] == 2214
    # values with the most freedom first, ties in repr order
    sols = nv._labelings(gr.cycle(4), nv._grid(1, 2), {}, limit=3)
    assert [tuple(s.values()) for s in sols] == [
        (0,) * 9, (0,) * 8 + (1,), (0,) * 8 + (3,)]


def test_distance_pruning_decides_before_search():
    # no labeling, and none of the budget spent: an empty domain a decided
    # point reaches, and two decided points farther apart in the graph
    # than in the grid
    I2 = gr.interval(2)
    points = nv._grid(1, 1)
    assert nv._labelings(I2, points, {(-1,): 0}, allowed={(1,): set()},
                         budget=nv.Budget(0)) == []
    assert nv._labelings(I2, points, {(-1,): 0, (0,): 2},
                         budget=nv.Budget(0)) == []


def test_stable_cube_json_round_trip():
    C3 = gr.cycle(3)
    for c in nv.enumerate_cubes(C3, 2, 1)[:12]:
        assert nv.StableCube.from_json(c.to_json()) == c


def test_cycle_filler_agrees_with_exhaustive_search():
    import random

    C5 = gr.cycle(5)
    f = gr.constant_map(C5, gr.interval(0), 0)
    rng = random.Random(1)
    order = nv._cycle_order(C5)
    assert order is not None and len(order) == 5
    budget = nv.Budget(10**7)
    checked = 0
    for u, w in nv._member_problems(f, 2, 1, 0, 1, False, None, 0, budget):
        if checked >= 12:
            break
        Ms = 2
        region = nv._box_region(2, 1, 0, Ms)
        frozen = {t: u[nv._clamp(t, 1)] for t in region}
        points = nv._grid(Ms, 2)
        verdict, table = nv._cycle_filler(order, points, frozen)
        sols = nv._labelings(C5, points, frozen, budget=nv.Budget(10**7),
                             limit=1)
        assert (verdict == "labeling") == bool(sols)
        if table is not None:
            for t in region:
                assert table[t] == frozen[t]
            for t in points:
                for axis in range(2):
                    s = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
                    if s in table:
                        assert C5.adjacent(table[t], table[s])
        checked += 1
    assert checked


def test_cycle_order_detection():
    assert nv._cycle_order(gr.cycle(5)) is not None
    assert nv._cycle_order(gr.interval(3)) is None
    assert nv._cycle_order(gr.box_product(gr.interval(1), gr.interval(1)))


def _oracle_labelings(X, points, frozen, allowed):
    """Oracle: every labeling of the point set, by raw product search."""
    points = sorted(points)
    index = {t: j for j, t in enumerate(points)}
    edges = []
    for t in points:
        for axis in range(len(t)):
            s = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
            if s in index:
                edges.append((index[t], index[s]))
    domains = [
        [frozen[t]] if t in frozen
        else sorted(allowed[t], key=repr) if t in allowed
        else list(X.vertices)
        for t in points
    ]
    return {
        combo
        for combo in itertools.product(*domains)
        if all(X.adjacent(combo[a], combo[b]) for a, b in edges)
    }


def _small_graphs(rng):
    I1 = gr.interval(1)
    out = [gr.interval(0), I1, gr.interval(2), gr.cycle(3), gr.cycle(4),
           gr.cycle(5), gr.box_product(I1, I1)]
    for _ in range(4):
        n = rng.randint(2, 5)
        pairs = list(itertools.combinations(range(n), 2))
        # some of these are disconnected
        out.append(gr.Graph(range(n), rng.sample(pairs, rng.randint(0, n))))
    return out


def _small_point_sets():
    out = []
    for M in (0, 1):
        for k in (0, 1, 2):
            out.append(nv._grid(M, k))
            if k:
                out.append(nv._boundary_points(k, M))
            for i in range(1, k + 1):
                for eps in (0, 1):
                    out.append(nv._box_region(k, i, eps, M))
    return out


def test_labelings_agree_with_product_oracle():
    """The bitmask search against a brute-force oracle: random graphs of at
    most 5 vertices, grids, open boxes and boundaries with M <= 1, k <= 2,
    and random frozen/allowed constraints (tightened until the product of
    the domain sizes is small enough to enumerate)."""
    rng = random.Random(2024)
    cases = 0
    for X in _small_graphs(rng):
        verts = list(X.vertices)
        for points in _small_point_sets():
            for trial in range(3):
                frozen, allowed = {}, {}
                for t in points:
                    r = rng.random()
                    if trial and r < 0.2:
                        frozen[t] = rng.choice(verts)
                    elif trial and r < 0.4:
                        allowed[t] = set(
                            rng.sample(verts, rng.randint(0, len(verts))))
                free = [t for t in points if t not in frozen]
                rng.shuffle(free)

                def size(t):
                    if t in frozen:
                        return 1
                    return len(allowed[t]) if t in allowed else len(verts)

                while free and math.prod(map(size, points)) > 20000:
                    frozen[free.pop()] = rng.choice(verts)
                want = _oracle_labelings(X, points, frozen, allowed)
                got = nv._labelings(X, points, frozen, allowed=allowed,
                                    budget=nv.Budget(10**6))
                ordered = sorted(points)
                as_tuples = [tuple(s[t] for t in ordered) for s in got]
                assert len(as_tuples) == len(set(as_tuples))
                assert set(as_tuples) == want
                first = nv._labelings(X, points, frozen, allowed=allowed,
                                      limit=1, budget=nv.Budget(10**6))
                assert first == got[:1]
                drawn = nv._labelings(X, points, frozen, allowed=allowed,
                                      rng=random.Random(trial), limit=1,
                                      budget=nv.Budget(10**6))
                assert len(drawn) == min(1, len(want))
                for s in drawn:
                    assert tuple(s[t] for t in ordered) in want
                cases += 1
    assert cases > 300
