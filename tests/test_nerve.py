"""Stable cubes, nerve fragments, and bounded open-box lifting."""

import functools
import itertools
import random

from cubigraph import graphs as gr
from cubigraph import grid as gd
from cubigraph import lifting as lf
from cubigraph import nerve as nv
from cubigraph import presheaf as ps


def _brute_force_cubes(X, k, M_max):
    """Oracle: trimmed stable k-cubes enumerated by raw product search."""
    found = set()
    for M in range(M_max + 1):
        grid = gd._grid(M, k)
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
        for k, M in [(0, 2), (1, 1), (1, 2), (2, 1)]:
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


def _grid_term(t, s, M):
    """A coordinate term of a cube morphism evaluated on the grid point s,
    in the convention of the nerve's operators: constant eps is
    (2*eps-1)*M, a variable reads its coordinate of s, and max/min nodes
    take the grid's max/min."""
    if t[0] == "c":
        return (2 * t[1] - 1) * M
    if t[0] == "v":
        return s[t[1] - 1]
    vals = [_grid_term(ch, s, M) for ch in t[1]]
    return max(vals) if t[0] == "max" else min(vals)


def test_nerve_operator_respects_composition():
    from cubigraph import site as st

    C3 = gr.cycle(3)
    N = nv.nerve_fragment(C3, 2, 1)
    # every tenth of the 19,683 2-cubes; the first is the support-0 cube 0
    cubes = N.cells[2][::10]
    # pointwise: acting by m through the composed generator tables and then
    # evaluating equals evaluating c at m's coordinate terms, on a grid one
    # step past the support, so clamping is checked too
    for c in cubes:
        M = c.support
        for m in st.all_cube_morphisms(1, 2):
            res = N.act(c, 2, m)
            for s in gd._grid(M + 1, 1):
                at = tuple(_grid_term(t, s, M) for t in m.coords)
                assert res.value(s) == c.value(at), (c, m, s)
    # face then degeneracy is the identity on every cube
    for c in cubes:
        d = nv._apply_generator(c, ("deg", 1))
        back = nv._apply_generator(d, ("face", 1, 0))
        assert back == c


def _oracle_clamp(x, M):
    return x if -M <= x <= M else (M if x > M else -M)


@functools.lru_cache(maxsize=None)
def _oracle_grid(M, k):
    return tuple(gd._grid(M, k))


def _oracle_value(c, t):
    """Oracle: a stable cube's value at any point, by clamping."""
    M = c.support
    idx = 0
    for x in t:
        idx = idx * (2 * M + 1) + _oracle_clamp(x, M) + M
    return c.values[idx]


def _oracle_make_cube(k, M, func):
    """Oracle: trim a table of values on [-M, M]^k one step at a time
    through a point-keyed dict."""
    table = {t: func(t) for t in _oracle_grid(M, k)}
    while M > 0:
        inner = M - 1
        if all(table[t] == table[tuple(_oracle_clamp(x, inner) for x in t)]
               for t in _oracle_grid(M, k)):
            table = {t: table[t] for t in _oracle_grid(inner, k)}
            M = inner
        else:
            break
    return nv.StableCube(k, M, tuple(table[t] for t in _oracle_grid(M, k)))


def _oracle_apply_generator(c, key):
    """Oracle: a generator as a closure evaluating the cube one point at a
    time, then trimmed."""
    k, M = c.dim, c.support
    kind = key[0]
    if kind == "face":
        _, i, eps = key
        frozen = (2 * eps - 1) * M
        return _oracle_make_cube(k - 1, M, lambda t: _oracle_value(
            c, t[: i - 1] + (frozen,) + t[i - 1:]))
    if kind == "deg":
        _, i = key
        return _oracle_make_cube(k + 1, M, lambda t: _oracle_value(
            c, t[: i - 1] + t[i:]))
    _, i, eps = key
    op = max if eps == 0 else min
    return _oracle_make_cube(k + 1, M, lambda t: _oracle_value(
        c, t[: i - 1] + (op(t[i - 1], t[i]),) + t[i + 1:]))


def _oracle_is_cube_of(c, graph):
    """Oracle: the graph-map check along each axis of the grid."""
    M, k = c.support, c.dim
    for t in _oracle_grid(M, k):
        v = _oracle_value(c, t)
        if v not in graph.adj:
            return False
        for axis in range(k):
            if t[axis] < M:
                s = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
                if not graph.adjacent(v, _oracle_value(c, s)):
                    return False
    return True


def test_operators_agree_with_the_closure_oracle():
    """Gathered operators, table trimming, nerve_map and is_cube_of against
    the point-at-a-time oracles, on every stable cube of C3, C4, C5 and
    I1xI1 with k <= 2 at support <= 1 and k <= 1 at support 2, and every
    generator key."""
    from cubigraph import site as st

    I1 = gr.interval(1)
    rng = random.Random(11)
    cases = [
        (gr.cycle(3), {0: 0, 1: 1, 2: 1}),
        (gr.cycle(4), {0: 0, 1: 0, 2: 1, 3: 1}),
        (gr.cycle(5), {0: 0, 1: 1, 2: 0, 3: 1, 4: 1}),
        (gr.box_product(I1, I1), {v: v[0] for v in
                                  gr.box_product(I1, I1).vertices}),
    ]
    checked = 0
    for G, assignment in cases:
        f = gr.GraphMap(G, I1, assignment)
        verts = list(G.vertices)
        for D, M in [(2, 1), (1, 2)]:
            N = nv.nerve_fragment(G, D, M, budget=10 ** 7)
            Nf = nv.nerve_map(f, N, nv.nerve_fragment(I1, D, M))
            for k in N.dims():
                keys = [key for key, _ in st.CUBICAL.generators(k, k + 1)]
                for c in N.cells[k]:
                    for key in keys:
                        assert nv._apply_generator(c, key) == \
                            _oracle_apply_generator(c, key), (c, key)
                    assert Nf.components[k][c] == _oracle_make_cube(
                        k, c.support,
                        lambda t: assignment[_oracle_value(c, t)])
                    assert nv.make_cube(k, M, lambda t: _oracle_value(
                        c, t)) == c
                    assert nv.is_cube_of(c, G)
                    # one value changed, to a vertex or to no vertex
                    vals = list(c.values)
                    vals[rng.randrange(len(vals))] = rng.choice(verts + [-1])
                    bent = nv.StableCube(k, c.support, tuple(vals))
                    assert nv.is_cube_of(bent, G) == \
                        _oracle_is_cube_of(bent, G), bent
                    checked += 1
    assert checked == 48704


def test_is_cube_of_rejects_non_maps():
    C4 = gr.cycle(4)
    square = nv.make_cube(2, 1, lambda t: {-1: 0, 0: 1, 1: 2}[t[0]])
    assert nv.is_cube_of(square, C4)
    # one neighbouring pair 0, 2 that C4 does not join
    jump = list(square.values)
    jump[gd._index((0, 0), 1)] = 2
    assert not nv.is_cube_of(nv.StableCube(2, 1, tuple(jump)), C4)
    # one value that is no vertex
    alien = list(square.values)
    alien[gd._index((1, 1), 1)] = 9
    assert not nv.is_cube_of(nv.StableCube(2, 1, tuple(alien)), C4)


def test_nerve_json_is_pinned():
    """sha256 prefixes of nerve_fragment and nerve_map JSON (independent
    of the hash seed); they move with any change to cell order, trimming
    or operator tables."""
    import hashlib
    import json

    def digest(doc):
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    I1 = gr.interval(1)
    I1xI1 = gr.box_product(I1, I1)
    cases = [
        (gr.cycle(4), 2, 1, {0: 0, 1: 0, 2: 1, 3: 1},
         "627365fc645f", "57545846b0fc"),
        (gr.cycle(5), 1, 2, {0: 0, 1: 1, 2: 0, 3: 1, 4: 1},
         "6a781bf56af5", "1daa28ca9957"),
        (I1xI1, 2, 1, {v: v[0] for v in I1xI1.vertices},
         "fbb5919ee897", "eb3e38ee012a"),
    ]
    for G, D, M, assignment, frag_digest, map_digest in cases:
        N = nv.nerve_fragment(G, D, M)
        Nf = nv.nerve_map(gr.GraphMap(G, I1, assignment), N,
                          nv.nerve_fragment(I1, D, M))
        assert digest(N.to_json()) == frag_digest
        assert digest(ps.map_to_json(Nf)) == map_digest


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
    sols = gd._labelings(gr.cycle(4), gd._grid(1, 2), limit=3)
    assert [tuple(s.values()) for s in sols] == [
        (0,) * 9, (0,) * 8 + (1,), (0,) * 8 + (3,)]


# At slack 0, with every member exhaustive, the nerve check poses exactly
# the lifting squares of N f = nerve_map(f, ...) at (D, M) = (2, 1) against
# J_0': a map from an open box or a boundary into the fragment is a labeling
# of that region of [-1, 1]^k, and a filler of support 1 is a k-cube.


def _nerve_lifting_cases():
    I0, I1, I2, C4 = gr.interval(0), gr.interval(1), gr.interval(2), gr.cycle(4)
    return {
        "id I1": gr.graph_identity(I1),
        "const I1 -> pt": gr.constant_map(I1, I0, 0),
        "const I2 -> pt": gr.constant_map(I2, I0, 0),
        "end pt -> I1": gr.GraphMap(I0, I1, {0: 0}),
        "fold C4 -> I1": gr.GraphMap(C4, I1, {0: 0, 1: 1, 2: 0, 3: 1}),
    }


def _nerve_and_lifting(gen_set, cases):
    """name -> (nerve side, lifting side) per map: (True, problems tested)
    against (True, squares of every member) for a yes, and (False, the
    failing member) on both sides for a no."""
    out = {}
    for name, f in cases.items():
        rep = nv.is_graph_n_fibration_bounded(
            f, 0, M_max=1, slack=0, sample_dim_from=99)
        if rep.verdict == "yes_on_tested_range":
            nerve = (True, rep.detail["tested"])
        else:
            shape, k, i, eps = rep.detail["member"]
            nerve = (False, f"{shape} k={k} i={i} eps={eps}")
        Nf = nv.nerve_map(f, nv.nerve_fragment(f.source, 2, 1),
                          nv.nerve_fragment(f.target, 2, 1))
        holds, witness = lf.has_rlp(Nf, gen_set)
        if holds:
            lifting = (True, sum(len(lf.squares_over(i, Nf))
                                 for _, i in gen_set.realize(2)))
        else:
            lifting = (False, witness["member"])
        out[name] = nerve, lifting
    return out


def test_nerve_check_agrees_with_the_lifting_engine_at_slack_0():
    J0 = lf.generating_set("J_n_prime_cubical", 0)
    got = _nerve_and_lifting(J0, _nerve_lifting_cases())
    assert all(nerve == lifting for nerve, lifting in got.values()), got
    assert {name: nerve for name, (nerve, _) in got.items()} == {
        "id I1": (True, 1040),
        "const I1 -> pt": (True, 516),
        "const I2 -> pt": (True, 2314),
        "end pt -> I1": (False, "box_into_cell k=1 i=1 eps=0"),
        "fold C4 -> I1": (False, "box_into_boundary k=2 i=1 eps=0"),
    }


def test_nerve_lifting_comparison_catches_a_short_generating_set():
    # negative control: J_cubical_bounded(1) has no box_into_boundary
    # member, so has_rlp passes the fold where the nerve check fails it
    fold = _nerve_lifting_cases()["fold C4 -> I1"]
    short = lf.generating_set("J_cubical_bounded", 1)
    nerve, lifting = _nerve_and_lifting(short, {"fold": fold})["fold"]
    assert nerve == (False, "box_into_boundary k=2 i=1 eps=0")
    assert lifting == (True, 32)


def test_stable_cube_json_round_trip():
    C3 = gr.cycle(3)
    for c in nv.enumerate_cubes(C3, 2, 1)[:12]:
        assert nv.StableCube.from_json(c.to_json()) == c


def _full_grid_find_filler(f, k, i, eps, M, slack, u, w, into_boundary,
                           budget):
    """Oracle: nerve._find_filler as it was before free-point fillers, one
    problem on the whole filler grid with the open box frozen to u composed
    with clamping."""
    X = f.source
    Ms = M + slack
    region = gd._box_region(k, i, eps, Ms)
    clamp = gd._clamp_map(k, Ms, M)
    frozen = {t: u[clamp[t]] for t in region}
    points = gd._boundary_points(k, Ms) if into_boundary else gd._grid(Ms, k)
    fibers = {}
    for y in set(w.values()):
        fibers[y] = {x for x in X.vertices if f.assignment[x] == y}
    allowed = {
        t: fibers[w[clamp[t]]] for t in points if t not in frozen
    }
    # exact path for cycle-valued problems on simply connected regions
    # (full grids, or cube boundaries of dimension >= 3) with free fibers
    if (not into_boundary or k >= 3) and all(
        len(a) == len(X.vertices) for a in allowed.values()
    ):
        order = gd._cycle_order(X)
        # length >= 5 only: four unit steps cannot wrap such a cycle, so
        # labelings of simply connected regions lift to integer heights
        if order is not None and len(order) >= 5:
            decided = gd._cycle_filler(order, points, frozen)
            if decided is not None:
                verdict, table = decided
                return table if verdict == "labeling" else None
    # allowed skips the frozen points, so a frozen point's domain is its
    # one vertex
    domains = {**allowed, **{t: {v} for t, v in frozen.items()}}
    return gd._restart_labelings(X, points, domains, budget)


def _filler_corpus():
    I0, I1 = gr.interval(0), gr.interval(1)
    C3, C4, C5, C6 = (gr.cycle(n) for n in (3, 4, 5, 6))
    cyl = gr.box_product(C5, I1)
    return [
        gr.constant_map(C4, I0, 0),
        gr.constant_map(C5, I0, 0),
        gr.constant_map(C6, I0, 0),
        gr.graph_identity(I1),
        gr.graph_identity(C3),
        gr.GraphMap(cyl, C5, {v: v[0] for v in cyl.vertices}),
        gr.GraphMap(C6, C3, {v: v % 3 for v in C6.vertices}),
        gr.GraphMap(C4, I1, {0: 0, 1: 1, 2: 0, 3: 1}),
        gr.GraphMap(I0, I1, {0: 0}),
    ]


def _lift_table(k, i, eps, M, slack, u, filler):
    """The filler merged with u composed with clamping on the open box, or
    None when the filler disagrees with it there."""
    table = {t: u[gd._clamp(t, M)]
             for t in gd._box_region(k, i, eps, M + slack)}
    for t, x in filler.items():
        if table.setdefault(t, x) != x:
            return None
    return table


def _is_lift(f, k, M, slack, w, into_boundary, table):
    """Whether table labels the filler grid (or its boundary) with a graph
    map for box adjacency that lies over w composed with clamping."""
    Ms = M + slack
    points = gd._boundary_points(k, Ms) if into_boundary else gd._grid(Ms, k)
    if set(table) != set(points):
        return False
    grid = gd._grid(Ms, k)
    for a, b in nv._grid_edges(k, Ms):
        s, t = grid[a], grid[b]
        if s in table and t in table and \
                not f.source.adjacent(table[s], table[t]):
            return False
    return all(f.assignment[x] == w[gd._clamp(t, M)]
               for t, x in table.items())


def test_free_point_fillers_agree_with_full_grid_oracle():
    """_find_filler, posed on the free points, against the full-grid search
    on every J_1' member of the corpus maps at slack 0, 1 and 2: every
    problem at support 0, and at support 1 every problem for k = 1 and
    seeded samples for k = 2 and 3 (all of k <= 2 at support 1 would be
    2.4M problems).  The verdicts agree, and every filler merged with u on
    the open box is a lift; one value corrupted so that it leaves its
    fibre or its neighbour's closed neighbourhood is not."""
    from cubigraph.lifting import generating_set

    budget = nv.Budget(10 ** 8)
    found = missed = controls = 0
    for f in _filler_corpus():
        X = f.source
        for spec in generating_set("J_n_prime_cubical", 1).member_specs:
            k, i, eps = spec["k"], spec["i"], spec["eps"]
            into_bd = spec["shape"] == "box_into_boundary"
            for M in (0, 1):
                exhaustive = M == 0 or k == 1
                rng = None if exhaustive else random.Random(k)
                problems = list(nv._member_problems(
                    f, k, i, eps, M, into_bd, rng, 24 if k == 2 else 6,
                    budget))
                for slack in (0, 1, 2):
                    for u, w in problems:
                        args = (f, k, i, eps, M, slack, u, w, into_bd,
                                budget)
                        filler = nv._find_filler(*args)
                        want = _full_grid_find_filler(*args)
                        assert (filler is None) == (want is None), args
                        if filler is None:
                            missed += 1
                            continue
                        found += 1
                        table = _lift_table(k, i, eps, M, slack, u, filler)
                        assert table is not None, args
                        assert _is_lift(f, k, M, slack, w, into_bd, table)
                        # negative control: the first free point takes a
                        # vertex off its fibre, or one not adjacent to a
                        # grid neighbour's value
                        box = gd._box_region(k, i, eps, M + slack)
                        free = sorted(set(table) - set(box))
                        if not free:
                            continue
                        t = free[0]
                        near = [table[s] for s in table if sum(
                            abs(a - b) for a, b in zip(s, t)) == 1]
                        y = f.assignment[table[t]]
                        bad = [x for x in X.vertices
                               if f.assignment[x] != y
                               or not all(X.adjacent(x, v) for v in near)]
                        if bad:
                            table[t] = bad[0]
                            assert not _is_lift(f, k, M, slack, w, into_bd,
                                                table)
                            controls += 1
    assert found > 5000 and missed > 800 and controls > 4000
