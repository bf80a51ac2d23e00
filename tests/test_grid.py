"""The grid labeling search: empty and distance-contradicting domains, the
bitmask search against a product oracle and the full-scan search with and
without the distance pre-pass, and the exact cycle filler."""

import functools
import itertools
import math
import random

import pytest

from cubigraph import graphs as gr
from cubigraph import grid as gd
from cubigraph import nerve as nv


def test_distance_pruning_decides_before_search():
    # no labeling: an empty domain a decided point reaches, and two decided
    # points farther apart in the graph than in the grid; arc consistency
    # finds both
    I2 = gr.interval(2)
    points = gd._grid(1, 1)
    assert gd._labelings(I2, points, {(-1,): {0}, (1,): set()},
                         budget=nv.Budget(10**6)) == []
    assert gd._labelings(I2, points, {(-1,): {0}, (0,): {2}},
                         budget=nv.Budget(10**6)) == []


def test_cycle_filler_agrees_with_exhaustive_search():
    import random

    C5 = gr.cycle(5)
    f = gr.constant_map(C5, gr.interval(0), 0)
    rng = random.Random(1)
    order = gd._cycle_order(C5)
    assert order is not None and len(order) == 5
    budget = nv.Budget(10**7)
    checked = 0
    for u, w in nv._member_problems(f, 2, 1, 0, 1, False, None, 0, budget):
        if checked >= 12:
            break
        Ms = 2
        region = gd._box_region(2, 1, 0, Ms)
        frozen = {t: u[gd._clamp(t, 1)] for t in region}
        points = gd._grid(Ms, 2)
        verdict, table = gd._cycle_filler(order, points, frozen)
        sols = gd._labelings(C5, points, _domains(frozen, None),
                             budget=nv.Budget(10**7), limit=1)
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
    assert gd._cycle_order(gr.cycle(5)) is not None
    assert gd._cycle_order(gr.interval(3)) is None
    assert gd._cycle_order(gr.box_product(gr.interval(1), gr.interval(1)))


def _ring(points):
    """The 8 points (x, y, M, ..., M) of a point set in [-M, M]^k with
    max(|x|, |y|) == 1, in cyclic order: a cycle of its point graph."""
    square = [(-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1),
              (0, -1)]
    return [xy + max(points)[2:] for xy in square]


def _cycle_filler_cases():
    """(points, n, frozen, kind) for the cycle filler differential test:
    full grids at k = 2, 3 and cube boundaries at k = 3, frozen values
    given as positions along the n-cycle.

    Each point set gets the hand-made kinds on its ring (a winding, heights
    that are not 1-Lipschitz, a step of two, two frozen components, and a
    frozen ring that does extend), then seeded random frozen data: a
    random labeling (a graph map, so it extends) restricted to a random
    connected region, with one value sometimes moved by 1 or 2
    positions."""
    rng = random.Random(11)
    shapes = [gd._grid(1, 2), gd._grid(2, 2), gd._grid(1, 3),
              gd._boundary_points(3, 1), gd._boundary_points(3, 2)]
    for points in shapes:
        ring = _ring(points)
        for n in (5, 6):
            yield points, n, dict(zip(ring, (*range(n), n, n))), "winding"
            yield points, n, dict(zip(ring, range(7))), "non-Lipschitz"
            yield points, n, {ring[0]: 0, ring[1]: 2}, "step of two"
            yield points, n, {ring[0]: 0, ring[4]: 2}, "disconnected"
            yield points, n, dict(zip(ring, (0, 1, 2, 1, 0, -1, -2, -1))), "ok"
            order = gd._cycle_order(gr.cycle(n))
            for _ in range(12):
                table = gd._labelings(gr.cycle(n), points,
                                      rng=random.Random(rng.randrange(99)),
                                      limit=1, budget=nv.Budget(10**6))[0]
                chosen = _grown_region(points, rng)
                frozen = {t: order.index(table[t]) for t in chosen}
                if rng.random() < 0.5:
                    frozen[rng.choice(chosen)] += rng.choice((1, 2))
                yield points, n, frozen, "random"


def _grown_region(points, rng):
    """A random connected region of the point set, of 1 to half its
    points, grown one random box neighbour at a time."""
    index, nbrs = gd._shape(tuple(sorted(points)))
    ordered = sorted(points)
    region = [rng.choice(ordered)]
    rim = set(nbrs[index[region[0]]])
    for _ in range(rng.randint(0, len(points) // 2 - 1)):
        j = rng.choice(sorted(rim))
        region.append(ordered[j])
        rim |= set(nbrs[j])
        rim -= {index[t] for t in region}
    return region


def _components(points):
    """The connected components of a point set with box adjacency."""
    left, comps = set(points), []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            t = stack.pop()
            for axis in range(len(t)):
                for d in (-1, 1):
                    s = t[:axis] + (t[axis] + d,) + t[axis + 1:]
                    if s in left:
                        left.discard(s)
                        comp.add(s)
                        stack.append(s)
        comps.append(comp)
    return comps


def test_cycle_filler_agrees_with_the_labeling_search():
    """_cycle_filler against _labelings(limit=1) into C5 and C6 on
    _cycle_filler_cases: a labeling exactly when the search finds one, a
    returned table a graph map that agrees with the frozen data, and None
    (no verdict) only for frozen data in two or more components."""
    seen = set()
    for points, n, frozen, kind in _cycle_filler_cases():
        C = gr.cycle(n)
        order = gd._cycle_order(C)
        frozen = {t: order[j % n] for t, j in frozen.items()}
        decided = gd._cycle_filler(order, points, frozen)
        if decided is None:
            assert len(_components(frozen)) > 1, (points, frozen)
            seen.add((kind, None))
            continue
        sols = gd._labelings(C, points, _domains(frozen, None), limit=1,
                             budget=nv.Budget(10**7))
        verdict, table = decided
        assert (verdict == "labeling") == bool(sols), (points, frozen, kind)
        seen.add((kind, verdict))
        if table is None:
            continue
        assert all(table[t] == v for t, v in frozen.items())
        _, nbrs = gd._shape(tuple(sorted(points)))
        ordered = sorted(points)
        for j, t in enumerate(ordered):
            assert all(C.adjacent(table[t], table[ordered[i]])
                       for i in nbrs[j])
    assert seen >= {("winding", "none"), ("non-Lipschitz", "none"),
                    ("step of two", "none"), ("disconnected", None),
                    ("ok", "labeling"), ("random", "labeling"),
                    ("random", "none")}


def _domains(frozen, allowed):
    """frozen (point -> vertex) and allowed (point -> vertex set) as one
    grid._labelings domain map, a frozen point a one-vertex domain that
    wins over allowed."""
    return {**(allowed or {}), **{t: {v} for t, v in frozen.items()}}


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
            out.append(gd._grid(M, k))
            if k:
                out.append(gd._boundary_points(k, M))
            for i in range(1, k + 1):
                for eps in (0, 1):
                    out.append(gd._box_region(k, i, eps, M))
    return out


def _product_oracle_problems():
    """Random graphs of at most 5 vertices, grids, open boxes and
    boundaries with M <= 1, k <= 2, and random frozen/allowed constraints
    (tightened until the product of the domain sizes is small enough to
    enumerate); yields (X, points, frozen, allowed, trial)."""
    rng = random.Random(2024)
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
                yield X, points, frozen, allowed, trial


def test_labelings_agree_with_product_oracle():
    """The bitmask search against a brute-force oracle on
    _product_oracle_problems."""
    cases = 0
    for X, points, frozen, allowed, trial in _product_oracle_problems():
        want = _oracle_labelings(X, points, frozen, allowed)
        domains = _domains(frozen, allowed)
        got = gd._labelings(X, points, domains, budget=nv.Budget(10**6))
        ordered = sorted(points)
        as_tuples = [tuple(s[t] for t in ordered) for s in got]
        assert len(as_tuples) == len(set(as_tuples))
        assert set(as_tuples) == want
        first = gd._labelings(X, points, domains, limit=1,
                              budget=nv.Budget(10**6))
        assert first == got[:1]
        drawn = gd._labelings(X, points, domains, rng=random.Random(trial),
                              limit=1, budget=nv.Budget(10**6))
        assert len(drawn) == min(1, len(want))
        for s in drawn:
            assert tuple(s[t] for t in ordered) in want
        cases += 1
    assert cases > 300


def _full_scan_labelings(X, points, frozen, allowed=None, rng=None,
                         limit=None, budget=None, prune=False):
    """Oracle: grid._labelings as it was before the live-point scan, its
    minimum-remaining-values step scanning every point's domain, and with
    prune the distance pre-pass it once ran ahead of arc consistency.

    Graph-map labelings of a point set with box adjacency.

    Solved as a constraint problem with arc-consistency propagation and
    minimum-remaining-values ordering (ties broken by point order, so
    results are deterministic).  frozen: point -> forced vertex; allowed:
    point -> permitted vertex set; rng shuffles value order (sampling);
    limit caps the number of results; budget caps search steps.  Domains
    are int bitmasks over the graph's vertices (see _graph_bits).
    """
    points = tuple(sorted(points))
    _, nbrs = gd._shape(points)
    verts, bit, closed = gd._graph_bits(X)
    n = len(points)
    full = (1 << len(verts)) - 1
    domains = []
    for t in points:
        if t in frozen:
            dom = bit[frozen[t]]
        elif allowed is not None and t in allowed:
            dom = 0
            for v in allowed[t]:
                dom |= bit[v]
        else:
            dom = full
        domains.append(dom)

    # distance pruning: a labeling is a graph map from the (reflexive)
    # point grid, so it contracts distances -- a point at grid distance d
    # from a decided point j can only take values within graph distance d
    # of j's value w.  So v is ruled out on the grid ball around j of
    # radius dist(v, w) - 1, and on all of j's component when w cannot
    # reach v (index -1 picks the last ball).  A domain emptied on a point
    # some decided point reaches leaves no labeling.
    singles = [j for j in range(n) if domains[j].bit_count() == 1]
    if prune and singles and len(singles) < n:
        ruled_out = dict.fromkeys(bit.values(), 0)
        reach = 0
        for j in singles:
            # around[r] has bit i set when point i is within grid distance
            # r of point j, for r up to j's eccentricity
            around = [0]
            for i, _, d in gr._bfs(j, nbrs.__getitem__):
                if d == len(around):
                    around.append(around[-1])
                around[d] |= 1 << i
            top = len(around) - 1
            reach |= around[top]
            w = verts[domains[j].bit_length() - 1]
            radius = {v: d - 1 for v, _, d in gr._bfs(w, X.adj.__getitem__)}
            for v in verts:
                if v != w:
                    ruled_out[bit[v]] |= around[min(radius.get(v, -1), top)]
        for i in range(n):
            dom = domains[i]
            for low in gd._bits(dom):
                if ruled_out[low] >> i & 1:
                    dom ^= low
            if not dom and reach >> i & 1:
                return []
            domains[i] = dom

    def propagate(queue, trail):
        """AC-3 from the queued point indices; records removed masks on
        trail."""
        while queue:
            if budget is not None:
                budget.spend()
            j = queue.pop()
            dj = domains[j]
            support = closed.get(dj)
            if support is None:
                support = 0
                for low in gd._bits(dj):
                    support |= closed[low]
            for i in nbrs[j]:
                di = domains[i]
                dead = di & ~support
                if dead:
                    di ^= dead
                    domains[i] = di
                    trail.append((i, dead))
                    if not di:
                        return False
                    queue.append(i)
        return True

    out = []
    if not propagate(list(range(n)), []):
        return out

    def search():
        if limit is not None and len(out) >= limit:
            return
        if budget is not None:
            budget.spend()
        # minimum remaining values, ties to the first point
        sizes = list(map(int.bit_count, domains))
        best_size = min(filter((1).__lt__, sizes), default=None)
        if best_size is None:
            # an empty domain here is a component with no value at all
            if all(domains):
                out.append({
                    t: verts[dom.bit_length() - 1]
                    for t, dom in zip(points, domains)
                })
            return
        best = sizes.index(best_size)

        def freedom(b):
            cb = closed[b]
            return sum((domains[i] & cb).bit_count() for i in nbrs[best])

        saved = domains[best]
        cands = list(gd._bits(saved))
        if rng is not None:
            rng.shuffle(cands)
        else:
            cands.sort(key=freedom, reverse=True)
        for b in cands:
            domains[best] = b
            trail = []
            if propagate([best], trail):
                search()
            for i, dead in trail:
                domains[i] |= dead
            domains[best] = saved
            if limit is not None and len(out) >= limit:
                return

    search()
    return out


def test_live_point_scan_matches_the_full_scan():
    """_labelings branches only on the points left with two or more values
    after the first propagation, and runs no distance pass ahead of it.
    On _product_oracle_problems it returns the same list as the full scan
    with and without that pass, and spends the same budget as the full
    scan without it, with and without a value-order rng and a result
    limit; a budget cut to half the spend runs out at the same step."""
    cases = cuts = 0
    for X, points, frozen, allowed, trial in _product_oracle_problems():
        searches = (
            functools.partial(gd._labelings, X, points,
                              _domains(frozen, allowed)),
            functools.partial(_full_scan_labelings, X, points, frozen,
                              allowed),
            functools.partial(_full_scan_labelings, X, points, frozen,
                              allowed, prune=True),
        )
        for seed, limit in ((None, None), (None, 1), (trial, 1)):
            runs = []
            for search in searches:
                budget = nv.Budget(10 ** 6)
                rng = None if seed is None else random.Random(seed)
                got = search(rng=rng, limit=limit, budget=budget)
                runs.append((got, budget.left))
            lists = [got for got, _ in runs]
            assert lists[0] == lists[1] == lists[2], (X, points, frozen,
                                                      allowed)
            assert runs[0][1] == runs[1][1], (X, points, frozen, allowed)
            cases += 1
            spent = 10 ** 6 - runs[0][1]
            if spent < 2:
                continue
            lefts = []
            for search in searches[:2]:
                budget = nv.Budget(spent // 2)
                rng = None if seed is None else random.Random(seed)
                with pytest.raises(gd.BudgetExceeded):
                    search(rng=rng, limit=limit, budget=budget)
                lefts.append(budget.left)
            assert lefts[0] == lefts[1]
            cuts += 1
    assert cases > 2000 and cuts > 1800
