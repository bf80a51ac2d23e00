"""The nerve of a reflexive graph as a cubical presheaf, computed on
bounded fragments.

A k-cube of the nerve is a graph map out of the k-fold box power of the
bi-infinite interval that is eventually constant in every direction.  Such a
map is stored as a `StableCube`: its values on the grid [-M, M]^k for the
least M at which clamping reproduces the whole map (the trimmed normal
form); evaluation outside the grid clamps coordinates.  Operators follow
the grid formulas: faces freeze a coordinate at (2*eps-1)*M, degeneracies
drop a coordinate, connections merge two coordinates by max (eps = 0) or
min (eps = 1).  Every point of the result grid lands on a point of the
source grid at the same support, so each operator is one index gather on a
table compiled once per (generator, k, M); results are re-trimmed by a
per-(k, M) table of each boundary point's clamp one step in.

The bounded fibration check poses open-box lifting problems directly as
grid constraint problems, with explicit three-valued verdicts; a filler
miss inside the configured support cap is a counterexample-within-bounds,
never an unbounded claim.  A filler is searched on its free points alone,
the filler grid's points off the open box: the box is already labeled by
u composed with clamping, so it enters only through the domains of its
free neighbours.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .graphs import _bfs
from .presheaf import PresheafMap, _from_images


class BudgetExceeded(Exception):
    pass


class Budget:
    """A shared work counter; spend() raises once the allowance is gone."""

    def __init__(self, allowance):
        self.allowance = allowance
        self.left = allowance

    def spend(self, amount=1):
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(f"work budget {self.allowance} exhausted")


def _grid(M, k):
    return list(itertools.product(range(-M, M + 1), repeat=k))


def _clamp(t, M):
    return tuple(max(-M, min(M, x)) for x in t)


def _index(t, M):
    """The position of the point t of [-M, M]^k in _grid(M, k)."""
    idx = 0
    W = 2 * M + 1
    for x in t:
        idx = idx * W + (x + M)
    return idx


def _take(idx):
    """A function picking the entries at positions idx out of a tuple, as a
    tuple (itemgetter returns a bare entry for one position)."""
    if len(idx) >= 2:
        return itemgetter(*idx)
    return lambda values: tuple(values[j] for j in idx)


@dataclass(frozen=True)
class StableCube:
    dim: int
    support: int
    values: tuple  # aligned with _grid(support, dim)

    def value(self, t):
        return self.values[_index(_clamp(t, self.support), self.support)]

    def to_json(self):
        return {
            "dim": self.dim,
            "support": self.support,
            "values": {
                ",".join(map(str, t)): v
                for t, v in zip(_grid(self.support, self.dim), self.values)
            },
        }

    @staticmethod
    def from_json(data):
        k, M = data["dim"], data["support"]
        table = {
            tuple(int(x) for x in key.split(",")) if key else (): v
            for key, v in data["values"].items()
        }
        return make_cube(k, M, lambda t: table[t])


@lru_cache(maxsize=256)
def _trim_table(k, M):
    """For M > 0, three gathers on values over [-M, M]^k: the boundary
    points, their clamps into [-(M-1), M-1]^k, and that inner grid."""
    points = _grid(M, k)
    outer = [j for j, t in enumerate(points) if any(abs(x) == M for x in t)]
    return (
        _take(outer),
        _take([_index(_clamp(points[j], M - 1), M) for j in outer]),
        _take([_index(t, M) for t in _grid(M - 1, k)]),
    )


def _trimmed(k, M, values):
    """The trimmed StableCube of values given on [-M, M]^k in grid order:
    shrink the support while every boundary value equals the value at its
    clamp one step in."""
    while M > 0:
        outer, clamped, inner = _trim_table(k, M)
        if outer(values) != clamped(values):
            break
        values = inner(values)
        M -= 1
    return StableCube(k, M, values)


def make_cube(k, M, func):
    """Build the trimmed StableCube for values given on [-M, M]^k."""
    return _trimmed(k, M, tuple(map(func, _grid(M, k))))


def constant_cube(k, vertex):
    return StableCube(k, 0, (vertex,))


@lru_cache(maxsize=64)
def _grid_edges(k, M):
    """The box-adjacent index pairs (a, b), a < b, of _grid(M, k)."""
    _, nbrs, _ = _shape(tuple(_grid(M, k)))
    return tuple((a, b) for a, ns in enumerate(nbrs) for b in ns if a < b)


def is_cube_of(c, graph):
    """Check the stable-cube invariant against a graph: values on the grid
    form a graph map for the box adjacency."""
    vals = c.values
    edges = _grid_edges(c.dim, c.support)
    return all(v in graph.adj for v in vals) and all(
        graph.adjacent(vals[a], vals[b]) for a, b in edges
    )


def _source_point(key, t, M):
    """The point of the source grid whose value generator key puts at the
    point t of the result grid, both at support M.

    Faces freeze coordinate i at (2*eps-1)*M, degeneracies drop coordinate
    i, and connections merge coordinates i, i+1 by max (eps = 0) or min
    (eps = 1); none leaves [-M, M], so no point needs clamping.
    """
    kind, i = key[0], key[1]
    if kind == "face":
        return t[: i - 1] + ((2 * key[2] - 1) * M,) + t[i - 1:]
    if kind == "deg":
        return t[: i - 1] + t[i:]
    if kind == "conn":
        op = max if key[2] == 0 else min
        return t[: i - 1] + (op(t[i - 1], t[i]),) + t[i + 1:]
    raise ValueError(f"unknown generator {key!r}")


@lru_cache(maxsize=512)
def _generator_gather(key, k, M):
    """The result dimension of generator key on a k-cube of support M, and
    the gather taking the cube's values to the result's on [-M, M]^dim."""
    dim = k - 1 if key[0] == "face" else k + 1
    return dim, _take([_index(_source_point(key, t, M), M)
                       for t in _grid(M, dim)])


def _apply_generator(c, key):
    dim, gather = _generator_gather(key, c.dim, c.support)
    return _trimmed(dim, c.support, gather(c.values))


def enumerate_cubes(X, k, M_max, budget=None):
    """All trimmed stable k-cubes of X with support <= M_max."""
    if budget is None:
        budget = Budget(10 ** 6)
    out = []
    for M in range(M_max + 1):
        points = _grid(M, k)
        for table in _labelings(X, points, budget=budget):
            c = _trimmed(k, M, tuple(map(table.__getitem__, points)))
            if c.support == M:
                out.append(c)
    return out


@lru_cache(maxsize=128)
def _shape(points):
    """Compiled tables of a sorted point tuple with box adjacency.

    Returns the point index, the neighbour lists, and the all-pairs grid
    distances as ball masks over the points: balls[j][r] has bit i set
    when point i is within grid distance r of point j, for r up to j's
    eccentricity (the last ball is j's component).
    """
    index = {t: j for j, t in enumerate(points)}
    nbrs = [[] for _ in points]
    for j, t in enumerate(points):
        for axis in range(len(t)):
            for dlt in (-1, 1):
                s = t[:axis] + (t[axis] + dlt,) + t[axis + 1:]
                if s in index:
                    nbrs[j].append(index[s])
    balls = []
    for j in range(len(points)):
        ball = [0]
        for i, _, d in _bfs(j, nbrs.__getitem__):
            if d == len(ball):
                ball.append(ball[-1])
            ball[d] |= 1 << i
        balls.append(ball)
    return index, nbrs, balls


def _bits(mask):
    """The set bits of an int mask, lowest first, each as a mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


@lru_cache(maxsize=64)
def _graph_bits(X):
    """Bit tables of a graph, cached per graph object (graphs hash by
    identity).

    Bit j stands for the j-th vertex in repr order, so the bits of a
    domain in increasing order list it as sorted(domain, key=repr) would.
    Returns the vertices in bit order, vertex -> bit, and two tables keyed
    by a vertex w's bit: closed[w], its closed-neighbourhood mask, and
    far[w], a (bit of v, dist(v, w) - 1) pair for each vertex v != w, with
    -1 when w cannot reach v.
    """
    verts = sorted(X.vertices, key=repr)
    bit = {v: 1 << j for j, v in enumerate(verts)}
    closed = {}
    far = {}
    for w in verts:
        b = bit[w]
        for u in X.adj[w]:
            b |= bit[u]
        closed[bit[w]] = b
        radius = {v: d - 1 for v, _, d in _bfs(w, X.adj.__getitem__)}
        far[bit[w]] = [(bit[v], radius.get(v, -1)) for v in verts if v != w]
    return verts, bit, closed, far


def _labelings(X, points, allowed=None, rng=None, limit=None, budget=None):
    """Graph-map labelings of a point set with box adjacency.

    Solved as a constraint problem with arc-consistency propagation and
    minimum-remaining-values ordering (ties broken by point order, so
    results are deterministic).  allowed: point -> permitted vertex set (a
    single vertex freezes the point); rng shuffles value order (sampling);
    limit caps the number of results; budget caps search steps.  Domains
    are int bitmasks over the graph's vertices (see _graph_bits).
    """
    points = tuple(sorted(points))
    _, nbrs, grid_balls = _shape(points)
    verts, bit, closed, far = _graph_bits(X)
    n = len(points)
    full = (1 << len(verts)) - 1
    domains = []
    for t in points:
        if allowed is not None and t in allowed:
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
    if singles and len(singles) < n:
        ruled_out = dict.fromkeys(bit.values(), 0)
        reach = 0
        for j in singles:
            around = grid_balls[j]
            top = len(around) - 1
            reach |= around[top]
            for b, r in far[domains[j]]:
                ruled_out[b] |= around[min(r, top)]
        for i in range(n):
            dom = domains[i]
            for low in _bits(dom):
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
                for low in _bits(dj):
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
    # the points still holding two or more values, in index order: the
    # search only narrows domains below these, so no other point is ever
    # branched on and the minimum-remaining-values scan can skip them
    live = [j for j in range(n) if domains[j] & (domains[j] - 1)]
    at_live = _take(live)

    def search():
        if limit is not None and len(out) >= limit:
            return
        if budget is not None:
            budget.spend()
        # minimum remaining values, ties to the first point
        sizes = list(map(int.bit_count, at_live(domains)))
        best_size = min(filter((1).__lt__, sizes), default=None)
        if best_size is None:
            # an empty domain here is a component with no value at all
            if all(domains):
                out.append({
                    t: verts[dom.bit_length() - 1]
                    for t, dom in zip(points, domains)
                })
            return
        best = live[sizes.index(best_size)]

        def freedom(b):
            cb = closed[b]
            return sum((domains[i] & cb).bit_count() for i in nbrs[best])

        saved = domains[best]
        cands = list(_bits(saved))
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


def nerve_fragment(X, D, M_max, budget=10 ** 6):
    """The nerve of X as a finite presheaf: all trimmed cubes of dimension
    <= D and support <= M_max, with the operator actions.

    The cube set is closed under every operator because faces, degeneracies
    and connections never raise support.
    """
    cells = {}
    shared = Budget(budget)
    for k in range(D + 1):
        cs = enumerate_cubes(X, k, M_max, budget=shared)
        cells[k] = tuple(sorted(cs, key=lambda c: (c.support, c.values)))
    return _from_images(
        "cubical", D, cells, lambda key, g, c: _apply_generator(c, key)
    )


def nerve_map(f, NX, NY):
    """N(f): nerve fragment of the source to that of the target."""
    image = f.assignment.__getitem__
    comps = {
        k: {c: _trimmed(k, c.support, tuple(map(image, c.values)))
            for c in NX.cells[k]}
        for k in NX.dims()
    }
    return PresheafMap(NX, NY, comps)


# ---------------------------------------------------------------------------
# bounded open-box lifting for graph maps


@lru_cache(maxsize=256)
def _box_region(k, i, eps, M):
    """Grid points of the open box: on some face other than (i, eps)."""
    return tuple(
        t
        for t in _grid(M, k)
        if any(
            t[j - 1] == (2 * d - 1) * M
            for j in range(1, k + 1)
            for d in (0, 1)
            if (j, d) != (i, eps)
        )
    )


@lru_cache(maxsize=64)
def _boundary_points(k, M):
    """Grid points on the boundary of [-M, M]^k (all of it when M == 0)."""
    return tuple(
        t for t in _grid(M, k) if M == 0 or any(abs(x) == M for x in t)
    )


@lru_cache(maxsize=64)
def _clamp_map(k, Ms, M):
    """Each point of [-Ms, Ms]^k -> its clamp into [-M, M]^k, so that
    table[clamp[t]] extends a labeling of [-M, M]^k by clamping."""
    return {t: _clamp(t, M) for t in _grid(Ms, k)}


@lru_cache(maxsize=256)
def _filler_table(k, i, eps, M, slack, into_boundary):
    """The free points of a filler problem and where their constraints are
    read.

    The filler grid is [-Ms, Ms]^k, Ms = M + slack (its boundary for a
    boundary-target member), and its free points are those off the open
    box (i, eps) at support Ms.  Returns the free points in grid order,
    each one's clamp into [-M, M]^k (where w is read), and for each the
    distinct clamps into [-M, M]^k of its box-adjacent points on the open
    box (where u is read).
    """
    Ms = M + slack
    region = set(_box_region(k, i, eps, Ms))
    points = _boundary_points(k, Ms) if into_boundary else _grid(Ms, k)
    free = tuple(t for t in points if t not in region)
    on_box = []
    for t in free:
        near = set()
        for axis in range(k):
            for dlt in (-1, 1):
                s = t[:axis] + (t[axis] + dlt,) + t[axis + 1:]
                if s in region:
                    near.add(_clamp(s, M))
        on_box.append(tuple(sorted(near)))
    return free, tuple(_clamp(t, M) for t in free), tuple(on_box)


class FibrationReport:
    def __init__(self, verdict, detail):
        self.verdict = verdict  # yes_on_tested_range | counterexample | inconclusive
        self.detail = detail

    def __repr__(self):
        return f"FibrationReport({self.verdict})"


def _restart_labelings(X, points, allowed, budget, rng=None):
    """One labeling found via cheap randomized restarts; None is certified.

    Each attempt runs the full backtracking search under a node cutoff with
    a different (seeded, reproducible) value order; a completed attempt
    with no solution certifies unsatisfiability regardless of the order.
    Runs that succeed at all succeed with almost no backtracking, so many
    tiny attempts beat a few large ones.  With rng the first attempt is
    already randomized (for sampling); without, the first attempt is the
    deterministic order.
    """
    cutoff = 200 + 12 * len(points)
    for attempt in range(600):
        if budget.left <= 0:
            budget.spend()
        trial = Budget(min(cutoff, budget.left))
        if rng is not None:
            order = random.Random(rng.randrange(2**30))
        else:
            order = random.Random(attempt) if attempt else None
        try:
            sols = _labelings(X, points, allowed, rng=order, limit=1,
                              budget=trial)
            budget.spend(trial.allowance - trial.left)
            return sols[0] if sols else None
        except BudgetExceeded:
            budget.spend(trial.allowance)
    sols = _labelings(X, points, allowed, limit=1, budget=budget)
    return sols[0] if sols else None


def _member_problems(f, k, i, eps, M, into_boundary, rng, samples, budget):
    """Yield (u labeling, w labeling) pairs for one generating-set member.

    u labels the open-box region with source-graph vertices; w labels the
    full grid (or the boundary, for the boundary-target member) downstairs,
    frozen to f(u) over the box region.
    """
    X, Y = f.source, f.target
    region = _box_region(k, i, eps, M)
    w_points = _boundary_points(k, M) if into_boundary else _grid(M, k)
    if rng is None:
        us = _labelings(X, region, budget=budget)
    else:
        us = []
        for _ in range(samples):
            got = _restart_labelings(X, region, None, budget, rng=rng)
            if got is not None:
                us.append(got)
    for u in us:
        frozen = {t: {f.assignment[u[t]]} for t in region}
        if rng is None:
            ws = _labelings(Y, w_points, frozen, budget=budget)
        else:
            got = _restart_labelings(Y, w_points, frozen, budget, rng=rng)
            ws = [got] if got is not None else []
        for w in ws:
            yield u, w


def _cycle_order(X):
    """Vertices of X in cyclic order if X is a single cycle, else None."""
    n = len(X.vertices)
    if n < 3:
        return None
    nbrs = {v: [u for u in X.adj[v] if u != v] for v in X.vertices}
    if any(len(us) != 2 for us in nbrs.values()):
        return None
    start = X.vertices[0]
    order = [start]
    prev, cur = None, start
    while True:
        a, b = nbrs[cur]
        nxt = a if a != prev else b
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
        if len(order) > n:
            return None
    return order if len(order) == n else None


def _cycle_filler(order, points, frozen):
    """Exact extension of a frozen labeling to a cycle, on a simply
    connected point region with unconstrained free points.

    A labeling of a simply connected region by the n-cycle lifts to integer
    heights; an extension of connected frozen data exists iff its height
    lift is 1-Lipschitz for the point-graph metric, in which case the
    distance-minimum extension realizes it.  Returns ("labeling", table),
    ("none", None) for a certified miss, or None when not applicable
    (frozen data spanning several components).
    """
    n = len(order)
    pos = {v: j for j, v in enumerate(order)}
    points = tuple(sorted(points))
    index, nbrs, _ = _shape(points)
    froz = sorted(frozen)
    if not froz:
        return "labeling", {t: order[0] for t in points}
    # lift one connected component of the frozen region to heights
    start = froz[0]
    frozen_idx = {index[t] for t in froz}
    heights = {index[start]: pos[frozen[start]]}
    stack = [index[start]]
    while stack:
        j = stack.pop()
        for i2 in nbrs[j]:
            if i2 not in frozen_idx:
                continue
            step = (pos[frozen[points[i2]]] - pos[frozen[points[j]]]) % n
            if step == n - 1:
                step = -1
            if step not in (-1, 0, 1):
                return "none", None
            h = heights[j] + step
            if i2 in heights:
                if heights[i2] != h:
                    return "none", None  # winding obstruction
            else:
                heights[i2] = h
                stack.append(i2)
    if len(heights) != len(frozen_idx):
        return None  # disconnected frozen data: fall back to search
    # best[j] = min over frozen a of heights[a] + dist(a, j), by one bucket
    # BFS settling points in order of that value; the heights are
    # 1-Lipschitz iff every frozen point keeps its own height
    srcs = sorted(heights.items(), key=lambda item: item[1])
    best = [None] * len(points)
    frontier = []
    s, level = 0, srcs[0][1]
    while frontier or s < len(srcs):
        if not frontier:
            level = srcs[s][1]
        while s < len(srcs) and srcs[s][1] == level:
            frontier.append(srcs[s][0])
            s += 1
        nxt = []
        for j in frontier:
            if best[j] is None:
                best[j] = level
                nxt.extend(nbrs[j])
        frontier = nxt
        level += 1
    if any(best[a] != h for a, h in heights.items()):
        return "none", None
    return "labeling", {
        t: order[b % n] if b is not None else order[0]
        for t, b in zip(points, best)
    }


def _find_filler(f, k, i, eps, M, slack, u, w, into_boundary, budget):
    """Search a lift labeling at support M + slack; None if none exists.

    On the open box the lift is u composed with clamping into [-M, M]^k,
    which is already a graph map there, so only the free points of
    _filler_table are searched.  A free point's domain is the fibre over
    w at its clamp, cut to the closed neighbourhoods of u's values at the
    clamps of its neighbours on the box; the free-point problem has the
    same solutions as the one on the whole filler grid.  Returns a
    labeling of at least the free points (the exact cycle path labels the
    box too, with u's clamped values).
    """
    X = f.source
    free, w_at, u_at = _filler_table(k, i, eps, M, slack, into_boundary)
    fibers = {}
    for y in set(map(w.__getitem__, w_at)):
        fibers[y] = {x for x in X.vertices if f.assignment[x] == y}
    # exact path for cycle-valued problems on simply connected regions
    # (full grids, or cube boundaries of dimension >= 3) with free fibers
    if (not into_boundary or k >= 3) and all(
        len(a) == len(X.vertices) for a in fibers.values()
    ):
        order = _cycle_order(X)
        # length >= 5 only: four unit steps cannot wrap such a cycle, so
        # labelings of simply connected regions lift to integer heights
        if order is not None and len(order) >= 5:
            Ms = M + slack
            clamp = _clamp_map(k, Ms, M)
            frozen = {t: u[clamp[t]] for t in _box_region(k, i, eps, Ms)}
            points = _boundary_points(k, Ms) if into_boundary else _grid(Ms, k)
            decided = _cycle_filler(order, points, frozen)
            if decided is not None:
                verdict, table = decided
                return table if verdict == "labeling" else None
    allowed = {}
    for t, c, near in zip(free, w_at, u_at):
        dom = fibers[w[c]]
        for p in near:
            v = u[p]
            cut = dom & X.adj[v]
            if v in dom:
                cut.add(v)
            dom = cut
        allowed[t] = dom
    return _restart_labelings(X, free, allowed, budget)


def is_graph_n_fibration_bounded(
    f, n, M_max=1, slack=2, budget=10 ** 6, seed=0, samples=25,
    sample_dim_from=3,
):
    """Bounded check that the nerve of f lifts against the level-n open-box
    generating set.

    Members of grid dimension below sample_dim_from are checked exhaustively
    at support M_max; higher-dimensional members are checked on `samples`
    seeded random problems each.  Returns a FibrationReport with verdict
    yes_on_tested_range, counterexample, or inconclusive (budget exhausted).
    """
    # imported here: lifting pulls in product, which importing the nerve
    # does not otherwise pay for
    from .lifting import generating_set

    tested = 0
    sampled = False
    shared = Budget(budget)
    try:
        for spec in generating_set("J_n_prime_cubical", n).member_specs:
            shape, k, i, eps = spec["shape"], spec["k"], spec["i"], spec["eps"]
            into_bd = shape == "box_into_boundary"
            rng = random.Random(seed) if k >= sample_dim_from else None
            if rng is not None:
                sampled = True
            for u, w in _member_problems(
                f, k, i, eps, M_max, into_bd, rng, samples, shared
            ):
                tested += 1
                filler = _find_filler(
                    f, k, i, eps, M_max, slack, u, w, into_bd, shared
                )
                if filler is None:
                    return FibrationReport(
                        "counterexample",
                        {
                            "member": (shape, k, i, eps),
                            "support": M_max,
                            "filler_support_cap": M_max + slack,
                            "u": u,
                            "w": w,
                            "tested": tested,
                        },
                    )
    except BudgetExceeded as exc:
        return FibrationReport("inconclusive", {"reason": str(exc), "tested": tested})
    return FibrationReport(
        "yes_on_tested_range",
        {"tested": tested, "support": M_max, "slack": slack, "sampled": sampled},
    )
