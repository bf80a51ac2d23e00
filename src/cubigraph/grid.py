"""The grid labeling constraint problem: graph maps out of a set of
integer grid points with box adjacency.

A nerve cube, an open-box lifting problem and its filler, and a lifted
path-homotopy square are all such labelings.  `_labelings` enumerates them
by arc-consistency over int-bitmask domains, `_restart_labelings` finds one
by randomized restarts (a completed attempt without a solution certifies
that there is none), and `_cycle_filler` decides extensions into a cycle
exactly.  Search steps are charged to the caller's `nerve.Budget`.  The
module imports no other cubigraph module, every name is private, and no
public function of another layer is called, so the bench tracer counts
this work toward the calling layer.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from operator import itemgetter


class BudgetExceeded(Exception):
    pass


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


@lru_cache(maxsize=128)
def _shape(points):
    """Compiled tables of a sorted point tuple with box adjacency: the
    point index, and the neighbour lists by index."""
    index = {t: j for j, t in enumerate(points)}
    nbrs = [[] for _ in points]
    for j, t in enumerate(points):
        for axis in range(len(t)):
            for dlt in (-1, 1):
                s = t[:axis] + (t[axis] + dlt,) + t[axis + 1:]
                if s in index:
                    nbrs[j].append(index[s])
    return index, nbrs


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
    Returns the vertices in bit order, vertex -> bit, and closed, which
    maps a vertex's bit to its closed-neighbourhood mask.
    """
    verts = sorted(X.vertices, key=repr)
    bit = {v: 1 << j for j, v in enumerate(verts)}
    closed = {}
    for w in verts:
        b = bit[w]
        for u in X.adj[w]:
            b |= bit[u]
        closed[bit[w]] = b
    return verts, bit, closed


def _labelings(X, points, allowed=None, rng=None, limit=None, budget=None):
    """Graph-map labelings of a point set with box adjacency.

    Solved as a constraint problem with arc-consistency propagation and
    minimum-remaining-values ordering (ties broken by point order, so
    results are deterministic).  allowed: point -> permitted vertex set (a
    single vertex freezes the point); rng shuffles value order (sampling);
    limit caps the number of results; budget caps search steps.  Domains
    are int bitmasks over the graph's vertices (see _graph_bits).

    Arc consistency alone bounds every value by graph distance: along a
    shortest grid path from a point with one value w, each step keeps only
    values adjacent to some value of the step before, so a point d steps
    away keeps only values within graph distance d of w.  AC-3 reaches the
    greatest arc-consistent sub-domains whatever its queue order
    (Mackworth, 1977), so no distance pass ahead of it would change the
    domains the search starts from.
    """
    points = tuple(sorted(points))
    _, nbrs = _shape(points)
    verts, bit, closed = _graph_bits(X)
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


def _restart_labelings(X, points, allowed, budget, rng=None):
    """One labeling found via cheap randomized restarts; None is certified.

    Each attempt runs the full backtracking search under a node cutoff with
    a different (seeded, reproducible) value order; a completed attempt
    with no solution certifies unsatisfiability regardless of the order.
    Runs that succeed at all succeed with almost no backtracking, so many
    tiny attempts beat a few large ones.  With rng the first attempt is
    already randomized (for sampling); without, the first attempt is the
    deterministic order.  Attempts are metered by the caller's meter type.
    """
    cutoff = 200 + 12 * len(points)
    for attempt in range(600):
        if budget.left <= 0:
            budget.spend()
        trial = type(budget)(min(cutoff, budget.left))
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
    # a 2-regular graph is a union of cycles, so the walk is back at start
    # within n steps; it lists all n vertices only if X is one cycle
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
    index, nbrs = _shape(points)
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
