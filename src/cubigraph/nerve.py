"""The nerve of a reflexive graph as a cubical presheaf, computed on
bounded fragments.

A k-cube of the nerve is a graph map out of the k-fold box power of the
bi-infinite interval that is eventually constant in every direction.  Such a
map is stored as a `StableCube`: its values on the grid [-M, M]^k for the
least M at which clamping reproduces the whole map (the trimmed normal
form); evaluation outside the grid clamps coordinates.  Operators follow
the grid formulas: faces freeze a coordinate at (2*eps-1)*M, degeneracies
drop a coordinate, connections merge two coordinates by max (eps = 0) or
min (eps = 1); results are re-trimmed.

The bounded fibration check poses open-box lifting problems directly as
grid constraint problems, with explicit three-valued verdicts; a filler
miss inside the configured support cap is a counterexample-within-bounds,
never an unbounded claim.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from . import site as st
from .presheaf import FinitePresheaf, PresheafMap


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


@dataclass(frozen=True)
class StableCube:
    dim: int
    support: int
    values: tuple  # aligned with _grid(support, dim)

    def value(self, t):
        g = _clamp(t, self.support)
        idx = 0
        W = 2 * self.support + 1
        for x in g:
            idx = idx * W + (x + self.support)
        return self.values[idx]

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


def make_cube(k, M, func):
    """Build the trimmed StableCube for values given on [-M, M]^k."""
    table = {t: func(t) for t in _grid(M, k)}
    while M > 0:
        inner = M - 1
        if all(table[t] == table[_clamp(t, inner)] for t in _grid(M, k)):
            table = {t: table[t] for t in _grid(inner, k)}
            M = inner
        else:
            break
    return StableCube(k, M, tuple(table[t] for t in _grid(M, k)))


def constant_cube(k, vertex):
    return StableCube(k, 0, (vertex,))


def is_cube_of(c, graph):
    """Check the stable-cube invariant against a graph: values on the grid
    form a graph map for the box adjacency."""
    M, k = c.support, c.dim
    for t in _grid(M, k):
        v = c.value(t)
        if v not in graph.adj:
            return False
        for axis in range(k):
            if t[axis] < M:
                s = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
                if not graph.adjacent(v, c.value(s)):
                    return False
    return True


def _apply_generator(c, key):
    k, M = c.dim, c.support
    kind = key[0]
    if kind == "face":
        _, i, eps = key
        frozen = (2 * eps - 1) * M

        def f(t):
            return c.value(t[: i - 1] + (frozen,) + t[i - 1:])

        return make_cube(k - 1, M, f)
    if kind == "deg":
        _, i = key

        def f(t):
            return c.value(t[: i - 1] + t[i:])

        return make_cube(k + 1, M, f)
    if kind == "conn":
        _, i, eps = key
        op = max if eps == 0 else min

        def f(t):
            merged = op(t[i - 1], t[i])
            return c.value(t[: i - 1] + (merged,) + t[i + 1:])

        return make_cube(k + 1, M, f)
    raise ValueError(f"unknown generator {key!r}")


def nerve_operator(c, m):
    """Act on a stable cube by an arbitrary cube-category morphism
    m: [1]^a -> [1]^{c.dim}, via generator factorization."""
    if m.target_dim != c.dim:
        raise ValueError("dimension mismatch")
    cur = c
    for g in st.cube_factor(m):
        key, _ = st.CUBICAL.generator_key(g)
        cur = _apply_generator(cur, key)
    return cur


def enumerate_cubes(X, k, M_max, budget=None):
    """All trimmed stable k-cubes of X with support <= M_max."""
    if budget is None:
        budget = Budget(10 ** 6)
    out = []
    for M in range(M_max + 1):
        points = _grid(M, k)
        for table in _labelings(X, points, {}, budget=budget):
            c = make_cube(k, M, lambda t: table[t])
            if c.support == M:
                out.append(c)
    return out


def _bfs_distances(nbrs, start):
    """Breadth-first distances from start; nbrs[a] lists a's neighbours."""
    dist = {start: 0}
    dq = deque([start])
    while dq:
        a = dq.popleft()
        for b in nbrs[a]:
            if b not in dist:
                dist[b] = dist[a] + 1
                dq.append(b)
    return dist


@lru_cache(maxsize=64)
def _graph_distances(X):
    """All-pairs shortest-path distances, cached per graph object (graphs
    hash by identity)."""
    return {v: _bfs_distances(X.adj, v) for v in X.vertices}


def _labelings(X, points, frozen, allowed=None, rng=None, limit=None,
               budget=None):
    """Graph-map labelings of a point set with box adjacency.

    Solved as a constraint problem with arc-consistency propagation and
    minimum-remaining-values ordering (ties broken by point order, so
    results are deterministic).  frozen: point -> forced vertex; allowed:
    point -> permitted vertex set; rng shuffles value order (sampling);
    limit caps the number of results; budget caps search steps.
    """
    points = sorted(points)
    index, nbrs = _point_graph(points)
    n = len(points)
    closed = {v: frozenset(X.adj[v]) | {v} for v in X.vertices}
    domains = []
    for t in points:
        if t in frozen:
            dom = {frozen[t]}
        elif allowed is not None and t in allowed:
            dom = set(allowed[t])
        else:
            dom = set(X.vertices)
        domains.append(dom)

    # distance pruning: a labeling is a graph map from the (reflexive)
    # point grid, so it contracts distances -- a point at grid distance d
    # from a decided point can only take values within graph distance d
    singles = [j for j in range(n) if len(domains[j]) == 1]
    if singles and len(singles) < n:
        dist_x = _graph_distances(X)
        for j in singles:
            (vj,) = domains[j]
            dvj = dist_x[vj]
            for i, d in _bfs_distances(nbrs, j).items():
                if i == j:
                    continue
                dom = domains[i]
                for v in [v for v in dom if dvj.get(v, n + d + 1) > d]:
                    dom.discard(v)
                if not dom:
                    return []

    def propagate(queue, trail):
        """AC-3 from the queued point indices; records removals on trail."""
        while queue:
            if budget is not None:
                budget.spend()
            j = queue.pop()
            dj = domains[j]
            for i in nbrs[j]:
                di = domains[i]
                dead = [v for v in di if not any(v in closed[w] for w in dj)]
                if dead:
                    for v in dead:
                        di.discard(v)
                        trail.append((i, v))
                    if not di:
                        return False
                    queue.append(i)
        return True

    out = []
    trail0 = []
    if not propagate(list(range(n)), trail0):
        return out
    order_key = list(range(n))

    def search():
        if limit is not None and len(out) >= limit:
            return
        if budget is not None:
            budget.spend()
        best, best_size = None, None
        for j in order_key:
            size = len(domains[j])
            if size > 1 and (best_size is None or size < best_size):
                best, best_size = j, size
        if best is None:
            out.append({t: next(iter(domains[index[t]])) for t in points})
            return
        def freedom(v):
            cv = closed[v]
            return sum(
                sum(1 for w in domains[i] if w in cv) for i in nbrs[best]
            )

        cands = sorted(domains[best], key=repr)
        if rng is not None:
            rng.shuffle(cands)
        else:
            cands.sort(key=freedom, reverse=True)
        saved = domains[best]
        for v in cands:
            domains[best] = {v}
            trail = []
            if propagate([best], trail):
                search()
            for i, w in trail:
                domains[i].add(w)
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
    action = {}
    for k in range(D + 1):
        for key, g in st.CUBICAL.generators(k, D):
            action[(key, k)] = {c: _apply_generator(c, key) for c in cells[k]}
    return FinitePresheaf("cubical", D, cells, action)


def nerve_map(f, NX, NY):
    """N(f): nerve fragment of the source to that of the target."""
    comps = {}
    for k in NX.dims():
        comps[k] = {}
        for c in NX.cells[k]:
            comps[k][c] = make_cube(
                k, c.support, lambda t: f.assignment[c.value(t)]
            )
    return PresheafMap(NX, NY, comps)


# ---------------------------------------------------------------------------
# bounded open-box lifting for graph maps


def _box_region(k, i, eps, M):
    """Grid points of the open box: on some face other than (i, eps)."""
    return [
        t
        for t in _grid(M, k)
        if any(
            t[j - 1] == (2 * d - 1) * M
            for j in range(1, k + 1)
            for d in (0, 1)
            if (j, d) != (i, eps)
        )
    ]


def _boundary_points(k, M):
    """Grid points on the boundary of [-M, M]^k (all of it when M == 0)."""
    return [t for t in _grid(M, k) if M == 0 or any(abs(x) == M for x in t)]


def _pad(table, M):
    """Extend a labeling to evaluation with clamping at support M."""

    def val(t):
        return table[_clamp(t, M)]

    return val


class FibrationReport:
    def __init__(self, verdict, detail):
        self.verdict = verdict  # yes_on_tested_range | counterexample | inconclusive
        self.detail = detail

    def __repr__(self):
        return f"FibrationReport({self.verdict})"


def _restart_labelings(X, points, frozen, allowed, budget, rng=None):
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
            sols = _labelings(X, points, frozen, allowed=allowed, rng=order,
                              limit=1, budget=trial)
            budget.spend(trial.allowance - trial.left)
            return sols[0] if sols else None
        except BudgetExceeded:
            budget.spend(trial.allowance)
    sols = _labelings(X, points, frozen, allowed=allowed, limit=1,
                      budget=budget)
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
        us = _labelings(X, region, {}, budget=budget)
    else:
        us = []
        for _ in range(samples):
            got = _restart_labelings(X, region, {}, None, budget, rng=rng)
            if got is not None:
                us.append(got)
    for u in us:
        frozen = {t: f.assignment[u[t]] for t in region}
        if rng is None:
            ws = _labelings(Y, w_points, frozen, budget=budget)
        else:
            got = _restart_labelings(Y, w_points, frozen, None, budget,
                                     rng=rng)
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


def _point_graph(points):
    index = {t: j for j, t in enumerate(points)}
    nbrs = [[] for _ in points]
    for t in points:
        j = index[t]
        for axis in range(len(t)):
            for dlt in (-1, 1):
                s = t[:axis] + (t[axis] + dlt,) + t[axis + 1:]
                if s in index:
                    nbrs[j].append(index[s])
    return index, nbrs


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
    points = sorted(points)
    index, nbrs = _point_graph(points)
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
    # distances from every frozen point; Lipschitz feasibility test
    dists = {j: _bfs_distances(nbrs, j) for j in heights}
    hs = sorted(heights)
    for ai, a in enumerate(hs):
        da = dists[a]
        for b in hs[ai + 1:]:
            if b not in da or abs(heights[a] - heights[b]) > da[b]:
                return "none", None
    table = {}
    for t in points:
        j = index[t]
        best = min(
            (heights[a] + dists[a][j] for a in hs if j in dists[a]),
            default=None,
        )
        table[t] = order[best % n] if best is not None else order[0]
    return "labeling", table


def _find_filler(f, k, i, eps, M, slack, u, w, into_boundary, budget):
    """Search a lift labeling at support M + slack; None if none exists."""
    X = f.source
    Ms = M + slack
    region = _box_region(k, i, eps, Ms)
    u_val = _pad(u, M)
    w_val = _pad(w, M)
    frozen = {t: u_val(t) for t in region}
    points = _boundary_points(k, Ms) if into_boundary else _grid(Ms, k)
    fibers = {}
    for y in set(w.values()):
        fibers[y] = {x for x in X.vertices if f.assignment[x] == y}
    allowed = {
        t: fibers[w_val(t)] for t in points if t not in frozen
    }
    # exact path for cycle-valued problems on simply connected regions
    # (full grids, or cube boundaries of dimension >= 3) with free fibers
    if (not into_boundary or k >= 3) and all(
        len(a) == len(X.vertices) for a in allowed.values()
    ):
        order = _cycle_order(X)
        # length >= 5 only: four unit steps cannot wrap such a cycle, so
        # labelings of simply connected regions lift to integer heights
        if order is not None and len(order) >= 5:
            decided = _cycle_filler(order, points, frozen)
            if decided is not None:
                verdict, table = decided
                return table if verdict == "labeling" else None
    return _restart_labelings(X, points, frozen, allowed, budget)


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

    members = []
    for k in range(1, n + 2):
        for i in range(1, k + 1):
            for eps in (0, 1):
                members.append((k, i, eps, False))
    for i in range(1, n + 3):
        for eps in (0, 1):
            members.append((n + 2, i, eps, True))
    tested = 0
    sampled = False
    shared = Budget(budget)
    try:
        for k, i, eps, into_bd in members:
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
                            "member": ("box_into_boundary" if into_bd
                                       else "box_into_cell", k, i, eps),
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
