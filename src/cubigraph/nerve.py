"""The nerve of a reflexive graph as a cubical presheaf, computed on
bounded fragments.

A k-cube of the nerve is a graph map out of the k-fold box power of the
bi-infinite interval that is eventually constant in every direction.  Such a
map is stored as a `StableCube`: its values on the grid [-M, M]^k for the
least M at which clamping reproduces the whole map (the trimmed normal
form); evaluation outside the grid clamps coordinates.  Operators are the
site's generators evaluated on grid points, constants 0 and 1 placed at -M
and M, which gives the grid formulas: faces freeze a coordinate at
(2*eps-1)*M, degeneracies drop a coordinate, connections merge two
coordinates by max (eps = 0) or min (eps = 1).  Every point of the result
grid lands on a point of the source grid at the same support, so each
operator is one index gather on a table compiled once per (generator, k,
M); results are re-trimmed by a per-(k, M) table of each boundary point's
clamp one step in.

The cubes of a fragment and the open-box lifting problems of the bounded
fibration check, with their fillers, are labelings solved by `grid`.  The
check runs on int masks from the first problem to the last, on bit tables
of the map built once per check, and turns masks into vertex labels only
in a counterexample report.  It gives explicit three-valued verdicts; a
filler miss inside the configured support cap is a
counterexample-within-bounds, never an unbounded claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .grid import (BudgetExceeded, _as_labels, _boundary_points, _box_region,
                   _clamp, _cycle_filler, _cycle_order, _graph_bits, _grid,
                   _index, _restart_solve, _shape, _solve, _take)


class Budget:
    """A shared work counter; spend() raises once the allowance is gone.

    It stays here, not in `grid`, because the bench tracer hooks
    nerve.Budget.__init__ to find a fibration check's shared meter."""

    def __init__(self, allowance):
        self.allowance = allowance
        self.left = allowance

    def spend(self, amount=1):
        self.left -= amount
        if self.left < 0:
            raise BudgetExceeded(f"work budget {self.allowance} exhausted")


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
    _, nbrs = _shape(tuple(_grid(M, k)))
    return tuple((a, b) for a, ns in enumerate(nbrs) for b in ns if a < b)


def is_cube_of(c, graph):
    """Check the stable-cube invariant against a graph: values on the grid
    form a graph map for the box adjacency."""
    vals = c.values
    edges = _grid_edges(c.dim, c.support)
    return all(v in graph.adj for v in vals) and all(
        graph.adjacent(vals[a], vals[b]) for a, b in edges
    )


@lru_cache(maxsize=512)
def _generator_gather(key, k, M):
    """The result dimension of generator key on a k-cube of support M, and
    the gather taking the cube's values to the result's on [-M, M]^dim: at
    t, the value at the site generator's terms evaluated at t, a constant
    (canonical terms hold them only at the top) placed at -M or M."""
    # imported here, as in nerve_fragment and nerve_map: psi-check loads
    # this module for Budget alone, and site and presheaf not at all
    from . import site as st

    g = dict(st.cube_generators(k, k + 1))[key]

    def source(t):
        return tuple((2 * c[1] - 1) * M if c[0] == "c" else st.term_eval(c, t)
                     for c in g.coords)

    return g.source_dim, _take([_index(source(t), M)
                                for t in _grid(M, g.source_dim)])


def _apply_generator(c, key):
    dim, gather = _generator_gather(key, c.dim, c.support)
    return _trimmed(dim, c.support, gather(c.values))


def enumerate_cubes(X, k, M_max, budget=None):
    """All trimmed stable k-cubes of X with support <= M_max: the trims of
    the labelings of [-M_max, M_max]^k, each cube's clamped extension."""
    if budget is None:
        budget = Budget(10 ** 6)
    points = tuple(_grid(M_max, k))
    verts, _, closed = _graph_bits(X)
    value = {1 << j: v for j, v in enumerate(verts)}.__getitem__
    domains = [(1 << len(verts)) - 1] * len(points)
    return [
        _trimmed(k, M_max, tuple(map(value, sol)))
        for sol in _solve(_shape(points)[1], domains, closed, budget=budget)
    ]


def nerve_fragment(X, D, M_max, budget=10 ** 6):
    """The nerve of X as a finite presheaf: all trimmed cubes of dimension
    <= D and support <= M_max, with the operator actions.

    The cube set is closed under every operator because faces, degeneracies
    and connections never raise support.
    """
    from .presheaf import _from_images

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
    from .presheaf import PresheafMap

    image = f.assignment.__getitem__
    comps = {
        k: {c: _trimmed(k, c.support, tuple(map(image, c.values)))
            for c in NX.cells[k]}
        for k in NX.dims()
    }
    return PresheafMap(NX, NY, comps)


# ---------------------------------------------------------------------------
# bounded open-box lifting for graph maps


def _member_points(k, M, into_boundary):
    """The points a member's w labels at support M: the grid [-M, M]^k,
    or its boundary for a boundary-target member."""
    return _boundary_points(k, M) if into_boundary else tuple(_grid(M, k))


@lru_cache(maxsize=256)
def _filler_table(k, i, eps, M, slack, into_boundary):
    """Index tables of the filler problems of one member.

    The filler grid is [-Ms, Ms]^k, Ms = M + slack (its boundary for a
    boundary-target member), and its free points are those off the open
    box (i, eps) at support Ms.  Returns the free points' neighbour lists
    (points in grid order), each one's w index (of its clamp into
    [-M, M]^k) and u indices (of the distinct clamps of its box-adjacent
    points on the open box); then, for the cycle path, the filler grid's
    neighbour lists and the (point, u index) pairs of its open box.
    """
    Ms = M + slack
    region = set(_box_region(k, i, eps, Ms))
    points = _member_points(k, Ms, into_boundary)
    index, nbrs = _shape(points)
    w_index = _shape(_member_points(k, M, into_boundary))[0]
    u_index = _shape(_box_region(k, i, eps, M))[0]
    free = tuple(t for t in points if t not in region)
    u_at = tuple(
        tuple(sorted({u_index[_clamp(points[j], M)] for j in nbrs[index[t]]
                      if points[j] in region}))
        for t in free
    )
    return (_shape(free)[1], tuple(w_index[_clamp(t, M)] for t in free),
            u_at, nbrs, tuple((index[t], u_index[_clamp(t, M)])
                              for t in _box_region(k, i, eps, Ms)))


class FibrationReport:
    def __init__(self, verdict, detail):
        self.verdict = verdict  # yes_on_tested_range | counterexample | inconclusive
        self.detail = detail

    def __repr__(self):
        return f"FibrationReport({self.verdict})"


def _map_bits(f):
    """The bit tables of f for one fibration check (see grid._graph_bits):
    the source's vertices and closed masks, the target's, the image bit
    of each source bit, the fibre mask over each target bit, and the
    source's cycle order as bits if it is a cycle of length >= 5."""
    xverts, xbit, xclosed = _graph_bits(f.source)
    yverts, ybit, yclosed = _graph_bits(f.target)
    image = {xbit[x]: ybit[f.assignment[x]] for x in xverts}
    fibre = dict.fromkeys(ybit.values(), 0)
    for b, c in image.items():
        fibre[c] |= b
    order = _cycle_order(f.source)
    # length >= 5 only: four unit steps cannot wrap such a cycle, so
    # labelings of simply connected regions lift to integer heights
    cycle = [xbit[v] for v in order] if order and len(order) >= 5 else None
    return xverts, xclosed, yverts, yclosed, image, fibre, cycle


def _member_problems(fb, k, i, eps, M, into_boundary, rng, samples, budget):
    """Yield (u, w) pairs for one generating-set member, given f's bit
    tables fb (see _map_bits).

    u labels the open-box region with source-graph vertices; w labels the
    full grid (or the boundary, for the boundary-target member) downstairs,
    frozen to f(u) over the box region.  Both are lists of one-bit masks
    aligned with the open box and the w points, in grid order.
    """
    xverts, xclosed, yverts, yclosed, image, _, _ = fb
    region = _box_region(k, i, eps, M)
    u_nbrs = _shape(region)[1]
    w_index, w_nbrs = _shape(_member_points(k, M, into_boundary))
    at = [w_index[t] for t in region]
    u_domains = [(1 << len(xverts)) - 1] * len(region)
    # a sampled u or w is None when the search certifies there is none
    us = (_solve(u_nbrs, u_domains, xclosed, budget=budget) if rng is None
          else [_restart_solve(u_nbrs, u_domains, xclosed, budget, rng)
                for _ in range(samples)])
    for u in (u for u in us if u is not None):
        domains = [(1 << len(yverts)) - 1] * len(w_nbrs)
        for j, b in zip(at, u):
            domains[j] = image[b]
        ws = (_solve(w_nbrs, domains, yclosed, budget=budget) if rng is None
              else [_restart_solve(w_nbrs, domains, yclosed, budget, rng)])
        for w in (w for w in ws if w is not None):
            yield u, w


def _find_filler(fb, k, i, eps, M, slack, u, w, into_boundary, budget):
    """Search a lift at support M + slack for the member problem (u, w);
    None if none exists.

    On the open box the lift is u composed with clamping into [-M, M]^k,
    which is already a graph map there, so only the free points of
    _filler_table are searched.  A free point's domain is the fibre over
    w at its clamp, cut to the closed neighbourhoods of u's values at the
    clamps of its neighbours on the box; the free-point problem has the
    same solutions as the one on the whole filler grid.  Returns one-bit
    masks aligned with the free points, or with all filler points for the
    exact cycle path, which labels the box too, with u's clamped values.
    """
    _, xclosed, _, _, _, fibre, cycle = fb
    free_nbrs, w_at, u_at, nbrs, box = _filler_table(
        k, i, eps, M, slack, into_boundary)
    # exact path for cycle-valued problems on simply connected regions
    # (full grids, or cube boundaries of dimension >= 3) with free fibers
    if cycle is not None and (not into_boundary or k >= 3) and all(
        fibre[w[c]] == (1 << len(cycle)) - 1 for c in w_at
    ):
        decided = _cycle_filler(cycle, nbrs, [(p, u[j]) for p, j in box])
        if decided is not None:
            verdict, table = decided
            return table if verdict == "labeling" else None
    domains = []
    for c, near in zip(w_at, u_at):
        dom = fibre[w[c]]
        for j in near:
            dom &= xclosed[u[j]]
        domains.append(dom)
    return _restart_solve(free_nbrs, domains, xclosed, budget)


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
    # imported here: nerve-stats and psi-check do not load lifting
    from .lifting import generating_set

    tested = 0
    sampled = False
    shared = Budget(budget)
    fb = _map_bits(f)
    try:
        for spec in generating_set("J_n_prime_cubical", n).member_specs:
            shape, k, i, eps = spec["shape"], spec["k"], spec["i"], spec["eps"]
            into_bd = shape == "box_into_boundary"
            rng = random.Random(seed) if k >= sample_dim_from else None
            if rng is not None:
                sampled = True
            for u, w in _member_problems(
                fb, k, i, eps, M_max, into_bd, rng, samples, shared
            ):
                tested += 1
                filler = _find_filler(
                    fb, k, i, eps, M_max, slack, u, w, into_bd, shared
                )
                if filler is None:
                    return FibrationReport(
                        "counterexample",
                        {
                            "member": (shape, k, i, eps),
                            "support": M_max,
                            "filler_support_cap": M_max + slack,
                            "u": _as_labels(_box_region(k, i, eps, M_max),
                                            u, fb[0]),
                            "w": _as_labels(_member_points(k, M_max, into_bd),
                                            w, fb[2]),
                            "tested": tested,
                        },
                    )
    except BudgetExceeded as exc:
        return FibrationReport("inconclusive", {"reason": str(exc), "tested": tested})
    return FibrationReport(
        "yes_on_tested_range",
        {"tested": tested, "support": M_max, "slack": slack, "sampled": sampled},
    )
