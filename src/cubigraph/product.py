"""Geometric product of cubical presheaves and triangulation into simplicial
presheaves.

Product cells are canonical triples ((p, x), (q, y), e): x a nondegenerate
p-cell of X, y a nondegenerate q-cell of Y, and e a degeneracy/connection
composite [1]^n -> [1]^(p+q).  An arbitrary morphism acts by composing into
e, splitting off the face part (which distributes over the two factors
because faces only insert constants), acting on each factor, and re-rooting.

Triangulation is the colimit of k-simplex chains over the category of
elements: every n-cell contributes the simplices of (interval)^n, glued by
the generator actions via a union-find pass.
"""

from __future__ import annotations

from . import site as st
from .presheaf import PresheafMap, _from_images, _UnionFind
from .site import CubeMorphism, SimplexMorphism, cube_compose, cube_tensor


def _split_face(mono, p):
    """Split a constant-inserting map [1]^r -> [1]^(p+q) across the marker p."""
    left, right = [], []
    seen_vars = 0
    for j, t in enumerate(mono.coords):
        slot = left if j < p else right
        if t[0] == "c":
            slot.append(t)
        else:
            seen_vars += 1
            slot.append(("v", seen_vars))
    r1 = sum(1 for t in left if t[0] != "c")
    right = [
        t if t[0] == "c" else ("v", t[1] - r1) for t in right
    ]
    return CubeMorphism(r1, tuple(left)), CubeMorphism(
        mono.source_dim - r1, tuple(right)
    )


def _normalize_triple(X, Y, p, x, q, y, f):
    """Canonical product cell for the raw datum (x, y) . f."""
    mono, epi = st.cube_mono_epi(f)
    m1, m2 = _split_face(mono, p)
    x1 = X.act(x, p, m1) if not m1.is_identity() else x
    y1 = Y.act(y, q, m2) if not m2.is_identity() else y
    x0, p0, e1 = X.root(x1, m1.source_dim)
    y0, q0, e2 = Y.root(y1, m2.source_dim)
    e = cube_compose(cube_tensor(e1, e2), epi)
    return ((p0, x0), (q0, y0), e)


def geometric_product(X, Y, trunc_dim=None):
    if X.site != "cubical" or Y.site != "cubical":
        raise ValueError("geometric product requires cubical presheaves")
    if trunc_dim is None:
        trunc_dim = min(X.trunc_dim + Y.trunc_dim, max(X.trunc_dim, Y.trunc_dim) + 2)
    cells = {}
    for n in range(trunc_dim + 1):
        out = []
        for p in range(min(n, X.trunc_dim) + 1):
            for q in range(min(n - p, Y.trunc_dim) + 1):
                epis = st.all_cube_epis(n, p + q)
                for x in X.nondeg(p):
                    for y in Y.nondeg(q):
                        for e in epis:
                            out.append(((p, x), (q, y), e))
        cells[n] = tuple(out)

    def image(key, g, cell):
        (p, x), (q, y), e = cell
        return _normalize_triple(X, Y, p, x, q, y, cube_compose(e, g))

    return _from_images("cubical", trunc_dim, cells, image)


def end_inclusion(X, P, interval, eps):
    """The map X -> P = X (x) interval picking the end vertex eps."""
    vert = None
    for v in interval.cells[0]:
        if v.coords[0] == ("c", eps):
            vert = v
    comps = {}
    for d in X.dims():
        comps[d] = {}
        for c in X.cells[d]:
            r, rd, e = X.root(c, d)
            comps[d][c] = ((rd, r), (0, vert), e)
    return PresheafMap(X, P, comps)


def product_projection(X, P):
    """The map P = X (x) interval -> X collapsing the interval factor."""
    comps = {}
    for n in P.dims():
        comps[n] = {}
        for cell in P.cells[n]:
            (p, x), (q, y), e = cell
            proj = CubeMorphism(p + q, tuple(("v", j) for j in range(1, p + 1)))
            comps[n][cell] = X.act(x, p, cube_compose(proj, e))
    return PresheafMap(P, X, comps)


def cylinder(X):
    """(X (x) interval, end inclusions i0, i1, projection)."""
    from .presheaf import representable

    interval = representable("cubical", 1, X.trunc_dim)
    P = geometric_product(X, interval, trunc_dim=X.trunc_dim)
    i0 = end_inclusion(X, P, interval, 0)
    i1 = end_inclusion(X, P, interval, 1)
    return P, i0, i1, product_projection(X, P)


# ---------------------------------------------------------------------------
# triangulation


def _chains(n, k):
    """Monotone maps [k] -> {0,1}^n, the k-simplices of (interval)^n."""
    out = []

    def go(prefix, last):
        if len(prefix) == k + 1:
            out.append(tuple(prefix))
            return
        for v in _points_above(last, n):
            go(prefix + [v], v)

    if k < 0:
        return []
    for v0 in _all_points(n):
        go([v0], v0)
    return out


def _all_points(n):
    import itertools

    return list(itertools.product((0, 1), repeat=n))


def _points_above(v, n):
    import itertools

    return [
        w for w in itertools.product((0, 1), repeat=n) if all(a <= b for a, b in zip(v, w))
    ]


def triangulate(X, trunc_dim=None):
    """Left extension of [1]^n -> (interval simplicial set)^n along cells."""
    if X.site != "cubical":
        raise ValueError("triangulation takes a cubical presheaf")
    if trunc_dim is None:
        trunc_dim = X.trunc_dim
    D = trunc_dim
    order = {}
    chain_cache = {(n, k): _chains(n, k) for n in range(X.trunc_dim + 1) for k in range(D + 1)}
    for n in X.dims():
        for x in X.cells[n]:
            for k in range(D + 1):
                for s in chain_cache[(n, k)]:
                    order[(k, n, x, s)] = len(order)
    nodes = list(order)
    classes = _UnionFind()  # over creation-order ints
    find = classes.find

    for n in X.dims():
        for key, g in st.CUBICAL.generators(n, X.trunc_dim):
            a = g.source_dim
            table = X.action[(key, n)]
            for x, t in zip(X.cells[n], table):
                y = X.cells[a][t]
                for k in range(D + 1):
                    for s in chain_cache[(a, k)]:
                        gs = tuple(g.evaluate(v) for v in s)
                        classes.union(order[(k, a, y, s)], order[(k, n, x, gs)])

    # each class is named by its earliest node, so the roots in creation
    # order are the cells in stored order
    cells = {k: [] for k in range(D + 1)}
    for j, node in enumerate(nodes):
        if find(j) == j:
            cells[node[0]].append(node)

    def image(key, g, cell):
        _, n, x, s = cell
        face = (g.source_dim, n, x, tuple(s[v] for v in g.values))
        return nodes[find(order[face])]

    return _from_images("simplicial", D, cells, image)
