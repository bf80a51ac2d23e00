"""Geometric product of cubical presheaves and triangulation into simplicial
presheaves.

Product cells are canonical triples ((p, x), (q, y), e): x a nondegenerate
p-cell of X, y a nondegenerate q-cell of Y, and e a degeneracy/connection
composite [1]^n -> [1]^(p+q).  An arbitrary morphism acts by composing into
e, splitting off the face part (which distributes over the two factors
because faces only insert constants), acting on each factor, and re-rooting.
The splits depend on the cube category alone, so each table of them is
built once per process; a product call keys its gluing by ints.

Triangulation is the colimit of k-simplex chains over the category of
elements: every n-cell contributes the simplices of (interval)^n, glued by
the cube action.  Each class of the colimit has one normal form: a
nondegenerate cell x with a chain that runs from 0...0 to 1...1, since
cube morphisms factor uniquely as face . epi, cells root uniquely (the
cube category with connections is Eilenberg-Zilber), and an epi sends
0...0 and 1...1 to themselves.  The simplices are listed as those
normal forms, with no gluing pass.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import site as st
from .presheaf import (
    FinitePresheaf, _from_images, _map, representable,
)
from .site import CubeMorphism, cube_compose, cube_tensor


def _split_face(f, p):
    """f = (m1 (x) m2) . epi, with m1, m2 the constant-inserting parts of
    f on either side of the marker p (faces only insert constants)."""
    mono, epi = st.cube_mono_epi(f)
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
    ), epi


@lru_cache(maxsize=None)
def _epi_index(m, r):
    """epi -> its index in all_cube_epis(m, r)."""
    return {e: i for i, e in enumerate(st.all_cube_epis(m, r))}


def _face_splits(key, n, p, q):
    """Per epi e of all_cube_epis(n, p + q), in order, the split (m1, m2, j)
    of e . g, g the generator key acting on n-cells: e . g = (m1 (x) m2) .
    epi, with epi the j-th of all_cube_epis(g.source_dim, r1 + r2)."""
    g = dict(st.cube_generators(n, n + 1))[key]
    out = []
    for e in st.all_cube_epis(n, p + q):
        m1, m2, epi = _split_face(cube_compose(e, g), p)
        out.append((m1, m2, _epi_index(g.source_dim, epi.target_dim)[epi]))
    return tuple(out)


@lru_cache(maxsize=None)
def _numbered_splits(key, n, p, q):
    """_face_splits with its face parts numbered: (the distinct m1 and the
    distinct m2, each in first-seen order, and per epi (number of m1,
    number of m2, j)).  A fact of the cube category alone, so it is built
    once per process, and a product call looks up the action of each
    distinct face part once."""
    lefts, rights, rows = {}, {}, []
    for m1, m2, j in _face_splits(key, n, p, q):
        rows.append((lefts.setdefault(m1, len(lefts)),
                     rights.setdefault(m2, len(rights)), j))
    return tuple(lefts), tuple(rights), tuple(rows)


def _nondeg_roots(X, ids):
    """(d -> indices of the nondegenerate d-cells, d -> per d-cell its
    root as (position among the nondegenerate cells of its dim, id of its
    epi)); ids numbers the distinct epis, shared between the factors."""
    roots = X._root_table()
    nd = {d: [i for i, r in enumerate(roots[d]) if r[1] == d] for d in X.dims()}
    pos = {d: {i: j for j, i in enumerate(nd[d])} for d in X.dims()}
    return nd, {
        d: [(pos[rd][r], ids.setdefault(e, len(ids))) for r, rd, e in roots[d]]
        for d in X.dims()
    }


def geometric_product(X, Y, trunc_dim=None):
    """The n-cells are the triples ((p, x), (q, y), e) in block order
    (p, q), then x, y and e; a cell's index is computed from its block,
    the positions of x and y and the index of e.  The face splits of e . g
    are derived once per process per (generator g, n, p, q)
    (_numbered_splits); blocks without a nondegenerate x or y are skipped.
    The glued epi is derived once per call per (root epi ids, epi part)."""
    if X.site != "cubical" or Y.site != "cubical":
        raise ValueError("geometric product requires cubical presheaves")
    if trunc_dim is None:
        trunc_dim = min(X.trunc_dim + Y.trunc_dim, max(X.trunc_dim, Y.trunc_dim) + 2)
    ids = {}
    ndx, rootx = _nondeg_roots(X, ids)
    ndy, rooty = _nondeg_roots(Y, ids)
    root_epis = list(ids)
    # n -> its nonempty blocks (p, q); the index of a block's first cell
    blocks, first, cells = {}, {}, {}
    for n in range(trunc_dim + 1):
        blocks[n], out = [], []
        for p in range(min(n, X.trunc_dim) + 1):
            for q in range(min(n - p, Y.trunc_dim) + 1):
                epis = st.all_cube_epis(n, p + q)
                first[(n, p, q)] = len(out)
                if ndx[p] and ndy[q]:
                    blocks[n].append((p, q))
                for x in ndx[p]:
                    for y in ndy[q]:
                        for e in epis:
                            out.append(((p, X.cells[p][x]), (q, Y.cells[q][y]), e))
        cells[n] = tuple(out)

    # (root epi ids, a, j) -> (base, x stride, y stride): the re-rooted
    # cell of the nondegenerate x and y at positions i and j is
    # base + i*xs + j*ys
    glued = {}

    def glue(id1, id2, a, j):
        e1, e2 = root_epis[id1], root_epis[id2]
        p, q = e1.target_dim, e2.target_dim
        epi = st.all_cube_epis(a, e1.source_dim + e2.source_dim)[j]
        at = _epi_index(a, p + q)
        e = cube_compose(cube_tensor(e1, e2), epi)
        return first[(a, p, q)] + at[e], len(ndy[q]) * len(at), len(at)

    action = {}
    for n in range(trunc_dim + 1):
        for key, g in st.CUBICAL.generators(n, trunc_dim):
            a = g.source_dim
            row = []
            for p, q in blocks[n]:
                lefts, rights, rows = _numbered_splits(key, n, p, q)
                on_x = [(m.source_dim, X._morphism_table(m)) for m in lefts]
                on_y = [(m.source_dim, Y._morphism_table(m)) for m in rights]
                split = [on_x[u] + on_y[v] + (j,) for u, v, j in rows]
                for x in ndx[p]:
                    for y in ndy[q]:
                        for r1, t1, r2, t2, j in split:
                            xpos, id1 = rootx[r1][x if t1 is None else t1[x]]
                            ypos, id2 = rooty[r2][y if t2 is None else t2[y]]
                            hit = glued.get((id1, id2, a, j))
                            if hit is None:
                                hit = glued[(id1, id2, a, j)] = glue(id1, id2, a, j)
                            base, xs, ys = hit
                            row.append(base + xpos * xs + ypos * ys)
            action[(key, n)] = row
    return FinitePresheaf("cubical", trunc_dim, cells, action)


def end_inclusion(X, P, interval, eps):
    """The map X -> P = X (x) interval picking the end vertex eps."""
    vert = None
    for v in interval.cells[0]:
        if v.coords[0] == ("c", eps):
            vert = v
    images = []
    for d in X.dims():
        row = []
        for c in X.cells[d]:
            r, rd, e = X.root(c, d)
            row.append(P.cell_index(d, ((rd, r), (0, vert), e)))
        images.append(row)
    return _map(X, P, images)


def product_projection(X, P):
    """The map P = X (x) interval -> X collapsing the interval factor."""
    images = []
    for n in P.dims():
        row = []
        for (p, x), (q, _), e in P.cells[n]:
            proj = CubeMorphism(p + q, tuple(("v", j) for j in range(1, p + 1)))
            table = X._morphism_table(cube_compose(proj, e))
            i = X.cell_index(p, x)
            row.append(i if table is None else table[i])
        images.append(row)
    return _map(P, X, images)


def cylinder(X):
    """(X (x) interval, end inclusions i0, i1, projection)."""
    interval = representable("cubical", 1, X.trunc_dim)
    P = geometric_product(X, interval, trunc_dim=X.trunc_dim)
    i0 = end_inclusion(X, P, interval, 0)
    i1 = end_inclusion(X, P, interval, 1)
    return P, i0, i1, product_projection(X, P)


# ---------------------------------------------------------------------------
# triangulation


def _chains(n, k):
    """Monotone maps [k] -> {0,1}^n, the k-simplices of (interval)^n, in
    lexicographic order."""
    points = list(itertools.product((0, 1), repeat=n))
    chains = [(v,) for v in points]
    for _ in range(k):
        chains = [c + (w,) for c in chains for w in points
                  if all(a <= b for a, b in zip(c[-1], w))]
    return chains


def triangulate(X, trunc_dim=None):
    """Left extension of [1]^n -> (interval simplicial set)^n along cells.

    The k-simplices are the normal forms (k, n, x, s): x a nondegenerate
    n-cell and s a k-chain of [1]^n from 0...0 to 1...1, listed by n, then
    x in stored order, then s in _chains order.  A simplicial operator
    sends (k, n, x, s) to the normal form of its chain t: the coordinates
    where t starts and ends alike are constant and name a face phi of
    [1]^n, x . phi roots as r . e, and the image is (r, e . t'), t' the
    free coordinates of t.  The face and root are unique and e keeps t'
    running from 0...0 to 1...1, so each colimit class has exactly this
    one normal form, and the normal forms in this order are the classes
    in the order of their earliest (cell, chain) pair."""
    if X.site != "cubical":
        raise ValueError("triangulation takes a cubical presheaf")
    D = X.trunc_dim if trunc_dim is None else trunc_dim
    cells = {k: [] for k in range(D + 1)}
    for n in X.dims():
        ends = ((0,) * n, (1,) * n)
        interior = [
            [s for s in _chains(n, k) if (s[0], s[-1]) == ends]
            for k in range(D + 1)
        ]
        for x in X.nondeg(n):
            for k in range(D + 1):
                cells[k].extend((k, n, x, s) for s in interior[k])

    def image(_key, g, cell):
        _, n, x, s = cell
        t = [s[v] for v in g.values]
        free = [i for i in range(n) if t[0][i] != t[-1][i]]
        face = CubeMorphism(len(free), tuple(
            ("v", free.index(i) + 1) if i in free else ("c", t[0][i])
            for i in range(n)))
        r, rd, e = X.root(X.act(x, n, face), len(free))
        return (g.source_dim, rd, r,
                tuple(e.evaluate(tuple(p[i] for i in free)) for p in t))

    return _from_images("simplicial", D, cells, image)
