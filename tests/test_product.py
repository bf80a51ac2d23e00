"""Geometric product, cylinders, and triangulation."""

import hashlib
import json
import random

import pytest

from cubigraph import presheaf as ps
from cubigraph import product as pr
from cubigraph import site as st


def test_product_of_intervals_is_square():
    I = ps.representable("cubical", 1, 1)
    P = pr.geometric_product(I, I, trunc_dim=2)
    P.validate()
    sq = ps.representable("cubical", 2, 2)
    ok, _ = ps.is_isomorphic(P, sq)
    assert ok


def test_product_with_point_is_identity():
    I = ps.representable("cubical", 1, 1)
    pt = ps.build_standard("cube", 0, trunc_dim=1).realized
    P = pr.geometric_product(I, pt, trunc_dim=1)
    ok, _ = ps.is_isomorphic(P, I)
    assert ok
    Q = pr.geometric_product(pt, I, trunc_dim=1)
    ok, _ = ps.is_isomorphic(Q, I)
    assert ok


def test_product_cell_counts_square_times_interval():
    sq = ps.representable("cubical", 2, 2)
    I = ps.representable("cubical", 1, 2)
    P = pr.geometric_product(sq, I, trunc_dim=3)
    P.validate()
    cube = ps.representable("cubical", 3, 3)
    assert [len(P.nondeg(d)) for d in P.dims()] == [
        len(cube.nondeg(d)) for d in cube.dims()
    ]


def test_cylinder_ends_and_projection():
    sq = ps.representable("cubical", 2, 2)
    P, i0, i1, proj = pr.cylinder(sq)
    assert i0.is_valid() and i1.is_valid() and proj.is_valid()
    ident = ps.identity_map(sq)
    assert proj.compose(i0) == ident
    assert proj.compose(i1) == ident
    assert i0 != i1


def test_triangulate_interval():
    I = ps.representable("cubical", 1, 1)
    T = pr.triangulate(I)
    T.validate()
    tri1 = ps.representable("simplicial", 1, 1)
    ok, _ = ps.is_isomorphic(T, tri1)
    assert ok


def test_triangulate_square_counts():
    sq = ps.representable("cubical", 2, 2)
    T = pr.triangulate(sq)
    T.validate()
    # two triangles glued along the diagonal
    assert [len(T.nondeg(d)) for d in T.dims()] == [4, 5, 2]


def test_triangulate_point():
    pt = ps.build_standard("cube", 0).realized
    T = pr.triangulate(pt)
    assert [len(T.nondeg(d)) for d in T.dims()] == [1]


def test_triangulate_rejects_simplicial_input():
    tri = ps.representable("simplicial", 1, 1)
    with pytest.raises(ValueError):
        pr.triangulate(tri)


# the label-keyed constructions, kept as the oracles of the index-keyed
# ones: every cell is a label, every image is computed per cell and found
# by its label


def _oracle_split_face(mono, p):
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
    right = [t if t[0] == "c" else ("v", t[1] - r1) for t in right]
    return (st.CubeMorphism(r1, tuple(left)),
            st.CubeMorphism(mono.source_dim - r1, tuple(right)))


def _oracle_normalize(X, Y, p, x, q, y, f):
    mono, epi = st.cube_mono_epi(f)
    m1, m2 = _oracle_split_face(mono, p)
    x1 = X.act(x, p, m1) if not m1.is_identity() else x
    y1 = Y.act(y, q, m2) if not m2.is_identity() else y
    x0, p0, e1 = X.root(x1, m1.source_dim)
    y0, q0, e2 = Y.root(y1, m2.source_dim)
    e = st.cube_compose(st.cube_tensor(e1, e2), epi)
    return ((p0, x0), (q0, y0), e)


def _oracle_product(X, Y, trunc_dim):
    cells = {}
    for n in range(trunc_dim + 1):
        cells[n] = tuple(
            ((p, x), (q, y), e)
            for p in range(min(n, X.trunc_dim) + 1)
            for q in range(min(n - p, Y.trunc_dim) + 1)
            for x in X.nondeg(p)
            for y in Y.nondeg(q)
            for e in st.all_cube_morphisms(n, p + q)
            if st.cube_is_epi_type(e)
        )

    def image(key, g, cell):
        (p, x), (q, y), e = cell
        return _oracle_normalize(X, Y, p, x, q, y, st.cube_compose(e, g))

    return ps._from_images("cubical", trunc_dim, cells, image)


def _oracle_classes(X, D):
    """Every (k, n, x, s) with x an n-cell of X and s a k-chain of [1]^n,
    k <= D, in creation order, and the union-find classes of their
    indices under the generator actions of X."""
    chains = {(n, k): pr._chains(n, k) for n in X.dims() for k in range(D + 1)}
    order = {}
    for n in X.dims():
        for x in X.cells[n]:
            for k in range(D + 1):
                for s in chains[(n, k)]:
                    order[(k, n, x, s)] = len(order)
    classes = ps._UnionFind()
    for n in X.dims():
        for key, g in st.CUBICAL.generators(n, X.trunc_dim):
            a = g.source_dim
            for x in X.cells[n]:
                y = X.act_gen(key, n, x)
                for k in range(D + 1):
                    for s in chains[(a, k)]:
                        gs = tuple(g.evaluate(v) for v in s)
                        classes.union(order[(k, a, y, s)], order[(k, n, x, gs)])
    return order, classes


def _oracle_triangulate(X, D, order, classes):
    """The simplicial presheaf of the classes of _oracle_classes(X, D),
    each named by its least node."""
    nodes = list(order)
    cells = {k: [] for k in range(D + 1)}
    for j, node in enumerate(nodes):
        if classes.find(j) == j:
            cells[node[0]].append(node)

    def image(key, g, cell):
        _, n, x, s = cell
        face = (g.source_dim, n, x, tuple(s[v] for v in g.values))
        return nodes[classes.find(order[face])]

    return ps._from_images("simplicial", D, cells, image)


def _oracle_inputs():
    out = [ps.build_standard(kind, k, i, eps, trunc_dim=3).realized
           for kind, k, i, eps in [
               ("cube", 0, None, None), ("cube", 1, None, None),
               ("cube", 2, None, None), ("cube", 3, None, None),
               ("boundary_cube", 2, None, None), ("open_box", 2, 1, 0)]]
    out.append(ps.build_standard("cube", 0, trunc_dim=0).realized)
    out += _degenerate_face_inputs()
    rng = random.Random(7)
    out += [ps.random_presheaf("cubical", rng.choice((1, 2)), rng,
                               max_nondeg=10) for _ in range(6)]
    out += [ps.random_presheaf("cubical", 3, rng, max_nondeg=12)
            for _ in range(2)]
    out += _collapsed_draws(random.Random(11), 3)
    return out


def _collapsed_draws(rng, count):
    """random_presheaf draws, each quotiented by identifying an edge of a
    nondegenerate square with the degenerate edge on one of its ends, so
    that the square's face roots at a non-identity epi.  random_presheaf
    itself only identifies vertices, so none of its draws has such a
    face."""
    out = []
    while len(out) < count:
        X = ps.random_presheaf("cubical", 2, rng, max_nondeg=10)
        faces = [key for key, _ in X.generators_at(2) if key[0] == "face"]
        edges = [X.act_gen(key, 2, s) for s in X.nondeg(2) for key in faces]
        edges = [e for e in edges if X.root(e, 1)[1] == 1]
        if not edges:
            continue
        x = rng.choice(edges)
        v = X.act_gen(("face", 1, rng.randint(0, 1)), 1, x)
        out.append(ps.quotient(X, [(1, x, X.act_gen(("deg", 1), 0, v))])[0])
    return out


def _degenerate_face_inputs():
    """The square with an edge collapsed to a vertex, and the 3-cube with
    a face collapsed onto an edge by the max-connection: nondegenerate
    cells with degenerate faces, which the quotients of standard cells
    by vertex pairs never have."""
    C = st.CubeMorphism
    square = ps.build_standard("cube", 2, trunc_dim=2).realized
    cube = ps.build_standard("cube", 3, trunc_dim=3).realized
    edge_to_vertex = (1, C(1, (("c", 0), ("v", 1))),
                      C(1, (("c", 0), ("c", 0))))
    face_to_edge = (2, C(2, (("v", 1), ("v", 2), ("c", 0))),
                    C(2, (("max", (("v", 1), ("v", 2))), ("c", 0), ("c", 0))))
    return [ps.quotient(square, [edge_to_vertex])[0],
            ps.quotient(cube, [face_to_edge])[0]]


def _triangulation_cases():
    """Each oracle input at its own truncation and at one below and one
    above it."""
    for X in _oracle_inputs():
        for D in range(max(X.trunc_dim - 1, 0), X.trunc_dim + 2):
            yield X, D


def _same(A, B):
    assert A.to_json() == B.to_json()
    assert A.cells == B.cells


@pytest.fixture(scope="module")
def oracle_classes():
    """(X, D, order, classes) for each of _triangulation_cases(), with
    _oracle_classes(X, D) built once for the two tests that read it."""
    return [(X, D, *_oracle_classes(X, D)) for X, D in _triangulation_cases()]


def test_triangulate_agrees_with_label_oracle(oracle_classes):
    for X, D, order, classes in oracle_classes:
        T = pr.triangulate(X, D if D != X.trunc_dim else None)
        _same(T, _oracle_triangulate(X, D, order, classes))


def test_every_gluing_class_has_one_normal_form(oracle_classes):
    """The normal-form lemma on the union-find colimit: the least node of
    every class is a nondegenerate cell with a chain from 0...0 to 1...1,
    and there are as many classes as such pairs."""
    for X, D, order, classes in oracle_classes:
        nondeg = {n: set(X.nondeg(n)) for n in X.dims()}
        normal = [
            x in nondeg[n] and s[0] == (0,) * n and s[-1] == (1,) * n
            for _, n, x, s in order
        ]
        least = [j for j in range(len(order)) if classes.find(j) == j]
        assert all(normal[j] for j in least)
        assert len(least) == sum(normal)


def test_geometric_product_agrees_with_label_oracle():
    edge = ps.build_standard("cube", 1, trunc_dim=2).realized
    boundary = ps.build_standard("boundary_cube", 2, trunc_dim=2).realized
    square = ps.build_standard("cube", 2, trunc_dim=3).realized
    _same(pr.geometric_product(square, edge, 4),
          _oracle_product(square, edge, 4))
    for X in _oracle_inputs():
        for Y in (edge, boundary, X):
            td = min(X.trunc_dim + Y.trunc_dim, 3)
            _same(pr.geometric_product(X, Y, td),
                  _oracle_product(X, Y, td))


def test_face_splits_match_the_uncached_split():
    """The split tables against _split_face of e . g computed afresh,
    with the epi part read back through its index j, and the per-process
    numbered tables against the split tables, for every generator acting
    on n-cells, n <= 5, and every block p + q <= n."""
    for n in range(6):
        for key, g in st.cube_generators(n, n + 1):
            for p in range(n + 1):
                for q in range(n - p + 1):
                    epis = st.all_cube_epis(n, p + q)
                    splits = pr._face_splits(key, n, p, q)
                    assert len(splits) == len(epis)
                    lefts, rights, rows = pr._numbered_splits(key, n, p, q)
                    assert len(set(lefts)) == len(lefts)
                    assert len(set(rights)) == len(rights)
                    assert [(lefts[a], rights[b], j) for a, b, j in rows] \
                        == list(splits)
                    for e, (m1, m2, j) in zip(epis, splits):
                        eg = st.cube_compose(e, g)
                        epi = st.all_cube_epis(
                            g.source_dim, m1.source_dim + m2.source_dim)[j]
                        assert (m1, m2, epi) == pr._split_face(eg, p)
                        assert st.cube_compose(
                            st.cube_tensor(m1, m2), epi) == eg


def test_geometric_product_is_the_same_after_other_products():
    """A product made after products of other presheaves of the same
    truncations, which read the same split tables, equals the first."""
    square = ps.build_standard("cube", 2, trunc_dim=3).realized
    edge = ps.build_standard("cube", 1, trunc_dim=3).realized
    first = pr.geometric_product(square, edge, 4)
    rng = random.Random(3)
    for X, Y in [
        (ps.build_standard("boundary_cube", 2, trunc_dim=3).realized,
         ps.build_standard("open_box", 2, 1, 0, trunc_dim=3).realized),
        (ps.random_presheaf("cubical", 3, rng, max_nondeg=8), edge),
    ]:
        pr.geometric_product(X, Y, 4)
    _same(pr.geometric_product(square, edge, 4), first)


def test_geometric_product_square_times_edge_is_pinned():
    """square x edge at the default truncation 5, beyond the label
    oracle's reach, keeps the bytes of its JSON document."""
    square = ps.build_standard("cube", 2, trunc_dim=3).realized
    edge = ps.build_standard("cube", 1, trunc_dim=3).realized
    P = pr.geometric_product(square, edge)
    assert P.trunc_dim == 5
    digest = hashlib.sha256(
        json.dumps(P.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest.startswith("ae9411909ae5")
