"""The cube and simplex categories: canonical forms, composition,
generator identities, enumeration, faithfulness."""

import itertools

import pytest

from cubigraph import site as st


def points(n):
    return list(itertools.product((0, 1), repeat=n))


def graph_of(m):
    return tuple(m.evaluate(p) for p in points(m.source_dim))


# --- canonical morphisms and evaluation ---------------------------------


def test_identity_evaluates_to_itself():
    for n in range(4):
        ident = st.cube_identity(n)
        for p in points(n):
            assert ident.evaluate(p) == p


def test_face_inserts_constant():
    d = st.cube_face(2, 1, 3)  # [1]^2 -> [1]^3 inserting 1 in slot 2
    assert d.source_dim == 2 and d.target_dim == 3
    for p in points(2):
        image = d.evaluate(p)
        assert image[1] == 1
        assert (image[0], image[2]) == p


def test_degeneracy_drops_coordinate():
    s = st.cube_degeneracy(2, 3)
    for p in points(3):
        assert s.evaluate(p) == (p[0], p[2])


def test_connections_min_max():
    for eps, fn in ((0, max), (1, min)):
        g = st.cube_connection(1, eps, 2)
        assert g.source_dim == 2 and g.target_dim == 1
        for p in points(2):
            assert g.evaluate(p) == (fn(p),)


def test_composition_matches_function_composition():
    mor22 = st.all_cube_morphisms(2, 2)
    mor21 = st.all_cube_morphisms(2, 1)
    for g in mor21:
        for f in mor22:
            gf = st.cube_compose(g, f)
            for p in points(2):
                assert gf.evaluate(p) == g.evaluate(f.evaluate(p))


def test_composition_is_canonical_nested_case():
    # max-of-min composite: the outer connection merges a variable with a
    # min-node, forcing a nested alternating term
    g10 = st.cube_connection(1, 0, 2)  # max: [1]^2 -> [1]^1
    g21 = st.cube_connection(2, 1, 3)  # min in slots 2,3: [1]^3 -> [1]^2
    comp = st.cube_compose(g10, g21)
    assert comp.source_dim == 3 and comp.target_dim == 1
    for p in points(3):
        assert comp.evaluate(p) == (max(p[0], min(p[1], p[2])),)
    assert comp.is_canonical()


def test_all_morphisms_are_canonical_and_closed_under_composition():
    for m, n in [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2)]:
        for f in st.all_cube_morphisms(m, n):
            assert f.is_canonical()
    for f in st.all_cube_morphisms(2, 1):
        for g in st.all_cube_morphisms(1, 2):
            assert st.cube_compose(g, f).is_canonical()
            assert st.cube_compose(f, g).is_canonical()


_V1, _V2, _V3 = ("v", 1), ("v", 2), ("v", 3)


@pytest.mark.parametrize("source_dim, coords", [
    (2, (("xor", (_V1, _V2)),)),  # unknown op
    (1, (("max", (_V1,)),)),  # one-child node
    (3, (("max", (("max", (_V1, _V2)), _V3)),)),  # nested same-op child
    (3, (("max", (("min", (_V1,)), _V3)),)),  # non-canonical child
    (2, (("max", (_V2, _V1)),)),  # unordered child supports
    (2, (("max", (_V1, ("min", (_V1, _V2)))),)),  # overlapping children
    (1, (_V1, _V1)),  # overlapping coordinate supports
    (2, (_V2, _V1)),  # unordered coordinate supports
    (2, (("min", (_V2, _V1)), st.CONST0)),  # unordered, beside a constant
    (1, (_V2,)),  # variable above the source dimension
    (1, (("v", 0),)),  # variable below 1
])
def test_non_canonical_cube_morphisms_are_rejected(source_dim, coords):
    assert not st.CubeMorphism(source_dim, coords).is_canonical()


@pytest.mark.parametrize("target_dim, values", [
    (1, (1, 0)),  # decreasing
    (2, (0, 2, 1)),  # decreasing after a rise
    (1, (0, 2)),  # value above the target dimension
    (1, (-1, 0)),  # negative value
])
def test_non_canonical_simplex_maps_are_rejected(target_dim, values):
    assert not st.SimplexMorphism(target_dim, values).is_canonical()


def test_every_enumerated_morphism_is_canonical():
    for m, n in itertools.product(range(4), repeat=2):
        assert all(f.is_canonical() for f in st.all_cube_morphisms(m, n))
        assert all(f.is_canonical() for f in st.all_simplex_morphisms(m, n))


# --- enumeration counts, cross-checked against a closed-form count:
# a morphism is a tuple of terms with pairwise disjoint supports that
# appear in increasing variable order across coordinates (no symmetry
# morphisms), so |hom(m,n)| sums, over the number k of non-constant
# coordinates, position/constant choices times ordered-block products
# of per-size term counts ---------------------------------------------


def formula_hom_count(m, n):
    import math

    term_counts = [0] * (m + 1)
    for size in range(1, m + 1):
        term_counts[size] = len(st._terms_on(tuple(range(1, size + 1))))

    def block_products(u, k):
        # sum over compositions u = a_1 + ... + a_k (a_i >= 1) of
        # prod term_counts[a_i]
        if k == 0:
            return 1 if u == 0 else 0
        return sum(
            term_counts[a] * block_products(u - a, k - 1)
            for a in range(1, u - k + 2)
        )

    total = 0
    for k in range(min(m, n) + 1):
        inner = sum(
            math.comb(m, u) * block_products(u, k) for u in range(k, m + 1)
        )
        total += math.comb(n, k) * 2 ** (n - k) * inner
    return total


@pytest.mark.parametrize(
    "m,n",
    [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (1, 4),
     (3, 1), (4, 1), (2, 2), (2, 3), (5, 1)],
)
def test_hom_set_sizes_match_formula(m, n):
    homs = st.all_cube_morphisms(m, n)
    assert len(homs) == formula_hom_count(m, n)
    graphs = {graph_of(f) for f in homs}
    assert len(graphs) == len(homs)  # distinct canonical forms, distinct maps


def test_pinned_hom_counts():
    assert len(st.all_cube_morphisms(1, 1)) == 3
    assert len(st.all_cube_morphisms(1, 4)) == 48
    assert len(st.all_cube_morphisms(5, 1)) == 287


def test_connection_term_shape_counts():
    # numbers of canonical one-output terms using exactly k variables: the
    # large Schroeder numbers
    counts = [len(st._terms_on(tuple(range(1, k + 1)))) for k in range(1, 7)]
    assert counts == [1, 2, 6, 22, 90, 394]


def test_terms_on_are_canonical_use_every_variable_and_differ():
    # checked without enumerating terms a second way: every term is in
    # canonical form and uses every variable, and no two agree as
    # functions on {0,1}^k
    for k in range(1, 7):
        terms = st._terms_on(tuple(range(1, k + 1)))
        graphs = set()
        for t in terms:
            assert st.CubeMorphism(k, (t,)).is_canonical()
            assert st.term_support(t) == frozenset(range(1, k + 1))
            graphs.add(tuple(st.term_eval(t, p) for p in points(k)))
        assert len(graphs) == len(terms)


def test_simplex_hom_counts():
    # monotone maps [m] -> [n]: binomial(m+n+1, m+1)
    import math

    for m in range(4):
        for n in range(4):
            expect = math.comb(m + n + 1, m + 1)
            assert len(st.all_simplex_morphisms(m, n)) == expect


# --- faithfulness: canonical forms biject with monotone maps ------------


@pytest.mark.parametrize("m,n", [(0, 2), (1, 2), (2, 2), (3, 1), (2, 3)])
def test_enumeration_faithful(m, n):
    homs = st.all_cube_morphisms(m, n)
    seen = {}
    for f in homs:
        key = graph_of(f)
        assert key not in seen, f"duplicate map {f} vs {seen[key]}"
        seen[key] = f


def test_associativity_on_small_dims():
    for dims in [(1, 2, 1, 2), (2, 1, 2, 1)]:
        a, b, c, d = dims
        for f in st.all_cube_morphisms(a, b):
            for g in st.all_cube_morphisms(b, c):
                for h in st.all_cube_morphisms(c, d):
                    left = st.cube_compose(h, st.cube_compose(g, f))
                    right = st.cube_compose(st.cube_compose(h, g), f)
                    assert left == right


# --- generator identities ------------------------------------------------


def test_cubical_identities():
    # conventions: face(i, eps, n): [1]^{n-1} -> [1]^n (n = target);
    # degeneracy(i, n) and connection(i, eps, n): [1]^n -> [1]^{n-1}
    n = 2

    # faces: d_j d_i = d_i d_{j-1} for i < j
    for j in range(1, n + 3):
        for i in range(1, j):
            for ej in (0, 1):
                for ei in (0, 1):
                    lhs = st.cube_compose(
                        st.cube_face(j, ej, n + 2), st.cube_face(i, ei, n + 1)
                    )
                    rhs = st.cube_compose(
                        st.cube_face(i, ei, n + 2),
                        st.cube_face(j - 1, ej, n + 1),
                    )
                    assert lhs == rhs

    # degeneracy after its face is the identity
    for i in range(1, n + 2):
        for eps in (0, 1):
            comp = st.cube_compose(
                st.cube_degeneracy(i, n + 1), st.cube_face(i, eps, n + 1)
            )
            assert comp == st.cube_identity(n)

    # connection after its own face is the identity
    for eps in (0, 1):
        comp = st.cube_compose(
            st.cube_connection(1, eps, 2), st.cube_face(1, eps, 2)
        )
        assert comp == st.cube_identity(1)
        # against the opposite face: still evaluates like the identity for
        # eps-face absorbed by max/min with the neutral constant
        comp = st.cube_compose(
            st.cube_connection(1, eps, 2), st.cube_face(2, eps, 2)
        )
        assert comp == st.cube_identity(1)

    # connection against the absorbing constant face collapses
    for eps in (0, 1):
        comp = st.cube_compose(
            st.cube_connection(1, eps, 2), st.cube_face(1, 1 - eps, 2)
        )
        for p in points(1):
            assert comp.evaluate(p) == (1 - eps,)

    # connections satisfy the degeneracy-style commutation
    for eps in (0, 1):
        lhs = st.cube_compose(
            st.cube_connection(1, eps, 2), st.cube_connection(2, eps, 3)
        )
        rhs = st.cube_compose(
            st.cube_connection(1, eps, 2), st.cube_connection(1, eps, 3)
        )
        fn = max if eps == 0 else min
        for p in points(3):
            assert lhs.evaluate(p) == (fn(p),)
        assert lhs == rhs

    # degeneracy absorbs its connection
    for eps in (0, 1):
        comp = st.cube_compose(
            st.cube_degeneracy(1, 1), st.cube_connection(1, eps, 2)
        )
        assert comp == st.cube_compose(
            st.cube_degeneracy(1, 1), st.cube_degeneracy(1, 2)
        )


def test_tensor_of_generators():
    f = st.cube_face(1, 0, 2)  # [1]^1 -> [1]^2, constant 0 in slot 1
    g = st.cube_identity(1)
    t = st.cube_tensor(f, g)
    assert t.source_dim == 2 and t.target_dim == 3
    for p in points(2):
        assert t.evaluate(p) == (0, p[0], p[1])


# --- factorization -------------------------------------------------------


def _rebuild(ops, f):
    """Compose the generators that ops.factor(f) names, each looked up by
    its key in the generator table of its acting dimension."""
    acc = ops.identity(f.source_dim)
    for key, d in reversed(ops.factor(f)):
        g = dict(ops.generators(d, d + 1))[key]
        assert g.target_dim == d
        acc = ops.compose(g, acc)
    return acc


def test_factor_recomposes_everywhere():
    for m, n in itertools.product(range(4), repeat=2):
        for f in st.all_cube_morphisms(m, n):
            assert _rebuild(st.CUBICAL, f) == f


def test_simplex_factor_recomposes():
    for m, n in itertools.product(range(4), repeat=2):
        for f in st.all_simplex_morphisms(m, n):
            assert _rebuild(st.SIMPLICIAL, f) == f


@pytest.mark.parametrize("ops", [st.CUBICAL, st.SIMPLICIAL])
def test_generator_tables_are_built_once(ops):
    for k in range(4):
        for trunc_dim in range(k, 5):
            assert ops.generators(k, trunc_dim) is ops.generators(k, trunc_dim)


def test_generator_tables_list_faces_then_degeneracies_then_connections():
    # every caller walks a table in this order: faces, then degeneracies,
    # then connections
    assert [key for key, _ in st.CUBICAL.generators(1, 2)] == [
        ("face", 1, 0), ("face", 1, 1), ("deg", 1), ("deg", 2),
        ("conn", 1, 0), ("conn", 1, 1),
    ]
    assert [key for key, _ in st.SIMPLICIAL.generators(1, 2)] == [
        ("face", 0), ("face", 1), ("deg", 0), ("deg", 1),
    ]
    assert st.CUBICAL.generators(2, 2) == tuple(
        (("face", i, eps), st.cube_face(i, eps, 2))
        for i in (1, 2) for eps in (0, 1)
    )
    assert st.SIMPLICIAL.generators(0, 0) == ()


def _compositions(n):
    """All ordered compositions of n into positive parts."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1)
            for rest in _compositions(n - first)]


def _loop_nest_cube_morphisms(m, n):
    """The hom-set as the full loop nest builds it: every used subset of
    the variables, every ordered blocking of it into at most n blocks,
    every choice of slots for the blocks, every canonical term on each
    block and every constant in the other slots, sorted by repr."""
    out = []
    for size in range(m + 1):
        for used in itertools.combinations(range(1, m + 1), size):
            for parts in _compositions(size):
                r = len(parts)
                if r > n:
                    continue
                cuts = list(itertools.accumulate((0,) + parts))
                blocks = [used[a:b] for a, b in zip(cuts, cuts[1:])]
                term_opts = [st._terms_on(b) for b in blocks]
                for positions in itertools.combinations(range(n), r):
                    const_slots = [j for j in range(n) if j not in positions]
                    for terms in itertools.product(*term_opts):
                        for consts in itertools.product(
                            (0, 1), repeat=len(const_slots)
                        ):
                            coords = [None] * n
                            for p, t in zip(positions, terms):
                                coords[p] = t
                            for j, e in zip(const_slots, consts):
                                coords[j] = ("c", e)
                            out.append(st.CubeMorphism(m, tuple(coords)))
    out.sort(key=repr)
    return tuple(out)


def test_hom_sets_built_from_epis_match_the_full_loop_nest():
    for m, n in itertools.product(range(5), repeat=2):
        homs = _loop_nest_cube_morphisms(m, n)
        assert st.all_cube_morphisms(m, n) == homs
        filtered = tuple(f for f in homs if st.cube_is_epi_type(f))
        assert st.all_cube_epis(m, n) == filtered
        assert st.all_cube_epis(m, n) == tuple(
            f for f in st.all_cube_morphisms(m, n) if st.cube_is_epi_type(f)
        )


def test_mono_epi_factorization():
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        for f in st.all_cube_morphisms(m, n):
            mono, epi = st.cube_mono_epi(f)
            assert st.cube_is_face_type(mono)
            assert st.cube_is_epi_type(epi)
            assert st.cube_compose(mono, epi) == f
