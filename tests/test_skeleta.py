"""Skeleton and coskeleton functors and their identities."""

import random

import pytest

from cubigraph import presheaf as ps
from cubigraph import site as st
from cubigraph import skeleta as sk


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_skeletal_identities(site, n):
    for row in sk.verify_skeletal_identities(site, n, n + 3):
        assert row["ok"], row


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
def test_set_level_skeleton_agrees_with_skeleton(site):
    """verify_skeletal_identities reads a standard cell's morphism sets and
    their root dimensions from signatures (_cell_signature, _root_dim);
    skeleton() and FinitePresheaf.root are the oracle."""
    cell, boundary, open_kind = ps._SITE_KINDS[site]
    ops = st.site_ops(site)
    D = 3
    for k in range(D + 1):
        params = [(cell, None, None), (boundary, None, None)]
        if k >= 1:
            params += [(open_kind, i, eps)
                       for i, eps in ps._open_cell_indices(site, k)]
        for kind, i, eps in params:
            keep = ps._standard_keep(kind, k, i, eps)
            sigs = {j: {c: ps._cell_signature(c)
                        for c in ops.all_morphisms(j, k)}
                    for j in range(D + 1)}
            X = ps.build_standard(kind, k, i, eps, trunc_dim=D).realized
            assert {j: {c for c, s in sigs[j].items() if keep(s)}
                    for j in sigs} == {j: set(X.cells[j]) for j in X.dims()}
            for j in X.dims():
                for c in X.cells[j]:
                    assert sk._root_dim(site, k, sigs[j][c]) == X.root(c, j)[1]
            for m in range(3):
                S, _ = sk.skeleton(X, m)
                assert {
                    j: {c for c, s in sigs[j].items()
                        if keep(s) and sk._root_dim(site, k, s) <= m}
                    for j in sigs
                } == {j: set(S.cells[j]) for j in S.dims()}, (kind, k, i, eps, m)


def _walked_signatures(site, k):
    """The oracle of _signature_classes: the sorted distinct signatures of
    a walk over every morphism j -> k, j = 0..k."""
    ops = st.site_ops(site)
    return sorted({ps._cell_signature(c) for j in range(k + 1)
                   for c in ops.all_morphisms(j, k)})


def _check_signature_classes(site, classes_of):
    for k in range(6):
        assert list(classes_of(site, k)) == _walked_signatures(site, k), k


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
def test_signature_classes_are_the_walked_signatures(site):
    _check_signature_classes(site, ps._signature_classes)
    counts = [len(ps._signature_classes(site, k)) for k in range(6)]
    if site == "cubical":
        assert counts == [3 ** k for k in range(6)]
    else:
        assert counts == [2 ** (k + 1) - 1 for k in range(6)]


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
@pytest.mark.parametrize("fault", ["missing", "extra"])
def test_signature_class_check_can_fail(site, fault):
    """A class list without the all-constant pattern (every slot constant
    0, or the single value 0), or with one pattern that no morphism has
    (a slot constant at both ends, or no value), fails the check."""
    def classes_of(site, k):
        out = list(ps._signature_classes(site, k))
        if fault == "missing":
            out.remove(sum(1 << 2 * i for i in range(k))
                       if site == "cubical" else 1)
        else:
            out.append(0b11 if site == "cubical" else 0)
        return out

    with pytest.raises(AssertionError):
        _check_signature_classes(site, classes_of)


# the set-of-morphisms identity check, kept as the oracle of the
# signature-based one


def _oracle_const_slots(c):
    return {(i + 1, t[1]) for i, t in enumerate(c.coords) if t[0] == "c"}


def _oracle_keep(kind, k, i=None, eps=None):
    if kind in ("cube", "simplex"):
        return lambda c: True
    if kind == "boundary_cube":
        return lambda c: bool(_oracle_const_slots(c))
    if kind == "boundary_simplex":
        return lambda c: len(set(c.values)) <= k
    if kind == "open_box":
        return lambda c: bool(_oracle_const_slots(c) - {(i, eps)})
    others = set(range(k + 1)) - {i}
    return lambda c: bool(others - set(c.values))


def _oracle_root_dim(c):
    if isinstance(c, st.CubeMorphism):
        return sum(1 for t in c.coords if t[0] != "c")
    return len(set(c.values)) - 1


def _oracle_identities(site, n, k_max):
    _, boundary, open_kind = ps._SITE_KINDS[site]
    ops = st.site_ops(site)
    m = n + 1

    def sk_m(sets):
        return {j: {c for c in cs if _oracle_root_dim(c) <= m}
                for j, cs in sets.items()}

    def kept(sets, keep):
        return {j: {c for c in cs if keep(c)} for j, cs in sets.items()}

    cases = []
    for k in range(1, k_max + 1):
        full = {j: set(ops.all_morphisms(j, k)) for j in range(k + 1)}
        bd = kept(full, _oracle_keep(boundary, k))
        skf, skb = sk_m(full), sk_m(bd)
        if k <= n + 1:
            ok, expect = skb == bd and skf == full, "itself"
        else:
            ok, expect = skb == skf, "identity"
        cases.append({"kind": "boundary", "k": k, "i": None, "eps": None,
                      "expected": expect, "ok": ok})
        for i, eps in ps._open_cell_indices(site, k):
            box = kept(full, _oracle_keep(open_kind, k, i, eps))
            skx = sk_m(box)
            if k <= n + 1:
                ok, expect = skx == box and skf == full, "itself"
            elif k == n + 2:
                ok, expect = skx == box and skf == bd, "into boundary"
            else:
                ok, expect = skx == skf, "identity"
            cases.append({"kind": open_kind, "k": k, "i": i, "eps": eps,
                          "expected": expect, "ok": ok})
    return cases


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_skeletal_identities_agree_with_set_oracle(site, n):
    assert sk.verify_skeletal_identities(site, n, n + 3) == \
        _oracle_identities(site, n, n + 3)


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
@pytest.mark.parametrize("fault", ["root_dim", "boundary"])
def test_skeletal_identities_can_fail(site, fault, monkeypatch):
    """A wrong root dimension or a wrong boundary predicate shows as a
    failed row."""
    if fault == "root_dim":
        real = sk._root_dim
        monkeypatch.setattr(sk, "_root_dim",
                            lambda site, k, s: real(site, k, s) + 1)
    else:
        real = sk._standard_keep
        boundary = ps._SITE_KINDS[site][1]
        monkeypatch.setattr(
            sk, "_standard_keep",
            lambda kind, k, i=None, eps=None: (lambda s: False)
            if kind == boundary else real(kind, k, i, eps))
    for n in (0, 1):
        rows = sk.verify_skeletal_identities(site, n, n + 3)
        assert not all(row["ok"] for row in rows), (fault, n)


def test_skeleton_of_square():
    sq = ps.representable("cubical", 2, 2)
    S, incl = sk.skeleton(sq, 1)
    assert incl.is_valid()
    # the 2-cells of sk_1 are all degenerate
    assert len(S.nondeg(2)) == 0
    assert len(S.nondeg(1)) == 4
    ok, _ = ps.is_isomorphic(
        S, ps.build_standard("boundary_cube", 2).realized
    )
    assert ok


def test_truncate_then_skeleton_consistency():
    sq = ps.representable("cubical", 2, 2)
    S, _ = sk.skeleton(sq, 2)
    assert S.cells == sq.cells


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
def test_coskeleton_unit_is_bijective_above_level(site):
    rng = random.Random(11)
    for _ in range(5):
        X = ps.random_presheaf(site, 2, rng, max_nondeg=12)
        C, unit = sk.coskeleton(X, 1)
        assert unit.is_valid()
        # cosk_n keeps dimensions <= n unchanged up to the unit bijection
        for d in (0, 1):
            vals = set(unit.components[d].values())
            assert len(vals) == len(X.cells[d]) == len(C.cells[d])


def test_coskeleton_functoriality():
    I = ps.representable("cubical", 1, 2)
    sq = ps.representable("cubical", 2, 2)
    f = ps.enumerate_maps(I, sq, limit=1)[0]
    Cf = sk.coskeleton_map(f, 1)
    assert Cf.is_valid()
    ident = sk.coskeleton_map(ps.identity_map(sq), 1)
    assert ident.compose(Cf) == Cf


def test_coskeleton_idempotent_on_low_dims():
    sq = ps.representable("cubical", 2, 2)
    C1, _ = sk.coskeleton(sq, 2)
    ok, _ = ps.is_isomorphic(C1, sq)
    assert ok


def test_cosk_of_sk_equals_cosk(  ):
    rng = random.Random(5)
    for site in ("cubical", "simplicial"):
        X = ps.random_presheaf(site, 2, rng, max_nondeg=10)
        S, _ = sk.skeleton(X, 1)
        # compare the two coskeleta at the stored truncation
        A, _ = sk.coskeleton(S, 1)
        B, _ = sk.coskeleton(X, 1)
        ok, _ = ps.is_isomorphic(A, B)
        assert ok


def test_coskeleton_map_builds_each_coskeleton_once(monkeypatch):
    """Each coskeleton is kept on its presheaf per (n, out_dim): a second
    map out of the same source builds only its new target's coskeleton,
    and equals the map built from fresh copies of both presheaves."""
    def fresh(X):
        return ps.FinitePresheaf(X.site, X.trunc_dim, X.cells, X.action)

    I, sq, cube = (fresh(ps.representable("cubical", k, 2)) for k in (1, 2, 3))
    f = ps.enumerate_maps(I, sq, limit=1)[0]
    g = ps.enumerate_maps(I, cube, limit=1)[0]
    built = []

    def counting(A, X, *args, **kwargs):
        built.append(X)
        return ps.enumerate_maps(A, X, *args, **kwargs)

    monkeypatch.setattr(sk, "enumerate_maps", counting)
    sk.coskeleton_map(f, 1)
    assert len(built) == 6  # cosk_1 of I and of the square, 3 dims each
    del built[:]
    Cg = sk.coskeleton_map(g, 1)
    assert len(built) == 3  # cosk_1 of the 3-cube only
    expect = sk.coskeleton_map(ps._map(fresh(I), fresh(cube), g.images), 1)
    assert Cg.images == expect.images
    assert Cg.source.cells == expect.source.cells
    assert Cg.target.cells == expect.target.cells
    # a coskeleton at another truncation is built, not read back
    del built[:]
    C, unit = sk.coskeleton(I, 1, 3)
    assert len(built) == 4 and C.trunc_dim == 3 and unit is None
    assert C.cells == sk.coskeleton(fresh(I), 1, 3)[0].cells
