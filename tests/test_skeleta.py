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
    """verify_skeletal_identities takes sk_m of a standard cell's morphism
    sets by root dimension (_cube_nonconst, _simplex_root_dim); skeleton()
    and FinitePresheaf.root are the oracle."""
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
            sets = {j: {c for c in ops.all_morphisms(j, k) if keep(c)}
                    for j in range(D + 1)}
            X = ps.build_standard(kind, k, i, eps, trunc_dim=D).realized
            assert sets == {j: set(X.cells[j]) for j in X.dims()}
            for m in range(3):
                S, _ = sk.skeleton(X, m)
                assert sk._sk(site, m, sets) == {
                    j: set(S.cells[j]) for j in S.dims()
                }, (kind, k, i, eps, m)


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
