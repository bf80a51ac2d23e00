"""Presheaf construction, validation, and map enumeration."""

import itertools
import random

import pytest

from cubigraph import presheaf as ps
from cubigraph import skeleta as sk


def test_representable_cube_cell_counts():
    # cells of the standard k-cube at dim d are morphisms [1]^d -> [1]^k
    sq = ps.representable("cubical", 2, 2)
    assert len(sq.cells[0]) == 4  # the four corners
    assert [len(sq.nondeg(d)) for d in sq.dims()] == [4, 4, 1]


def test_representable_simplex_cell_counts():
    tri = ps.representable("simplicial", 2, 2)
    assert [len(tri.nondeg(d)) for d in tri.dims()] == [3, 3, 1]
    # total d-cells = monotone maps [d] -> [2]
    assert [len(tri.cells[d]) for d in tri.dims()] == [3, 6, 10]


def test_presheaf_validates():
    for site in ("cubical", "simplicial"):
        X = ps.representable(site, 2, 3)
        X.validate()


def _edge_doc(cells, face0, face1, deg):
    """A cubical presheaf document truncated at 1, one table per generator."""
    return {
        "site": "cubical", "trunc_dim": 1,
        "cells": {"0": cells[0], "1": cells[1]},
        "action": [
            {"gen": ["deg", 1], "from_dim": 0, "map": deg},
            {"gen": ["face", 1, 0], "from_dim": 1, "map": face0},
            {"gen": ["face", 1, 1], "from_dim": 1, "map": face1},
        ],
    }


_EDGE = ([0, 1], [0, 1, 2])
_FACE0 = {"0": 0, "1": 1, "2": 0}
_FACE1 = {"0": 0, "1": 1, "2": 1}
_DEG = {"0": 0, "1": 1}


_NOT_TOTAL = "not total on the stored cells"


@pytest.mark.parametrize("doc, reason", [
    # a missing generator table
    (dict(_edge_doc(_EDGE, _FACE0, _FACE1, _DEG),
          action=_edge_doc(_EDGE, _FACE0, _FACE1, _DEG)["action"][:2]),
     _NOT_TOTAL),
    # a short map: the edge has no 0-face
    (_edge_doc(_EDGE, {"0": 0, "1": 1}, _FACE1, _DEG), _NOT_TOTAL),
    # images that are no cell
    (_edge_doc(_EDGE, {"0": 0, "1": 1, "2": 5}, _FACE1, _DEG), _NOT_TOTAL),
    (_edge_doc(_EDGE, {"0": 0, "1": 1, "2": "a"}, _FACE1, _DEG), _NOT_TOTAL),
    (_edge_doc(_EDGE, {"0": 0, "1": 1, "2": [0]}, _FACE1, _DEG), _NOT_TOTAL),
    # a broken relation: the 0-face of the degenerate edge on vertex 0 is 1
    (_edge_doc(_EDGE, {"0": 1, "1": 1, "2": 0}, _FACE1, _DEG),
     "relation failure"),
])
def test_from_json_rejects_malformed_documents(doc, reason):
    with pytest.raises(ValueError, match=reason):
        ps.FinitePresheaf.from_json(doc)


@pytest.mark.parametrize("tables, reason", [
    ({}, "missing action table"),
    ({("face", 1, 1): [0, 1]}, "not total"),
    ({("face", 1, 1): [0, 1, 2]}, "leaves stored cells"),
    ({("face", 1, 1): [0, 1, True]}, "leaves stored cells"),
    ({("face", 1, 0): [1, 1, 0], ("face", 1, 1): [0, 1, 1]},
     "relation failure"),
])
def test_validate_rejects_malformed_tables(tables, reason):
    action = {(("deg", 1), 0): [0, 1], (("face", 1, 0), 1): [0, 1, 0]}
    action.update({(key, 1): table for key, table in tables.items()})
    X = ps.FinitePresheaf("cubical", 1, {0: "ab", 1: "abc"}, action)
    with pytest.raises(ValueError, match=reason):
        X.validate()


def test_from_json_relabels_cell_ids():
    edge = ps.build_standard("cube", 1, trunc_dim=1).realized
    assert _edge_doc(_EDGE, _FACE0, _FACE1, _DEG) == edge.to_json()
    doc = _edge_doc(([7, 5], [3, 9, 4]), {"3": 7, "9": 5, "4": 7},
                    {"3": 7, "9": 5, "4": 5}, {"7": 3, "5": 9})
    X = ps.FinitePresheaf.from_json(doc)
    assert X.cells == {0: (7, 5), 1: (3, 9, 4)}
    assert X.act_gen(("face", 1, 1), 1, 4) == 5
    assert X.to_json() == edge.to_json()


def test_boundary_and_open_box_cells():
    bd = ps.build_standard("boundary_cube", 2).realized
    assert [len(bd.nondeg(d)) for d in bd.dims()] == [4, 4, 0]
    box = ps.build_standard("open_box", 2, i=1, eps=0).realized
    assert [len(box.nondeg(d)) for d in box.dims()] == [4, 3, 0]
    horn = ps.build_standard("horn", 2, i=1).realized
    assert [len(horn.nondeg(d)) for d in horn.dims()] == [3, 2, 0]
    bs = ps.build_standard("boundary_simplex", 2).realized
    assert [len(bs.nondeg(d)) for d in bs.dims()] == [3, 3, 0]


def test_enumerate_maps_interval_endomaps():
    I = ps.representable("cubical", 1, 1)
    maps = ps.enumerate_maps(I, I)
    # identity plus the two constant maps
    assert len(maps) == 3
    for f in maps:
        assert f.is_valid()


def _enumerate_maps_naive(A, X):
    """Oracle: all raw per-dimension functions filtered by naturality."""
    dims = list(A.dims())
    choice_spaces = []
    for d in dims:
        funcs = list(itertools.product(X.cells[d], repeat=len(A.cells[d])))
        choice_spaces.append(funcs)
    out = []
    for combo in itertools.product(*choice_spaces):
        comps = {
            d: dict(zip(A.cells[d], combo[j])) for j, d in enumerate(dims)
        }
        f = ps.PresheafMap(A, X, comps)
        if f.is_valid():
            out.append(f)
    return out


def _naive_space(A, X):
    size = 1
    for d in A.dims():
        size *= max(1, len(X.cells[d])) ** len(A.cells[d])
    return size


def test_enumerate_maps_matches_naive_oracle():
    rng = random.Random(7)
    checked = 0
    for site in ("cubical", "simplicial"):
        while checked < 4:
            A = ps.random_presheaf(site, 1, rng, max_nondeg=6)
            X = ps.random_presheaf(site, 1, rng, max_nondeg=6)
            if _naive_space(A, X) > 2 * 10**5:
                continue
            fast = ps.enumerate_maps(A, X)
            slow = _enumerate_maps_naive(A, X)
            assert set(fast) == set(slow)
            assert len(fast) == len(slow)
            checked += 1
        checked = 0


def test_enumerate_maps_matches_naive_on_standard_cells():
    I = ps.representable("cubical", 1, 1)
    box = ps.build_standard("open_box", 2, i=1, eps=0, trunc_dim=1).realized
    for A, X in [(I, I), (I, box), (box, I)]:
        fast = ps.enumerate_maps(A, X)
        slow = _enumerate_maps_naive(A, X)
        assert set(fast) == set(slow)


def test_enumerate_maps_respects_forced():
    sq = ps.representable("cubical", 2, 2)
    I = ps.representable("cubical", 1, 2)
    v = I.cells[0][0]
    target = sq.cells[0][0]
    maps = ps.enumerate_maps(
        I, sq, forced=[{I.cell_index(0, v): sq.cell_index(0, target)}])
    assert maps
    for f in maps:
        assert f.components[0][v] == target


def test_quotient_identifies_vertices():
    I = ps.representable("cubical", 1, 1)
    v0, v1 = I.nondeg(0)[0], I.nondeg(0)[1]
    loop, proj = ps.quotient(I, [(0, v0, v1)])
    assert len(loop.cells[0]) == 1
    assert proj.is_valid()
    loop.validate()


def test_disjoint_union_counts():
    I = ps.representable("cubical", 1, 1)
    two = ps.disjoint_union(I, I)
    two.validate()
    assert two.total_cells() == 2 * I.total_cells()


def test_is_isomorphic_detects_relabeling():
    I = ps.representable("cubical", 1, 1)
    J = ps.disjoint_union(I, ps.build_standard("cube", 0, trunc_dim=1).realized)
    ok, witness = ps.is_isomorphic(I, I)
    assert ok and witness.is_levelwise_bijection()
    ok, _ = ps.is_isomorphic(I, J)
    assert not ok


def test_map_json_round_trip():
    I = ps.representable("cubical", 1, 2)
    sq = ps.representable("cubical", 2, 2)
    f = ps.enumerate_maps(I, sq, limit=1)[0]
    data = ps.map_to_json(f)
    g = ps.map_from_json(data)
    assert g.is_valid()
    assert ps.map_to_json(g) == data


@pytest.mark.parametrize("bad", ["negative", "bool", "long"])
def test_map_from_json_rejects_images_that_are_no_cell(bad):
    """-1 would wrap around to the last cell and True would read as 1; a
    component longer than the source's cells has no cell to send."""
    from cubigraph import lifting as lf

    data = ps.map_to_json(lf.terminal_map(ps.representable("cubical", 1, 2)))
    images = data["components"]["1"]
    if bad == "negative":
        data["components"] = {d: [-1] * len(v)
                              for d, v in data["components"].items()}
    elif bad == "bool":
        images[0] = True
    else:
        images.append(0)
    with pytest.raises(ValueError):
        ps.map_from_json(data)


def test_random_presheaf_is_valid():
    rng = random.Random(3)
    for site in ("cubical", "simplicial"):
        for _ in range(10):
            X = ps.random_presheaf(site, 2, rng)
            X.validate()


def test_random_presheaf_rejects_a_cap_no_draw_meets():
    # every draw has a vertex and, from trunc_dim 1 on, an edge; a cap
    # below that used to redraw until the recursion limit
    for site in ("cubical", "simplicial"):
        for trunc_dim, cap in ((0, 0), (1, 0), (1, 1), (2, 1)):
            with pytest.raises(ValueError):
                ps.random_presheaf(site, trunc_dim, random.Random(0), cap)
        X = ps.random_presheaf(site, 2, random.Random(0), max_nondeg=2)
        assert X.total_nondeg() == 2
        X = ps.random_presheaf(site, 0, random.Random(0), max_nondeg=1)
        assert X.total_nondeg() == 1


def test_identity_and_compose():
    sq = ps.representable("cubical", 2, 2)
    ident = ps.identity_map(sq)
    assert ident.compose(ident) == ident
    assert ident.is_levelwise_bijection()


def test_map_equality_sees_the_codomain():
    # the inclusion of the square's boundary and the identity of that
    # boundary agree cell by cell, but land in different presheaves
    bd = ps.build_standard("boundary_cube", 2)
    ident = ps.identity_map(bd.realized)
    assert bd.inclusion != ident
    assert hash(bd.inclusion) != hash(ident)
    assert len({bd.inclusion, ident}) == 2
    # maps built apart, between equal presheaves, are equal with one hash
    again = ps.build_standard("boundary_cube", 2)
    assert again.realized is not bd.realized
    assert again.inclusion == bd.inclusion
    assert hash(again.inclusion) == hash(bd.inclusion)
    # and the source counts too: the same images out of a relabeled point
    point = ps.build_standard("cube", 0, trunc_dim=2).realized
    empty = ps.build_standard("boundary_cube", 0, trunc_dim=2).realized
    f = ps.identity_map(point)
    g = ps.enumerate_maps(ps.disjoint_union(point, empty), point)[0]
    assert f.images == g.images and f.target is g.target
    assert f != g


def test_standard_cells_share_the_cached_representable():
    box = ps.build_standard("open_box", 2, i=1, eps=0, trunc_dim=3)
    bd = ps.build_standard("boundary_cube", 2, trunc_dim=3)
    assert box.ambient is bd.ambient
    assert box.ambient is ps.representable("cubical", 2, 3)
    assert ps.representable("cubical", 2, 2) is not box.ambient


# ---------------------------------------------------------------------------
# The pool-scan search and the quadratic root scan that the index-table
# search replaced, kept as oracles: they read actions only through act_gen,
# never the derived root, morphism or preimage tables.


def _scan_root(X, cell, dim, memo):
    if (dim, cell) in memo:
        return memo[(dim, cell)]
    result = None
    if dim > 0:
        for key, g in X.generators_at(dim - 1):
            if key[0] == "face":
                continue
            for y in X.cells[dim - 1]:
                if X.act_gen(key, dim - 1, y) == cell:
                    r, rd, e = _scan_root(X, y, dim - 1, memo)
                    result = (r, rd, X.ops.compose(e, g))
                    break
            if result:
                break
    if result is None:
        result = (cell, dim, X.ops.identity(dim))
    memo[(dim, cell)] = result
    return result


def _scan_nondeg(X, dim, memo):
    return tuple(
        c for c in X.cells[dim] if _scan_root(X, c, dim, memo)[0:2] == (c, dim)
    )


def _walk_act(X, cell, f):
    for key, d in X.ops.factor(f):
        cell = X.act_gen(key, d, cell)
    return cell


def _scan_enumerate_maps(A, X, forced=None, injective_nondeg=False,
                         limit=None, cand_filter=None):
    forced = forced or {}
    roots_a, roots_x = {}, {}
    targets = [
        (d, c) for d in A.dims() for c in _scan_nondeg(A, d, roots_a)
    ]
    forced_nondeg = {}
    for (d, c), v in forced.items():
        r, rd, e = _scan_root(A, c, d, roots_a)
        if e.is_identity():
            forced_nondeg[(rd, r)] = v
    results, assign, used = [], {}, set()
    face_data = {}
    for d, c in targets:
        data = []
        for key, _ in A.generators_at(d):
            if key[0] == "face":
                r, rd, e = _scan_root(A, A.act_gen(key, d, c), d - 1, roots_a)
                data.append((key, r, rd, e))
        face_data[(d, c)] = data

    def candidates(d, c):
        if (d, c) in forced_nondeg:
            return [forced_nondeg[(d, c)]]
        pool = _scan_nondeg(X, d, roots_x) if injective_nondeg else X.cells[d]
        wants = [
            (key, _walk_act(X, assign[(rd, r)], e))
            for key, r, rd, e in face_data[(d, c)]
        ]
        out = []
        for x in pool:
            if injective_nondeg and (d, x) in used:
                continue
            if cand_filter is not None and not cand_filter(d, c, x):
                continue
            if all(X.act_gen(key, d, x) == want for key, want in wants):
                out.append(x)
        return out

    def finish():
        comps = {}
        for d in A.dims():
            comps[d] = {}
            for c in A.cells[d]:
                r, rd, e = _scan_root(A, c, d, roots_a)
                comps[d][c] = _walk_act(X, assign[(rd, r)], e)
        f = ps.PresheafMap(A, X, comps)
        if f.is_valid() and all(
            comps[d][c] == v for (d, c), v in forced.items()
        ):
            results.append(f)

    def backtrack(idx):
        if limit is not None and len(results) >= limit:
            return
        if idx == len(targets):
            finish()
            return
        d, c = targets[idx]
        for x in candidates(d, c):
            assign[(d, c)] = x
            if injective_nondeg:
                used.add((d, x))
            backtrack(idx + 1)
            del assign[(d, c)]
            if injective_nondeg:
                used.discard((d, x))

    backtrack(0)
    return results


def _presheaf_zoo():
    rng = random.Random(11)
    zoo = []
    for site in ("cubical", "simplicial"):
        whole, boundary, opened = ps._SITE_KINDS[site]
        for td in (1, 2, 3):
            group = [ps.random_presheaf(site, td, rng, max_nondeg=7)
                     for _ in range(3)]
            group.append(ps.build_standard(whole, 1, trunc_dim=td).realized)
            if td >= 2:
                for kind, i, eps in ((boundary, None, None), (opened, 1, 0)):
                    group.append(
                        ps.build_standard(kind, 2, i, eps, td).realized)
            zoo.append(group)
    return zoo


def _allowed(A, X, keep):
    """The allowed masks of the label predicate keep(dim, cell, candidate)."""
    return [
        [sum(1 << x for x, y in enumerate(X.cells[d]) if keep(d, c, y))
         for c in A.cells[d]]
        for d in A.dims()
    ]


def _index_form(A, X, forced):
    """A label prescription as enumerate_maps takes it; a value that is no
    cell of X becomes -1."""
    out = [{} for _ in A.dims()]
    for (d, c), v in forced.items():
        out[d][A.cell_index(d, c)] = X._index[d].get(v, -1)
    return out


def _same(fast, slow):
    assert [f.components for f in fast] == [g.components for g in slow]


def test_root_and_nondeg_match_the_scan():
    for group in _presheaf_zoo():
        for X in group:
            memo = {}
            for d in X.dims():
                assert X.nondeg(d) == _scan_nondeg(X, d, memo)
                for c in X.cells[d]:
                    assert X.root(c, d) == _scan_root(X, c, d, memo)


def test_enumerate_maps_matches_the_scan_in_order():
    checked = 0
    for group in _presheaf_zoo():
        for A in group:
            for X in group:

                def every_other(d, c, x, X=X):
                    return (X.cell_index(d, x) + d) % 2 == 0

                for kw in ({"limit": 40}, {"limit": 3},
                           {"injective_nondeg": True, "limit": 40}):
                    _same(ps.enumerate_maps(A, X, **kw),
                          _scan_enumerate_maps(A, X, **kw))
                _same(ps.enumerate_maps(A, X, limit=40,
                                        allowed=_allowed(A, X, every_other)),
                      _scan_enumerate_maps(A, X, limit=40,
                                           cand_filter=every_other))
                checked += 1
    assert checked > 60
    # coskeleton-shaped pairs: the standard k-cell truncated at n into the
    # n-truncation of X, k <= n + 2, which coskeleton enumerates; their
    # many cells with exactly one candidate exercise the forward check.
    # n is 1 on the cubical site: the 4-cube's 16 vertices are beyond the
    # scan.  Whole map sets are compared where the scan is cheap
    whole = 0
    for group in _presheaf_zoo():
        for X in group:
            for n in (1, 2) if X.site == "simplicial" else (1,):
                if n > X.trunc_dim:
                    continue
                Xt = sk.truncate(X, n)
                for k in range(n + 3):
                    R = ps.representable(X.site, k, n)
                    _same(ps.enumerate_maps(R, Xt, limit=3),
                          _scan_enumerate_maps(R, Xt, limit=3))
                    if (len(ps.enumerate_maps(R, Xt, limit=400)) < 400
                            and len(Xt.cells[0]) ** len(R.cells[0]) <= 4096):
                        _same(ps.enumerate_maps(R, Xt),
                              _scan_enumerate_maps(R, Xt))
                        whole += 1
    assert whole > 150


def test_enumerate_maps_matches_the_scan_under_forced():
    rng = random.Random(5)
    cases = refused = 0
    for group in _presheaf_zoo():
        for A in group:
            for X in group:
                if not A.cells[0] or not X.cells[0]:
                    continue
                top = A.trunc_dim
                degenerate = [c for c in A.cells[1] if c not in A.nondeg(1)]
                prescriptions = [
                    {(0, A.cells[0][0]): X.cells[0][-1]},
                    # two vertices onto one: a collision when injective
                    {(0, c): X.cells[0][0] for c in A.nondeg(0)[:2]},
                    # a degenerate cell, checked after assembly
                    {(1, degenerate[-1]): rng.choice(X.cells[1])},
                    # values that are no cell of X at that dimension
                    {(0, A.cells[0][0]): "nowhere"},
                    {(top, A.cells[top][0]): "nowhere"}
                    if A.cells[top] else {},
                    {(0, A.cells[0][-1]): X.cells[1][0]},
                ]
                if A.nondeg(1) and X.nondeg(1):
                    # a nondegenerate edge forced onto an edge x of X, and
                    # its first face onto x's first face or onto another
                    # vertex, which admits no map: only the wake of the
                    # forced edge checks its faces
                    key = next(k for k, _ in A.generators_at(1)
                               if k[0] == "face")
                    a, x = A.nondeg(1)[0], X.nondeg(1)[-1]
                    face = X.act_gen(key, 1, x)
                    others = [w for w in X.cells[0] if w != face]
                    for w in [face] + others[:1]:
                        prescriptions.append(
                            {(1, a): x, (0, A.act_gen(key, 1, a)): w})
                    refused += 2 * bool(others)
                for forced in prescriptions:
                    for injective in (False, True):
                        kw = {"injective_nondeg": injective, "limit": 40}
                        _same(ps.enumerate_maps(
                                  A, X, forced=_index_form(A, X, forced), **kw),
                              _scan_enumerate_maps(A, X, forced=forced, **kw))
                        cases += 1
    assert cases > 500
    assert refused > 50
