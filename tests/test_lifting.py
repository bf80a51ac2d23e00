"""Lifting problems, the generic solver, and generating sets."""

import itertools
import random
from collections import Counter

import pytest

from cubigraph import lifting as lf
from cubigraph import presheaf as ps
from cubigraph import product as pr
from cubigraph import site as st


def _solve_naive(problem):
    """Oracle: scan every map B -> X for a filler of the square."""
    i, f, u, v = problem.left, problem.right, problem.top, problem.bottom
    for h in ps.enumerate_maps(i.target, f.source):
        if h.compose(i) == u and f.compose(h) == v:
            return h
    return None


def test_solver_agrees_with_naive_oracle_on_standard_squares():
    # open box into square, against the square mapping to a point
    box = ps.build_standard("open_box", 2, i=1, eps=0)
    pt = lf.empty_presheaf("cubical", 2)
    sq = box.ambient
    f = lf.terminal_map(sq)
    checked = 0
    for u, v in lf.squares_over(box.inclusion, f)[:20]:
        problem = lf.LiftingProblem(box.inclusion, f, u, v)
        res = lf.solve(problem)
        naive = _solve_naive(problem)
        assert ("no_lift" in res) == (naive is None)
        if "lift" in res:
            h = res["lift"]
            assert h.compose(box.inclusion) == u
            assert f.compose(h) == v
        checked += 1
    assert checked


def test_solver_agrees_with_naive_on_random_instances():
    rng = random.Random(2)
    done = 0
    while done < 5:
        A = ps.random_presheaf("cubical", 1, rng, max_nondeg=4)
        B = ps.random_presheaf("cubical", 1, rng, max_nondeg=5)
        X = ps.random_presheaf("cubical", 1, rng, max_nondeg=5)
        Y = ps.random_presheaf("cubical", 1, rng, max_nondeg=4)
        i_maps = ps.enumerate_maps(A, B, limit=1)
        f_maps = ps.enumerate_maps(X, Y, limit=1)
        if not i_maps or not f_maps:
            continue
        i, f = i_maps[0], f_maps[0]
        squares = lf.squares_over(i, f)
        for u, v in squares[:4]:
            problem = lf.LiftingProblem(i, f, u, v)
            res = lf.solve(problem)
            naive = _solve_naive(problem)
            assert ("no_lift" in res) == (naive is None)
        done += 1


def test_all_lifts_mode():
    # lifting a point against the square over the point: one lift per vertex
    pt = ps.build_standard("cube", 0, trunc_dim=2).realized
    sq = ps.representable("cubical", 2, 2)
    empty = lf.empty_presheaf("cubical", 2)
    i = lf.inclusion_of_subset(empty, pt)
    f = lf.terminal_map(sq)
    u = ps.enumerate_maps(empty, sq)[0]
    v = lf.terminal_map(pt)
    res = lf.solve(lf.LiftingProblem(i, f, u, v), all_lifts=True)
    assert len(res["lifts"]) == len(sq.cells[0])


def test_noncommuting_square_rejected():
    box = ps.build_standard("open_box", 1, i=1, eps=0)
    I = box.ambient
    f = ps.identity_map(I)
    squares = lf.squares_over(box.inclusion, f)
    raised = False
    for u1, _ in squares:
        for _, v2 in squares:
            try:
                lf.LiftingProblem(box.inclusion, f, u1, v2)
            except ValueError:
                raised = True
    assert raised


def test_generating_set_sizes():
    # open boxes: 2k choices of (i, eps) per dimension k
    for n in (0, 1, 2):
        J = lf.generating_set("J_n_prime_cubical", n)
        expected = sum(2 * k for k in range(1, n + 2)) + 2 * (n + 2)
        assert len(J.member_specs) == expected
        I = lf.generating_set("I_n_prime_cubical", n)
        assert len(I.member_specs) == n + 2
        Js = lf.generating_set("J_n_prime_simplicial", n)
        expected = sum(k + 1 for k in range(1, n + 2)) + (n + 3)
        assert len(Js.member_specs) == expected
        Is = lf.generating_set("I_n_prime_simplicial", n)
        assert len(Is.member_specs) == n + 2


def test_generating_set_members_realize():
    J = lf.generating_set("J_n_prime_cubical", 0)
    for name, incl in J.realize(2):
        assert incl.is_valid()
        assert isinstance(name, str)


@pytest.mark.parametrize("site", ["cubical", "simplicial"])
def test_boundary_of_the_point_is_empty(site):
    cell, boundary, _ = ps._SITE_KINDS[site]
    for D in (1, 3):
        # the empty presheaf, with an empty action table per generator
        ops = st.site_ops(site)
        empty = ps.FinitePresheaf(site, D, {}, {
            (key, d): [] for d in range(D + 1)
            for key, _ in ops.generators(d, D)
        })
        bd = ps.build_standard(boundary, 0, trunc_dim=D).realized
        assert bd.cells == empty.cells == {d: () for d in range(D + 1)}
        assert bd.action == empty.action
        assert lf.empty_presheaf(site, D).action == empty.action
        point = ps.build_standard(cell, 0, trunc_dim=D).realized
        expected = ps.map_to_json(lf.inclusion_of_subset(empty, point))
        for n in range(D):
            name, incl = lf.generating_set(f"I_n_prime_{site}", n).realize(D)[0]
            assert name == "boundary_into_cell k=0"
            assert ps.map_to_json(incl) == expected


def test_point_to_interval_is_not_fibration():
    # the end inclusion misses lifts for boxes mapping to the far edge
    I = ps.representable("cubical", 1, 2)
    pt = ps.build_standard("cube", 0, trunc_dim=2).realized
    maps = ps.enumerate_maps(pt, I)
    f = maps[0]
    ok, witness = lf.has_rlp(f, lf.generating_set("J_n_prime_cubical", 0))
    assert not ok
    assert witness is not None and "member" in witness


def test_identity_has_rlp_against_everything():
    sq = ps.representable("cubical", 2, 2)
    ident = ps.identity_map(sq)
    for name in ("J_n_prime_cubical", "I_n_prime_cubical"):
        ok, _ = lf.has_rlp(ident, lf.generating_set(name, 0))
        assert ok


def test_terminal_map_of_point_is_kan():
    pt = ps.build_standard("cube", 0, trunc_dim=2).realized
    ok, _ = lf.is_kan_fibration_bounded(lf.terminal_map(pt), 2)
    assert ok
    # the representable square, by contrast, has unfillable open boxes
    sq = ps.representable("cubical", 2, 2)
    ok, witness = lf.is_kan_fibration_bounded(lf.terminal_map(sq), 2)
    assert not ok and witness["member"].startswith("box_into_cell k=2")


def test_interval_to_point_fails_boundary_rlp():
    # the terminal map of the interval is not an acyclic fibration:
    # a boundary square hitting both endpoints has no filler
    I = ps.representable("cubical", 1, 1)
    ok, witness = lf.has_rlp(
        lf.terminal_map(I), lf.generating_set("I_n_prime_cubical", 0)
    )
    assert not ok


def test_elementary_homotopy_trivial_chain():
    I = ps.representable("cubical", 1, 1)
    pt = ps.build_standard("cube", 0, trunc_dim=1).realized
    f = ps.enumerate_maps(pt, I)[0]
    res = lf.elementary_homotopy_search(f, f)
    assert "chain" in res and len(res["chain"]) == 1


def test_elementary_homotopy_connects_endpoints():
    I = ps.representable("cubical", 1, 1)
    pt = ps.build_standard("cube", 0, trunc_dim=1).realized
    maps = ps.enumerate_maps(pt, I)
    f, g = maps[0], maps[-1]
    assert f != g
    res = lf.elementary_homotopy_search(f, g)
    assert "chain" in res


def test_elementary_homotopy_misses_at_the_chain_cap():
    # opposite corners of the square are two elementary homotopies apart;
    # a point off the interval is reachable at no length
    I = ps.representable("cubical", 1, 1)
    pt = ps.build_standard("cube", 0, trunc_dim=1).realized
    corners = ps.enumerate_maps(pt, pr.geometric_product(I, I, trunc_dim=1))
    f = corners[0]
    far = [g for g in corners
           if "chain" not in lf.elementary_homotopy_search(f, g, 1)]
    assert len(far) == 1
    assert lf.elementary_homotopy_search(f, far[0], 1) == {
        "none_found": True, "exhausted": False}
    res = lf.elementary_homotopy_search(f, far[0], 2)
    assert res["length"] == 2 and res["chain"][-1] == far[0]
    ends = ps.enumerate_maps(pt, ps.disjoint_union(I, pt))
    found = [lf.elementary_homotopy_search(ends[0], g) for g in ends]
    assert found.count({"none_found": True, "exhausted": True}) == 1


# ---------------------------------------------------------------------------
# The label-keyed square solver that the index-based one replaced, kept as
# the oracle: prescriptions, the commutation check and the fibre filter
# read components (label dicts) only.  Its enumerator takes labels and a
# label predicate and hands them to enumerate_maps as indices and masks,
# whose order against a label scan tests/test_presheaf.py checks.


def _label_enumerate(A, X, forced=None, cand_filter=None, limit=None):
    index_forced = None
    if forced:
        index_forced = [{} for _ in A.dims()]
        for (d, c), v in forced.items():
            index_forced[d][A.cell_index(d, c)] = X.cell_index(d, v)
    allowed = None
    if cand_filter is not None:
        allowed = [
            [sum(1 << x for x, y in enumerate(X.cells[d])
                 if cand_filter(d, c, y))
             for c in A.cells[d]]
            for d in A.dims()
        ]
    return ps.enumerate_maps(A, X, forced=index_forced, allowed=allowed,
                             limit=limit)


def _label_prescription(i, image):
    forced = {}
    for d in i.source.dims():
        comp = i.components[d]
        for c in i.source.cells[d]:
            want = image(d, c)
            if forced.setdefault((d, comp[c]), want) != want:
                return None
    return forced


def _label_commutes(i, f, u, v):
    return all(
        f.components[d][u.components[d][a]]
        == v.components[d][i.components[d][a]]
        for d in i.source.dims() for a in i.source.cells[d]
    )


def _label_solve(i, f, u, v):
    """The first lift of the square, or None."""
    assert _label_commutes(i, f, u, v)
    forced = _label_prescription(i, lambda d, a: u.components[d][a])
    if forced is None:
        return None
    fiber = lambda d, b, x: f.components[d][x] == v.components[d][b]
    lifts = _label_enumerate(i.target, f.source, forced=forced,
                             cand_filter=fiber, limit=1)
    lifts = [h for h in lifts if f.compose(h) == v]
    return lifts[0] if lifts else None


def _label_squares_over(i, f):
    out = []
    for u in _label_enumerate(i.source, f.source):
        forced = _label_prescription(
            i, lambda d, a: f.components[d][u.components[d][a]])
        if forced is None:
            continue
        for v in _label_enumerate(i.target, f.target, forced=forced):
            out.append((u, v))
    return out


def _lifting_cases():
    """(member, map) pairs: every member of I_n' and J_n' for n <= 1 on
    both sites, and of J_cubical_bounded(2), against terminal maps and
    seeded random maps at the members' truncation."""
    sets = [(f"{family}_n_prime_{site}", n)
            for site in ("cubical", "simplicial")
            for family in ("I", "J") for n in (0, 1)]
    sets.append(("J_cubical_bounded", 2))
    rng = random.Random(17)
    maps = {}
    for name, n in sets:
        gens = lf.generating_set(name, n)
        D = gens.max_k()
        if (gens.site, D) not in maps:
            fs = []
            for _ in range(2):
                X = ps.random_presheaf(gens.site, D, rng, max_nondeg=5)
                Y = ps.random_presheaf(gens.site, D, rng, max_nondeg=4)
                fs.append(lf.terminal_map(X))
                fs.extend(ps.enumerate_maps(X, Y, limit=2))
            maps[(gens.site, D)] = fs
        for _, i in gens.realize(D):
            for f in maps[(gens.site, D)]:
                yield i, f


def _disagreements(cases, counts, squares_per_case=8):
    """Yield each (member, map) pair whose squares, or a square whose
    verdict or first lift, the index-based squares_over, LiftingProblem
    and solve give otherwise than the label oracle; counts tallies the
    compared squares by verdict."""
    for i, f in cases:
        squares = lf.squares_over(i, f)
        expected = _label_squares_over(i, f)
        if [(u.components, v.components) for u, v in squares] != [
                (u.components, v.components) for u, v in expected]:
            yield i, f
            continue
        for u, v in squares[:squares_per_case]:
            got = lf.solve(lf.LiftingProblem(i, f, u, v)).get("lift")
            want = _label_solve(i, f, u, v)
            counts["no lift" if want is None else "lift"] += 1
            if (got is None) != (want is None) or (
                    got is not None and got.components != want.components):
                yield i, f, u, v


def test_index_lifting_matches_the_label_oracle():
    counts = Counter()
    assert list(_disagreements(_lifting_cases(), counts)) == []
    assert counts["lift"] > 1000 and counts["no lift"] > 300


def test_lifting_oracle_catches_a_shifted_fibre_mask(monkeypatch):
    # negative control: solve with each fibre mask shifted by one bit
    # must disagree with the oracle somewhere on the same cases
    def shifted(A, X, allowed=None, **kw):
        if allowed is not None:
            allowed = [[m << 1 for m in row] for row in allowed]
        return ps.enumerate_maps(A, X, allowed=allowed, **kw)

    monkeypatch.setattr(lf, "enumerate_maps", shifted)
    assert next(_disagreements(_lifting_cases(), Counter()), None)


# ---------------------------------------------------------------------------
# has_rlp decides each member by the image of hom(B, X); the square-by-square
# solver it replaced, squares_over plus one solve per square, is the oracle.


def _has_rlp_by_solve(f, gen_set):
    for name, i in gen_set.realize(f.source.trunc_dim):
        for u, v in lf.squares_over(i, f):
            if "no_lift" in lf.solve(lf.LiftingProblem(i, f, u, v)):
                return False, {"member": name, "top": u, "bottom": v}
    return True, None


def _rlp_key(result):
    holds, witness = result
    if holds:
        return True, None, None, None
    return False, witness["member"], witness["top"], witness["bottom"]


_RLP_SETS = [(f"{family}_n_prime_{site}", n)
             for site in ("cubical", "simplicial")
             for family in ("I", "J") for n in (0, 1)]
_RLP_SETS.append(("J_cubical_bounded", 2))


def _rlp_cases():
    """(set name, n, map): every set of _RLP_SETS against terminal maps,
    identities and seeded random maps at the set's top dimension."""
    rng = random.Random(17)
    maps = {}
    for name, n in _RLP_SETS:
        gens = lf.generating_set(name, n)
        D = gens.max_k()
        if (gens.site, D) not in maps:
            fs = []
            for _ in range(3):
                X = ps.random_presheaf(gens.site, D, rng, max_nondeg=5)
                Y = ps.random_presheaf(gens.site, D, rng, max_nondeg=4)
                fs += [lf.terminal_map(X), ps.identity_map(X)]
                fs.extend(ps.enumerate_maps(X, Y, limit=2))
            maps[(gens.site, D)] = fs
        for f in maps[(gens.site, D)]:
            yield name, n, f


def test_has_rlp_matches_the_square_by_square_oracle():
    counts = Counter()
    for name, n, f in _rlp_cases():
        gens = lf.generating_set(name, n)
        got = _rlp_key(lf.has_rlp(f, gens))
        assert got == _rlp_key(_has_rlp_by_solve(f, gens)), (name, n)
        counts[(name, n, got[0])] += 1
    print(sorted(counts.items()))
    for name, n in _RLP_SETS:
        assert counts[(name, n, True)] and counts[(name, n, False)], counts
