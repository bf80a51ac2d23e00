"""The four benchmark corpora and the outcome each query must produce.

A query is one closed-loop request: the runner sends it, waits for the
verdict, compares it with the pinned outcome and only then sends the next.
Pinned outcomes are what the library's contract requires, so the queries
in KNOWN_DEFECTS fail today and count as failed operations until the
library is fixed.

Only three things follow the bench seed: fibration sampling, isofibration
sampling and the random_presheaf draws.  psi_comparison keeps seed 0
because its cost has a heavy tail across seeds (C5 -> pt with samples=2
on a 2-core x86 VM: 12 s at seed 0, 80 s at seed 1, 6 s at seed 2).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# query name -> the defect that makes it fail against its pinned outcome
KNOWN_DEFECTS = {
    "psi id I1": "psi_comparison raises 'paths must share both endpoints'",
    "psi-check id I1": "psi-check prints a traceback and exits 1",
    "bad cell_budget": "a non-integer cell_budget raises TypeError, exit 1",
    "nerve-stats dim -1": "a negative --dim exits 0 with empty output",
}


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    expected: object


@dataclass
class CliQuery:
    name: str
    command: str  # the cubigraph subcommand, for cli.<command>.wall_s
    argv: list
    exit_code: int
    digest: str | None  # sha256 prefix of stdout, None when not pinned


# ---------------------------------------------------------------------------
# fibration: nerve does all the work


def fibration(seed):
    from cubigraph import graphs as gr
    from cubigraph import nerve as nv

    I0, I1 = gr.interval(0), gr.interval(1)
    C3, C4, C5, C6 = (gr.cycle(n) for n in (3, 4, 5, 6))
    cyl = gr.box_product(C5, I1)

    def check(f, sample_dim_from=2):
        # the acceptance-gate setting, with the bench seed for sampling
        return lambda: nv.is_graph_n_fibration_bounded(
            f, 1, M_max=1, slack=2, budget=10 ** 7, seed=seed, samples=25,
            sample_dim_from=sample_dim_from,
        ).verdict

    yes, no = "yes_on_tested_range", "counterexample"
    return [
        Query("const C4 -> pt", check(gr.constant_map(C4, I0, 0)), yes),
        Query("const C5 -> pt", check(gr.constant_map(C5, I0, 0)), yes),
        Query("proj C5xI1 -> C5",
              check(gr.GraphMap(cyl, C5, {v: v[0] for v in cyl.vertices})),
              yes),
        Query("id C5", check(gr.graph_identity(C5)), yes),
        Query("id I1 exhaustive", check(gr.graph_identity(I1), 3), yes),
        Query("cover C6 -> C3",
              check(gr.GraphMap(C6, C3, {v: v % 3 for v in C6.vertices})),
              no),
        Query("fold C4 -> I1",
              check(gr.GraphMap(C4, I1, {0: 0, 1: 1, 2: 0, 3: 1})), no),
        Query("end pt -> I1", check(gr.GraphMap(I0, I1, {0: 0})), no),
    ]


# ---------------------------------------------------------------------------
# homotopy: pi1 and Graph.neighbors do the work, nerve none


def homotopy(seed):
    from cubigraph import graphs as gr
    from cubigraph import pi1

    I0, I1 = gr.interval(0), gr.interval(1)
    C3, C4, C5, C6 = (gr.cycle(n) for n in (3, 4, 5, 6))

    def homotopic(G, p, q, support):
        return lambda: pi1.path_homotopic_bounded(
            pi1.make_path(G, p), pi1.make_path(G, q),
            max_support=support, max_steps=50000,
        ).verdict

    def generator_loop(G, word):
        return pi1.a1_presentation(G, 0).word_path(word).word

    c6_loop = generator_loop(C6, ((0, 1),))
    c4_double = generator_loop(C4, ((0, 1), (0, 1)))

    const_c5 = gr.constant_map(C5, I0, 0)
    P, _, _ = gr.pullback(const_c5, const_c5)
    base = P.vertices[0]
    pres = pi1.a1_presentation(P, base)

    def trivial(walk):
        word = pi1.walk_to_word(pres, walk)
        return lambda: pi1.loop_word_trivial(pres, word)

    # C5 x C5 has Z^2 as A1: a filled triangle is trivial, the coordinate
    # and diagonal loops are not.  Only words the rewriting decides within
    # a few states: an undecided word explores up to 20,000 states of
    # ~10^4 moves each and exhausts memory.
    ring = [(i % 5, 0) for i in range(6)]
    words = {
        "triangle": ([(0, 0), (1, 0), (1, 1), (0, 0)], True),
        "first coordinate": (ring, False),
        "second coordinate": ([(b, a) for a, b in ring], False),
        "diagonal": ([(a, a) for a, _ in ring], False),
    }

    sq = gr.box_product(I1, I1)
    cyl = gr.box_product(C5, I1)
    fibrations = {
        "const C5 -> pt": const_c5,
        "const C4 -> pt": gr.constant_map(C4, I0, 0),
        "const I1xI1 -> pt": gr.constant_map(sq, I0, 0),
        "id I1": gr.graph_identity(I1),
        "id C3": gr.graph_identity(C3),
        "id C5": gr.graph_identity(C5),
        "proj C5xI1 -> C5": gr.GraphMap(
            cyl, C5, {v: v[0] for v in cyl.vertices}),
    }

    def isofibration(f):
        return lambda: pi1.is_isofibration_bounded(
            f, samples=6, seed=seed).verdict

    def psi(f):
        return lambda: pi1.psi_comparison(f, f, samples=2, seed=0)["passed"]

    queries = [
        Query("C5 half vs half", homotopic(C5, (0, 1, 2), (0, 4, 3, 2), 9),
              "no_exhausted"),
        Query("C5 out and back", homotopic(
            C5, (0, 1, 2, 3, 2, 1, 0), (0,), 9), "yes"),
        Query("C6 loop", homotopic(C6, c6_loop, (0,), 9), "no_exhausted"),
        Query("C4 double loop", homotopic(
            C4, c4_double, (0,), max(8, len(c4_double) - 1)), "yes"),
        Query("psi C5 -> pt", psi(const_c5), True),
        # the generator count of a spanning-tree presentation is
        # |E| - |V| + 1, whatever tree is chosen
        Query("a1 C5xC5", lambda: len(pi1.a1_presentation(P, base).generators),
              len(P.edges()) - len(P.vertices) + 1),
        Query("abelianization C5xC5", lambda: pres.abelianization(),
              (2, [])),
    ]
    queries += [
        Query(f"loop word {name}", trivial(walk), want)
        for name, (walk, want) in words.items()
    ]
    queries += [
        Query(f"isofibration {name}", isofibration(f), "yes_on_tested_range")
        for name, f in fibrations.items()
    ]
    queries += [
        Query("isofibration end pt -> I1",
              isofibration(gr.GraphMap(I0, I1, {0: 0})), "counterexample"),
        Query("psi id I1", psi(gr.graph_identity(I1)), True),
    ]
    return queries


# ---------------------------------------------------------------------------
# presheaf: site, presheaf, skeleta, lifting and product do the work


def presheaf(seed):
    from cubigraph import lifting as lf
    from cubigraph import presheaf as ps
    from cubigraph import product as pr
    from cubigraph import skeleta as sk

    def counts(X):
        return tuple(len(X.cells[d]) for d in X.dims())

    square = ps.build_standard("cube", 2, trunc_dim=3).realized
    boundary = ps.build_standard("boundary_cube", 2, trunc_dim=3).realized
    cube3 = ps.build_standard("cube", 3, trunc_dim=3).realized
    edge = ps.build_standard("cube", 1, trunc_dim=3).realized

    def cosk(X, n):
        return lambda: counts(sk.coskeleton(X, n)[0])

    queries = [
        Query("cosk_1 square", cosk(square, 1), (4, 8, 24, 142)),
        Query("cosk_2 square", cosk(square, 2), (4, 8, 21, 85)),
        Query("cosk_1 boundary", cosk(boundary, 1), (4, 8, 24, 142)),
    ]

    # the criterion-05 k=3 rows: every square of each inclusion against
    # the terminal maps of the point and the interval
    incls = [("boundary", ps.build_standard(
        "boundary_cube", 3, trunc_dim=3).inclusion)]
    incls += [
        (f"box {i},{eps}",
         ps.build_standard("open_box", 3, i, eps, trunc_dim=3).inclusion)
        for i in (1, 2, 3) for eps in (0, 1)
    ]
    targets = {
        "point": (ps.build_standard("cube", 0, trunc_dim=3).realized, (1, 1)),
        "interval": (ps.build_standard("cube", 1, trunc_dim=3).realized,
                     (20, 17)),
    }

    def solve_all(i, X):
        def run():
            f = lf.terminal_map(X)
            squares = lf.squares_over(i, f)
            lifted = sum(
                "no_lift" not in lf.solve(lf.LiftingProblem(i, f, u, v))
                for u, v in squares
            )
            return len(squares), lifted
        return run

    queries += [
        Query(f"solve {iname} / {tname}", solve_all(i, X), want)
        for iname, i in incls
        for tname, (X, want) in targets.items()
    ]

    def identities():
        rows = sk.verify_skeletal_identities("cubical", 2, 5)
        return len(rows), all(row["ok"] for row in rows)

    queries += [
        Query("triangulate cube3", lambda: counts(pr.triangulate(cube3)),
              (8, 27, 64, 125)),
        Query("geometric product square x edge",
              lambda: counts(pr.geometric_product(square, edge)),
              (8, 20, 62, 231, 990, 4686)),
        Query("skeletal identities cubical 2..5", identities, (35, True)),
    ]

    # criterion 04: cosk_{n+1} sk_{n+1} X is cosk_{n+1} X over X, for a
    # random X drawn in the query from its own seeded generator
    def cosk_sk(site, n, trial_seed):
        def run():
            rng = random.Random(trial_seed)
            X = ps.random_presheaf(site, n + 2, rng, max_nondeg=8)
            S, _ = sk.skeleton(X, n + 1)
            A, _ = sk.coskeleton(S, n + 1)
            B, unit = sk.coskeleton(X, n + 1)
            into_a = ps.PresheafMap(X, A, unit.components)
            return into_a.is_valid() and ps.is_isomorphic_over(into_a, unit)[0]
        return run

    for j, (site, n) in enumerate(
        (("cubical", 0), ("simplicial", 0), ("simplicial", 1))
    ):
        for trial in range(6):
            trial_seed = seed * 1000 + j * 100 + trial
            queries.append(Query(f"cosk sk {site} n={n} #{trial}",
                                 cosk_sk(site, n, trial_seed), True))
    return queries


# ---------------------------------------------------------------------------
# cli: one cold process per query over a fixed corpus


def cli_corpus(workdir):
    """Write the CLI input files into workdir; return name -> path."""
    from cubigraph import graphs as gr
    from cubigraph import lifting as lf
    from cubigraph import presheaf as ps

    I0, I1 = gr.interval(0), gr.interval(1)
    C4, C5 = gr.cycle(4), gr.cycle(5)
    cube1 = ps.build_standard("cube", 1, trunc_dim=2).realized
    cube2 = ps.build_standard("cube", 2, trunc_dim=2).realized
    docs = {
        "C4": C4.to_json(),
        "C5": C5.to_json(),
        "I1xI1": gr.box_product(I1, I1).to_json(),
        "pt_I1": gr.GraphMap(I0, I1, {0: 0}).to_json(),
        "id_I1": gr.graph_identity(I1).to_json(),
        "cube1": cube1.to_json(),
        "cube2": cube2.to_json(),
        "terminal": ps.map_to_json(lf.terminal_map(cube1)),
        "bad_budget": {"cell_budget": "lots"},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    paths["malformed"] = os.path.join(workdir, "malformed.json")
    with open(paths["malformed"], "w") as fh:
        fh.write('{"vertices": [0, 1], "edges": [[0, 1]')
    paths["missing"] = os.path.join(workdir, "missing.json")
    return paths


def cli(paths):
    """The CLI queries.  Digests are sha256 prefixes of the --json stdout,
    which must be byte-deterministic; a bad-input exit prints nothing."""
    p = paths
    q = CliQuery
    empty = "e3b0c44298fc"
    return [
        q("selftest", "selftest", ["selftest", "--json"], 0, "3f7d1ae609c2"),
        q("verify-identities", "verify-identities",
          ["verify-identities", "--json"], 0, "0a7188f44517"),
        q("pi0 I1xI1", "pi0", ["pi0", "--graph", p["I1xI1"], "--json"],
          0, "798410d71196"),
        q("a1 C5", "a1", ["a1", "--graph", p["C5"], "--base", "0", "--json"],
          0, "6cc854a14465"),
        q("a1 I1xI1", "a1", ["a1", "--graph", p["I1xI1"], "--json"],
          0, "93f462ec18dd"),
        q("paths-homotopic C4", "paths-homotopic",
          ["paths-homotopic", "--graph", p["C4"], "--p1", "0,1,2",
           "--p2", "0,3,2", "--json"], 0, "b97fac199b15"),
        q("paths-homotopic C5", "paths-homotopic",
          ["paths-homotopic", "--graph", p["C5"], "--p1", "0,1,2",
           "--p2", "0,4,3,2", "--json"], 1, "dd0dad70f7aa"),
        q("check-graph-fibration pt -> I1", "check-graph-fibration",
          ["check-graph-fibration", "--map", p["pt_I1"], "--json"],
          1, "5da823759bd9"),
        # the terminal map of the 1-cube fails both: no edge runs 1 -> 0
        q("check-rlp I", "check-rlp",
          ["check-rlp", "--map", p["terminal"], "--set", "I", "--n", "0",
           "--json"], 1, "a6ff22199a69"),
        q("check-rlp J", "check-rlp",
          ["check-rlp", "--map", p["terminal"], "--set", "J", "--n", "0",
           "--json"], 1, "8f83097ff414"),
        q("sk cube2", "sk", ["sk", "--input", p["cube2"], "--n", "1",
                             "--json"], 0, "caa69d1c791f"),
        q("cosk cube1", "cosk", ["cosk", "--input", p["cube1"], "--n", "0",
                                 "--json"], 0, "a4f25646676b"),
        q("cosk cube2", "cosk", ["cosk", "--input", p["cube2"], "--n", "1",
                                 "--json"], 0, "97717aec00ae"),
        q("triangulate cube2", "triangulate",
          ["triangulate", "--input", p["cube2"], "--json"], 0, "6faf171a69f4"),
        q("geometric-product cube1 cube1", "geometric-product",
          ["geometric-product", "--x", p["cube1"], "--y", p["cube1"],
           "--json"], 0, "cb9199b0f5e4"),
        q("nerve-stats C4", "nerve-stats",
          ["nerve-stats", "--graph", p["C4"], "--dim", "2", "--support", "1",
           "--json"], 0, "fdee723a7d43"),
        q("nerve-stats C5", "nerve-stats",
          ["nerve-stats", "--graph", p["C5"], "--dim", "1", "--support", "2",
           "--json"], 0, "a5229bbe84e4"),
        # id I1 is a fibration, so the comparison must pass; its report
        # has never been printed, so it has no digest yet
        q("psi-check id I1", "psi-check",
          ["psi-check", "--f", p["id_I1"], "--g", p["id_I1"],
           "--samples", "2", "--json"], 0, None),
        q("missing file", "pi0", ["pi0", "--graph", p["missing"]], 2, empty),
        q("malformed json", "pi0", ["pi0", "--graph", p["malformed"]],
          2, empty),
        q("bad cell_budget", "nerve-stats",
          ["--config", p["bad_budget"], "nerve-stats", "--graph", p["C4"],
           "--dim", "1"], 2, empty),
        q("nerve-stats dim -1", "nerve-stats",
          ["nerve-stats", "--graph", p["C4"], "--dim", "-1"], 2, empty),
    ]


IN_PROCESS = {"fibration": fibration, "homotopy": homotopy,
              "presheaf": presheaf}
WORKLOADS = ("fibration", "homotopy", "presheaf", "cli")
