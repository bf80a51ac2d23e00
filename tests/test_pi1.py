"""Paths, bounded path homotopy, fundamental groupoid presentations, and
the pullback comparison machinery."""

import hashlib
import itertools
import json
import random
from collections import Counter, deque
from types import SimpleNamespace

import pytest

from cubigraph import graphs as gr
from cubigraph import pi1


def test_path_construction_and_trim():
    I3 = gr.interval(3)
    p = pi1.make_path(I3, (0, 1, 1, 2, 3, 3, 3))
    assert p.start == 0 and p.end == 3
    # constant tails are trimmed away, interior repeats stay
    assert p.word[-1] == 3 and p.word[-2] != 3
    c = pi1.constant_path(I3, 2)
    assert len(c.word) == 1


def test_make_path_rejects_a_start_outside_the_graph():
    C4 = gr.cycle(4)
    for word in ((99,), (99, 0), (0, 99)):
        with pytest.raises(ValueError):
            pi1.make_path(C4, word)


def test_concat_and_inverse():
    C5 = gr.cycle(5)
    p = pi1.make_path(C5, (0, 1, 2))
    q = pi1.make_path(C5, (2, 3, 4))
    pq = pi1.concat(p, q)
    assert pq.start == 0 and pq.end == 4
    assert pi1.inverse(pq).word == tuple(reversed(pq.word))
    with pytest.raises(ValueError):
        pi1.concat(q, p)


def test_path_homotopic_reflexive_and_symmetric():
    C5 = gr.cycle(5)
    p = pi1.make_path(C5, (0, 1, 2))
    q = pi1.make_path(C5, (0, 4, 3, 2))
    same = pi1.path_homotopic_bounded(p, p)
    assert same.verdict == "yes"
    r1 = pi1.path_homotopic_bounded(p, q, max_support=8)
    r2 = pi1.path_homotopic_bounded(q, p, max_support=8)
    assert r1.verdict == r2.verdict


def test_two_halves_of_square_homotopic():
    P = gr.box_product(gr.interval(1), gr.interval(1))
    p = pi1.make_path(P, ((0, 0), (0, 1), (1, 1)))
    q = pi1.make_path(P, ((0, 0), (1, 0), (1, 1)))
    rep = pi1.path_homotopic_bounded(p, q)
    assert rep.verdict == "yes"
    # the returned layers are a genuine homotopy: consecutive rows admit
    # endpoint paddings to a common length that are pointwise adjacent
    layers = rep.layers
    assert layers[0] == p.word and layers[-1] == q.word

    def one_step(a, b):
        for length in range(max(len(a), len(b)), len(a) + len(b) + 1):
            for fa in range(length - len(a) + 1):
                pa = (a[0],) * fa + a + (a[-1],) * (length - len(a) - fa)
                for fb in range(length - len(b) + 1):
                    pb = (b[0],) * fb + b + (b[-1],) * (length - len(b) - fb)
                    if all(P.adjacent(x, y) for x, y in zip(pa, pb)):
                        return True
        return False

    for a, b in zip(layers, layers[1:]):
        assert one_step(a, b)


def test_around_c5_not_null_homotopic():
    C5 = gr.cycle(5)
    loop = pi1.make_path(C5, (0, 1, 2, 3, 4, 0))
    const = pi1.constant_path(C5, 0)
    rep = pi1.path_homotopic_bounded(loop, const, max_support=8,
                                     max_steps=50000)
    assert rep.verdict == "no_exhausted"


def test_around_c3_contracts():
    C3 = gr.cycle(3)
    loop = pi1.make_path(C3, (0, 1, 2, 0))
    const = pi1.constant_path(C3, 0)
    rep = pi1.path_homotopic_bounded(loop, const)
    assert rep.verdict == "yes"


def test_presentations_of_small_cycles():
    # 3- and 4-cycles have trivial fundamental group
    for n in (3, 4):
        pres = pi1.a1_presentation(gr.cycle(n), 0)
        assert len(pres.generators) == 1
        word = ((0, 1),)
        assert pi1.loop_word_trivial(pres, word) is True
    # 5- and 6-cycles have fundamental group Z
    for n in (5, 6):
        pres = pi1.a1_presentation(gr.cycle(n), 0)
        assert pres.abelianization() == (1, [])
        assert pi1.loop_word_trivial(pres, ((0, 1),)) is False


def test_presentation_of_tree_is_trivial():
    pres = pi1.a1_presentation(gr.interval(4), 0)
    assert pres.generators == []
    assert pres.abelianization() == (0, [])


def _oracle_a1_relators(X, pres):
    """Oracle: the relators of a1_presentation by trying every 3-subset and
    all 24 orderings of every 4-subset of the component."""
    relators = set()

    def add(word):
        if not word:
            return
        variants = []
        for w in (word, tuple((i, -s) for i, s in reversed(word))):
            for rot in range(len(w)):
                variants.append(pi1._free_reduce(w[rot:] + w[:rot]))
        relators.add(min(v for v in variants if v))

    verts = pres.component
    for a, b, c in itertools.combinations(verts, 3):
        if b in X.adj[a] and c in X.adj[b] and a in X.adj[c]:
            add(pi1.walk_to_word(pres, (a, b, c, a)))
    for quad in itertools.combinations(verts, 4):
        for perm in itertools.permutations(quad):
            if perm[0] != min(perm):
                continue
            a, b, c, d = perm
            if (b in X.adj[a] and c in X.adj[b]
                    and d in X.adj[c] and a in X.adj[d]):
                add(pi1.walk_to_word(pres, (a, b, c, d, a)))
    return sorted(relators)


def test_presentation_relators_agree_with_subset_oracle():
    """Relators from walking 3- and 4-cycles along adjacency equal those of
    the subset enumeration, as a sorted list, at every base point of C3-C6
    and I1xI1 and at the first vertex of C4xI2 and the C5xC5 pullback."""
    I1 = gr.interval(1)
    C5 = gr.cycle(5)
    f = gr.constant_map(C5, gr.interval(0), 0)
    P, _, _ = gr.pullback(f, f)
    small = [gr.cycle(n) for n in (3, 4, 5, 6)] + [gr.box_product(I1, I1)]
    cases = [(X, x) for X in small for x in X.vertices]
    for X in (gr.box_product(gr.cycle(4), gr.interval(2)), P):
        cases.append((X, X.vertices[0]))
    for X, x in cases:
        pres = pi1.a1_presentation(X, x)
        assert pres.relators == _oracle_a1_relators(X, pres), (X, x)
    # the pullback's triangles and squares give 400 distinct relators
    assert len(pres.relators) == 400


def test_generator_loop_and_walk_round_trip():
    C5 = gr.cycle(5)
    pres = pi1.a1_presentation(C5, 0)
    for j in range(len(pres.generators)):
        loop = pres.generator_loop(j)
        assert loop.start == 0 and loop.end == 0
        back = pi1.walk_to_word(pres, loop.word)
        assert back == ((j, 1),)


def test_presentation_oracle_agreement_on_corpus():
    # generator-word triviality must agree with bounded direct homotopy
    for X in (gr.cycle(4), gr.cycle(5), gr.interval(2)):
        pres = pi1.a1_presentation(X, 0)
        for j in range(len(pres.generators)):
            loop = pres.generator_loop(j)
            alg = pi1.loop_word_trivial(pres, ((j, 1),))
            direct = pi1.path_homotopic_bounded(
                loop, pi1.constant_path(X, 0), max_support=8
            )
            if alg is True:
                assert direct.verdict == "yes"
            elif alg is False:
                assert direct.verdict != "yes"


def test_pi1_functor_on_identity_and_fold():
    C5 = gr.cycle(5)
    ident = gr.graph_identity(C5)
    ff = pi1.pi1_functor(ident)
    pres = ff.source
    for j, img in enumerate(ff.generator_images):
        # identity sends each generator to a conjugate of itself
        assert pi1.loop_word_trivial(
            pres, pi1._free_reduce(img + ((j, -1),))
        ) in (True, None)


def test_lift_path_through_projection():
    C5 = gr.cycle(5)
    P, p1, p2 = gr.graph_product(C5, gr.interval(1))
    down = pi1.make_path(C5, (0, 1, 2))
    lifted = pi1._lift_path(p1, (0, 0), down)
    assert lifted is not None
    assert lifted.mapped(p1).word == down.word


def _lift_path_by_prefixes(f, x0, path_down):
    """The exact path lift as a depth-first search that records every
    pushed prefix, so it never prunes: the oracle for _lift_path."""
    X = f.source
    word = path_down.word
    stack = [(x0,)]
    seen = set()
    while stack:
        prefix = stack.pop()
        if len(prefix) == len(word):
            return pi1.make_path(X, prefix).word
        j = len(prefix)
        for x2 in X.neighbors(prefix[-1]):
            if f.assignment[x2] == word[j]:
                nxt = prefix + (x2,)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return None


def _random_graph(rng, n, p):
    return gr.Graph(range(n), [
        e for e in itertools.combinations(range(n), 2) if rng.random() < p
    ])


def test_lift_path_matches_the_prefix_search():
    rng = random.Random(0)
    misses = 0
    for _ in range(2000):
        X = _random_graph(rng, rng.randint(1, 7), 0.4)
        Y = _random_graph(rng, rng.randint(1, 4), 0.5)
        f = gr.GraphMap(X, Y, {v: rng.randrange(len(Y.vertices))
                               for v in X.vertices})
        x0 = rng.choice(X.vertices)
        word = [f.assignment[x0]]
        for _ in range(rng.randint(0, 7)):
            word.append(rng.choice(Y.neighbors(word[-1])))
        down = pi1.make_path(Y, word)
        lifted = pi1._lift_path(f, x0, down)
        expected = _lift_path_by_prefixes(f, x0, down)
        if expected is None:
            misses += 1
            assert lifted is None
        else:
            assert lifted.word == expected
    # both outcomes are exercised
    assert 200 < misses < 1800


def test_isofibration_yes_and_counterexample():
    C5 = gr.cycle(5)
    proj = gr.GraphMap(
        gr.box_product(C5, gr.interval(1)), C5,
        {v: v[0] for v in gr.box_product(C5, gr.interval(1)).vertices},
    )
    rep = pi1.is_isofibration_bounded(proj, samples=6)
    assert rep.verdict == "yes_on_tested_range"
    # the end inclusion of a vertex misses lifts of outgoing paths
    I1 = gr.interval(1)
    pt = gr.interval(0)
    incl = gr.GraphMap(pt, I1, {0: 0})
    rep = pi1.is_isofibration_bounded(incl)
    assert rep.verdict == "counterexample"


def test_isofibration_compares_long_candidates_at_their_length():
    # the inclusion I3 -> C4 misses the lift of the step 0 -> 3, and the
    # source walks tried instead run up to max_len + max_support steps;
    # comparing them at max_support alone raised a ValueError
    incl = gr.GraphMap(gr.interval(3), gr.cycle(4), {0: 0, 1: 1, 2: 2, 3: 3})
    # over I1, the lift 0, 2, 4 of (1, 0) from 0 first moves inside the
    # fibre over 1, so the exact lift misses it and the image search runs
    X = gr.Graph(range(5), [(0, 1), (0, 2), (2, 4), (3, 4)])
    fibre = gr.GraphMap(X, gr.interval(1), {0: 1, 1: 1, 2: 1, 3: 1, 4: 0})
    for f, kwargs, tested in ((incl, dict(max_len=2, max_support=2), 28),
                              (incl, dict(max_len=4, max_support=3), 220),
                              (incl, {}, 220), (fibre, {}, 45)):
        rep = pi1.is_isofibration_bounded(f, **kwargs)
        assert rep.verdict == "yes_on_tested_range"
        assert rep.detail == {"tested": tested}


def _walks_by_brute_force(graph, a, max_len):
    """Every walk from a of at most max_len steps, trimmed, deduplicated
    and sorted."""
    walks = [(a,)]
    for walk in walks:
        if len(walk) <= max_len:
            walks.extend(walk + (v,) for v in graph.neighbors(walk[-1]))
    return sorted({pi1._trim(walk) for walk in walks})


def test_walks_agree_with_brute_force():
    rng = random.Random(6)
    for G in _step_test_graphs(rng):
        for a in G.vertices:
            assert list(pi1._walks(G, a, 0)) == [(a,)]
            for max_len in range(1, 5):
                assert list(pi1._walks(G, a, max_len)) == (
                    _walks_by_brute_force(G, a, max_len)), (a, max_len)


def _paths_between(graph, a, b, max_len):
    """All trimmed words from a to b with at most max_len steps."""
    out = set()
    stack = [(a,)]
    while stack:
        prefix = stack.pop()
        if prefix[-1] == b:
            out.add(pi1._trim(prefix))
        if len(prefix) <= max_len:
            for w in graph.neighbors(prefix[-1]):
                stack.append(prefix + (w,))
    return sorted(out)


def _isofibration_oracle(f, max_len, max_support, max_steps, samples, seed):
    """(verdict, detail) of is_isofibration_bounded as it was before the
    walks from each object were listed once: the walks to each end are
    listed per call, and a miss searches every walk into the fibre over
    the path's end, vertex by vertex."""
    X, Y = f.source, f.target
    rng = random.Random(seed)
    tested = 0
    inconclusive = 0
    for x in X.vertices:
        y = f.assignment[x]
        targets = []
        for end in Y.vertices:
            targets.extend(
                pi1.make_path(Y, w)
                for w in _paths_between(Y, y, end, max_len))
        if samples is not None and len(targets) > samples:
            targets = rng.sample(targets, samples)
        for eta in targets:
            tested += 1
            if pi1._lift_path(f, x, eta) is not None:
                continue
            fiber = [v for v in X.vertices if f.assignment[v] == eta.end]
            if not fiber:
                return "counterexample", {
                    "object": x, "path": eta.word,
                    "reason": "empty fiber over the path end"}
            found = False
            for end in fiber:
                for w in _paths_between(X, x, end, max_len + max_support):
                    image = pi1.make_path(X, w).mapped(f)
                    r = pi1.path_homotopic_bounded(
                        image, eta,
                        max(max_support, len(image), len(eta)), max_steps)
                    if r.verdict == "yes":
                        found = True
                        break
                if found:
                    break
            if not found:
                inconclusive += 1
    if inconclusive:
        return "inconclusive", {"tested": tested, "undecided": inconclusive}
    return "yes_on_tested_range", {"tested": tested}


def _random_graph_map(rng, X, Y):
    while True:
        f = gr.GraphMap(X, Y, {v: rng.randrange(len(Y.vertices))
                               for v in X.vertices})
        if f.is_valid():
            return f


def test_isofibration_agrees_with_the_per_fibre_oracle():
    rng = random.Random(8)
    verdicts = Counter()
    for _ in range(160):
        X = _random_graph(rng, rng.randint(1, 5), 0.5)
        Y = _random_graph(rng, rng.randint(1, 4), 0.6)
        f = _random_graph_map(rng, X, Y)
        args = (rng.randint(1, 3), rng.randint(1, 2), 2000,
                rng.choice((None, 6)), rng.randrange(100))
        rep = pi1.is_isofibration_bounded(f, *args)
        expected = _isofibration_oracle(f, *args)
        assert (rep.verdict, rep.detail) == expected, (f.assignment, args)
        verdicts[rep.verdict] += 1
    assert set(verdicts) == {
        "yes_on_tested_range", "counterexample", "inconclusive"}, verdicts


def _pairs_by_padding(f, g, ex, wy):
    """Whether some endpoint paddings of the two words to a common length
    make their images under f and g agree pointwise."""
    la, lb = len(ex.word), len(wy.word)
    for width in range(max(la, lb), la + lb + 1):
        for fa in range(width - la + 1):
            xw = (ex.start,) * fa + ex.word + (ex.end,) * (width - la - fa)
            for fb in range(width - lb + 1):
                yw = (wy.start,) * fb + wy.word + (wy.end,) * (
                    width - lb - fb)
                if all(f.assignment[x] == g.assignment[y]
                       for x, y in zip(xw, yw)):
                    return True
    return False


def test_pullback_pairing_is_equality_of_trimmed_images():
    # the fullness check pairs (eta', tau) to a path of the pullback by
    # comparing the trimmed images, in place of the padding search
    rng = random.Random(9)
    outcomes = Counter()
    for _ in range(3000):
        Z = _random_graph(rng, rng.randint(1, 3), 0.7)
        X = _random_graph(rng, rng.randint(1, 4), 0.6)
        Y = _random_graph(rng, rng.randint(1, 4), 0.6)
        f, g = _random_graph_map(rng, X, Z), _random_graph_map(rng, Y, Z)
        ex = pi1.make_path(X, _random_walk(
            rng, X, rng.choice(X.vertices), rng.randint(0, 4)))
        wy = pi1.make_path(Y, _random_walk(
            rng, Y, rng.choice(Y.vertices), rng.randint(0, 4)))
        paired = ex.mapped(f).word == wy.mapped(g).word
        assert _pairs_by_padding(f, g, ex, wy) == paired, (ex, wy)
        outcomes[paired] += 1
    assert min(outcomes[True], outcomes[False]) > 300, outcomes


def test_psi_comparison_small_instance():
    C3 = gr.cycle(3)
    pt = gr.interval(0)
    f = gr.constant_map(C3, pt, 0)
    report = pi1.psi_comparison(f, f, samples=2, max_len=2, max_support=4,
                                max_steps=4000)
    assert report["pi0"]["verdict"] == "bijection"
    for entry in report["fullness"]:
        assert entry["verdict"] in ("pass", "inconclusive", "skipped")


def test_psi_comparison_at_a_support_below_the_path_lengths():
    # sampled paths run up to max_len = 4 steps; each search compares
    # them at their own length, where that is above max_support
    idI1 = gr.graph_identity(gr.interval(1))
    for support in (0, 1):
        report = pi1.psi_comparison(idI1, idI1, samples=2, max_support=support)
        assert len(report["fullness"]) == len(report["faithfulness"]) == 2


def test_psi_comparison_report_is_pinned():
    C5 = gr.cycle(5)
    f = gr.constant_map(C5, gr.interval(0), 0)
    report = pi1.psi_comparison(f, f, samples=2, seed=0)
    digest = hashlib.sha256(json.dumps(
        report, sort_keys=True, default=repr).encode()).hexdigest()
    assert digest.startswith("f4344a6837df")


def test_psi_comparison_with_an_empty_pullback_draws_no_samples():
    # maps out of the empty graph, and maps whose images miss each other
    I1 = gr.interval(1)
    empty = gr.GraphMap(gr.Graph([], []), I1, {})
    ends = (gr.GraphMap(gr.interval(0), I1, {0: 0}),
            gr.GraphMap(gr.interval(0), I1, {0: 1}))
    for f, g in ((empty, empty), ends):
        report = pi1.psi_comparison(f, g, samples=5)
        assert report == pi1.psi_comparison(f, g, samples=0)
        assert report["pi0"] == {"verdict": "bijection", "upstairs": 0,
                                 "downstairs": 0}
        assert report["passed"] is True


def test_psi_comparison_draws_tau_to_end_over_eta():
    # tau is redrawn until its image ends where eta's does, so every
    # fullness sample of id I1 is a morphism pair and gets checked
    idI1 = gr.graph_identity(gr.interval(1))
    report = pi1.psi_comparison(idI1, idI1, samples=2, seed=0)
    assert report["passed"] is True
    assert report["pi0"]["verdict"] == "bijection"
    assert [entry["verdict"] for entry in report["fullness"]] == [
        "pass", "pass"]


def test_psi_comparison_skips_samples_whose_images_end_apart():
    # over the end inclusion pt -> I1 every tau is constant at 0, so an
    # eta of id I1 that ends at 1 admits no tau, and only it is skipped
    I1 = gr.interval(1)
    f = gr.graph_identity(I1)
    g = gr.GraphMap(gr.interval(0), I1, {0: 0})
    report = pi1.psi_comparison(f, g, samples=3, seed=0)
    verdicts = {
        entry["eta"]: entry["verdict"] for entry in report["fullness"]}
    assert verdicts == {(0, 1, 0): "pass",
                        (0, 1): "skipped (images end apart)"}


def _step_neighbors(graph, word, max_support):
    """Reference step relation: every common padded length and front
    padding separately, then trimming.  _step_words must agree."""
    out = set()
    x, y = word[0], word[-1]
    base_len = len(word)
    for length in range(base_len, max_support + 2):
        for front in range(length - base_len + 1):
            padded = ((x,) * front + word
                      + (y,) * (length - base_len - front))
            stack = [(x,)]
            while stack:
                prefix = stack.pop()
                j = len(prefix)
                if j == length:
                    trimmed = pi1._trim(prefix)
                    if len(trimmed) <= max_support + 1:
                        out.add(trimmed)
                    continue
                if j == length - 1:
                    cands = [y] if graph.adjacent(prefix[-1], y) else []
                else:
                    cands = [
                        v for v in graph.neighbors(padded[j])
                        if graph.adjacent(prefix[-1], v)
                    ]
                for v in cands:
                    stack.append(prefix + (v,))
    out.discard(word)
    return out


def _random_walk(rng, graph, start, steps):
    word = [start]
    for _ in range(steps):
        word.append(rng.choice(graph.neighbors(word[-1])))
    return word


def _step_test_graphs(rng):
    """C3-C6, I1xI1, C5xI1 and 24 random graphs on up to 6 vertices."""
    I1 = gr.interval(1)
    graphs = [gr.cycle(n) for n in (3, 4, 5, 6)]
    graphs += [gr.box_product(I1, I1), gr.box_product(gr.cycle(5), I1)]
    for _ in range(24):
        n = rng.randint(1, 6)
        graphs.append(gr.Graph(range(n), [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.4
        ]))
    return graphs


def test_step_words_agree_with_padding_oracle():
    rng = random.Random(4)
    for G in _step_test_graphs(rng):
        for _ in range(8):
            word = pi1._trim(_random_walk(
                rng, G, rng.choice(G.vertices), rng.randint(0, 5)))
            support = len(word) - 1 + rng.randint(0, 3)
            oracle = _step_neighbors(G, word, support)
            assert list(pi1._step_words(G, word, support)) == sorted(oracle)
            # one-step test on the neighbours and on other paths between
            # the same endpoints, step neighbours or not
            others = {word}
            for _ in range(12):
                walk = _random_walk(rng, G, word[0], rng.randint(0, support))
                if walk[-1] == word[-1] and len(pi1._trim(walk)) <= support + 1:
                    others.add(pi1._trim(walk))
            for b in sorted(oracle | others):
                assert pi1._one_step(G, word, b, support) == (b in oracle)


def test_homotopy_search_is_pinned():
    # explored counts and layers of the breadth-first search, as the
    # eager per-padding enumeration found them
    C5 = gr.cycle(5)
    half = pi1.make_path(C5, (0, 1, 2))
    other = pi1.make_path(C5, (0, 4, 3, 2))
    for support, explored in ((9, 1520), (8, 518)):
        rep = pi1.path_homotopic_bounded(half, other, support, 50000)
        assert (rep.verdict, rep.explored) == ("no_exhausted", explored)
    out_back = pi1.make_path(C5, (0, 1, 2, 3, 2, 1, 0))
    rep = pi1.path_homotopic_bounded(
        out_back, pi1.constant_path(C5, 0), 9, 50000)
    assert (rep.verdict, rep.explored) == ("yes", 443)
    assert rep.layers == [
        (0, 1, 2, 3, 2, 1, 0), (0, 1, 0, 0, 0, 1, 2, 1, 0), (0, 1, 0), (0,)]


def _search_oracle(p, q, max_support, max_steps):
    """(verdict, explored, layers) of the breadth-first search of
    path_homotopic_bounded with every step word enumerated: no subtree of
    admitted words is skipped."""
    graph = p.graph
    if p.word == q.word:
        return "yes", 0, [p.word]
    parent = {p.word: None}
    frontier = deque([p.word])
    explored = 0
    while frontier:
        cur = frontier.popleft()
        explored += 1
        if explored > max_steps:
            return "inconclusive", explored, None
        if pi1._one_step(graph, cur, q.word, max_support):
            layers = [q.word, cur]
            while parent[layers[-1]] is not None:
                layers.append(parent[layers[-1]])
            layers.reverse()
            return "yes", explored, layers
        for nxt in pi1._step_words(graph, cur, max_support):
            if nxt not in parent:
                parent[nxt] = cur
                frontier.append(nxt)
    return "no_exhausted", explored, None


def test_homotopy_search_agrees_with_unpruned_oracle(monkeypatch):
    step_words, yields = pi1._step_words, Counter()

    def counted(graph, word, max_support, *admitted):
        for nxt in step_words(graph, word, max_support, *admitted):
            yields["pruned" if admitted else "oracle"] += 1
            yield nxt

    monkeypatch.setattr(pi1, "_step_words", counted)
    rng = random.Random(13)
    cases = []
    for G in _step_test_graphs(rng):
        for _ in range(3):
            start = rng.choice(G.vertices)
            p = pi1._trim(_random_walk(rng, G, start, rng.randint(2, 6)))
            for _ in range(40):
                q = pi1._trim(_random_walk(rng, G, start, rng.randint(0, 6)))
                if q[-1] == p[-1] and q != p:
                    support = max(len(p), len(q)) - 1 + rng.randint(0, 2)
                    cases.append((G, p, q, support))
                    break
    C5, C6 = gr.cycle(5), gr.cycle(6)
    cases += [(C5, (0, 1, 2), (0, 4, 3, 2), s) for s in range(3, 10)]
    cases += [(C6, (0, 1, 2, 3), (0, 5, 4, 3), s) for s in range(3, 8)]
    cyl = gr.box_product(C5, gr.interval(1))
    cases += [(cyl, tuple((v, 0) for v in (0, 1, 2)),
               tuple((v, 0) for v in (0, 4, 3, 2)), s) for s in range(3, 6)]
    verdicts = Counter()
    for (G, a, b, support), max_steps in itertools.product(
            cases, (10, 200, 50000)):
        p, q = pi1.make_path(G, a), pi1.make_path(G, b)
        rep = pi1.path_homotopic_bounded(p, q, support, max_steps)
        expected = _search_oracle(p, q, support, max_steps)
        assert (rep.verdict, rep.explored, rep.layers) == expected, (a, b)
        verdicts[rep.verdict] += 1
    assert set(verdicts) == {"yes", "no_exhausted", "inconclusive"}
    # the skip must cut work, not only keep the result: most yields of
    # the unpruned search repeat an admitted word.  The search must also
    # enumerate through _step_words, or the pruned count stays 0 and the
    # ratio below holds for nothing
    assert yields["pruned"] > 0, yields
    assert yields["pruned"] * 10 < yields["oracle"], yields


def _unsorted_graphs():
    """C6, C4 and C5xI1 with their vertices stored out of sorted order."""
    C4 = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    cyl = gr.box_product(gr.cycle(5), gr.interval(1))
    return [gr.Graph([3, 0, 5, 1, 4, 2], gr.cycle(6).edges()),
            gr.Graph(["b", "a", "d", "c"], C4),
            gr.Graph(cyl.vertices[1::2] + cyl.vertices[::2], cyl.edges())]


def test_steps_and_search_follow_vertex_value_not_stored_order():
    # children are visited in ascending vertex value, as the padding
    # oracle sorts them, whatever order the graph stores its vertices in
    rng = random.Random(6)
    C6, C4, cyl = _unsorted_graphs()
    cases = [(C6, (0, 1, 2, 3), (0, 5, 4, 3), s) for s in (3, 5, 7)]
    cases += [(C4, ("a", "b", "c"), ("a", "d", "c", "b", "c"), s)
              for s in (4, 6)]
    cases += [(cyl, tuple((v, 1) for v in (0, 1, 2)),
               ((0, 1), (0, 0), (4, 0), (3, 0), (2, 0), (2, 1)), s)
              for s in (5, 6)]
    for G in (C6, C4, cyl):
        assert list(G.vertices) != sorted(G.vertices)
        for _ in range(8):
            start = rng.choice(G.vertices)
            p = pi1._trim(_random_walk(rng, G, start, rng.randint(1, 5)))
            support = len(p) - 1 + rng.randint(0, 2)
            oracle = _step_neighbors(G, p, support)
            assert list(pi1._step_words(G, p, support)) == sorted(oracle)
            assert all(pi1._one_step(G, p, b, support) for b in oracle)
            for _ in range(40):
                q = pi1._trim(_random_walk(rng, G, start, rng.randint(2, 6)))
                if q[-1] == p[-1] and q != p:
                    cases.append((G, p, q, max(len(p), len(q)) + 1))
                    break
    verdicts = Counter()
    for G, p, q, support in cases:
        a, b = pi1.make_path(G, p), pi1.make_path(G, q)
        rep = pi1.path_homotopic_bounded(a, b, support, 2000)
        assert (rep.verdict, rep.explored, rep.layers) == _search_oracle(
            a, b, support, 2000), (p, q)
        verdicts[rep.verdict] += 1
    assert set(verdicts) == {"yes", "no_exhausted"}
    rep = pi1.path_homotopic_bounded(
        pi1.make_path(C6, (0, 1, 2, 3, 2, 1, 0)), pi1.constant_path(C6, 0),
        8, 50000)
    assert (rep.verdict, rep.explored) == ("yes", 146)
    assert rep.layers == [(0, 1, 2, 3, 2, 1, 0), (0, 1, 0, 0, 1, 2, 1, 0),
                          (0, 1, 0), (0,)]


def test_step_relation_is_symmetric():
    # a word is one step from each of its step words, and a word that is
    # not a step word of a is not one step from a either way
    rng = random.Random(7)
    steps = 0
    for G in _step_test_graphs(rng):
        for _ in range(8):
            a = pi1._trim(_random_walk(
                rng, G, rng.choice(G.vertices), rng.randint(0, 5)))
            support = len(a) - 1 + rng.randint(0, 3)
            others = set()
            for _ in range(12):
                walk = _random_walk(rng, G, a[0], rng.randint(0, support))
                if walk[-1] == a[-1] and len(pi1._trim(walk)) <= support + 1:
                    others.add(pi1._trim(walk))
            for b in pi1._step_words(G, a, support):
                assert pi1._one_step(G, b, a, support), (a, b)
                steps += 1
            for b in others:
                assert (pi1._one_step(G, a, b, support)
                        == pi1._one_step(G, b, a, support)), (a, b)
    assert steps > 1000, steps


def _admission_order(graph, word, max_support, exhausted):
    """(word, parent) for every word reachable from word within the
    support, in the order the breadth-first search of
    path_homotopic_bounded admits them, with exhausted passed on to
    _step_words (None: every step word is enumerated)."""
    top = max_support + 1
    ids = pi1._vertex_ids(graph)
    parent, frontier = {word: None}, deque([word])
    while frontier:
        cur = frontier.popleft()
        table = pi1._step_table(ids, cur, top)
        for nxt in pi1._step_words(graph, cur, max_support, exhausted, table):
            if nxt not in parent:
                parent[nxt] = cur
                frontier.append(nxt)
    return list(parent.items())


def test_exhausted_windows_keep_the_admission_order():
    # the memo cuts only subtrees that hold no fresh word, so every word
    # is admitted in the same order and from the same parent.  A key that
    # dropped the window, read it one position off or left out its length
    # (how many positions a negative shift leaves) reorders these
    C4, C5 = gr.cycle(4), gr.cycle(5)
    cases = [(C4, (3, 2, 1, 2, 1), 4), (C4, (3, 0, 1, 1, 2), 7),
             (C5, (4, 3, 4, 0, 4, 3), 6), (C5, (0, 1, 2), 7)]
    rng = random.Random(8)
    for G in _step_test_graphs(rng):
        word = pi1._trim(_random_walk(
            rng, G, rng.choice(G.vertices), rng.randint(0, 5)))
        cases.append((G, word, len(word) - 1 + rng.randint(0, 2)))
    for G, word, support in cases:
        assert (_admission_order(G, word, support, {})
                == _admission_order(G, word, support, None)), (word, support)


def test_step_word_yields_are_pinned(monkeypatch):
    # how many words _step_words hands the search; the completion-count
    # skip that the exhausted-window memo replaced yielded 11,017 and 4,972
    step_words, yields = pi1._step_words, Counter()

    def counted(*args):
        for nxt in step_words(*args):
            yields["all"] += 1
            yield nxt

    monkeypatch.setattr(pi1, "_step_words", counted)
    C5 = gr.cycle(5)
    rep = pi1.path_homotopic_bounded(pi1.make_path(C5, (0, 1, 2)),
                                     pi1.make_path(C5, (0, 4, 3, 2)), 9, 50000)
    assert (rep.verdict, rep.explored, yields["all"]) == (
        "no_exhausted", 1520, 3228)
    yields.clear()
    rep = pi1.path_homotopic_bounded(
        pi1.make_path(C5, (0, 1, 2, 3, 2, 1, 0)), pi1.constant_path(C5, 0),
        9, 50000)
    assert (rep.verdict, rep.explored, yields["all"]) == ("yes", 443, 2589)


def _oracle_step_table(ids, word, top):
    """Oracle: pi1._step_table as it was with one row of shift masks per
    position, and a backward pass that keeps in each row only the shifts
    under which a prefix through that vertex can still be completed."""
    _, index, close, masks, _ = ids
    w = [index[v] for v in word]
    n = len(w)
    x, y = w[0], w[-1]
    span = 2 * top - n
    h = next((j for j, v in enumerate(w) if not masks[x] >> v & 1), n)
    g = next((j + 1 for j in range(n - 1, -1, -1)
              if not masks[y] >> w[j] & 1), 0)
    every = (1 << span) - 1
    front = every if h == n else every >> (top - 1 - h) << (top - 1 - h)
    tail = [every if g == 0 else (1 << min(span, m + top - g)) - 1
            for m in range(top + 1)]
    first = [0] * len(close)
    for k in range(span):
        for v in close[w[pi1._clamp(top - 1 - k, n)]]:
            first[v] |= 1 << k
    rows = [[bits << i & every for bits in first] for i in range(top)]
    if top > 1:
        rows[1][x] = 0
    later = [0] * len(close)
    for i in range(top - 1, -1, -1):
        row = rows[i]
        for v, bits in enumerate(row):
            if bits:
                reach = tail[i + 1] if v == y else 0
                for u in close[v]:
                    reach |= later[u]
                row[v] = bits & reach
        later = row
    return ids, w, front, tail, rows


def _oracle_step_words(max_support, exhausted, table):
    """Oracle: pi1._step_words as it was on the rows of
    _oracle_step_table, with absolute shift masks and no distance cut."""
    top = max_support + 1
    ids, w, front, tail, rows = table
    verts, _, _, _, down = ids
    x, y = w[0], w[-1]
    n, base = len(w), len(verts) + 1
    cap, back = base ** top, [y + 1]
    for v in reversed(w[:-1]):
        back.append(back[-1] * base + v + 1)
    back = [cap * ((top + 1) * c + top) for c in reversed(back)]
    near = ([back[0] + cap * j for j in range(-top, 0)] + back
            + [back[-1]] * (2 * top - n))
    prefix = [x] * top
    stack = [(0, x, x + 1, front & rows[0][x])]
    while stack:
        i, last, code, live = stack.pop()
        prefix[i] = last
        m = i + 1
        if (last == y and (i == 0 or prefix[i - 1] != y)
                and live & tail[m] and prefix[:m] != w):
            yield tuple([verts[v] for v in prefix[:m]])
        if m == top:
            continue
        row, code, at = rows[m], code * base, m + 1 + 2 * top
        for v in down[last]:
            bits = live & row[v]
            if bits:
                child, rest = code + v + 1, bits if m + 1 < top else 0
                while rest:
                    low = rest & -rest
                    k = low.bit_length()
                    key = child + near[at - k]
                    d = top - k if k < top else 0
                    if exhausted.get(key, top) <= d:
                        bits ^= low
                    else:
                        exhausted[key] = d
                    rest ^= low
                if bits:
                    stack.append((m, v, child, bits))


def _lockstep_search(p, q, max_support, max_steps):
    """(verdict, explored, layers) of path_homotopic_bounded's search run
    on the oracle table and enumeration, each with its own memo.  At every
    popped word it also runs pi1._step_words, with the search's distance
    table and a memo of its own, and asserts that both list the same
    words in the same order."""
    graph, top = p.graph, max_support + 1
    if p.word == q.word:
        return "yes", 0, [p.word]
    ids = pi1._vertex_ids(graph)
    dist = pi1._end_distances(ids, ids[1][q.end])
    parent, frontier = {p.word: None}, deque([p.word])
    explored, old_memo, new_memo = 0, {}, {}
    while frontier:
        cur = frontier.popleft()
        explored += 1
        if explored > max_steps:
            return "inconclusive", explored, None
        table = _oracle_step_table(ids, cur, top)
        live = table[2] & table[3][len(q.word)]
        for row, v in zip(table[4], q.word):
            live &= row[ids[1][v]]
        if live and len(q.word) <= top:
            layers = [q.word, cur]
            while parent[layers[-1]] is not None:
                layers.append(parent[layers[-1]])
            layers.reverse()
            return "yes", explored, layers
        words = list(_oracle_step_words(max_support, old_memo, table))
        assert list(pi1._step_words(
            graph, cur, max_support, new_memo,
            pi1._step_table(ids, cur, top), dist)) == words, cur
        for nxt in words:
            if nxt not in parent:
                parent[nxt] = cur
                frontier.append(nxt)
    return "no_exhausted", explored, None


def _connected_graph(rng, n):
    while True:
        G = _random_graph(rng, n, 0.4)
        if len(gr.pi0(G)) == 1:
            return G


def test_distance_cut_search_agrees_with_the_backward_pass_oracle():
    # the step table drops its backward completion pass and the
    # enumeration cuts prefixes by their distance to the end instead:
    # every popped word must list the same step words in the same order,
    # and every search must pop the same words and return the same layers
    rng = random.Random(36)
    I1, I2 = gr.interval(1), gr.interval(2)
    C5, C6 = gr.cycle(5), gr.cycle(6)
    graphs = [gr.cycle(n) for n in range(3, 9)]
    graphs += [gr.box_product(I1, I1), gr.box_product(I1, I2),
               gr.box_product(I2, I2), gr.box_product(gr.cycle(4), I1)]
    graphs += [_connected_graph(rng, rng.randint(4, 8)) for _ in range(10)]
    cases = [(C5, (0, 1, 2), (0, 4, 3, 2), s, 2000) for s in range(3, 8)]
    cases += [(C6, (0, 1, 2, 3), (0, 5, 4, 3), s, 2000) for s in (3, 5)]
    cases.append((C5, (0, 1, 2, 3, 2, 1, 0), (0,), 8, 2000))
    for G in graphs:
        for _ in range(4):
            start = rng.choice(G.vertices)
            a = pi1._trim(_random_walk(rng, G, start, rng.randint(2, 7)))
            for _ in range(60):
                b = pi1._trim(_random_walk(rng, G, start, rng.randint(2, 7)))
                if b[-1] == a[-1] and b != a:
                    cases.append((G, a, b, max(len(a), len(b)) - 1
                                  + rng.randint(1, 3), rng.choice((40, 2000))))
                    break
    verdicts = Counter()
    for G, a, b, support, max_steps in cases:
        p, q = pi1.make_path(G, a), pi1.make_path(G, b)
        rep = pi1.path_homotopic_bounded(p, q, support, max_steps)
        assert (rep.verdict, rep.explored, rep.layers) == (
            _lockstep_search(p, q, support, max_steps)), (G, a, b)
        verdicts[rep.verdict] += 1
    assert set(verdicts) == {"yes", "no_exhausted", "inconclusive"}, verdicts
    assert sum(verdicts.values()) >= 80, verdicts


def _hnf_contains(rows, image):
    import sympy
    from sympy.matrices.normalforms import hermite_normal_form

    if not rows:
        return not any(image)
    with_rows = sympy.Matrix(rows)
    stacked = with_rows.col_join(sympy.Matrix([list(image)]))
    return hermite_normal_form(with_rows.T) == hermite_normal_form(stacked.T)


def test_lattice_contains_agrees_with_hermite_normal_form():
    rng = random.Random(11)
    for _ in range(120):
        r, c = rng.randint(0, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        if rows and rng.random() < 0.5:
            # an image in the lattice, half of the time
            image = [0] * c
            for row in rows:
                k = rng.randint(-3, 3)
                image = [a + k * b for a, b in zip(image, row)]
        else:
            image = [rng.randint(-6, 6) for _ in range(c)]
        assert pi1._lattice_contains(rows, image) == _hnf_contains(
            rows, image), (rows, image)


def _sympy_abelianization(pres):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    g = len(pres.generators)
    if g == 0:
        return 0, []
    if not pres.relators:
        return g, []
    snf = smith_normal_form(sympy.Matrix(pi1._relator_rows(pres)))
    diag = [abs(snf[i, i]) for i in range(min(snf.shape))]
    nonzero = [int(d) for d in diag if d != 0]
    return g - len(nonzero), [d for d in nonzero if d != 1]


def test_abelianization_agrees_with_sympy_smith_normal_form():
    C4, C5, I1 = gr.cycle(4), gr.cycle(5), gr.interval(1)
    graphs = [gr.cycle(n) for n in (3, 4, 5, 6)] + [
        gr.box_product(I1, I1), gr.box_product(C4, C4),
        gr.box_product(C5, C5), gr.box_product(C5, I1)]
    for G in graphs:
        pres = pi1.a1_presentation(G, G.vertices[0])
        assert pres.abelianization() == _sympy_abelianization(pres), G
    # random relator matrices, with zero rows and torsion; a relator word
    # spells its row as exponent sums
    rng = random.Random(7)
    torsion = 0
    for _ in range(400):
        g, r = rng.randint(0, 5), rng.randint(0, 5)
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(g)]
                for _ in range(r)]
        pres = SimpleNamespace(generators=[None] * g, relators=[
            [(j, 1 if a > 0 else -1) for j, a in enumerate(row)
             for _ in range(abs(a))]
            for row in rows])
        got = pi1.GroupoidPresentation.abelianization(pres)
        assert got == _sympy_abelianization(pres), rows
        torsion += bool(got[1])
    assert torsion > 50


def _dense_echelon_basis(rows):
    """Oracle: pi1._echelon_basis as it was on dense rows, every row
    operation over every column."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    col = 0
    while rows:
        live = [r for r in rows if r[col]]
        if not live:
            col += 1
            continue
        rest = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            nxt = [pivot]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                (nxt if r[col] else rest).append(r)
            live = nxt
        basis.append((col, live[0]))
        rows = [r for r in rest if any(r)]
        col += 1
    return basis


def _in_echelon_lattice(basis, v):
    """The oracle's reduction: whether v lies in the lattice of an echelon
    basis, each basis row's coefficient forced by its pivot."""
    v = list(v)
    for col, row in basis:
        q, r = divmod(v[col], row[col])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _sparse_rows(rng, r, c):
    """r rows of width c with at most 4 nonzeros each, some of them zero
    rows and some repeats of earlier rows."""
    rows = []
    for _ in range(r):
        if rows and rng.random() < 0.1:
            rows.append(list(rng.choice(rows)))
            continue
        row = [0] * c
        for j in rng.sample(range(c), rng.randint(0, min(4, c))):
            row[j] = rng.choice((1, -1, 1, -1, 2, -2, 3, -4, 6))
        rows.append(row)
    return rows


def test_sparse_echelon_agrees_with_the_dense_oracle():
    # the pivot columns and |pivot| of an echelon basis are invariants of
    # the lattice, and two bases span one lattice when each one's rows lie
    # in the other's
    C5, pt = gr.cycle(5), gr.interval(0)
    f = gr.constant_map(C5, pt, 0)
    P, _, _ = gr.pullback(f, f)
    cases = [pi1._relator_rows(pi1.a1_presentation(G, G.vertices[0]))
             for G in (P, gr.box_product(C5, C5))]
    rng = random.Random(5)
    cases += [_sparse_rows(rng, rng.randint(0, 60), rng.randint(1, 20))
              for _ in range(150)]
    cases += [_sparse_rows(rng, rng.randint(200, 400), rng.randint(40, 80))
              for _ in range(6)]
    reduced = 0
    for rows in cases:
        got, want = pi1._echelon_basis(rows), _dense_echelon_basis(rows)
        assert ([(c, abs(row[c])) for c, row in got]
                == [(c, abs(row[c])) for c, row in want]), rows
        assert all(_in_echelon_lattice(want, row) for _, row in got), rows
        assert all(_in_echelon_lattice(got, row) for _, row in want), rows
        assert all(len(row) == len(rows[0]) and not any(row[:c])
                   for c, row in got), rows
        # cases where gcd steps clear some nonzero row at its leading
        # column, to be filed again under a later one or dropped
        reduced += len(rows) > len(got) + sum(not any(r) for r in rows)
    assert len(pi1._echelon_basis(cases[0])) == 74
    assert reduced > 100, reduced


def test_loop_word_trivial_gives_up_within_the_state_cap():
    # the commutator of the two coordinate loops of C5 x C5 is trivial,
    # but the bounded rewriting does not find that; it must stop at
    # max_states admitted words instead of growing without bound
    C5 = gr.cycle(5)
    f = gr.constant_map(C5, gr.interval(0), 0)
    P, _, _ = gr.pullback(f, f)
    pres = pi1.a1_presentation(P, P.vertices[0])
    ring = [(i % 5, 0) for i in range(6)]
    a = pi1.walk_to_word(pres, ring)
    b = pi1.walk_to_word(pres, [(v, u) for u, v in ring])

    def inv(w):
        return tuple((i, -s) for i, s in reversed(w))

    assert pi1.loop_word_trivial(pres, a + b + inv(a) + inv(b)) is None
    assert pi1.loop_word_trivial(pres, a) is False


def _loop_word_oracle(pres, word, max_length=16, max_states=20000):
    """Oracle: pi1.loop_word_trivial with its own breadth-first loop, as
    it was before the shared graphs._bfs."""
    word = pi1._free_reduce(word)
    if not word:
        return True
    if not pres.relators:
        return False
    image = pi1._abelian_image(word, len(pres.generators))
    if any(image) and not pi1._lattice_contains(pi1._relator_rows(pres),
                                                image):
        return False
    moves = []
    for rel in pres.relators:
        for rot in range(len(rel)):
            cyc = rel[rot:] + rel[:rot]
            moves.append(cyc)
            moves.append(tuple((i, -s) for i, s in reversed(cyc)))
    seen = {word}
    frontier = deque([word])
    while frontier:
        cur = frontier.popleft()
        for mv in moves:
            for j in range(len(cur) + 1):
                nxt = pi1._free_reduce(cur[:j] + mv + cur[j:])
                if not nxt:
                    return True
                if len(nxt) <= max_length and nxt not in seen:
                    if len(seen) >= max_states:
                        return None
                    seen.add(nxt)
                    frontier.append(nxt)
    return None


def test_loop_word_state_cap_agrees_with_oracle():
    # conjugated relators are trivial, but the rewriting finds that only
    # after holding some number S of words: at max_states S - 1 it gives
    # up, at S it answers True
    I1 = gr.interval(1)
    rng = random.Random(1)
    caps = 0
    for G in (gr.box_product(gr.cycle(4), I1),
              gr.box_product(gr.cycle(3), gr.cycle(3))):
        pres = pi1.a1_presentation(G, G.vertices[0])
        g = len(pres.generators)
        for _ in range(8):
            w = tuple((rng.randrange(g), rng.choice((1, -1)))
                      for _ in range(2))
            word = (w + tuple(rng.choice(pres.relators))
                    + tuple((i, -s) for i, s in reversed(w)))
            for max_length in (16, 8):
                S = next((n for n in range(1, 400) if _loop_word_oracle(
                    pres, word, max_length, n) is not None), None)
                if S is None or S < 3:
                    continue
                for n, want in ((S - 1, None), (S, True)):
                    assert _loop_word_oracle(pres, word, max_length, n) is want
                    assert pi1.loop_word_trivial(pres, word, max_length,
                                                 n) is want
                caps += 1
    assert caps >= 10
