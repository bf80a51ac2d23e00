"""Paths, path-homotopy, and the discrete fundamental groupoid of a
reflexive graph.

A path is stored as its trimmed vertex word: the finite non-constant
window of an eventually-constant walk, with consecutive entries adjacent
(repeats allowed, since every vertex carries a loop).  Path-homotopy is
decided by bounded breadth-first search over trimmed words: one homotopy
step relates two words that become pointwise adjacent after padding both
to a common length with their (shared) endpoint values.  Because no
a-priori bound on intermediate window growth exists, verdicts are
three-valued: yes (with the homotopy layers), no_exhausted (the whole
reachable set within the support bound was explored), or inconclusive.
The search runs on integer vertex ids (a vertex's stored position): the
graph's closed neighbourhoods, as id lists and as bitmasks, are built once
per search.  Each popped word gets one step table, a row of shift
masks per position indexed by id, and both the goal test and the step
enumeration read that one table, so one rule defines a step.  Under one
shift, the step words below a prefix depend only on the prefix and on
the window of the popped word that its later positions face, so a search
records each (prefix, window) pair it has walked and no later step
enumeration walks that subtree again.

The fundamental groupoid is presented per component by a spanning tree:
generators are the non-tree edges, relators come from the 3- and 4-cycles
of the graph.  The presentation is cross-validated against the bounded
path-homotopy search; triviality claims are made only when decidable by
abelianization or bounded word rewriting.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

from .graphs import Graph, GraphMap, _bfs, pullback, pi0
from .grid import BudgetExceeded, _restart_labelings


def _trim(word):
    word = tuple(word)
    lo, hi = 0, len(word)
    while hi - lo > 1 and word[lo] == word[lo + 1]:
        lo += 1
    while hi - lo > 1 and word[hi - 2] == word[hi - 1]:
        hi -= 1
    return word[lo:hi]


@dataclass(frozen=True)
class DiscretePath:
    graph: Graph
    word: tuple

    @property
    def start(self):
        return self.word[0]

    @property
    def end(self):
        return self.word[-1]

    def __len__(self):
        return len(self.word) - 1

    def reversed(self):
        return DiscretePath(self.graph, _trim(self.word[::-1]))

    def mapped(self, f):
        """Image path under a graph map out of this path's graph."""
        return make_path(f.target, [f.assignment[v] for v in self.word])


def make_path(graph, word):
    word = tuple(word)
    if not word:
        raise ValueError("a path needs at least one vertex")
    if word[0] not in graph.adj:
        raise ValueError(f"{word[0]!r} is not a vertex")
    for u, v in zip(word, word[1:]):
        if not graph.adjacent(u, v):
            raise ValueError(f"consecutive vertices not adjacent: {u!r}, {v!r}")
    return DiscretePath(graph, _trim(word))


def constant_path(graph, v):
    return make_path(graph, (v,))


def concat(p, q):
    if p.graph is not q.graph and p.graph.vertices != q.graph.vertices:
        raise ValueError("paths live in different graphs")
    if p.end != q.start:
        raise ValueError(f"endpoint mismatch: {p.end!r} != {q.start!r}")
    return DiscretePath(p.graph, _trim(p.word + q.word[1:]))


def inverse(p):
    return p.reversed()


def _clamp(i, n):
    return 0 if i < 0 else n - 1 if i >= n else i


def _vertex_ids(graph):
    """Id tables of a graph; a vertex's id is its stored position.
    Returns the vertices by id, vertex -> id, and three tables by id: the
    closed neighbourhood as an id list, the same as a bitmask, and the
    closed neighbourhood in descending vertex value, so that a stack pops
    it in ascending value, the order of sorted(graph.neighbors(v))."""
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    close = [[i] + [index[u] for u in graph.adj[v]]
             for i, v in enumerate(verts)]
    masks = [sum(1 << u for u in ids) for ids in close]
    down = [sorted(ids, key=verts.__getitem__, reverse=True) for ids in close]
    return verts, index, close, masks, down


def _step_table(ids, word, top):
    """The step table of a word for words of length <= top, given the
    graph's id tables: those tables, the word's ids w and the shift masks
    front, tail and rows (bit k of a mask is shift k + 1 - top).

    Two words are one step apart when some endpoint paddings to a common
    length of at most top make them pointwise adjacent; endpoints always
    stay fixed.  Padding with endpoint repeats reads
    padded[k] = word[clamp(k - front)], so a trimmed word b of length m
    with the word's endpoints is one step from the word (length n) exactly
    when some shift s in [m - top, top - n] has b[clamp(i)] adjacent or
    equal to word[clamp(i - s)] for every integer i.  Here front holds the
    shifts under which the start faces every word[j], j < -s; tail[m] the
    shifts under which the end faces every word[j], j >= m - s; and
    rows[i][v] the shifts under which vertex id v at position i faces
    word[clamp(i - s)].  So b is one step away exactly when
    front & tail[m] & rows[0][b[0]] & ... & rows[m - 1][b[m - 1]] != 0,
    with ids for vertices.

    rows[1] drops the start, which a trimmed word never repeats, and a
    backward pass keeps only the shifts under which a prefix through v at
    position i can still be completed to such a word, so a search along
    the rows never enters a dead end.
    """
    _, index, close, masks, _ = ids
    w = [index[v] for v in word]
    n = len(w)
    x, y = w[0], w[-1]
    span = 2 * top - n  # shifts 1 - top .. top - n
    # with w[:h] the longest prefix facing x and w[g:] the longest suffix
    # facing y, front keeps the bits k >= top - 1 - h (all if h == n) and
    # tail[m] the bits k < m + top - g
    h = next((j for j, v in enumerate(w) if not masks[x] >> v & 1), n)
    g = next((j + 1 for j in range(n - 1, -1, -1)
              if not masks[y] >> w[j] & 1), 0)
    every = (1 << span) - 1
    front = every if h == n else every >> (top - 1 - h) << (top - 1 - h)
    tail = [every if g == 0 else (1 << min(span, m + top - g)) - 1
            for m in range(top + 1)]
    # position 0 faces word[clamp(top - 1 - k)] under bit k; position i
    # faces under bit k what position 0 faces under bit k - i, and bits
    # k < i are shifts too short for a word through position i
    first = [0] * len(close)
    for k in range(span):
        for v in close[w[_clamp(top - 1 - k, n)]]:
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


def _step_words(graph, word, max_support, _exhausted=None, _table=None):
    """The trimmed words one homotopy step from the given one, ascending.

    The step relation is the one of _step_table with top = max_support + 1.
    One depth-first search over trimmed prefixes reads the word's rows,
    carrying the set of shifts still alive as a bitmask.  It keeps the
    current prefix as vertex ids in one array and builds a tuple only for
    a word it yields.  Children are visited in ascending vertex value, so
    the preorder is ascending tuple order and each neighbour is yielded
    once, in sorted order.

    _exhausted, a dict that path_homotopic_bounded keeps for one search,
    holds the subtrees already walked.  Under shift s the words below a
    prefix P of length m depend only on P and on its window, the vertices
    word[clamp(i - s)] that positions m <= i < top + min(s, 0) face: with
    j = m - s, that is -j copies of the start (if j < 0), then
    word[max(j, 0):] and end repeats, top - m - d in all, d = max(j - m, 0).
    A shorter window only cuts words off, so the dict maps (P, the window's
    vertices) to the least d walked.  Each child P with 1 < m < top drops
    its live shifts whose pair maps to d or less, records the others, and
    is skipped when no shift is left.  This is exact only because the
    caller drains the generator and admits every word it yields: then
    every word below a recorded pair is admitted, and cutting such
    subtrees out of an ascending preorder leaves the fresh words in the
    same order.  A pair's key is code(P) + cap * ((top + 1) *
    code(reversed(word[clamp(j):])) + top + min(j, 0)), where code reads
    ids plus one as digits in bijective base |V| + 1 and cap = base ** top
    exceeds every code(P).  _table is the word's step table, when the
    caller has it.
    """
    top = max_support + 1
    ids, w, front, tail, rows = _table or _step_table(
        _vertex_ids(graph), word, top)
    verts, _, _, _, down = ids
    x, y = w[0], w[-1]
    n, base = len(w), len(verts) + 1
    marked = _exhausted is not None
    if marked:
        cap, back = base ** top, [y + 1]
        for v in reversed(w[:-1]):
            back.append(back[-1] * base + v + 1)
        back = [cap * ((top + 1) * c + top) for c in reversed(back)]
        # bit k - 1 of a child of length m has j = m + top - k, window key
        # near[j + top] and d = max(top - k, 0)
        near = ([back[0] + cap * j for j in range(-top, 0)] + back
                + [back[-1]] * (2 * top - n))
        walked = _exhausted.get
    prefix = [x] * top
    stack = [(0, x, x + 1, front & rows[0][x])]
    push = stack.append
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
        check = marked and m + 1 < top
        for v in down[last]:
            bits = live & row[v]
            if bits:
                child, rest = code + v + 1, bits if check else 0
                while rest:
                    low = rest & -rest
                    k = low.bit_length()
                    key = child + near[at - k]
                    d = top - k if k < top else 0
                    if walked(key, top) <= d:
                        bits ^= low
                    else:
                        _exhausted[key] = d
                    rest ^= low
                if bits:
                    push((m, v, child, bits))


def _one_step(graph, a, b, max_support, _table=None):
    """Whether the trimmed word b, with a's endpoints, is one homotopy
    step from the word a: the AND of a's step table along b (see
    _step_table) is non-zero.  _table is a's step table, when the caller
    has it."""
    top = max_support + 1
    if a == b or len(b) > top or a[0] != b[0] or a[-1] != b[-1]:
        return False
    ids, _, front, tail, rows = _table or _step_table(
        _vertex_ids(graph), a, top)
    index = ids[1]
    live = front & tail[len(b)]
    for row, v in zip(rows, b):
        live &= row[index[v]]
    return live != 0


@dataclass
class HomotopyReport:
    verdict: str  # "yes" | "no_exhausted" | "inconclusive"
    layers: list | None = None
    explored: int = 0


def path_homotopic_bounded(p, q, max_support=None, max_steps=20000):
    """Bounded search for a path-homotopy between two paths.

    max_support caps the window length (number of steps) of every
    intermediate path; max_steps caps the number of explored words.
    no_exhausted is reported only when the entire reachable set within
    max_support was visited without meeting q.

    The search runs on integer vertex ids: the graph's id tables
    (_vertex_ids) are built once per search.  Each popped word's step
    table is built once, and both the goal test (_one_step) and the step
    enumeration (_step_words) read it.  One dict of walked (prefix,
    window) pairs lives for the whole search, so no enumeration walks a
    subtree whose words an earlier one already yielded.  That is sound
    because this loop drains every enumeration and admits every word it
    yields; the fresh words, the explored count and the layers are those
    of the search that enumerates every step word.
    """
    if p.graph is not q.graph and p.graph.vertices != q.graph.vertices:
        raise ValueError("paths live in different graphs")
    if p.start != q.start or p.end != q.end:
        raise ValueError("paths must share both endpoints")
    if max_support is None:
        max_support = max(len(p), len(q)) + 2
    if len(p) > max_support or len(q) > max_support:
        raise ValueError("max_support below the given paths' lengths")
    if p.word == q.word:
        return HomotopyReport("yes", [p.word])
    graph = p.graph
    top = max_support + 1
    ids = _vertex_ids(graph)
    parent = {p.word: None}
    frontier = deque([p.word])
    explored = 0
    exhausted = {}
    while frontier:
        cur = frontier.popleft()
        explored += 1
        if explored > max_steps:
            return HomotopyReport("inconclusive", None, explored)
        table = _step_table(ids, cur, top)
        # q is never in parent, so the scan below would reach it exactly
        # when it is one step from cur
        if _one_step(graph, cur, q.word, max_support, table):
            layers = [q.word, cur]
            while parent[layers[-1]] is not None:
                layers.append(parent[layers[-1]])
            layers.reverse()
            return HomotopyReport("yes", layers, explored)
        for nxt in _step_words(graph, cur, max_support, exhausted, table):
            if nxt not in parent:
                parent[nxt] = cur
                frontier.append(nxt)
    return HomotopyReport("no_exhausted", None, explored)


# --- presentations -----------------------------------------------------


@dataclass
class GroupoidPresentation:
    graph: Graph
    base: object
    component: tuple
    tree_parent: dict  # vertex -> parent toward base (base -> None)
    generators: list   # non-tree edges (u, v) in stored vertex order
    relators: list     # words over generators: tuples of (index, sign)

    def tree_path(self, v):
        """The tree path from the base to v, as a DiscretePath."""
        word = [v]
        while self.tree_parent[word[-1]] is not None:
            word.append(self.tree_parent[word[-1]])
        word.reverse()
        return make_path(self.graph, word)

    def generator_loop(self, index):
        u, v = self.generators[index]
        left = self.tree_path(u)
        right = self.tree_path(v).reversed()
        mid = make_path(self.graph, (u, v))
        return concat(concat(left, mid), right)

    def word_path(self, word):
        """The loop at the base spelled by a generator word."""
        out = constant_path(self.graph, self.base)
        for index, sign in word:
            loop = self.generator_loop(index)
            out = concat(out, loop if sign > 0 else loop.reversed())
        return out

    def abelianization(self):
        """(free rank, nontrivial torsion orders) of the abelianized group.

        The Smith normal form of the relator rows: echelon the rows, then
        the transpose, until each row has one nonzero entry, then turn that
        diagonal into a divisibility chain by gcd/lcm pairs.
        """
        rows = [row for _, row in _echelon_basis(_relator_rows(self))]
        while any(sum(1 for a in row if a) > 1 for row in rows):
            rows = [row for _, row in _echelon_basis(zip(*rows))]
        diag = [abs(next(a for a in row if a)) for row in rows]
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                gcd = math.gcd(diag[i], diag[j])
                diag[i], diag[j] = gcd, diag[i] * diag[j] // gcd
        return len(self.generators) - len(diag), [d for d in diag if d != 1]


def _abelian_image(word, g):
    """Exponent sum of each of the g generators in a generator word."""
    row = [0] * g
    for index, sign in word:
        row[index] += sign
    return row


def _relator_rows(pres):
    """The relators abelianized, one integer row each."""
    g = len(pres.generators)
    return [_abelian_image(rel, g) for rel in pres.relators]


def _free_reduce(word):
    out = []
    for item in word:
        if out and out[-1][0] == item[0] and out[-1][1] == -item[1]:
            out.pop()
        else:
            out.append(item)
    return tuple(out)


def _walk_reader(pres):
    """walk_to_word for one presentation, its edge table built once: each
    directed edge maps to its generator letter, or to None on the tree."""
    letter = {}
    for v, par in pres.tree_parent.items():
        if par is not None:
            letter[(v, par)] = letter[(par, v)] = None
    for j, (u, v) in enumerate(pres.generators):
        letter[(u, v)] = (j, 1)
        letter[(v, u)] = (j, -1)

    def read(walk):
        word = []
        for u, v in zip(walk, walk[1:]):
            if u == v:
                continue
            if (u, v) not in letter:
                raise ValueError(
                    f"edge {(u, v)!r} is outside the presentation")
            if letter[(u, v)] is not None:
                word.append(letter[(u, v)])
        return _free_reduce(word)

    return read


def walk_to_word(pres, walk):
    """Rewrite a closed walk as a generator word (tree edges vanish)."""
    return _walk_reader(pres)(walk)


def a1_presentation(X, x):
    """Spanning-tree presentation of the fundamental group(oid) at x.

    Generators are the non-tree edges of x's component; relators are the
    boundary words of all 3- and 4-cycles, rewritten through tree paths.
    """
    if x not in X.adj:
        raise ValueError(f"{x!r} is not a vertex")
    pos = X._pos
    parent = {
        v: p for v, p, _ in
        _bfs(x, lambda u: sorted(X.adj[u], key=pos.__getitem__))
    }
    component = tuple(sorted(parent, key=pos.__getitem__))
    in_comp = set(component)
    tree = {(v, p) for v, p in parent.items() if p is not None}
    tree |= {(p, v) for v, p in tree}
    generators = [
        (u, v) for u, v in X.edges()
        if u in in_comp and (u, v) not in tree
    ]
    pres = GroupoidPresentation(X, x, component, parent, generators, [])
    relators = set()

    def add(word):
        # keep one representative per rotation/inversion class
        if not word:
            return
        variants = []
        for w in (word, tuple((i, -s) for i, s in reversed(word))):
            for rot in range(len(w)):
                variants.append(_free_reduce(w[rot:] + w[:rot]))
        relators.add(min(v for v in variants if v))

    # walk each 3- and 4-cycle once along adj: from its first vertex a in
    # stored order, in the orientation whose second vertex comes before
    # its last (add does not depend on the start or orientation)
    adj = X.adj
    read = _walk_reader(pres)
    for a in component:
        later = [v for v in adj[a] if pos[v] > pos[a]]
        for b in later:
            for c in later:
                if pos[b] < pos[c] and c in adj[b]:
                    add(read((a, b, c, a)))
            for c in adj[b]:
                if c == a or pos[c] < pos[a]:
                    continue
                for d in adj[c]:
                    if (d != b and pos[d] > pos[b] and d in adj[a]):
                        add(read((a, b, c, d, a)))
    pres.relators = sorted(relators)
    return pres


def loop_word_trivial(pres, word, max_length=16, max_states=20000):
    """Three-valued triviality for a generator word: True/False/None.

    False when the abelianized image is nonzero; True when free reduction
    (no relators) or bounded relator rewriting reaches the empty word;
    None otherwise, also as soon as the rewriting would hold more than
    max_states distinct words.
    """
    word = _free_reduce(word)
    if not word:
        return True
    if not pres.relators:
        return False  # free group: reduced nonempty word is nontrivial
    image = _abelian_image(word, len(pres.generators))
    # nonzero abelian image: the word is nontrivial unless the image lies
    # in the relation lattice
    if any(image) and not _lattice_contains(_relator_rows(pres), image):
        return False
    # bounded rewriting toward the empty word
    moves = []
    for rel in pres.relators:
        for rot in range(len(rel)):
            cyc = rel[rot:] + rel[:rot]
            moves.append(cyc)
            moves.append(tuple((i, -s) for i, s in reversed(cyc)))

    def step(cur):
        for mv in moves:
            # insert a relator at every position, then freely reduce
            for j in range(len(cur) + 1):
                nxt = _free_reduce(cur[:j] + mv + cur[j:])
                if len(nxt) <= max_length:
                    yield nxt

    for n, (cur, _, _) in enumerate(_bfs(word, step)):
        if not cur:
            return True
        if n >= max_states:
            return None  # undecided within the state cap
    return None


def _echelon_basis(rows):
    """A row-echelon basis of the integer lattice spanned by the rows.

    Gcd row operations (each one unimodular) clear every column below its
    pivot; returns (pivot column, row) pairs with increasing columns, the
    row zero left of its pivot.

    The elimination runs on sparse rows, {column: value} dicts without
    zeros, filed by their leading column, so an operation touches only the
    pivot row's nonzeros.  A column's rows are reduced against the one of
    least |value| there until one is left; a reduced row that vanishes at
    the column is filed again under its new leading column, which is
    later, and a zero row is dropped.
    """
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    led = {}  # leading column -> the rows led there
    for r in rows:
        row = {j: a for j, a in enumerate(r) if a}
        if row:
            led.setdefault(min(row), []).append(row)
    basis = []
    for col in range(width):
        live = led.pop(col, None)
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            nxt = [pivot]
            for r in live[1:]:
                # q != 0 as |r[col]| >= |pivot[col]|, so a zero a is an
                # entry r had
                q = r[col] // pivot[col]
                for j, b in pivot.items():
                    a = r.get(j, 0) - q * b
                    if a:
                        r[j] = a
                    else:
                        del r[j]
                if col in r:
                    nxt.append(r)
                elif r:
                    led.setdefault(min(r), []).append(r)
            live = nxt
        dense = [0] * width
        for j, a in live[0].items():
            dense[j] = a
        basis.append((col, dense))
    return basis


def _lattice_contains(rows, image):
    """Whether an integer vector lies in the lattice spanned by the rows.

    Reduces the vector against the pivots of an echelon basis, column by
    column; the coefficient of each basis row is forced, so the vector lies
    in the lattice exactly when every pivot divides and nothing is left.
    """
    v = list(image)
    for col, row in _echelon_basis(rows):
        q, r = divmod(v[col], row[col])
        if r:
            return False
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


# --- the functor, the comparison, the isofibration check ---------------


@dataclass
class Pi1Map:
    map: GraphMap
    source: GroupoidPresentation
    target: GroupoidPresentation
    generator_images: list  # per source generator, a target generator word


def pi1_functor(f, source_pres=None, target_pres=None):
    """Presentation-level description of the induced groupoid functor."""
    if source_pres is None:
        source_pres = a1_presentation(f.source, f.source.vertices[0])
    if target_pres is None:
        target_pres = a1_presentation(
            f.target, f.assignment[source_pres.base]
        )
    images = []
    base_img = f.assignment[source_pres.base]
    anchor = target_pres.tree_path(base_img)
    read = _walk_reader(target_pres)
    for j in range(len(source_pres.generators)):
        loop = source_pres.generator_loop(j).mapped(f)
        walk = anchor.word + loop.word[1:] + anchor.reversed().word[1:]
        images.append(read(walk))
    return Pi1Map(f, source_pres, target_pres, images)


def _sample_path(graph, start, rng, max_len):
    word = [start]
    for _ in range(rng.randrange(max_len + 1)):
        word.append(rng.choice(graph.neighbors(word[-1])))
    return make_path(graph, word)


def _lift_homotopy_square(f, eta, tau_img_lift, H_layers):
    """Lift a path homotopy through a graph map; the new face is returned.

    The downstairs square has the homotopy layers as rows; upstairs the
    bottom row (eta) and top row (the lifted path) are frozen and the
    whole grid is solved as a labeling problem in the source graph over
    the prescribed image values.  Returns the right-edge path, or None.
    """
    # imported here: a1 and paths-homotopic do not load nerve
    from .nerve import Budget

    X = f.source
    width = max(
        max(len(layer) for layer in H_layers),
        len(eta.word),
        len(tau_img_lift.word),
    )
    # extra constant rows give the upstairs homotopy room to be longer
    # than the downstairs one
    extra = width + 2
    rows = len(H_layers) + extra
    down = [
        layer + (layer[-1],) * (width - len(layer)) for layer in H_layers
    ]
    down.extend([down[-1]] * extra)
    bottom = eta.word + (eta.end,) * (width - len(eta.word))
    top = tau_img_lift.word + (tau_img_lift.end,) * (
        width - len(tau_img_lift.word)
    )
    points = [(i, j) for i in range(rows) for j in range(width)]
    fibers = {}
    for i, j in points:
        y = down[i][j]
        if y not in fibers:
            fibers[y] = {
                x for x in X.vertices if f.assignment[x] == y
            }
    allowed = {t: fibers[down[t[0]][t[1]]] for t in points}
    for j in range(width):
        allowed[(0, j)] = {bottom[j]}
        allowed[(rows - 1, j)] = {top[j]}
    for i in range(rows):
        allowed[(i, 0)] = {eta.start}
    try:
        sol = _restart_labelings(X, points, allowed, Budget(10**6))
    except BudgetExceeded:
        sol = None
    if sol is None:
        return None
    column = [sol[(i, width - 1)] for i in range(rows)]
    return make_path(X, column)


_TAU_TRIES = 16  # draws of tau per fullness sample


def _homotopic(p, q, max_support, max_steps):
    """path_homotopic_bounded with the support raised to the paths' own
    lengths where they are longer, so any two sampled paths compare."""
    return path_homotopic_bounded(
        p, q, max(max_support, len(p), len(q)), max_steps)


def psi_comparison(f, g, samples=10, seed=0, max_len=4,
                   max_support=8, max_steps=20000):
    """Bounded check of the pullback-groupoid comparison functor.

    f: X -> Z is assumed to have passed the bounded 1-fibration check.
    The pi0 entry counts the components of the pullback P on both sides:
    the target classes it pairs them with are built from P's own edges,
    so it always reads "bijection" and checks nothing.  The samples do
    the checking: morphism pairs downstairs, for which the path surgery
    that produces an on-the-nose representative upstairs is replayed
    (fullness), and parallel path pairs upstairs whose projections are
    homotopic, which must be homotopic upstairs (faithfulness).  Every
    homotopy search runs at max_support, or at the longer of its two
    paths where that is more.  Per-sample verdicts are pass, inconclusive
    or skipped, never a failure: a fullness sample's lifted square
    certifies it (see _fullness_sample), and a faithfulness search that
    finds no homotopy is inconclusive.  So "passed" is never False, and
    psi-check never exits 1 (the CHANGES.md FOUND line on
    psi_comparison's "passed").
    """
    X, Y = f.source, g.source
    P, p1, p2 = pullback(f, g)
    if not P.vertices:
        samples = 0  # no object to sample paths from
    rng = random.Random(seed)
    # pi0: objects (x, y) and (x2, y2) one step apart in X and in Y have
    # image paths (f x, f x2) and (g y, g y2) in Z that are the same word,
    # so the target groupoid joins them exactly when P has that edge, and
    # its classes are P's components.  The counts agree by construction;
    # components joined only through homotopic longer paths are not sought
    n = len(pi0(P))
    report = {
        "objects": len(P.vertices),
        "pi0": {"verdict": "bijection", "upstairs": n, "downstairs": n},
        "fullness": [],
        "faithfulness": [],
        "passed": True,
    }

    # fullness samples: tau is redrawn until its image ends where eta's
    # does, so that (eta, tau) is a morphism pair of the pullback groupoid
    for _ in range(samples):
        x0, y0 = rng.choice(P.vertices)
        eta = _sample_path(X, x0, rng, max_len)
        for _ in range(_TAU_TRIES):
            tau = _sample_path(Y, y0, rng, max_len)
            if g.assignment[tau.end] == f.assignment[eta.end]:
                break
        report["fullness"].append(
            _fullness_sample(f, g, eta, tau, max_support, max_steps))

    # faithfulness samples
    for _ in range(samples):
        v0 = rng.choice(P.vertices)
        gamma = _sample_path(P, v0, rng, max_len)
        # gamma is itself among the candidates, so the list is never empty
        delta = make_path(P, rng.choice([
            w for w in _walks(P, gamma.start, max_len) if w[-1] == gamma.end
        ]))
        sample = {"gamma": gamma.word, "delta": delta.word}
        r1 = _homotopic(
            gamma.mapped(p1), delta.mapped(p1), max_support, max_steps)
        r2 = _homotopic(
            gamma.mapped(p2), delta.mapped(p2), max_support, max_steps)
        if r1.verdict == "yes" and r2.verdict == "yes":
            up = _homotopic(gamma, delta, max_support, max_steps).verdict
            sample["verdict"] = "pass" if up == "yes" else "inconclusive"
        else:
            sample["verdict"] = "skipped (projections not identified)"
        report["faithfulness"].append(sample)
    return report


def _fullness_sample(f, g, eta, tau, max_support, max_steps):
    sample = {"eta": eta.word, "tau": tau.word}
    if f.assignment[eta.end] != g.assignment[tau.end]:
        # (eta, tau) is not a morphism pair of the pullback groupoid
        sample["verdict"] = "skipped (images end apart)"
        return sample
    down = _homotopic(eta.mapped(f), tau.mapped(g), max_support, max_steps)
    if down.verdict != "yes":
        sample["verdict"] = f"skipped (images: {down.verdict})"
        return sample
    lifted = _lift_path(f, eta.start, tau.mapped(g))
    if lifted is None:
        sample["verdict"] = "inconclusive (no exact path lift found)"
        return sample
    if _lift_homotopy_square(f, eta, lifted, down.layers) is None:
        sample["verdict"] = "inconclusive (no homotopy square lift)"
        return sample
    # with row_0 = eta, the last row lifted, column 0 constant and alpha
    # the right edge, the words row_i . reverse(alpha[0..i]) step from eta
    # to eta' = lifted . reverse(alpha), one end repeat each; alpha lies
    # over the common end, so eta' pairs with tau and the sample passes
    sample["verdict"] = "pass"
    return sample


def _lift_path(f, x0, path_down):
    """Exact stepwise lift of a path through f from x0, or None."""
    X = f.source
    word = path_down.word
    if f.assignment[x0] != word[0]:
        raise ValueError("lift start does not sit over the path start")
    # whether a prefix extends to a lift depends only on its length and
    # its last vertex, and a depth-first search finishes a state's subtree
    # before it pops that state again, so a state popped twice is a miss
    stack = [(x0,)]
    popped = set()
    while stack:
        prefix = stack.pop()
        j = len(prefix)
        if j == len(word):
            return make_path(X, prefix)
        if (j, prefix[-1]) in popped:
            continue
        popped.add((j, prefix[-1]))
        for x2 in X.neighbors(prefix[-1]):
            if f.assignment[x2] == word[j]:
                stack.append(prefix + (x2,))
    return None


def _walks(graph, a, max_len):
    """Every trimmed word from a with at most max_len steps, once each,
    ascending.

    A depth-first search over the prefixes that move on their first step,
    children in ascending order, so its preorder is ascending tuple order;
    a prefix is a trimmed word exactly when its last step moved.
    """
    stack = [(a,)]
    while stack:
        prefix = stack.pop()
        if len(prefix) == 1 or prefix[-2] != prefix[-1]:
            yield prefix
        if len(prefix) <= max_len:
            stack.extend(
                prefix + (v,)
                for v in sorted(graph.neighbors(prefix[-1]), reverse=True)
                if len(prefix) > 1 or v != a)


@dataclass
class IsofibrationReport:
    verdict: str  # "yes_on_tested_range" | "counterexample" | "inconclusive"
    detail: dict


def is_isofibration_bounded(f, max_len=4, max_support=8, max_steps=20000,
                            samples=None, seed=0):
    """Bounded check that the induced groupoid functor lifts isomorphisms.

    For each source object x and each target path out of f(x) (all of
    them up to max_len steps, ordered by end vertex, or a seeded sample),
    tries an exact lift from x first.  On a miss it compares the path
    with the distinct images of the source walks from x of up to
    max_len + max_support steps that end over its end, at max_support or
    at the longer of the two where that is more.  A counterexample is
    certified when no source vertex at all sits over the target endpoint
    (so no lift can exist at any bound); otherwise misses stay
    inconclusive.
    """
    X, Y = f.source, f.target
    rng = random.Random(seed)
    tested = 0
    inconclusive = 0
    for x in X.vertices:
        targets = [make_path(Y, w) for w in sorted(
            _walks(Y, f.assignment[x], max_len),
            key=lambda w: Y._pos[w[-1]])]
        if samples is not None and len(targets) > samples:
            targets = rng.sample(targets, samples)
        images = None  # the trimmed images of the walks from x, on a miss
        for eta in targets:
            tested += 1
            if _lift_path(f, x, eta) is not None:
                continue
            if all(f.assignment[v] != eta.end for v in X.vertices):
                return IsofibrationReport(
                    "counterexample",
                    {"object": x, "path": eta.word,
                     "reason": "empty fiber over the path end"},
                )
            if images is None:
                images = dict.fromkeys(
                    _trim([f.assignment[v] for v in w])
                    for w in _walks(X, x, max_len + max_support))
            if not any(
                word[-1] == eta.end and _homotopic(
                    make_path(Y, word), eta, max_support, max_steps,
                ).verdict == "yes"
                for word in images
            ):
                # a miss is only a bounded statement, whether every
                # candidate failed or some search ran out, so stay honest
                inconclusive += 1
    if inconclusive:
        return IsofibrationReport(
            "inconclusive",
            {"tested": tested, "undecided": inconclusive},
        )
    return IsofibrationReport(
        "yes_on_tested_range", {"tested": tested}
    )
