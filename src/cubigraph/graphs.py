"""Finite reflexive graphs: constructors, box products, pullbacks, connected
components, and breadth-first search for bounded graph homotopies.

`_bfs` is the one breadth-first search of the package; `_shortest_path`
is built on it.  The graphs, nerve, lifting and pi1 searches run on them.

Vertices carry an implicit loop; adjacency queries answer True on equal
vertices even though loops are never stored.  A homotopy step between two
graph maps is pointwise adjacency of their assignments; the equivalence of
this with the interleaved map on the box cylinder being a graph map is a
tested lemma (see tests), not an assumption.
"""

from __future__ import annotations


def _freeze(value):
    """JSON arrays as vertex names become tuples (hashable)."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


class Graph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        # vertex -> its index in the stored order
        self._pos = {v: i for i, v in enumerate(self.vertices)}
        if len(self._pos) != len(self.vertices):
            dup = next(v for i, v in enumerate(self.vertices)
                       if self._pos[v] != i)
            raise ValueError(f"repeated vertex: {dup!r}")
        self.adj = {v: set() for v in self.vertices}
        for u, v in edges:
            if u not in self._pos or v not in self._pos:
                raise ValueError(f"edge endpoint not a vertex: {(u, v)!r}")
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)

    def adjacent(self, u, v):
        return u == v or v in self.adj[u]

    def edges(self):
        """Non-loop edges as ordered pairs (u, v) with u before v."""
        pos = self._pos
        out = []
        for u in self.vertices:
            for v in sorted(self.adj[u], key=pos.__getitem__):
                if pos[u] < pos[v]:
                    out.append((u, v))
        return out

    def neighbors(self, v):
        """Closed neighborhood, v first, then stored order."""
        return [v] + sorted(self.adj[v], key=self._pos.__getitem__)

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges()],
        }

    @staticmethod
    def from_json(data):
        return Graph(
            [_freeze(v) for v in data["vertices"]],
            [(_freeze(e[0]), _freeze(e[1])) for e in data["edges"]],
        )

    def __repr__(self):
        return f"Graph({len(self.vertices)}v,{len(self.edges())}e)"


def interval(n):
    if n < 0:
        raise ValueError("interval length must be >= 0")
    return Graph(range(n + 1), [(i, i + 1) for i in range(n)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


class GraphMap:
    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)

    def __call__(self, v):
        return self.assignment[v]

    def validate(self):
        for v in self.assignment:
            if v not in self.source.adj:
                raise ValueError(f"value for {v!r}, which is no source vertex")
        for v in self.source.vertices:
            if v not in self.assignment:
                raise ValueError(f"no value for vertex {v!r}")
            if self.assignment[v] not in self.target.adj:
                raise ValueError(f"value not a target vertex at {v!r}")
        for u, v in self.source.edges():
            if not self.target.adjacent(self.assignment[u], self.assignment[v]):
                raise ValueError(f"edge {(u, v)!r} not preserved")
        return True

    def is_valid(self):
        try:
            return self.validate()
        except ValueError:
            return False

    def compose(self, other):
        return GraphMap(
            other.source,
            self.target,
            {v: self.assignment[w] for v, w in other.assignment.items()},
        )

    def __eq__(self, other):
        return isinstance(other, GraphMap) and self.assignment == other.assignment

    def __hash__(self):
        return hash(tuple(sorted(self.assignment.items(), key=repr)))

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "assignment": [
                [v, self.assignment[v]] for v in self.source.vertices
            ],
        }

    @staticmethod
    def from_json(data):
        source = Graph.from_json(data["source"])
        target = Graph.from_json(data["target"])
        assignment = {_freeze(v): _freeze(w) for v, w in data["assignment"]}
        if len(assignment) < len(data["assignment"]):
            raise ValueError("a source vertex is assigned more than once")
        f = GraphMap(source, target, assignment)
        f.validate()
        return f


def graph_identity(X):
    return GraphMap(X, X, {v: v for v in X.vertices})


def constant_map(X, Y, y):
    return GraphMap(X, Y, {v: y for v in X.vertices})


def box_product(X, Y):
    verts = [(x, y) for x in X.vertices for y in Y.vertices]
    edges = []
    for x, y in verts:
        for x2 in X.adj[x]:
            edges.append(((x, y), (x2, y)))
        for y2 in Y.adj[y]:
            edges.append(((x, y), (x, y2)))
    return Graph(verts, edges)


def pullback(f, g):
    """Pullback of f: X -> Z, g: Y -> Z with both projections."""
    if f.target is not g.target and f.target.vertices != g.target.vertices:
        raise ValueError("maps must share a target")
    X, Y = f.source, g.source
    verts = [
        (x, y)
        for x in X.vertices
        for y in Y.vertices
        if f.assignment[x] == g.assignment[y]
    ]
    edges = [
        (a, b)
        for ia, a in enumerate(verts)
        for b in verts[ia + 1:]
        if X.adjacent(a[0], b[0]) and Y.adjacent(a[1], b[1])
    ]
    P = Graph(verts, edges)
    p1 = GraphMap(P, X, {v: v[0] for v in verts})
    p2 = GraphMap(P, Y, {v: v[1] for v in verts})
    return P, p1, p2


def graph_product(X, Y):
    """Categorical product (componentwise-both adjacency)."""
    pt = interval(0)
    P, p1, p2 = pullback(constant_map(X, pt, 0), constant_map(Y, pt, 0))
    return P, p1, p2


def _bfs(start, step, max_depth=None):
    """Breadth-first search from start, where step(node) lists the nodes
    one step on.  Yields (node, parent, depth) the first time it reaches
    each node, start first with parent None, and does not expand nodes at
    max_depth."""
    seen = {start}
    level = [start]
    yield start, None, 0
    depth = 0
    while level and (max_depth is None or depth < max_depth):
        depth += 1
        nxt = []
        for a in level:
            for b in step(a):
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    yield b, a, depth
        level = nxt


def _shortest_path(start, goal, step, max_depth):
    """(path, exhausted): a shortest start -> goal node list within
    max_depth steps or None, and whether no node at max_depth was reached,
    which makes a None conclusive."""
    parent = {}
    exhausted = True
    for node, par, depth in _bfs(start, step, max_depth):
        parent[node] = par
        if node == goal:
            path = [node]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1], exhausted
        if depth == max_depth:
            exhausted = False
    return None, exhausted


def pi0(X):
    comps = []
    seen = set()
    for v in X.vertices:
        if v not in seen:
            comp = frozenset(w for w, _, _ in _bfs(v, X.adj.__getitem__))
            seen |= comp
            comps.append(comp)
    return comps


def _backtrack_maps(X, Y, values):
    """Every graph map X -> Y sending each vertex v into values(v), by
    backtracking in vertex order."""
    verts = X.vertices
    out = []
    assign = {}

    def backtrack(i):
        if i == len(verts):
            out.append(GraphMap(X, Y, assign))
            return
        v = verts[i]
        for y in values(v):
            ok = True
            for u in X.adj[v]:
                if u in assign and not Y.adjacent(assign[u], y):
                    ok = False
                    break
            if ok:
                assign[v] = y
                backtrack(i + 1)
                del assign[v]

    backtrack(0)
    return out


def all_graph_maps(X, Y):
    """Every graph map X -> Y, by backtracking in vertex order."""
    return _backtrack_maps(X, Y, lambda v: Y.vertices)


def homotopy_step_maps(h):
    """Graph maps pointwise adjacent to h (one homotopy step away)."""
    Y = h.target
    return _backtrack_maps(h.source, Y,
                           lambda v: Y.neighbors(h.assignment[v]))


def is_homotopy_step(h1, h2):
    """Pointwise adjacency of two graph maps (the one-step relation)."""
    return all(
        h1.target.adjacent(h1.assignment[v], h2.assignment[v])
        for v in h1.source.vertices
    )


def interleaved_cylinder_map(h1, h2):
    """The induced map X box I_1 -> Y; a graph map iff h1, h2 are one step
    apart (the reduction lemma exercised by the tests)."""
    X, Y = h1.source, h1.target
    C = box_product(X, interval(1))
    table = {(v, t): (h1 if t == 0 else h2).assignment[v] for v, t in C.vertices}
    return GraphMap(C, Y, table), C


def a_homotopy_search(f, g, max_len=16):
    """BFS from f to g through one-step moves.

    Returns {"steps": [f, ..., g], "length": n} on success, otherwise
    {"none_found": True, "exhausted": bool}: exhausted means the entire
    reachable class of f was explored, making the miss conclusive.
    """
    if f.source is not g.source and f.source.vertices != g.source.vertices:
        raise ValueError("sources differ")
    path, exhausted = _shortest_path(f, g, homotopy_step_maps, max_len)
    if path is None:
        return {"none_found": True, "exhausted": exhausted}
    return {"steps": path, "length": len(path) - 1}
