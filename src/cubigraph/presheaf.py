"""Finite dimension-truncated presheaves over the cube and simplex categories.

A `FinitePresheaf` stores, for each dimension 0..trunc_dim, an ordered tuple
of cell identifiers, plus one total function per generating site morphism.
Generator keys follow the site conventions:

    cubical:     ("face", i, eps)   acts X_k -> X_{k-1}
                 ("deg", i)         acts X_k -> X_{k+1}
                 ("conn", i, eps)   acts X_k -> X_{k+1}
    simplicial:  ("face", i)        acts X_k -> X_{k-1}
                 ("deg", i)         acts X_k -> X_{k+1}

The action of an arbitrary site morphism is computed by factoring it into
generators.  Every cell has a canonical root decomposition x = root . e with
root nondegenerate and e a composite of degeneracies/connections; maps are
determined by their values on nondegenerate cells, which is what the
backtracking enumerator exploits.
"""

from __future__ import annotations

import itertools

from . import site as st


class FinitePresheaf:
    """Immutable-by-convention presheaf truncated at trunc_dim."""

    def __init__(self, site_name, trunc_dim, cells, action):
        self.site = site_name
        self.ops = st.site_ops(site_name)
        self.trunc_dim = trunc_dim
        self.cells = {d: tuple(cells.get(d, ())) for d in range(trunc_dim + 1)}
        self.action = action
        self._index = {
            d: {c: i for i, c in enumerate(self.cells[d])}
            for d in range(trunc_dim + 1)
        }
        self._roots = {}
        self._nondeg = None
        self._act_memo = {}

    # -- basic access -------------------------------------------------------

    def dims(self):
        return range(self.trunc_dim + 1)

    def total_cells(self):
        return sum(len(self.cells[d]) for d in self.dims())

    def cell_index(self, dim, cell):
        return self._index[dim][cell]

    def has_cell(self, dim, cell):
        return dim <= self.trunc_dim and cell in self._index[dim]

    def act_gen(self, key, from_dim, cell):
        return self.action[(key, from_dim)][cell]

    def generators_at(self, k):
        return self.ops.generators(k, self.trunc_dim)

    def act(self, cell, dim, f):
        """Apply the site morphism f (with f.target_dim == dim) to a cell."""
        memo_key = (cell, f)
        memo = self._act_memo
        if memo_key in memo:
            return memo[memo_key]
        cur = cell
        for (key, d), _ in self.ops.factor_keys(f):
            cur = self.action[(key, d)][cur]
        memo[memo_key] = cur
        return cur

    # -- root decomposition ---------------------------------------------------

    def root(self, cell, dim):
        """Return (root_cell, root_dim, epi) with cell = root . epi."""
        memo = self._roots
        if (dim, cell) in memo:
            return memo[(dim, cell)]
        result = None
        if dim > 0:
            for key, g in self.generators_at(dim - 1):
                if key[0] == "face":
                    continue
                table = self.action[(key, dim - 1)]
                for y in self.cells[dim - 1]:
                    if table[y] == cell:
                        r, rd, e = self.root(y, dim - 1)
                        result = (r, rd, self.ops.compose(e, g))
                        break
                if result:
                    break
        if result is None:
            result = (cell, dim, self.ops.identity(dim))
        memo[(dim, cell)] = result
        return result

    def nondeg(self, dim):
        if self._nondeg is None:
            self._nondeg = {}
            for d in self.dims():
                self._nondeg[d] = tuple(
                    c for c in self.cells[d] if self.root(c, d)[0:2] == (c, d)
                )
        return self._nondeg[dim]

    def total_nondeg(self):
        return sum(len(self.nondeg(d)) for d in self.dims())

    # -- well-formedness ------------------------------------------------------

    def validate(self):
        """Check totality and all composable generator-pair relations."""
        for k in self.dims():
            for key, g in self.generators_at(k):
                table = self.action.get((key, k))
                if table is None:
                    raise ValueError(f"missing action table {(key, k)}")
                tgt = g.source_dim
                for c in self.cells[k]:
                    if c not in table:
                        raise ValueError(f"action {(key, k)} not total at {c!r}")
                    if not self.has_cell(tgt, table[c]):
                        raise ValueError(f"action {(key, k)} leaves stored cells")
        for k in self.dims():
            for key_u, u in self.generators_at(k):
                a = u.source_dim
                for key_v, v in self.generators_at(a):
                    comp = self.ops.compose(u, v)
                    for c in self.cells[k]:
                        step = self.act_gen(key_v, a, self.act_gen(key_u, k, c))
                        if self.act(c, k, comp) != step:
                            raise ValueError(
                                f"relation failure at dim {k}: "
                                f"{key_u} then {key_v} on {c!r}"
                            )
        return True

    # -- serialization --------------------------------------------------------

    def to_json(self):
        """Relabel cells to per-dimension integers and emit the JSON form."""
        rel = self._index
        action = []
        for (key, d), table in sorted(
            self.action.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            tgt = _gen_target_dim(key, d)
            action.append(
                {
                    "gen": list(key),
                    "from_dim": d,
                    "map": {
                        str(rel[d][c]): rel[tgt][v] for c, v in sorted(
                            table.items(), key=lambda cv: rel[d][cv[0]]
                        )
                    },
                }
            )
        return {
            "site": self.site,
            "trunc_dim": self.trunc_dim,
            "cells": {str(d): list(range(len(self.cells[d]))) for d in self.dims()},
            "action": action,
        }

    @staticmethod
    def from_json(data):
        cells = {int(d): tuple(ids) for d, ids in data["cells"].items()}
        action = {}
        for entry in data["action"]:
            key = tuple(entry["gen"])
            d = entry["from_dim"]
            action[(key, d)] = {int(c): v for c, v in entry["map"].items()}
        X = FinitePresheaf(data["site"], data["trunc_dim"], cells, action)
        X.validate()
        return X


def _gen_target_dim(key, from_dim):
    if key[0] == "face":
        return from_dim - 1
    return from_dim + 1


# ---------------------------------------------------------------------------
# presheaf maps


class PresheafMap:
    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = {
            d: dict(components.get(d, {})) for d in source.dims()
        }

    def __call__(self, dim, cell):
        return self.components[dim][cell]

    def validate(self):
        X, Y = self.source, self.target
        if X.site != Y.site or X.trunc_dim != Y.trunc_dim:
            raise ValueError("source/target shape mismatch")
        for d in X.dims():
            for c in X.cells[d]:
                if c not in self.components[d]:
                    raise ValueError(f"map not total at dim {d}")
                if not Y.has_cell(d, self.components[d][c]):
                    raise ValueError(f"map leaves target cells at dim {d}")
        for k in X.dims():
            for key, g in X.generators_at(k):
                a = g.source_dim
                for c in X.cells[k]:
                    lhs = self.components[a][X.act_gen(key, k, c)]
                    rhs = Y.act_gen(key, k, self.components[k][c])
                    if lhs != rhs:
                        raise ValueError(
                            f"naturality failure: gen {key} at dim {k} on {c!r}"
                        )
        return True

    def is_valid(self):
        try:
            return self.validate()
        except ValueError:
            return False

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and (
            other.target.cells != self.source.cells
        ):
            raise ValueError("composition mismatch")
        comps = {
            d: {c: self.components[d][v] for c, v in other.components[d].items()}
            for d in other.source.dims()
        }
        return PresheafMap(other.source, self.target, comps)

    def is_levelwise_bijection(self):
        for d in self.source.dims():
            vals = set(self.components[d].values())
            if len(vals) != len(self.source.cells[d]) or len(vals) != len(
                self.target.cells[d]
            ):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, PresheafMap) and self.components == other.components
        )

    def __hash__(self):
        return hash(
            tuple(
                tuple(sorted(self.components[d].items(), key=repr))
                for d in sorted(self.components)
            )
        )


def map_to_json(f):
    """Serialize a presheaf map with both objects, cells relabeled to the
    per-dimension integers used by FinitePresheaf.to_json."""
    rel_t = f.target._index
    return {
        "source": f.source.to_json(),
        "target": f.target.to_json(),
        "components": {
            str(d): [
                rel_t[d][f.components[d][c]] for c in f.source.cells[d]
            ]
            for d in f.source.dims()
        },
    }


def map_from_json(data):
    source = FinitePresheaf.from_json(data["source"])
    target = FinitePresheaf.from_json(data["target"])
    components = {
        int(d): {
            source.cells[int(d)][j]: target.cells[int(d)][v]
            for j, v in enumerate(images)
        }
        for d, images in data["components"].items()
    }
    f = PresheafMap(source, target, components)
    f.validate()
    return f


def identity_map(X):
    return PresheafMap(X, X, {d: {c: c for c in X.cells[d]} for d in X.dims()})


# ---------------------------------------------------------------------------
# representables and standard cells


def representable(site_name, k, trunc_dim):
    """The standard k-cube/k-simplex; cell ids are site morphisms into it."""
    ops = st.site_ops(site_name)
    cells = {d: tuple(ops.all_morphisms(d, k)) for d in range(trunc_dim + 1)}
    action = {}
    for d in range(trunc_dim + 1):
        for key, g in ops.generators(d, trunc_dim):
            action[(key, d)] = {c: ops.compose(c, g) for c in cells[d]}
    return FinitePresheaf(site_name, trunc_dim, cells, action)


def subpresheaf(X, keep):
    """Restrict X to the cells selected by keep(dim, cell); must be closed."""
    cells = {
        d: tuple(c for c in X.cells[d] if keep(d, c)) for d in X.dims()
    }
    chosen = {d: set(cells[d]) for d in X.dims()}
    action = {}
    for d in X.dims():
        for key, g in X.generators_at(d):
            table = X.action[(key, d)]
            sub = {}
            for c in cells[d]:
                v = table[c]
                if v not in chosen[g.source_dim]:
                    raise ValueError("selection not closed under the action")
                sub[c] = v
            action[(key, d)] = sub
    A = FinitePresheaf(X.site, X.trunc_dim, cells, action)
    incl = PresheafMap(A, X, {d: {c: c for c in cells[d]} for d in X.dims()})
    return A, incl


def _cube_nonconst(c):
    return sum(1 for t in c.coords if t[0] != "c")


def _cube_const_slots(c):
    return {(i + 1, t[1]) for i, t in enumerate(c.coords) if t[0] == "c"}


# per site: the kinds of its whole cells, boundaries and open boxes/horns
_SITE_KINDS = {
    "cubical": ("cube", "boundary_cube", "open_box"),
    "simplicial": ("simplex", "boundary_simplex", "horn"),
}


def _open_cell_indices(site_name, k):
    """The (i, eps) of the open boxes (cubical) or horns (simplicial, eps
    None) of dimension k >= 1."""
    if site_name == "cubical":
        return [(i, eps) for i in range(1, k + 1) for eps in (0, 1)]
    return [(i, None) for i in range(k + 1)]


def _standard_keep(kind, k, i=None, eps=None):
    """Predicate on the site morphisms into the standard k-cell: those that
    the standard cell of this kind keeps.  A boundary of dimension 0 keeps
    none, so it is the empty cell."""
    if kind in ("cube", "simplex"):
        return lambda c: True
    if kind == "boundary_cube":
        return lambda c: bool(_cube_const_slots(c))
    if kind == "boundary_simplex":
        return lambda c: len(set(c.values)) <= k
    if kind == "open_box":
        if i not in range(1, k + 1) or eps not in (0, 1):
            raise ValueError("invalid open box parameters")
        return lambda c: bool(_cube_const_slots(c) - {(i, eps)})
    if kind == "horn":
        if k < 1 or i not in range(k + 1):
            raise ValueError("invalid horn parameters")
        others = set(range(k + 1)) - {i}
        return lambda c: bool(others - set(c.values))
    raise ValueError(f"unknown standard cell kind {kind!r}")


class StandardCell:
    """A named subpresheaf of a representable, with its inclusion."""

    def __init__(self, kind, k, i, eps, realized, ambient, inclusion):
        self.kind = kind
        self.k = k
        self.i = i
        self.eps = eps
        self.realized = realized
        self.ambient = ambient
        self.inclusion = inclusion


def build_standard(kind, k, i=None, eps=None, trunc_dim=None):
    if trunc_dim is None:
        trunc_dim = k
    if k < 0 or trunc_dim < 0:
        raise ValueError("negative dimension")
    keep = _standard_keep(kind, k, i, eps)
    site_name = "cubical" if kind in _SITE_KINDS["cubical"] else "simplicial"
    amb = representable(site_name, k, trunc_dim)
    realized, incl = subpresheaf(amb, lambda d, c: keep(c))
    return StandardCell(kind, k, i, eps, realized, amb, incl)


# ---------------------------------------------------------------------------
# colimit plumbing: disjoint unions and quotients


def disjoint_union(X, Y):
    if X.site != Y.site or X.trunc_dim != Y.trunc_dim:
        raise ValueError("shape mismatch")
    cells = {
        d: tuple((0, c) for c in X.cells[d]) + tuple((1, c) for c in Y.cells[d])
        for d in X.dims()
    }
    action = {}
    for d in X.dims():
        for key, g in X.generators_at(d):
            table = {}
            for c in X.cells[d]:
                table[(0, c)] = (0, X.act_gen(key, d, c))
            for c in Y.cells[d]:
                table[(1, c)] = (1, Y.act_gen(key, d, c))
            action[(key, d)] = table
    return FinitePresheaf(X.site, X.trunc_dim, cells, action)


class _UnionFind:
    """Union-find over hashable nodes (never None); each class is rooted
    at its member with the least key(node)."""

    def __init__(self, key):
        self.key = key
        self.parent = {}  # non-root node -> a node nearer its root

    def find(self, node):
        parent = self.parent
        up = parent.get(node)
        while up is not None:
            top = parent.get(up)
            if top is None:
                return up
            parent[node] = top  # path halving
            node, up = top, parent.get(top)
        return node

    def union(self, a, b):
        """Merge the classes of a and b; False if they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.key(rb) < self.key(ra):
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def quotient(X, pairs):
    """Quotient X by the congruence generated by pairs of (dim, cell, cell).

    Identifications propagate through every generator action; the class
    representative is the member earliest in stored order.
    """
    classes = _UnionFind(key=lambda node: (node[0], X.cell_index(*node)))
    queue = [((d, a), (d, b)) for d, a, b in pairs]
    while queue:
        na, nb = queue.pop()
        if not classes.union(na, nb):
            continue
        d, ca = na
        _, cb = nb
        for key, g in X.generators_at(d):
            va = X.act_gen(key, d, ca)
            vb = X.act_gen(key, d, cb)
            queue.append(((g.source_dim, va), (g.source_dim, vb)))

    rep = {
        (d, c): classes.find((d, c))[1] for d in X.dims() for c in X.cells[d]
    }
    cells = {}
    for d in X.dims():
        seen = []
        for c in X.cells[d]:
            r = rep[(d, c)]
            if r not in seen:
                seen.append(r)
        cells[d] = tuple(seen)
    action = {}
    for d in X.dims():
        for key, g in X.generators_at(d):
            action[(key, d)] = {
                rep[(d, c)]: rep[(g.source_dim, X.act_gen(key, d, c))]
                for c in X.cells[d]
            }
    Q = FinitePresheaf(X.site, X.trunc_dim, cells, action)
    proj = PresheafMap(X, Q, {d: {c: rep[(d, c)] for c in X.cells[d]} for d in X.dims()})
    return Q, proj


def random_presheaf(site_name, trunc_dim, rng, max_nondeg=40):
    """A random finite presheaf: glued standard cells with identified vertices."""
    kinds = (
        [("cube", 1), ("cube", 2), ("boundary_cube", 2), ("open_box", 2)]
        if site_name == "cubical"
        else [("simplex", 1), ("simplex", 2), ("boundary_simplex", 2), ("horn", 2)]
    )
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind, k = kinds[rng.randrange(len(kinds))]
        i = 1 if site_name == "cubical" else rng.randint(0, k)
        eps = rng.randint(0, 1)
        pieces.append(build_standard(kind, k, i, eps, trunc_dim).realized)
    X = pieces[0]
    for p in pieces[1:]:
        X = disjoint_union(X, p)
    verts = list(X.cells[0])
    pairs = []
    for _ in range(rng.randint(0, 3)):
        if len(verts) >= 2:
            a, b = rng.sample(verts, 2)
            pairs.append((0, a, b))
    Q, _ = quotient(X, pairs)
    if Q.total_nondeg() > max_nondeg:
        return random_presheaf(site_name, trunc_dim, rng, max_nondeg)
    return Q


# ---------------------------------------------------------------------------
# map enumeration


def _face_keys(A, dim):
    return [(key, g) for key, g in A.generators_at(dim) if key[0] == "face"]


def _image_of(A, X, assign, cell, dim):
    """Image of an arbitrary A-cell given images of nondegenerate roots."""
    r, rd, e = A.root(cell, dim)
    img_root = assign.get((rd, r))
    if img_root is None:
        return None
    if e.is_identity():
        return img_root
    return X.act(img_root, rd, e)


def enumerate_maps(A, X, forced=None, injective_nondeg=False, limit=None,
                   cand_filter=None):
    """All presheaf maps A -> X by backtracking over nondegenerate cells.

    forced: optional {(dim, cell): image} partial prescription (cells may be
    degenerate; degenerate prescriptions are checked after assembly).
    injective_nondeg: restrict the search to maps sending nondegenerate cells
    injectively to nondegenerate cells (complete for isomorphism search).
    cand_filter: optional predicate (dim, source_cell, candidate) pruning the
    image choices of non-forced nondegenerate cells (a search hint only;
    callers needing it as a guarantee must re-check the returned maps).
    """
    if A.site != X.site or A.trunc_dim != X.trunc_dim:
        raise ValueError("shape mismatch")
    forced = forced or {}
    targets = [
        (d, c) for d in A.dims() for c in A.nondeg(d)
    ]
    forced_nondeg = {}
    for (d, c), v in forced.items():
        r, rd, e = A.root(c, d)
        if e.is_identity():
            forced_nondeg[(rd, r)] = v
    results = []
    assign = {}
    used = set()

    face_data = {}
    for d, c in targets:
        data = []
        for key, g in _face_keys(A, d):
            r, rd, e = A.root(A.act_gen(key, d, c), d - 1)
            data.append((key, r, rd, e, e.is_identity()))
        face_data[(d, c)] = data

    def candidates(d, c):
        if (d, c) in forced_nondeg:
            return [forced_nondeg[(d, c)]]
        pool = X.nondeg(d) if injective_nondeg else X.cells[d]
        wants = []
        for key, r, rd, e, trivial in face_data[(d, c)]:
            img = assign.get((rd, r))
            if img is None:
                continue
            wants.append((key, img if trivial else X.act(img, rd, e)))
        out = []
        for x in pool:
            if injective_nondeg and (d, x) in used:
                continue
            if cand_filter is not None and not cand_filter(d, c, x):
                continue
            ok = True
            for key, want in wants:
                if X.act_gen(key, d, x) != want:
                    ok = False
                    break
            if ok:
                out.append(x)
        return out

    def finish():
        comps = {}
        for d in A.dims():
            comps[d] = {}
            for c in A.cells[d]:
                comps[d][c] = _image_of(A, X, assign, c, d)
        f = PresheafMap(A, X, comps)
        if not f.is_valid():
            return
        for (d, c), v in forced.items():
            if comps[d][c] != v:
                return
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


def enumerate_maps_naive(A, X):
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
        f = PresheafMap(A, X, comps)
        if f.is_valid():
            out.append(f)
    return out


def is_isomorphic(X, Y, forced=None):
    """Isomorphism test with witness; optional forced partial assignment."""
    if X.site != Y.site or X.trunc_dim != Y.trunc_dim:
        raise ValueError("shape mismatch")
    for d in X.dims():
        if len(X.cells[d]) != len(Y.cells[d]) or len(X.nondeg(d)) != len(
            Y.nondeg(d)
        ):
            return False, None
    for f in enumerate_maps(X, Y, forced=forced, injective_nondeg=True):
        if f.is_levelwise_bijection():
            return True, f
    return False, None


def is_isomorphic_over(f, g):
    """Isomorphism A -> B commuting with maps f: Z -> A, g: Z -> B."""
    Z = f.source
    forced = {}
    for d in Z.dims():
        for c in Z.cells[d]:
            a = f.components[d][c]
            b = g.components[d][c]
            if (d, a) in forced and forced[(d, a)] != b:
                return False, None
            forced[(d, a)] = b
    return is_isomorphic(f.target, g.target, forced=forced)
