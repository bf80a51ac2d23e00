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
from functools import lru_cache

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
        self._view = None

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

    def _compiled(self):
        if self._view is None:
            self._view = _Compiled(self)
        return self._view

    def act(self, cell, dim, f):
        """Apply the site morphism f (with f.target_dim == dim) to a cell."""
        table = self._compiled().morphism_table(f)
        if table is None:
            return cell
        return self.cells[f.source_dim][table[self._index[dim][cell]]]

    # -- root decomposition ---------------------------------------------------

    def root(self, cell, dim):
        """Return (root_cell, root_dim, epi) with cell = root . epi."""
        r, rd, e = self._compiled().roots[dim][self._index[dim][cell]]
        return self.cells[rd][r], rd, e

    def nondeg(self, dim):
        return self._compiled().nondeg[dim]

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


class _Compiled:
    """Integer tables of a presheaf X, built on its first act, root, nondeg
    or map search.  Cell i of dimension d is X.cells[d][i].

    tables:      (key, d) -> list: the generator action on cell indices
    roots:       d -> list of (root index, root dim, epi), found in one pass
                 with generators outer in generators_at order and source
                 cells inner, first hit winning (cell = root . epi)
    nondeg:      d -> the nondegenerate cells; nondeg_mask[d] their indices
                 as a bitmask
    preimages(): built on the first search into X: (face key, d) -> list,
                 face image index -> bitmask of the d-cells with that face
    """

    def __init__(self, X):
        ops, index = X.ops, X._index
        self.ops = ops
        self.sizes = [len(X.cells[d]) for d in X.dims()]
        self.tables = {}
        self.roots = {}
        self.nondeg = {}
        self.nondeg_mask = {}
        gens_below = ()
        for d in X.dims():
            found = [None] * self.sizes[d]
            for key, g in gens_below:
                if key[0] == "face":
                    continue
                below = self.roots[d - 1]
                for y, t in enumerate(self.tables[(key, d - 1)]):
                    if found[t] is None:
                        r, rd, e = below[y]
                        found[t] = (r, rd, ops.compose(e, g))
            ident = ops.identity(d)
            mask = 0
            for i, root in enumerate(found):
                if root is None:
                    found[i] = (i, d, ident)
                    mask |= 1 << i
            self.roots[d] = found
            self.nondeg_mask[d] = mask
            self.nondeg[d] = tuple(
                c for c, root in zip(X.cells[d], found) if root[1] == d
            )
            gens_below = X.generators_at(d)
            for key, g in gens_below:
                tgt = index[g.source_dim]
                table = X.action[(key, d)]
                self.tables[(key, d)] = [tgt[table[c]] for c in X.cells[d]]
        self._morphisms = {}
        self._preimages = None

    def morphism_table(self, f):
        """The action of the site morphism f as one index list, built on
        first use; None when f is an identity."""
        try:
            return self._morphisms[f]
        except KeyError:
            pass
        table = None
        for key_d, _ in self.ops.factor_keys(f):
            step = self.tables[key_d]
            table = step if table is None else [step[j] for j in table]
        self._morphisms[f] = table
        return table

    def preimages(self):
        if self._preimages is None:
            self._preimages = {}
            for (key, d), table in self.tables.items():
                if key[0] != "face":
                    continue
                masks = [0] * self.sizes[d - 1]
                for i, t in enumerate(table):
                    masks[t] |= 1 << i
                self._preimages[(key, d)] = masks
        return self._preimages


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
    """The standard k-cube/k-simplex; cell ids are site morphisms into it.

    One object per (site, k, trunc_dim), shared by every caller, so its
    compiled tables are built once."""
    return _representable(site_name, k, trunc_dim)


# the cache sits on a private function so that representable stays a plain
# function, which perfbench's tracer wraps and counts like every public one
@lru_cache(maxsize=128)
def _representable(site_name, k, trunc_dim):
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
        cells[d] = tuple(dict.fromkeys(rep[(d, c)] for c in X.cells[d]))
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

    The search runs on cell indices (see _Compiled).  The candidates for a
    nondegenerate cell are the cells of X whose faces match the images of
    its faces: the AND of the face-preimage bitmasks, taken lowest bit
    first, which is stored order.  Every assembled map is checked for
    naturality and for the forced values before it is returned.
    """
    if A.site != X.site or A.trunc_dim != X.trunc_dim:
        raise ValueError("shape mismatch")
    VA, VX = A._compiled(), X._compiled()
    preimages = VX.preimages()
    dims = A.dims()
    forced_at = []  # (dim, A index, X index)
    for (d, c), v in (forced or {}).items():
        x = X._index[d].get(v)
        if x is None:  # no map reaches a value that is not a cell of X
            return []
        forced_at.append((d, A._index[d][c], x))

    # the nondegenerate cells of A in search order, and per cell of A its
    # image as (search position of its root, X table of its epi or None)
    position = {}
    assemble = []
    for d in dims:
        row = []
        for i, (r, rd, e) in enumerate(VA.roots[d]):
            if rd == d:
                position[(d, i)] = len(position)
                row.append((position[(d, i)], None))
            else:
                row.append((position[(rd, r)], VX.morphism_table(e)))
        assemble.append(row)
    fixed = {
        position[(d, i)]: x for d, i, x in forced_at if (d, i) in position
    }
    plan = [
        (d, A.cells[d][i], fixed.get(t), [
            (preimages[(key, d)],) + assemble[d - 1][VA.tables[(key, d)][i]]
            for key, _ in A.generators_at(d)
            if key[0] == "face"
        ])
        for (d, i), t in position.items()
    ]
    pool = [
        VX.nondeg_mask[d] if injective_nondeg else (1 << VX.sizes[d]) - 1
        for d in dims
    ]
    checks = [
        (k, g.source_dim, VA.tables[(key, k)], VX.tables[(key, k)])
        for k in dims
        for key, g in A.generators_at(k)
    ]
    results = []
    val = [0] * len(plan)
    used = [0] * len(pool)

    def finish():
        comps = [
            [val[p] if etab is None else etab[val[p]] for p, etab in row]
            for row in assemble
        ]
        for k, a, atab, xtab in checks:
            ca = comps[a]
            if [ca[y] for y in atab] != [xtab[v] for v in comps[k]]:
                return
        for d, i, x in forced_at:
            if comps[d][i] != x:
                return
        results.append(PresheafMap(A, X, {
            d: dict(zip(A.cells[d], map(X.cells[d].__getitem__, comps[d])))
            for d in dims
        }))

    def backtrack(t):
        if limit is not None and len(results) >= limit:
            return
        if t == len(plan):
            finish()
            return
        d, c, x_fixed, faces = plan[t]
        if x_fixed is not None:
            cands = (x_fixed,)
        else:
            mask = pool[d] & ~used[d] if injective_nondeg else pool[d]
            for masks, p, etab in faces:
                v = val[p]
                mask &= masks[v if etab is None else etab[v]]
                if not mask:
                    break
            cands = []
            xcells = X.cells[d]
            while mask:
                low = mask & -mask
                mask ^= low
                x = low.bit_length() - 1
                if cand_filter is None or cand_filter(d, c, xcells[x]):
                    cands.append(x)
        for x in cands:
            val[t] = x
            if injective_nondeg:
                bit = 1 << x
                used[d] |= bit
                backtrack(t + 1)
                used[d] &= ~bit
            else:
                backtrack(t + 1)

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
