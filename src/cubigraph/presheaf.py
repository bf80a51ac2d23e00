"""Finite dimension-truncated presheaves over the cube and simplex categories.

A `FinitePresheaf` stores, for each dimension 0..trunc_dim, an ordered tuple
of cell labels, plus one total function per generating site morphism.  A
finite set of n cells is 0..n-1 and a function on it is a list: the action
table of a generator is the list whose entry i is the index of the image of
cell i, and a `PresheafMap` stores one such list per dimension, its images.
Labels name cells to callers only: the label view `PresheafMap.components`,
lookups by label such as `act` and `root`, and repr; JSON names each cell
by its index.  Generator keys follow the site conventions:

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

from functools import lru_cache

from . import site as st


class FinitePresheaf:
    """Immutable-by-convention presheaf truncated at trunc_dim.

    cells:  d -> tuple of labels; cell i of dimension d is cells[d][i]
    action: (key, d) -> list, entry i the index in cells[target dim] of
            the image of cell i under the generator key acting on X_d

    Tables derived from the action are built on first use: the root
    decompositions (_root_table), the action of any site morphism
    (_morphism_table), the face-preimage bitmasks (_face_preimages) and
    the target-free part of a map search out of this presheaf
    (_search_plan).  _coskeleta holds, per (n, out_dim), the coskeleton
    that skeleta._coskeleton built from this presheaf.
    """

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
        self._roots = self._nondeg = self._nondeg_mask = self._preimages = None
        self._plan = None
        self._morphisms = {}
        self._coskeleta = {}

    # -- basic access -------------------------------------------------------

    def dims(self):
        return range(self.trunc_dim + 1)

    def total_cells(self):
        return sum(len(self.cells[d]) for d in self.dims())

    def cell_index(self, dim, cell):
        return self._index[dim][cell]

    def act_gen(self, key, from_dim, cell):
        image = self.action[(key, from_dim)][self._index[from_dim][cell]]
        return self.cells[from_dim - 1 if key[0] == "face" else from_dim + 1][image]

    def generators_at(self, k):
        return self.ops.generators(k, self.trunc_dim)

    def act(self, cell, dim, f):
        """Apply the site morphism f (with f.target_dim == dim) to a cell."""
        table = self._morphism_table(f)
        if table is None:
            return cell
        return self.cells[f.source_dim][table[self._index[dim][cell]]]

    def _morphism_table(self, f):
        """The action of the site morphism f as one index list, composed
        from the generator tables on first use; None when f is an
        identity."""
        try:
            return self._morphisms[f]
        except KeyError:
            pass
        table = None
        for key_d in self.ops.factor(f):
            step = self.action[key_d]
            table = step if table is None else [step[j] for j in table]
        self._morphisms[f] = table
        return table

    def _face_preimages(self):
        """(face key, d) -> list: face image index -> bitmask of the
        d-cells with that face."""
        if self._preimages is None:
            self._preimages = {}
            for d in self.dims():
                for key, _ in self.generators_at(d):
                    if key[0] != "face":
                        continue
                    masks = [0] * len(self.cells[d - 1])
                    for i, t in enumerate(self.action[(key, d)]):
                        masks[t] |= 1 << i
                    self._preimages[(key, d)] = masks
        return self._preimages

    def _search_plan(self):
        """The part of enumerate_maps out of this presheaf that does not
        depend on the target, as a tuple:
          order   the nondegenerate cells in search order, as (dim, index)
          epis    the distinct root epis of the degenerate cells
          where   d -> per d-cell, (search position of its root, slot of
                  its root epi in epis, or -1 for a nondegenerate cell)
          faces   per search position, its faces as (face key, position
                  of the face's root, epi slot)
          ready   per search position, the position after which all its
                  faces are known (-1 when it has none)
        """
        if self._plan is not None:
            return self._plan
        roots = self._root_table()
        order, epis, slot, where = [], [], {}, []
        for d in self.dims():
            row = []
            for i, (r, rd, e) in enumerate(roots[d]):
                if rd == d:
                    row.append((len(order), -1))
                    order.append((d, i))
                    continue
                if e not in slot:
                    slot[e] = len(epis)
                    epis.append(e)
                row.append((where[rd][r][0], slot[e]))
            where.append(row)
        faces, ready = [], []
        for d, i in order:
            fs = [
                (key,) + where[d - 1][self.action[(key, d)][i]]
                for key, _ in self.generators_at(d) if key[0] == "face"
            ]
            faces.append(fs)
            ready.append(max((p for _, p, _ in fs), default=-1))
        self._plan = order, epis, where, faces, ready
        return self._plan

    # -- root decomposition ---------------------------------------------------

    def root(self, cell, dim):
        """Return (root_cell, root_dim, epi) with cell = root . epi."""
        r, rd, e = self._root_table()[dim][self._index[dim][cell]]
        return self.cells[rd][r], rd, e

    def nondeg(self, dim):
        self._root_table()
        return self._nondeg[dim]

    def total_nondeg(self):
        return sum(len(self.nondeg(d)) for d in self.dims())

    def _root_table(self):
        """d -> list of (root index, root dim, epi), one per cell, with
        cell = root . epi.  Found in one pass with generators outer in
        generators_at order and source cells inner, first hit winning.
        Also sets _nondeg (d -> the nondegenerate cells) and _nondeg_mask
        (d -> their indices as a bitmask)."""
        if self._roots is not None:
            return self._roots
        ops = self.ops
        roots, nondeg, masks = {}, {}, {}
        gens_below = ()
        for d in self.dims():
            found = [None] * len(self.cells[d])
            for key, g in gens_below:
                if key[0] == "face":
                    continue
                below = roots[d - 1]
                for y, t in enumerate(self.action[(key, d - 1)]):
                    if found[t] is None:
                        r, rd, e = below[y]
                        found[t] = (r, rd, ops.compose(e, g))
            ident = ops.identity(d)
            mask = 0
            for i, root in enumerate(found):
                if root is None:
                    found[i] = (i, d, ident)
                    mask |= 1 << i
            roots[d] = found
            masks[d] = mask
            nondeg[d] = tuple(
                c for c, root in zip(self.cells[d], found) if root[1] == d
            )
            gens_below = self.generators_at(d)
        self._nondeg, self._nondeg_mask = nondeg, masks
        self._roots = roots
        return roots

    # -- well-formedness ------------------------------------------------------

    def validate(self):
        """Check totality and all composable generator-pair relations."""
        for k in self.dims():
            for key, g in self.generators_at(k):
                table = self.action.get((key, k))
                if table is None:
                    raise ValueError(f"missing action table {(key, k)}")
                if len(table) != len(self.cells[k]):
                    raise ValueError(f"action {(key, k)} not total")
                size = len(self.cells[g.source_dim])
                if not all(type(t) is int and 0 <= t < size for t in table):
                    raise ValueError(f"action {(key, k)} leaves stored cells")
        for k in self.dims():
            for key_u, u in self.generators_at(k):
                a = u.source_dim
                table_u = self.action[(key_u, k)]
                for key_v, v in self.generators_at(a):
                    table_v = self.action[(key_v, a)]
                    comp = self._morphism_table(self.ops.compose(u, v))
                    for i, t in enumerate(table_u):
                        if table_v[t] != (i if comp is None else comp[i]):
                            raise ValueError(
                                f"relation failure at dim {k}: "
                                f"{key_u} then {key_v} on {self.cells[k][i]!r}"
                            )
        return True

    # -- serialization --------------------------------------------------------

    def to_json(self):
        """The JSON form; a cell is named by its index in its dimension."""
        return {
            "site": self.site,
            "trunc_dim": self.trunc_dim,
            "cells": {str(d): list(range(len(self.cells[d]))) for d in self.dims()},
            "action": [
                {"gen": list(key), "from_dim": d,
                 "map": {str(i): t for i, t in enumerate(table)}}
                for (key, d), table in sorted(
                    self.action.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            ],
        }

    @staticmethod
    def from_json(data):
        cells = {int(d): tuple(ids) for d, ids in data["cells"].items()}
        tables = {
            (tuple(entry["gen"]), entry["from_dim"]):
                {int(c): v for c, v in entry["map"].items()}
            for entry in data["action"]
        }
        try:
            X = _from_images(
                data["site"], data["trunc_dim"], cells,
                lambda key, g, c: tables[(key, g.target_dim)][c],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"action tables not total on the stored cells: {exc!r}"
            ) from exc
        X.validate()
        return X


def _from_images(site_name, trunc_dim, cells, image):
    """The presheaf on cells (dim -> labels) whose generator (key, g) sends
    the cell c of dimension g.target_dim to the cell labelled
    image(key, g, c) of dimension g.source_dim."""
    X = FinitePresheaf(site_name, trunc_dim, cells, {})
    for d in X.dims():
        for key, g in X.generators_at(d):
            index = X._index[g.source_dim]
            X.action[(key, d)] = [index[image(key, g, c)] for c in X.cells[d]]
    return X


# ---------------------------------------------------------------------------
# presheaf maps


class PresheafMap:
    """A map source -> target, stored as images: d -> list, entry i the
    index in target.cells[d] of the image of source cell i.

    The constructor takes label dicts, components: d -> {source cell:
    target cell}; a cell it leaves out is None in images and a value that
    is no target cell is the index one past the last, both of which
    validate reports.  The label view `components` is kept as given, or
    built on first use for a map made from images (_map)."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self._components = {
            d: dict(components.get(d, {})) for d in source.dims()
        }
        self.images = []
        for d, comp in self._components.items():
            index = target._index.get(d, {})
            past = len(index)
            self.images.append([
                index.get(comp[c], past) if c in comp else None
                for c in source.cells[d]
            ])

    @property
    def components(self):
        if self._components is None:
            self._components = {
                d: dict(zip(self.source.cells[d],
                            map(self.target.cells[d].__getitem__, row)))
                for d, row in enumerate(self.images)
            }
        return self._components

    def validate(self):
        X, Y = self.source, self.target
        if X.site != Y.site or X.trunc_dim != Y.trunc_dim:
            raise ValueError("source/target shape mismatch")
        for d, row in enumerate(self.images):
            size = len(Y.cells[d])
            for v in row:
                if v is None:
                    raise ValueError(f"map not total at dim {d}")
                if not 0 <= v < size:
                    raise ValueError(f"map leaves target cells at dim {d}")
        for k in X.dims():
            for key, g in X.generators_at(k):
                low, high = self.images[g.source_dim], self.images[k]
                ytab = Y.action[(key, k)]
                for c, y in enumerate(X.action[(key, k)]):
                    if low[y] != ytab[high[c]]:
                        raise ValueError(
                            f"naturality failure: gen {key} at dim {k} "
                            f"on {X.cells[k][c]!r}"
                        )
        return True

    def is_valid(self):
        try:
            return self.validate()
        except ValueError:
            return False

    def compose(self, other):
        """self after other."""
        if not _same_cells(other.target, self.source):
            raise ValueError("composition mismatch")
        return _map(other.source, self.target, [
            list(map(row.__getitem__, inner))
            for row, inner in zip(self.images, other.images)
        ])

    def is_levelwise_bijection(self):
        return all(
            len(set(row)) == len(row) == len(self.target.cells[d])
            for d, row in enumerate(self.images)
        )

    def __eq__(self, other):
        return (
            isinstance(other, PresheafMap)
            and self.images == other.images
            and _same_cells(self.source, other.source)
            and _same_cells(self.target, other.target)
        )

    def __hash__(self):
        return hash((tuple(map(tuple, self.images)),
                     tuple(map(len, self.target.cells.values()))))


def _same_cells(X, Y):
    return X is Y or X.cells == Y.cells


def _map(source, target, images):
    """The PresheafMap with the given images, built without labels."""
    f = PresheafMap.__new__(PresheafMap)
    f.source, f.target, f.images = source, target, images
    f._components = None
    return f


def map_to_json(f):
    """Serialize a presheaf map with both objects, cells relabeled to the
    per-dimension integers used by FinitePresheaf.to_json."""
    return {
        "source": f.source.to_json(),
        "target": f.target.to_json(),
        "components": {str(d): list(row) for d, row in enumerate(f.images)},
    }


def map_from_json(data):
    source = FinitePresheaf.from_json(data["source"])
    target = FinitePresheaf.from_json(data["target"])
    if (source.site, source.trunc_dim) != (target.site, target.trunc_dim):
        raise ValueError(
            f"source ({source.site}, trunc_dim {source.trunc_dim}) and "
            f"target ({target.site}, trunc_dim {target.trunc_dim}) "
            f"differ in site or truncation"
        )
    images = [[None] * len(source.cells[d]) for d in source.dims()]
    for key, row in data["components"].items():
        d = int(key)
        if d not in source.dims():
            raise ValueError(
                f"component {key!r} names no dimension of the source "
                f"(0..{source.trunc_dim})"
            )
        size = len(target.cells[d])
        # bool is an int subclass, and a negative index would wrap around
        if type(row) is not list or len(row) != len(images[d]) or not all(
            type(v) is int and 0 <= v < size for v in row
        ):
            raise ValueError(
                f"component {d} does not send each source cell to a target cell"
            )
        images[d] = row
    f = _map(source, target, images)
    f.validate()
    return f


def identity_map(X):
    return _map(X, X, [list(range(len(X.cells[d]))) for d in X.dims()])


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
    cells = {d: ops.all_morphisms(d, k) for d in range(trunc_dim + 1)}
    return _from_images(
        site_name, trunc_dim, cells, lambda key, g, c: ops.compose(c, g)
    )


def subpresheaf(X, keep):
    """Restrict X to the cells selected by keep(dim, cell); must be closed."""
    kept = {
        d: [i for i, c in enumerate(X.cells[d]) if keep(d, c)]
        for d in X.dims()
    }
    renumber = {}  # d -> new index of each old index, -1 if dropped
    for d, old in kept.items():
        renumber[d] = row = [-1] * len(X.cells[d])
        for j, i in enumerate(old):
            row[i] = j
    action = {}
    for d in X.dims():
        for key, g in X.generators_at(d):
            table, row = X.action[(key, d)], renumber[g.source_dim]
            sub = [row[table[i]] for i in kept[d]]
            if -1 in sub:
                raise ValueError("selection not closed under the action")
            action[(key, d)] = sub
    cells = {d: tuple(map(X.cells[d].__getitem__, old))
             for d, old in kept.items()}
    A = FinitePresheaf(X.site, X.trunc_dim, cells, action)
    return A, _map(A, X, [kept[d] for d in X.dims()])


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


def _cell_signature(c):
    """One int per site morphism c into a standard cell: for a cube map,
    bit 2(i-1)+eps is set when slot i is the constant eps; for a simplex
    map, bit v is set when v is a value."""
    s = 0
    if isinstance(c, st.CubeMorphism):
        for i, t in enumerate(c.coords):
            if t[0] == "c":
                s |= 1 << (2 * i + t[1])
    else:
        for v in c.values:
            s |= 1 << v
    return s


def _signature_classes(site_name, k):
    """The distinct signatures (_cell_signature) of the site morphisms
    j -> k, j = 0..k, in increasing order, listed without building a
    hom-set.  A morphism splits as mono . epi (the split all_cube_morphisms
    builds on), and an epi onto r slots (cube) or r + 1 values (simplex)
    exists for every r <= j.  So every assignment of free, constant 0 or
    constant 1 to the k slots of a cube map occurs (3^k classes), and
    every nonempty set of values of a simplex map (2^(k+1) - 1)."""
    if site_name == "simplicial":
        return range(1, 1 << (k + 1))
    sigs = [0]
    for i in range(k):
        sigs = [s | b for s in sigs for b in (0, 1 << 2 * i, 2 << 2 * i)]
    return sorted(sigs)


def _standard_keep(kind, k, i=None, eps=None):
    """Predicate on the signatures (_cell_signature) of the site morphisms
    into the standard k-cell: those that the standard cell of this kind
    keeps.  A boundary of dimension 0 keeps none, so it is the empty
    cell."""
    if kind in ("cube", "simplex"):
        return lambda s: True
    if kind == "boundary_cube":
        return lambda s: s != 0
    if kind == "boundary_simplex":
        return lambda s: s.bit_count() <= k
    if kind == "open_box":
        if i not in range(1, k + 1) or eps not in (0, 1):
            raise ValueError("invalid open box parameters")
        others = ~(1 << (2 * (i - 1) + eps))
        return lambda s: bool(s & others)
    if kind == "horn":
        if k < 1 or i not in range(k + 1):
            raise ValueError("invalid horn parameters")
        others = ((1 << (k + 1)) - 1) & ~(1 << i)
        return lambda s: bool(others & ~s)
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
    realized, incl = subpresheaf(amb, lambda d, c: keep(_cell_signature(c)))
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
            shift = len(X.cells[g.source_dim])
            action[(key, d)] = X.action[(key, d)] + [
                t + shift for t in Y.action[(key, d)]
            ]
    return FinitePresheaf(X.site, X.trunc_dim, cells, action)


class _UnionFind:
    """Union-find over hashable, ordered nodes (never None); each class is
    rooted at its least member."""

    def __init__(self):
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
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def quotient(X, pairs):
    """Quotient X by the congruence generated by pairs of (dim, cell, cell).

    Identifications propagate through every generator action; the class
    representative is the member earliest in stored order.
    """
    classes = _UnionFind()  # over (dim, index) pairs
    tables = {
        d: [(X.action[(key, d)], g.source_dim) for key, g in X.generators_at(d)]
        for d in X.dims()
    }
    queue = [((d, X._index[d][a]), (d, X._index[d][b])) for d, a, b in pairs]
    while queue:
        na, nb = queue.pop()
        if not classes.union(na, nb):
            continue
        d, ia = na
        ib = nb[1]
        for table, a in tables[d]:
            queue.append(((a, table[ia]), (a, table[ib])))

    # per dimension: the class roots (each the least index of its class)
    # in stored order, and the new index of every old cell
    roots, renumber = {}, {}
    for d in X.dims():
        rep = [classes.find((d, i))[1] for i in range(len(X.cells[d]))]
        roots[d] = [i for i, r in enumerate(rep) if r == i]
        new = {r: j for j, r in enumerate(roots[d])}
        renumber[d] = [new[r] for r in rep]
    cells = {d: tuple(map(X.cells[d].__getitem__, roots[d])) for d in X.dims()}
    action = {}
    for d in X.dims():
        for key, g in X.generators_at(d):
            table, row = X.action[(key, d)], renumber[g.source_dim]
            action[(key, d)] = [row[table[i]] for i in roots[d]]
    Q = FinitePresheaf(X.site, X.trunc_dim, cells, action)
    return Q, _map(X, Q, [renumber[d] for d in X.dims()])


def random_presheaf(site_name, trunc_dim, rng, max_nondeg=40):
    """A random finite presheaf: glued standard cells with identified
    vertices, redrawn until it has at most max_nondeg nondegenerate cells.

    Every draw has a vertex and, when trunc_dim >= 1, an edge, so a
    max_nondeg below that floor is a ValueError.
    """
    floor = 2 if trunc_dim >= 1 else 1
    if max_nondeg < floor:
        raise ValueError(
            f"max_nondeg must be at least {floor} at trunc_dim {trunc_dim}, "
            f"not {max_nondeg}: no draw has fewer nondegenerate cells"
        )
    cell, boundary, opened = _SITE_KINDS[site_name]
    kinds = [(cell, 1), (cell, 2), (boundary, 2), (opened, 2)]
    while True:
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
        if Q.total_nondeg() <= max_nondeg:
            return Q


# ---------------------------------------------------------------------------
# map enumeration


def enumerate_maps(A, X, forced=None, injective_nondeg=False, limit=None,
                   allowed=None):
    """All presheaf maps A -> X by backtracking over nondegenerate cells.

    forced: optional prescription, a list whose entry d is a dict {index
    of a d-cell of A: index of a d-cell of X}; cells may be degenerate,
    and degenerate prescriptions are checked after assembly.  A value
    that is no cell index of X admits no map.
    injective_nondeg: restrict the search to maps sending nondegenerate cells
    injectively to nondegenerate cells (complete for isomorphism search).
    allowed: optional list whose entry d holds, per d-cell i of A, a
    bitmask of the d-cells of X that cell i may go to.  It binds non-forced
    nondegenerate cells, and every cell if the masks hold the forced values
    and are closed under the action (degenerate cells follow their roots).

    The candidates for a nondegenerate cell are the cells of X whose faces
    match the images of its faces: the AND of the face-preimage bitmasks
    over its pool (every cell, or the nondegenerate ones when injective,
    and its allowed mask), taken lowest bit first, which is stored order.
    The search checks ahead (forward checking): after choosing a value at
    a position it takes each later cell whose faces are then all known,
    forced cells too, and drops the value if such a cell has no candidate
    left.  That cuts only subtrees that hold no map, so the maps and their
    order do not depend on it.  Every assembled map phi is natural, so
    none is re-checked: a free nondegenerate cell takes only candidates
    whose faces match, a forced one is dropped at its wake when a face
    disagrees, and a degenerate cell c = r.e (its unique root
    decomposition) goes to X(e) phi(r).  Induction on dimension over the
    epi-mono split then gives phi A(g) = X(g) phi for every generator g
    whenever A and X are valid presheaves on an Eilenberg-Zilber site
    (Berger-Moerdijk 2011), as every constructor and from_json make them.
    """
    if A.site != X.site or A.trunc_dim != X.trunc_dim:
        raise ValueError("shape mismatch")
    order, epis, where, faces_a, ready = A._search_plan()
    forced = forced or []
    forced_checks = []  # (dim, cells of A, their prescribed values)
    for d, pairs in enumerate(forced):
        size = len(X.cells[d])
        if not all(0 <= x < size for x in pairs.values()):
            return []  # no map reaches a value that is no cell
        if pairs:
            forced_checks.append((d, list(pairs), list(pairs.values())))
    preimages = X._face_preimages()
    etabs = [X._morphism_table(e) for e in epis]
    if injective_nondeg:
        X._root_table()
        pool = [X._nondeg_mask[d] for d in A.dims()]
    else:
        pool = [(1 << len(X.cells[d])) - 1 for d in A.dims()]
    # per search position: (dim, forced value or None, its pool, its
    # faces as (face-preimage masks, position of the face's root, X table
    # of its epi or None))
    plan = []
    for (d, i), fs in zip(order, faces_a):
        mask = pool[d] if allowed is None else pool[d] & allowed[d][i]
        plan.append((
            d, forced[d].get(i) if d < len(forced) else None, mask,
            [(preimages[(key, d)], p, None if s < 0 else etabs[s])
             for key, p, s in fs],
        ))
    # per search position: the later cells whose faces are all known once
    # it is, each as (its candidates before its faces are read, its faces)
    wakes = [[] for _ in plan]
    for w, t in enumerate(ready):
        if t >= 0:
            _, fixed, mask, fs = plan[w]
            wakes[t].append((mask if fixed is None else 1 << fixed, fs))
    results = []
    val = [0] * len(plan)
    used = [0] * len(pool)

    def finish():
        comps = [
            [val[p] if s < 0 else etabs[s][val[p]] for p, s in row]
            for row in where
        ]
        for d, cells, values in forced_checks:
            if list(map(comps[d].__getitem__, cells)) != values:
                return
        results.append(_map(A, X, comps))

    def backtrack(t):
        if limit is not None and len(results) >= limit:
            return
        if t == len(plan):
            finish()
            return
        d, x_fixed, mask, faces = plan[t]
        if x_fixed is not None:
            cands = (x_fixed,)
        else:
            if injective_nondeg:
                mask &= ~used[d]
            for masks, p, etab in faces:
                v = val[p]
                mask &= masks[v if etab is None else etab[v]]
                if not mask:
                    break
            cands = []
            while mask:
                low = mask & -mask
                mask ^= low
                cands.append(low.bit_length() - 1)
        ahead = wakes[t]
        for x in cands:
            val[t] = x
            # forward check: for/else reaches the recursion only when
            # every cell woken here keeps a candidate
            for m, fs in ahead:
                for masks, p, etab in fs:
                    v = val[p]
                    m &= masks[v if etab is None else etab[v]]
                    if not m:
                        break
                if not m:
                    break
            else:
                if injective_nondeg:
                    bit = 1 << x
                    used[d] |= bit
                    backtrack(t + 1)
                    used[d] &= ~bit
                else:
                    backtrack(t + 1)

    backtrack(0)
    return results


def is_isomorphic(X, Y, forced=None):
    """Isomorphism test with witness; forced is an optional prescription
    in the index form of enumerate_maps."""
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


def _prescription(i, images):
    """The prescription, in the index form of enumerate_maps, on the target
    of the map i that sends cell i(c) to images[dim][c] for every cell c
    of its source, or None when two cells with one image under i get
    different values."""
    forced = []
    for row, want in zip(i.images, images):
        pairs = dict(zip(row, want))
        if list(map(pairs.__getitem__, row)) != list(want):
            return None
        forced.append(pairs)
    return forced


def is_isomorphic_over(f, g):
    """Isomorphism A -> B commuting with maps f: Z -> A, g: Z -> B."""
    forced = _prescription(f, g.images)
    if forced is None:
        return False, None
    return is_isomorphic(f.target, g.target, forced=forced)
