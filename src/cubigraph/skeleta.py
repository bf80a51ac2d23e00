"""Truncation, skeleton, and coskeleton for finite presheaves, plus the
executable check of the skeletal identities on boundaries, horns, and open
boxes.

skeleton(X, n) keeps cells whose nondegenerate root has dimension <= n.
coskeleton(X, n, out_dim) is computed pointwise: a k-cell is a presheaf map
from the n-truncated standard k-cell into the n-truncation of X, stored as
the tuple of its values in a fixed cell order; operators act by
precomposition and the unit sends a cell to its truncated characteristic
map.
"""

from __future__ import annotations

import operator

from .presheaf import (
    _SITE_KINDS,
    FinitePresheaf,
    _map,
    _open_cell_indices,
    _signature_classes,
    _standard_keep,
    enumerate_maps,
    representable,
    subpresheaf,
)


def truncate(X, n):
    if n > X.trunc_dim:
        raise ValueError("cannot truncate upward")
    cells = {d: X.cells[d] for d in range(n + 1)}
    action = {}
    for d in range(n + 1):
        for key, g in X.ops.generators(d, n):
            action[(key, d)] = X.action[(key, d)]
    return FinitePresheaf(X.site, n, cells, action)


def skeleton(X, n):
    """(sk_n X, counit inclusion into X)."""
    if n > X.trunc_dim:
        raise ValueError("skeleton level exceeds stored truncation")
    return subpresheaf(X, lambda d, c: X.root(c, d)[1] <= n)


def skeleton_map(f, n):
    """Restriction of f: A -> B to a map sk_n A -> sk_n B."""
    A, iA = skeleton(f.source, n)
    B, iB = skeleton(f.target, n)
    images = []
    for d in A.dims():
        # one past the last cell of B: f leaves sk_n of its target
        renumber = [len(B.cells[d])] * len(f.target.cells[d])
        for j, t in enumerate(iB.images[d]):
            renumber[t] = j
        row = f.images[d]
        images.append([renumber[row[s]] for s in iA.images[d]])
    return _map(A, B, images), iA, iB


def _map_to_id(f):
    """The cells of f's target that f takes the cells of its source to,
    as one tuple of indices in the source's stored order."""
    return tuple(x for row in f.images for x in row)


def coskeleton(X, n, out_dim=None):
    """(cosk_n X truncated at out_dim, unit X -> cosk_n X).

    The unit is produced when out_dim == X.trunc_dim (the only case where it
    is a map between equal truncations); otherwise it is None.
    """
    C, unit, _ = _coskeleton(X, n, out_dim)
    return C, unit


def _coskeleton(X, n, out_dim):
    """coskeleton, and k -> {id: index} over the k-cells of C in stored
    order, the id of a cell the tuple of the indices in X of its values
    (_map_to_id).  Built once per (X, n, out_dim) and kept on X."""
    if n > X.trunc_dim:
        raise ValueError("coskeleton level exceeds stored truncation")
    if out_dim is None:
        out_dim = X.trunc_dim
    built = X._coskeleta.get((n, out_dim))
    if built is not None:
        return built
    Xt = truncate(X, n)
    ops = X.ops
    reps = {k: representable(X.site, k, n) for k in range(out_dim + 1)}
    # k -> the dimension of each value slot of a k-cell's id
    slot_dims = {
        k: [d for d in R.dims() for _ in R.cells[d]] for k, R in reps.items()
    }
    ids, cells, where = {}, {}, {}
    for k in range(out_dim + 1):
        ids[k] = [_map_to_id(f) for f in enumerate_maps(reps[k], Xt)]
        where[k] = {u: j for j, u in enumerate(ids[k])}
        labels = [Xt.cells[d] for d in slot_dims[k]]
        cells[k] = tuple(
            tuple(map(operator.getitem, labels, u)) for u in ids[k]
        )
    # (key, k) -> the slots of a k-cell that the generator's image reads:
    # slot j of the image is the value at g . c, c the j-th cell of R_a
    action = {}
    for k in range(out_dim + 1):
        R = reps[k]
        start = [0]
        for d in R.dims():
            start.append(start[-1] + len(R.cells[d]))
        for key, g in ops.generators(k, out_dim):
            Ra = reps[g.source_dim]
            slots = [
                start[d] + R.cell_index(d, ops.compose(g, c))
                for d in Ra.dims()
                for c in Ra.cells[d]
            ]
            index = where[g.source_dim]
            action[(key, k)] = [
                index[tuple(map(u.__getitem__, slots))] for u in ids[k]
            ]
    C = FinitePresheaf(X.site, out_dim, cells, action)
    unit = None
    if out_dim == X.trunc_dim:
        images = []
        for k in range(out_dim + 1):
            R = reps[k]
            tables = [
                X._morphism_table(c) for d in R.dims() for c in R.cells[d]
            ]
            index = where[k]
            images.append([
                index[tuple(x if t is None else t[x] for t in tables)]
                for x in range(len(X.cells[k]))
            ])
        unit = _map(X, C, images)
    built = X._coskeleta[(n, out_dim)] = C, unit, where
    return built


def coskeleton_map(f, n, out_dim=None):
    """cosk_n of a map, acting by postcomposition on map-cells."""
    X, Y = f.source, f.target
    if out_dim is None:
        out_dim = X.trunc_dim
    CX, _, ids_x = _coskeleton(X, n, out_dim)
    CY, _, ids_y = _coskeleton(Y, n, out_dim)
    images = []
    for k in range(out_dim + 1):
        R = representable(X.site, k, n)
        rows = [f.images[d] for d in R.dims() for _ in R.cells[d]]
        index = ids_y[k]
        # ids_x[k] lists the ids of CX's k-cells in stored order
        images.append([
            index[tuple(map(operator.getitem, rows, u))] for u in ids_x[k]
        ])
    return _map(CX, CY, images)


# ---------------------------------------------------------------------------
# skeletal identities on standard inclusions


def _root_dim(site_name, k, s):
    """The dimension of the nondegenerate root of a morphism into the
    standard k-cell, read from its signature (_cell_signature)."""
    if site_name == "cubical":
        return k - s.bit_count()
    return s.bit_count() - 1


def verify_skeletal_identities(site_name, n, k_max):
    """Check the sk_{n+1} identities on boundary and horn/open-box
    inclusions for all k <= k_max; returns a list of case reports.

    A set of morphisms j -> k, j = 0..k, into the standard k-cell is one
    0/1 byte per signature class (_signature_classes): 3^k classes
    cubical and 2^(k+1) - 1 simplicial, so 243 bytes stand for the 52,453
    cube maps at k = 5, and no hom-set is built.  This is exact: each
    predicate applied here (_standard_keep, _root_dim) reads a morphism's
    signature alone, so it is constant on a class, and every listed class
    has a member.  Two sets therefore agree on every morphism exactly
    when their bytes agree on every class."""
    cell, boundary, open_kind = _SITE_KINDS[site_name]
    m = n + 1
    cases = []
    for k in range(1, k_max + 1):
        sigs = _signature_classes(site_name, k)
        low = bytes(_root_dim(site_name, k, s) <= m for s in sigs)

        def kept(kind, i=None, eps=None):
            return bytes(map(_standard_keep(kind, k, i, eps), sigs))

        def sk(cells):
            return bytes(map(operator.and_, cells, low))

        full = kept(cell)
        bd = kept(boundary)
        skf, skb = sk(full), sk(bd)
        if k <= n + 1:
            ok = skb == bd and skf == full
            expect = "itself"
        else:
            ok = skb == skf
            expect = "identity"
        cases.append(
            {"kind": "boundary", "k": k, "i": None, "eps": None,
             "expected": expect, "ok": ok}
        )
        for i, eps in _open_cell_indices(site_name, k):
            box = kept(open_kind, i, eps)
            skx = sk(box)
            if k <= n + 1:
                ok = skx == box and skf == full
                expect = "itself"
            elif k == n + 2:
                ok = skx == box and skf == bd
                expect = "into boundary"
            else:
                ok = skx == skf
                expect = "identity"
            cases.append(
                {"kind": open_kind, "k": k, "i": i, "eps": eps,
                 "expected": expect, "ok": ok}
            )
    return cases
