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

from . import site as st
from .presheaf import (
    _SITE_KINDS,
    FinitePresheaf,
    PresheafMap,
    _cube_nonconst,
    _open_cell_indices,
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
    comps = {
        d: {c: f.components[d][c] for c in A.cells[d]} for d in A.dims()
    }
    return PresheafMap(A, B, comps), iA, iB


def _map_to_id(R, f):
    return tuple(
        f.components[d][c] for d in R.dims() for c in R.cells[d]
    )


def coskeleton(X, n, out_dim=None):
    """(cosk_n X truncated at out_dim, unit X -> cosk_n X).

    The unit is produced when out_dim == X.trunc_dim (the only case where it
    is a map between equal truncations); otherwise it is None.
    """
    if n > X.trunc_dim:
        raise ValueError("coskeleton level exceeds stored truncation")
    if out_dim is None:
        out_dim = X.trunc_dim
    Xt = truncate(X, n)
    ops = X.ops
    reps = {k: representable(X.site, k, n) for k in range(out_dim + 1)}
    index = {}
    for k in range(out_dim + 1):
        R = reps[k]
        index[k] = {
            (d, c): pos
            for pos, (d, c) in enumerate(
                (d, c) for d in R.dims() for c in R.cells[d]
            )
        }
    cells = {}
    for k in range(out_dim + 1):
        cells[k] = tuple(
            _map_to_id(reps[k], f) for f in enumerate_maps(reps[k], Xt)
        )
    action = {}
    for k in range(out_dim + 1):
        for key, g in ops.generators(k, out_dim):
            a = g.source_dim
            Ra = reps[a]
            positions = [
                index[k][(d, ops.compose(g, c))]
                for d in Ra.dims()
                for c in Ra.cells[d]
            ]
            action[(key, k)] = {
                u: tuple(u[p] for p in positions) for u in cells[k]
            }
    C = FinitePresheaf(X.site, out_dim, cells, action)
    unit = None
    if out_dim == X.trunc_dim:
        comps = {}
        for k in range(out_dim + 1):
            comps[k] = {}
            for x in X.cells[k]:
                R = reps[k]
                comps[k][x] = tuple(
                    X.act(x, k, c) for d in R.dims() for c in R.cells[d]
                )
        unit = PresheafMap(X, C, comps)
    return C, unit


def coskeleton_map(f, n, out_dim=None):
    """cosk_n of a map, acting by postcomposition on map-cells."""
    X, Y = f.source, f.target
    if out_dim is None:
        out_dim = X.trunc_dim
    CX, _ = coskeleton(X, n, out_dim)
    CY, _ = coskeleton(Y, n, out_dim)
    reps = {k: representable(X.site, k, n) for k in range(out_dim + 1)}
    comps = {}
    for k in range(out_dim + 1):
        R = reps[k]
        slots = [(d, c) for d in R.dims() for c in R.cells[d]]
        comps[k] = {
            u: tuple(f.components[d][v] for (d, _), v in zip(slots, u))
            for u in CX.cells[k]
        }
    return PresheafMap(CX, CY, comps)


# ---------------------------------------------------------------------------
# skeletal identities on standard inclusions


def _simplex_root_dim(c):
    return len(set(c.values)) - 1


def _sk(site_name, m, sets):
    rd = _cube_nonconst if site_name == "cubical" else _simplex_root_dim
    return {j: {c for c in cs if rd(c) <= m} for j, cs in sets.items()}


def _kept(sets, keep):
    return {j: {c for c in cs if keep(c)} for j, cs in sets.items()}


def verify_skeletal_identities(site_name, n, k_max):
    """Check the sk_{n+1} identities on boundary and horn/open-box
    inclusions for all k <= k_max; returns a list of case reports."""
    _, boundary, open_kind = _SITE_KINDS[site_name]
    ops = st.site_ops(site_name)
    m = n + 1
    cases = []
    for k in range(1, k_max + 1):
        full = {j: set(ops.all_morphisms(j, k)) for j in range(k + 1)}
        bd = _kept(full, _standard_keep(boundary, k))
        skf, skb = _sk(site_name, m, full), _sk(site_name, m, bd)
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
            box = _kept(full, _standard_keep(open_kind, k, i, eps))
            skx = _sk(site_name, m, box)
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
