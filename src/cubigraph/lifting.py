"""Lifting problems for finite presheaf maps: the generic square solver,
the level-n generating sets of boundary and open-box/horn inclusions, the
fibration classifiers defined by right lifting properties, and bounded
search for elementary homotopies through the cylinder.
"""

from __future__ import annotations

from .presheaf import (
    _SITE_KINDS,
    _map,
    _open_cell_indices,
    _prescription,
    build_standard,
    enumerate_maps,
    representable,
)


def empty_presheaf(site_name, trunc_dim):
    """The empty presheaf: the boundary of the standard 0-cell."""
    boundary = _SITE_KINDS[site_name][1]
    return build_standard(boundary, 0, trunc_dim=trunc_dim).realized


def terminal_map(X):
    """The unique map X -> standard 0-cell."""
    pt = representable(X.site, 0, X.trunc_dim)
    return _map(X, pt, [[0] * len(X.cells[d]) for d in X.dims()])


def inclusion_of_subset(A, B):
    """Inclusion between presheaves whose cells literally coincide."""
    return _map(A, B, [list(map(B._index[d].__getitem__, A.cells[d]))
                       for d in A.dims()])


class LiftingProblem:
    def __init__(self, left, right, top, bottom):
        self.left = left
        self.right = right
        self.top = top
        self.bottom = bottom
        for i, f, u, v in zip(left.images, right.images, top.images,
                              bottom.images):
            if list(map(f.__getitem__, u)) != list(map(v.__getitem__, i)):
                raise ValueError("lifting square does not commute")


def solve(problem, all_lifts=False):
    """Find h: B -> X with h.i = u and f.h = v, or certify absence."""
    i, f, u, v = problem.left, problem.right, problem.top, problem.bottom
    B, X = i.target, f.source
    forced = _prescription(i, u.images)
    if forced is None:
        return {"no_lift": True}
    # cells of B keep to the fibres over their v-images (forced ones lie
    # over v, degenerate ones follow roots), so every map found is a lift
    allowed = []
    for d, (frow, vrow) in enumerate(zip(f.images, v.images)):
        fibres = [0] * len(f.target.cells[d])
        for x, y in enumerate(frow):
            fibres[y] |= 1 << x
        allowed.append(list(map(fibres.__getitem__, vrow)))
    lifts = enumerate_maps(
        B, X, forced=forced, allowed=allowed,
        limit=None if all_lifts else 1,
    )
    if not lifts:
        return {"no_lift": True}
    return {"lifts": lifts} if all_lifts else {"lift": lifts[0]}


def _squares(i, f):
    """The commuting squares (u, v) of i against f, one at a time."""
    for u in enumerate_maps(i.source, f.source):
        forced = _prescription(i, f.compose(u).images)
        if forced is None:
            continue
        for v in enumerate_maps(i.target, f.target, forced=forced):
            yield u, v


def squares_over(i, f):
    """All commuting squares (u, v) of i against f, deterministically."""
    return list(_squares(i, f))


def has_rlp(f, gen_set):
    """True iff every square over every member lifts; else the first
    square of squares_over that does not.  (u, v) lifts iff it is (h.i,
    f.h) for an h: B -> X, so the RLP against i: A -> B is surjectivity of
    hom(B, X) -> hom(A, X) x_hom(A, Y) hom(B, Y) (Hovey 1999, 5.2).  The
    squares are walked as they are found, so a member's walk stops at its
    first square outside the image."""
    for name, i in gen_set.realize(f.source.trunc_dim):
        image = {(h.compose(i), f.compose(h))
                 for h in enumerate_maps(i.target, f.source)}
        for u, v in _squares(i, f):
            if (u, v) not in image:
                return False, {"member": name, "top": u, "bottom": v}
    return True, None


# ---------------------------------------------------------------------------
# generating sets


class GeneratingSet:
    """A named family of standard-cell inclusions, realized afresh at a
    truncation by each realize call."""

    def __init__(self, name, n, site_name, member_specs):
        self.name = name
        self.n = n
        self.site = site_name
        self.member_specs = member_specs

    def max_k(self):
        return max(spec["k"] for spec in self.member_specs) if self.member_specs else 0

    def realize(self, trunc_dim):
        if trunc_dim < self.max_k():
            raise ValueError(
                f"trunc_dim {trunc_dim} too low for member of dim {self.max_k()}"
            )
        return [
            (self._name_of(spec), _realize_member(self.site, spec, trunc_dim))
            for spec in self.member_specs
        ]

    def _name_of(self, spec):
        bits = [spec["shape"], f"k={spec['k']}"]
        if spec.get("i") is not None:
            bits.append(f"i={spec['i']}")
        if spec.get("eps") is not None:
            bits.append(f"eps={spec['eps']}")
        return " ".join(bits)


def _realize_member(site_name, spec, D):
    """The inclusion of a member part_into_whole: the part is the boundary
    or the open box/horn, the whole is the cell or the boundary."""
    _, boundary, opened = _SITE_KINDS[site_name]
    part, whole = spec["shape"].split("_into_")
    k = spec["k"]
    sub = build_standard(boundary if part == "boundary" else opened, k,
                         spec.get("i"), spec.get("eps"), trunc_dim=D)
    if whole == "cell":
        return sub.inclusion
    return inclusion_of_subset(
        sub.realized, build_standard(boundary, k, trunc_dim=D).realized
    )


# generating set name -> (site, family)
_GENERATING_SETS = {
    "J_n_prime_cubical": ("cubical", "J"),
    "I_n_prime_cubical": ("cubical", "I"),
    "J_n_prime_simplicial": ("simplicial", "J"),
    "I_n_prime_simplicial": ("simplicial", "I"),
    "J_cubical_bounded": ("cubical", "J_bounded"),
}


def generating_set(name, n):
    """The named level-n generating set.

    J_n' (cubical): open boxes into cubes for 0 < k <= n+1 plus all open
    boxes of dimension n+2 into the boundary; I_n': boundaries into cubes
    for 0 <= k <= n+1 (the k = 0 boundary is empty).  Simplicial mirrors
    use horns.  J_cubical_bounded: open boxes into cubes for 0 < k <= n.
    """
    if name not in _GENERATING_SETS:
        raise ValueError(f"unknown generating set {name!r}")
    site_name, family = _GENERATING_SETS[name]
    if family == "I":
        specs = [_spec("boundary_into_cell", k) for k in range(n + 2)]
        return GeneratingSet(name, n, site_name, specs)
    opener = "box" if site_name == "cubical" else "horn"
    top = n if family == "J_bounded" else n + 1
    specs = [
        _spec(f"{opener}_into_cell", k, i, eps)
        for k in range(1, top + 1)
        for i, eps in _open_cell_indices(site_name, k)
    ]
    if family == "J":
        specs += [
            _spec(f"{opener}_into_boundary", n + 2, i, eps)
            for i, eps in _open_cell_indices(site_name, n + 2)
        ]
    return GeneratingSet(name, n, site_name, specs)


def _spec(shape, k, i=None, eps=None):
    return {"shape": shape, "k": k, "i": i, "eps": eps}


def is_kan_fibration_bounded(f, kmax):
    if f.source.site != "cubical":
        raise ValueError("Kan check is cubical")
    return has_rlp(f, generating_set("J_cubical_bounded", kmax))


# ---------------------------------------------------------------------------
# elementary homotopies


def elementary_homotopy_search(f, g, max_chain=4):
    """Zig-zag chains of elementary homotopies from f to g.

    Builds the full homotopy graph on enumerate_maps(X, Y) by enumerating
    every cylinder map, so a miss with the reachable set exhausted is a
    conclusive negative.
    """
    # imported here: check-rlp loads this module, not graphs or product
    from .graphs import _shortest_path
    from .product import cylinder

    X, Y = f.source, f.target
    P, i0, i1, _ = cylinder(X)
    all_maps = enumerate_maps(X, Y)
    homotopies = enumerate_maps(P, Y)
    edges = {}
    for H in homotopies:
        a = H.compose(i0)
        b = H.compose(i1)
        edges.setdefault(a, set()).add(b)
        edges.setdefault(b, set()).add(a)
    idx_of = {m: i for i, m in enumerate(all_maps)}
    adj = {
        idx_of[m]: sorted(idx_of[b] for b in edges.get(m, ()))
        for m in all_maps
    }
    path, exhausted = _shortest_path(idx_of[f], idx_of[g], adj.__getitem__,
                                     max_chain)
    if path is None:
        return {"none_found": True, "exhausted": exhausted}
    return {"chain": [all_maps[j] for j in path], "length": len(path) - 1}
