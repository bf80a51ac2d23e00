"""Canonical morphisms of the cube category (with both connections) and the
simplex category.

A cube morphism [1]^m -> [1]^n is stored as a tuple of n coordinate terms.
Each term is one of:

    ("c", 0) / ("c", 1)     constant coordinate
    ("v", i)                input variable i (1-based)
    ("max", (t1, ..., tr))  pointwise max of sub-terms
    ("min", (t1, ..., tr))  pointwise min of sub-terms

Canonical form: supports of the coordinate terms are pairwise disjoint and
ordered (all variables of an earlier coordinate precede all variables of a
later one), and each term is one that a single recursion over block cuts
gives on its variables (`_terms_on`): a variable, or max/min over a cut of
them into two or more consecutive blocks, each a term of the other
operation.  The flat one-level max/min descriptors are not closed under
composition once both connection kinds are present (a max-connection after
a min-connection already produces max(x1, min(x2, x3))), so terms nest.
Two canonical morphisms are equal iff they are equal as monotone functions
{0,1}^m -> {0,1}^n; this is checked exhaustively in the test suite.  The
generators (`cube_generators`) are the only faces, degeneracies and
connections; the nerve evaluates them on grid points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

CONST0 = ("c", 0)
CONST1 = ("c", 1)


def _mk_node(op: str, children):
    """Normalize a max/min node: flatten, absorb constants, collapse."""
    absorbing = CONST1 if op == "max" else CONST0
    neutral = CONST0 if op == "max" else CONST1
    flat = []
    for ch in children:
        if ch == absorbing:
            return absorbing
        if ch == neutral:
            continue
        if ch[0] == op:
            flat.extend(ch[1])
        else:
            flat.append(ch)
    if not flat:
        return neutral
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=_term_min_var)
    return (op, tuple(flat))


def term_support(t) -> frozenset:
    if t[0] == "c":
        return frozenset()
    if t[0] == "v":
        return frozenset((t[1],))
    out = frozenset()
    for ch in t[1]:
        out |= term_support(ch)
    return out


def _term_min_var(t) -> int:
    return min(term_support(t))


def term_eval(t, point) -> int:
    """Evaluate a term on a tuple of values; point is 1-indexed via position."""
    if t[0] == "c":
        return t[1]
    if t[0] == "v":
        return point[t[1] - 1]
    vals = [term_eval(ch, point) for ch in t[1]]
    return max(vals) if t[0] == "max" else min(vals)


def _term_subst(t, coords):
    """Substitute coordinate terms for the variables of t and renormalize."""
    if t[0] == "c":
        return t
    if t[0] == "v":
        return coords[t[1] - 1]
    return _mk_node(t[0], [_term_subst(ch, coords) for ch in t[1]])


def _term_relabel(t, rel):
    if t[0] == "c":
        return t
    if t[0] == "v":
        return ("v", rel[t[1]])
    return (t[0], tuple(_term_relabel(ch, rel) for ch in t[1]))


def _term_canonical(t) -> bool:
    """Alternating ops, >= 2 children, children supports are ordered blocks."""
    if t[0] in ("c", "v"):
        return True
    if t[0] not in ("max", "min"):
        return False
    kids = t[1]
    if len(kids) < 2:
        return False
    for ch in kids:
        if ch[0] == t[0]:
            return False
        if not _term_canonical(ch):
            return False
    for a, b in zip(kids, kids[1:]):
        if max(term_support(a)) >= min(term_support(b)):
            return False
    return True


@dataclass(frozen=True)
class CubeMorphism:
    """A morphism [1]^source_dim -> [1]^target_dim of the cube category."""

    source_dim: int
    coords: tuple

    @property
    def target_dim(self) -> int:
        return len(self.coords)

    def evaluate(self, point) -> tuple:
        return tuple(term_eval(t, point) for t in self.coords)

    def is_identity(self) -> bool:
        return self.source_dim == self.target_dim and all(
            t == ("v", i + 1) for i, t in enumerate(self.coords)
        )

    def is_canonical(self) -> bool:
        supports = []
        for t in self.coords:
            if not _term_canonical(t):
                return False
            s = term_support(t)
            if s:
                supports.append(s)
        seen = set()
        for s in supports:
            if s & seen:
                return False
            seen |= s
        if any(v < 1 or v > self.source_dim for v in seen):
            return False
        for a, b in zip(supports, supports[1:]):
            if max(a) >= min(b):
                return False
        return True

    def __repr__(self):
        return f"Cube({self.source_dim}->{self.target_dim}:{_coords_str(self.coords)})"


def _coords_str(coords):
    def ts(t):
        if t[0] == "c":
            return str(t[1])
        if t[0] == "v":
            return f"x{t[1]}"
        return t[0] + "(" + ",".join(ts(c) for c in t[1]) + ")"

    return ";".join(ts(t) for t in coords)


def cube_identity(n: int) -> CubeMorphism:
    return CubeMorphism(n, tuple(("v", i) for i in range(1, n + 1)))


def cube_compose(g: CubeMorphism, f: CubeMorphism) -> CubeMorphism:
    """g after f; evaluation equals pointwise composition."""
    if f.target_dim != g.source_dim:
        raise ValueError(
            f"dimension mismatch: {f.target_dim} -> cannot feed {g.source_dim}"
        )
    return CubeMorphism(f.source_dim, tuple(_term_subst(t, f.coords) for t in g.coords))


def cube_face(i: int, eps: int, n: int) -> CubeMorphism:
    """The face [1]^(n-1) -> [1]^n inserting constant eps at slot i."""
    if not (1 <= i <= n):
        raise ValueError(f"face index {i} out of range for dim {n}")
    coords = [("v", j) for j in range(1, n)]
    coords.insert(i - 1, ("c", eps))
    return CubeMorphism(n - 1, tuple(coords))


def cube_degeneracy(i: int, n: int) -> CubeMorphism:
    """The degeneracy [1]^n -> [1]^(n-1) dropping variable i."""
    if not (1 <= i <= n):
        raise ValueError(f"degeneracy index {i} out of range for dim {n}")
    coords = [("v", j) for j in range(1, n + 1) if j != i]
    return CubeMorphism(n, tuple(coords))


def cube_connection(i: int, eps: int, n: int) -> CubeMorphism:
    """The connection [1]^n -> [1]^(n-1) merging variables i, i+1.

    eps = 0 is the max-connection, eps = 1 the min-connection.
    """
    if not (1 <= i <= n - 1):
        raise ValueError(f"connection index {i} out of range for dim {n}")
    op = "max" if eps == 0 else "min"
    coords = [("v", j) for j in range(1, n + 1)]
    coords[i - 1: i + 1] = [(op, (("v", i), ("v", i + 1)))]
    return CubeMorphism(n, tuple(coords))


def cube_is_face_type(m: CubeMorphism) -> bool:
    """True iff m is a composite of face maps only."""
    return all(t[0] in ("c", "v") for t in m.coords) and m.is_canonical() and (
        sum(1 for t in m.coords if t[0] == "v") == m.source_dim
    )


def cube_is_epi_type(m: CubeMorphism) -> bool:
    """True iff m is a composite of degeneracies and connections (split epi)."""
    return all(t[0] != "c" for t in m.coords)


def cube_mono_epi(m: CubeMorphism):
    """Unique factorization m = mono . epi (mono inserts the constants)."""
    nonconst = [t for t in m.coords if t[0] != "c"]
    r = len(nonconst)
    mono_coords = []
    slot = 0
    for t in m.coords:
        if t[0] == "c":
            mono_coords.append(t)
        else:
            slot += 1
            mono_coords.append(("v", slot))
    mono = CubeMorphism(r, tuple(mono_coords))
    epi = CubeMorphism(m.source_dim, tuple(nonconst))
    return mono, epi


def cube_tensor(f: CubeMorphism, g: CubeMorphism) -> CubeMorphism:
    """Concatenation [1]^(a+b) -> [1]^(p+q) of two cube morphisms."""
    a = f.source_dim
    rel = {i: i + a for i in range(1, g.source_dim + 1)}
    shifted = tuple(_term_relabel(t, rel) for t in g.coords)
    return CubeMorphism(a + g.source_dim, f.coords + shifted)


def _deepest_node_leaves(t):
    """Find a node all of whose children are leaves; return (op, leaf vars)."""
    if t[0] in ("c", "v"):
        return None
    for ch in t[1]:
        found = _deepest_node_leaves(ch)
        if found is not None:
            return found
    return (t[0], tuple(ch[1] for ch in t[1]))


def _merge_leaves(t, j):
    """Replace the leaf pair (j, j+1) by leaf j and relabel higher vars down."""
    def go(t):
        if t[0] == "c":
            return t
        if t[0] == "v":
            v = t[1]
            return ("v", v if v <= j else v - 1)
        kids = []
        for ch in t[1]:
            if ch == ("v", j + 1):
                continue
            kids.append(go(ch))
        return _mk_node(t[0], kids)

    return go(t)


@lru_cache(maxsize=None)
def cube_factor(m: CubeMorphism):
    """Factor m into generators: m = L[0] . L[1] . ... . L[-1].

    Each L is the (key, acting_dim) pair that cube_generators(acting_dim, .)
    lists the generator under.  Intermediate dimensions never exceed
    max(source_dim, target_dim).
    """
    if m.is_identity():
        return ()
    for idx, t in enumerate(m.coords):
        if t[0] == "c":
            rest = CubeMorphism(m.source_dim, m.coords[: idx] + m.coords[idx + 1:])
            return ((("face", idx + 1, t[1]), m.target_dim),) + cube_factor(rest)
    used = set()
    for t in m.coords:
        used |= term_support(t)
    for v in range(1, m.source_dim + 1):
        if v not in used:
            rel = {u: (u if u < v else u - 1) for u in range(1, m.source_dim + 1)}
            rest = CubeMorphism(
                m.source_dim - 1, tuple(_term_relabel(t, rel) for t in m.coords)
            )
            return cube_factor(rest) + ((("deg", v), m.source_dim - 1),)
    # all variables used, no constants: peel one adjacent connection
    for idx, t in enumerate(m.coords):
        found = _deepest_node_leaves(t)
        if found is not None:
            op, leaves = found
            j = leaves[0]
            assert leaves[1] == j + 1, "used variables must be consecutive"
            new_t = _merge_leaves(t, j)
            rel = {u: (u if u <= j else u - 1) for u in range(1, m.source_dim + 1)}
            coords = tuple(
                new_t if k == idx else _term_relabel(c, rel)
                for k, c in enumerate(m.coords)
            )
            rest = CubeMorphism(m.source_dim - 1, coords)
            eps = 0 if op == "max" else 1
            return cube_factor(rest) + ((("conn", j, eps), m.source_dim - 1),)
    raise AssertionError(f"cannot factor {m!r}")


@lru_cache(maxsize=None)
def cube_generators(k: int, trunc_dim: int):
    """The (key, morphism) pairs of the generators acting on k-cells.

    Each morphism has target dimension k: faces (lowering the cell
    dimension), then degeneracies and connections (raising it) when
    k + 1 <= trunc_dim.  Built once per (k, trunc_dim).
    """
    out = [
        (("face", i, eps), cube_face(i, eps, k))
        for i in range(1, k + 1) for eps in (0, 1)
    ]
    if k + 1 <= trunc_dim:
        out += [(("deg", i), cube_degeneracy(i, k + 1)) for i in range(1, k + 2)]
        out += [
            (("conn", i, eps), cube_connection(i, eps, k + 1))
            for i in range(1, k + 1) for eps in (0, 1)
        ]
    return tuple(out)


def _blocks(seq, r):
    """The cuts of seq into exactly r >= 1 nonempty consecutive blocks."""
    for cuts in itertools.combinations(range(1, len(seq)), r - 1):
        bounds = (0,) + cuts + (len(seq),)
        yield [seq[a:b] for a, b in zip(bounds, bounds[1:])]


@lru_cache(maxsize=None)
def _terms_on(leaves: tuple, avoid=None):
    """The canonical terms whose variables are exactly leaves: the leaf
    itself, or max/min (never avoid, the parent's operation) over a cut
    of the leaves into two or more blocks, each block a term whose
    operation differs from this one."""
    if len(leaves) == 1:
        return (("v", leaves[0]),)
    return tuple(
        (op, kids)
        for op in ("max", "min") if op != avoid
        for r in range(2, len(leaves) + 1)
        for blocks in _blocks(leaves, r)
        for kids in itertools.product(*(_terms_on(b, op) for b in blocks))
    )


@lru_cache(maxsize=None)
def all_cube_epis(m: int, r: int):
    """The constant-free morphisms [1]^m -> [1]^r, ordered by repr: one
    canonical term on each block of each cut of the used variables into
    exactly r consecutive blocks."""
    if r == 0:
        return (CubeMorphism(m, ()),)
    out = []
    for size in range(r, m + 1):
        for used in itertools.combinations(range(1, m + 1), size):
            for blocks in _blocks(used, r):
                for terms in itertools.product(*map(_terms_on, blocks)):
                    out.append(CubeMorphism(m, terms))
    out.sort(key=repr)
    return tuple(out)


@lru_cache(maxsize=None)
def all_cube_morphisms(m: int, n: int):
    """All canonical morphisms [1]^m -> [1]^n, ordered by repr: each is an
    epi [1]^m -> [1]^r with constants in the other n - r slots, the
    mono . epi split of cube_mono_epi."""
    out = []
    for r in range(min(m, n) + 1):
        for positions in itertools.combinations(range(n), r):
            for consts in itertools.product((CONST0, CONST1), repeat=n - r):
                for e in all_cube_epis(m, r):
                    terms, fill = iter(e.coords), iter(consts)
                    coords = tuple(
                        next(terms) if j in positions else next(fill)
                        for j in range(n)
                    )
                    out.append(CubeMorphism(m, coords))
    out.sort(key=repr)
    return tuple(out)


# ---------------------------------------------------------------------------
# simplex category


@dataclass(frozen=True)
class SimplexMorphism:
    """An order-preserving map [source_dim] -> [target_dim]."""

    target_dim: int
    values: tuple

    @property
    def source_dim(self) -> int:
        return len(self.values) - 1

    def is_identity(self) -> bool:
        return self.target_dim == self.source_dim and self.values == tuple(
            range(self.target_dim + 1)
        )

    def is_canonical(self) -> bool:
        return all(a <= b for a, b in zip(self.values, self.values[1:])) and all(
            0 <= v <= self.target_dim for v in self.values
        )

    def __repr__(self):
        return f"Simp({self.source_dim}->{self.target_dim}:{list(self.values)})"


def simplex_identity(n: int) -> SimplexMorphism:
    return SimplexMorphism(n, tuple(range(n + 1)))


def simplex_compose(g: SimplexMorphism, f: SimplexMorphism) -> SimplexMorphism:
    if f.target_dim != g.source_dim:
        raise ValueError("dimension mismatch")
    return SimplexMorphism(g.target_dim, tuple(g.values[v] for v in f.values))


def simplex_face(i: int, n: int) -> SimplexMorphism:
    """The injection [n-1] -> [n] skipping i."""
    if not (0 <= i <= n):
        raise ValueError(f"face index {i} out of range for dim {n}")
    return SimplexMorphism(n, tuple(v for v in range(n + 1) if v != i))


def simplex_degeneracy(i: int, n: int) -> SimplexMorphism:
    """The surjection [n+1] -> [n] repeating i."""
    if not (0 <= i <= n):
        raise ValueError(f"degeneracy index {i} out of range for dim {n}")
    vals = list(range(i + 1)) + [i] + list(range(i + 1, n + 1))
    return SimplexMorphism(n, tuple(vals))


@lru_cache(maxsize=None)
def simplex_factor(m: SimplexMorphism):
    """m = faces . degeneracies, outermost first, as the (key, acting_dim)
    pairs of simplex_generators."""
    if m.is_identity():
        return ()
    missing = [v for v in range(m.target_dim + 1) if v not in m.values]
    if missing:
        i = missing[-1]
        rest = SimplexMorphism(
            m.target_dim - 1, tuple(v if v < i else v - 1 for v in m.values)
        )
        return ((("face", i), m.target_dim),) + simplex_factor(rest)
    for k in range(len(m.values) - 1):
        if m.values[k] == m.values[k + 1]:
            rest = SimplexMorphism(m.target_dim, m.values[:k] + m.values[k + 1:])
            return simplex_factor(rest) + ((("deg", k), m.source_dim - 1),)
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def simplex_generators(k: int, trunc_dim: int):
    """The (key, morphism) pairs of the generators acting on k-simplices:
    faces, then degeneracies when k + 1 <= trunc_dim.  Built once per
    (k, trunc_dim)."""
    out = [(("face", i), simplex_face(i, k)) for i in range(k + 1)] if k else []
    if k + 1 <= trunc_dim:
        out += [(("deg", i), simplex_degeneracy(i, k)) for i in range(k + 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def all_simplex_morphisms(m: int, n: int):
    out = [
        SimplexMorphism(n, vals)
        for vals in itertools.combinations_with_replacement(range(n + 1), m + 1)
    ]
    out.sort(key=repr)
    return tuple(out)


# ---------------------------------------------------------------------------
# site dispatch


class CubicalSite:
    """The cube category with both connections, as the presheaf layer acts
    through it.  factor and generators are cached: each morphism is
    factored once and each generator table is built once."""

    name = "cubical"
    identity = staticmethod(cube_identity)
    compose = staticmethod(cube_compose)
    all_morphisms = staticmethod(all_cube_morphisms)
    factor = staticmethod(cube_factor)
    generators = staticmethod(cube_generators)


class SimplicialSite:
    """The simplex category, as the presheaf layer acts through it."""

    name = "simplicial"
    identity = staticmethod(simplex_identity)
    compose = staticmethod(simplex_compose)
    all_morphisms = staticmethod(all_simplex_morphisms)
    factor = staticmethod(simplex_factor)
    generators = staticmethod(simplex_generators)


CUBICAL = CubicalSite()
SIMPLICIAL = SimplicialSite()


def site_ops(name: str):
    if name == "cubical":
        return CUBICAL
    if name == "simplicial":
        return SIMPLICIAL
    raise ValueError(f"unknown site {name!r}")
