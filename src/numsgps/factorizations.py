"""Factorization sets, length/delta sets, factorization graphs, Betti elements,
and minimal presentations.

A factorization of t is an exponent vector z with z . generators = t; all
functions here bind exponent vectors to ``S.generators`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semigroup import Semigroup


@dataclass(frozen=True)
class Relation:
    """A pair of factorizations of the same element (the relation's degree)."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    degree: int

    def as_pair(self) -> frozenset:
        return frozenset((self.left, self.right))


@dataclass(frozen=True)
class FactorizationGraphSummary:
    """Partition of Z(element) into connected components.

    Two factorizations are adjacent when they share a generator (some common
    coordinate is positive in both).  Components are sorted by their
    lexicographically least member, members sorted lexicographically.
    """

    element: int
    components: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    @property
    def multiplicity(self) -> int:
        """Number of components minus one (a Betti element's relation count)."""
        return len(self.components) - 1


class _Forest:
    """Union-find over 0..n-1 with path halving; ``count`` is the number of
    components."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the components of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.count -= 1
        return True


def factorizations(S: Semigroup, t: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors z >= 0 with z . generators = t, sorted; empty iff t is not in S.

    Recursion assigns the largest generator first with quotient bounds, and
    prunes any remainder that the suffix of smaller generators cannot reach.
    """
    if t < 0 or not S.contains(t):
        return ()
    order, suffixes = S._descending_suffixes
    gens = S.generators
    k = S.k
    out = []
    vec = [0] * k

    def rec(j: int, remaining: int) -> None:
        pos = order[j]
        g = gens[pos]
        if j == k - 1:
            if remaining % g == 0:
                vec[pos] = remaining // g
                out.append(tuple(vec))
                vec[pos] = 0
            return
        nxt = suffixes[j + 1]
        for c in range(remaining // g, -1, -1):
            rem = remaining - c * g
            if nxt.contains(rem):
                vec[pos] = c
                rec(j + 1, rem)
        vec[pos] = 0

    rec(0, t)
    return tuple(sorted(out))


def length_set(S: Semigroup, t: int) -> tuple[int, ...]:
    """Sorted set of factorization lengths of t (t must be an element)."""
    zs = factorizations(S, t)
    if not zs:
        raise ValueError(f"{t} is not an element of {S!r}")
    return tuple(sorted({sum(z) for z in zs}))


def delta_of_element(S: Semigroup, t: int) -> tuple[int, ...]:
    """Set of successive gaps of the length set of t, sorted."""
    ls = length_set(S, t)
    return tuple(sorted({b - a for a, b in zip(ls, ls[1:])}))


def max_min_length(S: Semigroup, t: int) -> tuple[int, int]:
    """(max, min) factorization length of t."""
    ls = length_set(S, t)
    return ls[-1], ls[0]


def factorization_graph(S: Semigroup, t: int) -> FactorizationGraphSummary:
    """Connected components of the shared-generator graph on Z(t)."""
    zs = factorizations(S, t)
    if not zs:
        raise ValueError(f"{t} is not an element of {S!r}")
    forest = _Forest(len(zs))
    # all factorizations with a positive i-th coordinate are mutually adjacent,
    # so union them in one chain per coordinate
    for i in range(S.k):
        first = None
        for idx, z in enumerate(zs):
            if z[i] > 0:
                if first is None:
                    first = idx
                else:
                    forest.union(first, idx)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for idx, z in enumerate(zs):
        groups.setdefault(forest.find(idx), []).append(z)
    comps = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0])
    return FactorizationGraphSummary(t, tuple(comps))


def _component_count(S: Semigroup, t: int, gens) -> int:
    """Number of connected components of the factorization graph of t.

    Works on the graph over available generators instead: vertices are the
    generators g with t - g in S, edges where t - g - h is in S.  This graph
    has the same component count as the factorization graph: each
    factorization's support is a clique of available generators, every
    available generator occurs in some factorization, and an edge g~h yields a
    factorization using both g and h, so supports connect exactly when the
    factorizations do.
    """
    member = S.contains
    avail = [g for g in gens if member(t - g)]
    n = len(avail)
    if n <= 1:
        return 1
    g0 = avail[0]
    if all(member(t - g0 - u) for u in avail[1:]):
        return 1  # star through the smallest available generator
    forest = _Forest(n)
    for i in range(n):
        for j in range(i + 1, n):
            if member(t - avail[i] - avail[j]):
                forest.union(i, j)
    return forest.count


def _betti_search(S: Semigroup) -> dict[int, int]:
    """Betti elements of S by component counts over the Apery candidates
    (see :func:`betti_elements`)."""
    gens = sorted(S.generators)
    g1, others = gens[0], gens[1:]
    apery = S.apery_set(g1).elements
    candidates = sorted({w + g for w in apery for g in others})
    out: dict[int, int] = {}
    for t in candidates:
        comps = _component_count(S, t, gens)
        if comps > 1:
            out[t] = comps - 1
    return out


def betti_elements(S: Semigroup) -> dict[int, int]:
    """All elements with disconnected factorization graph, mapped to
    (number of components - 1), ascending.

    Only the candidates w + g_i are examined, with w in Ap(S; g_1), g_1 the
    smallest generator and g_i any other generator: at most (g_1/d)(k-1) of
    them.  They cover every Betti element b.  A disconnected graph has a
    component that does not use g_1, since all factorizations using g_1 are
    mutually adjacent.  Take a factorization z in that component and a
    generator g_i in its support.  If b - g_i - g_1 were in S, a factorization
    using both g_i and g_1 would join z to the g_1 component; so b - g_i is in
    Ap(S; g_1).

    The result is computed once per instance and cached on it; each call
    returns a fresh dict.
    """
    return dict(S._betti)


def minimal_presentation(S: Semigroup) -> tuple[Relation, ...]:
    """A canonical minimal presentation: one relation per extra component of
    each Betti element.

    Tie-break: within each Betti element the component holding the overall
    lexicographically least factorization is the base; every other component
    contributes (its lex-least member, base's lex-least member).  Minimal
    presentations are not unique, so the canonical choice keeps output stable.
    """
    rels = []
    for beta in betti_elements(S):
        comps = factorization_graph(S, beta).components
        base = comps[0][0]
        for comp in comps[1:]:
            rels.append(Relation(comp[0], base, beta))
    return tuple(rels)


def verify_minimal_presentation(S: Semigroup, relations) -> list[str]:
    """Check that ``relations`` is a minimal presentation of S; return the
    list of problems (empty means valid).

    A relation set is a minimal presentation iff its degree multiset matches
    the Betti elements with multiplicity and, for each Betti element, the
    relations of that degree join distinct components of its factorization
    graph into a spanning tree.
    """
    problems = []
    gens = S.generators
    by_degree: dict[int, list[Relation]] = {}
    for rel in relations:
        if len(rel.left) != S.k or len(rel.right) != S.k:
            problems.append(f"relation {rel} has wrong arity")
            continue
        dl = sum(c * g for c, g in zip(rel.left, gens))
        dr = sum(c * g for c, g in zip(rel.right, gens))
        if dl != dr or dl != rel.degree:
            problems.append(f"relation {rel} sides factor {dl} and {dr}, degree says {rel.degree}")
            continue
        by_degree.setdefault(rel.degree, []).append(rel)
    if problems:
        return problems

    betti = betti_elements(S)
    want = sorted(b for b, m in betti.items() for _ in range(m))
    got = sorted(r.degree for r in relations)
    if want != got:
        problems.append(f"degree multiset {got} != Betti elements with multiplicity {want}")

    for beta, rels in sorted(by_degree.items()):
        comps = factorization_graph(S, beta).components
        where = {z: i for i, comp in enumerate(comps) for z in comp}
        forest = _Forest(len(comps))
        for rel in rels:
            if rel.left not in where or rel.right not in where:
                problems.append(f"relation {rel} uses a vector that does not factor {beta}")
            elif not forest.union(where[rel.left], where[rel.right]):
                problems.append(f"relation {rel} is redundant (same component of degree {beta})")
        merges = len(comps) - forest.count
        if merges != len(comps) - 1:
            problems.append(
                f"relations of degree {beta} merge {merges} of {len(comps) - 1} needed components"
            )
    return problems


def connects_under_relations(S: Semigroup, relations, t: int) -> bool:
    """True iff the relations, closed under translation, chain together every
    pair of factorizations of t (the defining property of a presentation)."""
    zs = factorizations(S, t)
    if len(zs) <= 1:
        return True
    index = {z: i for i, z in enumerate(zs)}
    forest = _Forest(len(zs))
    pairs = []
    for rel in relations:
        pairs.append((rel.left, rel.right))
        pairs.append((rel.right, rel.left))
    for z in zs:
        zi = index[z]
        for a, b in pairs:
            u = tuple(x - y for x, y in zip(z, a))
            if any(c < 0 for c in u):
                continue
            other = tuple(x + y for x, y in zip(u, b))
            oi = index.get(other)
            if oi is not None:
                forest.union(zi, oi)
    return forest.count == 1


def delta_set_up_to(S: Semigroup, bound: int) -> tuple[int, ...]:
    """Union of the delta sets of all elements <= bound (brute force)."""
    out = set()
    for t in S.elements_up_to(bound):
        ls = length_set(S, t)
        out.update(b - a for a, b in zip(ls, ls[1:]))
    return tuple(sorted(out))
