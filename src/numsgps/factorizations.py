"""Factorization sets, factorization graphs, Betti elements, and minimal
presentations.

A factorization of t is an exponent vector z with z . generators = t; all
functions here bind exponent vectors to ``S.generators`` order.  Components of
factorization graphs come from one kernel, :func:`_components`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semigroup import Semigroup


@dataclass(frozen=True, slots=True)
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


def factorizations(S: Semigroup, t: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors z >= 0 with z . generators = t, sorted; empty iff t is not in S.

    In reduced units, recursion assigns the largest generator first and prunes
    a remainder r the smaller ones cannot reach: with e their gcd and tab their
    table in ``S._prefix_tables`` (modulo the smallest, m), they reach r iff
    r % e == 0 and r >= tab[r % m]; off the multiples of e, tab is the sentinel.
    """
    if t < 0 or not S.contains(t):
        return ()
    passes = S._prefix_tables
    m = passes[0][1]
    out = []
    vec = [0] * S.k

    def rec(i: int, r: int) -> None:
        # r is reachable by the i + 1 smallest generators
        pos, g, _, _ = passes[i]
        if i == 0:
            vec[pos] = r // g
            out.append(tuple(vec))
        else:
            _, _, e, tab = passes[i - 1]
            for rest in range(r % g, r + 1, g):
                if rest % e == 0 and rest >= tab[rest % m]:
                    vec[pos] = (r - rest) // g
                    rec(i - 1, rest)
        vec[pos] = 0

    rec(S.k - 1, t // S.d)
    return tuple(sorted(out))


def factorization_graph(S: Semigroup, t: int) -> FactorizationGraphSummary:
    """Connected components of the shared-generator graph on Z(t): each
    factorization joins the component of its support (see :func:`_components`),
    and Z(t) is sorted, so first-appearance order is the documented order."""
    zs = factorizations(S, t)
    if not zs:
        raise ValueError(f"{t} is not an element of {S!r}")
    _, component = _component_lookup(S, t)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for z in zs:
        groups.setdefault(component(z), []).append(z)
    return FactorizationGraphSummary(t, tuple(tuple(g) for g in groups.values()))


def _components(S: Semigroup, t: int, gens) -> tuple[list[int], ...]:
    """Components of the factorization graph of an element of S, as lists of
    the generators their factorizations use, all in reduced units: t and
    ``gens`` divided by d (t = 0: one empty component).  The order of the
    components, and of the generators within one, is unspecified.

    They are the components of the graph on the available generators, g with
    t - g in S, where g~h when t - g - h is in S: each support is a clique
    there, each available g is in some support, and an edge g~h yields a
    factorization using both.  The graph grows one available generator at a
    time; adding a vertex merges exactly the components that hold one of its
    neighbours, so g absorbs each component with some h adjacent to it and
    the others stay.  Every membership test is one lookup in the residue
    table, by the rule stated in :meth:`Semigroup.contains`.
    """
    # explicit loops, no comprehensions: tab and m would become closure cells,
    # slowing every lookup below
    tab = S._residue_table
    m = len(tab)
    comps = []
    for g in gens:
        rest = t - g
        if rest < tab[rest % m]:
            continue
        grown = [g]
        kept = []
        for comp in comps:
            for h in comp:
                x = rest - h
                if x >= tab[x % m]:
                    grown = comp + grown
                    break
            else:
                kept.append(comp)
        kept.append(grown)
        comps = kept
    return tuple(comps) or ([],)


def _component_lookup(S: Semigroup, t: int):
    """(number of components of t, z -> index of the component holding the
    factorization z): that of any generator in its support, 0 for z = 0."""
    red = S._reduced
    comps = _components(S, t // S.d, sorted(red))
    where = {g: i for i, comp in enumerate(comps) for g in comp}
    return len(comps), lambda z: next((where[g] for c, g in zip(z, red) if c), 0)


def _betti_search(S: Semigroup) -> dict[int, int]:
    """Betti elements of S by component counts over the Apery candidates
    (see :func:`betti_elements`), in reduced units: Ap(S; g_1) divided by d is
    the residue table itself."""
    gens = sorted(S._reduced)
    others = gens[1:]
    candidates = sorted({w + g for w in S._residue_table for g in others})
    d = S.d
    out: dict[int, int] = {}
    for t in candidates:
        comps = len(_components(S, t, gens))
        if comps > 1:
            out[d * t] = comps - 1
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
    graph into a spanning tree.  Each degree keeps one label per component:
    a relation whose sides carry the same label is redundant, and otherwise
    every component with one side's label takes the other's.
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

    # a side balancing at beta factors it iff no entry is negative
    for beta, rels in sorted(by_degree.items()):
        if not S.contains(beta):
            raise ValueError(f"{beta} is not an element of {S!r}")
        n, component = _component_lookup(S, beta)
        label = list(range(n))
        for rel in rels:
            if min(rel.left + rel.right) < 0:
                problems.append(f"relation {rel} uses a vector that does not factor {beta}")
                continue
            a, b = label[component(rel.left)], label[component(rel.right)]
            if a == b:
                problems.append(f"relation {rel} is redundant (same component of degree {beta})")
            else:
                label = [a if x == b else x for x in label]
        merges = n - len(set(label))
        if merges != n - 1:
            problems.append(
                f"relations of degree {beta} merge {merges} of {n - 1} needed components"
            )
    return problems


def connects_under_relations(S: Semigroup, relations, t: int) -> bool:
    """True iff the relations, closed under translation, chain together every
    pair of factorizations of t (the defining property of a presentation).

    A search from one factorization of t applies each relation in both
    directions, z -> z - left + right and z -> z - right + left, skipping a
    move where z - side has a negative entry, and must reach all of Z(t); a t
    outside S has no pair to chain.
    """
    unseen = set(factorizations(S, t))
    todo = [unseen.pop()] if unseen else []
    moves = [(r.left, r.right) for r in relations] + [(r.right, r.left) for r in relations]
    while todo:
        z = todo.pop()
        for a, b in moves:
            if all(x >= y for x, y in zip(z, a)):
                w = tuple(x - y + c for x, y, c in zip(z, a, b))
                if w in unseen:
                    unseen.remove(w)
                    todo.append(w)
    return not unseen
