"""Factorization sets, factorization graphs, Betti elements, and minimal
presentations.

A factorization of t is an exponent vector z with z . generators = t; all
functions here bind exponent vectors to ``S.generators`` order.  The
enumerator and the branch and bound of extreme lengths walk one recursion,
pruned by the prefix tables of :func:`_build_prefix_tables`, which nothing
else reads.  Components of factorization graphs come from one kernel,
:func:`_components`, which labels the generators of a whole batch of
elements with numpy.

The Betti search screens the Apery candidates t = w + g (w in Ap(S; g_1), g
another generator) and runs the kernel on those it keeps, a batch at a time.
The screen lemma: keeping t only when some generator h other than g has
t - h in S but w - h not drops no Betti element.  In the graph on the
available generators (h with t - h in S, adjacent when t - g - h is in S),
g is available as t - g = w is in S, and h is adjacent to g iff w - h is in
S; so a dropped t has every available generator adjacent to g, one
component.  The search caches each Betti element's labels; graphs, minimal
presentations and the verifier read them there, and run the kernel on a
batch of one at any other element.  Minimal presentations enumerate nothing:
each component's least member is the least factorization over its own
generators, found greedily by :func:`_least`, which solves its last two
generators in closed form with constants computed once per component.  The
branch and bound takes a batch of elements and builds its levels once per
sign for all of them (:func:`_extreme_lengths_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import gcd

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


def _build_prefix_tables(S: Semigroup) -> tuple[tuple[int, int, int, list[int] | None], ...]:
    """One level (position, g_i, e, tab) per reduced generator g_i, ascending:
    e and tab are the gcd of the generators below g_i and the round robin's
    table modulo the smallest, m, after their passes, as Python ints (0, None
    at level 0).  The reach rule: they reach a remainder r iff r % e == 0 and
    r >= tab[r % m].  The gcd test stays because off the multiples of e, tab
    holds the round robin's sentinel, which r can exceed.  Level 1 stores
    only [0], its class 0: its e is m itself, so r % e == 0 leaves no other
    class to read."""
    gens, order = zip(*sorted(zip(S._reduced, range(S.k))))
    passes = islice(S._round_robin(gens[0], gens), 1, S.k - 1)
    tables = [None, [0]] + [tab.tolist() for tab in passes]
    return tuple(zip(order, gens, [0, *accumulate(gens, gcd)], tables))


def factorizations(S: Semigroup, t: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors z >= 0 with z . generators = t, sorted; empty iff t is not in S.

    In reduced units, recursion assigns the largest generator first and
    skips every remainder the smaller ones cannot reach, by the reach rule
    of :func:`_build_prefix_tables`.
    """
    if t < 0 or not S.contains(t):
        return ()
    levels = S._prefix_tables
    m = levels[0][1]
    out = []
    vec = [0] * S.k

    def rec(i: int, r: int) -> None:
        # r is reachable by the i + 1 smallest generators
        pos, g, e, tab = levels[i]
        if i == 0:
            vec[pos] = r // g
            out.append(tuple(vec))
        else:
            for rest in range(r % g, r + 1, g):
                if rest % e == 0 and rest >= tab[rest % m]:
                    vec[pos] = (r - rest) // g
                    rec(i - 1, rest)
        vec[pos] = 0

    rec(S.k - 1, t // S.d)
    return tuple(sorted(out))


def _extreme_lengths(S: Semigroup, t: int, iw) -> tuple[int, int]:
    """(min, max) integer length z . iw over Z(t); t must be an element.

    The maximum is a branch and bound over the recursion of
    :func:`factorizations`: the largest generator first, remainders pruned by
    ``S._prefix_tables``; the minimum is minus the maximum under -iw.  A
    remainder rest left to the generators below g has every length at most
    rest * w_j / g_j, w_j / g_j the largest of their ratios (each count c_j
    adds c_j g_j to rest and c_j w_j to the length).  So with acc the length
    of the counts fixed so far and r the remainder before g (weight w), every
    length through rest is at most acc + (r - rest) / g * w + floor(rest *
    w_j / g_j), whose slope in rest is w_j / g_j - w / g.  The loop over rest
    walks in the direction in which this bound only falls, so it stops at the
    first rest whose bound cannot beat the best length found.

    This is the one-target case of :func:`_extreme_lengths_of`.
    """
    return _extreme_lengths_of(S, (t,), iw)[0]


def _extreme_lengths_of(S: Semigroup, ts, iw) -> list[tuple[int, int]]:
    """[(min, max) integer length z . iw over Z(t) for t in ts], in order; every
    t must be an element, else the first that is not raises ValueError before
    any search.  The branch and bound of :func:`_extreme_lengths` runs on each
    t, over levels built once for iw and once for -iw."""
    for t in ts:
        if t < 0 or not S.contains(t):
            raise ValueError(f"{t} is not an element of {S!r}")
    hi = _levels(S, iw)
    lo = _levels(S, [-v for v in iw])
    m, i, d = hi[0][0], len(hi) - 1, S.d
    return [(-_best(lo, m, i, t // d, 0, None), _best(hi, m, i, t // d, 0, None)) for t in ts]


def _levels(S: Semigroup, iw) -> list:
    """The branch and bound's levels under the integer weights iw: per
    ``S._prefix_tables`` level, (g_i, w_i, the largest ratio (w_j, g_j) among
    the generators below g_i or None at level 0, e, tab)."""
    levels, top = [], None
    for pos, g, e, tab in S._prefix_tables:
        w = iw[pos]
        levels.append((g, w, top, e, tab))
        if top is None or w * top[1] > top[0] * g:
            top = w, g
    return levels


def _best(levels, m: int, i: int, r: int, acc: int, best):
    """The larger of best (None: no length yet) and acc plus the largest
    length of r over the i + 1 smallest generators, which reach r.  Level i
    holds g_i, w_i, the largest ratio (w_j, g_j) among the generators below
    it, and their gcd and table from ``S._prefix_tables``."""
    g, w, top, e, tab = levels[i]
    if i == 0:
        length = acc + r // g * w
        return length if best is None or length > best else best
    wj, gj = top
    rests = range(r, r % g - 1, -g) if wj * g > w * gj else range(r % g, r + 1, g)
    for rest in rests:
        c = (r - rest) // g
        if best is not None and acc + c * w + rest * wj // gj <= best:
            break
        if rest % e == 0 and rest >= tab[rest % m]:
            best = _best(levels, m, i - 1, rest, acc + c * w, best)
    return best


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


# Residues per screen step of the Betti search, and candidates per kernel call,
# at most.  The screen's temporaries are k x k x BETTI_CHUNK arrays, as are the
# kernel's, and kept candidates wait in one buffer of under k BETTI_CHUNK, so a
# search holds O(BETTI_CHUNK k^2) beyond the residue table at any multiplicity.
# EX53's members <3n+1, 4n+2, 6n+4, 9n+6> at n = 100..524 (m = 301..1573) take
# 1-2 screen steps and keep 11.6-13.5% of their 3m candidates (528 of 4,557 at
# n = 506), and those of w = (1, 2, 3, 3), r = (0, 1, 4, 6) at n = 109..306
# take one and keep 28.8-30.9%: one kernel call each.
BETTI_CHUNK = 1024


def _components(tab, ts, gens):
    """Component labels of the factorization graphs of the elements ``ts``, a
    numpy array, all in reduced units: ``gens`` are the reduced generators
    and ``tab`` is ``Semigroup._residue_table``.  The dtype of ``ts`` must
    hold every t - g_i - g_j (int64 below 2**63, else object), as that of
    ``tab`` does for the Betti candidates (see its width rule).  Returns a
    k x len(ts) array: when some factorization of ts[j] uses gens[i],
    labels[i, j] is the least index of a generator used in the component
    holding it, and k otherwise.  Each component has one root, an i with
    labels[i, j] == i; t = 0 has none (one empty component).

    The components are those of the graph on the available generators, g
    with t - g in S, where g~h when t - g - h is in S: each support is a
    clique there, each available g is in some support, and an edge g~h yields
    a factorization using both.  All memberships are one test, the rule of
    :meth:`Semigroup.contains`, x >= tab[x - (x // m) m] (x mod m, also for
    x < 0), on the k x k x len(ts) array x = t - g_i - g_j, x = t - g_i on the
    diagonal, kept as a mask on the label dtype: 0 where x is in S, else k.
    Labels start at each available generator's own index, k elsewhere; a sweep
    sets label i to the least over j of max(label j, mask ij).  A neighbour
    gives its label; a non-edge gives k, never below a label; an unavailable
    generator has no edges (an edge implies both ends are available), so it
    keeps k.  After s sweeps a label is the least index within s edges.  The
    k or fewer generators of a component are joined by paths of at most k - 1
    edges, so k - 1 sweeps leave every label at its component's least index.
    """
    import numpy as np

    k, m = len(gens), len(tab)
    own = np.arange(k, dtype=np.min_scalar_type(k))
    g = np.array(gens, dtype=ts.dtype)
    pairs = g[:, None] + g
    pairs[own, own] = g
    x = ts - pairs[:, :, None]
    far = (x < tab[(x - x // m * m).astype(np.intp, copy=False)]) * own.dtype.type(k)
    labels = np.maximum(own[:, None], far[own, own])
    for _ in range(k - 1):
        labels = np.maximum(labels, far).min(axis=1)
    return labels


def _roots(labels) -> list[int]:
    """The generator indices that label their own component (one per component)."""
    return [i for i, label in enumerate(labels) if label == i]


def _component_lookup(S: Semigroup, t: int):
    """(the roots of t's components, z -> the root of the component holding
    the factorization z); t = 0 has one empty component and a t outside S
    (negative too) none, both root k.  Once the Betti search has run, a Betti
    element's labels are read from its cache; otherwise t runs the kernel on
    a batch of one, so a graph at one degree never starts the whole search."""
    labels = vars(S).get("_betti", {}).get(t)
    if labels is None:
        import numpy as np

        x, gens = t // S.d, S._reduced
        ts = np.array([x], dtype=object if abs(x) + 2 * max(gens) >= 2**63 else np.int64)
        labels = _components(S._residue_table, ts, gens)[:, 0].tolist()
    k = S.k
    return _roots(labels) or [k], lambda z: next((lab for c, lab in zip(z, labels) if c), k)


def _betti_search(S: Semigroup) -> dict[int, tuple[int, ...]]:
    """Betti elements of S mapped to their component labels (see
    :func:`betti_elements` and :func:`_components`), ascending.

    The candidates are t = w + g, w in the residue table (Ap(S; g_1) divided
    by d) and g a reduced generator other than the smallest, screened by the
    lemma in the module docstring.  Its memberships follow the rule of
    :meth:`Semigroup.contains` on one k x k array per BETTI_CHUNK residues w:
    row 0 holds w - h for every h and the row of g holds t - h = w + g - h,
    except at h = g, where it holds w - g like row 0, so that "in S in the
    row of g, not in row 0" fails there.
    Kept candidates go through the kernel BETTI_CHUNK at a time as they
    come.  A repeated candidate repeats its labels, so only the hits are
    deduplicated and sorted."""
    import numpy as np

    gens = S._reduced
    tab = S._residue_table
    m = len(tab)
    others = [g for g in gens if g != m]
    shifts = np.array(
        [(g if h != g else 0) - h for g in [0] + others for h in gens], dtype=tab.dtype
    ).reshape(S.k, S.k, 1)
    steps = np.array(others, dtype=tab.dtype)[:, None]
    own = np.arange(S.k)[:, None]
    hits = {}
    kept = tab[:0]
    for start in range(0, m, BETTI_CHUNK):
        w = tab[start:start + BETTI_CHUNK]
        x = w + shifts
        member = x >= tab[(x - x // m * m).astype(np.intp, copy=False)]
        kept = np.concatenate((kept, (w + steps)[(member[1:] > member[0]).any(axis=1)]))
        last = start + BETTI_CHUNK >= m
        while len(kept) >= BETTI_CHUNK or (last and len(kept)):
            ts, kept = kept[:BETTI_CHUNK], kept[BETTI_CHUNK:]
            labels = _components(tab, ts, gens)
            found = np.flatnonzero((labels == own).sum(axis=0) > 1)
            hits.update(zip(ts[found].tolist(), map(tuple, labels[:, found].T.tolist())))
    return {S.d * t: hits[t] for t in sorted(hits)}


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

    A screen drops candidates that cannot be Betti elements (the screen
    lemma in the module docstring), and the kernel labels the rest.

    The search runs once per instance and caches each Betti element's
    component labels on it; the multiplicities are read from those, into a
    fresh dict per call.
    """
    return {b: len(_roots(labels)) - 1 for b, labels in S._betti.items()}


def _least(gens, t: int) -> tuple[int, ...] | None:
    """The lexicographically least z >= 0 with z . gens = t, or None; see
    :func:`minimal_presentation` for the greedy and its two-generator form,
    whose constants c, (g/c)^-1 mod h/c and h/c are computed once a call."""
    if len(gens) == 1:
        g = gens[0]
        return None if t % g else (t // g,)
    *head, g, h = gens
    c = gcd(g, h)
    hc = h // c
    inv = pow(g // c, -1, hc)

    def pair(r: int) -> tuple[int, int] | None:
        if r % c:
            return None
        x = r // c * inv % hc
        return (x, (r - x * g) // h) if x * g <= r else None

    return _least_over(head, 0, t, pair)


def _least_over(head, i: int, r: int, pair):
    """The least counts of head[i:] that leave a remainder ``pair`` solves,
    followed by its two counts, or None.  A module function, not a closure
    that calls itself: such a closure is a reference cycle per call, which
    only the garbage collector frees."""
    if i == len(head):
        return pair(r)
    f = head[i]
    for x in range(r // f + 1):
        tail = _least_over(head, i + 1, r - x * f, pair)
        if tail is not None:
            return (x, *tail)
    return None


def minimal_presentation(S: Semigroup) -> tuple[Relation, ...]:
    """A canonical minimal presentation: one relation per extra component of
    each Betti element.

    Tie-break: within each Betti element the component holding the overall
    lexicographically least factorization is the base; every other component
    contributes (its lex-least member, base's lex-least member).  Minimal
    presentations are not unique, so the canonical choice keeps output stable.

    No factorization set is enumerated.  The Betti search caches each Betti
    element's component labels (see :func:`_components`), and a component's
    factorizations are exactly the factorizations of beta over its own
    generators.  A factorization's support is a clique of available
    generators, so it lies in one component; one using only the component's
    generators has a non-empty support inside it, so it lies in that one.
    Its lex-least member is then a greedy over those generators in position
    order (:func:`_least`): at each, the least count that leaves a remainder
    the later ones still reach.  With two left, g and h with c = gcd(g, h),
    the remainders t - x g that h divides are those with x congruent to
    (t/c)(g/c)^-1 mod h/c, so the least count is that residue x, feasible iff
    c | t and x g <= t; with more, each try recurses, and this closed form
    ends the recursion.  Every try ends at the same last pair, so its
    constants c, (g/c)^-1 mod h/c and h/c are computed once per component.
    One pass over the labels groups each component's positions (label k
    marks an unavailable generator), and its counts are written into a
    k-list at those positions.
    """
    rels = []
    gens = S.generators
    k = S.k
    for beta, labels in S._betti.items():
        comps: dict[int, list[int]] = {}
        for i, label in enumerate(labels):
            if label < k:
                comps.setdefault(label, []).append(i)
        least = []
        for pos in comps.values():
            z = [0] * k
            for i, count in zip(pos, _least([gens[i] for i in pos], beta)):
                z[i] = count
            least.append(tuple(z))
        base, *others = sorted(least)
        rels.extend(Relation(z, base, beta) for z in others)
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

    # a side balancing at beta factors it iff no entry is negative, so at a
    # non-element every relation fails that test (and beta has root k alone)
    for beta, rels in sorted(by_degree.items()):
        roots, component = _component_lookup(S, beta)
        label = dict(zip(roots, roots))
        for rel in rels:
            if min(rel.left + rel.right) < 0:
                problems.append(f"relation {rel} uses a vector that does not factor {beta}")
                continue
            a, b = label[component(rel.left)], label[component(rel.right)]
            if a == b:
                problems.append(f"relation {rel} is redundant (same component of degree {beta})")
            else:
                label = {r: a if x == b else x for r, x in label.items()}
        n = len(roots)
        merges = n - len(set(label.values()))
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
