"""Shared brute-force oracles for the test suite, and the acceptance lines
that ``conftest.py`` prints in the terminal summary.

These are deliberately coded with different algorithms than the library
(bottom-up set DP instead of pruned recursion, direct gap scans instead of
residue tables) so agreement is meaningful.  Test modules import them with
``from oracles import ...``: a plain module name, unlike ``conftest``, which
every test directory may have.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

ACCEPTANCE_LINES: list[str] = []


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def brute_factorization_table(gens, bound):
    """table[t] = set of exponent tuples factoring t, for all 0 <= t <= bound,
    built bottom-up (independent of the library's recursive enumerator)."""
    k = len(gens)
    table = [set() for _ in range(bound + 1)]
    table[0].add((0,) * k)
    for t in range(1, bound + 1):
        acc = table[t]
        for i, g in enumerate(gens):
            if t >= g:
                for z in table[t - g]:
                    acc.add(z[:i] + (z[i] + 1,) + z[i + 1:])
    return table


def brute_betti_elements(gens):
    """Betti elements by scanning every element up to the Betti bound
    F + g_1 + g_k, with component counts taken from brute_components over
    brute_factorization_table, ascending.

    Also asserts that the window (bound, bound + g_k] holds no disconnected
    element.
    """
    d = gcd(*gens)
    reduced = [g // d for g in gens]
    # the reduced semigroup has gcd 1, so its Frobenius number is below
    # min * max (Schur's bound)
    top = min(reduced) * max(reduced)
    members = brute_members(reduced, top)
    frobenius = d * max((t for t in range(top) if t not in members), default=-1)
    bound = frobenius + min(gens) + max(gens)
    table = brute_factorization_table(gens, bound + max(gens))
    out = {}
    for t in range(1, len(table)):
        comps = brute_components(table[t])
        if len(comps) > 1:
            assert t <= bound, f"disconnected element {t} beyond the Betti bound {bound} of {gens}"
            out[t] = len(comps) - 1
    return out


def brute_components(zs):
    """Components of the factorization graph on the factorizations zs (two
    are adjacent when their supports meet), found by merging supports: each
    component sorted, the components ordered by their least member."""
    comps = []  # (merged support, members), one per component so far
    for z in zs:
        support = {i for i, c in enumerate(z) if c}
        members = [z]
        for comp in [c for c in comps if c[0] & support]:
            support |= comp[0]
            members += comp[1]
            comps.remove(comp)
        comps.append((support, members))
    return tuple(sorted((tuple(sorted(m)) for _, m in comps), key=lambda c: c[0]))


def brute_component_labels(gens, t, member):
    """The component kernel's labels for t, from the available-generator
    graph: g_i is available when t - g_i is in S, and g_i ~ g_j when
    t - g_i - g_j is; member(x) decides x in S.  A search from each available
    generator in index order gives its component that (least) index, and an
    unavailable generator keeps k."""
    k = len(gens)
    avail = [i for i in range(k) if member(t - gens[i])]
    labels = [k] * k
    for root in avail:
        if labels[root] == k:
            labels[root] = root
            todo = [root]
            while todo:
                i = todo.pop()
                for j in avail:
                    if labels[j] == k and member(t - gens[i] - gens[j]):
                        labels[j] = root
                        todo.append(j)
    return labels


def brute_member(gens, x):
    """Whether x is a sum of gens, by trying every count of each generator but
    the first and testing what is left against the first.  Exact at any width;
    it takes about prod(x / g + 1) steps over gens[1:], so it suits an x that
    is a small multiple of those (generators past 2**64 over a small first)."""
    first, *rest = gens
    if x < 0 or not rest:
        return x >= 0 and x % first == 0
    return any(brute_member([first, *rest[1:]], x - c * rest[0]) for c in range(x // rest[0] + 1))


def brute_least(gens, t):
    """The lexicographically least z >= 0 with z . gens = t, or None.  Nested
    ranges try every count of each generator but the last, first coordinate
    outermost and each ascending, so the first tuple whose remainder the last
    generator divides is the least; no modular inverse, unlike the library's
    greedy."""
    *head, last = gens

    def counts(i, r):
        if i == len(head):
            yield ()
            return
        for c in range(r // head[i] + 1):
            for tail in counts(i + 1, r - c * head[i]):
                yield (c, *tail)

    for z in counts(0, t):
        rest = t - sum(c * g for c, g in zip(z, head))
        if rest % last == 0:
            return (*z, rest // last)
    return None


def brute_members(gens, bound):
    """Set of representable integers <= bound via plain reachability DP."""
    reach = [False] * (bound + 1)
    reach[0] = True
    for t in range(1, bound + 1):
        reach[t] = any(t >= g and reach[t - g] for g in gens)
    return {t for t in range(bound + 1) if reach[t]}


def brute_length_sets(gens, bound):
    """length_sets[t] = set of factorization lengths of t (bottom-up DP)."""
    table = [set() for _ in range(bound + 1)]
    table[0].add(0)
    for t in range(1, bound + 1):
        for g in gens:
            if t >= g:
                table[t].update(x + 1 for x in table[t - g])
    return table


def brute_weighted_length_sets(gens, w, bound):
    """Weighted variant of brute_length_sets; values are Fractions."""
    ws = [Fraction(x) for x in w]
    table = [set() for _ in range(bound + 1)]
    table[0].add(Fraction(0))
    for t in range(1, bound + 1):
        for g, wi in zip(gens, ws):
            if t >= g:
                table[t].update(x + wi for x in table[t - g])
    return table


def brute_pseudo_frobenius(gens, frobenius):
    """Pseudo-Frobenius numbers by direct definition over all gaps.

    m + s lands in S for every positive element s iff it does for every
    generator (any positive element is a sum of generators)."""
    members = brute_members(gens, frobenius + max(gens) + 1)
    return [
        m
        for m in range(0, frobenius + 1)
        if m not in members and all((m + g) in members for g in gens)
    ]


def random_generators(rng: random.Random, max_k=4, lo=3, hi=20):
    k = rng.randint(2, max_k)
    gens = sorted(rng.sample(range(lo, hi + 1), k))
    return tuple(gens)


def random_weights(rng: random.Random, k, allow_negative=True):
    lo = -5 if allow_negative else 0
    return tuple(
        Fraction(rng.randint(lo, 6), rng.randint(1, 4)) for _ in range(k)
    )


def loop_apery_table(gens, m):
    """The Apery table modulo m (an element of the gcd-1 semigroup of gens)
    by the plain per-residue round robin, in Python ints: each generator a
    walks every cycle r -> r + a (mod m) from its least entry, carrying v + a
    while it beats the entry it lands on.  The reference the vectorized
    kernel must equal entry for entry, at any integer width."""
    tab = [0] + [None] * (m - 1)
    for a in gens:
        cycles = gcd(a, m)
        for start in range(cycles):
            cycle = [r for r in range(start, m, cycles) if tab[r] is not None]
            if not cycle:
                continue
            r = min(cycle, key=lambda r: tab[r])
            v = tab[r]
            for _ in range(m // cycles - 1):
                r = (r + a) % m
                v += a
                if tab[r] is None or v < tab[r]:
                    tab[r] = v
                else:
                    v = tab[r]
    return tab


def loop_round_robin(gens, m):
    """The tables of the round robin modulo m after each prefix of gens, by
    loop_apery_table, with the classes a prefix leaves unreached at the
    kernel's sentinel m * max(gens)."""
    big = m * max(gens)
    return [
        [big if v is None else v for v in loop_apery_table(gens[:i], m)]
        for i in range(1, len(gens) + 1)
    ]


def _solve_anchor(pts):
    """Monomial coefficients (ascending) of the polynomial through pts, by
    Gauss-Jordan elimination on the Vandermonde system in Fractions."""
    size = len(pts)
    rows = [[Fraction(n) ** j for j in range(size)] + [Fraction(v)] for n, v in pts]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def _lagrange(pts, n):
    """The polynomial through pts at n, by Lagrange's formula in Fractions."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(pts):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(pts):
            if j != i:
                term *= Fraction(n - xj, xi - xj)
        total += term
    return total


def _reference_classes(samples, period, degree):
    classes = {}
    for n, v in samples.items():
        classes.setdefault(n % period, []).append((n, Fraction(v)))
    if not classes or any(len(pts) < degree + 2 for pts in classes.values()):
        raise ValueError("a residue class is short of samples")
    return {s: sorted(pts) for s, pts in classes.items()}


def _reference_largest_miss(pts, degree):
    anchor = pts[-(degree + 1):]
    misses = [n for n, v in pts[:-(degree + 1)] if _lagrange(anchor, n) != v]
    return max(misses, default=None)


def reference_fit(samples, period, degree):
    """fit's answer in plain data, Fractions only: ("fit", period, degree,
    coeffs, n_min) with coeffs as in QuasiPolynomial, or ("mismatch", n,
    samples left above n).  Each class is anchored on its newest degree + 1
    samples by a Vandermonde solve, and the older samples are checked by
    Lagrange evaluation through the anchors; raises ValueError when a class
    has fewer than degree + 2 samples."""
    columns, thresholds = {}, []
    for s, pts in sorted(_reference_classes(samples, period, degree).items()):
        bad = _reference_largest_miss(pts, degree)
        good = [n for n, _ in pts if bad is None or n > bad]
        if len(good) < degree + 2:
            return ("mismatch", bad, len(good))
        thresholds.append(good[0])
        columns[s] = _solve_anchor(pts[-(degree + 1):])
    coeffs = [
        tuple(columns[s][j] if s in columns else None for s in range(period))
        for j in range(degree + 1)
    ]
    while len(coeffs) > 1 and all(c == 0 for c in coeffs[-1] if c is not None):
        coeffs.pop()
    return ("fit", period, len(coeffs) - 1, tuple(coeffs), max(thresholds))


def reference_detect(samples, max_period, max_degree):
    """detect's answer by the same scan, degree-major, over
    _reference_largest_miss; raises ValueError like reference_fit."""
    for degree in range(max_degree + 1):
        for period in range(1, max_period + 1):
            classes = _reference_classes(samples, period, degree)
            if all(_reference_largest_miss(pts, degree) is None for pts in classes.values()):
                return period, degree
    return None
