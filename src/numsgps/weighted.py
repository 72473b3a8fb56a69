"""Factorization lengths, weighted and unweighted, w-orderings, (weighted)
delta sets, and the quasilinear recurrences of the extreme weighted length
functions.

Ordinary length is the weighted length for w = (1, ..., 1).  Weights are
exact rationals, scaled once to integers over their common denominator; the
length code works on those integers and divides by the denominator only at
the API edge.  Weighted results are Fractions, unweighted ones ints.  All
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import groupby
from math import gcd, lcm

from .factorizations import _extreme_lengths, betti_elements, factorizations
from .semigroup import Semigroup

# Most elements (bound + 1) ``weighted_delta_profile`` accepts, checked before
# it allocates.  It holds only the masks of the last max(gens) elements, the
# ones the next element reads, so unit weights on <6, 9, 20> at the budget
# hold 20 masks of at most about 17,000 bits (about 40 KB).  The result is
# larger: elements with equal gap sets share one row, so unit weights on
# <6, 9, 20> up to 5000 keep 293 KB, 60 bytes an entry (tracemalloc).
DELTA_PROFILE_BUDGET = 10**5
# Most bits the widest of those masks may need, depth * (max(iw, 0) - min(iw, 0))
# for at most depth generators per factorization, checked before allocating.
# Unit weights never exceed it (depth <= bound + 1), so at both budgets the
# held masks hold at most about 10**10 / 2 bits (0.6 GB), and only when
# max(gens) is near the bound and the weights fill the mask budget.
DELTA_MASK_BUDGET = 10**5
# Most entries (limit + 1) of the extreme length tables, checked before they
# are allocated.  Peak tracemalloc on <6, 9, 20>, w = (3, 1, 4), at 4 * 10**5:
# about 215 bytes an entry for the int dicts of ``verify_weighted_recurrences``
# and 377 for ``weighted_extreme_tables``, whose Fraction lists sit beside
# them, so 0.38 GB at the budget.
EXTREME_TABLE_BUDGET = 10**6


def rational_gcd(values) -> Fraction:
    """gcd of exact rationals: clear to the common denominator, gcd the
    numerators.  Zeros are ignored; gcd of nothing is 0."""
    vals = [abs(Fraction(v)) for v in values if v]
    if not vals:
        return Fraction(0)
    den = reduce(lcm, (v.denominator for v in vals))
    num = reduce(gcd, (v.numerator * (den // v.denominator) for v in vals))
    return Fraction(num, den)


def _scaled(S: Semigroup, w) -> tuple[tuple[Fraction, ...], list[int], int]:
    """(ws, iw, den): the weights as Fractions, and as integers iw = ws * den
    over their least common denominator den."""
    ws = tuple(Fraction(x) for x in w)
    if len(ws) != S.k:
        raise ValueError(f"{len(ws)} weights for {S.k} generators")
    den = reduce(lcm, (x.denominator for x in ws), 1)
    return ws, [x.numerator * (den // x.denominator) for x in ws], den


def _lengths(S: Semigroup, t: int, iw) -> list[int]:
    """Sorted distinct integer lengths z . iw over Z(t); t must be an element."""
    zs = factorizations(S, t)
    if not zs:
        raise ValueError(f"{t} is not an element of {S!r}")
    return sorted({sum(c * x for c, x in zip(z, iw)) for z in zs})


def _gaps(ls) -> list:
    """Sorted set of successive differences of a sorted sequence."""
    return sorted({b - a for a, b in zip(ls, ls[1:])})


def weighted_length(z, w) -> Fraction:
    """Dot product of an exponent vector with a weight vector, exact."""
    if len(z) != len(w):
        raise ValueError(f"dimension mismatch: {len(z)} exponents, {len(w)} weights")
    return sum((Fraction(wi) * zi for wi, zi in zip(w, z)), Fraction(0))


@dataclass(frozen=True)
class WOrdering:
    """Generator indices partitioned into tie-blocks, earlier blocks having
    larger w_i / g_i (ties share a block, listed by ascending generator)."""

    weights: tuple[Fraction, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(i for block in self.blocks for i in block)

    @property
    def first(self) -> int:
        """Index driving the max-length recurrence (largest ratio)."""
        return self.blocks[0][0]

    @property
    def last(self) -> int:
        """Index driving the min-length recurrence (smallest ratio)."""
        return self.blocks[-1][0]


def w_ordering(S: Semigroup, w) -> WOrdering:
    """Order generator indices by descending w_i / g_i, grouping ties."""
    ws, _, _ = _scaled(S, w)
    gens = S.generators
    ratio = lambda i: Fraction(ws[i], gens[i])
    idx = sorted(range(S.k), key=lambda i: (-ratio(i), gens[i]))
    return WOrdering(ws, tuple(tuple(block) for _, block in groupby(idx, key=ratio)))


def weighted_length_set(S: Semigroup, t: int, w) -> tuple[Fraction, ...]:
    """Sorted set of weighted lengths over Z(t); t must be an element."""
    _, iw, den = _scaled(S, w)
    return tuple(Fraction(v, den) for v in _lengths(S, t, iw))


def weighted_extremes(S: Semigroup, t: int, w) -> tuple[Fraction, Fraction]:
    """(max, min) weighted length of t."""
    _, iw, den = _scaled(S, w)
    lo, hi = _extreme_lengths(S, t, iw)
    return Fraction(hi, den), Fraction(lo, den)


def delta_w_of_element(S: Semigroup, t: int, w) -> tuple[Fraction, ...]:
    """Set of successive gaps of the weighted length set of t, sorted."""
    _, iw, den = _scaled(S, w)
    return tuple(Fraction(g, den) for g in _gaps(_lengths(S, t, iw)))


def length_set(S: Semigroup, t: int) -> tuple[int, ...]:
    """Sorted set of factorization lengths of t (t must be an element)."""
    return tuple(_lengths(S, t, [1] * S.k))


def delta_of_element(S: Semigroup, t: int) -> tuple[int, ...]:
    """Set of successive gaps of the length set of t, sorted."""
    return tuple(_gaps(_lengths(S, t, [1] * S.k)))


def max_min_length(S: Semigroup, t: int) -> tuple[int, int]:
    """(max, min) factorization length of t."""
    lo, hi = _extreme_lengths(S, t, [1] * S.k)
    return hi, lo


def min_delta_w(S: Semigroup, w) -> Fraction:
    """Minimum of the weighted delta set via the pairwise gcd formula;
    0 encodes an empty weighted delta set.

    gcd over pairs of |w_i g_j - w_j g_i| with the generators divided by their
    gcd first: scaling generators leaves every factorization (hence every
    weighted length set) unchanged, so the formula must be evaluated on the
    gcd-1 tuple.  Evaluated on the integer weights, then divided by their
    denominator.
    """
    _, iw, den = _scaled(S, w)
    red = S._reduced
    return Fraction(
        gcd(*(iw[i] * red[j] - iw[j] * red[i] for i in range(S.k) for j in range(i + 1, S.k))),
        den,
    )


def max_delta_w(S: Semigroup, w):
    """Maximum of the weighted delta set: largest gap over the Betti elements.
    None when the weighted delta set is empty."""
    ws, iw, den = _scaled(S, w)
    if min_delta_w(S, ws) == 0:
        return None
    gaps = [g for beta in betti_elements(S) for g in _gaps(_lengths(S, beta, iw))]
    if not gaps:
        raise RuntimeError("nonzero minimum delta but no gap at any Betti element")
    return Fraction(max(gaps), den)


def _check_extremes_budget(limit: int) -> None:
    """Raise before tables up to limit are allocated over the budget."""
    if limit + 1 > EXTREME_TABLE_BUDGET:
        raise ValueError(
            f"extreme length tables up to {limit} are over the budget of "
            f"{EXTREME_TABLE_BUDGET} entries"
        )


def _extremes(S: Semigroup, iw, elements) -> tuple[dict, dict]:
    """Dicts of the max and min integer length z . iw of each of
    ``elements``, ascending, whose members in S form an order ideal of S: 0
    and, with each e, every e - s for s in S.  The multiples of d up to a
    limit are one; an Apery set is another, as e - s - m in S would put
    e - m in S.

    Every factorization of an e > 0 in S uses some generator g and leaves
    e - g in S, so among the members; so Z(e) is the union of Z(e - g) + e_g
    over the generators g with e - g a member, and hi[e] = max_g hi[e - g] +
    w_g (lo likewise with min) over the members alone is exact.  An element
    outside S gets no entry; 0 always has one.  The caller checks
    :func:`_check_extremes_budget` first."""
    hi, lo = {0: 0}, {0: 0}
    steps = list(zip(S.generators, iw))
    for e in elements:
        best_hi = best_lo = None
        for g, wi in steps:
            prev = hi.get(e - g)
            if prev is not None:
                cand = prev + wi
                if best_hi is None or cand > best_hi:
                    best_hi = cand
                cand = lo[e - g] + wi
                if best_lo is None or cand < best_lo:
                    best_lo = cand
        if best_hi is not None:
            hi[e] = best_hi
            lo[e] = best_lo
    return hi, lo


def weighted_extreme_tables(S: Semigroup, w, limit: int):
    """DP tables of the max and min weighted length for every element
    0..limit; None at non-elements.  Returns (max_table, min_table)."""
    _, iw, den = _scaled(S, w)
    _check_extremes_budget(limit)
    hi, lo = _extremes(S, iw, range(S.d, limit + 1, S.d))
    conv = lambda v: None if v is None else Fraction(v, den)
    span = range(limit + 1)
    return [conv(hi.get(t)) for t in span], [conv(lo.get(t)) for t in span]


@dataclass(frozen=True)
class RecurrenceCheck:
    """Scan result for one extreme-length recurrence f(n) = f(n - step) + weight."""

    step: int
    weight: Fraction
    largest_failure: int | None
    holds_from: int


@dataclass(frozen=True)
class WeightedRecurrenceReport:
    horizon: int
    threshold: int  # square of the largest generator
    max_side: RecurrenceCheck
    min_side: RecurrenceCheck


def verify_weighted_recurrences(S: Semigroup, w, horizon: int) -> WeightedRecurrenceReport:
    """Scan n <= horizon for failures of the two quasilinear recurrences
    M_w(n) = M_w(n - g_first) + w_first and m_w(n) = m_w(n - g_last) + w_last,
    where g_first / g_last are the generators with the largest / smallest
    weight-to-generator ratio.

    Failures must all lie at or below the largest generator squared; the scan
    raises if one appears beyond it.
    """
    ws, iw, _ = _scaled(S, w)
    threshold = max(S.generators) ** 2
    if horizon <= threshold:
        raise ValueError(f"horizon {horizon} must exceed {threshold} (largest generator squared)")
    order = w_ordering(S, ws)
    _check_extremes_budget(horizon)
    hi, lo = _extremes(S, iw, range(S.d, horizon + 1, S.d))

    def scan(table, idx) -> RecurrenceCheck:
        g = S.generators[idx]
        wt = iw[idx]
        largest = None
        for t, v in table.items():  # ascending: the pass inserts in order
            if table.get(t - g) != v - wt:
                largest = t
        if largest is not None and largest > threshold:
            raise RuntimeError(
                f"recurrence with step {g} fails at {largest} > {threshold}"
            )
        return RecurrenceCheck(g, ws[idx], largest, 0 if largest is None else largest + 1)

    return WeightedRecurrenceReport(
        horizon=horizon,
        threshold=threshold,
        max_side=scan(hi, order.first),
        min_side=scan(lo, order.last),
    )


def weighted_delta_profile(S: Semigroup, w, bound: int) -> dict[int, tuple[Fraction, ...]]:
    """Brute-force weighted delta sets of every element <= bound, keyed by
    element; elements with fewer than two weighted lengths are omitted.

    Independent of the factorization enumerator: weighted length sets are
    accumulated bottom-up as bitmasks (one bit per attainable scaled length),
    so the cost stays polynomial even when factorization counts explode.
    The gaps between set bits are integers; each distinct gap set becomes
    one tuple of Fractions over the weights' denominator, shared by every
    element that has it, and each gap value one shared Fraction.
    """
    _, iw, den = _scaled(S, w)
    if bound + 1 > DELTA_PROFILE_BUDGET:
        raise ValueError(
            f"a delta profile up to {bound} is over the budget of "
            f"{DELTA_PROFILE_BUDGET} elements"
        )
    gens = S.generators
    d = S.d
    depth = bound // min(gens) + 1
    width = depth * (max(max(iw), 0) - min(min(iw), 0))
    if width > DELTA_MASK_BUDGET:
        raise ValueError(
            f"a delta profile up to {bound} with integer weights {tuple(iw)} needs "
            f"masks of {width} bits, over the budget of {DELTA_MASK_BUDGET} bits"
        )
    offset = max(0, -min(iw)) * depth
    masks = {0: 1 << offset}  # the masks of the last max(gens) elements
    top = max(gens)
    out: dict[int, tuple[Fraction, ...]] = {}
    rows: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    values: dict[int, Fraction] = {}
    for t in range(d, bound + 1, d):
        m = 0
        for g, wi in zip(gens, iw):
            prev = masks.get(t - g, 0)
            m |= prev << wi if wi >= 0 else prev >> -wi
        masks[t] = m
        masks.pop(t - top, None)
        if m == 0 or m & (m - 1) == 0:
            continue  # empty or a single length
        gaps = tuple(_gaps([i for i, c in enumerate(bin(m)) if c == "1"]))
        row = rows.get(gaps)
        if row is None:
            row = rows[gaps] = tuple(values.setdefault(g, Fraction(g, den)) for g in gaps)
        out[t] = row
    return out


def weighted_delta_union_up_to(S: Semigroup, w, bound: int) -> tuple[Fraction, ...]:
    """Union of the brute-forced weighted delta sets of all elements <= bound."""
    out = set()
    for gaps in weighted_delta_profile(S, w, bound).values():
        out.update(gaps)
    return tuple(sorted(out))


def delta_set_up_to(S: Semigroup, bound: int) -> tuple[int, ...]:
    """Union of the delta sets of all elements <= bound: the bitmask
    brute-forcer for unit weights."""
    return tuple(int(g) for g in weighted_delta_union_up_to(S, [1] * S.k, bound))
