"""Linear families P_n = <w_1 n + r_1, ..., w_k n + r_k> and polynomial
families P_n = <f_1(n), ..., f_k(n)>: normalization, relation transport
between consecutive family members, the Betti-element bijection, the constant
weighted delta value, closed-form Apery sets, pseudo-Frobenius transport, and
invariant scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd

from .factorizations import (
    Relation,
    _extreme_lengths,
    betti_elements,
    minimal_presentation,
    verify_minimal_presentation,
)
from .semigroup import AperySet, Semigroup
from .weighted import (
    _check_extremes_budget,
    _extremes,
    _lengths,
)


class VerificationError(RuntimeError):
    """An identity that is guaranteed in the large-n regime failed to verify."""


def _member(gens: tuple[int, ...]) -> Semigroup:
    """The semigroup on ``gens`` in the given order: the one constructor of
    family members."""
    if any(g < 1 for g in gens):
        raise ValueError(f"non-positive generator in {gens}")
    return Semigroup(gens, keep_order=True)


def _dot(z, v) -> int:
    return sum(a * b for a, b in zip(z, v))


@dataclass(frozen=True)
class LinearFamily:
    """Normalized linear family: w positive integers, r non-negative integers,
    ratios r_i/w_i ascending, and 0 <= r_1 < w_1.

    ``shift`` records the reparametrization applied by :meth:`normalize`:
    generators(n) here equal the original family's generators at n + shift.
    """

    w: tuple[int, ...]
    r: tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        if len(self.w) != len(self.r) or not self.w:
            raise ValueError("w and r must be nonempty tuples of equal length")
        if any(x < 1 for x in self.w):
            raise ValueError("all w_i must be >= 1")
        if any(x < 0 for x in self.r):
            raise ValueError("normalized r_i must be >= 0")
        ratios = [Fraction(ri, wi) for wi, ri in zip(self.w, self.r)]
        if any(a > b for a, b in zip(ratios, ratios[1:])):
            raise ValueError("generators must be ordered by ascending r_i/w_i")
        if not 0 <= self.r[0] < self.w[0]:
            raise ValueError("normalization requires 0 <= r_1 < w_1")

    @classmethod
    def normalize(cls, w, r) -> "LinearFamily":
        """Sort the (w_i, r_i) pairs by ascending r_i/w_i (ties by ascending
        w_i) and substitute n -> n + s with the unique integer s giving
        0 <= r_1 < w_1 and every r_i >= 0."""
        w = tuple(int(x) for x in w)
        r = tuple(int(x) for x in r)
        if len(w) != len(r) or not w:
            raise ValueError("w and r must be nonempty and of equal length")
        if any(x < 1 for x in w):
            raise ValueError("all w_i must be >= 1")
        pairs = sorted(zip(w, r), key=lambda p: (Fraction(p[1], p[0]), p[0]))
        w = tuple(p[0] for p in pairs)
        r = tuple(p[1] for p in pairs)
        s = -(r[0] // w[0])
        return cls(w, tuple(ri + wi * s for wi, ri in zip(w, r)), s)

    @property
    def k(self) -> int:
        return len(self.w)

    @property
    def max_weight(self) -> int:
        return max(self.w)

    @property
    def max_offset(self) -> int:
        return max(self.r)

    @property
    def period(self) -> int:
        """w_1 r_k - w_k r_1: the step at which presentations and Betti data
        repeat for large n.  Zero exactly when all ratios r_i/w_i coincide."""
        return self.w[0] * self.r[-1] - self.w[-1] * self.r[0]

    @property
    def is_degenerate(self) -> bool:
        return self.period == 0

    @property
    def transport_bound(self) -> int:
        """n above which relation transport and the Betti bijection are
        guaranteed: w_1^2 * max(w) * max(r)^2."""
        return self.w[0] ** 2 * self.max_weight * self.max_offset**2

    @property
    def apery_bound(self) -> int:
        """n above which the closed-form Apery set is guaranteed (w_1 = 1
        families): max(w) * max(r)^2."""
        return self.max_weight * self.max_offset**2

    def generators(self, n: int) -> tuple[int, ...]:
        return tuple(wi * n + ri for wi, ri in zip(self.w, self.r))

    @cached_property
    def _members(self):
        # not a field: ==, hash and repr see only w, r and shift
        return lru_cache(maxsize=2)(_member)

    def instantiate(self, n: int) -> Semigroup:
        """The member semigroup at parameter n, generator order preserved.
        The family's two most recent members are kept (a thread-safe LRU), so
        transport and the Betti bijection, which both use n and n + p, compute
        each residue table and Betti set once.  Errors raise again."""
        return self._members(self.generators(n))


@dataclass(frozen=True)
class PolynomialFamily:
    """P_n = <f_1(n), ..., f_k(n)> for integer polynomials f_i, each given by
    ascending-degree coefficients, eventually increasing and >= 1 from
    ``n_min`` on.  Supports scans only (there is no transport for nonlinear
    families)."""

    polys: tuple[tuple[int, ...], ...]
    shift = 0  # not a field: parameters are used as written (see LinearFamily.shift)

    def __post_init__(self):
        cleaned = []
        for coeffs in self.polys:
            cs = list(coeffs)
            while len(cs) > 1 and cs[-1] == 0:
                cs.pop()
            if not cs:
                raise ValueError("empty coefficient list")
            if len(cs) == 1:
                if cs[0] < 1:
                    raise ValueError(f"constant generator {cs[0]} must be >= 1")
            elif cs[-1] <= 0:
                raise ValueError(f"leading coefficient must be positive in {coeffs}")
            cleaned.append(tuple(cs))
        object.__setattr__(self, "polys", tuple(cleaned))

    @property
    def k(self) -> int:
        return len(self.polys)

    def value(self, i: int, n: int) -> int:
        acc = 0
        for c in reversed(self.polys[i]):
            acc = acc * n + c
        return acc

    @cached_property
    def n_min(self) -> int:
        """Smallest n >= 0 from which every f_i(m) >= 1 for all m >= n."""
        start = 0
        for cs in self.polys:
            if len(cs) == 1:
                continue
            lead = cs[-1]
            # all real roots of f and f' lie below 1 + max|c_j|/lead
            bound = 1 + max(abs(c) for c in cs[:-1]) // lead + 1
            start = max(start, bound)
        while start > 0 and all(self.value(i, start - 1) >= 1 for i in range(self.k)):
            start -= 1
        return start

    def generators(self, n: int) -> tuple[int, ...]:
        return tuple(self.value(i, n) for i in range(self.k))

    def instantiate(self, n: int) -> Semigroup:
        return _member(self.generators(n))


def _ints(value, key: str) -> tuple[int, ...]:
    """A spec entry that must be an array of integers: no floats, strings,
    booleans or nulls."""
    if not isinstance(value, (list, tuple)) or any(type(x) is not int for x in value):
        raise ValueError(f'spec "{key}" must be a list of integers, got {value!r}')
    return tuple(value)


def family_from_spec(doc: dict):
    """Build a family from its JSON document: {"w": [...], "r": [...]} for a
    linear family (normalized on load) or {"polys": [[c0, c1, ...], ...]},
    with an optional "range": [a, b].  Every array must hold integers."""
    if not isinstance(doc, dict):
        raise ValueError(f"family spec must be a JSON object, got {doc!r}")
    if "range" in doc and len(_ints(doc["range"], "range")) != 2:
        raise ValueError(f'spec "range" must be [start, end], got {doc["range"]!r}')
    if "w" in doc and "r" in doc:
        return LinearFamily.normalize(_ints(doc["w"], "w"), _ints(doc["r"], "r"))
    if "polys" in doc:
        polys = doc["polys"]
        if not isinstance(polys, (list, tuple)):
            raise ValueError(f'spec "polys" must be a list of integer lists, got {polys!r}')
        return PolynomialFamily(tuple(_ints(p, "polys") for p in polys))
    raise ValueError('family spec needs either "w" and "r" or "polys"')


def family_delta(family: LinearFamily) -> int:
    """The single weighted delta value of the family members for large n:
    gcd over generator pairs of |w_i r_j - w_j r_i| (n cancels, so the value
    is n-independent).  0 encodes an empty weighted delta set (all ratios
    equal, e.g. w_i = r_i)."""
    terms = [
        abs(family.w[i] * family.r[j] - family.w[j] * family.r[i])
        for i in range(family.k)
        for j in range(i + 1, family.k)
    ]
    return reduce(gcd, terms, 0)


def phi(family: LinearFamily, n: int, rel: Relation) -> Relation:
    """Transport one relation of P_n to P_{n+p}: the side of larger weighted
    length gains ell*w_k on the first coordinate, the other side gains
    ell*w_1 on the last, where ell is the weighted length difference; equal
    weighted lengths transport unchanged."""
    if family.is_degenerate:
        raise ValueError("degenerate family: period zero, P_{n+p} = P_n")
    gens = family.generators(n)
    if _dot(rel.left, gens) != _dot(rel.right, gens):
        raise ValueError(f"{rel} is not a relation of the member at n={n}")
    lw, rw = _dot(rel.left, family.w), _dot(rel.right, family.w)
    ell = abs(lw - rw)
    left, right = list(rel.left), list(rel.right)
    heavy, light = (left, right) if lw > rw else (right, left)
    heavy[0] += ell * family.w[-1]
    light[-1] += ell * family.w[0]
    # equal lengths keep their vectors, which a report then shares with its source
    left, right = (tuple(left), tuple(right)) if ell else (rel.left, rel.right)
    gens2 = family.generators(n + family.period)
    dl, dr = _dot(left, gens2), _dot(right, gens2)
    if dl != dr:
        raise VerificationError(f"transported pair unbalanced at n+p: {dl} != {dr}")
    if _dot(left, family.w) - _dot(right, family.w) != lw - rw:
        raise VerificationError("transport changed the weighted length difference")
    return Relation(left, right, dl)


@dataclass(frozen=True, slots=True)
class TransportReport:
    """Transport of a whole minimal presentation from P_n to P_{n+p}, checked
    against the target's Betti elements and factorization graphs; the
    target's own canonical presentation is kept as ``independent``."""

    n: int
    period: int
    transport_bound: int
    source: tuple[Relation, ...]
    image: tuple[Relation, ...]
    independent: tuple[Relation, ...]
    problems: tuple[str, ...]

    @property
    def in_guaranteed_regime(self) -> bool:
        return self.n > self.transport_bound

    @property
    def ok(self) -> bool:
        return not self.problems


def transport_presentation(family: LinearFamily, n: int) -> TransportReport:
    """Apply :func:`phi` to the canonical minimal presentation of P_n and
    verify the image is a minimal presentation of P_{n+p} (Betti degree
    multiset plus component spanning structure).  A mismatch is reported, not
    raised; it is guaranteed absent for n > transport_bound."""
    if family.is_degenerate:
        raise ValueError("degenerate family: period zero, P_{n+p} = P_n")
    source = minimal_presentation(family.instantiate(n))
    target = family.instantiate(n + family.period)
    independent = minimal_presentation(target)
    # each image degree that is a Betti element of the target is the target's
    # own int, which a kept report then holds once
    own = {rel.degree: rel.degree for rel in independent}
    image = tuple(
        Relation(z.left, z.right, own.get(z.degree, z.degree))
        for z in (phi(family, n, rel) for rel in source)
    )
    problems = verify_minimal_presentation(target, image)
    if independent == image:
        independent = image  # the usual outcome: a kept report holds one copy
    return TransportReport(
        n=n,
        period=family.period,
        transport_bound=family.transport_bound,
        source=source,
        image=image,
        independent=independent,
        problems=tuple(problems),
    )


@dataclass(frozen=True, slots=True)
class BettiBijectionReport:
    """The piecewise map Betti(P_n) -> Betti(P_{n+p}) of :func:`betti_bijection`:
    with g = ``family.instantiate(n).d``, an element of weighted lengths {lam}
    moves by lam*p, one of {lam, lam + delta/g} also by (delta/g)*w_1*(w_k*(n+p) + r_k)."""

    n: int
    period: int
    delta: int
    transport_bound: int
    mapping: tuple[tuple[int, int], ...]
    source: tuple[tuple[int, int], ...]
    target: tuple[tuple[int, int], ...]
    anomalies: tuple[tuple[int, tuple[Fraction, ...]], ...]

    @property
    def in_guaranteed_regime(self) -> bool:
        return self.n > self.transport_bound

    @property
    def is_bijection(self) -> bool:
        # the target's Betti elements are distinct, so equal sorted lists are one-to-one
        image = sorted(b for _, b in self.mapping)
        return not self.anomalies and image == sorted(b for b, _ in self.target)


def betti_bijection(family: LinearFamily, n: int) -> BettiBijectionReport:
    """Map each Betti element of P_n per its weighted length set and verify
    the image is exactly Betti(P_{n+p}).

    The shift is that of :func:`phi`.  At n + p each generator grows by
    w_i p, so a factorization of weighted length lam grows by lam*p; a
    relation between lengths lam and lam + l maps to the degree of its
    lighter side plus l*w_1*(w_k*(n+p) + r_k).  On a gcd-1 member the gap l
    is delta, the family delta.

    On a member of gcd g the gap is delta/g.  Each w_i r_j - w_j r_i equals
    w_i (w_j n + r_j) - w_j (w_i n + r_i), a multiple of g, so g divides
    delta and p.  Then g divides every generator w_i (n + p) + r_i of
    P_{n+p}, and the same argument from n + p back to n shows
    gcd(P_{n+p}) = g.  Write P_n = g T.  With n_0 = n mod g and
    r'_i = (w_i n_0 + r_i)/g, T is the member at m = (n - n_0)/g of the
    family (w, r'), and P_{n+p} = g T' with T' its member at m + p/g.  That
    family has delta/g as its delta and p/g as its period, and the
    factorizations of g b in P_n, with their weighted lengths, are those of b
    in T.  So the identity for T at m, multiplied by g, is the one above
    with delta/g as the gap: g (b + lam p/g + (delta/g) w_1 (w_k (m + p/g)
    + r'_k)) = g b + lam p + (delta/g) w_1 (w_k (n + p) + r_k).  Its
    regime is not carried over; the guarantee is the family's own bound.

    The gap lemma: for z, z' in Z(beta) and v = z - z', v . g = 0 gives
    g_j (v . w) = sum_i v_i (w_i r_j - w_j r_i), a multiple of delta, for each
    j; g is an integer combination of the g_j, so weighted-length differences
    are multiples of delta/g.  Each length lies in [ceil(beta w_k / g_k),
    floor(beta w_1 / g_1)], as w_i / g_i = 1 / (n + r_i / w_i) falls with the
    ratios.  So the extremes alone decide the set's shape: every length is
    lam plus a multiple of delta/g, so a spread max - min of 0 is {lam} and
    one of delta/g is {lam, lam + delta/g}.  The extremes come from the
    branch and bound of ``factorizations._extreme_lengths``, and only an
    anomaly, a set of any other spread (never above the transport bound),
    enumerates Z(beta), as its report prints the whole set."""
    if family.is_degenerate:
        raise ValueError("degenerate family: period zero")
    delta = family_delta(family)
    p = family.period
    P = family.instantiate(n)
    gap = delta // P.d
    source = betti_elements(P)
    target = betti_elements(family.instantiate(n + p))
    w1, wk, rk = family.w[0], family.w[-1], family.r[-1]
    own = dict(zip(target, target))  # an image in Betti(P_{n+p}) is kept as the target's own int
    mapping = []
    anomalies = []
    for beta in source:
        lam, top = _extreme_lengths(P, beta, family.w)
        spread = top - lam  # 0 or gap exactly when the set is {lam} or {lam, lam + gap}
        if spread in (0, gap):
            image = beta + lam * p + spread * w1 * (wk * (n + p) + rk)
            mapping.append((beta, own.get(image, image)))
        else:
            anomalies.append((beta, tuple(map(Fraction, _lengths(P, beta, family.w)))))
    return BettiBijectionReport(
        n=n,
        period=p,
        delta=delta,
        transport_bound=family.transport_bound,
        mapping=tuple(mapping),
        source=tuple(source.items()),
        target=tuple(target.items()),
        anomalies=tuple(anomalies),
    )


def apery_at_multiple(S: Semigroup, n: int) -> AperySet:
    """Apery set of S relative to d*n when d*n exceeds the Frobenius number.
    It has the closed form: position i holds d*i if d*i is an element, else
    d*i + d*n, since every multiple of d past the Frobenius number is one."""
    d = S.d
    if d * n <= S.frobenius():
        raise ValueError(f"need d*n > frobenius ({d * n} <= {S.frobenius()})")
    return S.apery_set(d * n)


def _closed_form(family: LinearFamily, n: int) -> dict[int, int]:
    """Each a in Ap(S; dn), ascending, mapped to m_w(a), its least weighted
    length in S, the semigroup of the positive offsets r_i (gcd d) of a
    w_1 = 1 family; a duplicated offset keeps its cheapest weight, the only
    one a minimum uses.  For n > apery_bound, Ap(P_n; n) = {a + m_w(a) n}.

    It needs gcd(n, d) = 1: P_n has gcd gcd(n, r_2, ..., r_k) = gcd(n, d) = g,
    and with g > 1, Ap(P_n; n) has n/g elements but Ap(S; dn) has n.  Whether
    the reduction P_n = g T of :func:`betti_bijection` extends the closed
    form to g > 1 is open.  Ap(S; dn) is an order ideal of S that contains 0,
    so the lo dict of one ``weighted._extremes`` pass over it has exactly its
    elements as keys, in ascending order."""
    if family.w[0] != 1:
        raise ValueError("this construction requires w_1 = 1 (hence r_1 = 0)")
    if family.is_degenerate:
        raise ValueError("degenerate family: every generator is a multiple of the first")
    best: dict[int, int] = {}
    for wi, ri in zip(family.w, family.r):
        if ri > 0:
            best[ri] = min(best.get(ri, wi), wi)
    S = _member(tuple(sorted(best)))
    d = S.d
    if gcd(n, d) != 1:
        raise ValueError(
            f"gcd(n, {d}) must be 1: the member at n={n} has gcd {gcd(n, d)} and its "
            f"Apery set at n has fewer than n elements"
        )
    # the n elements of Ap(S; dn) are multiples of d distinct mod dn, so the
    # pass keeps n <= d (n - 1) + 1 entries: check that before building it
    _check_extremes_budget(d * (n - 1))
    ap = apery_at_multiple(S, n)
    return _extremes(S, [best[x] for x in S.generators], sorted(ap.elements))[1]


@dataclass(frozen=True)
class FastAperyCheck:
    """Closed-form Apery set of the member at n versus the direct one.

    ``singleton_failures`` lists each mapped element e = a + m_w(a) n whose
    weighted length set in P_n is not {m_w(a)}, with the whole set.  m_w is
    the map of :func:`_closed_form` over Ap(S; dn), and the extremes of every
    element come from one pass over Ap(P_n; n) (see :func:`verify_fast_apery`);
    Z(e) is enumerated only for an element that fails."""

    n: int
    apery_bound: int
    theorem: AperySet
    direct: AperySet
    singleton_failures: tuple[tuple[int, tuple[Fraction, ...]], ...]

    @property
    def in_guaranteed_regime(self) -> bool:
        return self.n > self.apery_bound

    @property
    def matches(self) -> bool:
        return self.theorem.elements == self.direct.elements

    @property
    def ok(self) -> bool:
        return self.matches and not self.singleton_failures


def verify_fast_apery(family: LinearFamily, n: int) -> FastAperyCheck:
    """Compute the closed-form Apery set {a + m_w(a) * n} and compare it with
    the directly computed Ap(P_n; n); also check that each mapped element's
    weighted length set in P_n is the predicted singleton {m_w(a)}.

    Both halves read extreme weighted lengths off one ascending pass over an
    order ideal (``weighted._extremes``); m_w is :func:`_closed_form`'s map.
    Mapped elements never share a class mod n: the a are multiples of d
    distinct mod dn, hence mod n as gcd(n, d) = 1, and e = a + m_w(a) n is a
    mod n.  P_n has gcd gcd(n, d) = 1, so Ap(P_n; n) has n elements, one per
    class.  No factorization of an e in it uses g_1 = n, which would put
    e - n in P_n, and each generator g it does use leaves e - g in the order
    ideal Ap(P_n; n).  So Z(e) is the union of Z(e - g) + e_g over the g with
    e - g in Ap(P_n; n), and the singleton check reads the min and max
    weighted length of every element off the pass over it.  A mapped element
    passes when both equal m_w(a); only one outside the direct Apery set, or
    whose extremes disagree, enumerates Z(e) for the set its report prints."""
    min_lengths = {a + mw * n: mw for a, mw in _closed_form(family, n).items()}
    P = family.instantiate(n)
    direct = P.apery_set(n)
    hi, lo = _extremes(P, family.w, sorted(direct.elements))
    failures = []
    for e, mw in sorted(min_lengths.items()):
        if lo.get(e) == mw == hi.get(e):
            continue
        lengths = _lengths(P, e, family.w)
        if lengths != [mw]:
            failures.append((e, tuple(map(Fraction, lengths))))
    return FastAperyCheck(
        n=n,
        apery_bound=family.apery_bound,
        theorem=AperySet(P, n, tuple(sorted(min_lengths, key=lambda e: e % n))),
        direct=direct,
        singleton_failures=tuple(failures),
    )


def fast_apery(family: LinearFamily, n: int) -> AperySet:
    """Apery set of the member at n via the closed form (w_1 = 1 families).

    The result is always checked against the direct computation and the
    singleton weighted length sets; a failure raises VerificationError
    (guaranteed not to happen for n > apery_bound)."""
    check = verify_fast_apery(family, n)
    if not check.matches:
        raise VerificationError(
            f"closed-form Apery set differs from the direct one at n={n} "
            f"(n > bound: {check.in_guaranteed_regime})"
        )
    if check.singleton_failures:
        e, lengths = check.singleton_failures[0]
        raise VerificationError(
            f"Apery element {e} has weighted length set {lengths}, expected a singleton"
        )
    return check.theorem


@dataclass(frozen=True)
class PFTransportReport:
    """Pseudo-Frobenius numbers of the members at n and n + r_k, compared in
    the coordinates of Ap(S; dn), S the semigroup of the offsets r_i (gcd d):
    the keys of :func:`_closed_form` at n and at n + r_k.

    ``f_n`` holds the coordinates i in Ap(S; dn) whose class mod n is that of
    a pseudo-Frobenius number of P_n; ``f_next`` is the same at n + r_k.
    ``mapping`` sends every i to i + d*r_k, and ``is_bijection`` asks whether
    that lands exactly on ``f_next``.  The shift is right for coordinates
    near dn (the gap branch d*j + d*n grows with d*n), but wrong for those a
    bounded distance from 0, which stay put.  For w=(1,2,3,3), r=(0,1,4,6)
    at n = 109, f_n = (3, 105, 107, 108): PF(P_109) holds 548 = 3 + 5*109
    and PF(P_115) holds 578 = 3 + 5*115, so 3 stays at 3, the map sends it
    to 9, and ``is_bijection`` is False although ``types_equal`` holds."""

    n: int
    step: int
    apery_bound: int
    f_n: tuple[int, ...]
    f_next: tuple[int, ...]
    mapping: tuple[tuple[int, int], ...]
    type_n: int
    type_next: int

    @property
    def in_guaranteed_regime(self) -> bool:
        return self.n > self.apery_bound

    @property
    def is_bijection(self) -> bool:
        image = sorted(b for _, b in self.mapping)
        return image == sorted(set(image)) and image == list(self.f_next)

    @property
    def types_equal(self) -> bool:
        return self.type_n == self.type_next


def pf_transport(family: LinearFamily, n: int) -> PFTransportReport:
    """The PFTransportReport between P_n and P_{n + r_k} for a w_1 = 1 family
    and gcd(n, d) = 1, in the coordinates of :func:`_closed_form`.  Both PF
    sets are computed directly, so the types are exact; the map is the shift
    by d*r_k, wrong for coordinates a bounded distance from 0 (see the report)."""
    rk = family.r[-1]
    here, there = _closed_form(family, n), _closed_form(family, n + rk)
    pf1 = family.instantiate(n).pseudo_frobenius()
    pf2 = family.instantiate(n + rk).pseudo_frobenius()
    res1 = {a % n for a in pf1}
    res2 = {a % (n + rk) for a in pf2}
    f_n = tuple(i for i in here if i % n in res1)
    f_next = tuple(i for i in there if i % (n + rk) in res2)
    d = gcd(*family.r)  # r_1 = 0: the gcd of the positive offsets
    mapping = tuple((i, i + d * rk) for i in f_n)
    return PFTransportReport(
        n=n,
        step=rk,
        apery_bound=family.apery_bound,
        f_n=f_n,
        f_next=f_next,
        mapping=mapping,
        type_n=len(pf1),
        type_next=len(pf2),
    )


# each entry calls through the member, so wrappers swapped onto class
# attributes (the benchmark tracer's) still see the call
_SCAN = {
    "frobenius": lambda P: P.frobenius(),
    "genus": lambda P: P.genus(),
    "type": lambda P: P.type(),
    "wilf": lambda P: P.wilf_number("variant"),
    "betti_count": lambda P: len(betti_elements(P)),
    "betti_multiset": lambda P: tuple(sorted(betti_elements(P).values())),
    "minpres_degrees": lambda P: tuple(sorted(rel.degree for rel in minimal_presentation(P))),
}
SCAN_INVARIANTS = tuple(_SCAN)


def scan(family, ns, invariant: str) -> list[tuple[int, object]]:
    """Exact invariant values of the family members over the given parameters.

    ``wilf`` uses the k(F-g)-(F+1) variant.  ``betti_multiset`` emits the
    sorted multiset of per-element multiplicities
    (components - 1, i.e. one entry per relation); ``minpres_degrees`` the
    sorted degree multiset of the canonical minimal presentation.  Rows come
    back in the traversal order of ``ns``.
    """
    if invariant not in SCAN_INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}; choose from {SCAN_INVARIANTS}")
    value = _SCAN[invariant]
    return [(n, value(family.instantiate(n))) for n in ns]
