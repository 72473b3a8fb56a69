"""Acceptance suite: one test per criterion, exact integer/rational equality
throughout (tolerance zero).  Each test records a PASS/FAIL line that pytest
prints in the terminal summary."""

import random
from fractions import Fraction

import pytest

from oracles import (
    brute_factorization_table,
    random_generators,
    random_weights,
    record_criterion,
)
from numsgps import (
    LinearFamily,
    PolynomialFamily,
    Semigroup,
    betti_bijection,
    betti_elements,
    detect,
    factorizations,
    fit,
    leading_coefficient,
    min_delta_w,
    minimal_presentation,
    scan,
    transport_presentation,
    verify_fast_apery,
    verify_weighted_recurrences,
    weighted_delta_profile,
    weighted_extreme_tables,
)

EX53 = LinearFamily.normalize((3, 4, 6, 9), (1, 2, 4, 6))
SMALL = LinearFamily.normalize((1, 1, 1), (0, 1, 2))
EX71 = PolynomialFamily(((0, 0, 1), (1, 1, 1), (1, 2, 1), (3, 2, 1)))

# families with w_1 = 1, w_i <= 3, r_i <= 8, and gcd of the positive offsets 1
# (the n-element Apery identity needs the member at n to have gcd 1); all have
# embedding dimension >= 3, where the k(F-g)-(F+1) Wilf variant can be
# positive at all (two-generator members are symmetric, pinning it at -2)
APERY_FAMILIES = [
    LinearFamily.normalize(w, r)
    for w, r in [
        ((1, 1, 1), (0, 1, 3)),
        ((1, 2, 3), (0, 1, 2)),
        ((1, 1, 1), (0, 2, 3)),
        ((1, 1, 2), (0, 3, 4)),
        ((1, 1, 1), (0, 4, 5)),
        ((1, 2, 3), (0, 2, 5)),
        ((1, 2, 2), (0, 3, 5)),
        ((1, 3, 2), (0, 3, 4)),
        ((1, 1, 1, 1), (0, 3, 5, 7)),
        ((1, 2, 3, 3), (0, 1, 4, 6)),
    ]
]


def apery_window(fam):
    lo = fam.apery_bound
    return range(lo + 1, lo + 2 * fam.r[-1] + 1)


def check(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    record_criterion(f"{criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_c1_six_nine_twenty_regression():
    S = Semigroup([6, 9, 20])
    ok = (
        S.apery_set(6).elements == (0, 49, 20, 9, 40, 29)
        and S.frobenius() == 43
        and S.genus() == 22
        and set(betti_elements(S)) == {18, 60}
    )
    rels = minimal_presentation(S)
    ok = ok and len(rels) == 2
    by_deg = {r.degree: r for r in rels}
    ok = ok and {by_deg[18].left, by_deg[18].right} == {(3, 0, 0), (0, 2, 0)}
    ok = ok and by_deg[60].as_pair() in [
        frozenset(((10, 0, 0), (0, 0, 3))),
        frozenset(((7, 2, 0), (0, 0, 3))),
        frozenset(((4, 4, 0), (0, 0, 3))),
        frozenset(((1, 6, 0), (0, 0, 3))),
    ]
    check("C1 <6,9,20> regression (Apery, Frobenius, genus, Betti, presentation)", ok)


def test_c2_weighted_boundary_values():
    S = Semigroup([9, 10, 23])
    f1 = verify_weighted_recurrences(S, (1, 3, 5), 600).max_side.largest_failure
    f2 = verify_weighted_recurrences(S, (6, 9, 5), 600).max_side.largest_failure
    T = Semigroup([6, 9, 10, 14])
    hi, lo = weighted_extreme_tables(T, (2, 3, 5, 7), 320)
    p_max = detect({n: hi[n] for n in range(250, 311)}, 6, 2)
    p_min = detect({n: lo[n] for n in range(250, 311)}, 6, 2)
    ok = f1 == 64 and f2 == 81 and p_max == (2, 1) and p_min == (3, 1)
    check(
        "C2 weighted boundaries (largest failures 64/81; minimal periods 2/3)",
        ok,
        f"got {f1}, {f2}, {p_max}, {p_min}",
    )


def test_c3_oracle_equivalence():
    rng = random.Random(20240)
    semigroups = [random_generators(rng) for _ in range(50)]
    max_attained = 0
    for gens in semigroups:
        S = Semigroup(gens)
        # independent bottom-up enumerator agrees element by element
        table = brute_factorization_table(gens, 300)
        for t in range(301):
            assert set(factorizations(S, t)) == table[t], (gens, t)
        betti_small = [b for b in betti_elements(S) if b <= 400]
        for _ in range(10):
            w = random_weights(rng, S.k)
            dmin = min_delta_w(S, w)
            profile = weighted_delta_profile(S, w, 400)
            union = {g for gaps in profile.values() for g in gaps}
            if dmin == 0:
                assert not union, (gens, w)
                continue
            for g in union:
                q = g / dmin
                assert q.denominator == 1 and q >= 1, (gens, w, g, dmin)
            if union:
                top = max(union)
                betti_gaps = {g for b in betti_small for g in profile.get(b, ())}
                assert top in betti_gaps, (gens, w, top)
                max_attained += 1
    check(
        "C3 oracle equivalence (50 semigroups x 10 weights; enumerators to 300)",
        max_attained > 150,
        f"{max_attained} max-at-Betti confirmations",
    )


BLOCK_P515 = {
    frozenset(((0, 0, 3, 0), (0, 0, 0, 2))),
    frozenset(((0, 3, 0, 0), (2, 0, 1, 0))),
    frozenset(((515, 1, 0, 0), (0, 0, 0, 172))),
    frozenset(((517, 0, 0, 0), (0, 2, 2, 170))),
}
BLOCK_P524 = {
    frozenset(((0, 0, 3, 0), (0, 0, 0, 2))),
    frozenset(((0, 3, 0, 0), (2, 0, 1, 0))),
    frozenset(((524, 1, 0, 0), (0, 0, 0, 175))),
    frozenset(((526, 0, 0, 0), (0, 2, 2, 173))),
}


@pytest.fixture(scope="module")
def ex53_transports():
    return transport_presentation(EX53, 506), transport_presentation(EX53, 515)


def test_c4_phi_transport(ex53_transports):
    rep506, rep515 = ex53_transports
    ok = rep506.ok and {r.as_pair() for r in rep506.image} == BLOCK_P515
    ok = ok and rep515.ok and {r.as_pair() for r in rep515.image} == BLOCK_P524
    # canonical tie-break reproduces the blocks directly as well
    ok = ok and {r.as_pair() for r in rep506.independent} == BLOCK_P515
    for n in range(5, 31):
        rep = transport_presentation(SMALL, n)
        ok = ok and rep.ok and rep.in_guaranteed_regime
    check("C4 relation transport (printed blocks at 506/515; small family 5..30)", ok)


def test_c5_betti_bijection_and_periodicity(ex53_transports):
    ok = True
    for n in range(5, 21):
        rep = betti_bijection(SMALL, n)
        ok = ok and rep.is_bijection and rep.in_guaranteed_regime
    counts = {
        n: sum(betti_elements(SMALL.instantiate(n)).values()) for n in range(5, 31)
    }
    ok = ok and all(counts[n] == counts[n + 2] for n in range(5, 29))
    big = betti_bijection(EX53, 506)
    ok = ok and big.is_bijection
    rep506, _ = ex53_transports
    ok = ok and sum(m for _, m in big.source) == sum(m for _, m in big.target) == len(rep506.image)
    check("C5 Betti bijection and multiplicity-counted periodicity", ok)


def test_c6_fast_apery():
    ok = True
    checked = 0
    for fam in APERY_FAMILIES:
        for n in apery_window(fam):
            chk = verify_fast_apery(fam, n)
            ok = ok and chk.in_guaranteed_regime and chk.matches and not chk.singleton_failures
            checked += 1
    check(
        "C6 closed-form Apery sets over 10 families, full windows",
        ok and checked >= 70,
        f"{checked} parameters checked",
    )


def test_c7_quasipolynomial_coefficients():
    fam = LinearFamily.normalize((1, 1), (0, 2))
    frob = dict(scan(fam, range(5, 62, 2), "frobenius"))
    gen = dict(scan(fam, range(5, 62, 2), "genus"))
    qf = fit(frob, 2, 2)
    qg = fit(gen, 2, 2)
    ok = (
        qf.degree == 2 and qf.period == 2 and qf.n_min == 5
        and qg.degree == 2 and qg.period == 2 and qg.n_min == 5
    )
    # exact leading coefficients carry the inner gcd d = 2 of S = <2>:
    # d*w_k/r_k = 1 and d*w_k/(2 r_k) = 1/2
    ok = ok and leading_coefficient(qf) == 1 and leading_coefficient(qg) == Fraction(1, 2)
    # type periodicity and positive Wilf numbers on the guaranteed tails
    for fam2 in APERY_FAMILIES:
        rk = fam2.r[-1]
        window = list(apery_window(fam2))
        types = dict(scan(fam2, window, "type"))
        ok = ok and all(types[n] == types[n + rk] for n in window[: len(window) - rk])
        wilfs = dict(scan(fam2, window, "wilf"))
        ok = ok and all(v > 0 for v in wilfs.values())
    check(
        "C7 quasipolynomial fits (deg 2, period 2, leading 1 and 1/2), type periodicity, Wilf > 0",
        ok,
    )


@pytest.mark.xfail(
    strict=True,
    reason="for r=(0,2) the inner semigroup <2> has gcd d=2, so the exact "
    "leading coefficients are d*w_k/r_k = 1 and d*w_k/(2r_k) = 1/2; the "
    "d-free values 1/2 and 1/4 cannot fit the true samples F = n^2 - 2 and "
    "g = (n^2 - 1)/2",
)
def test_c7_leading_coefficients_without_gcd_factor():
    fam = LinearFamily.normalize((1, 1), (0, 2))
    qf = fit(dict(scan(fam, range(5, 62, 2), "frobenius")), 2, 2)
    qg = fit(dict(scan(fam, range(5, 62, 2), "genus")), 2, 2)
    record_criterion(
        "C7 (d-free coefficient variant 1/2, 1/4): FAIL as expected; exact values "
        "are 1 and 1/2 (factor d=2 from the inner semigroup <2>)"
    )
    assert leading_coefficient(qf) == Fraction(1, 2)
    assert leading_coefficient(qg) == Fraction(1, 4)


def test_c8_conjecture_scan():
    blocks = {
        52: [
            ((0, 0, 27, 0), (0, 1, 0, 26)),
            ((0, 3, 26, 0), (2, 0, 0, 27)),
            ((0, 4, 0, 0), (2, 0, 1, 1)),
            ((25, 2, 14, 0), (0, 0, 0, 40)),
            ((25, 3, 0, 0), (0, 0, 13, 14)),
            ((27, 0, 0, 0), (0, 1, 12, 13)),
        ],
        56: [
            ((0, 0, 29, 0), (0, 1, 0, 28)),
            ((0, 3, 28, 0), (2, 0, 0, 29)),
            ((0, 4, 0, 0), (2, 0, 1, 1)),
            ((27, 2, 15, 0), (0, 0, 0, 43)),
            ((27, 3, 0, 0), (0, 0, 14, 15)),
            ((29, 0, 0, 0), (0, 1, 13, 14)),
        ],
        60: [
            ((0, 0, 31, 0), (0, 1, 0, 30)),
            ((0, 3, 30, 0), (2, 0, 0, 31)),
            ((0, 4, 0, 0), (2, 0, 1, 1)),
            ((29, 2, 16, 0), (0, 0, 0, 46)),
            ((29, 3, 0, 0), (0, 0, 15, 16)),
            ((31, 0, 0, 0), (0, 1, 14, 15)),
        ],
        64: [
            ((0, 0, 33, 0), (0, 1, 0, 32)),
            ((0, 3, 32, 0), (2, 0, 0, 33)),
            ((0, 4, 0, 0), (2, 0, 1, 1)),
            ((31, 2, 17, 0), (0, 0, 0, 49)),
            ((31, 3, 0, 0), (0, 0, 16, 17)),
            ((33, 0, 0, 0), (0, 1, 15, 16)),
        ],
    }
    rows = dict(scan(EX71, [52, 56, 60, 64], "minpres_degrees"))
    ok = True
    for m, block in blocks.items():
        gens = EX71.generators(m)
        for left, right in block:
            assert sum(a * g for a, g in zip(left, gens)) == sum(
                a * g for a, g in zip(right, gens)
            ), (m, left, right)
        expected = sorted(sum(a * g for a, g in zip(left, gens)) for left, _ in block)
        ok = ok and len(rows[m]) == 6 and list(rows[m]) == expected
    check("C8 nonlinear family: 6-relation presentations match printed degree multisets", ok)
